"""The `soundness` workload: criterion 4's random architectures, frozen.

Every case is a small forwarding pipeline, sometimes with a two-way fan-in.
A case runs proof search, checks the found proof and a mutated one, verifies
each accepted proof over the carrier {0, 1} with horizon 1, and emits and
formats the accepted variant.  Finite-domain verification is nearly all of
the time, and its cost is heavy-tailed: fan-in cases with four components
take seconds, most others take milliseconds.

The generator below is a copy of ``random_chain_model`` and ``mutate_proof``
from the acceptance tests, kept here so that edits to the tests cannot shift
the benchmark's inputs.  The models are always the first cases of the stream
seeded with STREAM_SEED, so every run does the same simulation work; the
benchmark seed picks the mutated proofs.  At the default seed the mutants are
the stream's own, which makes the cases exactly criterion 4's.

BENCHMARK.json leaves this workload out, because its run-to-run spread was
wider than the benchmark's bounds (perfbench/README.md); it runs on request
with ``--workload soundness`` and in ``--smoke``.
"""

import dataclasses
import random
import statistics

from apml import checker, isar, oracle, parser, printer
from apml import model as m

SORT = "D.V"
STREAM_SEED = 20260823
# Cases 0..29 of the stream, as many as one run's time allows: case 19 is a
# four-component fan-in that takes most of the pass, cases 17 and 20 are
# three-component fan-ins of over a second each.
CASES = 30
SMOKE_CASES = 5
# Search, check, emit-isar and fmt take well under a millisecond here, so
# each is timed over BATCH back-to-back calls.
BATCH = 10


def _stage(name, n_inputs, duration, pick_output):
    ports_in = tuple(m.Port("i%d" % k, name, m.INPUT, SORT)
                     for k in range(n_inputs))
    port_out = (m.Port("o", name, m.OUTPUT, SORT),)
    variables = tuple(("v%d" % k, SORT) for k in range(n_inputs))
    triggers = tuple(m.Trigger("t%d" % k,
                               m.Eq(m.PortRef(ports_in[k]),
                                    m.Var("v%d" % k, SORT)), 0)
                     for k in range(n_inputs))
    guarantee = m.Eq(m.PortRef(port_out[0]),
                     m.Var("v%d" % pick_output, SORT))
    contract = m.Contract(name="c", owner=name, variables=variables,
                          triggers=triggers, guarantee=guarantee,
                          duration=duration)
    return m.ComponentType(name=name, inputs=ports_in, outputs=port_out,
                           contracts=(contract,))


def random_chain_model(rng):
    """A pipeline (optionally with a two-way fan-in head) of forwarders."""
    n_stages = rng.randint(1, 3)
    fan_in = n_stages >= 2 and rng.random() < 0.4
    stages = []
    total = 0
    for i in range(n_stages):
        n_inputs = 2 if (fan_in and i == 1) else 1
        duration = rng.randint(1, 2)
        pick = 0
        stages.append(_stage("S%d" % i, n_inputs, duration, pick))
        total += duration

    connections = []
    if fan_in:
        sib_duration = stages[0].contracts[0].duration
        sibling = _stage("S0b", 1, sib_duration, 0)
        stages.insert(1, sibling)
        target = stages[2]
        connections.append((target.inputs[0], stages[0].outputs[0]))
        connections.append((target.inputs[1], sibling.outputs[0]))
        rest = stages[3:]
        prev = target
    else:
        rest = stages[1:]
        prev = stages[0]
    for st in rest:
        connections.append((st.inputs[0], prev.outputs[0]))
        prev = st

    head_inputs = [stages[0].inputs[0]]
    if fan_in:
        head_inputs.append(stages[1].inputs[0])
    arch_triggers = tuple(
        m.Trigger("t%d" % k, m.Eq(m.PortRef(p), m.Var("w", SORT)), 0)
        for k, p in enumerate(head_inputs))
    guarantee = m.Eq(m.PortRef(prev.outputs[0]), m.Var("w", SORT))
    arch = m.ArchitectureContract(
        name="endToEnd", owner="", variables=(("w", SORT),),
        triggers=arch_triggers, guarantee=guarantee, duration=total,
        proof=None)
    dt = m.DataType(name="D", sort="V")
    return m.Model(name="Chain", short_name="chain", datatypes=(dt,),
                   component_types=tuple(stages),
                   connections=tuple(connections), contracts=(arch,))


def mutate_proof(rng, proof):
    """Perturb one step: nudge its time or swap its state's right side."""
    steps = list(proof)
    i = rng.randrange(len(steps))
    s = steps[i]
    if rng.random() < 0.5:
        steps[i] = m.ProofStep(s.label, s.time + rng.choice([-1, 1]),
                               s.state, s.rationale, s.refs)
    else:
        wrong = m.Eq(s.state.lhs, m.Var("zz", SORT)) \
            if isinstance(s.state, m.Eq) else s.state
        steps[i] = m.ProofStep(s.label, s.time, wrong, s.rationale, s.refs)
    return tuple(steps)


def _with_proof(model, proof):
    contract = dataclasses.replace(model.contracts[0], proof=proof)
    return dataclasses.replace(model, contracts=(contract,)), contract


class Soundness:
    """Set-up replays the stream, which needs the proofs search finds, so
    that the mutants are drawn exactly as criterion 4 draws them."""

    name = "soundness"
    min_passes = 1

    def __init__(self, seed, smoke=False):
        stream = random.Random(STREAM_SEED)
        own = random.Random(seed)
        self.universe = oracle.FiniteUniverse(carriers={SORT: ["0", "1"]})
        self.cases = []
        for _ in range(SMOKE_CASES if smoke else CASES):
            model = random_chain_model(stream)
            proof = oracle.search_proof(model, model.contracts[0],
                                        max_steps=16).proof
            mutant = mutate_proof(stream, proof)
            if seed != STREAM_SEED:
                mutant = mutate_proof(own, proof)
            self.cases.append((model, proof, mutant))

    def provenance(self):
        return {"cases": len(self.cases), "stream_seed": STREAM_SEED,
                "components": [len(model.component_types)
                               for model, _, _ in self.cases]}

    def run_pass(self, rec):
        """Simulation counts once per accepted proof.  The other operations
        count with their mean over the pass: the cases differ in size, and
        the median of such a mixed set jumps from one case to another."""
        samples = {}
        for model, expected, mutant in self.cases:
            self._case(rec, samples, model, expected, mutant)
        for op, values in samples.items():
            if op == "simulate":
                for ms in values:
                    rec.op(op, ms)
            else:
                rec.op(op, statistics.fmean(values))

    def _case(self, rec, samples, model, expected, mutant):
        case_ms = 0.0

        def record(op, ms):
            nonlocal case_ms
            case_ms += ms
            samples.setdefault(op, []).append(ms)

        rec.attempted += 1
        result, ms = rec.timed_batch(BATCH, oracle.search_proof, model,
                                     model.contracts[0], max_steps=16)
        record("search", ms)
        rec.expect(result.status == oracle.FOUND and result.proof == expected,
                   "search did not reproduce the stream's proof")

        for proof, must_accept in ((expected, True), (mutant, False)):
            variant, contract = _with_proof(model, proof)
            rec.attempted += 1
            verdict, ms = rec.timed_batch(BATCH, checker.check_proof,
                                          variant, contract)
            record("check", ms)
            accepted = verdict.status == checker.OK
            rec.expect(accepted or not must_accept,
                       "the found proof does not check ok")
            if not accepted:
                continue
            rec.attempted += 1
            (holds, counter), ms = rec.timed(oracle.verify_satisfaction,
                                             variant, contract,
                                             self.universe, horizon=1)
            record("simulate", ms)
            rec.expect(holds, "an accepted proof is unsound: %r" % (counter,))

            rec.attempted += 1
            theory, ms = rec.timed_batch(BATCH, isar.emit_theory, variant)
            record("emit", ms)
            rec.expect(theory.startswith("theory chain\n")
                       and theory.endswith("end\n"),
                       "the theory of an accepted proof is malformed")

            rec.attempted += 1
            printed, ms = rec.timed_batch(BATCH, printer.print_model,
                                          variant)
            record("fmt", ms)
            with rec.untraced():
                again, rediags = parser.parse_model(printed)
            rec.expect(again == variant and not rediags,
                       "fmt output does not re-parse to the model")
        rec.case(case_ms)
