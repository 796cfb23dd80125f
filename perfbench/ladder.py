"""The `ladder` workload: N-stage relay chains as model text, with proofs.

The chain is the only input family whose size the benchmark scales, so it
is where per-step costs that grow with the model show up: the checker
rebuilds per-model indexes for every step and proof search re-tries every
contract at every base time.  Each rung runs parse -> validate -> check ->
emit-isar -> fmt -> search in-process.  Simulation is exponential in the
chain's duration, so it runs on its own short rungs.
"""

import dataclasses
import random
import statistics

from apml import checker, isar, oracle, parser, printer
from apml import model as m

RUNGS = (25, 50, 100, 200, 400)
SIMULATE_RUNGS = (2, 3, 4, 5)
SMOKE_RUNGS = (25,)
SMOKE_SIMULATE_RUNGS = (2,)
REPEATS = 5
EMIT_REPEATS = 10
FMT_REPEATS = 40
SEARCH_REPEATS = 3               # on rungs up to CHEAP_SEARCH_N, else once:
CHEAP_SEARCH_N = 100             # search takes ~0.3 s at 100 and ~1.4 s at 200

_STAGE = """\
    CType {p}{k} {{
      InputPorts {{
        InputPort i (Type: Bit.BIT)
      }}
      OutputPorts {{
        OutputPort o (Type: Bit.BIT)
      }}
      Contracts {{
        Contract fwd {{
          var {v}: Bit.BIT
          triggers {{
            t1: [i = {v}]
          }}
          guarantees {{ [o = {v}] }}
          duration 1
        }}
      }}
    }}"""


def relay_chain(n, prefix="S", var="x"):
    """Model text of an n-stage forwarding chain with its written proof.

    Stages are named prefix0 .. prefix(n-1) and forward the variable var.
    """
    stages = ",\n".join(_STAGE.format(p=prefix, k=k, v=var)
                        for k in range(n))
    connections = ",\n".join("    (%s%d.i, %s%d.o)" % (prefix, k + 1,
                                                       prefix, k)
                             for k in range(n - 1))
    steps = ["        s0: at 1 have [%s0.o = %s] from [ t1 ] using %s0.fwd"
             % (prefix, var, prefix)]
    steps += ["        s%d: at %d have [%s%d.o = %s] from [ s%d with "
              "[ (%s%d.i, %s%d.o) ] ] using %s%d.fwd"
              % (k, k + 1, prefix, k, var, k - 1, prefix, k, prefix, k - 1,
                 prefix, k) for k in range(1, n)]
    return """\
Pattern Relay%(n)d ShortName relay%(n)d {
  DTSpec {
    DT Bit (
      Sort BIT
    )
  }
  CTypes {
%(stages)s
  }
  Connections {
%(connections)s
  }
  Contracts {
    Contract relayed {
      var %(v)s: Bit.BIT
      triggers {
        t1: [%(p)s0.i = %(v)s]
      }
      guarantees { [%(p)s%(last)d.o = %(v)s] }
      duration %(n)d
      proof {
%(steps)s
      }
    }
  }
}
""" % dict(n=n, p=prefix, v=var, stages=stages, connections=connections,
           last=n - 1, steps=",\n".join(steps))


class Ladder:
    """Set-up builds every rung's text; a pass runs every rung once.

    The seed picks the stage-name prefix and the variable name, which
    changes the input bytes but not its size or shape.
    """

    name = "ladder"
    min_passes = 2

    def __init__(self, seed, smoke=False):
        rng = random.Random(seed)
        self.prefix = rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ")
        self.var = rng.choice("abcdefghjkmnpqruvwxyz")
        self.rungs = SMOKE_RUNGS if smoke else RUNGS
        self.sim_rungs = SMOKE_SIMULATE_RUNGS if smoke else SIMULATE_RUNGS
        self.texts = {n: relay_chain(n, self.prefix, self.var)
                      for n in set(self.rungs) | set(self.sim_rungs)}
        self.universe = oracle.parse_universe("sort Bit.BIT: 0 1\n")
        self.sim_models = {n: parser.parse_model(self.texts[n])[0]
                           for n in self.sim_rungs}

    def provenance(self):
        return {"rungs": list(self.rungs),
                "simulate_rungs": list(self.sim_rungs),
                "rung_bytes": {n: len(self.texts[n]) for n in self.rungs},
                "prefix": self.prefix, "var": self.var}

    def run_pass(self, rec):
        for n in self.rungs:
            self._rung(rec, n, top=(n == self.rungs[-1]))
        for n in self.sim_rungs:
            model = self.sim_models[n]
            for _ in range(REPEATS):
                rec.attempted += 1
                (holds, _), ms = rec.timed(oracle.verify_satisfaction,
                                           model, model.contracts[0],
                                           self.universe, horizon=1)
                rec.rung(n, "simulate", ms)
                if n == self.sim_rungs[-1]:
                    rec.op("simulate", ms)
                rec.expect(holds, "simulate relay%d does not hold" % n)

    def _rung(self, rec, n, top):
        """Check runs REPEATS times; emit-isar and fmt run REPEATS times, or
        EMIT_REPEATS and FMT_REPEATS times on the top rung, whose times are
        reported (they are short next to search, and the shorter a call the
        noisier its time).  Search runs SEARCH_REPEATS times on the cheap
        rungs and once on the others.  The case time adds up one median run
        of each."""
        text = self.texts[n]
        case_ms = 0.0

        def record(op, samples):
            nonlocal case_ms
            case_ms += statistics.median(samples)
            for ms in samples:
                rec.rung(n, op, ms)
                if top:
                    rec.op(op, ms)

        checks = []
        for _ in range(REPEATS):
            # text -> check verdict
            rec.attempted += 1
            (model, diags), parse_ms = rec.timed(parser.parse_model,
                                                 text)
            problems, validate_ms = rec.timed(m.validate_structure,
                                              model)
            verdicts, check_ms = rec.timed(checker.check_model, model)
            rec.rung(n, "check_only", check_ms)
            checks.append(parse_ms + validate_ms + check_ms)
            rec.expect(not diags and not problems
                       and [v.status for v in verdicts] == [checker.OK],
                       "relay%d does not check ok" % n)
        record("check", checks)

        emits = []
        for _ in range(EMIT_REPEATS if top else REPEATS):
            rec.attempted += 1
            theory, ms = rec.timed(isar.emit_theory, model)
            emits.append(ms)
            rec.expect(theory.startswith("theory relay%d\n" % n)
                       and "oops" not in theory and theory.endswith("end\n"),
                       "relay%d theory is malformed" % n)
        record("emit", emits)

        # The first output must re-parse to the model; every later one must
        # equal the first.
        fmts = []
        first = None
        for _ in range(FMT_REPEATS if top else REPEATS):
            rec.attempted += 1
            printed, ms = rec.timed(printer.print_model, model)
            fmts.append(ms)
            if first is None:
                first = printed
                with rec.untraced():
                    again, rediags = parser.parse_model(printed)
                rec.expect(again == model and not rediags,
                           "relay%d fmt output does not re-parse to the "
                           "model" % n)
            else:
                rec.expect(printed == first, "relay%d fmt output differs "
                                             "between runs" % n)
        record("fmt", fmts)

        contract = model.contracts[0]
        searches = []
        for _ in range(SEARCH_REPEATS if n <= CHEAP_SEARCH_N else 1):
            rec.attempted += 1
            result, ms = rec.timed(oracle.search_proof, model, contract,
                                   max_steps=n)
            searches.append(ms)
            found_ok = False
            if result.status == oracle.FOUND:
                found = dataclasses.replace(contract, proof=result.proof)
                variant = dataclasses.replace(model, contracts=(found,))
                with rec.untraced():
                    found_ok = (checker.check_proof(variant, found).status
                                == checker.OK)
            rec.expect(found_ok, "relay%d search did not find a proof that "
                                 "re-checks ok" % n)
        record("search", searches)
        rec.case(case_ms)
