"""Checks architecture proofs against the proof calculus.

A proof step applies one component contract (its rationale) at a shifted time
base.  Each reference set feeds one trigger position of the rationale:

* C1  references point at architecture triggers or earlier steps only
* C2  all entries of one reference set agree in time, and set j sits at the
      base time (the time of set 0) plus the trigger's offset
* C3  the referenced facts, together with the referenced connection
      equalities, entail the instantiated trigger predicate
* C4  the step's time is the base time plus the rationale's duration
* C5  the instantiated guarantee entails the step's state

A step whose rationale has no triggers must carry no references; its base
time is the step time minus the rationale duration.  After the last step the
proof must reach the architecture guarantee (FINAL_STATE) exactly at the
architecture duration (FINAL_TIME).
"""

from . import model as m
from . import entailment as e
from .diagnostics import Record

OK = "ok"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
NO_PROOF = "no-proof"

# closed set of finding codes
CONDITIONS = frozenset([
    "REF_ARITY", "EMPTY_REFSET", "UNKNOWN_CONNECTION", "STATE_SCOPE",
    "C1", "C2", "C3", "C4", "C5",
    "FINAL_STATE", "FINAL_TIME",
])


class Finding(Record, defaults=dict(step=-1)):
    __slots__ = ("condition",
                 "status",               # VIOLATED or INCONCLUSIVE
                 "message",
                 "step")                 # -1 for proof-level findings

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError("unknown condition %r" % self.condition)


class StepVerdict(Record, uncompared=("instantiation",), defaults=dict(
        findings=(), warnings=(), instantiation=None)):
    __slots__ = ("index", "label", "status", "findings",
                 "warnings",             # informational: ambiguous matches
                 # chosen instantiation of the rationale's variables
                 # (original names), None when no match was established
                 "instantiation")


class ProofVerdict(Record, defaults=dict(steps=(), findings=())):
    __slots__ = ("contract", "status", "steps",
                 "findings")             # proof-level (final state/time)


def _combine(statuses):
    if VIOLATED in statuses:
        return VIOLATED
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return OK


def reference_time(ref, contract, steps):
    if isinstance(ref, m.TriggerRef):
        return contract.triggers[ref.index].time
    return steps[ref.index].time


def _ref_name(ref):
    return ref.label or ("t%d" % ref.index if isinstance(ref, m.TriggerRef)
                         else "s%d" % ref.index)


def _fail(findings, index, condition, message, *args, status=VIOLATED):
    """Append step ``index``'s finding: ``step N`` then ``message % args``."""
    findings.append(Finding(condition, status,
                            "step %d" % index + message % args, index))


def instantiate(model, contract, steps, index, rationale, refs, findings,
                budget=e.DEFAULT_BUDGET):
    """C1, EMPTY_REFSET, REF_ARITY, C2, UNKNOWN_CONNECTION and C3 of applying
    ``rationale`` as step ``index`` with reference sets ``refs``, for the
    checker and proof search alike.  Appends a finding per failure; the
    application has failed exactly when ``findings`` is not empty on return,
    so a finding already in it fails it too.  Returns the matching
    instantiations in order, the fresh per-step renaming of the variables
    (name -> ``Var``) and the base time (None when the rationale has no
    triggers); a failed application returns ``([], None, None)``.
    """
    renaming = {name: m.Var("%s@%d" % (name, index), sort)
                for name, sort in rationale.variables}
    # C1: the parser only resolves architecture triggers and earlier steps,
    # so re-check defensively on the resolved indices
    for ref_set in refs:
        for ref in ref_set:
            ok = (ref.index < len(contract.triggers)
                  if isinstance(ref, m.TriggerRef) else ref.index < index)
            if not ok:
                _fail(findings, index, "C1", " references %s, which is not "
                      "an architecture trigger or an earlier step",
                      _ref_name(ref))

    for set_no, ref_set in enumerate(refs):
        if not ref_set:
            _fail(findings, index, "EMPTY_REFSET",
                  " reference set %d is empty", set_no)
    if not findings and len(refs) != len(rationale.triggers):
        _fail(findings, index, "REF_ARITY", " has %d reference sets but "
              "rationale '%s' has %d trigger(s)", len(refs),
              rationale.qualified, len(rationale.triggers))

    # each check from here on runs only while no finding is recorded
    # C2: time agreement inside each set and against the trigger offsets
    times = []
    for set_no, ref_set in enumerate(() if findings else refs):
        ts = {reference_time(r, contract, steps) for r in ref_set}
        if len(ts) > 1:
            _fail(findings, index, "C2", " reference set %d mixes times %s",
                  set_no, ", ".join(map(str, sorted(ts))))
        times.append(min(ts))
    base = times[0] if times else None
    for j, t in enumerate(() if findings else times):
        expected = base + rationale.triggers[j].time
        if t != expected:
            _fail(findings, index, "C2", " reference set %d is at time %d, "
                  "expected %d (base %d + trigger offset %d)", j, t,
                  expected, base, rationale.triggers[j].time)

    # C3: each reference set must entail its trigger, under one shared
    # variable instantiation
    variables = {v.name: v.sort for v in renaming.values()}
    sigmas = [{}]
    for j, ref_set in enumerate(() if findings else refs):
        facts = []
        for ref in ref_set:
            if isinstance(ref, m.TriggerRef):
                facts.append(contract.triggers[ref.index].predicate)
                continue
            facts.append(steps[ref.index].state)
            for conn in ref.connections:
                eq = model.connection_equalities.get(conn)
                if eq is None:
                    _fail(findings, index, "UNKNOWN_CONNECTION",
                          " uses connection (%s, %s), which the "
                          "architecture does not declare",
                          conn[0].qualified, conn[1].qualified)
                else:
                    facts.append(eq)
        if findings:
            break
        goal = m.substitute(rationale.triggers[j].predicate, renaming)
        try:
            sigmas = e.match_trigger([goal], facts, variables,
                                     model.signature, sigmas, budget)
        except e.Inconclusive as why:
            _fail(findings, index, "C3", " trigger %d: %s", j, why,
                  status=INCONCLUSIVE)
            break
        if not sigmas:
            _fail(findings, index, "C3", ": reference set %d does not "
                  "entail trigger '%s' of '%s'", j,
                  rationale.triggers[j].label, rationale.qualified)
            break
    if findings:
        return [], None, None
    return sigmas, renaming, base


def check_step(model, contract, steps, index, budget=e.DEFAULT_BUDGET):
    step = steps[index]
    findings = []
    rationale = model.find_contract(step.rationale)
    owner = model.component(rationale.owner)
    bad = m.ports_of(step.state).difference(owner.outputs)
    if bad:
        bad = sorted(bad, key=lambda p: p.qualified)
        _fail(findings, index, "STATE_SCOPE",
              " state references %s, not an output of %s",
              ", ".join(p.qualified for p in bad), rationale.owner)

    sigmas, renaming, base = instantiate(
        model, contract, steps, index, rationale, step.refs, findings, budget)
    # C4: the step's time is the base plus the rationale's duration; a
    # trigger-less rationale's base is implied by the step time
    if not findings:
        if base is None:
            if step.time < rationale.duration:
                _fail(findings, index, "C4", " at time %d cannot apply "
                      "'%s' (duration %d) with a non-negative base time",
                      step.time, rationale.qualified, rationale.duration)
        elif step.time != base + rationale.duration:
            _fail(findings, index, "C4", " is at time %d, expected %d "
                  "(base %d + duration %d)", step.time,
                  base + rationale.duration, base, rationale.duration)
    if findings:
        return StepVerdict(index, step.label, _combine(
            [f.status for f in findings]), tuple(findings))

    warnings = () if len(sigmas) < 2 else (
        "step %d: %d variable instantiations match; trying each in order"
        % (index, len(sigmas)),)

    def compose(sigma):
        return {orig: sigma.get(v.name) or m.Var(orig, v.sort)
                for orig, v in renaming.items()}

    # C5: some matching instantiation's guarantee must entail the state.
    # The guarantee is substituted once, under the renaming composed with
    # sigma: a variable sigma leaves unbound keeps its fresh name.
    for sigma in sigmas:
        guarantee = m.substitute(rationale.guarantee, {
            orig: sigma.get(v.name, v) for orig, v in renaming.items()})
        status = e.entails([guarantee], step.state, budget)
        if status == e.HOLDS:
            return StepVerdict(index, step.label, OK, (), warnings,
                               compose(sigma))
    if status == e.INCONCLUSIVE:
        _fail(findings, index, "C5", ": " + e.OVER_BUDGET, budget,
              status=INCONCLUSIVE)
    else:
        _fail(findings, index, "C5", ": guarantee of '%s' does not entail "
              "the step state", rationale.qualified)
    return StepVerdict(index, step.label, findings[0].status,
                       tuple(findings), warnings, compose(sigmas[0]))


def reaches_guarantee(contract, state, budget=e.DEFAULT_BUDGET):
    """HOLDS, FAILS or INCONCLUSIVE: does a proof's last state entail the
    architecture guarantee?  ``check_proof``'s FINAL_STATE and proof
    search's goal test both ask it."""
    return e.entails([state], contract.guarantee, budget)


def check_proof(model, contract, budget=e.DEFAULT_BUDGET):
    """Verdict for one architecture contract's proof."""
    if contract.proof is None:
        return ProofVerdict(contract.name, NO_PROOF)
    steps = contract.proof
    verdicts = [check_step(model, contract, steps, i, budget)
                for i in range(len(steps))]
    findings = []
    if not steps:
        findings.append(Finding("FINAL_STATE", VIOLATED,
                                "proof of '%s' has no steps" % contract.name))
    else:
        last = steps[-1]
        status = reaches_guarantee(contract, last.state, budget)
        if status == e.FAILS:
            findings.append(Finding(
                "FINAL_STATE", VIOLATED,
                "last state of '%s' does not entail the guarantee"
                % contract.name))
        elif status == e.INCONCLUSIVE:
            findings.append(Finding("FINAL_STATE", INCONCLUSIVE,
                                    e.OVER_BUDGET % budget))
        if last.time != contract.duration:
            findings.append(Finding(
                "FINAL_TIME", VIOLATED,
                "last step of '%s' is at time %d, expected duration %d"
                % (contract.name, last.time, contract.duration)))
    status = _combine([v.status for v in verdicts]
                      + [f.status for f in findings])
    return ProofVerdict(contract.name, status, tuple(verdicts),
                        tuple(findings))


def check_model(model, budget=e.DEFAULT_BUDGET):
    """Proof verdicts for every architecture contract, declaration order."""
    return [check_proof(model, c, budget) for c in model.contracts]


# ---------------------------------------------------------------------------
# Reports

def report_lines(verdicts, diagnostics=()):
    out = []
    for d in diagnostics:
        out.append(str(d))
    for v in verdicts:
        out.append("contract %s: %s" % (v.contract, v.status))
        for s in v.steps:
            out.append("  step %d (%s): %s" % (s.index, s.label, s.status))
            for f in s.findings:
                out.append("    %s %s: %s" % (f.condition, f.status,
                                              f.message))
            for w in s.warnings:
                out.append("    note: %s" % w)
        for f in v.findings:
            out.append("  %s %s: %s" % (f.condition, f.status, f.message))
    return out


def report_text(verdicts, diagnostics=()):
    return "\n".join(report_lines(verdicts, diagnostics)) + "\n"


def overall_status(verdicts):
    return _combine([v.status for v in verdicts if v.status != NO_PROOF])
