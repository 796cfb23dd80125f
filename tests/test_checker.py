"""Proof checking: each condition, verdict shapes, and reports."""

import dataclasses
import gc
import hashlib
import random
import re

import pytest

from apml import model as m
from apml.checker import (CONDITIONS, check_model, check_proof, check_step,
                          overall_status, report_lines, report_text,
                          OK, VIOLATED, INCONCLUSIVE, NO_PROOF)
from apml.entailment import DEFAULT_BUDGET
from apml.isar import emit_theory
from apml.oracle import FOUND, search_proof
from apml.parser import parse_model
from apml.printer import print_term

from conftest import CORPUS, FOLD13, ROOT, all_findings, load
from oracles import (mutate_proof_refs, proof_edits, random_chain_model,
                     relay_chain_model, widened_adder_model)

NAT = "Basic.NAT"
C3 = ROOT / "tests" / "golden" / "c3"       # the C3 reproducers


def arch(model):
    return model.contracts[0]


def with_step(model, idx, **changes):
    """The model with one field of one proof step replaced."""
    contract = arch(model)
    proof = list(contract.proof)
    proof[idx] = dataclasses.replace(proof[idx], **changes)
    contract = dataclasses.replace(contract, proof=tuple(proof))
    return dataclasses.replace(model, contracts=(contract,))


def with_contract(model, **changes):
    contract = dataclasses.replace(arch(model), **changes)
    return dataclasses.replace(model, contracts=(contract,))


def conditions(verdict):
    return [f.condition for f in all_findings(verdict)]


@pytest.fixture(scope="module")
def radder():
    model, diags = load("radder.apml")
    assert not diags
    return model


# ---------------------------------------------------------------------------
# Accepting runs

def test_radder_proof_checks_ok(radder):
    verdicts = check_model(radder)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.status == OK
    assert [s.status for s in v.steps] == [OK] * 4
    assert all_findings(v) == ()
    assert overall_status(verdicts) == OK


def test_step_instantiations_are_reported(radder):
    v = check_proof(radder, arch(radder))
    x = m.Var("x", NAT)
    y = m.Var("y", NAT)
    assert v.steps[0].instantiation == {"x": x, "y": y}
    assert v.steps[1].instantiation == {"x": x, "y": y}
    # the merger's single variable is bound to the computed sum
    assert v.steps[3].instantiation == {"x": m.App("Basic.add", (x, y))}


def test_proof_less_contract_is_reported_not_judged():
    model, _ = load("radder_duration6.apml")
    v = check_proof(model, arch(model))
    assert v.status == NO_PROOF
    assert v.steps == ()
    assert overall_status([v]) == OK


# ---------------------------------------------------------------------------
# Timing discipline (C2, C4)

def test_merge1_fails_exactly_c2_at_the_merge_step():
    model, diags = load("radder_merge1.apml")
    assert not diags
    v = check_proof(model, arch(model))
    assert v.status == VIOLATED
    assert [s.status for s in v.steps] == [OK, OK, OK, VIOLATED]
    assert conditions(v) == ["C2"]
    [finding] = v.steps[3].findings
    assert finding.step == 3
    # the adders finish at different times, so one braced set mixes 4 and 5
    assert "4" in finding.message and "5" in finding.message


def test_merge2_fails_at_the_merge_step():
    model, diags = load("radder_merge2.apml")
    assert not diags
    v = check_proof(model, arch(model))
    assert v.status == VIOLATED
    assert [s.status for s in v.steps] == [OK, OK, OK, VIOLATED]
    # the reference times line up with merge2's offsets, but the first set
    # feeds the second input's value to a trigger about the first input
    assert set(conditions(v)) == {"C3"}


def test_c2_set_offset_mismatch_message_names_the_base(radder):
    # merge3 wants set 1 at base+1; referencing s2 twice puts it at base+0
    step = arch(radder).proof[3]
    bad = with_step(radder, 3, refs=(step.refs[0], step.refs[0]))
    v = check_proof(bad, arch(bad))
    assert conditions(v.steps[3]) == ["C2"]


def test_c4_wrong_step_time(radder):
    bad = with_step(radder, 1, time=6)
    v = check_proof(bad, arch(bad))
    assert "C4" in conditions(v.steps[1])
    assert v.status == VIOLATED


def test_c4_blocks_c5_from_running(radder):
    bad = with_step(radder, 1, time=6)
    v = check_proof(bad, arch(bad))
    assert conditions(v.steps[1]) == ["C4"]


# ---------------------------------------------------------------------------
# Reference discipline (C1, REF_ARITY, EMPTY_REFSET, UNKNOWN_CONNECTION)

def test_c1_rejects_forward_and_out_of_range_references(radder):
    bad = with_step(radder, 0, refs=((m.TriggerRef(5, "t6"),),))
    v = check_proof(bad, arch(bad))
    assert "C1" in conditions(v.steps[0])

    fwd = with_step(radder, 1, refs=((m.StepRef(3, (), "s3"),),))
    v = check_proof(fwd, arch(fwd))
    assert "C1" in conditions(v.steps[1])


def test_ref_arity_mismatch(radder):
    bad = with_step(radder, 0, refs=())
    v = check_proof(bad, arch(bad))
    assert conditions(v.steps[0]) == ["REF_ARITY"]


def test_empty_reference_set(radder):
    bad = with_step(radder, 0, refs=((),))
    v = check_proof(bad, arch(bad))
    assert conditions(v.steps[0]) == ["EMPTY_REFSET"]


def test_unknown_connection_is_rejected(radder):
    i1 = m.Port("i1", "Adder1", m.INPUT, NAT)
    o2 = m.Port("o2", "Dispatcher", m.OUTPUT, NAT)
    bad = with_step(radder, 1,
                    refs=((m.StepRef(0, ((i1, o2),), "s0"),),))
    v = check_proof(bad, arch(bad))
    assert "UNKNOWN_CONNECTION" in conditions(v.steps[1])


# ---------------------------------------------------------------------------
# Entailment conditions (C3, C5, STATE_SCOPE)

def test_c3_when_facts_do_not_reach_the_trigger(radder):
    # drop the connections: the adder's inputs are no longer tied to the
    # dispatcher's outputs, so the trigger cannot be derived
    bad = with_step(radder, 1, refs=((m.StepRef(0, (), "s0"),),))
    v = check_proof(bad, arch(bad))
    assert conditions(v.steps[1]) == ["C3"]


def test_c5_when_state_overclaims(radder):
    zz = m.Var("zz", NAT)
    o = m.Port("o", "Adder1", m.OUTPUT, NAT)
    bad = with_step(radder, 1, state=m.Eq(m.PortRef(o), zz))
    v = check_proof(bad, arch(bad))
    assert conditions(v.steps[1]) == ["C5"]


def _relay_with(*edits):
    """relay.apml with each (old, new) text edit made once."""
    text = (CORPUS / "relay.apml").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    model, diags = parse_model(text)
    assert not diags
    return model


@pytest.mark.parametrize("edit, condition, message", [
    (("t1: [Stage1.i = x]", "t1: [Stage1.i = x] \\/ [Stage1.i = x]"), "C3",
     "step 0 trigger 0: hypothesis DNF exceeds budget 1"),
    (("guarantees { [o = x] }", "guarantees { [o = x] \\/ [o = x] }"), "C5",
     "step 0: hypothesis DNF exceeds budget 1"),
], ids=["C3", "C5"])
def test_a_step_over_the_dnf_budget_is_inconclusive(edit, condition, message):
    model = _relay_with(edit)
    v = check_proof(model, arch(model), budget=1)
    assert v.status == INCONCLUSIVE
    (finding,) = v.steps[0].findings
    assert (finding.condition, finding.status, finding.message) == (
        condition, INCONCLUSIVE, message)
    assert v.steps[1].status == OK


# only hypotheses are split under the budget; a trigger is judged as written
@pytest.mark.parametrize("trigger, budget", [
    (FOLD13, DEFAULT_BUDGET), ("[i = x] \\/ [i = x]", 1),
    ("[i = x] \\/ [i = x]", 2), ("[i = x] \\/ [i = x]", 3),
], ids=["13-fold", "or-1", "or-2", "or-3"])
def test_a_trigger_past_the_dnf_budget_is_judged_as_written(trigger, budget):
    model = _relay_with(("t1: [i = x]", "t1: " + trigger))
    assert check_proof(model, arch(model), budget=budget).status == OK


def test_c5_keeps_a_variable_sigma_leaves_unbound_fresh():
    """Stage1.fwd guarantees [o = y] with y in no trigger, and the
    architecture declares a y of its own: y stays y@0 under sigma, so the
    guarantee says nothing about the architecture's y."""
    model = _relay_with(
        ("guarantees { [o = x] }", "guarantees { [o = y] }"),
        ("var x: Bit.BIT\n          triggers",
         "var x: Bit.BIT\n          var y: Bit.BIT\n          triggers"),
        ("var x: Bit.BIT\n      triggers",
         "var x: Bit.BIT\n      var y: Bit.BIT\n      triggers"),
        ("have [Stage1.o = x]", "have [Stage1.o = y]"))
    steps = arch(model).proof
    verdict = check_step(model, arch(model), steps, 0)
    assert (verdict.status, [(f.condition, f.status, f.message)
                             for f in verdict.findings]) == (
        VIOLATED, [("C5", VIOLATED, "step 0: guarantee of 'Stage1.fwd' "
                    "does not entail the step state")])
    assert check_step(model, arch(model), steps, 1).findings[0].message == (
        "step 1: guarantee of 'Stage2.fwd' does not entail the step state")


def test_several_matching_instantiations_are_noted():
    # [x = x] holds for any x, so the rationale's x may bind to either
    # of the architecture's variables
    model = _relay_with(("t1: [i = x]", "t1: [i = x] \\/ [x = x]"),
                        ("var x: Bit.BIT\n      triggers {\n"
                         "        t1: [Stage1.i = x]",
                         "var x: Bit.BIT\n      var y: Bit.BIT\n"
                         "      triggers {\n"
                         "        t1: [Stage1.i = x] /\\ [y = y]"))
    v = check_proof(model, arch(model))
    assert v.status == OK
    assert report_lines([v]) == [
        "contract relayed: ok",
        "  step 0 (s0): ok",
        "    note: step 0: 2 variable instantiations match; trying each in "
        "order",
        "  step 1 (s1): ok"]


def test_state_scope_rejects_foreign_ports(radder):
    i1 = m.Port("i1", "Dispatcher", m.INPUT, NAT)
    bad = with_step(radder, 1, state=m.Eq(m.PortRef(i1), m.Var("x", NAT)))
    v = check_proof(bad, arch(bad))
    assert "STATE_SCOPE" in conditions(v.steps[1])


# ---------------------------------------------------------------------------
# Proof-level conditions

def test_final_time_mismatch(radder):
    bad = with_contract(radder, duration=8)
    v = check_proof(bad, arch(bad))
    assert [s.status for s in v.steps] == [OK] * 4
    assert conditions(v) == ["FINAL_TIME"]


def test_final_state_not_reached(radder):
    goal = m.Eq(m.PortRef(m.Port("o", "Merger", m.OUTPUT, NAT)),
                m.Var("x", NAT))
    bad = with_contract(radder, guarantee=goal)
    v = check_proof(bad, arch(bad))
    assert "FINAL_STATE" in conditions(v)
    assert v.status == VIOLATED


def test_empty_proof_is_a_final_state_violation(radder):
    bad = with_contract(radder, proof=())
    v = check_proof(bad, arch(bad))
    assert conditions(v) == ["FINAL_STATE"]


# ---------------------------------------------------------------------------
# Trigger-less rationales

TRIGGERLESS = """
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT Predicate ready: B.NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract init {
        guarantees { B.ready[o] } duration 2 } }
    }
  }
  Contracts {
    Contract up {
      guarantees { B.ready[A.o] }
      duration 2
      proof { s0: at 2 have B.ready[A.o] using A.init }
    }
  }
}
"""


def test_triggerless_rationale_checks_ok():
    model, diags = parse_model(TRIGGERLESS)
    assert not diags
    v = check_proof(model, arch(model))
    assert v.status == OK


def test_triggerless_rationale_rejects_references():
    model, _ = parse_model(TRIGGERLESS.replace(
        "using A.init", "from [ s0 ] using A.init"))
    # the self-reference is dropped by the parser, so inject one directly
    model, _ = parse_model(TRIGGERLESS)
    bad = with_step(model, 0, refs=((m.StepRef(0, (), "s0"),),))
    v = check_proof(bad, arch(bad))
    assert "REF_ARITY" in conditions(v.steps[0]) \
        or "C1" in conditions(v.steps[0])


def test_triggerless_rationale_needs_enough_elapsed_time():
    model, _ = parse_model(TRIGGERLESS)
    bad = with_step(model, 0, time=1)
    bad = with_contract(bad, duration=1)
    v = check_proof(bad, arch(bad))
    assert "C4" in conditions(v.steps[0])


# ---------------------------------------------------------------------------
# Reports

def test_report_format(radder):
    lines = report_lines(check_model(radder))
    assert lines[0] == "contract sum: ok"
    assert lines[1] == "  step 0 (s0): ok"
    assert lines[4] == "  step 3 (s3): ok"


def test_report_includes_findings():
    model, _ = load("radder_merge1.apml")
    lines = report_lines(check_model(model))
    assert lines[0] == "contract sum: violated"
    assert any(line.startswith("    C2 violated:") for line in lines)


def _proved_chain(n):
    model = relay_chain_model(n)
    result = search_proof(model, arch(model), max_steps=64)
    assert result.status == FOUND
    return dataclasses.replace(model, contracts=(
        dataclasses.replace(arch(model), proof=result.proof),))


def _cyclic_garbage(fn, *args):
    """fn's result and the number of objects it left for the cyclic
    collector: garbage in a reference cycle waits for that collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        out = fn(*args)
        gc.collect()
        return out, len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_check_leaves_no_cyclic_garbage():
    verdicts, garbage = _cyclic_garbage(check_model, _proved_chain(50))
    assert [v.status for v in verdicts] == [OK]
    assert garbage == 0


def test_emit_leaves_no_cyclic_garbage():
    theory, garbage = _cyclic_garbage(emit_theory, _proved_chain(50))
    assert theory.endswith("end\n") and "sorry" not in theory
    assert garbage == 0


# ---------------------------------------------------------------------------
# The instantiation each accepted step reports

def instantiation_lines():
    """One line per step of each written proof and of each proof search
    finds, for the corpus, the C3 reproducers, 40 seeded random chains and
    the widened running example at k = 4 and 8: where the proof comes from,
    the step, its rationale and the instantiation its check reports.
    Matching reads candidates in registration order, so this pins which one
    it binds."""
    sources = []
    for path in sorted(CORPUS.glob("*.apml")) + sorted(C3.glob("*.apml")):
        model, _ = parse_model(path.read_text())
        for contract in model.contracts:
            sources.append(("%s:%s" % (path.name, contract.name), model,
                            contract))
    sources += [("chain-%d" % seed, random_chain_model(random.Random(seed)))
                for seed in range(40)]
    sources += [("widened-%d" % k, widened_adder_model(k)) for k in (4, 8)]
    lines = []
    for source in sources:
        origin, model, contracts = source[0], source[1], source[2:]
        for contract in contracts or model.contracts:
            written = contract.proof is not None
            found = search_proof(model, contract, max_steps=64)
            proofs = [("written", contract)] * written + [
                ("found", dataclasses.replace(contract, proof=found.proof))
            ] * (found.status == FOUND)
            for how, proved in proofs:
                for s in check_proof(model, proved).steps:
                    inst = s.instantiation
                    lines.append("%s %s %s %s %s" % (
                        origin, how, s.label, proved.proof[s.index].rationale,
                        "-" if inst is None else ", ".join(
                            "%s=%s" % (v, print_term(t))
                            for v, t in inst.items()) or "{}"))
    return lines


def test_step_instantiations_match_their_golden():
    golden = ROOT / "tests" / "golden" / "instantiations.txt"
    assert "\n".join(instantiation_lines()) + "\n" == golden.read_text()


# ---------------------------------------------------------------------------
# Seeded proof mutations of the corpus

EDITS_PER_PROOF = 40


def proof_mutation_runs():
    """(line, verdicts) per seeded edit of each corpus proof.  A line is the
    file and contract index, the edit number, the codes of every finding,
    and a short digest of the report."""
    runs = []
    for name in sorted(p.name for p in CORPUS.glob("*.apml")):
        model, _ = load(name)
        for ci, contract in enumerate(model.contracts):
            if contract.proof is None:
                continue
            edits = proof_edits(model, contract)
            rng = random.Random("%s:%d" % (name, ci))
            for k in range(EDITS_PER_PROOF):
                edited = dataclasses.replace(
                    contract, proof=mutate_proof_refs(rng, edits))
                contracts = list(model.contracts)
                contracts[ci] = edited
                verdicts = check_model(dataclasses.replace(
                    model, contracts=tuple(contracts)))
                digest = hashlib.sha1(
                    report_text(verdicts).encode()).hexdigest()
                codes = [f.condition for v in verdicts
                         for f in all_findings(v)]
                runs.append(("%s:%d %d %s %s" % (
                    name, ci, k, ",".join(codes) or "-", digest[:12]),
                    verdicts))
    return runs


def test_mutated_corpus_proofs_check_like_the_golden():
    """Every step condition is reached; every step finding names its step."""
    runs = proof_mutation_runs()
    golden = ROOT / "tests" / "golden" / "proof_mutations.txt"
    assert "\n".join(line for line, _ in runs) + "\n" == golden.read_text()
    seen = set()
    for _, verdicts in runs:
        for v in verdicts:
            seen.update(f.condition for f in all_findings(v))
            for s in v.steps:
                for f in s.findings:
                    assert f.step == s.index
                    assert re.match(r"step (\d+)\b", f.message).group(1) \
                        == str(s.index)
    assert seen == CONDITIONS
