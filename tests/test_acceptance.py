"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria execute; under plain pytest they appear in the captured output.
"""

import dataclasses
import functools
import random
import time

from apml import checker, model as m
from apml.entailment import entails, HOLDS, FAILS
from apml.isar import emit_theory
from apml.model import validate_structure
from apml.oracle import (FiniteUniverse, search_proof, verify_satisfaction,
                         FOUND, NO_PROOF_AT_BOUND)
from apml.parser import parse_model
from apml.printer import print_model

from conftest import all_findings, load, CORPUS, ROOT
from oracles import (brute_force_entails, random_entailment_case,
                     random_chain_model, mutate_proof, SORT)

GOLDEN = ROOT / "tests" / "golden"


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %d: FAIL - %s" % (num, desc))
                raise
            print("criterion %d: PASS - %s" % (num, desc))
        return wrapper
    return deco


@criterion(1, "redundant-adder model parses, validates and checks ok, and "
              "its theory matches the golden file, in under a second")
def test_criterion_1_end_to_end():
    started = time.monotonic()
    model, diags = load("radder.apml")
    assert not diags
    assert not validate_structure(model)
    verdicts = checker.check_model(model)
    assert [v.status for v in verdicts] == [checker.OK]
    assert all(s.status == checker.OK for s in verdicts[0].steps)
    assert emit_theory(model) == (GOLDEN / "rsum.thy").read_text()
    assert time.monotonic() - started < 1.0


@criterion(2, "the two faulty merge variants are rejected at the merge step "
              "with the expected conditions")
def test_criterion_2_negative_variants():
    model, _ = load("radder_merge1.apml")
    v = checker.check_proof(model, model.contracts[0])
    assert v.status == checker.VIOLATED
    assert [s.status for s in v.steps] == [checker.OK] * 3 + [checker.VIOLATED]
    assert [f.condition for f in all_findings(v)] == ["C2"]

    model, _ = load("radder_merge2.apml")
    v = checker.check_proof(model, model.contracts[0])
    assert v.status == checker.VIOLATED
    assert [s.status for s in v.steps] == [checker.OK] * 3 + [checker.VIOLATED]
    assert v.steps[3].findings        # some condition fails at the merge step


@criterion(3, "the emitted theory has the expected locale assumptions, "
              "theorem statement and proof shape")
def test_criterion_3_theory_shape():
    model, _ = load("radder.apml")
    theory = emit_theory(model)
    assume_lines = [l for l in theory.splitlines() if ': "' in l
                    and "theorem" not in l and "assumes a0" not in l]
    contract_assumes = [l for l in assume_lines if "\\<Longrightarrow>" in l]
    connection_assumes = [l for l in assume_lines
                          if "\\<And>n." in l and "=" in l]
    assert len(contract_assumes) == 6
    assert len(connection_assumes) == 6
    assert 'assumes a0: "di1 n = x \\<and> di2 n = y"' in theory
    assert 'shows "mo (n+7) = x + y"' in theory
    assert theory.count("by blast") == 4
    assert "  thus ?thesis by auto\nqed" in theory


@criterion(4, "over 200 random architectures, every proof the checker "
              "accepts is semantically sound in the finite model")
def test_criterion_4_soundness_property():
    started = time.monotonic()
    rng = random.Random(20260823)
    universe = FiniteUniverse(carriers={SORT: ["0", "1"]})
    accepted = checked = 0
    for _ in range(100):
        model = random_chain_model(rng)
        contract = model.contracts[0]
        result = search_proof(model, contract, max_steps=16)
        assert result.status == FOUND
        proofs = [result.proof, mutate_proof(rng, result.proof)]
        for proof in proofs:
            checked += 1
            candidate = dataclasses.replace(contract, proof=proof)
            variant = dataclasses.replace(model, contracts=(candidate,))
            verdict = checker.check_proof(variant, candidate)
            if verdict.status != checker.OK:
                continue
            accepted += 1
            holds, counter = verify_satisfaction(variant, candidate, universe,
                                                 horizon=1)
            assert holds, (print_model(variant), counter)
    assert checked >= 200
    assert accepted >= 100            # at least the unmutated proofs
    assert time.monotonic() - started < 300


@criterion(5, "proof search recovers the redundant-adder proof and reports "
              "saturation for the unprovable variant")
def test_criterion_5_search():
    started = time.monotonic()
    model, _ = load("radder.apml")
    contract = model.contracts[0]
    result = search_proof(model, contract, max_steps=8)
    assert result.status == FOUND
    assert len(result.proof) == 4
    found = dataclasses.replace(contract, proof=result.proof)
    assert checker.check_proof(model, found).status == checker.OK

    model6, _ = load("radder_duration6.apml")
    result = search_proof(model6, model6.contracts[0], max_steps=32)
    assert result.status == NO_PROOF_AT_BOUND
    assert time.monotonic() - started < 10


@criterion(6, "the large train-door case study parses with only the "
              "duplicate-datatype warning and reproduces the committed "
              "verdicts byte for byte")
def test_criterion_6_case_study():
    model, diags = load("tgmt.apml")
    assert all(d.rule == "DUPLICATE_DT" for d in diags)
    assert all(d.severity == "warning" for d in diags)
    n_component = sum(len(ct.contracts) for ct in model.component_types)
    assert n_component + len(model.contracts) == 36
    all_diags = list(diags) + validate_structure(model)
    report = checker.report_text(checker.check_model(model), all_diags)
    assert report == (CORPUS / "tgmt_verdicts.txt").read_text()


@criterion(7, "the entailment engine agrees with the brute-force "
              "finite-model oracle on 1000 random cases")
def test_criterion_7_entailment_oracle():
    started = time.monotonic()
    rng = random.Random(20260824)
    for _ in range(1000):
        hyps, goal = random_entailment_case(rng)
        status = entails(hyps, goal)
        assert status in (HOLDS, FAILS)
        assert (status == HOLDS) == brute_force_entails(hyps, goal), \
            (hyps, goal)
    assert time.monotonic() - started < 120


@criterion(8, "every corpus model round-trips through the printer and all "
              "outputs are deterministic")
def test_criterion_8_roundtrip_determinism():
    for path in sorted(CORPUS.glob("*.apml")):
        model, diags = load(path.name)
        printed = print_model(model)
        again, rediags = parse_model(printed, path.name)
        assert again == model
        assert not rediags
        assert print_model(again) == printed
        model2, diags2 = load(path.name)
        assert (model2, diags2) == (model, diags)
        assert checker.report_text(checker.check_model(model)) \
            == checker.report_text(checker.check_model(model2))
        assert emit_theory(model) == emit_theory(model2)
