"""Congruence-based entailment against the brute-force finite oracle."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from apml import checker, oracle
from apml import entailment as e
from apml import model as m
from apml.entailment import (Congruence, dnf, entails, match_trigger,
                             HOLDS, FAILS, INCONCLUSIVE)

from conftest import CORPUS, load
from oracles import (brute_force_entails, naive_match_trigger,
                     product_dnf_all, random_entailment_case,
                     random_match_case, MATCH_SIGNATURE, SORT)

P = [m.PortRef(m.Port("p%d" % i, "C", "output", SORT)) for i in range(4)]
X = m.Var("x", SORT)
Y = m.Var("y", SORT)
F = lambda *a: m.App("D.f", a)
SIG = m.Signature([m.DataType(name="D", sort="V",
                              predicates=(("P", ("D.V",)),),
                              operations=(("f", ("D.V",), "D.V"),
                                          ("g", ("D.V", "D.V"), "D.V")))])


def test_reflexivity_and_symmetry():
    assert entails([], m.Eq(P[0], P[0])) == HOLDS
    assert entails([m.Eq(P[0], P[1])], m.Eq(P[1], P[0])) == HOLDS


def test_transitivity_through_congruence():
    hyps = [m.Eq(P[0], P[1]), m.Eq(P[1], P[2])]
    assert entails(hyps, m.Eq(P[0], P[2])) == HOLDS
    assert entails(hyps, m.Eq(P[0], P[3])) == FAILS


def test_congruence_of_applications():
    hyps = [m.Eq(P[0], P[1])]
    assert entails(hyps, m.Eq(F(P[0]), F(P[1]))) == HOLDS
    assert entails(hyps, m.Eq(F(P[0]), F(P[2]))) == FAILS


def test_atom_entailment_up_to_congruence():
    hyps = [m.Atom("D.P", (P[0],)), m.Eq(P[0], P[1])]
    assert entails(hyps, m.Atom("D.P", (P[1],))) == HOLDS
    assert entails(hyps, m.Atom("D.P", (P[2],))) == FAILS


def test_disjunctive_goal_and_hypotheses():
    goal = m.disjoin([m.Eq(P[0], P[1]), m.Eq(P[0], P[2])])
    assert entails([m.Eq(P[0], P[2])], goal) == HOLDS
    # every hypothesis case must entail the goal
    hyp = m.disjoin([m.Eq(P[0], P[1]), m.Eq(P[1], P[2])])
    assert entails([hyp], goal) == FAILS
    both = m.disjoin([m.Eq(P[0], P[1]), m.Eq(P[0], P[2])])
    assert entails([both], goal) == HOLDS


def test_dnf_budget_yields_inconclusive_not_acceptance():
    big = m.disjoin([m.Eq(P[0], P[1]), m.Eq(P[0], P[2])])
    for _ in range(13):
        big = m.conjoin([big, m.disjoin([m.Eq(P[0], P[1]),
                                         m.Eq(P[0], P[2])])])
    assert dnf(big, budget=4096) is None
    assert entails([big], m.Eq(P[0], P[1]), budget=4096) == INCONCLUSIVE


def _random_hypotheses(rng, or_free):
    """0-4 hypotheses, literals and conjunctions (some conjoined from
    conjunctions), with disjunctions at any depth unless or_free."""
    def literal():
        a = rng.choice(P + [X, Y, F(X)])
        if rng.random() < 0.2:
            return m.Atom("D.P", (a,))
        return m.Eq(a, rng.choice(P + [X, Y]))

    def pred(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return literal()
        parts = [pred(depth - 1) for _ in range(rng.randint(2, 3))]
        return (m.conjoin if or_free or roll < 0.6 else m.disjoin)(parts)

    return [pred(rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]


def test_dnf_all_single_case_agrees_with_the_product():
    """An Or-free hypothesis list is one case without the product; on any
    list dnf_all returns exactly the product's DNF, or None with it."""
    rng = random.Random(20261019)
    seen = {"single": 0, "split": 0, "none": 0}
    for k in range(1000):
        hyps = _random_hypotheses(rng, or_free=k % 2 == 0)
        for budget in (0, 1, 3, 16, e.DEFAULT_BUDGET):
            want = product_dnf_all(hyps, budget)
            assert e.dnf_all(hyps, budget) == want, (hyps, budget)
            assert want is None or budget > 0 or not hyps
            seen["none"] += want is None and budget > 0
        cases = e.dnf_all(hyps)
        seen["single"] += k % 2 == 0 and any(
            p.__class__ is m.And for p in hyps)
        seen["split"] += len(cases) > 1
    assert min(seen.values()) >= 100, seen


def test_congruence_closure_signature_merging():
    a, b = F(P[0]), F(P[1])
    c = Congruence([m.Eq(a, a), m.Eq(b, b), m.Eq(P[0], P[1])])
    assert c.holds(m.Eq(a, b))
    assert not c.holds(m.Eq(a, P[2]))


def test_match_trigger_binds_values_not_ports():
    hyps = [m.Eq(P[0], F(X)), m.Eq(P[1], P[0])]
    goal = m.Eq(P[1], m.Var("v", SORT))
    subs = match_trigger([goal], hyps, {"v": SORT}, SIG)
    assert len(subs) == 1
    assert subs[0]["v"] == F(X)


def test_match_trigger_shares_bindings_across_positions():
    hyps = [m.Eq(P[0], X), m.Eq(P[1], Y)]
    g1 = m.Eq(P[0], m.Var("v", SORT))
    g2 = m.Eq(P[1], m.Var("v", SORT))
    subs = match_trigger([g1, g2], hyps, {"v": SORT}, SIG)
    assert subs == []                # no single value fits both
    subs = match_trigger([g1], hyps, {"v": SORT}, SIG)
    assert [s["v"] for s in subs] == [X]


def test_each_substitution_is_extended_in_a_model_of_its_own():
    """Extending v := f(x) registers f(x), a new candidate class; the
    extensions of v := y must not see it, as in a model of their own."""
    trigger = m.conjoin([m.Eq(m.Var("v", SORT), m.Var("v", SORT)),
                         m.Eq(m.Var("w", SORT), m.Var("w", SORT))])
    args = ([trigger], [m.Eq(P[0], X)], {"v": SORT, "w": SORT}, SIG,
            [{"v": F(X)}, {"v": Y}])
    subs = match_trigger(*args)
    assert [(s["v"], s["w"]) for s in subs] == [
        (F(X), X), (F(X), F(X)), (Y, X), (Y, Y)]
    assert subs == naive_match_trigger(*args)


def test_match_trigger_reports_all_candidates_deterministically():
    hyps = [m.Eq(P[0], X), m.Eq(P[0], Y)]
    goal = m.Eq(P[0], m.Var("v", SORT))
    subs = match_trigger([goal], hyps, {"v": SORT}, SIG)
    assert [s["v"] for s in subs] == [X]     # x and y collapse to one class
    hyps = [m.disjoin([m.Eq(P[0], X), m.Eq(P[0], Y)])]
    subs = match_trigger([goal], hyps, {"v": SORT}, SIG)
    assert subs == []                # neither binding holds in every case


def test_against_brute_force_sample():
    rng = random.Random(20240823)
    agree = 0
    while agree < 1000:
        hyps, goal = random_entailment_case(rng)
        status = entails(hyps, goal)
        assert status in (HOLDS, FAILS)
        assert (status == HOLDS) == brute_force_entails(hyps, goal), \
            (hyps, goal)
        agree += 1


def test_a_goal_past_the_budget_agrees_with_brute_force():
    """Only hypotheses are split under the budget: a goal whose DNF exceeds
    it is judged as written, with the brute-force verdict."""
    rng = random.Random(20261019)
    seen = {HOLDS: 0, FAILS: 0}
    while min(seen.values()) < 100:
        hyps, goal = random_entailment_case(rng)
        budget = len(e.dnf_all(hyps))
        literals = [n for n in m.walk(m.conjoin(hyps + [goal]))
                    if isinstance(n, (m.Eq, m.Atom))]
        while dnf(goal, budget) is not None:
            goal = m.conjoin([goal, m.disjoin([rng.choice(literals),
                                               rng.choice(literals)])])
        status = entails(hyps, goal, budget)
        assert status in seen, (hyps, goal, budget)
        assert (status == HOLDS) == brute_force_entails(hyps, goal), \
            (hyps, goal)
        seen[status] += 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_entailment_is_reflexive_and_monotone(seed):
    rng = random.Random(seed)
    hyps, goal = random_entailment_case(rng)
    # anything entails itself
    assert entails([goal], goal) == HOLDS
    # adding hypotheses never turns a holding entailment into a failure
    if entails(hyps, goal) == HOLDS:
        assert entails(hyps + [m.Eq(P[3], P[3])], goal) == HOLDS


def _in_order(subs):
    """Substitutions with their bindings in order, so order is compared."""
    return None if subs is None else [list(s.items()) for s in subs]


def test_match_trigger_agrees_with_the_reference_kernel():
    """One call extends every substitution against one model of the first
    case; the reference builds a fresh model for each."""
    rng = random.Random(20261018)
    seen = {"hits": 0, "split_hits": 0, "over_budget": 0, "none": 0,
            "several_hits": 0}
    for _ in range(1200):
        triggers, hyps, variables, sigmas, budget = random_match_case(rng)
        got = match_trigger(triggers, hyps, variables, MATCH_SIGNATURE,
                            sigmas, budget)
        want = naive_match_trigger(triggers, hyps, variables,
                                   MATCH_SIGNATURE, sigmas, budget)
        assert _in_order(got) == _in_order(want), (triggers, hyps, sigmas,
                                                   budget)
        cases = e.dnf_all(hyps, budget)
        seen["none"] += got is None
        seen["hits"] += bool(got)
        seen["split_hits"] += bool(got) and len(cases) > 1
        seen["over_budget"] += cases is not None and any(
            dnf(p, budget) is None for p in triggers)
        # results that extend two different bindings in sigmas
        seen["several_hits"] += len({
            tuple(sigma.items()) for sigma in sigmas
            if sigma and any(sigma.items() <= s.items() for s in got or ())
        }) > 1
    # the generator reaches matches, case splits, budgets, blowups and
    # matches from several substitutions
    assert seen["hits"] >= 200 and seen["split_hits"] >= 50
    assert seen["over_budget"] >= 100 and seen["none"] >= 5
    assert seen["several_hits"] >= 30, seen


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.apml")))
def test_match_trigger_agrees_on_every_corpus_step(name, monkeypatch):
    """Every match the checker and proof search ask on a corpus model gets
    the reference kernel's substitutions, in the same order."""
    calls = []
    real = e.match_trigger

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(e, "match_trigger", recording)
    model, _ = load(name)
    checker.check_model(model)
    for contract in model.contracts:
        oracle.search_proof(model, contract)
    assert calls
    for args, kwargs in calls:
        assert (_in_order(real(*args, **kwargs))
                == _in_order(naive_match_trigger(*args, **kwargs))), args
