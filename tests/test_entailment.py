"""Congruence-based entailment against the brute-force finite oracle."""

import copy
import itertools
import random

import pytest

from hypothesis import given, settings, strategies as st

from apml import checker, oracle
from apml import entailment as e
from apml import model as m
from apml.entailment import (Congruence, entails, match_trigger,
                             HOLDS, FAILS, INCONCLUSIVE)

from conftest import CORPUS, load
from oracles import (brute_force_entails, brute_force_match, product_dnf,
                     product_dnf_all, random_congruence,
                     random_entailment_case, random_match_case,
                     MATCH_SIGNATURE, SORT)

P = [m.PortRef(m.Port("p%d" % i, "C", "output", SORT)) for i in range(4)]
X = m.Var("x", SORT)
Y = m.Var("y", SORT)
F = lambda *a: m.App("D.f", a)
SIG = m.Signature([m.DataType(name="D", sort="V",
                              predicates=(("P", ("D.V",)),),
                              operations=(("f", ("D.V",), "D.V"),
                                          ("g", ("D.V", "D.V"), "D.V")))])


def test_a_terms_representative_is_its_class_entry_in_the_table(
        enumerations):
    """On 500 seeded random congruences, ``representatives(t)`` for each
    registered t is the entry of t's class in the table of every class, and
    building that table is the only enumeration.  A registered port-free
    member, an application rebuilt over its arguments' entries and no entry
    at all each come up."""
    seen = set()
    for seed in range(500):
        cong = random_congruence(random.Random(seed))
        registered = list(cong.terms)
        answers = [cong.representatives(t) for t in registered]
        assert enumerations == [None] * seed
        table = cong.representatives()
        probe = copy.deepcopy(cong)      # a table entry joins its class there
        for t, answer in zip(registered, answers):
            assert answer == [r for r in table if probe.holds(m.Eq(r, t))]
            seen.add("none" if not answer else "registered"
                     if answer[0] in registered else "rebuilt")
    assert seen == {"none", "registered", "rebuilt"}


def test_reflexivity_and_symmetry():
    assert entails([], m.Eq(P[0], P[0])) == HOLDS
    assert entails([m.Eq(P[0], P[1])], m.Eq(P[1], P[0])) == HOLDS


def test_a_goal_among_the_hypothesis_literals_builds_no_model(monkeypatch):
    """A goal whose every conjunct is an Or-free hypothesis literal holds
    in every case, so ``entails`` answers it without building a least
    model; a goal that must be derived still builds one."""
    builds = []

    class Counted(Congruence):
        def __init__(self, literals=()):
            builds.append(literals)
            super().__init__(literals)

    monkeypatch.setattr(e, "Congruence", Counted)
    p, q = m.Eq(P[0], P[1]), m.Atom("D.P", (P[2],))
    assert entails([p], p) == HOLDS
    assert entails([m.conjoin([q, m.disjoin([p, q])]), p],
                   m.conjoin([p, q])) == HOLDS
    assert builds == []
    assert entails([p], m.Eq(P[1], P[0])) == HOLDS
    assert builds == [[p]]
    # p holds in only one case of p \/ q
    assert entails([m.disjoin([p, q])], p) == FAILS


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
    """14 conjoined disjunctions: one split decides the goal, since the
    branch that refutes it implies every other disjunction; a budget too
    small for that split gives INCONCLUSIVE, never HOLDS."""
    big = m.disjoin([m.Eq(P[0], P[1]), m.Eq(P[0], P[2])])
    for _ in range(13):
        big = m.conjoin([big, m.disjoin([m.Eq(P[0], P[1]),
                                         m.Eq(P[0], P[2])])])
    assert product_dnf(big, budget=4096) is None
    goal = m.Eq(P[0], P[1])
    assert not brute_force_entails([big], goal)
    assert entails([big], goal, budget=4096) == FAILS
    assert entails([big], goal, budget=1) == INCONCLUSIVE


def test_the_split_opens_no_more_cases_than_the_dnf():
    """12 independent two-way disjunctions that entail themselves are split
    into all 4096 cases of their DNF: a budget covering the DNF decides
    them, and one case less is inconclusive."""
    v = [m.Var("v%d" % i, SORT) for i in range(48)]
    hyp = m.conjoin([m.disjoin([m.Eq(a, b), m.Eq(c, d)])
                     for a, b, c, d in zip(*[iter(v)] * 4)])
    assert len(product_dnf(hyp)) == 4096
    assert entails([hyp], hyp, budget=4096) == HOLDS
    assert entails([hyp], hyp, budget=4095) == INCONCLUSIVE


def _implied_and_repeated_family():
    """Hypotheses whose Or-free part makes one disjunct of a disjunction
    true, next to a disjunction whose disjuncts repeat, in every order: the
    implied disjunction must be dropped and the repeated one still split.
    Its first member is a = b, (a = b) \\/ (c = d), (u = w) \\/ (u = w)."""
    a, b, c, d, u, w = P + [X, Y]
    implied = [m.disjoin([m.Eq(a, b), m.Eq(c, d)]),
               m.disjoin([m.Eq(c, d), m.Eq(b, a)])]
    repeated = [m.disjoin([m.Eq(u, w), m.Eq(u, w)]),
                m.disjoin([m.Eq(u, w), m.Eq(w, u)]),
                m.disjoin([m.Atom("D.P", (u,)),
                           m.conjoin([m.Atom("D.P", (w,)), m.Eq(w, u)])])]
    goals = [m.Eq(u, w), m.Atom("D.P", (u,)), m.Eq(c, d),
             m.disjoin([m.Eq(c, d), m.Eq(w, u)])]
    for imp in implied:
        for rep in repeated:
            for hyps in itertools.permutations([m.Eq(a, b), imp, rep]):
                for goal in goals:
                    yield list(hyps), goal


def test_implied_and_repeated_family_agrees_with_brute_force():
    seen = {HOLDS: 0, FAILS: 0}
    for hyps, goal in _implied_and_repeated_family():
        status = entails(hyps, goal)
        assert status in seen, (hyps, goal)
        assert (status == HOLDS) == brute_force_entails(hyps, goal), \
            (hyps, goal)
        seen[status] += 1
    assert entails(*next(_implied_and_repeated_family())) == HOLDS
    assert min(seen.values()) >= 40, seen


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
    assert _a_match_means(*args) == subs


def test_match_trigger_reports_all_candidates_deterministically():
    hyps = [m.Eq(P[0], X), m.Eq(P[0], Y)]
    goal = m.Eq(P[0], m.Var("v", SORT))
    subs = match_trigger([goal], hyps, {"v": SORT}, SIG)
    assert [s["v"] for s in subs] == [X]     # x and y collapse to one class
    # x, the first case's binding, does not hold in every case; a witness
    # from outside the first case's terms is not ruled out
    hyps = [m.disjoin([m.Eq(P[0], X), m.Eq(P[0], Y)])]
    with pytest.raises(e.Inconclusive, match="first hypothesis case"):
        match_trigger([goal], hyps, {"v": SORT}, SIG)


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
        budget = len(product_dnf_all(hyps, float("inf")))
        literals = m.nodes((m.Eq, m.Atom), *hyps, goal)
        while product_dnf(goal, budget) is not None:
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


def _checker_shaped(triggers, hyps, variables, signature, sigmas):
    """Well-sorted, its substitutions included, with no bindable variable
    in the hypotheses: the shape of every question check and search ask."""
    values = [(v, t) for sigma in sigmas for v, t in sigma.items()]
    out = []
    for p in [*triggers, *hyps, *(m.Eq(t, t) for _, t in values)]:
        m.check_predicate_sorts(p, signature, out)
    return (not out and all(m.term_sort(t, signature) == variables[v]
                            for v, t in values)
            and not any(n.name in variables
                        for n in m.nodes((m.Var,), *hyps)))


def _a_match_means(triggers, hyps, variables, signature, sigmas=({},),
                   budget=e.DEFAULT_BUDGET):
    """``match_trigger``'s answer, None when inconclusive, once it is
    checked against what a match means:

    * every substitution's instance follows from the hypotheses;
    * inconclusive only with an ``Or`` in the hypotheses;
    * on a checker-shaped question, each substitution ``brute_force_match``
      finds whose values are all congruent to terms of the first case is,
      variable by variable, congruent to a returned one, when the answer is
      ``[]`` or there is no ``Or``.
    """
    try:
        got = match_trigger(triggers, hyps, variables, signature, sigmas,
                            budget)
    except e.Inconclusive:
        assert m.nodes((m.Or,), *hyps), (triggers, hyps, sigmas)
        return None
    trigger = m.conjoin(triggers)
    for s in got:
        assert entails(hyps, m.substitute(trigger, s), float("inf")) == HOLDS
    if (got and m.nodes((m.Or,), *hyps)
            or not _checker_shaped(triggers, hyps, variables, signature,
                                   sigmas)):
        return got
    first = product_dnf_all(hyps, float("inf"))[0]
    registered = m.nodes((m.Var, m.PortRef, m.App), *first)

    def congruent(t, u):
        return entails(first, m.Eq(t, u)) == HOLDS

    for sigma in sigmas:
        for want in brute_force_match(triggers, hyps, variables, signature,
                                      sigma):
            if all(any(congruent(t, r) for r in registered)
                   for t in want.values()):
                assert any(s.keys() == want.keys()
                           and all(congruent(want[v], s[v]) for v in want)
                           for s in got), (triggers, hyps, want, got)
    return got


def test_match_trigger_agrees_with_the_reference_kernel():
    """Under the drawn budget and a tight one, every answer means what a
    match means (``_a_match_means``)."""
    rng = random.Random(20261018)
    seen = {"hits": 0, "split_hits": 0, "over_budget": 0, "none": 0,
            "several_hits": 0, "empty": 0, "shaped": 0}
    for _ in range(1200):
        triggers, hyps, variables, sigmas, budget = random_match_case(rng)
        # the drawn budget, and a tight one that allows one two-way split
        got, tight = (_a_match_means(triggers, hyps, variables,
                                     MATCH_SIGNATURE, sigmas, b)
                      for b in (budget, 2))
        seen["none"] += (got is None) + (tight is None)
        seen["shaped"] += _checker_shaped(triggers, hyps, variables,
                                          MATCH_SIGNATURE, sigmas)
        if got is None:
            continue
        cases = product_dnf_all(hyps, float("inf"))
        seen["hits"] += bool(got)
        seen["empty"] += not got
        seen["split_hits"] += bool(got) and len(cases) > 1
        seen["over_budget"] += any(
            product_dnf(p, budget) is None for p in triggers)
        # results that extend two different bindings in sigmas
        seen["several_hits"] += len({
            tuple(sigma.items()) for sigma in sigmas
            if sigma and any(sigma.items() <= s.items() for s in got)
        }) > 1
    # the generator reaches matches, empty answers, case splits, budgets,
    # blowups and matches from several substitutions
    assert seen["hits"] >= 200 and seen["split_hits"] >= 50
    assert seen["empty"] >= 200 and seen["shaped"] >= 300
    assert seen["over_budget"] >= 100 and seen["none"] >= 5
    assert seen["several_hits"] >= 30, seen


def _class_binding_family():
    """(name, triggers, hypotheses, variables, answer, by class): handmade
    matches around the class rule, each with its answer (None when
    inconclusive), and whether every binding is found by class, without
    listing every class's representative.

    A variable bound to a bindable variable v leaves v where it stood in
    the instance, and binding v then leaves the instance as it is, so v is
    not equated with anything and every representative of its sort fits."""
    W, V, U = (m.Var(n, SORT) for n in "wvu")
    C = m.Var("c", SORT)
    H = m.App("D.h", (X,))               # of sort D.W
    w, vw = {"w": SORT}, {"v": SORT, "w": SORT}
    return [
        ("member-of-the-sort", [m.Eq(P[1], W)],
         [m.Eq(P[1], P[2]), m.Eq(P[2], F(X)), m.Eq(P[1], X)], w,
         [{"w": F(X)}], True),
        ("member-of-another-sort", [m.Eq(W, P[1])],
         [m.Eq(P[1], H), m.Eq(P[2], X)], w, [], True),
        ("first-member-of-another-sort", [m.Eq(P[1], W)],
         [m.Eq(P[1], H), m.Eq(P[1], Y)], w, [], True),
        ("no-port-free-member", [m.Eq(P[1], W)],
         [m.Eq(P[1], P[2]), m.Eq(P[0], X)], w, [], True),
        ("side-not-registered", [m.Eq(F(X), W)],
         [m.Eq(F(Y), m.Var("z", SORT)), m.Eq(X, Y)], w,
         [{"w": F(Y)}], True),
        ("bound-term-bindable", [m.Eq(P[1], W)],
         [m.Eq(P[1], V), m.Eq(P[2], P[1])], vw, [{"w": V, "v": V}], False),
        ("bound-term-bindable-two-classes", [m.Eq(P[1], W)],
         [m.Eq(P[1], V), m.Eq(P[0], X)], vw,
         [{"w": V, "v": V}, {"w": V, "v": X}], False),
        ("shared-variable", [m.conjoin([m.Eq(P[0], W), m.Eq(W, P[1])])],
         [m.Eq(P[0], X), m.Eq(P[1], X)], w, [{"w": X}], True),
        ("shared-variable-two-classes",
         [m.Eq(P[0], W), m.Eq(P[1], F(W))],
         [m.Eq(P[0], X), m.Eq(P[1], F(Y))], w, [], True),
        ("variable-on-both-sides", [m.Eq(W, F(W))],
         [m.Eq(X, F(X)), m.Eq(P[0], F(W))], w, [{"w": X}], False),
        ("side-with-a-bound-variable", [m.Eq(P[0], U), m.Eq(W, F(U))],
         [m.Eq(P[0], X), m.Eq(P[1], F(X))], {"u": SORT, "w": SORT},
         [{"u": X, "w": F(X)}], True),
        ("implied-disjunction", [m.Eq(P[0], W)],
         [m.Eq(P[0], X), m.disjoin([m.Eq(P[1], X), m.Eq(P[1], Y)])], w,
         [{"w": X}], True),
        ("case-split", [m.conjoin([m.Eq(P[0], W), m.Eq(P[1], W)])],
         [m.Eq(P[0], X), m.disjoin([m.Eq(P[1], X), m.Eq(P[1], Y)])], w,
         None, True),
        # the class of f(p1) has no port-free member, but p1 = x
        ("representative-built", [m.Eq(P[0], W)],
         [m.Eq(P[0], F(P[1])), m.Eq(P[1], X)], w, [{"w": F(X)}], True),
        # f(x) is a term of no hypothesis
        ("side-of-no-hypothesis",
         [m.conjoin([m.Eq(P[0], V), m.Eq(W, F(V))])], [m.Eq(P[0], X)], vw,
         [{"v": X, "w": F(X)}], True),
        # the witness f(c) is a term of neither case
        ("witness-in-the-join", [m.Eq(P[0], W)],
         [m.disjoin([m.conjoin([m.Eq(P[0], F(X)), m.Eq(X, C)]),
                     m.conjoin([m.Eq(P[0], F(Y)), m.Eq(Y, C)])])], w,
         None, True),
    ]


@pytest.mark.parametrize("name, triggers, hyps, variables, answer, by_class",
                         _class_binding_family(),
                         ids=[c[0] for c in _class_binding_family()])
def test_class_binding_agrees_with_the_reference_in_order(
        name, triggers, hyps, variables, answer, by_class, enumerations):
    """A variable equated with a term is bound to the representative of
    that term's class, the term registered first: the answer, in order,
    means what a match means, and no class is listed for it."""
    got = _a_match_means(triggers, hyps, variables, MATCH_SIGNATURE)
    assert _in_order(got) == _in_order(answer)
    assert (not enumerations) == by_class


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.apml")))
def test_match_trigger_agrees_on_every_corpus_step(name, monkeypatch):
    """Every match the checker and proof search ask on a corpus model means
    what a match means."""
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
        _a_match_means(*args, **kwargs)
