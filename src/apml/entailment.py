"""Ground entailment for the positive port-predicate fragment.

Predicates here contain no negation, so a conjunction of facts has a least
model: the congruence closure of its equalities, with predicate atoms true
exactly on derivable tuples.  Entailment is decided by checking the goal in
that least model, disjunct by disjunct, which is sound and complete for this
fragment.  Disjunctions are expanded to DNF under a budget; exceeding it
yields an inconclusive verdict, never an acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import model as m

DEFAULT_BUDGET = 4096

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Result:
    status: str
    # for FAILS: a hypothesis disjunct under which the goal is underivable
    witness: Optional[m.Predicate] = None
    reason: str = ""

    def __bool__(self):
        return self.status == HOLDS


def dnf(pred, budget=DEFAULT_BUDGET):
    """List of disjuncts, each a list of Eq/Atom literals; None on blowup."""
    if isinstance(pred, (m.Eq, m.Atom)):
        return [[pred]]
    if isinstance(pred, m.Or):
        left = dnf(pred.lhs, budget)
        if left is None:
            return None
        right = dnf(pred.rhs, budget)
        if right is None or len(left) + len(right) > budget:
            return None
        return left + right
    left = dnf(pred.lhs, budget)
    if left is None:
        return None
    right = dnf(pred.rhs, budget)
    if right is None or len(left) * len(right) > budget:
        return None
    return [a + b for a in left for b in right]


def dnf_all(preds, budget=DEFAULT_BUDGET):
    """DNF of a conjunction of predicates; None on blowup."""
    out = [[]]
    for p in preds:
        d = dnf(p, budget)
        if d is None or len(out) * len(d) > budget:
            return None
        out = [a + b for a in out for b in d]
    return out


class Congruence:
    """Union-find over ground terms with congruence propagation.

    Contract variables are treated as constants (they are frozen parameters
    of the surrounding contract, not quantified here).
    """

    def __init__(self):
        self.parent = {}
        self.order = []                  # registration order, for determinism
        self.apps = []                   # registered App terms
        self.atoms = []                  # true (pred, args) facts

    def add_term(self, t):
        if t in self.parent:
            return
        self.parent[t] = t
        self.order.append(t)
        if isinstance(t, m.App):
            self.apps.append(t)
            for a in t.args:
                self.add_term(a)

    def find(self, t):
        self.add_term(t)
        root = t
        while self.parent[root] is not root:
            root = self.parent[root]
        while self.parent[t] is not root:
            self.parent[t], t = root, self.parent[t]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self.parent[ra] = rb

    def assert_equal(self, a, b):
        self.union(a, b)
        self._close()

    def assert_atom(self, pred, args):
        for a in args:
            self.add_term(a)
        self.atoms.append((pred, tuple(args)))

    def _close(self):
        changed = True
        while changed:
            changed = False
            by_sig = {}
            for t in self.apps:
                sig = (t.op, tuple(self.find(a) for a in t.args))
                other = by_sig.get(sig)
                if other is None:
                    by_sig[sig] = t
                elif self.find(other) is not self.find(t):
                    self.union(other, t)
                    changed = True

    def equal(self, a, b):
        self.add_term(a)
        self.add_term(b)
        self._close()
        return self.find(a) is self.find(b)

    def holds_atom(self, pred, args):
        for a in args:
            self.add_term(a)
        self._close()
        keys = tuple(self.find(a) for a in args)
        return any(p == pred and len(ts) == len(args)
                   and tuple(self.find(t) for t in ts) == keys
                   for p, ts in self.atoms)

    def value_representatives(self):
        """One port-free term per class that has one, registration order.

        Ports denote time-indexed observations while contract variables are
        time-invariant values, so a variable may only be instantiated with a
        term built from values: picking a port would smuggle one time point's
        observation into another's.
        """
        chosen = {}
        for t in self.order:
            r = self.find(t)
            if r not in chosen and not m.ports_of(m.Eq(t, t)):
                chosen[r] = t
        roots_in_order = []
        for t in self.order:
            r = self.find(t)
            if r in chosen and chosen[r] is not None and r not in roots_in_order:
                roots_in_order.append(r)
        return [chosen[r] for r in roots_in_order]


def congruence_of(literals):
    cong = Congruence()
    for lit in literals:
        if isinstance(lit, m.Eq):
            cong.add_term(lit.lhs)
            cong.add_term(lit.rhs)
            cong.union(lit.lhs, lit.rhs)
        else:
            cong.assert_atom(lit.pred, lit.args)
    cong._close()
    return cong


def _literal_holds(lit, cong):
    if isinstance(lit, m.Eq):
        return cong.equal(lit.lhs, lit.rhs)
    return cong.holds_atom(lit.pred, lit.args)


def entails(hypotheses, goal, budget=DEFAULT_BUDGET):
    """Does the conjunction of hypotheses entail the goal?"""
    hyp_disjuncts = dnf_all(list(hypotheses), budget)
    if hyp_disjuncts is None:
        return Result(INCONCLUSIVE,
                      reason="hypothesis DNF exceeds budget %d" % budget)
    goal_disjuncts = dnf(goal, budget)
    if goal_disjuncts is None:
        return Result(INCONCLUSIVE,
                      reason="goal DNF exceeds budget %d" % budget)
    for disjunct in hyp_disjuncts:
        cong = congruence_of(disjunct)
        if not any(all(_literal_holds(lit, cong) for lit in g)
                   for g in goal_disjuncts):
            return Result(FAILS, witness=m.conjoin(disjunct) if disjunct
                          else None,
                          reason="goal not derivable from this case")
    return Result(HOLDS)


# ---------------------------------------------------------------------------
# Trigger matching

def _candidates(cong, sort, signature):
    out = []
    for t in cong.value_representatives():
        ts = m.term_sort(t, signature)
        if ts is None or sort is None or ts == sort:
            out.append(t)
    return out


def match_predicate(goal, cong, variables, signature, sigma):
    """All substitutions extending sigma that make the goal hold in cong.

    ``variables`` maps variable name to sort.  The search binds variables to
    class representatives, literal by literal, depth first with backtracking.
    """
    literals = []
    for p in m.conjuncts(goal):
        literals.extend(m.conjuncts(p))
    results = []
    stack = [(0, dict(sigma))]           # (literals satisfied, bindings)
    while stack:
        i, sub = stack.pop()
        if i == len(literals):
            if sub not in results:
                results.append(sub)
            continue
        lit = m.substitute(literals[i], sub)
        # only declared rationale variables are bindable; anything else is a
        # frozen constant of the surrounding contract
        unbound = sorted((m.free_variables(lit) & set(variables)) - set(sub))
        if not unbound:
            if _instance_holds(lit, cong):
                stack.append((i + 1, sub))
            continue
        # bind the first unbound variable to each candidate class, the first
        # candidate on top
        v = unbound[0]
        stack.extend((i, {**sub, v: t}) for t in
                     reversed(_candidates(cong, variables.get(v), signature)))
    return results


def _instance_holds(lit, cong):
    if isinstance(lit, m.Or):
        return _instance_holds(lit.lhs, cong) or _instance_holds(lit.rhs, cong)
    if isinstance(lit, m.And):
        return _instance_holds(lit.lhs, cong) and _instance_holds(lit.rhs, cong)
    return _literal_holds(lit, cong)


def match_trigger(trigger_preds, hypotheses, variables, signature,
                  sigma=None, budget=DEFAULT_BUDGET):
    """Substitutions making every trigger predicate follow from hypotheses.

    Matching binds against the least model of the first hypothesis case;
    every candidate is then verified against the full hypotheses with
    ``entails``, so disjunctive hypotheses cannot sneak in unsound matches.
    """
    sigma = dict(sigma or {})
    disjuncts = dnf_all(list(hypotheses), budget)
    if disjuncts is None:
        return None
    cong = congruence_of(disjuncts[0]) if disjuncts else Congruence()
    subs = [sigma]
    for pred in trigger_preds:
        subs = [s2 for s in subs
                for s2 in match_predicate(pred, cong, variables, signature, s)]
        if not subs:
            return []
    verified = []
    for s in subs:
        if all(entails(hypotheses, m.substitute(p, s), budget)
               for p in trigger_preds):
            if s not in verified:
                verified.append(s)
    return verified
