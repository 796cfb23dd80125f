"""Ground entailment for the positive port-predicate fragment.

Predicates here contain no negation, so a conjunction of facts has a least
model: the congruence closure of its equalities, with predicate atoms true
exactly on derivable tuples.  Entailment is decided by checking the goal in
the least model of each hypothesis case, which is sound and complete for
this fragment.  Only hypotheses are split, on demand: the goal is first
decided in the least model of the ``Or``-free conjuncts, a disjunction with
a disjunct true there is implied and never split, and only then is the first
one left split.  The budget caps the cases one question opens, never more
than the hypotheses' DNF has; past it comes inconclusive, never acceptance.

The kernel's invariant: match candidates come from the first hypothesis
case, the first disjunct of every ``Or`` in order, one ``Congruence`` per
substitution; with an ``Or`` in the hypotheses, ``entails`` keeps those
that hold in every case, each candidate a question with its own budget.
Truth in a least model does not depend on which further terms are
registered in it, but which terms are match candidates does: they are read
in registration order, the terms of earlier questions included, so each
substitution is extended in a first-case model of its own.  A variable
equated with a registered term is bound within its class (E-matching): no
other candidate passes, and testing one would register nothing.
"""

from . import model as m

DEFAULT_BUDGET = 4096

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def _split(preds, first=False):
    """The Eq/Atom literals and the disjunctions of a conjunction, in order.
    With ``first``, each disjunction's first disjunct is walked in its place
    too, so the literals are the conjunction's first case."""
    literals, ors = [], []
    stack = list(preds)[::-1]
    while stack:
        p = stack.pop()
        kind = p.__class__
        if kind is m.And:
            stack += reversed(p.parts)
        elif kind is m.Or:
            ors.append(p)
            if first:
                stack.append(p.parts[0])
        else:
            literals.append(p)
    return literals, ors


class Congruence:
    """Union-find over ground terms with congruence propagation.

    Contract variables are treated as constants (they are frozen parameters
    of the surrounding contract, not quantified here).  A term gets an id
    when first registered, an application before its arguments; classes,
    signatures and atoms are kept over ids, so a term is hashed once per
    lookup rather than at every step of a find.
    """

    def __init__(self, literals=()):
        """The least model of a conjunction of Eq/Atom literals."""
        self.ids = {}                    # term -> id
        self.terms = []                  # id -> term, registration order
        self.parent = []                 # id -> parent id
        self.free = []                   # id -> term has no port in it
        self.apps = []                   # (id, op, argument ids) of Apps
        self.atoms = []                  # true (pred, argument ids) facts
        self.stale = False               # union or App since last closure
        for lit in literals:
            if lit.__class__ is m.Eq:
                self.union(self.add_term(lit.lhs), self.add_term(lit.rhs))
            else:
                self.atoms.append((lit.pred,
                                   tuple(map(self.add_term, lit.args))))
        self._close()

    def add_term(self, t):
        """The id of a term, registering it and its subterms when new."""
        n = len(self.terms)
        i = self.ids.setdefault(t, n)    # one hash, hit or miss
        if i == n:
            self.terms.append(t)
            self.parent.append(i)
            kind = t.__class__
            self.free.append(kind is not m.PortRef)
            if kind is m.App:
                args = tuple(map(self.add_term, t.args))
                self.free[i] = all(self.free[a] for a in args)
                self.apps.append((i, t.op, args))
                self.stale = True
        return i

    def find(self, i):
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj
            self.stale = True

    def _close(self):
        """Merge congruent Apps; a no-op unless a union or an App came in
        since the last closure."""
        find = self.find
        while self.stale:
            self.stale = False
            by_sig = {}
            for i, op, args in self.apps:
                self.union(by_sig.setdefault((op, tuple(map(find, args))), i),
                           i)

    def holds(self, p):
        """Does a predicate hold in this least model, its variables read as
        constants?"""
        kind = p.__class__
        if kind is m.Eq:
            i, j = self.add_term(p.lhs), self.add_term(p.rhs)
            self._close()
            return self.find(i) == self.find(j)
        if kind is m.Atom:
            ids = tuple(map(self.add_term, p.args))
            self._close()
            keys = tuple(map(self.find, ids))
            return any(q == p.pred and tuple(map(self.find, ts)) == keys
                       for q, ts in self.atoms)
        if kind is m.And:
            return all(map(self.holds, p.parts))
        return any(map(self.holds, p.parts))

    def value_representatives(self):
        """One port-free term per class that has one: the first registered,
        classes ordered by their first registered member.

        Ports denote time-indexed observations while contract variables are
        time-invariant values, so a variable may only be instantiated with a
        term built from values: picking a port would smuggle one time point's
        observation into another's.
        """
        free, chosen = self.free, {}     # root -> first free member
        for i, r in enumerate(map(self.find, range(len(self.terms)))):
            if chosen.get(r) is None:    # a new class keeps its first place
                chosen[r] = i if free[i] else None
        return [self.terms[i] for i in chosen.values() if i is not None]

    def representative_of(self, i):
        """The representative of id i's class, in a list of at most one."""
        root, free, find = self.find(i), self.free, self.find
        return [t for j, t in enumerate(self.terms)
                if free[j] and find(j) == root][:1]


def entails(hypotheses, goal, budget=DEFAULT_BUDGET):
    """HOLDS when the conjunction of hypotheses entails the goal, FAILS when
    it does not, INCONCLUSIVE when deciding it opens more than ``budget``
    cases, a k-way split making k of one.  Walks the splits depth first,
    first disjunct first.  A goal whose every conjunct is an ``Or``-free
    hypothesis literal holds in every case, so no model is built for it."""
    stack = [_split(hypotheses)]
    if set(m.conjuncts(goal)).issubset(stack[0][0]):
        return HOLDS
    while stack:
        literals, pending = stack.pop()
        cong = Congruence(literals)
        if cong.holds(goal):
            continue
        pending = [d for d in pending if not cong.holds(d)]
        if not pending:
            return FAILS                 # the least model is a countermodel
        budget -= len(pending[0].parts) - 1
        if budget < 1:
            return INCONCLUSIVE
        for part in reversed(pending[0].parts):
            more, ors = _split((part,))
            stack.append((literals + more, ors + pending[1:]))
    return HOLDS


# ---------------------------------------------------------------------------
# Trigger matching

def match_predicate(goal, cong, variables, signature, sigma):
    """All substitutions extending sigma that make the goal hold in cong.

    ``variables`` maps variable name to sort.  The search binds variables to
    class representatives, literal by literal, depth first with backtracking.
    Only declared variables are bindable; anything else is a frozen constant
    of the surrounding contract.  A literal's unbound variables are read off
    its instance under the bindings so far, so a bindable variable that
    comes in with a binding, from the model or from sigma, is bound too.
    A variable that is, as written, a side of an equality whose other side
    is registered and holds no unbound variable is bound by class: no other
    representative passes, and testing one would register nothing.
    """
    literals = m.conjuncts(goal)
    results = []
    stack = [(0, dict(sigma))]           # (literals satisfied, bindings)
    while stack:
        i, sub = stack.pop()
        if i == len(literals):
            if sub not in results:
                results.append(sub)
            continue
        instance = m.substitute(literals[i], sub)
        names = [n.name for n in m.nodes((m.Var,), instance)]
        unbound = sorted(set(names) & variables.keys() - sub.keys())
        if not unbound:
            if cong.holds(instance):
                stack.append((i + 1, sub))
            continue
        v, sort = unbound[0], variables.get(unbound[0])
        lit, side = literals[i], None
        if lit.__class__ is m.Eq and len(unbound) == 1:
            for var, other in (lit.lhs, instance.rhs), (lit.rhs, instance.lhs):
                if var.__class__ is m.Var and var.name == v:
                    side = other
        by_class = side in cong.ids and names.count(v) == 1  # v not in side
        # each candidate class of v's sort, the first on top
        for t in reversed(cong.representative_of(cong.ids[side]) if by_class
                          else cong.value_representatives()):
            if sort is None or m.term_sort(t, signature) in (None, sort):
                held = by_class and not m.free_variables(t) & variables.keys()
                stack.append((i + 1 if held else i, {**sub, v: t}))
    return results


def match_trigger(trigger_preds, hypotheses, variables, signature,
                  sigmas=({},), budget=DEFAULT_BUDGET):
    """The extensions of the substitutions in sigmas, in order and each
    once, that make every trigger predicate follow from the hypotheses.

    Each substitution is extended in a fresh least model of the first
    hypothesis case.  With an ``Or`` in the hypotheses, only the candidates
    that ``entails`` accepts, each with a budget of its own, are kept: no
    unsound match sneaks in.  None when it is inconclusive on one.
    """
    first_case, ors = _split(hypotheses, first=True)
    subs = []
    for sigma in sigmas:
        first = Congruence(first_case)
        found = [dict(sigma)]
        for pred in trigger_preds:
            found = [s2 for s in found for s2 in
                     match_predicate(pred, first, variables, signature, s)]
        for s in found:
            if s not in subs:
                subs.append(s)
    if not ors:
        return subs
    verdicts = [entails(hypotheses, m.substitute(m.conjoin(trigger_preds), s),
                        budget) for s in subs]
    if INCONCLUSIVE in verdicts:
        return None
    return [s for s, v in zip(subs, verdicts) if v == HOLDS]
