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

Trigger matching binds variables to port-free class representatives in
the least model of the first hypothesis case, the first disjunct of every
``Or``, one model per substitution.  A variable equated with a term is bound
to that term's class (E-matching), any other against every class the model
has when its literal is reached.  Without an ``Or`` this is complete modulo
congruence for every variable some literal constrains: truth in a least
model does not depend on which terms are registered, a value of such a
variable is congruent to a term of the model, and a class holding a
port-free term has a representative.  The known gap: a variable that no
literal constrains, of a sort with no port-free term in the first case,
gets no candidate.  With an ``Or``, ``entails`` keeps the candidates that
hold in every case.  A substitution that does holds in the first, so no
candidate at all is a definite no; candidates of which none holds are
inconclusive, since a witness may lie outside the first case's terms.
"""

from . import model as m

DEFAULT_BUDGET = 4096

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

OVER_BUDGET = "hypothesis DNF exceeds budget %d"


class Inconclusive(Exception):
    """Trigger matching decided nothing; the message says why."""


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

    def representatives(self, term=None):
        """Each class's port-free representative, classes in the order of
        their first registered member; with a term, registered first, only
        its class's, read off that class alone.  That is the first port-free
        member, else (and only then is every class read) an application in
        the class rebuilt over its arguments' representatives: a class has
        one exactly when it holds a port-free term.  A port is a time-indexed
        observation; a variable bound to one would carry it to other times.
        """
        find, reps = self.find, {}       # root -> representative or None
        if term is not None:
            at = self.add_term(term)
            self._close()
            for i, free in enumerate(self.free):
                if free and find(i) == find(at):
                    return [self.terms[i]]
        for i, r in enumerate(map(find, range(len(self.terms)))):
            if reps.get(r) is None:      # a new class keeps its first place
                reps[r] = self.terms[i] if self.free[i] else None
        grown = None in reps.values()
        while grown:
            grown = False
            for i, op, args in self.apps:
                built = [reps[find(a)] for a in args]
                if reps[find(i)] is None and None not in built:
                    reps[find(i)], grown = m.App(op, tuple(built)), True
        chosen = reps.values() if term is None else [reps[find(at)]]
        return [t for t in chosen if t is not None]


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
    holds no unbound variable is bound to that side's class; any other is
    listed against the classes the model has when its literal is reached.
    """
    literals = m.conjuncts(goal)
    results = []
    stack = [(0, dict(sigma), None)]     # (literals satisfied, bindings,
    while stack:                         # the literal's listed classes)
        i, sub, listed = stack.pop()
        if i == len(literals):
            if sub not in results:
                results.append(sub)
            continue
        instance = m.substitute(literals[i], sub)
        unbound = [n.name for n in m.nodes((m.Var,), instance)
                   if n.name in variables and n.name not in sub]
        if not unbound:
            if cong.holds(instance):
                stack.append((i + 1, sub, None))
            continue
        v = min(unbound)
        sort, lit, side = variables[v], literals[i], None
        if lit.__class__ is m.Eq and len(unbound) == 1:
            for var, other in (lit.lhs, instance.rhs), (lit.rhs, instance.lhs):
                if var.__class__ is m.Var and var.name == v:
                    side = other
        if side is None and listed is None:
            listed = cong.representatives()
        # each candidate class of v's sort, the first on top
        for t in reversed(listed if side is None
                          else cong.representatives(side)):
            if sort is None or m.term_sort(t, signature) in (None, sort):
                held = side is not None and (
                    t.name not in variables if t.__class__ is m.Var
                    else not m.free_variables(t) & variables.keys())
                stack.append((i + 1, {**sub, v: t}, None) if held
                             else (i, {**sub, v: t}, listed))
    return results


def match_trigger(trigger_preds, hypotheses, variables, signature,
                  sigmas=({},), budget=DEFAULT_BUDGET):
    """The extensions of the substitutions in sigmas, in order and each
    once, that make every trigger predicate follow from the hypotheses.

    Each substitution is extended in a fresh least model of the first
    hypothesis case.  With an ``Or`` in the hypotheses, only the candidates
    that ``entails`` accepts, each with a budget of its own, are kept.
    Raises ``Inconclusive`` when ``entails`` is inconclusive on one, or when
    there are candidates and none holds in every case.
    """
    first_case, ors = _split(hypotheses, first=True)
    subs = []
    for sigma in sigmas:
        first = Congruence(first_case)
        found = [sigma]                  # match_predicate copies it
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
        raise Inconclusive(OVER_BUDGET % budget)
    if subs and HOLDS not in verdicts:
        raise Inconclusive("no instantiation from the first hypothesis "
                           "case holds in every case")
    return [s for s, v in zip(subs, verdicts) if v == HOLDS]
