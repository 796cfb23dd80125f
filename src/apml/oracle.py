"""Finite-domain semantics: universes, trace search and proof search.

A finite universe interprets every sort as a small carrier and every symbol
as a table.  A trace is a finite sequence of port valuations; it satisfies a
contract when every window lying in the trace whose triggers hold at their
offsets has the guarantee hold at its duration.  This executable semantics
is an independent oracle for the proof checker.

``verify_satisfaction`` checks an architecture contract of duration d on
traces of ``horizon + d + 1`` states, for windows starting before horizon;
states after the last window only add constraints.  Its depth-first search
builds one state per level.  For a fixed window start and assignment,
whether a prefix extends to a counterexample depends only on its length and
its last L states, L the largest trigger offset or duration of a component
contract: a component window completing at the next level, and so each
output its guarantee fixes there, reads at most L states back, and the
architecture's triggers and guarantee are checked on the new state at fixed
levels (a full trace has passed the guarantee's level, so it is a
counterexample).  Keys whose subtree held no counterexample are skipped
when met again, so the first counterexample found is unchanged.  A prefix
of at most L states is its own key and is met only once, so only longer
prefixes are recorded.  The memo holds at most ``MEMO_KEYS`` keys and
starts afresh when full; forgetting keys only visits more nodes.

The search runs first in a cone.  A cell is a free port at a level; a
union-find joins the cells each component window lying in the trace reads
(its triggers' ports at their offsets, its guarantee's at its duration).  A
window start's cone is the parts holding a cell the architecture contract
reads there.  Cells outside it take one placeholder value and windows
outside it go unchecked; that only adds traces, so a cone without
counterexample means none exists.  No window reads both a cone cell and
another, so the composed traces are the cone's times the other parts', and
the first counterexample, the least in the search's order, pairs the first
of each.  So when the cone is not every cell, the search runs again over
every cell with the cone's pinned to its counterexample.  It returns the
first counterexample, or none when the other parts have no trace: then no
composed trace exists and the contract holds.
"""

import bisect
import itertools
import sys

from . import model as m
from . import checker
from . import entailment as e
from .diagnostics import Record

FOUND = "found"
NO_PROOF_AT_BOUND = "no-proof-at-bound"
BUDGET_EXCEEDED = "budget-exceeded"
NODE_BUDGET = 2000000                # default states enumerated by simulate
MEMO_KEYS = 250000                   # dead keys kept per search, bounds memory


class ExplosionError(Exception):
    """Enumeration would exceed the configured budget."""


# ---------------------------------------------------------------------------
# Universes

class FiniteUniverse:
    __slots__ = ("carriers", "operations", "predicates")
    __match_args__ = __slots__           # the fields Record.__repr__ lists

    def __init__(self, carriers=None, operations=None, predicates=None):
        # sort -> list of values
        self.carriers = {} if carriers is None else carriers
        # op -> {args: value}
        self.operations = {} if operations is None else operations
        # pred -> set of arg tuples
        self.predicates = {} if predicates is None else predicates

    __repr__ = Record.__repr__

    def carrier(self, sort):
        return self.carriers.get(sort, [])

    def eval_predicate(self, pred, env, state):
        """Truth of a predicate: ``env`` maps variable names and ``state``
        qualified port names to values.  The package never calls it;
        ``perfbench/tracing.py`` counts its calls."""
        names = {v: v for v in m.free_variables(pred)}
        slots = {p.qualified: p.qualified for p in m.ports_of(pred)}
        return _compile(self, pred, names, slots)(env, state)


def parse_universe(text):
    """Line format: ``sort S: v ...``, ``op F: a b -> r``, ``pred P: a b``.

    Repeated op/pred lines accumulate; '#' starts a comment.
    """
    uni = FiniteUniverse()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            kind, rest = line.split(None, 1)
            name, body = rest.split(":", 1)
            name = name.strip()
            fields = body.split()
            if kind == "sort":
                uni.carriers.setdefault(name, [])
                for v in fields:
                    if v not in uni.carriers[name]:
                        uni.carriers[name].append(v)
            elif kind == "op":
                arrow = fields.index("->")
                args = tuple(fields[:arrow])
                (result,) = fields[arrow + 1:]
                uni.operations.setdefault(name, {})[args] = result
            elif kind == "pred":
                uni.predicates.setdefault(name, set()).add(tuple(fields))
            else:
                raise ValueError("unknown entry kind %r" % kind)
        except (ValueError, IndexError) as exc:
            raise ValueError("universe line %d: %s" % (lineno, raw)) from exc
    return uni


# ---------------------------------------------------------------------------
# Satisfaction of an architecture contract by all well-behaved traces

def _compile(universe, node, names, slots):
    """A function of (env, state) giving a term's value or a predicate's
    truth under the universe's tables: ``env`` and ``state`` are sequences,
    indexed by ``names`` (variable name -> position) and ``slots`` (qualified
    port name -> position).  An operation is None off its table and a
    predicate atom true exactly on its table; an ``And`` holds when all its
    parts do and an ``Or`` when one does, parts tried left to right.  A part
    repeated in one node is compiled and evaluated once.  An operation the
    universe has no table for is a ValueError."""
    if isinstance(node, m.Var):
        j = names[node.name]
        return lambda env, state: env[j]
    if isinstance(node, m.PortRef):
        i = slots[node.port.qualified]
        return lambda env, state: state[i]
    if isinstance(node, (m.App, m.Atom)):
        args = [_compile(universe, a, names, slots) for a in node.args]
        if isinstance(node, m.App):
            table = universe.operations.get(node.op)
            if table is None:
                raise ValueError("universe has no table for operation '%s'"
                                 % node.op)
            return lambda env, state: table.get(tuple([a(env, state)
                                                       for a in args]))
        table = universe.predicates.get(node.pred, set())
        return lambda env, state: tuple([a(env, state) for a in args]) in table
    if isinstance(node, m.Eq):
        lhs = _compile(universe, node.lhs, names, slots)
        rhs = _compile(universe, node.rhs, names, slots)
        return lambda env, state: lhs(env, state) == rhs(env, state)
    parts = [_compile(universe, p, names, slots)
             for p in dict.fromkeys(node.parts)]
    decisive = isinstance(node, m.Or)    # a part of this value decides

    def holds(env, state):
        for f in parts:
            if f(env, state) is decisive:
                return decisive
        return not decisive
    return holds


def _equations(c):
    """The (port, term) pair of each ``[port = term]`` conjunct of c's
    guarantee whose term reads no port, each pair once: under an assignment
    whose triggers hold, the guarantee fixes the port's value there."""
    return list(dict.fromkeys(
        (p.lhs.port, p.rhs) for p in m.conjuncts(c.guarantee)
        if isinstance(p, m.Eq) and isinstance(p.lhs, m.PortRef)
        and not m.ports_of(p.rhs)))


def _carriers(universe, sorts):
    """The carrier of each sort; a ValueError names the first one empty."""
    carriers = [universe.carrier(sort) for sort in sorts]
    if not all(carriers):
        sort = next(s for s, values in zip(sorts, carriers) if not values)
        raise ValueError("universe has no values for sort '%s'" % sort)
    return carriers


def verify_satisfaction(model, contract, universe, horizon=None,
                        budget=NODE_BUDGET):
    """Must every composed trace satisfying the component contracts satisfy
    the architecture contract?

    Searches for a counterexample trace per window start and variable
    assignment, first in the start's cone and then over every cell (see the
    module docstring); returns ``(True, None)`` when none exists,
    ``(False, trace)`` with the first counterexample otherwise.  Each
    enumerated state is a node, counted over both searches; raises
    ExplosionError past ``budget`` nodes.  A sort without values or an
    operation without a table would make any verdict vacuous: each is a
    ValueError, sorts of free ports, then of variables, before operations.
    So, next, is a horizon whose trace has more cells than a list holds.
    """
    conn = model.connection_map()
    free = [p for ct in model.component_types for p in ct.ports
            if p not in conn]
    slots = {p.qualified: i for i, p in enumerate(free)}
    for p_in, p_out in conn.items():
        slots[p_in.qualified] = slots[p_out.qualified]
    carriers = _carriers(universe, [p.sort for p in free])
    owned = [c for ct in model.component_types for c in ct.contracts]
    # each contract's assignments of its variables, the architecture's last,
    # looked up before any operation table, as the docstring orders them
    envs = [list(itertools.product(*_carriers(
                universe, [sort for _, sort in c.variables])))
            for c in owned + [contract]]

    def reads(c):
        """The (offset, slot) pairs a window of contract c reads."""
        return [(t, slots[p.qualified])
                for t, pred in [(t.time, t.predicate) for t in c.triggers]
                + [(c.duration, c.guarantee)] for p in m.ports_of(pred)]

    if horizon is None:
        horizon = contract.duration + 1
    length = horizon + contract.duration + 1
    nodes = 0
    # union-find over the cells, cell k * width + i being slot i at level k
    width = len(free)
    if width * length > sys.maxsize:
        raise ValueError("horizon %d is too long to lay out" % horizon)
    part = list(range(width * length))

    def find(cell):
        while part[cell] != cell:
            part[cell] = part[part[cell]]
            cell = part[cell]
        return cell

    # per level, the (cell read or None, window) of the windows completing
    # there; a window is (span, envs, triggers, duration, guarantee, fixes),
    # fixes the (slot, term) of _equations when triggers precede the duration
    completing = [[] for _ in range(length)]
    lookback = 0
    for c, c_envs in zip(owned, envs):
        names = {name: j for j, (name, _) in enumerate(c.variables)}
        span = max([t.time for t in c.triggers] + [c.duration])
        lookback = max(lookback, span)
        window = (span, c_envs,
                  [(t.time, _compile(universe, t.predicate, names, slots))
                   for t in c.triggers],
                  c.duration, _compile(universe, c.guarantee, names, slots),
                  [(slots[port.qualified], _compile(universe, term, names, {}))
                   for port, term in _equations(c)]
                  if all(t.time < c.duration for t in c.triggers) else [])
        offsets = reads(c)
        for s in range(length - span):
            cells = [(s + t) * width + i for t, i in offsets]
            for cell in cells[1:]:
                part[find(cell)] = find(cells[0])
            completing[s + span].append((cells[0] if cells else None,
                                         window))
    every = [[w for _, w in level] for level in completing]

    names = {name: j for j, (name, _) in enumerate(contract.variables)}
    arch_triggers = [(t.time, _compile(universe, t.predicate, names, slots))
                     for t in contract.triggers]
    arch_guarantee = _compile(universe, contract.guarantee, names, slots)
    arch_reads = reads(contract)

    def candidates(trace, upto, domains, live):
        """The states to try at level upto: each port a live window fixes
        there, under an assignment whose triggers hold, takes that value
        (none off the table); none when one port is fixed to two values."""
        forced = {}
        for span, envs, triggers, _, _, fixes in live[upto]:
            if not fixes:
                continue
            n = upto - span
            checks = [(f, trace[n + t]) for t, f in triggers]
            for env in envs:
                for f, state in checks:
                    if not f(env, state):
                        break
                else:
                    for i, term in fixes:
                        value = term(env, ())
                        if (value is not None
                                and forced.setdefault(i, value) != value):
                            return ()
        domains = list(domains[upto])
        for i, value in forced.items():
            domains[i] = (value,)
        return itertools.product(*domains)

    def windows_hold(trace, upto, live):
        """Do the live component windows completing at trace[upto] hold?"""
        for span, envs, triggers, duration, guarantee, _ in live[upto]:
            n = upto - span
            checks = [(f, trace[n + t]) for t, f in triggers]
            last = trace[n + duration]
            for env in envs:
                for f, state in checks:
                    if not f(env, state):
                        break
                else:
                    if not guarantee(env, last):
                        return False
        return True

    def search(n, env, domains, live):
        """The first counterexample for window start n and assignment env
        whose level k takes its states from domains[k] and satisfies the
        windows live[k]."""
        nonlocal nodes
        # what each level's state must satisfy: the architecture triggers of
        # this window, and at its duration the negated guarantee
        arch_at = [[] for _ in range(length)]
        for t, f in arch_triggers:
            if n + t < length:
                arch_at[n + t].append(f)
        arch_at[n + contract.duration].append(
            lambda env, state: not arch_guarantee(env, state))
        dead = set()                 # keys of levels that failed to extend
        trace = []
        levels = [(None, candidates(trace, 0, domains, live))]
        while levels:
            key, states = levels[-1]
            upto = len(levels) - 1
            del trace[upto:]
            for state in states:
                nodes += 1
                if nodes > budget:
                    raise ExplosionError(
                        "node budget %d exhausted (%d nodes enumerated)"
                        % (budget, nodes))
                trace.append(state)
                if (windows_hold(trace, upto, live)
                        and all(f(env, state) for f in arch_at[upto])):
                    break
                trace.pop()
            else:
                if key is not None:
                    if len(dead) >= MEMO_KEYS:
                        dead.clear()     # the memo is only a cache
                    dead.add(key)
                levels.pop()
                continue
            if upto + 1 == length:
                return trace
            key = None               # a prefix within the lookback is met once
            if upto >= lookback:
                key = (upto + 1, tuple(trace[upto + 1 - lookback:]))
                if key in dead:
                    continue
            levels.append((key, candidates(trace, upto + 1, domains, live)))
        return None

    for n in range(horizon):
        cone = {find((n + t) * width + i) for t, i in arch_reads
                if n + t < length}
        inside = [find(cell) in cone for cell in range(width * length)]
        domains = [[carriers[i] if inside[k * width + i] else (None,)
                    for i in range(width)] for k in range(length)]
        live = [[w for cell, w in level if cell is None or inside[cell]]
                for level in completing]
        for env in envs[-1]:
            counter = search(n, env, domains, live)
            if counter is not None and not all(inside):
                # complete the cone's trace over the other parts
                pinned = [[(v,) if inside[k * width + i] else carriers[i]
                           for i, v in enumerate(state)]
                          for k, state in enumerate(counter)]
                counter = search(n, env, pinned, every)
                if counter is None:
                    return True, None    # the other parts have no trace
            if counter is not None:
                return False, [{q: state[i] for q, i in slots.items()}
                               for state in counter]
    return True, None


# ---------------------------------------------------------------------------
# Proof search

class SearchResult(Record, defaults=dict(proof=None, steps_explored=0,
                                         reason="")):
    __slots__ = ("status",
                 "proof",                # of ProofStep
                 "steps_explored",
                 "reason")               # why it is inconclusive, if it is


def _anchored(p):
    """Does every disjunct of p's DNF have an anchored literal?  Read off p
    without building the DNF: an And's disjuncts all do when some part's
    all do, an Or's when every part's do.  A term or an atom mentioning a
    port is anchored; the walk stops at the first port."""
    kind = p.__class__
    if kind is m.App or kind is m.Atom:
        return any(map(_anchored, p.args))
    if kind is m.Eq:
        return _anchored(p.lhs) != _anchored(p.rhs)
    if kind is m.And or kind is m.Or:
        return (any if kind is m.And else all)(map(_anchored, p.parts))
    return kind is m.PortRef


def _anchors(contract):
    """(offset, ports) of each port-anchored trigger of a contract."""
    return [(t.time, m.ports_of(t.predicate)) for t in contract.triggers
            if _anchored(t.predicate)]


def _derived_state(guarantee, renaming, sigma):
    """The guarantee under ``sigma``, less the conjuncts with a variable that
    ``sigma`` leaves unbound (a renamed one cannot be printed, and C5 holds
    for any conjuncts of the guarantee); None if no conjunct is left."""
    bound = {orig: sigma[v.name] for orig, v in renaming.items()
             if v.name in sigma}
    if len(bound) < len(renaming):
        unbound = renaming.keys() - bound.keys()
        guarantee = m.conjoin([p for p in m.conjuncts(guarantee)
                               if not m.free_variables(p) & unbound])
    return None if guarantee is None else m.substitute(guarantee, bound)


def search_proof(model, contract, max_steps=32, budget=e.DEFAULT_BUDGET):
    """Saturate the fact base with contract applications.

    Facts start from the architecture triggers; each round applies every
    component contract at every base time whose reference sets can be
    assembled.  The checker's ``instantiate`` decides every application, as
    it decides a written step; the fact is the rationale's guarantee under
    its first instantiation.  Each fact at the architecture's duration is
    judged when it is added, by the checker's ``reaches_guarantee``, and
    search stops at the first one that entails the guarantee.  A new fact past
    ``max_steps`` facts is refused, and search ends ``budget-exceeded``; so
    does saturation without a goal after a C3 or goal check past the DNF
    budget, else ``inconclusive`` after another undecided C3 (its reason).

    Indexes kept up to date as facts are added replace the scans of all
    facts and connections on every try: the references at each time
    (architecture triggers first, then facts in discovery order), the keys
    of the known facts, the connections feeding each component, and for each
    port the times it is visible at.  A port is visible at a time when a
    reference there mentions it or a declared connection feeds it from one
    that does, so every port in the hypotheses of a trigger at time t is
    visible at t.

    A trigger is port-anchored (``_anchored``) when every disjunct of its
    DNF has a literal that is false whenever its ports are fresh: an
    equality with ports on exactly one side, or a predicate atom with a port
    argument.  A term with a fresh port is congruent only to terms with that
    port, and matching binds variables to port-free terms only, so such a
    literal never follows from hypotheses that do not mention its ports.  A
    base at which some port-anchored trigger has none of its ports visible
    would therefore fail, and is skipped.  A contract's candidate bases are
    read from the port index of its first anchor and tried in ascending
    order; a fact the contract derives during its turn can add a later
    candidate.  Only skipped tries differ from trying every known base, so
    the facts, their order and the result are the same.
    """
    feeds = {}                       # output port -> it and inputs it feeds
    for p_in, p_out in model.connections:
        feeds.setdefault(p_out, [p_out]).append(p_in)
    facts = []                       # derived ProofSteps s<i>, discovery order
    keys = set()                     # (time, state, rationale) of facts
    refs = {}                        # time -> [(ref, state, position, ports)]
    port_times = {}                  # port -> times it is visible at
    over_budget = False              # some C3 or goal check past budget
    undecided = ""                   # the first other inconclusive C3

    def add_ref(time, ref, state, position):
        ports = m.ports_of(state)
        refs.setdefault(time, []).append((ref, state, position, ports))
        for p in ports:
            for q in feeds.get(p, (p,)):
                port_times.setdefault(q, set()).add(time)

    for j, t in enumerate(contract.triggers):
        add_ref(t.time, m.TriggerRef(j, t.label), t.predicate, None)

    def known_before(time, mark):
        """Did a reference exist at this time before fact number mark?"""
        avail = refs.get(time)
        return bool(avail) and (avail[0][2] is None or avail[0][2] < mark)

    def gate_open(anchors, base):
        return all(any(base + offset in port_times.get(p, ()) for p in ports)
                   for offset, ports in anchors)

    def derive(c, into, base):
        """(state, reference sets) of a fact applying c at base, or None.
        A fact's reference carries the connections of into from its ports."""
        nonlocal over_budget, undecided
        ref_sets = []
        for trig in c.triggers:
            avail = refs.get(base + trig.time)
            if not avail:
                return None
            ref_sets.append(tuple([
                ref if i is None else m.StepRef(
                    i, tuple([conn for conn in into if conn[1] in ports]),
                    "s%d" % i)
                for ref, _, i, ports in avail]))
        found = []
        sigmas, renaming, _ = checker.instantiate(
            model, contract, facts, len(facts), c, ref_sets, found, budget)
        if found:
            if found[0].status == checker.INCONCLUSIVE:
                cause = found[0].message.split(" ", 2)[2]  # less "step N"
                over_budget |= cause.endswith(e.OVER_BUDGET % budget)
                undecided = undecided or "%s: %s" % (c.qualified, cause)
            return None
        state = _derived_state(c.guarantee, renaming, sigmas[0])
        return None if state is None else (state, tuple(ref_sets))

    plan = [(c, model.connections_by_owner.get(ct.name, ()),
             _anchors(c))
            for ct in model.component_types for c in ct.contracts]

    def applications():
        """(time, state, rationale, reference sets) of each application,
        round after round until a round adds no fact."""
        grew = True
        while grew:
            start = len(facts)
            for c, into, anchors in plan:
                if not c.triggers:
                    applied = derive(c, into, 0)
                    for time in range(c.duration, contract.duration + 1):
                        if applied:
                            yield time, applied[0], c.qualified, ()
                    continue
                # candidate bases, tried in ascending order
                mark = len(facts)
                if anchors:
                    offset, ports = anchors[0]
                    bases = sorted({t - offset for p in ports
                                    for t in port_times.get(p, ())})
                else:
                    bases = sorted(refs)
                queued = set(bases)
                for base in bases:
                    if (base + c.duration > contract.duration
                            or not known_before(base, mark)
                            or not gate_open(anchors, base)):
                        continue
                    applied = derive(c, into, base)
                    if applied is None:
                        continue
                    state, ref_sets = applied
                    time = base + c.duration
                    added = len(facts)
                    yield time, state, c.qualified, ref_sets
                    # a new fact may make the first anchor visible at a
                    # later base known when this turn began; insort puts it
                    # past the current base, so this loop still reaches it
                    later = time - offset if anchors else base
                    if (len(facts) > added and later > base
                            and later not in queued):
                        queued.add(later)
                        bisect.insort(bases, later)
            grew = len(facts) > start

    for time, state, rationale, ref_sets in applications():
        if (time, state, rationale) in keys:
            continue
        if len(facts) >= max_steps:
            return SearchResult(BUDGET_EXCEEDED, steps_explored=len(facts))
        keys.add((time, state, rationale))
        add_ref(time, None, state, len(facts))
        facts.append(m.ProofStep("s%d" % len(facts), time, state, rationale,
                                 ref_sets))
        if time == contract.duration:
            status = checker.reaches_guarantee(contract, state, budget)
            if status == e.HOLDS:
                break
            over_budget |= status == e.INCONCLUSIVE
    else:
        if over_budget:
            return SearchResult(BUDGET_EXCEEDED, steps_explored=len(facts))
        return SearchResult(checker.INCONCLUSIVE if undecided
                            else NO_PROOF_AT_BOUND,
                            steps_explored=len(facts), reason=undecided)

    # the facts the goal, the last fact, reaches: a fact cites earlier ones
    # only, so one backward pass finds them
    needed = {len(facts) - 1}
    for i in reversed(range(len(facts))):
        if i in needed:
            needed.update(r.index for ref_set in facts[i].refs
                          for r in ref_set if isinstance(r, m.StepRef))
    if len(needed) == len(facts):    # every fact is cited, as numbered
        return SearchResult(FOUND, proof=tuple(facts),
                            steps_explored=len(facts))
    new_index = {i: k for k, i in enumerate(sorted(needed))}
    steps = []
    for i, k in new_index.items():
        f = facts[i]
        refs = tuple(tuple(m.StepRef(new_index[r.index], r.connections,
                                     "s%d" % new_index[r.index])
                           if isinstance(r, m.StepRef) else r
                           for r in ref_set)
                     for ref_set in f.refs)
        steps.append(m.ProofStep("s%d" % k, f.time, f.state, f.rationale,
                                 refs))
    return SearchResult(FOUND, proof=tuple(steps), steps_explored=len(facts))
