"""Finite-domain semantics: universes, traces, composition and proof search.

A finite universe interprets every sort as a small carrier and every symbol
as a table.  Traces are finite sequences of port valuations.  This gives an
executable version of the satisfaction relation, used as an independent
oracle for the proof checker.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import model as m
from . import entailment as e

FOUND = "found"
NO_PROOF_AT_BOUND = "no-proof-at-bound"
BUDGET_EXCEEDED = "budget-exceeded"


class ExplosionError(Exception):
    """Enumeration would exceed the configured budget."""


# ---------------------------------------------------------------------------
# Universes

@dataclass
class FiniteUniverse:
    carriers: dict = field(default_factory=dict)   # sort -> list of values
    operations: dict = field(default_factory=dict) # op -> {args: value}
    predicates: dict = field(default_factory=dict) # pred -> set of arg tuples

    def carrier(self, sort):
        return self.carriers.get(sort, [])

    def eval_term(self, term, env, state):
        """env: variable name -> value; state: port qualified name -> value."""
        if isinstance(term, m.Var):
            return env[term.name]
        if isinstance(term, m.PortRef):
            return state[term.port.qualified]
        args = tuple(self.eval_term(a, env, state) for a in term.args)
        return self.operations.get(term.op, {}).get(args)

    def eval_predicate(self, pred, env, state):
        if isinstance(pred, m.And):
            return (self.eval_predicate(pred.lhs, env, state)
                    and self.eval_predicate(pred.rhs, env, state))
        if isinstance(pred, m.Or):
            return (self.eval_predicate(pred.lhs, env, state)
                    or self.eval_predicate(pred.rhs, env, state))
        if isinstance(pred, m.Eq):
            return (self.eval_term(pred.lhs, env, state)
                    == self.eval_term(pred.rhs, env, state))
        args = tuple(self.eval_term(a, env, state) for a in pred.args)
        return args in self.predicates.get(pred.pred, set())


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


def print_universe(uni):
    out = []
    for sort, values in uni.carriers.items():
        out.append("sort %s: %s" % (sort, " ".join(values)))
    for op, table in uni.operations.items():
        for args, result in sorted(table.items()):
            out.append("op %s: %s -> %s" % (op, " ".join(args), result))
    for pred, tuples in uni.predicates.items():
        for args in sorted(tuples):
            out.append("pred %s: %s" % (pred, " ".join(args)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Traces

def _assignments(universe, variables):
    """All environments for (name, sort) pairs over the carriers."""
    names = [n for n, _ in variables]
    domains = [universe.carrier(s) for _, s in variables]
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


def trace_satisfies(universe, trace, contract):
    """Does a finite trace satisfy a contract?

    For every window start n and every variable assignment: if all triggers
    hold at their offsets, the guarantee holds at the duration offset.
    Windows extending past the end of the trace are not constrained.
    """
    for n in range(len(trace)):
        if n + contract.duration >= len(trace):
            break
        for env in _assignments(universe, contract.variables):
            if all(universe.eval_predicate(t.predicate, env, trace[n + t.time])
                   for t in contract.triggers):
                if not universe.eval_predicate(contract.guarantee, env,
                                               trace[n + contract.duration]):
                    return False
    return True


def compose_behaviors(model, universe, horizon, budget=200000):
    """All architecture traces of the given length.

    Free ports (outputs and disconnected inputs) range over their carriers;
    connected inputs mirror their outputs pointwise.  Raises ExplosionError
    when the number of traces exceeds the budget.
    """
    conn = model.connection_map()
    free = [p for ct in model.component_types for p in ct.ports
            if p not in conn]
    per_state = 1
    for p in free:
        per_state *= max(len(universe.carrier(p.sort)), 1)
    if per_state ** max(horizon, 1) > budget:
        raise ExplosionError("%d^%d traces exceed budget %d"
                             % (per_state, horizon, budget))
    domains = [universe.carrier(p.sort) for p in free]

    def states():
        for combo in itertools.product(*domains):
            state = {p.qualified: v for p, v in zip(free, combo)}
            for p_in, p_out in conn.items():
                state[p_in.qualified] = state[p_out.qualified]
            yield state

    all_states = list(states())
    for combo in itertools.product(all_states, repeat=horizon):
        yield list(combo)


# ---------------------------------------------------------------------------
# Satisfaction of an architecture contract by all well-behaved traces

def _component_ok_prefix(universe, trace, upto, contracts):
    """Check the component constraint windows completing at trace[upto].

    During the depth-first trace search each prefix extends one already
    checked at the previous depth, so only windows whose last needed state
    is the newest one must be (re)checked.
    """
    for c in contracts:
        last_needed = max([t.time for t in c.triggers] + [c.duration])
        n = upto - last_needed
        if n < 0:
            continue
        for env in _assignments(universe, c.variables):
            if all(universe.eval_predicate(t.predicate, env,
                                           trace[n + t.time])
                   for t in c.triggers):
                if not universe.eval_predicate(c.guarantee, env,
                                               trace[n + c.duration]):
                    return False
    return True


def _functional_form(c, outputs):
    """Recognize contracts that determine outputs from earlier inputs.

    Shape: every trigger is ``[port = var]`` binding each variable once, and
    the guarantee is a conjunction of ``[output = term]`` equations whose
    right sides mention only bound variables and no ports.  For such a
    contract the triggers fire on every trace (an equality trigger is
    satisfied by the observed value), so the outputs at ``n + duration`` are
    a function of the inputs; the trace search can compute them instead of
    enumerating and rejecting.
    """
    binds = {}
    for t in c.triggers:
        p = t.predicate
        if not (isinstance(p, m.Eq) and isinstance(p.lhs, m.PortRef)
                and isinstance(p.rhs, m.Var)) or p.rhs.name in binds:
            return None
        binds[p.rhs.name] = (p.lhs.port, t.time)
    results = []
    for conj in m.conjuncts(c.guarantee):
        if not (isinstance(conj, m.Eq) and isinstance(conj.lhs, m.PortRef)
                and conj.lhs.port in outputs):
            return None
        rhs_vars = m.free_variables(m.Eq(conj.rhs, conj.rhs))
        if m.ports_of(m.Eq(conj.rhs, conj.rhs)) or not rhs_vars <= set(binds):
            return None
        results.append((conj.lhs.port, conj.rhs))
    return binds, results, c.duration


def _forced_values(universe, trace, upto, functional):
    """Output values dictated by functional contracts completing at upto.

    Returns ``(values, consistent)``; inconsistent demands prune the level.
    """
    forced = {}
    for binds, results, duration in functional:
        n = upto - duration
        if n < 0:
            continue
        env = {name: trace[n + t].get(port.qualified)
               for name, (port, t) in binds.items()}
        if None in env.values():
            continue
        for port, rhs in results:
            value = universe.eval_term(rhs, env, {})
            if value is None:
                continue
            if forced.get(port.qualified, value) != value:
                return forced, False
            forced[port.qualified] = value
    return forced, True


def verify_satisfaction(model, contract, universe, horizon=None,
                        budget=2000000):
    """Must every composed trace satisfying the component contracts satisfy
    the architecture contract?

    Searches for a counterexample trace per window start and variable
    assignment; returns ``(True, None)`` when none exists, ``(False, trace)``
    with a counterexample otherwise.  Raises ExplosionError past the budget.
    """
    conn = model.connection_map()
    free = [p for ct in model.component_types for p in ct.ports
            if p not in conn]
    comp_contracts = [c for ct in model.component_types for c in ct.contracts]
    functional = [form for ct in model.component_types
                  for c in ct.contracts
                  for form in (_functional_form(c, ct.outputs),)
                  if form is not None]
    if horizon is None:
        horizon = contract.duration + 1
    length = horizon + contract.duration + 1
    nodes = [0]

    def extend(trace, upto, n, env):
        """DFS over states; returns a counterexample trace or None."""
        if upto == length:
            if not universe.eval_predicate(contract.guarantee, env,
                                           trace[n + contract.duration]):
                return list(trace)
            return None
        forced, consistent = _forced_values(universe, trace, upto, functional)
        if not consistent:
            return None
        domains = [[forced[p.qualified]] if p.qualified in forced
                   else universe.carrier(p.sort) for p in free]
        for combo in itertools.product(*domains):
            nodes[0] += 1
            if nodes[0] > budget:
                raise ExplosionError("search exceeded %d nodes" % budget)
            state = {p.qualified: v for p, v in zip(free, combo)}
            for p_in, p_out in conn.items():
                state[p_in.qualified] = state[p_out.qualified]
            trace.append(state)
            ok = _component_ok_prefix(universe, trace, upto, comp_contracts)
            if ok:
                # architecture triggers of the chosen window must hold
                for t in contract.triggers:
                    if n + t.time == upto and not universe.eval_predicate(
                            t.predicate, env, state):
                        ok = False
                        break
            if ok and upto == n + contract.duration:
                # fail fast: this state must already falsify the guarantee
                if universe.eval_predicate(contract.guarantee, env, state):
                    ok = False
            if ok:
                found = extend(trace, upto + 1, n, env)
                if found is not None:
                    return found
            trace.pop()
        return None

    for n in range(horizon):
        for env in _assignments(universe, contract.variables):
            counter = extend([], 0, n, env)
            if counter is not None:
                return False, counter
    return True, None


# ---------------------------------------------------------------------------
# Proof search

@dataclass(frozen=True)
class SearchResult:
    status: str
    proof: Optional[tuple] = None    # of ProofStep
    steps_explored: int = 0


@dataclass(frozen=True)
class _Fact:
    time: int
    state: m.Predicate
    rationale: str
    refs: tuple                      # reference sets as in ProofStep
    index: int                       # position in the fact list


def _anchors(contract, budget):
    """(offset, ports) of each port-anchored trigger of a contract."""
    def anchored(lit):
        if isinstance(lit, m.Atom):
            return bool(m.ports_of(lit))
        return (bool(m.ports_of(m.Eq(lit.lhs, lit.lhs)))
                != bool(m.ports_of(m.Eq(lit.rhs, lit.rhs))))

    out = []
    for t in contract.triggers:
        disjuncts = e.dnf(t.predicate, budget)
        if disjuncts and all(any(map(anchored, d)) for d in disjuncts):
            out.append((t.time, m.ports_of(t.predicate)))
    return out


def search_proof(model, contract, max_steps=32, budget=e.DEFAULT_BUDGET):
    """Saturate the fact base with contract applications.

    Facts start from the architecture triggers; each round applies every
    component contract at every base time whose reference sets can be
    assembled and whose triggers are entailed.  Search stops when a fact at
    the architecture's duration entails its guarantee.

    Indexes kept up to date as facts are added replace the scans of all
    facts and connections on every try: the references at each time
    (architecture triggers first, then facts in discovery order), the keys
    of the known facts, the connections feeding each component, and for each
    port the times it is visible at.  A port is visible at a time when a
    reference there mentions it or a declared connection feeds it from one
    that does, so every port in the hypotheses of a trigger at time t is
    visible at t.

    A trigger is port-anchored when every disjunct of its DNF has a literal
    that is false whenever its ports are fresh: an equality with ports on
    exactly one side, or a predicate atom with a port argument.  A term with
    a fresh port is congruent only to terms with that port, and matching
    binds variables to port-free terms only, so such a literal never follows
    from hypotheses that do not mention its ports.  A base at which some
    port-anchored trigger has none of its ports visible would therefore fail,
    and is skipped.  A contract's candidate bases are read from the port
    index of its first anchor and tried in ascending order; a fact the
    contract derives during its turn can add a later candidate.  Only skipped
    tries differ from trying every known base, so the facts, their order and
    the result are the same.
    """
    signature = model.signature
    by_owner = model.connections_by_owner
    feeds = {}                       # output port -> inputs it feeds
    for p_in, p_out in model.connections:
        feeds.setdefault(p_out, []).append(p_in)
    facts = []                       # derived steps, in discovery order
    keys = set()                     # (time, state, rationale) of facts
    refs = {}                        # time -> [(ref, state, fact, ports)]
    port_times = {}                  # port -> times it is visible at

    def add_ref(time, ref, state, fact):
        ports = m.ports_of(state)
        refs.setdefault(time, []).append((ref, state, fact, ports))
        for p in ports:
            for q in [p] + feeds.get(p, []):
                port_times.setdefault(q, set()).add(time)

    for j, t in enumerate(contract.triggers):
        add_ref(t.time, m.TriggerRef(j, "t%d" % j), t.predicate, None)

    def known_before(time, mark):
        """Did a reference exist at this time before fact number mark?"""
        avail = refs.get(time)
        return bool(avail) and (avail[0][2] is None
                                or avail[0][2].index < mark)

    def gate_open(anchors, base):
        return all(any(base + offset in port_times.get(p, ()) for p in ports)
                   for offset, ports in anchors)

    def goal_reached():
        for _, state, fact, _ in refs.get(contract.duration, ()):
            if fact is not None and e.entails([state], contract.guarantee,
                                              budget):
                return fact
        return None

    def try_apply(ct, c, base):
        renaming = {name: ("%s@s" % name, sort) for name, sort in c.variables}
        variables = {new: sort for new, sort in renaming.values()}
        ref_sets, sigma_list = [], [{}]
        for trig in c.triggers:
            avail = refs.get(base + trig.time)
            if not avail:
                return None
            facts_j, refs_j = [], []
            for ref, state, fact, ports in avail:
                facts_j.append(state)
                if fact is not None:
                    conns = tuple(conn for conn in by_owner.get(ct.name, ())
                                  if conn[1] in ports)
                    ref = m.StepRef(fact.index, conns, "s%d" % fact.index)
                    for p_in, p_out in conns:
                        facts_j.append(m.Eq(m.PortRef(p_in),
                                            m.PortRef(p_out)))
                refs_j.append(ref)
            goal = m.rename_variables(trig.predicate, renaming)
            extended = []
            for sigma in sigma_list:
                found = e.match_trigger([goal], facts_j, variables,
                                        signature, sigma=sigma, budget=budget)
                if found:
                    extended.extend(s for s in found if s not in extended)
            if not extended:
                return None
            sigma_list = extended
            ref_sets.append(tuple(refs_j))
        sigma = sigma_list[0]
        state = m.substitute(m.rename_variables(c.guarantee, renaming), sigma)
        return state, tuple(ref_sets)

    def add_fact(time, state, rationale, ref_sets):
        if (time, state, rationale) in keys:
            return False
        keys.add((time, state, rationale))
        fact = _Fact(time, state, rationale, ref_sets, len(facts))
        facts.append(fact)
        add_ref(time, None, state, fact)
        return True

    plan = [(ct, c, _anchors(c, budget))
            for ct in model.component_types for c in ct.contracts]

    exhausted = False
    while not exhausted:
        if goal_reached():
            break
        if len(facts) >= max_steps:
            return SearchResult(BUDGET_EXCEEDED, steps_explored=len(facts))
        grew = False
        for ct, c, anchors in plan:
            if not c.triggers:
                for time in range(c.duration, contract.duration + 1):
                    if add_fact(time, c.guarantee, c.qualified, ()):
                        grew = True
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
                applied = try_apply(ct, c, base)
                if applied is None:
                    continue
                state, ref_sets = applied
                time = base + c.duration
                if add_fact(time, state, c.qualified, ref_sets):
                    grew = True
                    # the new fact may make the first anchor visible at a
                    # later base known when this turn began; insort puts it
                    # past the current base, so this loop still reaches it
                    later = time - offset if anchors else base
                    if later > base and later not in queued:
                        queued.add(later)
                        bisect.insort(bases, later)
                if len(facts) > max_steps:
                    return SearchResult(BUDGET_EXCEEDED,
                                        steps_explored=len(facts))
        exhausted = not grew

    goal = goal_reached()
    if goal is None:
        return SearchResult(NO_PROOF_AT_BOUND, steps_explored=len(facts))

    # collect the facts reachable from the goal, in construction order; a
    # work list, since a chain of facts can be deeper than the recursion limit
    needed = set()
    pending = [goal]
    while pending:
        fact = pending.pop()
        if fact.index not in needed:
            needed.add(fact.index)
            pending.extend(facts[r.index] for ref_set in fact.refs
                           for r in ref_set if isinstance(r, m.StepRef))
    ordered = [f for f in facts if f.index in needed]
    new_index = {f.index: i for i, f in enumerate(ordered)}
    steps = []
    for i, f in enumerate(ordered):
        refs = tuple(tuple(m.StepRef(new_index[r.index], r.connections,
                                     "s%d" % new_index[r.index])
                           if isinstance(r, m.StepRef) else r
                           for r in ref_set)
                     for ref_set in f.refs)
        steps.append(m.ProofStep(label="s%d" % i, time=f.time, state=f.state,
                                 rationale=f.rationale, refs=refs))
    return SearchResult(FOUND, proof=tuple(steps), steps_explored=len(facts))
