"""Independent oracles and random generators used by the tests.

The brute-force entailment oracle here deliberately shares no logic with the
package's congruence-based engine: it enumerates finite valuations of the
subterm closure directly.
"""

from __future__ import annotations

import itertools
import random
import re
from types import SimpleNamespace

from apml import checker
from apml import entailment as e
from apml import model as m
from apml import oracle as o
from apml.diagnostics import Diagnostic, SourceSpan, ERROR
from apml.parser import EOF, ID, KINDS, NAT

SORT = "D.V"


# ---------------------------------------------------------------------------
# Reference lexer

_PUNCT = frozenset("{}()[],:.=")


_DIGITS = frozenset("0123456789")


def naive_tokenize(text, filename="<input>"):
    """Reference for ``apml.parser.tokenize``: a character loop.

    Returns ``(kind, text, span)`` triples ending with EOF, and the
    diagnostics.  The package keeps its tokens in columns instead: token
    ``i`` of its ``Tokens`` is the triple ``(kinds[i], texts[i], span(i))``.
    A kind is the package's one-character code: ``KINDS`` gives those of
    punctuation and keywords, and every other word is an ``ID``.
    A ``//`` comment advances the column, so EOF after a trailing comment
    sits at the end of input.  Only ASCII digits make a NAT: any other
    digit is a lexical error, or part of an identifier it follows.
    """
    tokens = []
    diags = []
    line, col, i = 1, 1, 0
    n = len(text)

    def span(l0, c0, l1, c1):
        return SourceSpan(filename, l0, c0, l1, c1)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        l0, c0 = line, col
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                diags.append(Diagnostic(ERROR, "UNTERMINATED_COMMENT",
                                        "unterminated block comment",
                                        span(l0, c0, l0, c0)))
                break
            chunk = text[i:end + 2]
            nl = chunk.count("\n")
            if nl:
                line += nl
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            i = end + 2
            continue
        if text.startswith("/\\", i):
            tokens.append((KINDS["/\\"], "/\\", span(l0, c0, l0, c0 + 2)))
            i += 2
            col += 2
            continue
        if text.startswith("\\/", i):
            tokens.append((KINDS["\\/"], "\\/", span(l0, c0, l0, c0 + 2)))
            i += 2
            col += 2
            continue
        if text.startswith("=>", i):
            tokens.append((KINDS["=>"], "=>", span(l0, c0, l0, c0 + 2)))
            i += 2
            col += 2
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append((NAT, text[i:j], span(l0, c0, l0, c0 + j - i)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append((KINDS.get(word, ID), word,
                           span(l0, c0, l0, c0 + j - i)))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append((KINDS[c], c, span(l0, c0, l0, c0 + 1)))
            i += 1
            col += 1
            continue
        diags.append(Diagnostic(ERROR, "LEX_ERROR",
                                "unexpected character %r" % c,
                                span(l0, c0, l0, c0 + 1)))
        i += 1
        col += 1
    tokens.append((EOF, "", span(line, col, line, col)))
    return tokens, diags


# ---------------------------------------------------------------------------
# Brute-force entailment

def _branches(pred):
    """All ways to pick one branch per disjunction: lists of literals."""
    if isinstance(pred, m.Or):
        return [b for p in pred.parts for b in _branches(p)]
    if isinstance(pred, m.And):
        return _cases(pred.parts)
    return [[pred]]


def _cases(preds):
    out = [[]]
    for p in preds:
        out = [a + b for a in out for b in _branches(p)]
    return out


def _closure(terms):
    seen, order = set(), []

    def add(t):
        if t in seen:
            return
        if isinstance(t, m.App):
            for a in t.args:
                add(a)
        seen.add(t)
        order.append(t)              # subterms precede their parents

    for t in terms:
        add(t)
    return order


def _terms_of_literals(lits):
    out = []
    for lit in lits:
        if isinstance(lit, m.Eq):
            out.extend([lit.lhs, lit.rhs])
        else:
            out.extend(lit.args)
    return out


def _eval_pred(pred, val, true_atoms):
    if isinstance(pred, m.Or):
        return any(_eval_pred(p, val, true_atoms) for p in pred.parts)
    if isinstance(pred, m.And):
        return all(_eval_pred(p, val, true_atoms) for p in pred.parts)
    if isinstance(pred, m.Eq):
        return val[pred.lhs] == val[pred.rhs]
    key = (pred.pred, tuple(val[a] for a in pred.args))
    return key in true_atoms


def brute_force_entails(hyps, goal):
    """Countermodel search over all valuations of the subterm closure.

    A valuation maps every closure term to one of N values (N = closure
    size, enough to realize any quotient of the closure), subject to
    functionality.  Predicates are interpreted minimally: true exactly on
    the tuples forced by the hypothesis atoms.  The goal contains no
    negation, so the minimal interpretation is the hardest to satisfy.
    """
    goal_terms = []
    for case in _cases([goal]):
        goal_terms.extend(_terms_of_literals(case))
    for case in _cases(list(hyps)):
        terms = _closure(_terms_of_literals(case) + goal_terms)
        n = len(terms)
        eqs = [(l.lhs, l.rhs) for l in case if isinstance(l, m.Eq)]
        atoms = [l for l in case if isinstance(l, m.Atom)]

        def consistent(val, t):
            if isinstance(t, m.App):
                key = (t.op, tuple(val[a] for a in t.args))
                for other in terms:
                    if (isinstance(other, m.App) and other in val
                            and other is not t
                            and (other.op,
                                 tuple(val[a] for a in other.args)) == key
                            and val[other] != val[t]):
                        return False
            for a, b in eqs:
                if a in val and b in val and val[a] != val[b]:
                    return False
            return True

        def search(i, val, used):
            if i == len(terms):
                true_atoms = {(a.pred, tuple(val[x] for x in a.args))
                              for a in atoms}
                return not _eval_pred(goal, val, true_atoms)
            t = terms[i]
            # all constraints are invariant under renaming values, so only
            # canonical valuations (at most one fresh value per term) need
            # to be explored
            for v in range(min(used + 1, n)):
                val[t] = v
                if consistent(val, t) and search(i + 1, val,
                                                 max(used, v + 1)):
                    return True
            del val[t]
            return False

        if search(0, {}, 0):
            return False             # countermodel found for this case
    return True


# ---------------------------------------------------------------------------
# Reference trigger matching

def brute_force_match(trigger_preds, hypotheses, variables, signature,
                      sigma=None):
    """Every extension of sigma that binds the trigger's unbound variables
    to port-free terms of depth <= 1 and whose instance ``entails`` accepts
    with no budget, in a fixed order.

    The terms are the non-bindable variables of the hypotheses and triggers
    and each operation of the signature applied to them, sort by sort.
    ``entails`` is judged against ``brute_force_entails`` by its own tests.
    """
    sigma = sigma or {}
    trigger = m.conjoin(trigger_preds)
    unbound = sorted(m.free_variables(m.substitute(trigger, sigma))
                     & variables.keys() - sigma.keys())
    leaves = sorted({n for n in m.nodes((m.Var,), *hypotheses, trigger)
                     if n.name not in variables}, key=lambda v: v.name)
    terms = {}                           # sort -> terms of that sort
    for leaf in leaves:
        terms.setdefault(leaf.sort, []).append(leaf)
    for op, (args, result) in sorted(signature.operation_symbols.items()):
        picks = itertools.product(*([t for t in leaves if t.sort == a]
                                    for a in args))
        terms.setdefault(result, []).extend(m.App(op, p) for p in picks)
    found = []
    for values in itertools.product(*(terms.get(variables[v], ())
                                      for v in unbound)):
        sub = {**sigma, **dict(zip(unbound, values))}
        if e.entails(hypotheses, m.substitute(trigger, sub),
                     float("inf")) == e.HOLDS:
            found.append(sub)
    return found


def product_dnf(pred, budget=e.DEFAULT_BUDGET):
    """List of disjuncts, each a list of Eq/Atom literals, every conjunction
    split as a product; None when it has more than ``budget`` disjuncts."""
    if isinstance(pred, (m.Eq, m.Atom)):
        return [[pred]]
    if isinstance(pred, m.And):
        return product_dnf_all(pred.parts, budget)
    out = []
    for p in pred.parts:
        d = product_dnf(p, budget)
        if d is None or len(out) + len(d) > budget:
            return None
        out += d
    return out


def product_dnf_all(preds, budget=e.DEFAULT_BUDGET):
    """The DNF of a sequence of predicates' conjunction, as the product of
    its parts' DNFs; None when it has more than ``budget`` disjuncts."""
    factors, size = [], 1
    for p in preds:
        d = product_dnf(p, budget)
        if d is None:
            return None
        size *= len(d)
        if size > budget:
            return None
        factors.append(d)
    return [list(itertools.chain.from_iterable(pick))
            for pick in itertools.product(*factors)]


# ---------------------------------------------------------------------------
# Random entailment cases

def random_entailment_case(rng):
    """(hypotheses, goal) over a tiny fixed signature, kept small enough
    that the subterm closure stays below seven terms."""
    ports = [m.PortRef(m.Port("p%d" % i, "C", "output", SORT))
             for i in range(3)]
    variables = [m.Var("x", SORT), m.Var("y", SORT)]

    def term(depth):
        roll = rng.random()
        if depth > 0 and roll < 0.35:
            arity = rng.choice([1, 2])
            op = "D.f" if arity == 1 else "D.g"
            return m.App(op, tuple(term(depth - 1) for _ in range(arity)))
        return rng.choice(ports + variables)

    def literal():
        if rng.random() < 0.3:
            return m.Atom("D.P", (term(1),))
        return m.Eq(term(1), term(1))

    def predicate():
        lits = [literal() for _ in range(rng.randint(1, 2))]
        p = lits[0]
        for q in lits[1:]:
            p = (m.disjoin if rng.random() < 0.3 else m.conjoin)([p, q])
        return p

    hyps = [predicate() for _ in range(rng.randint(1, 3))]
    goal = predicate()
    return hyps, goal


MATCH_SIGNATURE = m.Signature([m.DataType(
    name="D", sort="V", predicates=(("P", ("D.V",)),),
    operations=(("f", ("D.V",), "D.V"), ("g", ("D.V", "D.V"), "D.V"),
                ("h", ("D.V",), "D.W")))])


def random_congruence(rng):
    """A least model of up to four random equalities over variables a, b,
    ports p, q and operations f, g, with up to four more terms registered
    after its unions, so that some applications come in after the classes
    they join.  Ports make classes with no port-free member."""
    leaves = [m.Var("a", SORT), m.Var("b", SORT)] + [
        m.PortRef(m.Port(name, "C", m.OUTPUT, SORT)) for name in "pq"]

    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(leaves)
        if rng.random() < 0.5:
            return m.App("D.f", (term(depth - 1),))
        return m.App("D.g", (term(depth - 1), term(depth - 1)))

    cong = e.Congruence([m.Eq(term(2), term(2))
                         for _ in range(rng.randint(0, 4))])
    for _ in range(rng.randint(0, 4)):
        cong.add_term(term(3))
    return cong


def random_match_case(rng):
    """(trigger predicates, hypotheses, variables, sigmas, budget) for
    ``match_trigger`` over ``MATCH_SIGNATURE``.

    Terms nest up to two operations deep, so a closure can need more than
    one round.  Hypotheses carry disjunctions and predicate atoms, and now
    and then a bindable variable.  Most trigger literals are literals of the
    first hypothesis case with some port-free subterms abstracted into
    bindable variables, so they match there and the other cases decide.
    ``h`` makes a second sort, so candidates are filtered by sort.  Three
    cases in ten extend two or three substitutions, most of them binding
    ``v``.  One case in five conjoins true disjunctions to a trigger until
    its DNF exceeds a small budget.
    """
    ports = [m.PortRef(m.Port("p%d" % i, "C", m.INPUT, SORT))
             for i in range(3)]
    consts = [m.Var("x", SORT), m.Var("y", SORT)]
    variables = {"v": SORT, "w": SORT, "u": "D.W"}
    bindable = [m.Var(name, sort) for name, sort in variables.items()]

    def term(leaves, depth):
        if depth > 0 and rng.random() < 0.4:
            op = rng.choice(["D.f", "D.g", "D.h"])
            return m.App(op, tuple(term(leaves, depth - 1)
                                   for _ in range(2 if op == "D.g" else 1)))
        return rng.choice(leaves)

    def literal(leaves):
        roll = rng.random()
        if roll < 0.25:
            return m.Atom("D.P", (term(leaves, 1),))
        if roll < 0.6:
            return m.Eq(rng.choice(ports), term(leaves[len(ports):], 1))
        return m.Eq(term(leaves, 2), term(leaves, 2))

    def abstract(t):
        if not m.ports_of(m.Eq(t, t)) and rng.random() < 0.5:
            sort = m.term_sort(t, MATCH_SIGNATURE)
            return rng.choice([v for v in bindable if v.sort == sort])
        if isinstance(t, m.App):
            return m.App(t.op, tuple(map(abstract, t.args)))
        return t

    def pattern():
        if rng.random() < 0.3:
            return literal(hyp_leaves + bindable)
        lit = rng.choice(first_case)
        if isinstance(lit, m.Eq):
            return m.Eq(abstract(lit.lhs), abstract(lit.rhs))
        return m.Atom(lit.pred, tuple(map(abstract, lit.args)))

    def predicate(lit, connectives, p_or):
        p = lit()
        for _ in range(rng.randint(0, connectives)):
            p = (m.disjoin if rng.random() < p_or else m.conjoin)([p, lit()])
        return p

    hyp_leaves = ports + consts + bindable[:1] * (rng.random() < 0.1)
    hyps = [predicate(lambda: literal(hyp_leaves), 2, 0.3)
            for _ in range(rng.randint(1, 3))]
    first_case = product_dnf_all(hyps, float("inf"))[0]
    triggers = [predicate(pattern, 1, 0.2)
                for _ in range(rng.randint(1, 2))]

    def substitution(p_bound):
        if rng.random() >= p_bound:
            return {}
        return {"v": term(consts + bindable[1:2] * (rng.random() < 0.2), 1)}

    if rng.random() < 0.3:
        sigmas = [substitution(0.7) for _ in range(rng.randint(2, 3))]
    else:
        sigmas = [substitution(0.2)]
    budget = e.DEFAULT_BUDGET
    if rng.random() < 0.2:
        k = rng.randint(2, 3)
        for _ in range(k):
            triggers[0] = m.conjoin([triggers[0], m.disjoin([
                m.Eq(consts[0], consts[0]), pattern()])])
        budget = rng.randint(2 ** (k - 1), 2 ** k - 1)
    return triggers, hyps, variables, sigmas, budget


# ---------------------------------------------------------------------------
# Random small architectures with sound proofs

def _stage(name, n_inputs, duration, pick_output):
    ports_in = tuple(m.Port("i%d" % k, name, m.INPUT, SORT)
                     for k in range(n_inputs))
    port_out = (m.Port("o", name, m.OUTPUT, SORT),)
    variables = tuple(("v%d" % k, SORT) for k in range(n_inputs))
    triggers = tuple(m.Trigger("t%d" % k,
                               m.Eq(m.PortRef(ports_in[k]),
                                    m.Var("v%d" % k, SORT)), 0)
                     for k in range(n_inputs))
    guarantee = m.Eq(m.PortRef(port_out[0]),
                     m.Var("v%d" % pick_output, SORT))
    contract = m.Contract(name="c", owner=name, variables=variables,
                          triggers=triggers, guarantee=guarantee,
                          duration=duration)
    return m.ComponentType(name=name, inputs=ports_in, outputs=port_out,
                           contracts=(contract,))


def random_chain_model(rng):
    """A pipeline (optionally with a two-way fan-in head) of forwarders.

    Every component forwards one of its inputs after a small delay, so the
    architecture contract below is satisfied by construction and a proof is
    discoverable by search.
    """
    n_stages = rng.randint(1, 3)
    fan_in = n_stages >= 2 and rng.random() < 0.4
    stages = []
    total = 0
    for i in range(n_stages):
        n_inputs = 2 if (fan_in and i == 1) else 1
        duration = rng.randint(1, 2)
        pick = 0
        stages.append(_stage("S%d" % i, n_inputs, duration, pick))
        total += duration

    connections = []
    if fan_in:
        # stage 0 feeds S1.i0; a sibling forwarder feeds S1.i1
        sib_duration = stages[0].contracts[0].duration
        sibling = _stage("S0b", 1, sib_duration, 0)
        stages.insert(1, sibling)
        target = stages[2]
        connections.append((target.inputs[0], stages[0].outputs[0]))
        connections.append((target.inputs[1], sibling.outputs[0]))
        rest = stages[3:]
        prev = target
    else:
        rest = stages[1:]
        prev = stages[0]
    for st in rest:
        connections.append((st.inputs[0], prev.outputs[0]))
        prev = st

    head_inputs = [stages[0].inputs[0]]
    if fan_in:
        head_inputs.append(stages[1].inputs[0])
    arch_triggers = tuple(
        m.Trigger("t%d" % k, m.Eq(m.PortRef(p), m.Var("w", SORT)), 0)
        for k, p in enumerate(head_inputs))
    guarantee = m.Eq(m.PortRef(prev.outputs[0]), m.Var("w", SORT))
    arch = m.ArchitectureContract(
        name="endToEnd", owner="", variables=(("w", SORT),),
        triggers=arch_triggers, guarantee=guarantee, duration=total,
        proof=None)
    dt = m.DataType(name="D", sort="V")
    return m.Model(name="Chain", short_name="chain", datatypes=(dt,),
                   component_types=tuple(stages),
                   connections=tuple(connections), contracts=(arch,))


def relay_chain_model(n):
    """An n-stage chain of unit-delay forwarders, S0 feeding S1 and so on."""
    stages = [_stage("S%d" % k, 1, 1, 0) for k in range(n)]
    connections = tuple((b.inputs[0], a.outputs[0])
                        for a, b in zip(stages, stages[1:]))
    w = m.Var("w", SORT)
    arch = m.ArchitectureContract(
        name="relayed", owner="", variables=(("w", SORT),),
        triggers=(m.Trigger("t0", m.Eq(m.PortRef(stages[0].inputs[0]), w),
                            0),),
        guarantee=m.Eq(m.PortRef(stages[-1].outputs[0]), w), duration=n,
        proof=None)
    return m.Model(name="Relay", short_name="relay",
                   datatypes=(m.DataType(name="D", sort="V"),),
                   component_types=tuple(stages), connections=connections,
                   contracts=(arch,))


def widened_adder_model(k):
    """The running example widened to k adders (k a power of two, at least
    2), with no proof written.  A dispatcher ``D`` copies inputs ``i1``,
    ``i2`` to its outputs ``o2j``, ``o2j+1`` for each adder j (duration 1);
    adder ``Aj`` outputs their sum (duration 3); a binary tree of
    ``merge1`` voters (duration 2) joins the sums into one output."""
    x, y = m.Var("x", SORT), m.Var("y", SORT)

    def component(name, n_inputs, n_outputs, trigger, guarantee, duration):
        ins = tuple(m.Port("i%d" % (j + 1), name, m.INPUT, SORT)
                    for j in range(n_inputs))
        outs = tuple(m.Port("o%d" % j if n_outputs > 1 else "o", name,
                            m.OUTPUT, SORT) for j in range(n_outputs))
        pred = m.conjoin([m.Eq(m.PortRef(p), v)
                          for p, v in zip(ins, trigger)])
        contract = m.Contract(
            name="c", owner=name,
            variables=tuple((v.name, SORT) for v in dict.fromkeys(trigger)),
            triggers=(m.Trigger("t1", pred, 0),),
            guarantee=guarantee(outs), duration=duration)
        return m.ComponentType(name=name, inputs=ins, outputs=outs,
                               contracts=(contract,))

    def sums(outs):
        return m.Eq(m.PortRef(outs[0]), m.App("D.add", (x, y)))

    dispatcher = component(
        "D", 2, 2 * k, (x, y), lambda outs: m.conjoin([
            m.Eq(m.PortRef(p), v) for p, v in zip(outs, (x, y) * k)]), 1)
    adders = [component("A%d" % j, 2, 1, (x, y), sums, 3) for j in range(k)]
    connections = [(a.inputs[n], dispatcher.outputs[2 * j + n])
                   for j, a in enumerate(adders) for n in (0, 1)]
    components, level = [dispatcher] + adders, adders
    while len(level) > 1:
        voters = [component("M%d" % (len(components) + j), 2, 1, (x, x),
                            lambda outs: m.Eq(m.PortRef(outs[0]), x), 2)
                  for j in range(len(level) // 2)]
        connections += [(v.inputs[n], level[2 * j + n].outputs[0])
                        for j, v in enumerate(voters) for n in (0, 1)]
        components += voters
        level = voters
    arch = m.ArchitectureContract(
        name="sum", owner="", variables=(("x", SORT), ("y", SORT)),
        triggers=(m.Trigger("t1", m.conjoin([
            m.Eq(m.PortRef(p), v)
            for p, v in zip(dispatcher.inputs, (x, y))]), 0),),
        guarantee=sums(level[0].outputs),
        duration=4 + 2 * (k.bit_length() - 1), proof=None)
    return m.Model(name="Wide", short_name="wide", datatypes=(m.DataType(
        name="D", sort="V", operations=(("add", (SORT, SORT), SORT),)),),
        component_types=tuple(components), connections=tuple(connections),
        contracts=(arch,))


def random_tiny_model(rng):
    """(model, universe): one to three one-input, one-output components over
    a two-valued carrier with a random unary operation and predicate.

    Contracts mix equalities, predicate atoms, the operation, conjunctions
    and disjunctions, with trigger offsets and durations from 0 to 2, so
    some are functional forms and some are checked window by window.
    """
    values = ["0", "1"]
    universe = o.FiniteUniverse(
        carriers={SORT: values},
        operations={"D.f": {(v,): rng.choice(values) for v in values}},
        predicates={"D.P": {(v,) for v in values if rng.random() < 0.5}})
    x = m.Var("x", SORT)

    def app(t):
        return m.App("D.f", (t,))

    def pick(*options):
        return rng.choice(options)

    components = []
    for k in range(rng.randint(1, 3)):
        name = "C%d" % k
        i = m.PortRef(m.Port("i", name, m.INPUT, SORT))
        out = m.PortRef(m.Port("o", name, m.OUTPUT, SORT))
        triggers = tuple(
            m.Trigger("t%d" % j, pick(m.Eq(i, x), m.Eq(i, x), m.Eq(app(i), x),
                                      m.conjoin([m.Atom("D.P", (i,)),
                                                 m.Eq(i, x)]),
                                      m.disjoin([m.Eq(i, x), m.Eq(out, x)])),
                      rng.randint(0, 2))
            for j in range(rng.randint(1, 2)))
        guarantee = pick(m.Eq(out, x), m.Eq(out, app(x)),
                         m.disjoin([m.Eq(out, x), m.Eq(out, app(x))]),
                         m.conjoin([m.Eq(out, x), m.Atom("D.P", (out,))]),
                         m.disjoin([m.Atom("D.P", (out,)), m.Eq(out, x)]))
        contract = m.Contract(name="c", owner=name, variables=(("x", SORT),),
                              triggers=triggers, guarantee=guarantee,
                              duration=rng.randint(0, 2))
        components.append(m.ComponentType(
            name=name, inputs=(i.port,), outputs=(out.port,),
            contracts=(contract,)))
    connections = tuple((b.inputs[0], a.outputs[0])
                        for a, b in zip(components, components[1:])
                        if rng.random() < 0.7)
    ports = [p for ct in components for p in ct.ports]
    w = m.Var("w", SORT)
    head, tail = m.PortRef(rng.choice(ports)), m.PortRef(rng.choice(ports))
    arch = m.ArchitectureContract(
        name="goal", owner="", variables=(("w", SORT),),
        triggers=(m.Trigger("t0", pick(m.Eq(head, w),
                                       m.conjoin([m.Eq(head, w),
                                                  m.Atom("D.P", (w,))])), 0),),
        guarantee=pick(m.Eq(tail, w),
                       m.disjoin([m.Eq(tail, w), m.Eq(tail, app(w))]),
                       m.Atom("D.P", (tail,))),
        duration=rng.randint(0, 2), proof=None)
    model = m.Model(name="Tiny", short_name="tiny",
                    datatypes=(m.DataType(name="D", sort="V",
                                          predicates=(("P", (SORT,)),),
                                          operations=(("f", (SORT,), SORT),)),),
                    component_types=tuple(components),
                    connections=connections, contracts=(arch,))
    return model, universe


def mutate_proof(rng, proof):
    """Perturb one step: nudge its time or swap its state's right side."""
    steps = list(proof)
    i = rng.randrange(len(steps))
    s = steps[i]
    if rng.random() < 0.5:
        steps[i] = m.ProofStep(s.label, s.time + rng.choice([-1, 1]),
                               s.state, s.rationale, s.refs)
    else:
        wrong = m.Eq(s.state.lhs, m.Var("zz", SORT)) \
            if isinstance(s.state, m.Eq) else s.state
        steps[i] = m.ProofStep(s.label, s.time, wrong, s.rationale, s.refs)
    return tuple(steps)


def _with(proof, i, time=None, state=None, refs=None):
    """The proof with step i's time, state or reference sets replaced."""
    s = proof[i]
    step = m.ProofStep(s.label, s.time if time is None else time,
                       s.state if state is None else state, s.rationale,
                       s.refs if refs is None else refs, s.span)
    return proof[:i] + (step,) + proof[i + 1:]


def _with_ref(proof, i, k, ref_set):
    """The proof with reference set k of step i replaced by ref_set."""
    refs = proof[i].refs
    return _with(proof, i, refs=refs[:k] + (tuple(ref_set),) + refs[k + 1:])


def _fresh_like(term):
    sort = (term.port.sort if isinstance(term, m.PortRef)
            else getattr(term, "sort", ""))
    return m.Var("zz", sort)


def _swap_right(pred):
    """pred with its rightmost equality side or atom argument replaced by a
    fresh variable."""
    if isinstance(pred, m.Eq):
        return m.Eq(pred.lhs, _fresh_like(pred.rhs))
    if isinstance(pred, m.Atom):
        return m.Atom(pred.pred,
                      pred.args[:-1] + (_fresh_like(pred.args[-1]),))
    return type(pred)(pred.parts[:-1] + (_swap_right(pred.parts[-1]),))


def proof_edits(model, contract):
    """Every reference-level edit of a contract's proof, grouped by kind.

    Each edit is the whole edited proof.  The kinds: retarget a reference to
    the step itself or a later one (C1, which the parser never builds);
    empty a reference set or drop one; add a reference from another time;
    swap a connection for an undeclared one (its reverse) or drop it; nudge
    a step's time by one; swap a state's right side, or conjoin to it an
    equality that reads an input port of the rationale's owner; drop the
    last step.
    """
    proof = tuple(contract.proof)
    n = len(proof)
    retarget, refsets, other_time, connections, nudge, states = (
        [], [], [], [], [], [])
    for i, s in enumerate(proof):
        for delta in (-1, 1):
            if s.time + delta >= 0:
                nudge.append(_with(proof, i, time=s.time + delta))
        states.append(_with(proof, i, state=_swap_right(s.state)))
        owner = model.component(s.rationale.split(".")[0])
        for port in owner.inputs if owner else ():
            states.append(_with(proof, i, state=m.conjoin(
                [s.state, m.Eq(m.PortRef(port), m.PortRef(port))])))
        for k, ref_set in enumerate(s.refs):
            refsets.append(_with_ref(proof, i, k, ()))
            refsets.append(_with(proof, i, refs=s.refs[:k] + s.refs[k + 1:]))
            for p, ref in enumerate(ref_set):
                for j in range(i, n):
                    retarget.append(_with_ref(
                        proof, i, k, ref_set[:p] + (m.StepRef(j, ()),)
                        + ref_set[p + 1:]))
                if isinstance(ref, m.TriggerRef):
                    continue
                for c, (p_in, p_out) in enumerate(ref.connections):
                    for conns in ((p_out, p_in),), ():
                        ref2 = m.StepRef(ref.index, ref.connections[:c]
                                         + conns + ref.connections[c + 1:],
                                         ref.label)
                        connections.append(_with_ref(
                            proof, i, k, ref_set[:p] + (ref2,)
                            + ref_set[p + 1:]))
            if not ref_set:
                continue
            t = checker.reference_time(ref_set[0], contract, proof)
            others = [m.TriggerRef(j, trig.label)
                      for j, trig in enumerate(contract.triggers)
                      if trig.time != t]
            others += [m.StepRef(j, ()) for j in range(i)
                       if proof[j].time != t]
            for ref in others:
                other_time.append(_with_ref(proof, i, k, ref_set + (ref,)))
    kinds = [retarget, refsets, other_time, connections, nudge, states,
             [proof[:-1]] if proof else []]
    return [kind for kind in kinds if kind]


def mutate_proof_refs(rng, edits):
    """One seeded edit from ``proof_edits``: a kind, then an edit of it."""
    return rng.choice(rng.choice(edits))


_UNIT_RE = re.compile(r"\w+|\S")
_INSERTS = ("{", "}", "(", ")", "[", "]", ",", ":", ".", "=", "/\\", "\\/",
            "Contract", "Contracts", "var", "triggers", "guarantees",
            "duration", "proof", "at", "have", "from", "with", "using",
            "InputPorts", "OutputPorts", "Connections", "DT", "CType")


def mutated_corpus(corpus):
    """``(name, k, text)`` for the k-th of 200 seeded edits of each ``.apml``
    file of the corpus directory, files in name order: the inputs whose
    parses ``tests/golden/parse_mutations.txt`` pins."""
    for path in sorted(corpus.glob("*.apml")):
        text = path.read_text()
        rng = random.Random(path.name)
        units = [mo.span() for mo in _UNIT_RE.finditer(text)]
        for k in range(200):
            yield path.name, k, _mutate(rng, text, units)


def _mutate(rng, text, units):
    """One seeded edit of model text, on the word and punctuation units'
    boundaries: delete a run of one to four units, insert a bracket,
    separator or keyword, or copy a slice of one to twelve units
    elsewhere."""
    i = rng.randrange(len(units))
    kind = rng.randrange(3)
    if kind == 0:
        j = min(len(units), i + rng.randint(1, 4)) - 1
        return text[:units[i][0]] + text[units[j][1]:]
    if kind == 1:
        at = units[i][0]
        return text[:at] + rng.choice(_INSERTS) + " " + text[at:]
    j = min(len(units), i + rng.randint(1, 12)) - 1
    piece = text[units[i][0]:units[j][1]]
    at = units[rng.randrange(len(units))][0]
    return text[:at] + piece + " " + text[at:]


_NUMBER_RE = re.compile(r"\b[0-9]+\b")
_CONNECTIVE_RE = re.compile(r"/\\|\\/")
_WORD_RE = re.compile(r"[A-Za-z_]\w*")


def edit_source(rng, text):
    """One seeded edit of model text that keeps its tokens well formed:
    change a number to one from 0 to 4, swap a ``/\\`` and ``\\/``, replace
    an identifier with another one from the text, or duplicate or drop a
    line.  An edit with nothing to act on leaves the text as it is."""
    kind = rng.randrange(5)
    if kind < 3:
        pattern = (_NUMBER_RE, _CONNECTIVE_RE, _WORD_RE)[kind]
        spans = [mo.span() for mo in pattern.finditer(text)]
        if not spans:
            return text
        start, end = rng.choice(spans)
        if kind == 0:
            new = str(rng.randint(0, 4))
        elif kind == 1:
            new = "\\/" if text[start:end] == "/\\" else "/\\"
        else:
            new = text[slice(*rng.choice(spans))]
        return text[:start] + new + text[end:]
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    lines[i:i + 1] = [lines[i]] * (2 if kind == 3 else 0)
    return "".join(lines)


# ---------------------------------------------------------------------------
# Universe files

def print_universe(uni):
    """Universe file text that ``parse_universe`` reads back as ``uni``."""
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
# Trace semantics

def eval_term(universe, term, env, state):
    """env: variable name -> value; state: port qualified name -> value."""
    if isinstance(term, m.Var):
        return env[term.name]
    if isinstance(term, m.PortRef):
        return state[term.port.qualified]
    args = tuple(eval_term(universe, a, env, state) for a in term.args)
    return universe.operations.get(term.op, {}).get(args)


def eval_predicate(universe, pred, env, state):
    if isinstance(pred, m.And):
        return all(eval_predicate(universe, p, env, state)
                   for p in pred.parts)
    if isinstance(pred, m.Or):
        return any(eval_predicate(universe, p, env, state)
                   for p in pred.parts)
    if isinstance(pred, m.Eq):
        return (eval_term(universe, pred.lhs, env, state)
                == eval_term(universe, pred.rhs, env, state))
    args = tuple(eval_term(universe, a, env, state) for a in pred.args)
    return args in universe.predicates.get(pred.pred, set())


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
    Windows extending past the end of the trace (through a trigger offset or
    the duration) are not constrained.
    """
    span = max([t.time for t in contract.triggers] + [contract.duration])
    for n in range(len(trace) - span):
        for env in _assignments(universe, contract.variables):
            if all(eval_predicate(universe, t.predicate, env,
                                  trace[n + t.time])
                   for t in contract.triggers):
                if not eval_predicate(universe, contract.guarantee, env,
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
        raise o.ExplosionError("%d^%d traces exceed budget %d"
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


def brute_force_verify(model, contract, universe, horizon=None,
                       budget=200000):
    """Does every composed trace of ``horizon + duration + 1`` states that
    satisfies the component contracts satisfy the architecture contract's
    windows starting before ``horizon``?  Architecture triggers past the end
    of the trace are not required.  Raises ExplosionError past ``budget``
    traces."""
    if horizon is None:
        horizon = contract.duration + 1
    length = horizon + contract.duration + 1
    components = [c for ct in model.component_types for c in ct.contracts]
    for trace in compose_behaviors(model, universe, length, budget):
        if not all(trace_satisfies(universe, trace, c) for c in components):
            continue
        if violated_window(universe, trace, contract, horizon) is not None:
            return False
    return True


def violated_window(universe, trace, contract, horizon):
    """The first (window start, assignment) before horizon at which the
    architecture triggers hold and its guarantee fails, or None."""
    for n in range(horizon):
        for env in _assignments(universe, contract.variables):
            if all(eval_predicate(universe, t.predicate, env,
                                  trace[n + t.time])
                   for t in contract.triggers if n + t.time < len(trace)) \
                    and not eval_predicate(universe, contract.guarantee, env,
                                           trace[n + contract.duration]):
                return n, env
    return None


# ---------------------------------------------------------------------------
# Reference trace search

def _component_ok_prefix(universe, trace, upto, contracts):
    """Check the component constraint windows completing at trace[upto]."""
    for c in contracts:
        last_needed = max([t.time for t in c.triggers] + [c.duration])
        n = upto - last_needed
        if n < 0:
            continue
        for env in _assignments(universe, c.variables):
            if all(eval_predicate(universe, t.predicate, env,
                                  trace[n + t.time])
                   for t in c.triggers):
                if not eval_predicate(universe, c.guarantee, env,
                                      trace[n + c.duration]):
                    return False
    return True


# The reference search forces outputs only for these shapes, by its own copy
# of the recognizer, independent of the rule by which apml.oracle fixes them.
def _functional_form(c, outputs):
    """Recognize contracts that determine outputs from earlier inputs.

    Shape: every trigger is ``[port = var]`` at an offset below the duration,
    binding each variable once, and the guarantee is a conjunction of
    ``[output = term]`` equations whose right sides mention only bound
    variables and no ports.  For such a contract the triggers fire on every
    trace (an equality trigger is satisfied by the observed value), so the
    outputs at ``n + duration`` are a function of earlier inputs; the trace
    search can compute them instead of enumerating and rejecting.  A
    repeated equation gives one result.
    """
    binds = {}
    for t in c.triggers:
        p = t.predicate
        if not (isinstance(p, m.Eq) and isinstance(p.lhs, m.PortRef)
                and isinstance(p.rhs, m.Var)) or p.rhs.name in binds \
                or t.time >= c.duration:
            return None
        binds[p.rhs.name] = (p.lhs.port, t.time)
    results = {}                     # (output, rhs) pairs, in order, once
    for conj in m.conjuncts(c.guarantee):
        if not (isinstance(conj, m.Eq) and isinstance(conj.lhs, m.PortRef)
                and conj.lhs.port in outputs):
            return None
        if (m.ports_of(conj.rhs)
                or not m.free_variables(conj.rhs) <= set(binds)):
            return None
        results[conj.lhs.port, conj.rhs] = None
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
            value = eval_term(universe, rhs, env, {})
            if value is None:
                continue
            if forced.get(port.qualified, value) != value:
                return forced, False
            forced[port.qualified] = value
    return forced, True


def naive_verify_satisfaction(model, contract, universe, horizon=None,
                              budget=2000000):
    """Reference for ``apml.oracle.verify_satisfaction``: the same depth-first
    trace search without memo or compiled predicates, over dict states.

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
            if not eval_predicate(universe, contract.guarantee, env,
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
                raise o.ExplosionError("search exceeded %d nodes" % budget)
            state = {p.qualified: v for p, v in zip(free, combo)}
            for p_in, p_out in conn.items():
                state[p_in.qualified] = state[p_out.qualified]
            trace.append(state)
            ok = _component_ok_prefix(universe, trace, upto, comp_contracts)
            if ok:
                # architecture triggers of the chosen window must hold
                for t in contract.triggers:
                    if n + t.time == upto and not eval_predicate(
                            universe, t.predicate, env, state):
                        ok = False
                        break
            if ok and upto == n + contract.duration:
                # fail fast: this state must already falsify the guarantee
                if eval_predicate(universe, contract.guarantee, env, state):
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


def cone_sizes(model, contract, horizon=None):
    """``(cells, cones)`` for the trace ``verify_satisfaction`` searches:
    the number of (free port, level) cells, and per window start the number
    of cells linked to one the architecture contract reads there.  Two cells
    are linked when one component window lying in the trace reads both; the
    cone is found by a breadth-first walk over those links."""
    conn = model.connection_map()
    if horizon is None:
        horizon = contract.duration + 1
    length = horizon + contract.duration + 1

    def reads(c, n):
        return [(conn.get(p, p).qualified, n + t)
                for t, pred in [(t.time, t.predicate) for t in c.triggers]
                + [(c.duration, c.guarantee)]
                for p in m.ports_of(pred) if n + t < length]

    links = {(p.qualified, k): set() for ct in model.component_types
             for p in ct.ports if p not in conn for k in range(length)}
    for ct in model.component_types:
        for c in ct.contracts:
            span = max([t.time for t in c.triggers] + [c.duration])
            for n in range(length - span):
                cells = reads(c, n)
                for a in cells:
                    links[a].update(cells)
    cones = []
    for n in range(horizon):
        seen = set(reads(contract, n))
        todo = list(seen)
        while todo:
            for b in links[todo.pop()] - seen:
                seen.add(b)
                todo.append(b)
        cones.append(len(seen))
    return len(links), cones


# ---------------------------------------------------------------------------
# Reference proof search

def _connections_for(model, owner, fact_state):
    """Connections from the owner's inputs to ports visible in a fact."""
    ports = m.ports_of(fact_state)
    return tuple((p_in, p_out) for p_in, p_out in model.connections
                 if p_in.owner == owner and p_out in ports)


def rename_variables(p, mapping):
    """p with each variable old of mapping renamed to mapping[old][0]."""
    return m.substitute(p, {old: m.Var(new, sort)
                            for old, (new, sort) in mapping.items()})


def _bound_conjuncts(guarantee, renaming, sigma):
    """The conjuncts of the renamed guarantee under sigma that mention no
    renamed variable sigma leaves unbound, or None if there are none."""
    unbound = {new for new, _ in renaming.values()} - set(sigma)
    state = m.substitute(rename_variables(guarantee, renaming), sigma)
    return m.conjoin([p for p in m.conjuncts(state)
                      if not m.free_variables(p) & unbound])


class _SearchEnds(Exception):
    """Ends ``naive_search_proof``: args[0] is the result's status."""


def naive_search_proof(model, contract, max_steps=32,
                       budget=e.DEFAULT_BUDGET):
    """Reference for ``apml.oracle.search_proof``: saturation without indexes.

    Every round tries every contract at every known base time, re-scanning
    all facts and all connections on each try.

    Facts start from the architecture triggers; each round applies every
    component contract at every base time whose reference sets can be
    assembled and whose triggers are entailed.  Search stops when a fact at
    the architecture's duration that entails its guarantee is added, and a
    new fact past ``max_steps`` facts ends it ``budget-exceeded``.
    Saturation without a goal ends ``budget-exceeded`` after a trigger or
    goal check past the DNF budget, else ``inconclusive`` naming the first
    undecided application, else ``no-proof-at-bound``.
    """
    signature = model.signature
    triggers = list(contract.triggers)
    facts = []                       # derived steps, in discovery order
    undecided = []                   # reasons of undecided trigger checks
    over_budget = []                 # names of checks past the DNF budget

    def refs_at(time):
        """All references (with facts) available at one time point."""
        out = []
        for j, t in enumerate(triggers):
            if t.time == time:
                out.append((m.TriggerRef(j, "t%d" % j), t.predicate, None))
        for f in facts:
            if f.time == time:
                out.append((None, f.state, f))
        return out

    def try_apply(ct, c, base):
        renaming = {name: ("%s@s" % name, sort) for name, sort in c.variables}
        variables = {new: sort for new, sort in renaming.values()}
        ref_sets, sigma_list = [], [{}]
        for j, trig in enumerate(c.triggers):
            time = base + trig.time
            avail = refs_at(time)
            if not avail:
                return None
            facts_j, refs_j = [], []
            for tref, state, fact in avail:
                if tref is not None:
                    refs_j.append(tref)
                    facts_j.append(state)
                else:
                    conns = _connections_for(model, ct.name, state)
                    refs_j.append(m.StepRef(fact.index, conns,
                                            "s%d" % fact.index))
                    facts_j.append(fact.state)
                    for p_in, p_out in conns:
                        facts_j.append(m.Eq(m.PortRef(p_in),
                                            m.PortRef(p_out)))
            goal = rename_variables(trig.predicate, renaming)
            try:
                sigma_list = e.match_trigger([goal], facts_j, variables,
                                             signature, sigma_list, budget)
            except e.Inconclusive as why:
                undecided.append("%s: trigger %d: %s" % (c.qualified, j, why))
                if str(why) == e.OVER_BUDGET % budget:
                    over_budget.append(undecided[-1])
                return None
            if not sigma_list:
                return None
            ref_sets.append(tuple(refs_j))
        return _bound_conjuncts(c.guarantee, renaming, sigma_list[0]), \
            tuple(ref_sets)

    def add_fact(time, state, rationale, refs):
        """Add a new fact; raise _SearchEnds at the budget or the goal."""
        for f in facts:
            if (f.time, f.state, f.rationale) == (time, state, rationale):
                return False
        if len(facts) >= max_steps:
            raise _SearchEnds(o.BUDGET_EXCEEDED)
        facts.append(SimpleNamespace(time=time, state=state,
                                     rationale=rationale, refs=refs,
                                     index=len(facts)))
        if time == contract.duration:
            status = e.entails([state], contract.guarantee, budget)
            if status == e.HOLDS:
                raise _SearchEnds(o.FOUND)
            if status == e.INCONCLUSIVE:
                over_budget.append("goal")
        return True

    def saturate():
        """Apply contracts round after round until a round adds no fact."""
        grew = True
        while grew:
            grew = False
            for ct in model.component_types:
                for c in ct.contracts:
                    if not c.triggers:
                        # no trigger binds a variable: keep the conjuncts
                        # without one
                        state = m.conjoin([p for p in m.conjuncts(c.guarantee)
                                           if not m.free_variables(p)])
                        for time in range(c.duration, contract.duration + 1):
                            if state is not None and add_fact(
                                    time, state, c.qualified, ()):
                                grew = True
                        continue
                    bases = sorted({t.time for t in triggers}
                                   | {f.time for f in facts})
                    for base in bases:
                        if base + c.duration > contract.duration:
                            continue
                        applied = try_apply(ct, c, base)
                        if applied is None:
                            continue
                        state, ref_sets = applied
                        if state is not None and add_fact(
                                base + c.duration, state, c.qualified,
                                ref_sets):
                            grew = True

    try:
        saturate()
    except _SearchEnds as end:
        if end.args[0] == o.BUDGET_EXCEEDED:
            return o.SearchResult(o.BUDGET_EXCEEDED,
                                  steps_explored=len(facts))
    else:
        if over_budget:
            return o.SearchResult(o.BUDGET_EXCEEDED,
                                  steps_explored=len(facts))
        if undecided:
            return o.SearchResult(checker.INCONCLUSIVE,
                                  steps_explored=len(facts),
                                  reason=undecided[0])
        return o.SearchResult(o.NO_PROOF_AT_BOUND,
                              steps_explored=len(facts))
    goal = facts[-1]

    # collect the facts reachable from the goal, in construction order
    needed = set()

    def visit(fact):
        if fact.index in needed:
            return
        needed.add(fact.index)
        for ref_set in fact.refs:
            for r in ref_set:
                if isinstance(r, m.StepRef):
                    visit(facts[r.index])

    visit(goal)
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
    return o.SearchResult(o.FOUND, proof=tuple(steps),
                          steps_explored=len(facts))
