"""Domain model: signatures, ports, component types, contracts and proofs.

All types are immutable after construction and safe to share; validation is
pure and returns diagnostics instead of raising.

A predicate is a literal (``Eq`` or ``Atom``) or an n-ary ``And``/``Or`` over
a flat tuple of parts.  ``conjoin`` and ``disjoin`` are the only
constructors: they splice the parts of a nested node of the same kind, and
return a lone part unchanged.  So an ``And`` never holds an ``And``, an
``Or`` never holds an ``Or``, and ``a /\\ (b /\\ c)`` equals
``(a /\\ b) /\\ c``.  Nesting depth then counts alternations only, which the
parser bounds.  ``nodes`` lists the nodes of given classes in a predicate or
term without recursing; code that needs the ports, variables, symbols or
equalities of a predicate reads them off that list.

The signature, triggers and proof references are ``Record``s: slotted
value records that declare each field once, with its default and whether it
is compared (spans and labels are not) as class keywords, and get a
generated initialiser; they compare and hash by their compared fields.
Ports, terms and predicates are ``Value``s, records stored as tagged tuples,
which ``tuple`` hashes and compares in C as dictionary keys.  ``Contract``,
``ArchitectureContract``, ``ProofStep``, ``ComponentType`` and ``Model`` are
records declared by annotations: they keep a ``__dict__`` for cached
indexes, and ``dataclasses.replace`` derives model variants from them.

The parser resolves every reference: sorts (symbol declarations' too),
ports, symbols, variables, proof labels and proof rationales, reporting each
one that names nothing declared.  So ``validate_structure`` and
``check_predicate_sorts`` take resolved references, from ``parse_model`` or
built only from declared ports, sorts and symbols, and judge declarations:
duplicates, port directions, connections, contract shapes, scopes and sorts.
One function, ``_check_contract``, judges both kinds of contract; they
differ only in the ports they may read: a component contract its owner's,
an architecture contract the interface's.
"""

from functools import cached_property

from .diagnostics import (Diagnostic, NO_SPAN, Record, SourceSpan, Value,
                          ERROR, WARNING)


# ---------------------------------------------------------------------------
# Signature

class DataType(Record, uncompared=("span",), defaults=dict(
        sort=None, predicates=(), operations=(), span=NO_SPAN)):
    """One DT block: an optional sort plus predicate/operation symbols.

    Sorts and symbols are namespaced by the DT name; the qualified form
    ``DT.name`` is the canonical identifier used everywhere else.
    """

    __slots__ = ("name",
                 "sort",                 # unqualified sort name, if declared
                 "predicates",           # (name, (arg_sort, ...)) pairs
                 "operations",           # (name, arg_sorts, result)
                 "span")


class Signature:
    """Lookup view over the DT declarations of a model."""

    def __init__(self, datatypes):
        self.sorts = set()
        self.predicate_symbols = {}      # qualified name -> arg sort tuple
        self.operation_symbols = {}      # qualified name -> (args, result)
        for dt in datatypes:
            if dt.sort is not None:
                self.sorts.add("%s.%s" % (dt.name, dt.sort))
            for name, args in dt.predicates:
                self.predicate_symbols["%s.%s" % (dt.name, name)] = args
            for name, args, result in dt.operations:
                self.operation_symbols["%s.%s" % (dt.name, name)] = (args, result)


# ---------------------------------------------------------------------------
# Ports and terms

INPUT = "input"
OUTPUT = "output"


class Port(Value, fields=("name", "owner", "direction", "sort")):
    __slots__ = ()                       # sort: a qualified sort name

    @property
    def qualified(self):
        return "%s.%s" % (self.owner, self.name)

    def __str__(self):
        return self.qualified


class Var(Value, fields=("name", "sort")):
    __slots__ = ()


class PortRef(Value, fields=("port",)):
    __slots__ = ()


class App(Value, fields=("op", "args")):
    __slots__ = ()                       # op: a qualified operation name


Term = Var | PortRef | App


# ---------------------------------------------------------------------------
# Predicates

class Eq(Value, fields=("lhs", "rhs")):
    __slots__ = ()


class Atom(Value, fields=("pred", "args")):
    __slots__ = ()                       # pred: a qualified predicate name


class And(Value, fields=("parts",)):
    __slots__ = ()                       # two or more parts, none an And


class Or(Value, fields=("parts",)):
    __slots__ = ()                       # two or more parts, none an Or


Predicate = Eq | Atom | And | Or


def _flat(kind, preds):
    parts = []
    for p in preds:
        if isinstance(p, kind):
            parts.extend(p.parts)
        else:
            parts.append(p)
    if len(parts) < 2:
        return parts[0] if parts else None
    return kind(tuple(parts))


def conjoin(preds):
    """The conjunction of predicates: a lone one unchanged, None for none."""
    return _flat(And, preds)


def disjoin(preds):
    """The disjunction of predicates: a lone one unchanged, None for none."""
    return _flat(Or, preds)


def conjuncts(p):
    return p.parts if p.__class__ is And else (p,)


def nodes(kinds, *roots):
    """The ``kinds`` nodes of predicates or terms, pre-order, left to right.

    Iterative, so neither a long chain of parts nor a deep term can exhaust
    the recursion limit.
    """
    out, stack = [], list(reversed(roots))
    while stack:
        n = stack.pop()
        kind = n.__class__
        if kind in kinds:
            out.append(n)
        if kind is Var or kind is PortRef:
            continue
        if kind is Eq:
            stack += (n.rhs, n.lhs)
        elif kind is And or kind is Or:
            stack += reversed(n.parts)
        elif kind is App or kind is Atom:
            stack += reversed(n.args)
    return out


def ports_of(p):
    """The ports occurring in a predicate or term."""
    return {n.port for n in nodes((PortRef,), p)}


def free_variables(p):
    """Names of the contract variables occurring in a predicate or term."""
    return {n.name for n in nodes((Var,), p)}


def substitute(p, subst):
    """Replace variables by terms throughout a predicate or term."""
    kind = p.__class__
    if kind is Var:
        return subst.get(p.name, p)
    if kind is PortRef or not subst:
        return p
    if kind is Eq:
        return Eq(substitute(p.lhs, subst), substitute(p.rhs, subst))
    if kind is App:
        return App(p.op, tuple([substitute(a, subst) for a in p.args]))
    if kind is Atom:
        return Atom(p.pred, tuple([substitute(a, subst) for a in p.args]))
    return (conjoin if kind is And else disjoin)(
        [substitute(q, subst) for q in p.parts])


# ---------------------------------------------------------------------------
# Contracts

class Trigger(Record, uncompared=("span",), defaults=dict(span=NO_SPAN)):
    __slots__ = ("label", "predicate", "time", "span")


class Contract(Record, uncompared=("span",), defaults=dict(span=NO_SPAN)):
    """A component contract: triggers at offsets, guarantee at duration."""
    name: str
    owner: str                           # component type name, "" for arch
    variables: tuple                     # ordered (name, sort) pairs
    triggers: tuple                      # of Trigger
    guarantee: Predicate
    duration: int
    span: SourceSpan

    @property
    def qualified(self):
        return "%s.%s" % (self.owner, self.name) if self.owner else self.name


# ---------------------------------------------------------------------------
# Proofs

class TriggerRef(Record, uncompared=("label",), defaults=dict(label="")):
    __slots__ = ("index", "label")


class StepRef(Record, uncompared=("label",), defaults=dict(label="")):
    __slots__ = ("index",
                 "connections",          # of (input, output Port)
                 "label")


Reference = TriggerRef | StepRef


class ProofStep(Record, uncompared=("span",), defaults=dict(span=NO_SPAN)):
    """One step: the state at a time, by a rationale from reference sets."""
    label: str
    time: int
    state: Predicate
    rationale: str                       # qualified CType.contract name
    refs: tuple                          # of tuple[Reference, ...] (a set each)
    span: SourceSpan


class ArchitectureContract(Contract, defaults=dict(proof=None)):
    """A contract of the whole architecture, with its proof if written."""
    proof: tuple | None                  # of ProofStep


# ---------------------------------------------------------------------------
# Components, architectures, model

class ComponentType(Record, uncompared=("span",),
                    defaults=dict(span=NO_SPAN)):
    """A component type: its input and output ports and its contracts."""
    name: str
    inputs: tuple                        # of Port
    outputs: tuple                       # of Port
    contracts: tuple                     # of Contract
    span: SourceSpan

    @property
    def ports(self):
        return self.inputs + self.outputs


class Model(Record, uncompared=("connection_spans",), defaults=dict(
        datatypes=(), component_types=(), connections=(), contracts=(),
        connection_spans=())):
    """A pattern: datatypes, component types, connections and contracts."""
    name: str
    short_name: str
    datatypes: tuple                     # of DataType
    component_types: tuple               # of ComponentType
    connections: tuple                   # of (input Port, output Port)
    contracts: tuple                     # of ArchitectureContract
    connection_spans: tuple              # of SourceSpan, if parsed

    # Per-model indexes, built on first use; a model is immutable.  Lookups
    # by name resolve to the first declaration, hence the reversed walks.

    @cached_property
    def signature(self):
        return Signature(self.datatypes)

    @cached_property
    def connection_equalities(self):
        """(input, output) of each connection -> the equality it asserts."""
        return {conn: Eq(PortRef(conn[0]), PortRef(conn[1]))
                for conn in self.connections}

    @cached_property
    def connections_by_owner(self):
        """Input owner -> its connections, in declaration order."""
        out = {}
        for p_in, p_out in self.connections:
            out.setdefault(p_in.owner, []).append((p_in, p_out))
        return out

    @cached_property
    def _components(self):
        return {ct.name: ct for ct in reversed(self.component_types)}

    @cached_property
    def _contracts(self):
        return {"%s.%s" % (ct.name, c.name): c
                for ct in self._components.values()
                for c in reversed(ct.contracts)}

    def component(self, name):
        return self._components.get(name)

    def find_contract(self, qualified):
        return self._contracts.get(qualified)

    def connection_map(self):
        """input port -> output port (first declaration wins on conflict)."""
        out = {}
        for p_in, p_out in self.connections:
            out.setdefault(p_in, p_out)
        return out


EMPTY_MODEL = Model(name="", short_name="")


def architecture_interface(model):
    """Disconnected ports: (interface inputs, interface outputs)."""
    conn = model.connection_map()
    connected_out = set(conn.values())
    inputs = {p for ct in model.component_types for p in ct.inputs
              if p not in conn}
    outputs = {p for ct in model.component_types for p in ct.outputs
               if p not in connected_out}
    return inputs, outputs


# ---------------------------------------------------------------------------
# Structural validation

def term_sort(term, signature):
    """Result sort of a term, or None if not inferable."""
    if isinstance(term, Var):
        return term.sort
    if isinstance(term, PortRef):
        return term.port.sort
    op = signature.operation_symbols.get(term.op)
    return op[1] if op else None


def _check_application(kind, name, sorts, args, signature, out, span):
    """Arity and argument sorts of an operation or predicate application;
    ``sorts`` is None for an undeclared symbol, which the parser reports."""
    if sorts is None:
        return
    if len(sorts) != len(args):
        out.append(Diagnostic(
            ERROR, "SORT_MISMATCH", "%s '%s' expects %d arguments, got %d"
            % (kind, name, len(sorts), len(args)), span))
    else:
        for expected, arg in zip(sorts, args):
            got = term_sort(arg, signature)
            if got is not None and got != expected:
                out.append(Diagnostic(
                    ERROR, "SORT_MISMATCH",
                    "argument of '%s' has sort %s, expected %s"
                    % (name, got, expected), span))


def check_predicate_sorts(pred, signature, out, span=NO_SPAN):
    """Sort diagnostics of every equality and application, outside in, of
    a predicate whose references are resolved."""
    for n in nodes((Eq, App, Atom), pred):
        if isinstance(n, Eq):
            ls, rs = term_sort(n.lhs, signature), term_sort(n.rhs, signature)
            if ls is not None and rs is not None and ls != rs:
                out.append(Diagnostic(
                    ERROR, "SORT_MISMATCH",
                    "equality between sorts %s and %s" % (ls, rs), span))
        elif isinstance(n, App):
            _check_application(
                "operation", n.op,
                signature.operation_symbols.get(n.op, (None,))[0], n.args,
                signature, out, span)
        elif isinstance(n, Atom):
            _check_application("predicate", n.pred,
                               signature.predicate_symbols.get(n.pred),
                               n.args, signature, out, span)


def _repeated(names):
    """The names that occur more than once, sorted."""
    seen, repeated = set(), set()
    for n in names:
        if n in seen:
            repeated.add(n)
        seen.add(n)
    return sorted(repeated)


def _check_contract(contract, inputs, outputs, signature, out):
    """Shape, scopes and sorts of a contract of either kind.  Its triggers
    may read only the ports ``inputs`` and its guarantee only ``outputs``:
    its owner's for a component contract, the interface's for an
    architecture contract, which so reads no port a connection joins."""
    name, span, trig = contract.qualified, contract.span, contract.triggers
    if trig:
        if trig[0].time != 0:
            out.append(Diagnostic(
                ERROR, "CONTRACT_FIRST_TRIGGER_TIME",
                "first trigger of '%s' must be at time 0, got %d"
                % (name, trig[0].time), span))
        for a, b in zip(trig, trig[1:]):
            if b.time < a.time:
                out.append(Diagnostic(
                    ERROR, "CONTRACT_TRIGGER_ORDER",
                    "triggers of '%s' not ordered by time (%d after %d)"
                    % (name, b.time, a.time), span))
        if contract.duration <= max(t.time for t in trig):
            out.append(Diagnostic(
                ERROR, "CONTRACT_DURATION_POSITIVE",
                "duration %d of '%s' must exceed last trigger time %d"
                % (contract.duration, name, max(t.time for t in trig)), span))
    elif contract.duration <= 0:
        out.append(Diagnostic(
            ERROR, "CONTRACT_DURATION_POSITIVE",
            "trigger-less contract '%s' needs duration > 0" % name, span))
    if contract.owner:
        rules = "TRIGGER_SCOPE", "GUARANTEE_SCOPE"
        reads = "non-input port %s", "non-output port %s"
    else:
        rules = "ARCH_PORT_CONNECTED", "ARCH_PORT_CONNECTED"
        reads = ("%s, which is not an interface input",
                 "%s, which is not an interface output")
    for t in trig:
        for p in sorted(ports_of(t.predicate) - inputs, key=str):
            out.append(Diagnostic(
                ERROR, rules[0], "trigger '%s' of '%s' references %s"
                % (t.label, name, reads[0] % p.qualified), t.span))
        check_predicate_sorts(t.predicate, signature, out, t.span)
    for p in sorted(ports_of(contract.guarantee) - outputs, key=str):
        out.append(Diagnostic(
            ERROR, rules[1], "guarantee of '%s' references %s"
            % (name, reads[1] % p.qualified), span))
    check_predicate_sorts(contract.guarantee, signature, out, span)


def validate_structure(model):
    """Every declaration invariant of a model whose references are resolved,
    as data; empty list iff the model is well formed."""
    out = []
    signature = model.signature

    seen_dt = set()
    for dt in model.datatypes:
        if dt.name in seen_dt:
            out.append(Diagnostic(WARNING, "DUPLICATE_DT",
                                  "duplicate DT '%s' (last wins)" % dt.name,
                                  dt.span))
        seen_dt.add(dt.name)
        for n in _repeated([n for n, _ in dt.predicates]
                           + [n for n, _, _ in dt.operations]):
            out.append(Diagnostic(ERROR, "DUPLICATE_NAME", "duplicate symbol "
                                  "'%s' in '%s'" % (n, dt.name), dt.span))

    seen_ct = set()
    for ct in model.component_types:
        if ct.name in seen_ct:
            out.append(Diagnostic(ERROR, "DUPLICATE_NAME",
                                  "duplicate component type '%s'" % ct.name,
                                  ct.span))
        seen_ct.add(ct.name)
        in_names = {p.name for p in ct.inputs}
        for p in ct.outputs:
            if p.name in in_names:
                out.append(Diagnostic(
                    ERROR, "PORT_DIRECTION_CONFLICT",
                    "port '%s' of '%s' declared both input and output"
                    % (p.name, ct.name), ct.span))
        for n in _repeated([p.name for p in ct.ports]):
            out.append(Diagnostic(ERROR, "DUPLICATE_NAME",
                                  "duplicate port '%s' in '%s'" % (n, ct.name),
                                  ct.span))
        for n in _repeated([c.name for c in ct.contracts]):
            out.append(Diagnostic(ERROR, "DUPLICATE_NAME",
                                  "duplicate contract '%s' in '%s'"
                                  % (n, ct.name), ct.span))
        inputs, outputs = set(ct.inputs), set(ct.outputs)
        for c in ct.contracts:
            _check_contract(c, inputs, outputs, signature, out)

    seen_inputs, spans = set(), model.connection_spans
    for k, (p_in, p_out) in enumerate(model.connections):
        span = spans[k] if k < len(spans) else NO_SPAN
        if p_in.direction != INPUT:
            out.append(Diagnostic(ERROR, "CONNECTION_NOT_INPUT",
                                  "connection source %s is not an input port"
                                  % p_in.qualified, span))
        if p_out.direction != OUTPUT:
            out.append(Diagnostic(ERROR, "CONNECTION_NOT_OUTPUT",
                                  "connection target %s is not an output port"
                                  % p_out.qualified, span))
        if p_in in seen_inputs:
            out.append(Diagnostic(ERROR, "CONNECTION_DUPLICATE_INPUT",
                                  "input %s connected more than once"
                                  % p_in.qualified, span))
        seen_inputs.add(p_in)
        if p_in.sort != p_out.sort:
            out.append(Diagnostic(
                ERROR, "CONNECTION_SORT_MISMATCH",
                "connected ports %s : %s and %s : %s differ in sort"
                % (p_in.qualified, p_in.sort, p_out.qualified, p_out.sort),
                span))

    if_inputs, if_outputs = architecture_interface(model)
    for n in _repeated([c.name for c in model.contracts]):
        repeat = [c for c in model.contracts if c.name == n][1]
        out.append(Diagnostic(ERROR, "DUPLICATE_NAME",
                              "duplicate architecture contract '%s'" % n,
                              repeat.span))
    for c in model.contracts:
        _check_contract(c, if_inputs, if_outputs, signature, out)

    return out
