"""Emission of Isabelle theory files from checked models.

A model becomes one theory: type declarations for unmapped sorts, a locale
fixing one time-indexed function per port with one assumption per component
contract and per connection, and one theorem per architecture contract whose
Isar proof replays the architecture proof step by step.
"""

import re
from collections import Counter
from functools import cache

from . import model as m
from . import checker
from .diagnostics import Record

SORT_MAP = {
    "NAT": "nat",
    "INT": "int",
    "BOOLEAN": "bool",
    "STRING": "string",
}

# operations rendered as Isabelle infix operators
INFIX_OPS = {
    "add": "+",
    "sub": "-",
}


class UnmappedSymbol(Exception):
    """Raised in strict mode for symbols without a built-in Isabelle image."""


class EmitConfig(Record, defaults=dict(
        comments=True, legacy_connection_names=False, strict_symbols=False)):
    __slots__ = ("comments",             # traceability comments per step
                 "legacy_connection_names", "strict_symbols")


def abbreviate(name):
    """Initials of the camel/underscore parts, digit runs kept whole."""
    return "".join(part if part.isdigit() else part[0].lower()
                   for part in re.findall(r"[A-Za-z][a-z]*|[0-9]+", name))


_UNSAFE = re.compile(r"[^A-Za-z0-9_']")


@cache
def _sanitize(name):
    clean = _UNSAFE.sub("_", name)
    if not clean or not clean[0].isalpha():
        clean = "v" + clean
    return clean


def port_names(model):
    """Deterministic port parameter names, unique across the model.

    Components first get the abbreviated prefix; any component involved in a
    name collision falls back to its full sanitized name as prefix, and a
    port whose name another port still has is primed.
    """
    prefix = {ct.name: abbreviate(ct.name) for ct in model.component_types}
    while True:
        names, collided = {}, set()
        for ct in model.component_types:
            for p in ct.ports:
                pname = _sanitize(prefix[ct.name] + p.name)
                if pname in names:
                    collided.update((ct.name, names[pname].owner))
                while names.get(pname, p).qualified != p.qualified:
                    pname += "'"
                names[pname] = p
        full = {c: _sanitize(c).lower() + "_" for c in collided}
        if all(prefix[c] == f for c, f in full.items()):
            return {p.qualified: name for name, p in names.items()}
        prefix.update(full)


def sort_name(sort):
    """Isabelle type for a qualified sort; unmapped sorts keep their name."""
    base = sort.rpartition(".")[2]
    return SORT_MAP.get(base) or _sanitize(base)


def unmapped_sorts(model, params):
    """Isabelle types to declare: the unmapped sorts of ports, contract
    variables and the symbols of ``params`` (a ``Renderer.params``), in
    that order of first use."""
    sorts = [p.sort for ct in model.component_types for p in ct.ports]
    sorts += [s for c in _contracts(model) for _, s in c.variables]
    sorts += [s for _, symbol_sorts in params.values() for s in symbol_sorts]
    bases = dict.fromkeys(s.rpartition(".")[2] for s in sorts)
    return list(dict.fromkeys(_sanitize(b) for b in bases
                              if b not in SORT_MAP))


def _contracts(model):
    """Every component contract, then every architecture contract."""
    return [c for ct in model.component_types for c in ct.contracts] + \
        list(model.contracts)


# ---------------------------------------------------------------------------
# Predicate rendering

class Renderer:
    """Names and predicate text for one emit under its config.  A symbol
    without a built-in image becomes a locale parameter when it is first
    rendered, so ``params`` lists those rendered so far, in order of first
    use, each with its name and the sorts of its type.  No two of the time
    binder ``n``, the port and symbol parameters and the contract variables
    share a name."""

    def __init__(self, model, config=None):
        self.model = model
        self.config = config or EmitConfig()
        self.ports = port_names(model)
        self.params = {}                 # (symbol, predicate) -> (name, sorts)
        self.vars = {}                   # variable name -> rendered name
        self.taken = {"n", *self.ports.values()}    # names given out
        self.assumptions = _assumption_names(model)

    def fresh(self, name, fallback=None):
        """name, or fallback if name is taken, primed until free; now taken."""
        if name in self.taken and fallback:
            name = fallback
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        return name

    def var(self, raw):
        """A contract variable's name, fresh when first rendered."""
        clean = self.vars.get(raw)
        if clean is None:
            clean = self.vars[raw] = self.fresh(_sanitize(raw))
        return clean

    def param(self, q, predicate=False):
        """The locale parameter of symbol q, a predicate's or an
        operation's, named and its sorts recorded on first use: its base
        name, or its qualified name when the base name is taken."""
        found = self.params.get((q, predicate))
        if found is None:
            name = self.fresh(_sanitize(q.rpartition(".")[2]),
                              _sanitize(q.replace(".", "_")))
            signature = self.model.signature
            if predicate:                # a map into bool
                sorts = signature.predicate_symbols[q] + ("BOOLEAN",)
            else:
                args, result = signature.operation_symbols[q]
                sorts = args + (result,)
            found = self.params[q, predicate] = (name, sorts)
        return found[0]

    def connection_names(self, p_in, p_out):
        """A connection's assumption name, input first, then the legacy
        output-first name when the config asks for it too.  A proof may
        cite a connection the architecture does not declare."""
        a = self.ports[p_in.qualified]
        b = self.ports[p_out.qualified]
        return ["%s_%s" % (a, b)] + (
            ["%s_%s" % (b, a)] if self.config.legacy_connection_names else [])

    def term(self, t, time, atomic=False):
        kind = t.__class__
        if kind is m.Var:
            return self.var(t.name)
        if kind is m.PortRef:
            q = self.ports[t.port.qualified]
            s = "%s n" % q if time == 0 else "%s (n+%d)" % (q, time)
            return "(%s)" % s if atomic else s
        base = t.op.rpartition(".")[2]
        if base in INFIX_OPS:
            s = (" %s " % INFIX_OPS[base]).join(
                self.term(a, time, atomic=a.__class__ is m.App)
                for a in t.args)
            return "(%s)" % s if atomic else s
        s = " ".join([self.param(t.op)] + [self.term(a, time, atomic=True)
                                           for a in t.args])
        return "(%s)" % s if atomic else s

    def predicate(self, p, time, outer=True):
        """Conclusion-style rendering: conjunction with \\<and>."""
        kind = p.__class__
        if kind is m.Eq:
            return "%s = %s" % (self.term(p.lhs, time),
                                self.term(p.rhs, time))
        if kind is m.And:
            s = " \\<and> ".join(self.predicate(c, time, outer=False)
                                 for c in p.parts)
            return s if outer else "(%s)" % s
        if kind is m.Or:
            return "(%s)" % " \\<or> ".join(
                self.predicate(d, time, outer=False) for d in p.parts)
        return " ".join([self.param(p.pred, True)] + [
            self.term(a, time, atomic=True) for a in p.args])

    def premises(self, p, time):
        """Premise-style rendering: top-level conjuncts become a list."""
        return [self.predicate(c, time) for c in m.conjuncts(p)]


# ---------------------------------------------------------------------------
# Locale

def _assumption_names(model):
    """Contract assumption names, full component name prefix on collision."""
    owned = [(ct, c) for ct in model.component_types for c in ct.contracts]
    counts = Counter(c.name for _, c in owned)
    return {c.qualified: _sanitize(c.name if counts[c.name] == 1
                                   else "%s_%s" % (ct.name, c.name))
            for ct, c in owned}


def contract_assumption(renderer, contract):
    vars_ = " ".join(renderer.var(n) for n, _ in contract.variables)
    binder = "\\<And>n%s. " % ((" " + vars_) if vars_ else "")
    prems = []
    for t in contract.triggers:
        prems.extend(renderer.premises(t.predicate, t.time))
    concl = renderer.predicate(contract.guarantee, contract.duration)
    if not contract.triggers:
        return '"%s%s"' % (binder, concl)
    return '"%s\\<lbrakk>%s\\<rbrakk> \\<Longrightarrow> %s"' % (
        binder, "; ".join(prems), concl)


def locale_assumptions(r):
    """(name, text) of each locale assumption: one per component contract,
    then one per connection, or two with legacy connection names."""
    model = r.model
    assumes = [(r.assumptions[c.qualified], contract_assumption(r, c))
               for ct in model.component_types for c in ct.contracts]
    for p_in, p_out in model.connections:
        text = '"\\<And>n. %s n = %s n"' % (r.ports[p_in.qualified],
                                          r.ports[p_out.qualified])
        assumes.extend((name, text)
                       for name in r.connection_names(p_in, p_out))
    return assumes


def emit_locale(r, assumes):
    """The locale: its ports, the symbols rendered so far, then assumes."""
    model = r.model
    lines = ["locale %s =" % _sanitize(model.short_name or model.name)]
    lines.append("  fixes")
    for k, ct in enumerate(model.component_types):
        if r.config.comments:
            lines.append("    (* %s *)" % ct.name)
        decls = ['%s::"nat \\<Rightarrow> %s"'
                 % (r.ports[p.qualified], sort_name(p.sort))
                 for p in ct.ports]
        lines.append(("    and " if k else "    ") + " and ".join(decls))
    for name, sorts in r.params.values():
        lines.append('    and %s::"%s"' % (name, " \\<Rightarrow> ".join(
            map(sort_name, sorts))))
    if assumes:
        lines.append("  assumes " + "%s: %s" % assumes[0])
        for name, text in assumes[1:]:
            lines.append("      and %s: %s" % (name, text))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Theorems and proofs

def emit_theorem(r, contract, name):
    vars_ = " ".join(r.var(n) for n, _ in contract.variables)
    lines = ["theorem %s:" % name]
    fixes = "n" + ((" " + vars_) if vars_ else "")
    lines.append("  fixes %s" % fixes)
    for j, t in enumerate(contract.triggers):
        lines.append('  assumes a%d: "%s"'
                     % (j, r.predicate(t.predicate, t.time)))
    lines.append('  shows "%s"'
                 % r.predicate(contract.guarantee, contract.duration))
    return "\n".join(lines)


def _sorry(findings):
    """An open proof line naming each distinct failed condition."""
    return "sorry (* %s *)" % ", ".join(dict.fromkeys(
        "%s %s" % (f.condition, f.status) for f in findings))


def emit_isar_proof(r, contract, verdict):
    """Isar proof text replaying the architecture proof.

    ``verdict``, the checker's, supplies the per-step variable
    instantiations and leaves open the steps it does not accept.
    """
    steps = contract.proof or ()
    lines = ["proof -"]
    for i, (step, judged) in enumerate(zip(steps, verdict.steps)):
        rationale = r.model.find_contract(step.rationale)
        inst = judged.instantiation or {}
        # a step the checker does not accept is left open, naming why
        gap = _sorry(judged.findings) if judged.status != checker.OK else None
        if r.config.comments:
            lines.append("  (* step %d *)" % i)
        state = r.predicate(step.state, step.time)
        if not (step.refs and all(step.refs)):
            lines.append('  have s%d: "%s" %s' % (i, state, gap or "by simp"))
            continue
        for j, ref_set in enumerate(step.refs):
            time = checker.reference_time(ref_set[0], contract, steps)
            facts = [("a%d" if ref.__class__ is m.TriggerRef else "s%d")
                     % ref.index for ref in ref_set]
            triggers = rationale.triggers
            goal = (r.predicate(m.substitute(triggers[j].predicate, inst),
                                time) if j < len(triggers) else state)
            conn_names = []
            for ref in ref_set:
                for p_in, p_out in getattr(ref, "connections", ()):
                    conn_names.extend(r.connection_names(p_in, p_out))
            using = (" using %s" % " ".join(conn_names)) if conn_names else ""
            prefix = "  moreover " if j > 0 else "  "
            lines.append('%sfrom %s have "%s"%s %s'
                         % (prefix, " ".join(facts), goal, using,
                            "sorry" if gap else "by simp"))
        closer = "hence" if len(step.refs) == 1 else "ultimately have"
        lines.append('  %s s%d: "%s" using %s %s'
                     % (closer, i, state, r.assumptions[step.rationale],
                        gap or "by blast"))
    # and so is the conclusion when the last step misses the guarantee or
    # the duration
    lines.append("  thus ?thesis %s" % (_sorry(verdict.findings)
                                        if verdict.findings else "by auto"))
    lines.append("qed")
    return "\n".join(lines)


def emit_theory(model, config=None):
    """Complete theory file for a model.  The locale's assumptions and the
    theorems are rendered first; the header then declares the symbols they
    use, predicates before operations, each in order of first use."""
    r = Renderer(model, config)
    assumes = locale_assumptions(r)
    verdicts = checker.check_model(model)
    out = ["begin", ""]
    seen = {}
    for idx, contract in enumerate(model.contracts):
        name = _sanitize(contract.name)
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name = "%s_%d" % (name, seen[name])
        out.append(emit_theorem(r, contract, name))
        if contract.proof is None:
            out.append("  oops")
        else:
            out.append(emit_isar_proof(r, contract, verdicts[idx]))
        out.append("")
    out += ["end", "", "end"]
    r.params = dict(sorted(r.params.items(), key=lambda p: not p[0][1]))
    if r.params and r.config.strict_symbols:
        raise UnmappedSymbol(next(iter(r.params))[0])
    sorts = unmapped_sorts(model, r.params)
    head = ["theory %s" % _sanitize(model.short_name or model.name),
            "  imports Main", "begin", ""]
    head += ["typedecl %s" % s for s in sorts]
    if sorts:
        head.append("")
    return "\n".join(head + [emit_locale(r, assumes)] + out) + "\n"
