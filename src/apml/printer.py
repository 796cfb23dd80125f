"""Canonical text form of a model.

``print_model(parse_model(text)[0])`` is a fixed point: formatting is
deterministic and reparsing the output reconstructs an equal model.

Every brace block with a comma list, from ``DTSpec`` down to ``proof``, has
one layout, written by ``_block``: ``head {`` on its own line, each item one
indent level deeper with a comma after all but the last, and ``}`` back at
the head's indent; an empty block is ``head {`` then ``}``.  Each writer
returns its text, indented by the level it is given.
"""

from . import model as m

INDENT = "  "


def print_term(term, owner=None, shadowed=frozenset()):
    if isinstance(term, m.Var):
        return term.name
    if isinstance(term, m.PortRef):
        p = term.port
        # a port whose name is shadowed by a contract variable must be
        # printed qualified, or it would reparse as the variable
        if p.owner == owner and p.name not in shadowed:
            return p.name
        return p.qualified
    return "%s[%s]" % (term.op,
                       ", ".join(print_term(a, owner, shadowed)
                                 for a in term.args))


def print_predicate(pred, owner=None, shadowed=frozenset(), top=True):
    """``top`` is False for a part of a conjunction, where a disjunction
    takes parentheses."""
    if isinstance(pred, m.Or):
        s = " \\/ ".join(print_predicate(p, owner, shadowed)
                         for p in pred.parts)
        return s if top else "(%s)" % s
    if isinstance(pred, m.And):
        return " /\\ ".join(print_predicate(p, owner, shadowed, False)
                            for p in pred.parts)
    if isinstance(pred, m.Eq):
        return "[%s = %s]" % (print_term(pred.lhs, owner, shadowed),
                              print_term(pred.rhs, owner, shadowed))
    return "%s[%s]" % (pred.pred,
                       ", ".join(print_term(a, owner, shadowed)
                                 for a in pred.args))


def _block(ind, head, items):
    """The layout of every brace block: ``head {`` at indent ``ind``, the
    items, which carry the indent one level in, with a comma after all but
    the last, and ``}`` back at ``ind``."""
    if not items:
        return "%s%s {\n%s}" % (ind, head, ind)
    return "%s%s {\n%s\n%s}" % (ind, head, ",\n".join(items), ind)


def _datatype(dt, ind):
    lines = ["%sDT %s (" % (ind, dt.name)]
    inner = ind + INDENT
    if dt.sort is not None:
        lines.append("%sSort %s" % (inner, dt.sort))
    if dt.predicates:
        decls = ", ".join("%s: %s" % (name, ", ".join(args))
                          for name, args in dt.predicates)
        lines.append("%sPredicate %s" % (inner, decls))
    if dt.operations:
        decls = ", ".join("%s: %s => %s" % (name, ", ".join(args), result)
                          for name, args, result in dt.operations)
        lines.append("%sOperation %s" % (inner, decls))
    lines.append("%s)" % ind)
    return "\n".join(lines)


def _ref(ref):
    if isinstance(ref, m.TriggerRef) or not ref.connections:
        return ref.label
    pairs = ", ".join("(%s, %s)" % (a.qualified, b.qualified)
                      for a, b in ref.connections)
    return "%s with [ %s ]" % (ref.label, pairs)


def _ref_set(refs):
    if len(refs) == 1:
        return _ref(refs[0])
    return "{ %s }" % ", ".join(_ref(r) for r in refs)


def print_step(step, owner=None, shadowed=frozenset()):
    """One proof step in surface syntax, as inside a ``proof { ... }``."""
    frm = (" from [ %s ]" % ", ".join(_ref_set(r) for r in step.refs)
           if step.refs else "")
    return "%s: at %d have %s%s using %s" % (
        step.label, step.time, print_predicate(step.state, owner, shadowed),
        frm, step.rationale)


def _contract(c, ind, owner):
    lines = ["%sContract %s {" % (ind, c.name)]
    inner, deeper = ind + INDENT, ind + 2 * INDENT
    shadowed = frozenset(n for n, _ in c.variables)
    if c.variables:
        lines.append(",\n".join(["%svar %s: %s" % (inner, name, sort)
                                 for name, sort in c.variables]))
    if c.triggers:
        lines.append(_block(inner, "triggers", [
            "%s%s: %s%s" % (deeper, t.label,
                            print_predicate(t.predicate, owner, shadowed),
                            " at %d" % t.time if t.time else "")
            for t in c.triggers]))
    lines.append("%sguarantees { %s }"
                 % (inner, print_predicate(c.guarantee, owner, shadowed)))
    lines.append("%sduration %d" % (inner, c.duration))
    proof = getattr(c, "proof", None)
    if proof is not None:
        lines.append(_block(inner, "proof", [
            deeper + print_step(s, owner, shadowed) for s in proof]))
    lines.append("%s}" % ind)
    return "\n".join(lines)


def _ctype(ct, ind):
    lines = ["%sCType %s {" % (ind, ct.name)]
    inner, deeper = ind + INDENT, ind + 2 * INDENT
    for kw, ports in (("InputPort", ct.inputs), ("OutputPort", ct.outputs)):
        if ports:
            lines.append(_block(inner, kw + "s", [
                "%s%s %s (Type: %s)" % (deeper, kw, p.name, p.sort)
                for p in ports]))
    if ct.contracts:
        lines.append(_block(inner, "Contracts", [
            _contract(c, deeper, ct.name) for c in ct.contracts]))
    lines.append("%s}" % ind)
    return "\n".join(lines)


def print_model(model):
    inner = 2 * INDENT
    blocks = (
        ("DTSpec", [_datatype(dt, inner) for dt in model.datatypes]),
        ("CTypes", [_ctype(ct, inner) for ct in model.component_types]),
        ("Connections", ["%s(%s, %s)" % (inner, p_in.qualified,
                                         p_out.qualified)
                         for p_in, p_out in model.connections]),
        ("Contracts", [_contract(c, inner, None) for c in model.contracts]))
    return "\n".join(
        ["Pattern %s ShortName %s {" % (model.name, model.short_name)]
        + [_block(INDENT, head, items) for head, items in blocks if items]
        + ["}\n"])
