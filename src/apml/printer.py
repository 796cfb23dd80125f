"""Canonical text form of a model.

``print_model(parse_model(text)[0])`` is a fixed point: formatting is
deterministic and reparsing the output reconstructs an equal model.
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


def print_predicate(pred, owner=None, shadowed=frozenset()):
    return _print_pred(pred, owner, shadowed, top=True)


def _print_pred(pred, owner, shadowed=frozenset(), top=False):
    if isinstance(pred, m.Or):
        s = " \\/ ".join(_print_pred(p, owner, shadowed, top=True)
                         for p in pred.parts)
        return s if top else "(%s)" % s
    if isinstance(pred, m.And):
        return " /\\ ".join(_print_pred(p, owner, shadowed)
                            for p in pred.parts)
    if isinstance(pred, m.Eq):
        return "[%s = %s]" % (print_term(pred.lhs, owner, shadowed),
                              print_term(pred.rhs, owner, shadowed))
    return "%s[%s]" % (pred.pred,
                       ", ".join(print_term(a, owner, shadowed)
                                 for a in pred.args))


def _datatype(dt, out, ind):
    out.append("%sDT %s (" % (ind, dt.name))
    inner = ind + INDENT
    if dt.sort is not None:
        out.append("%sSort %s" % (inner, dt.sort))
    if dt.predicates:
        decls = ", ".join("%s: %s" % (name, ", ".join(args))
                          for name, args in dt.predicates)
        out.append("%sPredicate %s" % (inner, decls))
    if dt.operations:
        decls = ", ".join("%s: %s => %s" % (name, ", ".join(args), result)
                          for name, args, result in dt.operations)
        out.append("%sOperation %s" % (inner, decls))
    out.append("%s)" % ind)


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


def _contract(c, out, ind, owner):
    out.append("%sContract %s {" % (ind, c.name))
    inner = ind + INDENT
    shadowed = frozenset(n for n, _ in c.variables)
    for i, (name, sort) in enumerate(c.variables):
        comma = "," if i + 1 < len(c.variables) else ""
        out.append("%svar %s: %s%s" % (inner, name, sort, comma))
    if c.triggers:
        out.append("%striggers {" % inner)
        for i, t in enumerate(c.triggers):
            at = " at %d" % t.time if t.time else ""
            comma = "," if i + 1 < len(c.triggers) else ""
            out.append("%s%s: %s%s%s"
                       % (inner + INDENT, t.label,
                          print_predicate(t.predicate, owner, shadowed), at,
                          comma))
        out.append("%s}" % inner)
    out.append("%sguarantees { %s }"
               % (inner, print_predicate(c.guarantee, owner, shadowed)))
    out.append("%sduration %d" % (inner, c.duration))
    proof = getattr(c, "proof", None)
    if proof is not None:
        out.append("%sproof {" % inner)
        for i, s in enumerate(proof):
            comma = "," if i + 1 < len(proof) else ""
            out.append("%s%s%s" % (inner + INDENT,
                                   print_step(s, owner, shadowed), comma))
        out.append("%s}" % inner)
    out.append("%s}" % ind)


def _ctype(ct, out, ind):
    out.append("%sCType %s {" % (ind, ct.name))
    inner = ind + INDENT
    for kw, block, ports in (("InputPort", "InputPorts", ct.inputs),
                             ("OutputPort", "OutputPorts", ct.outputs)):
        if ports:
            out.append("%s%s {" % (inner, block))
            for i, p in enumerate(ports):
                comma = "," if i + 1 < len(ports) else ""
                out.append("%s%s %s (Type: %s)%s"
                           % (inner + INDENT, kw, p.name, p.sort, comma))
            out.append("%s}" % inner)
    if ct.contracts:
        out.append("%sContracts {" % inner)
        for i, c in enumerate(ct.contracts):
            _contract(c, out, inner + INDENT, ct.name)
            if i + 1 < len(ct.contracts):
                out[-1] += ","
        out.append("%s}" % inner)
    out.append("%s}" % ind)


def print_model(model):
    out = ["Pattern %s ShortName %s {" % (model.name, model.short_name)]
    ind = INDENT
    if model.datatypes:
        out.append("%sDTSpec {" % ind)
        for i, dt in enumerate(model.datatypes):
            _datatype(dt, out, ind + INDENT)
            if i + 1 < len(model.datatypes):
                out[-1] += ","
        out.append("%s}" % ind)
    if model.component_types:
        out.append("%sCTypes {" % ind)
        for i, ct in enumerate(model.component_types):
            _ctype(ct, out, ind + INDENT)
            if i + 1 < len(model.component_types):
                out[-1] += ","
        out.append("%s}" % ind)
    if model.connections:
        out.append("%sConnections {" % ind)
        for i, (p_in, p_out) in enumerate(model.connections):
            comma = "," if i + 1 < len(model.connections) else ""
            out.append("%s(%s, %s)%s"
                       % (ind + INDENT, p_in.qualified, p_out.qualified,
                          comma))
        out.append("%s}" % ind)
    if model.contracts:
        out.append("%sContracts {" % ind)
        for i, c in enumerate(model.contracts):
            _contract(c, out, ind + INDENT, None)
            if i + 1 < len(model.contracts):
                out[-1] += ","
        out.append("%s}" % ind)
    out.append("}")
    return "\n".join(out) + "\n"
