"""Command line interface.

Exit codes: 0 success, 1 violations found, 2 inconclusive or budget
exceeded, 3 a usage error, or unreadable, unparseable, structurally invalid
(``check``) or (``--strict-symbols``) unmapped input.
An unexpected exception is reported as one line ``error: internal: ...`` and
also exits 3, never with a traceback.

Only the modules a command uses are imported, inside the command: ``fmt``
never loads the checker, the Isabelle emitter or the finite-domain oracle.
"""

from __future__ import annotations

import argparse
import sys

from . import model as m
from . import entailment
from .diagnostics import errors
from .parser import parse_model
from .printer import print_model, print_step

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_BAD_INPUT = 3


def _fail(message):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail(exc)


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(exc)


def _load_model(path):
    model, diags = parse_model(_read(path), path)
    if errors(diags):
        for d in diags:
            print(str(d), file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    return model, diags


def _pick_contract(model, name):
    if name is None:
        if not model.contracts:
            _fail("model declares no architecture contracts")
        return model.contracts[0]
    for c in model.contracts:
        if c.name == name:
            return c
    _fail("no architecture contract named '%s'" % name)


def cmd_check(args):
    from . import checker
    model, diags = _load_model(args.input)
    diags = list(diags) + m.validate_structure(model)
    verdicts = checker.check_model(model, budget=args.dnf_budget)
    _write(args.output, checker.report_text(verdicts, diags))
    status = checker.overall_status(verdicts)
    if errors(diags) and status != checker.VIOLATED:
        return EXIT_BAD_INPUT        # structural errors, no violated verdict
    return {checker.OK: EXIT_OK, checker.VIOLATED: EXIT_VIOLATED,
            checker.INCONCLUSIVE: EXIT_INCONCLUSIVE}[status]


def cmd_emit_isar(args):
    from . import isar
    model, _ = _load_model(args.input)
    config = isar.EmitConfig(comments=not args.no_comments,
                             legacy_connection_names=args.legacy_connection_names,
                             strict_symbols=args.strict_symbols)
    try:
        text = isar.emit_theory(model, config)
    except isar.UnmappedSymbol as exc:
        print("error: UNMAPPED_SYMBOL: no Isabelle image for '%s'" % exc,
              file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(args.output, text)
    return EXIT_OK


def cmd_search(args):
    from . import oracle
    model, _ = _load_model(args.input)
    contract = _pick_contract(model, args.contract)
    result = oracle.search_proof(model, contract, max_steps=args.max_steps,
                                 budget=args.dnf_budget)
    if result.status == oracle.FOUND:
        _write(args.output, "".join(print_step(s) + "\n"
                                    for s in result.proof))
        return EXIT_OK
    print("%s after exploring %d fact(s)"
          % (result.status, result.steps_explored), file=sys.stderr)
    return (EXIT_INCONCLUSIVE if result.status == oracle.BUDGET_EXCEEDED
            else EXIT_VIOLATED)


def cmd_simulate(args):
    from . import oracle
    model, _ = _load_model(args.input)
    try:
        universe = oracle.parse_universe(_read(args.universe))
    except ValueError as exc:
        _fail(exc)
    contract = _pick_contract(model, args.contract)
    # a sort without values or an operation without a table leaves no trace
    # to search, which would make any verdict vacuous
    conn = model.connection_map()
    contracts = [c for ct in model.component_types for c in ct.contracts]
    contracts.append(contract)
    sorts = [p.sort for ct in model.component_types for p in ct.ports
             if p not in conn]
    for sort in sorts + [s for c in contracts for _, s in c.variables]:
        if not universe.carrier(sort):
            _fail("universe has no values for sort '%s'" % sort)
    preds = [t.predicate for c in contracts for t in c.triggers]
    for n in m.walk(*preds, *[c.guarantee for c in contracts]):
        if n.__class__ is m.App and n.op not in universe.operations:
            _fail("universe has no table for operation '%s'" % n.op)
    try:
        holds, counter = oracle.verify_satisfaction(model, contract, universe,
                                                    horizon=args.horizon)
    except oracle.ExplosionError as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if holds:
        _write(args.output, "contract %s: holds\n" % contract.name)
        return EXIT_OK
    lines = ["contract %s: counterexample" % contract.name]
    for i, state in enumerate(counter):
        cells = " ".join("%s=%s" % (k, v) for k, v in sorted(state.items()))
        lines.append("  t=%d %s" % (i, cells))
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_VIOLATED


def cmd_fmt(args):
    model, _ = _load_model(args.input)
    _write(args.output, print_model(model))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is bad input: exit 3, not argparse's 2, which is the
    inconclusive class here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, "%s: error: %s\n" % (self.prog, message))


def positive(text):
    """An integer option that must be at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def build_parser():
    parser = _ArgumentParser(
        prog="apml",
        description="Check, translate and simulate timed architecture "
                    "contract models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="model file")
        p.add_argument("-o", "--output", default=None,
                       help="output file (default: stdout)")

    p = sub.add_parser("check", help="validate a model and check its proofs")
    common(p)
    p.add_argument("--dnf-budget", type=positive,
                   default=entailment.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("emit-isar", help="emit an Isabelle theory file")
    common(p)
    p.add_argument("--no-comments", action="store_true",
                   help="suppress traceability comments")
    p.add_argument("--legacy-connection-names", action="store_true",
                   help="also name connection assumptions output_input")
    p.add_argument("--strict-symbols", action="store_true",
                   help="fail on symbols without a built-in Isabelle image")
    p.set_defaults(func=cmd_emit_isar)

    p = sub.add_parser("search", help="search for an architecture proof")
    common(p)
    p.add_argument("--contract", default=None,
                   help="architecture contract name (default: first)")
    p.add_argument("--max-steps", type=positive, default=32)
    p.add_argument("--dnf-budget", type=positive,
                   default=entailment.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate",
                       help="verify a contract over a finite universe")
    common(p)
    p.add_argument("--universe", required=True, help="universe file")
    p.add_argument("--contract", default=None)
    p.add_argument("--horizon", type=positive, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fmt", help="print the canonical form of a model")
    common(p)
    p.set_defaults(func=cmd_fmt)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:         # a bug, reported without a traceback
        print("error: internal: %s: %s"
              % (type(exc).__name__, " ".join(str(exc).split())),
              file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
