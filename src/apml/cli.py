"""Command line interface.

Exit codes: 0 success, 1 violations found, 2 inconclusive or budget
exceeded, 3 a usage error, or unreadable, unparseable, structurally invalid
(``check``, ``simulate``) or (``--strict-symbols``) unmapped input.
An unexpected exception is reported as one line ``error: internal: ...`` and
also exits 3, never with a traceback.

A command imports what it runs inside its handler: ``fmt`` loads neither
the checker, the Isabelle emitter, the oracle nor the entailment kernel, and
only ``fmt`` and ``search`` load the printer.  Argv is parsed from the table
``COMMANDS`` by a short loop: importing ``argparse`` and building its parsers
(whose first message lookup imports ``gettext`` and ``locale``) took about
8 ms of a 65 ms ``fmt`` process on a 2-core host with Python 3.11.
"""

import sys
from types import SimpleNamespace

from . import model as m
from .diagnostics import errors
from .parser import parse_model

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_BAD_INPUT = 3


def _fail(message):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


def _read(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        _fail(exc)
    except UnicodeDecodeError as exc:
        _fail("%s: not UTF-8 text: %s" % (path, exc))


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(exc)


def _load_model(path, validate=False):
    """The model; on a parse error, or with ``validate`` a structural one,
    the diagnostics go to stderr and the command exits 3."""
    model, diags = parse_model(_read(path), path)
    if validate and not diags:
        diags = m.validate_structure(model)
    if errors(diags):
        print(*diags, sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    return model


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
    from . import checker, entailment as e
    model = _load_model(args.input)
    diags = m.validate_structure(model)
    verdicts = checker.check_model(model, args.dnf_budget or e.DEFAULT_BUDGET)
    _write(args.output, checker.report_text(verdicts, diags))
    status = checker.overall_status(verdicts)
    if errors(diags) and status != checker.VIOLATED:
        return EXIT_BAD_INPUT        # structural errors, no violated verdict
    return {checker.OK: EXIT_OK, checker.VIOLATED: EXIT_VIOLATED,
            checker.INCONCLUSIVE: EXIT_INCONCLUSIVE}[status]


def cmd_emit_isar(args):
    from . import isar
    model = _load_model(args.input)
    try:
        text = isar.emit_theory(model, isar.EmitConfig(
            not args.no_comments, args.legacy_connection_names,
            args.strict_symbols))
    except isar.UnmappedSymbol as exc:
        print("error: UNMAPPED_SYMBOL: no Isabelle image for '%s'" % exc,
              file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(args.output, text)
    return EXIT_OK


def cmd_search(args):
    from . import entailment as e, oracle
    from .printer import print_step
    model = _load_model(args.input)
    contract = _pick_contract(model, args.contract)
    result = oracle.search_proof(model, contract, args.max_steps,
                                 args.dnf_budget or e.DEFAULT_BUDGET)
    if result.status == oracle.FOUND:
        _write(args.output, "".join(print_step(s) + "\n"
                                    for s in result.proof))
        return EXIT_OK
    reason = ": " + result.reason if result.reason else ""
    print("%s after exploring %d fact(s)%s" % (
        result.status, result.steps_explored, reason), file=sys.stderr)
    return (EXIT_VIOLATED if result.status == oracle.NO_PROOF_AT_BOUND
            else EXIT_INCONCLUSIVE)


def cmd_simulate(args):
    from . import oracle
    model = _load_model(args.input, validate=True)
    try:
        universe = oracle.parse_universe(_read(args.universe))
        contract = _pick_contract(model, args.contract)
        holds, counter = oracle.verify_satisfaction(model, contract, universe,
                                                    horizon=args.horizon)
    except ValueError as exc:    # a bad universe, or one leaving no trace
        _fail(exc)
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
    from .printer import print_model
    model = _load_model(args.input)
    _write(args.output, print_model(model))
    return EXIT_OK


def positive(text):
    """An integer option that must be at least 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


REQUIRED = object()
FLAG = (None, False)

# command -> (handler, {flag: (converter, default)}) for the options besides
# the model file and -o/--output; a converter of None makes an on/off flag.
COMMANDS = {                    # a budget of None is the kernel's default
    "check": (cmd_check, {"--dnf-budget": (positive, None)}),
    "emit-isar": (cmd_emit_isar, {"--no-comments": FLAG,
                                  "--legacy-connection-names": FLAG,
                                  "--strict-symbols": FLAG}),
    "search": (cmd_search, {"--contract": (str, None),
                            "--max-steps": (positive, 32),
                            "--dnf-budget": (positive, None)}),
    "simulate": (cmd_simulate, {"--universe": (str, REQUIRED),
                                "--contract": (str, None),
                                "--horizon": (positive, None)}),
    "fmt": (cmd_fmt, {}),
}


def _usage(names, error=None):
    """Print each command's usage, then exit: 0 for -h, 3 after an error."""
    for name in names:
        words = ["usage: apml", name, "[-h] [-o OUTPUT]"]
        for flag, (convert, default) in COMMANDS[name][1].items():
            word = flag if convert is None else "%s %s" % (
                flag, "N" if convert is positive else flag[2:].upper())
            words.append(word if default is REQUIRED else "[%s]" % word)
        print(*words, "input", file=sys.stderr if error else sys.stdout)
    if error:
        print("apml: error: " + error, file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT if error else EXIT_OK)


def parse_args(argv):
    """The handler of the command ``argv`` names and the arguments it reads,
    as each flag's dest; an option's value is the next argument or after =."""
    name = argv[0] if argv else None
    if name not in COMMANDS:
        _usage(COMMANDS, None if name in ("-h", "--help") else
               "invalid command %r" % name if argv else
               "the following arguments are required: command")
    func, options = COMMANDS[name]
    options = dict(options, **{"--output": (str, None)})
    values = dict({f: d for f, (_, d) in options.items()}, input=REQUIRED)
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        flag = "--output" if flag == "-o" else flag
        convert = options.get(flag, FLAG)[0]
        if arg in ("-h", "--help"):
            _usage([name])
        elif not arg.startswith("-") and values["input"] is REQUIRED:
            values["input"] = arg
        elif flag not in options or convert is None and eq:
            _usage([name], "unrecognized argument %s" % arg)
        elif convert is None:
            values[flag] = True
        elif not eq and (value := next(rest, None)) is None:
            _usage([name], "argument %s: expected a value" % flag)
        else:
            try:
                values[flag] = convert(value)
            except ValueError:
                _usage([name], "argument %s: invalid %s value: %r"
                       % (flag, convert.__name__, value))
    if missing := [flag for flag, v in values.items() if v is REQUIRED]:
        _usage([name], "the following arguments are required: "
               + ", ".join(missing))
    return func, SimpleNamespace(**{f.lstrip("-").replace("-", "_"): v
                                    for f, v in values.items()})


def main(argv=None):
    func, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return func(args)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:         # a bug, reported without a traceback
        print("error: internal: %s: %s"
              % (type(exc).__name__, " ".join(str(exc).split())),
              file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
