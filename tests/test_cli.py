"""Command line interface: subcommands, exit codes, outputs."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from apml import checker, oracle
from apml.cli import COMMANDS, main, parse_args
from apml.parser import MAX_NESTING, parse_model

from conftest import CORPUS, ROOT
from oracles import (edit_source, mutated_corpus, trace_satisfies,
                     violated_window)

RADDER = str(CORPUS / "radder.apml")
MERGE1 = str(CORPUS / "radder_merge1.apml")
DUR6 = str(CORPUS / "radder_duration6.apml")
RELAY = str(CORPUS / "relay.apml")
TINY = str(CORPUS / "tiny.uni")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def relay_with(tmp_path, old, new):
    """relay.apml with its first ``old`` replaced by ``new``."""
    text = (CORPUS / "relay.apml").read_text()
    assert old in text
    path = tmp_path / "relay.apml"
    path.write_text(text.replace(old, new, 1))
    return str(path)


# ---------------------------------------------------------------------------
# check

def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", RADDER)
    assert code == 0
    assert out.splitlines()[0] == "contract sum: ok"


C3 = ROOT / "tests" / "golden" / "c3"


@pytest.mark.parametrize("name, code", [
    ("r1", 2), ("r2", 2), ("r3", 0), ("r4", 0)])
def test_a_c3_witness_outside_the_facts_is_never_violated(name, code,
                                                          tmp_path, capsys):
    """C3 reproducers that every trace over {0, 1} satisfies, with f as
    negation.  r1 and r2 have an ``Or`` in the hypotheses and a witness
    the first case cannot offer: check and search are inconclusive.  In r3
    and r4 the witness is built or registered by class: both prove it, and
    check accepts search's proof."""
    model = C3 / (name + ".apml")
    assert run(capsys, "check", str(model))[:2] == (
        code, (C3 / (name + ".txt")).read_text())
    found, out, _ = run(capsys, "search", str(model))
    assert found == code
    assert run(capsys, "simulate", str(model), "--universe",
               str(C3 / "not.uni"))[0] == 0
    if code == 0:
        head, rest = model.read_text().split("proof {\n")
        proved = tmp_path / (name + ".apml")
        proved.write_text(head + "proof {\n" + out + rest.split("\n", 1)[1])
        assert run(capsys, "check", str(proved))[:2] == (0, (
            C3 / (name + ".txt")).read_text())


@pytest.mark.parametrize("name", ["r1", "r2"])
def test_search_names_an_undecided_trigger_check(name, capsys):
    """No budget runs out on R1 or R2: search is inconclusive for the
    reason check gives, and names the rationale whose C3 it is.  Under a
    DNF budget the C3 runs past, the budget is named instead."""
    model = str(C3 / (name + ".apml"))
    assert run(capsys, "search", model) == (
        2, "", "inconclusive after exploring 0 fact(s): B.g: trigger 0: no "
        "instantiation from the first hypothesis case holds in every case\n")
    assert run(capsys, "search", model, "--dnf-budget", "1") == (
        2, "", "budget-exceeded after exploring 0 fact(s)\n")


def test_check_violated(capsys):
    code, out, _ = run(capsys, "check", MERGE1)
    assert code == 1
    assert "C2 violated" in out


@pytest.mark.parametrize("name, code", [
    ("radder", 0), ("radder_duration6", 0), ("radder_merge1", 1),
    ("radder_merge2", 1), ("relay", 0)])
def test_check_matches_its_golden(name, code, capsys):
    """tgmt's report is pinned by corpus/tgmt_verdicts.txt."""
    assert run(capsys, "check", str(CORPUS / (name + ".apml")))[:2] == (
        code, (ROOT / "tests" / "golden" / "check" / (name + ".txt"))
        .read_text())


def test_check_structural_errors_alone_exit_3(tmp_path, capsys):
    """A model whose proofs check but whose connections are malformed is bad
    input, not a violation; tgmt keeps exit 1 for its violated verdicts."""
    text = (CORPUS / "relay.apml").read_text().replace(
        "(Stage2.i, Stage1.o)", "(Stage2.i, Stage1.o), (Stage1.i, Stage2.i)")
    bad = tmp_path / "relay.apml"
    bad.write_text(text)
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 3
    assert "[CONNECTION_NOT_OUTPUT]" in out
    assert "contract relayed: ok" in out.splitlines()
    code, out, _ = run(capsys, "check", str(CORPUS / "tgmt.apml"))
    assert code == 1 and "violated" in out


def test_connection_diagnostics_name_the_file_and_line(tmp_path, capsys):
    """A connection diagnostic points at the connection's parenthesis in the
    file checked, not at line 1 of ``<input>``."""
    path = tmp_path / "relay.apml"
    path.write_text((CORPUS / "relay.apml").read_text().replace(
        "(Stage2.i, Stage1.o)", "(Stage1.o, Stage2.i)"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 3
    assert out.splitlines()[:2] == [
        "%s:48:5: error: connection source Stage1.o is not an input port "
        "[CONNECTION_NOT_INPUT]" % path,
        "%s:48:5: error: connection target Stage2.i is not an output port "
        "[CONNECTION_NOT_OUTPUT]" % path]


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "nonexistent.apml")
    assert code == 3
    assert "error:" in err


def test_check_garbage_input(tmp_path, capsys):
    bad = tmp_path / "bad.apml"
    bad.write_text("this is not a model")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 3
    assert "EXPECTED_PATTERN" in err


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_a_model_that_is_not_utf8_is_bad_input(tmp_path, capsys, command):
    bad = tmp_path / "bad.apml"
    bad.write_bytes(b"\xff" + (CORPUS / "relay.apml").read_bytes())
    code, out, err = run(capsys, command, str(bad))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "not UTF-8" in err
    assert "internal" not in err


BOM = b"\xef\xbb\xbf"


def test_a_byte_order_mark_before_a_model_is_ignored(tmp_path, capsys):
    bom = tmp_path / "relay.apml"
    bom.write_bytes(BOM + (CORPUS / "relay.apml").read_bytes())
    assert run(capsys, "check", str(bom)) == (
        0, (ROOT / "tests" / "golden" / "check" / "relay.txt").read_text(), "")


def test_a_byte_order_mark_before_a_universe_is_ignored(tmp_path, capsys):
    bom = tmp_path / "tiny.uni"
    bom.write_bytes(BOM + (CORPUS / "tiny.uni").read_bytes())
    code, out, _ = run(capsys, "simulate", RELAY, "--universe", str(bom))
    assert code == 0
    assert "contract relayed: holds" in out


def test_check_writes_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out, _ = run(capsys, "check", RADDER, "-o", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_text().startswith("contract sum: ok")


def test_output_into_a_missing_directory_is_one_error_line(tmp_path,
                                                            capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "check", RADDER, "-o", str(target))
    assert (code, out) == (3, "")
    assert err == ("error: [Errno 2] No such file or directory: '%s'\n"
                   % target)
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# emit-isar

def test_emit_isar_matches_golden(capsys):
    code, out, _ = run(capsys, "emit-isar", RADDER)
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / "rsum.thy").read_text()


@pytest.mark.parametrize("source, flags", [
    pytest.param(path, (), id=path.stem)
    for path in sorted(CORPUS.glob("*.apml")) if path.stem != "radder"] + [
    pytest.param(CORPUS / "radder.apml",
                 ("--no-comments", "--legacy-connection-names"),
                 id="radder_no_comments_legacy_names")])
def test_emit_isar_matches_its_golden(source, flags, capsys):
    """emit-isar of every corpus model but radder, which rsum.thy pins, and
    of radder without comments and with legacy connection names."""
    golden = "%s%s.thy" % (source.stem,
                           "_no_comments_legacy_names" if flags else "")
    code, out, err = run(capsys, "emit-isar", str(source), *flags)
    assert (code, err) == (0, "")
    assert out == (ROOT / "tests" / "golden" / "isar" / golden).read_text()


def test_emit_isar_leaves_a_step_with_an_empty_reference_set_open(
        tmp_path, capsys):
    path = relay_with(tmp_path, "from [ t1 ]", "from [ {} ]")
    code, out, err = run(capsys, "emit-isar", path)
    assert (code, err) == (0, "")
    at = out.index("  (* step 0 *)\n")
    assert out[at:].splitlines()[1:3] == [
        '  have s0: "s1o (n+1) = x" sorry (* EMPTY_REFSET violated *)',
        "  (* step 1 *)"]


def test_emit_isar_strict_mode_fails_on_unmapped_symbols(capsys):
    code, _, err = run(capsys, "emit-isar", str(CORPUS / "tgmt.apml"),
                       "--strict-symbols")
    assert code == 3
    # the first symbol the theory uses: doorsOpened's first trigger
    assert err == ("error: UNMAPPED_SYMBOL: no Isabelle image for "
                   "'DoorReleaseStatus.DT_DoorReleaseStatus_Released'\n")


# ---------------------------------------------------------------------------
# search

def test_search_finds_and_prints_a_proof(capsys):
    code, out, _ = run(capsys, "search", RADDER)
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / "search_radder.txt").read_text()


def test_search_reports_no_proof(capsys):
    code, _, err = run(capsys, "search", DUR6)
    assert code == 1
    assert "no-proof-at-bound" in err


TGMT = str(CORPUS / "tgmt.apml")


@pytest.mark.parametrize("argv, code, err, golden", [
    ([RADDER], 0, "", "search_radder.txt"),
    ([DUR6], 1, "no-proof-at-bound after exploring 3 fact(s)\n", None),
    ([RELAY], 0, "", "search/relay.txt"),
    ([TGMT, "--contract", "PSDAreClosedWhenTrainIsMoving"], 2,
     "budget-exceeded after exploring 32 fact(s)\n", None),
    ([TGMT, "--contract", "PSDAreOpenIfNotMovingAndMatchingPosition"], 2,
     "budget-exceeded after exploring 32 fact(s)\n", None),
    ([TGMT, "--contract", "trainOpensTheDoorOnTheRightSide"], 0, "",
     "search/tgmt_trainOpensTheDoorOnTheRightSide.txt"),
    ([TGMT, "--contract", "PSDAreClosedWhenTrainGivesClosedIndication"], 2,
     "budget-exceeded after exploring 32 fact(s)\n", None),
    ([TGMT, "--contract", "trainOpensTheDoorOnTheRightSide", "--max-steps",
      "1"], 2, "budget-exceeded after exploring 1 fact(s)\n", None),
], ids=["radder", "radder_duration6", "relay",
        "tgmt-PSDAreClosedWhenTrainIsMoving",
        "tgmt-PSDAreOpenIfNotMovingAndMatchingPosition",
        "tgmt-trainOpensTheDoorOnTheRightSide",
        "tgmt-PSDAreClosedWhenTrainGivesClosedIndication",
        "tgmt-trainOpensTheDoorOnTheRightSide-max-steps-1"])
def test_search_matches_its_pin(argv, code, err, golden, capsys):
    """Exit code, proof and stderr of each search the corpus-cli benchmark
    runs, of relay's, and of one cut short by --max-steps: stderr names the
    facts explored, never more than the budget."""
    out = (ROOT / "tests" / "golden" / golden).read_text() if golden else ""
    assert run(capsys, "search", *argv) == (code, out, err)


def test_search_budget_exceeded(capsys):
    code, _, err = run(capsys, "search", RADDER, "--max-steps", "1")
    assert code == 2
    assert "budget-exceeded" in err


def test_search_inconclusive_on_a_case_split_is_budget_exceeded(tmp_path,
                                                                capsys):
    path = relay_with(tmp_path, "t1: [Stage1.i = x]",
                      "t1: [Stage1.i = x] \\/ [Stage1.i = x]")
    code, out, _ = run(capsys, "check", path, "--dnf-budget", "1")
    assert code == 2
    assert ("C3 inconclusive: step 0 trigger 0: hypothesis DNF exceeds "
            "budget 1") in out
    code, _, err = run(capsys, "search", path, "--dnf-budget", "1")
    assert (code, err) == (2, "budget-exceeded after exploring 0 fact(s)\n")


def test_search_inconclusive_on_the_goal_is_budget_exceeded(tmp_path,
                                                           capsys):
    """Stage2.fwd guarantees a disjunction, and s1 states it: at
    --dnf-budget 1 the goal check is as inconclusive for search as C5 and
    FINAL_STATE are for check."""
    text = (CORPUS / "relay.apml").read_text()
    head, stage2, tail = text.partition("CType Stage2")
    tail = tail.replace("guarantees { [o = x] }",
                        "guarantees { [o = x] \\/ [o = x] }", 1).replace(
        "have [Stage2.o = x]", "have [Stage2.o = x] \\/ [Stage2.o = x]", 1)
    path = tmp_path / "relay.apml"
    path.write_text(head + stage2 + tail)
    code, out, _ = run(capsys, "check", str(path), "--dnf-budget", "1")
    assert code == 2
    assert "C5 inconclusive: step 1: hypothesis DNF exceeds budget 1" in out
    code, _, err = run(capsys, "search", str(path), "--dnf-budget", "1")
    assert (code, err) == (2, "budget-exceeded after exploring 2 fact(s)\n")
    code, _, _ = run(capsys, "search", str(path))
    assert code == 0


def test_a_guarantee_implied_by_its_first_conjunct_is_never_split(
        tmp_path, capsys):
    """Stage1.fwd guarantees [o = x] and 13 copies of [o = x] \\/ [o = x]:
    8,192 cases as a DNF, past the default budget, but the first conjunct
    implies every disjunction, so check and search split nothing."""
    fold = " /\\ ".join(["[o = x]"] + ["([o = x] \\/ [o = x])"] * 13)
    path = relay_with(tmp_path, "guarantees { [o = x] }",
                      "guarantees { %s }" % fold)
    code, out, _ = run(capsys, "check", path)
    assert code == 0, out
    # relay's two-step proof, s0 stating Stage1.fwd's whole guarantee
    golden = (ROOT / "tests" / "golden" / "search" / "relay.txt").read_text()
    golden = golden.replace("have [Stage1.o = x]", "have " + fold.replace(
        "o = x", "Stage1.o = x"))
    assert run(capsys, "search", path) == (0, golden, "")


def test_search_unknown_contract(capsys):
    code, _, err = run(capsys, "search", RADDER, "--contract", "nope")
    assert code == 3
    assert "no architecture contract" in err


@pytest.mark.parametrize("command", [["search"], ["simulate", "--universe",
                                                 TINY]])
def test_model_without_architecture_contracts_is_bad_input(tmp_path, capsys,
                                                            command):
    text = (CORPUS / "relay.apml").read_text()
    cut = text.index("  Contracts {\n    Contract relayed")
    path = tmp_path / "relay.apml"
    path.write_text(text[:cut] + "}\n")
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (3, "")
    assert err == "error: model declares no architecture contracts\n"


# ---------------------------------------------------------------------------
# simulate

def test_simulate_holds(capsys):
    code, out, _ = run(capsys, "simulate", RELAY, "--universe", TINY)
    assert code == 0
    assert out == "contract relayed: holds\n"


def test_simulate_counterexample(tmp_path, capsys):
    text = (CORPUS / "relay.apml").read_text().replace("duration 2",
                                                       "duration 1", 1)
    # the architecture now promises the result one tick too early
    broken = tmp_path / "relay.apml"
    broken.write_text(text)
    code, out, _ = run(capsys, "simulate", str(broken), "--universe", TINY)
    assert code == 1
    assert out.splitlines()[0] == "contract relayed: counterexample"
    assert "Stage2.o=" in out


def test_simulate_counterexample_matches_golden(tmp_path, capsys):
    """The first counterexample of relay with architecture duration 1, as
    the search over every cell at once found it."""
    text = (CORPUS / "relay.apml").read_text().replace("duration 2",
                                                       "duration 1", 1)
    broken = tmp_path / "relay.apml"
    broken.write_text(text)
    code, out, _ = run(capsys, "simulate", str(broken), "--universe", TINY)
    assert code == 1
    assert out == (ROOT / "tests" / "golden"
                   / "simulate_relay_d1.txt").read_text()


def test_radder_duration6_counterexample_matches_golden(capsys):
    """Over {0, 1} with add as xor, the reliable adder promising its sum at
    6 has a counterexample: a trace every component contract allows in
    which the sum is wrong at 6.  The Dispatcher's, the Adders' and the
    Merger's fired equations fix their outputs, so the search decides
    in exactly 9,125 states."""
    xor = str(ROOT / "tests" / "golden" / "simulate" / "xor.uni")
    code, out, _ = run(capsys, "simulate", DUR6, "--universe", xor,
                       "--horizon", "1")
    assert code == 1
    assert out == (ROOT / "tests" / "golden" / "simulate"
                   / "radder_duration6.txt").read_text()
    model, _ = parse_model(pathlib.Path(DUR6).read_text())
    universe = oracle.parse_universe(pathlib.Path(xor).read_text())
    trace = [dict(cell.split("=") for cell in line.split()[1:])
             for line in out.splitlines()[1:]]
    assert all(trace_satisfies(universe, trace, c)
               for ct in model.component_types for c in ct.contracts)
    contract = model.contracts[0]
    assert violated_window(universe, trace, contract, 1)
    holds, counter = oracle.verify_satisfaction(model, contract, universe,
                                                horizon=1, budget=9125)
    assert not holds and counter == trace
    with pytest.raises(oracle.ExplosionError):
        oracle.verify_satisfaction(model, contract, universe, horizon=1,
                                   budget=9124)


def test_simulate_zero_duration_components(tmp_path, capsys):
    """A component contract of duration 0 is structurally invalid, so
    simulate refuses the model as check does, naming each error."""
    text = (CORPUS / "relay.apml").read_text().replace("duration 1",
                                                       "duration 0")
    broken = tmp_path / "relay.apml"
    broken.write_text(text)
    code, out, err = run(capsys, "simulate", str(broken), "--universe", TINY)
    assert (code, out) == (3, "")
    assert [line.rpartition(" [")[2] for line in err.splitlines()] == [
        "CONTRACT_DURATION_POSITIVE]"] * 2


def test_simulate_bad_universe(tmp_path, capsys):
    bad = tmp_path / "bad.uni"
    bad.write_text("frob X: 1 2")
    code, _, err = run(capsys, "simulate", RELAY, "--universe", str(bad))
    assert code == 3
    assert "universe line" in err


@pytest.mark.parametrize("universe, missing", [
    ("sort Bit.BIT: 0 1\n", "sort 'Basic.NAT'"),
    ("sort Basic.NAT:\n", "sort 'Basic.NAT'"),
    ("sort Basic.NAT: 0 1\n", "operation 'Basic.add'"),
])
def test_simulate_refuses_a_universe_that_leaves_no_trace(tmp_path, capsys,
                                                          universe, missing):
    """A used sort without values, or an applied operation without a
    table, would make simulate's verdict vacuous."""
    path = tmp_path / "u.uni"
    path.write_text(universe)
    code, out, err = run(capsys, "simulate", DUR6, "--universe", str(path))
    assert (code, out) == (3, "")
    assert missing in err


def test_a_horizon_past_any_list_is_a_usage_error(capsys):
    """Only a horizon whose trace overflows a list's index is run here: a
    smaller large one would lay out every cell of its trace first."""
    code, out, err = run(capsys, "simulate", RELAY, "--universe", TINY,
                         "--horizon", "100000000000000000000000")
    assert (code, out) == (3, "")
    assert err.startswith("error: horizon ") and "internal" not in err


def test_simulate_explosion_is_inconclusive(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise oracle.ExplosionError("too many traces")

    monkeypatch.setattr(oracle, "verify_satisfaction", explode)
    code, out, err = run(capsys, "simulate", RELAY, "--universe", TINY)
    assert (code, out, err) == (2, "", "inconclusive: too many traces\n")


# ---------------------------------------------------------------------------
# fmt

def test_fmt_is_idempotent(tmp_path, capsys):
    code, once, _ = run(capsys, "fmt", RADDER)
    assert code == 0
    formatted = tmp_path / "canon.apml"
    formatted.write_text(once)
    code, twice, _ = run(capsys, "fmt", str(formatted))
    assert code == 0
    assert once == twice


@pytest.mark.parametrize("source", sorted(CORPUS.glob("*.apml"))
                         + [ROOT / "tests" / "fmt_edge_cases.apml"],
                         ids=lambda path: path.name)
def test_fmt_matches_golden(source, capsys):
    """fmt of every corpus model and of one model of layouts the corpus
    lacks (an empty proof, a contract without variables or triggers, a
    component without ports or contracts, DTs without a sort)."""
    code, out, err = run(capsys, "fmt", str(source))
    assert (code, err) == (0, "")
    assert out == (ROOT / "tests" / "golden" / "fmt" / source.name).read_text()


def test_internal_error_is_one_line(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug\nspanning lines")

    monkeypatch.setattr(checker, "check_model", broken)
    code, _, err = run(capsys, "check", RELAY)
    assert code == 3
    assert err.startswith("error: internal: ")
    assert err.count("\n") == 1


# Start-up cost: what a command imports

IMPORT_PROBE = """
import contextlib, importlib, io, json, pkgutil, sys
import apml
from apml import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
out = {"code": code,
       "loaded": sorted(k for k in sys.modules if k.startswith("apml."))}
for info in pkgutil.iter_modules(apml.__path__, "apml."):
    importlib.import_module(info.name)
out["dataclasses"] = sorted(
    name for key, mod in sys.modules.items() if key.startswith("apml.")
    for name, obj in vars(mod).items()
    if isinstance(obj, type) and obj.__module__ == key
    and hasattr(obj, "__dataclass_fields__"))
print(json.dumps(out))
"""

SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def test_commands_import_only_what_they_use():
    """fmt loads neither the checker, the Isabelle emitter, the oracle nor
    the entailment kernel; check loads the checker only; only fmt and search
    load the printer.  Records other than the five model containers that
    ``dataclasses.replace`` derives variants from are not dataclasses."""
    out = {}
    for argv in (["fmt", RELAY], ["check", RELAY], ["emit-isar", RELAY],
                 ["simulate", RELAY, "--universe", TINY]):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                              env=SRC_ENV, capture_output=True, text=True,
                              check=True)
        out[argv[0]] = json.loads(proc.stdout)
        assert out[argv[0]]["code"] == 0
    after_fmt, after_check = out["fmt"]["loaded"], out["check"]["loaded"]
    assert not {"apml.checker", "apml.isar", "apml.oracle",
                "apml.entailment"} & set(after_fmt)
    assert "apml.checker" in after_check
    assert not {"apml.isar", "apml.oracle"} & set(after_check)
    for command in ("check", "emit-isar", "simulate"):
        assert "apml.printer" not in out[command]["loaded"], command
    assert out["fmt"]["dataclasses"] == sorted([
        "ArchitectureContract", "ComponentType", "Contract", "Model",
        "ProofStep"])


@pytest.mark.parametrize("argv", [
    ["check", RELAY], ["emit-isar", RELAY], ["fmt", RELAY],
    ["search", RELAY], ["simulate", RELAY, "--universe", TINY]],
    ids=lambda argv: argv[0])
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    """Each command, as a fresh ``python -S -m apml.cli`` process, starts
    without ``dataclasses`` and ``inspect``, which would add about a fifth
    to its start-up, without ``argparse`` and the ``gettext`` and ``locale``
    its messages load, and without ``typing``.  ``-S`` keeps ``site`` from
    loading any of them first."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "apml.cli", *argv],
        env=SRC_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "apml.model" in loaded
    assert not {"dataclasses", "inspect", "argparse", "gettext", "locale",
                "typing"} & loaded


# Predicate chains: every command, at the widths and depths the parser takes

EXTRA_ARGS = {"check": [], "fmt": [], "emit-isar": [], "search": [],
              "simulate": ["--universe", TINY]}


def relay_with_guarantee(tmp_path, guarantee):
    """relay.apml with Stage1.fwd guaranteeing ``guarantee``."""
    text = (CORPUS / "relay.apml").read_text().replace(
        "guarantees { [o = x] }", "guarantees { %s }" % guarantee, 1)
    path = tmp_path / "relay.apml"
    path.write_text(text)
    return path


def run_every_way(capsys, command, path):
    """Run a command on a model that holds; fmt output must reparse to the
    same model."""
    code, out, err = run(capsys, command, *EXTRA_ARGS[command], str(path))
    assert code == 0, err
    assert "internal" not in err
    if command == "fmt":
        again, diags = parse_model(out)
        assert not diags
        assert again == parse_model(path.read_text())[0]


@pytest.mark.parametrize("width", [3000, 30000])
@pytest.mark.parametrize("command", EXTRA_ARGS)
def test_wide_conjunction_under_every_command(tmp_path, capsys, command,
                                              width):
    path = relay_with_guarantee(tmp_path, " /\\ ".join(["[o = x]"] * width))
    guarantee = parse_model(path.read_text())[0] \
        .component_types[0].contracts[0].guarantee
    assert len(guarantee.parts) == width
    run_every_way(capsys, command, path)


@pytest.mark.parametrize("command", EXTRA_ARGS)
def test_alternation_at_the_nesting_limit_under_every_command(
        tmp_path, capsys, command):
    pred = "[o = x]"
    for level in range(MAX_NESTING):
        pred = "[o = x] %s (%s)" % ("/\\" if level % 2 else "\\/", pred)
    run_every_way(capsys, command, relay_with_guarantee(tmp_path, pred))


# edits drawn per corpus file: relay is the one model tiny.uni can simulate,
# and a tgmt command costs about ten times a radder one
EDITS = {"relay.apml": 60, "tgmt.apml": 4}


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.apml")))
def test_edited_corpus_models_exit_in_class_under_every_command(
        tmp_path, capsys, name):
    """Seeded edits that keep the tokens well formed never make a command
    fail inside the tool or exit out of 0-3, and every simulate exit 1
    prints a trace that satisfies each component contract and violates the
    architecture contract."""
    rng = random.Random("edits:" + name)
    universe = oracle.parse_universe(pathlib.Path(TINY).read_text())
    text = (CORPUS / name).read_text()
    path = tmp_path / name
    counterexamples = 0
    for draw in range(EDITS.get(name, 12)):
        edited = edit_source(rng, text)
        path.write_text(edited)
        for command, extra in EXTRA_ARGS.items():
            code, out, err = run(capsys, command, *extra, str(path))
            assert "error: internal" not in err, (draw, command, err)
            assert code in (0, 1, 2, 3), (draw, command, code)
            if command != "simulate" or code != 1:
                continue
            model, _ = parse_model(edited)
            trace = [dict(cell.split("=") for cell in line.split()[1:])
                     for line in out.splitlines()[1:]]
            assert all(trace_satisfies(universe, trace, c)
                       for ct in model.component_types
                       for c in ct.contracts), draw
            contract = model.contracts[0]
            assert violated_window(universe, trace, contract,
                                   contract.duration + 1), draw
            counterexamples += 1
    if name == "relay.apml":             # the trace check is not vacuous
        assert counterexamples


def test_parse_mutations_exit_in_class_under_every_command(tmp_path,
                                                          capsys):
    """The seeded edits whose parses tests/golden/parse_mutations.txt pins
    never make a command fail inside the tool or exit out of 0-3.  Every
    command runs on the inputs that parse without a diagnostic; on the
    rest each command stops in the same ``_load_model``, so check alone
    runs, and the golden says which are which without a second parse."""
    golden = (ROOT / "tests" / "golden" / "parse_mutations.txt").read_text()
    path = tmp_path / "mutated.apml"
    clean = 0
    for line, (name, k, text) in zip(golden.splitlines(),
                                      mutated_corpus(CORPUS), strict=True):
        assert line.split()[:2] == [name, str(k)]
        commands = EXTRA_ARGS if line.split()[2] == "-" else {"check": []}
        clean += commands is EXTRA_ARGS
        path.write_text(text)
        for command, extra in commands.items():
            code, _, err = run(capsys, command, *extra, str(path))
            assert "error: internal" not in err, (name, k, command, err)
            assert code in (0, 1, 2, 3), (name, k, command, code)
    assert clean == 46


def test_non_ascii_digit_is_a_lex_error(tmp_path, capsys):
    model = tmp_path / "digit.apml"
    model.write_text((CORPUS / "relay.apml").read_text().replace(
        "duration 1", "duration \u00b2", 1))
    code, _, err = run(capsys, "check", str(model))
    assert code == 3
    assert "[LEX_ERROR]" in err and "internal" not in err


def test_lexical_errors_match_their_golden(capsys, monkeypatch):
    """A stray character, identifiers with non-ASCII letters, a non-ASCII
    digit and a trailing unterminated block comment, as ``check`` reports
    them; CI runs the same command."""
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, "check", "tests/golden/lex_errors.apml")
    assert code == 3 and out == ""
    assert err == (ROOT / "tests/golden/lex_errors.txt").read_text(
        encoding="utf-8")


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_nesting_past_the_limit_is_a_diagnostic(tmp_path, capsys, command):
    deep = "(" * 3000 + "[o = x]" + ")" * 3000
    text = (CORPUS / "relay.apml").read_text().replace(
        "guarantees { [o = x] }", "guarantees { %s }" % deep, 1)
    model = tmp_path / "deep.apml"
    model.write_text(text)
    code, _, err = run(capsys, command, str(model))
    assert code == 3
    line = next(n for n, s in enumerate(text.splitlines(), 1) if "(((" in s)
    col = text.splitlines()[line - 1].index("(") + 1 + MAX_NESTING
    assert err == ("%s:%d:%d: error: nesting deeper than %d levels "
                   "[NESTING_LIMIT]\n" % (model, line, col, MAX_NESTING))


@pytest.mark.parametrize("argv", [["check"], ["simulate", RELAY], [],
                                  ["search", RADDER, "--max-steps"]])
def test_missing_arguments_exit_nonzero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: apml ")
    assert err[-1].startswith("apml: error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", RELAY, "--universe", TINY, "--horizon", "0"],
    ["simulate", RELAY, "--universe", TINY, "--horizon", "-3"],
    ["search", RADDER, "--dnf-budget", "0"],
    ["search", RADDER, "--max-steps", "0"],
    ["search", RADDER, "--max-steps", "-2"],
    ["check", RADDER, "--dnf-budget", "0"],
    ["simulate", RELAY, "--universe", TINY, "--horizon", "abc"],
    ["search", RADDER, "--max-steps=1.5"],
])
def test_horizon_and_budget_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "invalid positive value" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bogus", RELAY], ["check", RELAY, "--nope"], ["check", RELAY, "extra"],
    ["check", RELAY, "--dnf", "3"], ["emit-isar", RELAY, "--no-comments=1"]],
    ids=["command", "option", "second-input", "abbreviation", "flag-value"])
def test_unknown_arguments_are_usage_errors(capsys, argv):
    """Only whole option names are taken: an abbreviation is unknown too."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: apml ")
    assert err.splitlines()[-1].startswith("apml: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check", "-h"],
                                  ["simulate", RELAY, "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert all(line.startswith("usage: apml ") for line in lines)
    assert len(lines) == (1 if len(argv) > 1 else len(COMMANDS))


@pytest.mark.parametrize("argv, expected", [
    (["search", RADDER, "--max-steps=5"], {"max_steps": 5}),
    (["search", "--max-steps", "5", RADDER], {"max_steps": 5}),
    (["search", RADDER, "--max-steps", "1", "--max-steps=5"],
     {"max_steps": 5}),
    (["search", RADDER], {"max_steps": 32, "dnf_budget": None,
                          "contract": None, "output": None}),
    (["emit-isar", "--strict-symbols", RADDER, "-o", "t.thy"],
     {"strict_symbols": True, "no_comments": False, "output": "t.thy"}),
    (["simulate", "--universe=u", RELAY, "--horizon", "3", "--output=-"],
     {"universe": "u", "horizon": 3, "output": "-"}),
])
def test_options_take_either_spelling_in_any_order(argv, expected):
    """``--name value`` and ``--name=value`` alike, before or after the
    model file; of a repeated option the last one counts."""
    func, args = parse_args(argv)
    assert func is COMMANDS[argv[0]][0]
    assert args.input in (RADDER, RELAY)
    assert {name: getattr(args, name) for name in expected} == expected


def test_output_option_before_the_input_writes_the_file(tmp_path, capsys):
    out_file = tmp_path / "rsum.thy"
    code, out, _ = run(capsys, "emit-isar", "--output=%s" % out_file, RADDER)
    assert (code, out) == (0, "")
    assert out_file.read_text() == (
        ROOT / "tests" / "golden" / "rsum.thy").read_text()
