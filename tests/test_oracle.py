"""Finite-domain semantics: universes, traces, satisfaction, proof search."""

import dataclasses
import itertools
import random
import sys

import pytest

from apml import entailment, oracle
from apml import model as m
from apml.checker import check_proof, OK
from apml.oracle import (ExplosionError, FiniteUniverse, layout,
                         parse_universe, search_proof, verify_satisfaction,
                         FOUND, NO_PROOF_AT_BOUND, BUDGET_EXCEEDED)
from apml.diagnostics import errors
from apml.parser import parse_model
from apml.printer import print_model, print_step

from oracles import (SORT, brute_force_verify, compose_behaviors,
                     cone_sizes, eval_predicate, eval_term,
                     naive_search_proof, naive_verify_satisfaction,
                     print_universe, product_dnf, random_chain_model,
                     random_match_case, random_tiny_model, relay_chain_model,
                     trace_satisfies, violated_window)

from conftest import load, CORPUS, FOLD13, ROOT

BIT = "Bit.BIT"


@pytest.fixture(scope="module")
def relay():
    model, diags = load("relay.apml")
    assert not diags
    return model


@pytest.fixture(scope="module")
def bits():
    return parse_universe((CORPUS / "tiny.uni").read_text())


# ---------------------------------------------------------------------------
# Universe files

def test_parse_universe_sections():
    uni = parse_universe("""
# comment
sort B.N: 0 1 2
op B.add: 0 1 -> 1
op B.add: 1 1 -> 2
pred B.even: 0
pred B.even: 2
""")
    assert uni.carriers["B.N"] == ["0", "1", "2"]
    assert uni.operations["B.add"][("0", "1")] == "1"
    assert uni.predicates["B.even"] == {("0",), ("2",)}


def test_parse_universe_rejects_garbage():
    with pytest.raises(ValueError):
        parse_universe("sort")
    with pytest.raises(ValueError):
        parse_universe("frob B.N: 0 1")
    with pytest.raises(ValueError):
        parse_universe("op B.add: 0 1")         # missing arrow


def test_universe_roundtrip():
    text = ("sort B.N: 0 1\n"
            "op B.f: 0 -> 1\n"
            "op B.f: 1 -> 0\n"
            "pred B.p: 1\n")
    assert print_universe(parse_universe(text)) == text


def test_eval_term_and_predicate():
    uni = parse_universe("sort B.N: 0 1\nop B.f: 0 -> 1\npred B.p: 1\n")
    port = m.Port("o", "A", m.OUTPUT, "B.N")
    f = m.App("B.f", (m.PortRef(port),))
    env, state = {"x": "1"}, {"A.o": "0"}
    assert eval_term(uni, f, env, state) == "1"
    assert eval_predicate(uni, m.Eq(f, m.Var("x", "B.N")), env, state)
    assert eval_predicate(uni, m.Atom("B.p", (f,)), env, state)
    assert not eval_predicate(uni, m.Atom("B.p", (m.PortRef(port),)),
                              env, state)


# ---------------------------------------------------------------------------
# Traces

def fwd_contract(relay):
    return relay.component_types[0].contracts[0]


def test_trace_satisfies_forwarding(relay, bits):
    fwd = fwd_contract(relay)
    good = [{"Stage1.i": "1", "Stage1.o": "0"},
            {"Stage1.i": "0", "Stage1.o": "1"},
            {"Stage1.i": "0", "Stage1.o": "0"}]
    assert trace_satisfies(bits, good, fwd)
    bad = [{"Stage1.i": "1", "Stage1.o": "0"},
           {"Stage1.i": "0", "Stage1.o": "0"}]
    assert not trace_satisfies(bits, bad, fwd)


def test_trace_windows_past_the_end_are_unconstrained(relay, bits):
    fwd = fwd_contract(relay)
    # the trigger fires on the last state; its guarantee lies past the end
    assert trace_satisfies(bits, [{"Stage1.i": "1", "Stage1.o": "0"}], fwd)
    assert trace_satisfies(bits, [], fwd)


def test_compose_behaviors_counts(relay, bits):
    traces = list(compose_behaviors(relay, bits, horizon=1))
    # free ports: Stage1.i, Stage1.o, Stage2.o; Stage2.i mirrors Stage1.o
    assert len(traces) == 8
    for (state,) in traces:
        assert state["Stage2.i"] == state["Stage1.o"]
    assert len(list(compose_behaviors(relay, bits, horizon=2))) == 64


def test_compose_behaviors_budget(relay, bits):
    with pytest.raises(ExplosionError):
        list(compose_behaviors(relay, bits, horizon=10, budget=1000))


# ---------------------------------------------------------------------------
# Architecture satisfaction

def test_relay_architecture_is_satisfied(relay, bits):
    ok, counter = verify_satisfaction(relay, relay.contracts[0], bits)
    assert ok and counter is None


def test_wrong_duration_produces_a_counterexample(relay, bits):
    contract = dataclasses.replace(relay.contracts[0], duration=1)
    ok, counter = verify_satisfaction(relay, contract, bits)
    assert not ok
    # the trace is concrete: each state maps every port to a carrier value
    assert counter and all("Stage2.o" in s for s in counter)


def test_verify_satisfaction_budget(relay, bits):
    message = r"^node budget 3 exhausted \(4 nodes enumerated\)$"
    with pytest.raises(ExplosionError, match=message):
        verify_satisfaction(relay, relay.contracts[0], bits, budget=3)


def test_verify_satisfaction_refuses_a_universe_that_leaves_no_trace(relay,
                                                                     bits):
    """A sort without values or an operation without a table would make
    any verdict vacuous.  Free ports' sorts are judged first, then the
    variables' (the components' before the architecture's), then the
    operations."""
    inv = m.App("Bit.inv", (m.Var("x", BIT),))
    stage = relay.component_types[0]
    fwd = stage.contracts[0]
    odd_fwd = dataclasses.replace(fwd, variables=(("x", "Bit.ODD"),),
                                  guarantee=m.Eq(fwd.guarantee.lhs, inv))
    odd_relay = dataclasses.replace(relay, component_types=(
        dataclasses.replace(stage, contracts=(odd_fwd,)),)
        + relay.component_types[1:])
    arch = relay.contracts[0]
    odd_arch = dataclasses.replace(arch, variables=(("x", "Bit.EVEN"),))
    inv_arch = dataclasses.replace(
        arch, guarantee=m.Eq(arch.guarantee.lhs, inv))
    for model, contract, universe, missing in [
            (relay, arch, FiniteUniverse(), "no values for sort 'Bit.BIT'"),
            (odd_relay, odd_arch, bits, "no values for sort 'Bit.ODD'"),
            (relay, odd_arch, bits, "no values for sort 'Bit.EVEN'"),
            (odd_relay, arch, FiniteUniverse(carriers={
                "Bit.BIT": ["0"], "Bit.ODD": ["1"]}),
             "no table for operation 'Bit.inv'"),
            (relay, inv_arch, bits, "no table for operation 'Bit.inv'")]:
        with pytest.raises(ValueError, match="^universe has %s$" % missing):
            verify_satisfaction(model, contract, universe, horizon=1)
    # a table, even an empty one, is judged: inv is nowhere defined
    empty_inv = FiniteUniverse(bits.carriers, {"Bit.inv": {}})
    holds, _ = verify_satisfaction(relay, inv_arch, empty_inv, horizon=1)
    assert holds is False


# ---------------------------------------------------------------------------
# Trace search against the reference search and brute force

def _with_durations(model, durations):
    """The model with its component contracts' durations replaced in order."""
    durations = iter(durations)
    return dataclasses.replace(model, component_types=tuple(
        dataclasses.replace(ct, contracts=tuple(
            dataclasses.replace(c, duration=next(durations))
            for c in ct.contracts))
        for ct in model.component_types))


def test_verify_satisfaction_matches_the_reference_on_relay_variants(relay,
                                                                     bits):
    for stages in itertools.product(range(3), repeat=2):
        model = _with_durations(relay, stages)
        for duration in (1, 2, 3):
            contract = dataclasses.replace(model.contracts[0],
                                           duration=duration)
            assert (verify_satisfaction(model, contract, bits, horizon=1)
                    == naive_verify_satisfaction(model, contract, bits,
                                                 horizon=1)
                    ), (stages, duration)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_satisfaction_matches_the_reference_on_relay_chains(n):
    model = relay_chain_model(n)
    universe = FiniteUniverse(carriers={SORT: ["0", "1"]})
    for duration in (n - 1, n, n + 1):
        contract = dataclasses.replace(model.contracts[0], duration=duration)
        assert (verify_satisfaction(model, contract, universe, horizon=1)
                == naive_verify_satisfaction(model, contract, universe,
                                             horizon=1)), duration


def test_verify_satisfaction_matches_the_reference_on_random_chains():
    """Each chain's contract claims one step less than its total delay, so
    every case has a counterexample.  Skipping a subtree can only lose a
    counterexample, and the first one found must be the reference's; the
    reference takes seconds per chain to prove an unmutated contract."""
    rng = random.Random(20260823)
    universe = FiniteUniverse(carriers={SORT: ["0", "1"]})
    for case in range(100):
        model = random_chain_model(rng)
        contract = model.contracts[0]
        contract = dataclasses.replace(contract,
                                       duration=contract.duration - 1)
        result = verify_satisfaction(model, contract, universe, horizon=1)
        assert not result[0]
        assert result == naive_verify_satisfaction(model, contract, universe,
                                                   horizon=1), case


def test_verify_satisfaction_agrees_with_brute_force_on_tiny_models():
    rng = random.Random(20261018)
    verdicts = []
    while len(verdicts) < 100:
        model, universe = random_tiny_model(rng)
        contract = model.contracts[0]
        horizon = rng.randint(1, 2)
        try:
            # brute force enumerates every trace: keep it to 4096 of them
            expected = brute_force_verify(model, contract, universe, horizon,
                                          budget=4096)
        except ExplosionError:
            continue
        holds, counter = verify_satisfaction(model, contract, universe,
                                             horizon=horizon)
        assert holds == expected, print_model(model)
        if counter is not None:
            assert len(counter) == horizon + contract.duration + 1
            assert all(trace_satisfies(universe, counter, c)
                       for ct in model.component_types for c in ct.contracts)
            assert violated_window(universe, counter, contract, horizon)
        verdicts.append(holds)
    assert 20 <= verdicts.count(True) <= 80


def test_component_duration_at_a_trigger_offset_is_checked_by_window(relay,
                                                                     bits):
    """With duration 0 a forwarder constrains the state its trigger reads,
    so its output cannot be computed from earlier states."""
    model = _with_durations(relay, (0, 0))
    contract = model.contracts[0]
    holds, counter = verify_satisfaction(model, contract, bits, horizon=1)
    assert not holds
    assert holds == brute_force_verify(model, contract, bits, horizon=1)
    assert all(s["Stage2.o"] == s["Stage1.i"] for s in counter)


def test_a_repeated_equation_gives_one_functional_result(relay, bits):
    """A guarantee repeating ``[o = x]`` fixes ``o`` by one equation, and
    the relay still holds."""
    stage = relay.component_types[0]
    fwd = stage.contracts[0]
    repeated = dataclasses.replace(
        fwd, guarantee=m.conjoin([fwd.guarantee] * 3))
    assert oracle._equations(repeated) == [(fwd.guarantee.lhs.port,
                                            fwd.guarantee.rhs)]
    model = dataclasses.replace(relay, component_types=(
        dataclasses.replace(stage, contracts=(repeated,)),)
        + relay.component_types[1:])
    assert verify_satisfaction(model, model.contracts[0], bits) == (True,
                                                                    None)


def test_outputs_forced_to_two_values_leave_no_trace_to_refute():
    """Stage1 of relay at duration 1 also guarantees ``[o = Bit.f[x]]``,
    with f as negation: the two functional contracts force different values
    on Stage1.o, so no composed trace exists and the contract holds, though
    relay alone has a counterexample at that duration."""
    text = (CORPUS / "relay.apml").read_text().replace(
        "duration 2", "duration 1")
    model, _ = parse_model(text)
    universe = parse_universe(
        (ROOT / "tests" / "golden" / "c3" / "not.uni").read_text())
    assert not verify_satisfaction(model, model.contracts[0], universe)[0]
    text = text.replace("Sort BIT", "Sort BIT Operation f: Bit.BIT => Bit.BIT")
    text = text.replace("""guarantees { [o = x] }
          duration 1
        }""", """guarantees { [o = x] }
          duration 1
        },
        Contract neg {
          var x: Bit.BIT
          triggers { t1: [i = x] }
          guarantees { [o = Bit.f[x]] }
          duration 1
        }""", 1)
    model, diags = parse_model(text)
    assert not diags and not m.validate_structure(model)
    contract = model.contracts[0]
    assert verify_satisfaction(model, contract, universe) == (True, None)
    assert naive_verify_satisfaction(model, contract, universe) == (True,
                                                                    None)


# A delay-2 inverter: Inv.o at t + 2 is the negation of Inv.i at t.  The
# contract claims Inv.o is one at 4 when Inv.i is one at 0, but Inv.o at 4
# follows Inv.i at 2.  The search first exhausts the prefixes with Inv.i = 0
# at 2; a memo keyed on the last state alone would then skip those with
# Inv.i = 1 at 2, whose states at 3 are the same, and miss the counterexample.
INVERTER = """Pattern Inv ShortName inv {
  DTSpec { DT Bit ( Sort BIT
                    Operation neg: Bit.BIT => Bit.BIT
                    Predicate one: Bit.BIT ) }
  CTypes {
    CType Inv {
      InputPorts { InputPort i (Type: Bit.BIT) }
      OutputPorts { OutputPort o (Type: Bit.BIT) }
      Contracts {
        Contract slow {
          var x: Bit.BIT
          triggers { t1: [i = x] }
          guarantees { [o = Bit.neg[x]] }
          duration 2
        }
      }
    }
  }
  Contracts {
    Contract late {
      triggers { t1: Bit.one[Inv.i] }
      guarantees { Bit.one[Inv.o] }
      duration 4
    }
  }
}"""


def test_memo_key_spans_the_lookback():
    model, diags = parse_model(INVERTER)
    assert not diags and not m.validate_structure(model)
    universe = parse_universe("sort Bit.BIT: 0 1\n"
                              "op Bit.neg: 0 -> 1\nop Bit.neg: 1 -> 0\n"
                              "pred Bit.one: 1\n")
    contract = model.contracts[0]
    result = verify_satisfaction(model, contract, universe, horizon=1)
    assert not result[0]
    assert not brute_force_verify(model, contract, universe, horizon=1)
    assert result == naive_verify_satisfaction(model, contract, universe,
                                               horizon=1)


# Echo's triggers read its output as well as its input, at offsets 0 and 1,
# so each window links both ports at two levels and every cell of the trace
# lies in one part: the cone is the whole trace.  (``validate_structure``
# rejects triggers on outputs; the trace search does not need it.)
ECHO = """Pattern Echo ShortName echo {
  DTSpec { DT Bit ( Sort BIT ) }
  CTypes {
    CType Echo {
      InputPorts { InputPort i (Type: Bit.BIT) }
      OutputPorts { OutputPort o (Type: Bit.BIT) }
      Contracts {
        Contract repeat {
          var x: Bit.BIT
          triggers { t0: [i = x] \\/ [o = x], t1: [i = x] \\/ [o = x] at 1 }
          guarantees { [o = x] }
          duration 1
        }
      }
    }
  }
  Contracts {
    Contract held {
      var w: Bit.BIT
      triggers { t0: [Echo.i = w], t1: [Echo.i = w] at 1 }
      guarantees { [Echo.o = w] }
      duration 1
    }
  }
}"""


def test_a_full_memo_starts_afresh(monkeypatch):
    """Forgetting dead keys only visits more nodes: Echo at horizon 5 needs
    exactly 440 nodes with the whole memo and more when it holds two keys,
    and verdicts and counterexamples stay the reference's."""
    model, diags = parse_model(ECHO)
    assert not diags
    universe = parse_universe("sort Bit.BIT: 0 1\n")
    contract = model.contracts[0]
    cells, cones = cone_sizes(model, contract, horizon=5)
    assert cones == [cells] * 5
    assert verify_satisfaction(model, contract, universe, horizon=5,
                               budget=440) == (True, None)
    with pytest.raises(ExplosionError):
        verify_satisfaction(model, contract, universe, horizon=5, budget=439)
    monkeypatch.setattr(oracle, "MEMO_KEYS", 2)
    with pytest.raises(ExplosionError):
        verify_satisfaction(model, contract, universe, horizon=5, budget=440)
    for duration in (2, 3):
        contract = dataclasses.replace(model.contracts[0], duration=duration)
        assert (verify_satisfaction(model, contract, universe, horizon=5,
                                    budget=440)
                == naive_verify_satisfaction(model, contract, universe,
                                             horizon=5)), duration


def test_verify_satisfaction_matches_the_reference_on_tiny_models():
    """Verdicts and counterexamples equal the reference search's, also when
    the cone leaves cells out and a counterexample must be completed.  Cases
    the unmemoized reference cannot decide in 2,000 states are skipped."""
    rng = random.Random(20261019)
    decided = partial = 0
    while decided < 300:
        model, universe = random_tiny_model(rng)
        contract = model.contracts[0]
        horizon = rng.randint(1, 3)
        try:
            expected = naive_verify_satisfaction(model, contract, universe,
                                                 horizon=horizon,
                                                 budget=2000)
        except ExplosionError:
            continue
        assert verify_satisfaction(model, contract, universe,
                                   horizon=horizon) == expected, \
            print_model(model)
        cells, cones = cone_sizes(model, contract, horizon)
        partial += min(cones) < cells
        decided += 1
    assert partial >= 30


def _layout_cones(model, contract, horizon):
    """``(cells, cones)`` as ``cone_sizes`` counts them, read off the parts
    of ``layout``."""
    _, _, _, part, cones = layout(model, contract, horizon)
    return len(part), [sum(p in cone for p in part) for cone in cones]


def test_layout_cones_match_the_reference():
    """The parts of ``layout`` give the cones the reference walks, on Echo
    and on the 351 draws the comparison on tiny models makes, the ones it
    skips included."""
    model, _ = parse_model(ECHO)
    contract = model.contracts[0]
    assert (_layout_cones(model, contract, 5)
            == cone_sizes(model, contract, horizon=5))
    rng = random.Random(20261019)
    partial = 0
    for _ in range(351):
        model, _ = random_tiny_model(rng)
        contract = model.contracts[0]
        horizon = rng.randint(1, 3)
        cells, cones = cone_sizes(model, contract, horizon)
        assert _layout_cones(model, contract, horizon) == (cells, cones)
        partial += min(cones) < cells
    assert partial >= 30


def test_a_part_without_traces_makes_the_contract_hold(relay, bits):
    """An unconnected component promising ``[o = x]`` for every x has no
    trace, so no composed trace exists: the contract holds, also when the
    relay alone has a counterexample that must be completed over it."""
    port = m.Port("o", "Void", m.OUTPUT, BIT)
    x = m.Var("x", BIT)
    void = m.ComponentType(
        name="Void", inputs=(), outputs=(port,),
        contracts=(m.Contract(name="any", owner="Void",
                              variables=(("x", BIT),), triggers=(),
                              guarantee=m.Eq(m.PortRef(port), x),
                              duration=1),))
    model = dataclasses.replace(
        relay, component_types=relay.component_types + (void,))
    for duration in (2, 1):
        contract = dataclasses.replace(model.contracts[0], duration=duration)
        assert verify_satisfaction(model, contract, bits,
                                   horizon=1) == (True, None)
    assert brute_force_verify(model, contract, bits, horizon=1)
    contract = dataclasses.replace(relay.contracts[0], duration=1)
    assert not verify_satisfaction(relay, contract, bits, horizon=1)[0]


@pytest.mark.parametrize("n", [8, 16, 32])
def test_a_relay_chain_costs_linear_nodes(n):
    """The cone of an n-stage chain is one diagonal of the trace, so the
    search enumerates 2n + 4 states where the whole trace has 2^n per
    level."""
    model = relay_chain_model(n)
    universe = FiniteUniverse(carriers={SORT: ["0", "1"]})
    contract = model.contracts[0]
    assert verify_satisfaction(model, contract, universe, horizon=1,
                               budget=2 * n + 4) == (True, None)
    with pytest.raises(ExplosionError):
        verify_satisfaction(model, contract, universe, horizon=1,
                            budget=2 * n + 3)


def test_counterexample_longer_than_the_recursion_limit():
    model = relay_chain_model(2)
    contract = dataclasses.replace(model.contracts[0],
                                   duration=sys.getrecursionlimit() + 100)
    universe = FiniteUniverse(carriers={SORT: ["0", "1"]})
    holds, counter = verify_satisfaction(model, contract, universe, horizon=1)
    assert not holds and len(counter) == contract.duration + 2


# ---------------------------------------------------------------------------
# Proof search

def test_search_recovers_the_redundant_adder_proof():
    model, _ = load("radder.apml")
    contract = model.contracts[0]
    result = search_proof(model, contract, max_steps=8)
    assert result.status == FOUND
    assert len(result.proof) == 4
    found = dataclasses.replace(contract, proof=result.proof)
    assert check_proof(model, found).status == OK


def test_search_saturates_when_no_proof_exists():
    model, _ = load("radder_duration6.apml")
    result = search_proof(model, model.contracts[0], max_steps=32)
    assert result.status == NO_PROOF_AT_BOUND
    assert result.proof is None
    assert result.steps_explored > 0


def test_search_reports_budget_exhaustion():
    model, _ = load("radder.apml")
    result = search_proof(model, model.contracts[0], max_steps=1)
    assert result.status == BUDGET_EXCEEDED


def test_search_proof_on_relay_matches_the_written_one(relay):
    contract = relay.contracts[0]
    result = search_proof(relay, contract, max_steps=8)
    assert result.status == FOUND
    assert result.proof == contract.proof


# ---------------------------------------------------------------------------
# Proof search against the unindexed reference

_CTYPE = """
    CType %s {
      InputPorts { %s }
      OutputPorts { %s }
      Contracts { %s }
    }"""

_CONTRACT = """
        Contract %s {
          var x: Bit.BIT
          triggers { t1: %s }
          guarantees { %s }
          duration 1
        }"""


def _bit_model(ctypes, connections, triggers, guarantee, duration):
    """A valid model over one sort from (name, inputs, outputs, contracts)
    component rows; every component contract has one trigger, duration 1."""
    def ports(kind, names):
        return ", ".join("%sPort %s (Type: Bit.BIT)" % (kind, n)
                         for n in names.split())

    text = """Pattern P ShortName p {
  DTSpec { DT Bit ( Sort BIT ) }
  CTypes { %s }
  Connections { %s }
  Contracts {
    Contract goal {
      var w: Bit.BIT
      triggers { %s }
      guarantees { %s }
      duration %d
    }
  }
}""" % (",".join(_CTYPE % (name, ports("Input", ins), ports("Output", outs),
                           ",".join(_CONTRACT % c for c in contracts))
                 for name, ins, outs, contracts in ctypes),
        connections, triggers, guarantee, duration)
    model, diags = parse_model(text)
    assert not diags and not m.validate_structure(model)
    return model


# B's trigger has a port-free disjunct, so B applies with its input unseen
PORT_FREE_DISJUNCT = dict(
    ctypes=[("A", "i", "o", [("fwd", "[i = x]", "[o = x]")]),
            ("B", "i", "o", [("any", "[i = x] \\/ [x = x]", "[o = x]")])],
    connections="", triggers="t1: [A.i = w]", guarantee="[B.o = w]",
    duration=1)

# L's output feeds L back.  In one round L.loop applies at time 1, which
# makes its input visible at time 2, a time M reached earlier in the round,
# so L.loop applies there too; the fact this puts at the new time 3 must
# wait for the next round.
FEEDBACK = dict(
    ctypes=[("M", "i", "o", [("fwd", "[i = x]", "[o = x]")]),
            ("L", "i f", "o q", [("fwd", "[i = x]", "[o = x] /\\ [q = x]"),
                                 ("loop", "[f = x]",
                                  "[o = x] /\\ [q = x]")])],
    connections="(L.f, L.o)",
    triggers="t1: [L.i = w], t2: [M.i = w] at 1", guarantee="[L.q = w]",
    duration=4)


def _search_cases():
    for path in sorted(CORPUS.glob("*.apml")):
        model, _ = load(path.name)
        for contract in model.contracts:
            yield "%s:%s" % (path.stem, contract.name), model, contract
    # the C3 reproducers: search is inconclusive on R1 and R2
    for path in sorted((ROOT / "tests" / "golden" / "c3").glob("*.apml")):
        model, _ = parse_model(path.read_text())
        yield "c3:%s" % path.stem, model, model.contracts[0]
    for name, spec in [("port-free-disjunct", PORT_FREE_DISJUNCT),
                       ("feedback", FEEDBACK)]:
        model = _bit_model(**spec)
        yield name, model, model.contracts[0]


# the step budget cuts FEEDBACK's search short at 3 and 4 facts, where a
# fact found a round late or a base tried too early changes the outcome
@pytest.mark.parametrize("max_steps", [1, 2, 3, 4, 8, 16, 32])
def test_search_matches_the_reference_saturation(max_steps):
    for name, model, contract in _search_cases():
        assert (search_proof(model, contract, max_steps=max_steps)
                == naive_search_proof(model, contract, max_steps=max_steps)
                ), name


@pytest.mark.parametrize("max_steps", [1, 2, 32])
def test_search_matches_the_reference_past_the_dnf_budget(max_steps):
    """At a DNF budget of 1, an Or in relay's architecture trigger leaves
    Stage1.fwd's trigger check undecided, and one in Stage2.fwd's guarantee
    the goal check: both searches end budget-exceeded."""
    text = (CORPUS / "relay.apml").read_text()
    head, tail = text.rsplit("guarantees { [o = x] }", 1)   # Stage2.fwd's
    variants = [
        ("trigger", text.replace("t1: [Stage1.i = x]",
                                 "t1: [Stage1.i = x] \\/ [Stage1.i = x]")),
        ("goal", head + "guarantees { [o = x] \\/ [o = x] }" + tail)]
    for name, variant in variants:
        model, diags = parse_model(variant)
        assert not diags, name
        contract = model.contracts[0]
        result = search_proof(model, contract, max_steps=max_steps, budget=1)
        assert result == naive_search_proof(model, contract,
                                            max_steps=max_steps, budget=1)
        assert result.status == BUDGET_EXCEEDED, name


def test_search_matches_the_reference_on_random_chains():
    rng = random.Random(20260823)
    for case in range(100):
        model = random_chain_model(rng)
        contract = model.contracts[0]
        max_steps = (2, 8, 16)[case % 3]
        assert (search_proof(model, contract, max_steps=max_steps)
                == naive_search_proof(model, contract, max_steps=max_steps)
                ), case


def test_search_keeps_its_budget():
    """No search explores more than max_steps facts, and a proof found
    after exploring k facts is found again, the same, with max_steps=k."""
    cases = list(_search_cases())
    for seed in range(40):
        model = random_chain_model(random.Random(seed))
        cases.append(("chain-%d" % seed, model, model.contracts[0]))
    found = set()
    for name, model, contract in cases:
        for max_steps in (1, 2, 3, 5, 8, 16, 32):
            result = search_proof(model, contract, max_steps=max_steps)
            assert result.steps_explored <= max_steps, (name, max_steps)
            if result.status == FOUND:
                again = search_proof(model, contract,
                                     max_steps=result.steps_explored)
                assert again == result, (name, max_steps)
                found.add(name)
    assert len(found) >= 40


@pytest.mark.parametrize("max_steps", [0, -1])
def test_search_without_a_budget_explores_nothing(max_steps):
    model, _ = load("radder.apml")
    result = search_proof(model, model.contracts[0], max_steps=max_steps)
    assert (result.status, result.steps_explored) == (BUDGET_EXCEEDED, 0)


def _checks_before_and_after_printing(model, contract, proof):
    """Is ``proof`` accepted for ``contract``, also after the model with it
    is printed and parsed again?"""
    found = dataclasses.replace(contract, proof=proof)
    if check_proof(model, found).status != OK:
        return False
    at = next(i for i, c in enumerate(model.contracts) if c is contract)
    contracts = model.contracts[:at] + (found,) + model.contracts[at + 1:]
    reparsed, diags = parse_model(
        print_model(dataclasses.replace(model, contracts=contracts)))
    return (not errors(diags)
            and check_proof(reparsed, reparsed.contracts[at]).status == OK)


def test_every_proof_search_finds_checks_before_and_after_printing():
    cases = list(_search_cases())
    for seed in range(100):
        model = random_chain_model(random.Random(seed))
        cases.append(("chain-%d" % seed, model, model.contracts[0]))
    found = 0
    for name, model, contract in cases:
        result = search_proof(model, contract)
        if result.status == FOUND:
            found += 1
            assert _checks_before_and_after_printing(model, contract,
                                                     result.proof), name
    assert found >= 100


_EDGE = """Pattern E ShortName e {
  DTSpec { DT Bit ( Sort BIT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: Bit.BIT) }
      OutputPorts { OutputPort o (Type: Bit.BIT),
                    OutputPort q (Type: Bit.BIT) }
      Contracts {
        Contract g {
          var x: Bit.BIT
          var y: Bit.BIT
          %s
          guarantees { %s }
          duration 1
        }
      }
    }
  }
  Connections { }
  Contracts {
    Contract goal {
      var x: Bit.BIT
      triggers { t1: [A.i = x] }
      guarantees { %s }
      duration 1
    }
  }
}"""


# a conjunct with a variable no trigger binds is left out of the derived
# state: it would print as a renamed variable, or (without triggers) as the
# architecture's own x, which the guarantee's fresh x does not entail
@pytest.mark.parametrize("triggers, guarantee, goal, step", [
    ("triggers { t1: [i = x] }", "[o = x] /\\ [o = y]", "[A.o = x]",
     "s0: at 1 have [A.o = x] from [ t1 ] using A.g"),
    ("", "[o = x] /\\ [q = o]", "[A.q = A.o]",
     "s0: at 1 have [A.q = A.o] using A.g"),
], ids=["guarantee-only-variable", "trigger-less-with-variable"])
def test_search_derives_no_state_with_an_unbound_variable(triggers, guarantee,
                                                          goal, step):
    model, diags = parse_model(_EDGE % (triggers, guarantee, goal))
    assert not diags and not m.validate_structure(model)
    contract = model.contracts[0]
    result = search_proof(model, contract)
    assert result == naive_search_proof(model, contract)
    assert result.status == FOUND
    assert [print_step(s) for s in result.proof] == [step]
    assert _checks_before_and_after_printing(model, contract, result.proof)


def test_search_renumbers_the_steps_it_keeps():
    """A Side stage, declared between relay's two stages and fed by
    Stage1.o, adds an unneeded fact before the goal: search explores 3
    facts and keeps 2, citing the goal's reference by its new number."""
    text = (CORPUS / "relay.apml").read_text()
    stage2 = text.index("    CType Stage2 {")
    side = text[text.index("    CType Stage1 {"):stage2].replace(
        "Stage1", "Side")
    text = text[:stage2] + side + text[stage2:]
    text = text.replace("(Stage2.i, Stage1.o)",
                        "(Stage2.i, Stage1.o), (Side.i, Stage1.o)")
    model, diags = parse_model(text)
    assert not diags and not m.validate_structure(model)
    assert [ct.name for ct in model.component_types] == [
        "Stage1", "Side", "Stage2"]
    contract = model.contracts[0]
    result = search_proof(model, contract)
    assert result == naive_search_proof(model, contract)
    assert (result.status, result.steps_explored) == (FOUND, 3)
    assert [print_step(s) for s in result.proof] == [
        "s0: at 1 have [Stage1.o = x] from [ t1 ] using Stage1.fwd",
        "s1: at 2 have [Stage2.o = x] from [ s0 with [ (Stage2.i, Stage1.o) ]"
        " ] using Stage2.fwd"]
    assert _checks_before_and_after_printing(model, contract, result.proof)


def test_a_trigger_at_a_time_without_references_is_not_applied():
    """Stage2.fwd of relay gains a second trigger one step after its first,
    where nothing is ever known; a port-free disjunct leaves it unanchored,
    so only the missing references stop search from applying it."""
    text = (CORPUS / "relay.apml").read_text().replace(
        "duration 2", "duration 3")          # the architecture's
    model, diags = parse_model(text.replace(
        """t1: [i = x]
          }
          guarantees { [o = x] }
          duration 1
        }
      }
    }
  }""", """t1: [i = x],
            t2: [i = x] \\/ [x = x] at 1
          }
          guarantees { [o = x] }
          duration 2
        }
      }
    }
  }"""))
    assert not diags
    contract = model.contracts[0]
    result = search_proof(model, contract)
    assert result == naive_search_proof(model, contract)
    assert (result.status, result.steps_explored) == (NO_PROOF_AT_BOUND, 1)


def test_port_free_disjunct_is_not_gated():
    model = _bit_model(**PORT_FREE_DISJUNCT)
    result = search_proof(model, model.contracts[0], max_steps=4)
    assert result.status == FOUND
    assert [s.rationale for s in result.proof] == ["B.any"]


def _anchored_by_dnf(pred):
    """The port-anchoring criterion read off the predicate's DNF."""
    def anchored(lit):
        if isinstance(lit, m.Atom):
            return bool(m.ports_of(lit))
        return bool(m.ports_of(lit.lhs)) != bool(m.ports_of(lit.rhs))
    return all(any(map(anchored, d))
               for d in product_dnf(pred, budget=float("inf")))


def test_anchoring_agrees_with_the_dnf_criterion():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(1000):
        triggers, hyps, _, _, _ = random_match_case(rng)
        for pred in triggers + hyps:
            want = _anchored_by_dnf(pred)
            assert oracle._anchored(pred) == want, pred
            seen.add((isinstance(pred, (m.And, m.Or)), want))
    # both answers, on literals and on nested predicates
    assert len(seen) == 4


def test_search_proves_a_trigger_past_the_dnf_budget():
    model, diags = parse_model((CORPUS / "relay.apml").read_text().replace(
        "t1: [i = x]", "t1: " + FOLD13, 1))
    assert not diags
    fwd = model.component_types[0].contracts[0]
    assert product_dnf(fwd.triggers[0].predicate) is None
    ((offset, ports),) = oracle._anchors(fwd)
    assert (offset, [p.qualified for p in ports]) == (0, ["Stage1.i"])
    result = search_proof(model, model.contracts[0])
    assert result.status == FOUND
    assert [print_step(s) for s in result.proof] == [
        "s0: at 1 have [Stage1.o = x] from [ t1 ] using Stage1.fwd",
        "s1: at 2 have [Stage2.o = x] from [ s0 with [ (Stage2.i, Stage1.o) ]"
        " ] using Stage2.fwd"]


@pytest.mark.parametrize("name", ["relay.apml", "radder.apml"])
def test_search_judges_each_fact_at_the_duration_once(name, monkeypatch):
    """The one fact each model derives at its architecture's duration is
    its goal, and search judges it against the guarantee once."""
    calls = []
    entails = entailment.entails

    def counting(hypotheses, goal, *args):
        calls.append((hypotheses, goal))
        return entails(hypotheses, goal, *args)

    monkeypatch.setattr(entailment, "entails", counting)
    model, _ = load(name)
    contract = model.contracts[0]
    result = search_proof(model, contract)
    assert result.status == FOUND
    assert calls == [([result.proof[-1].state], contract.guarantee)]


@pytest.mark.parametrize("n", [50, 100])
def test_search_matches_each_stage_a_bounded_number_of_times(n,
                                                             monkeypatch):
    calls = []
    match = entailment.match_trigger

    def counting(*args, **kwargs):
        calls.append(None)
        return match(*args, **kwargs)

    monkeypatch.setattr(entailment, "match_trigger", counting)
    model = relay_chain_model(n)
    result = search_proof(model, model.contracts[0], max_steps=n)
    assert result.status == FOUND and len(result.proof) == n
    assert len(calls) <= 2 * n + 4


def test_a_relay_chain_is_searched_and_checked_by_class(enumerations):
    """Every trigger literal of a relay chain equates a variable with a
    port the facts mention, so search and the check of what it finds bind
    each variable by class and never list every class's representative."""
    model = relay_chain_model(50)
    contract = model.contracts[0]
    result = search_proof(model, contract, max_steps=50)
    assert result.status == FOUND
    found = dataclasses.replace(contract, proof=result.proof)
    variant = dataclasses.replace(model, contracts=(found,))
    assert check_proof(variant, found).status == OK
    assert enumerations == []


def test_search_finds_a_proof_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    model = relay_chain_model(n)
    result = search_proof(model, model.contracts[0], max_steps=n)
    assert result.status == FOUND and len(result.proof) == n
