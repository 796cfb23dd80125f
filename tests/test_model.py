"""Structure validation, core model helpers and value-record semantics."""

import copy
import dataclasses
import inspect
import itertools
import pickle
import typing
from dataclasses import FrozenInstanceError

import pytest

from apml import checker, isar, oracle
from apml import model as m
from apml.diagnostics import (Diagnostic, NO_SPAN, Record, SourceSpan, RULES,
                              ERROR, WARNING, Value)
from apml.parser import parse_model

from conftest import CORPUS, load


def rules_of(diags):
    return sorted({d.rule for d in diags})


def validate(text):
    model, diags = parse_model(text)
    assert not diags, diags
    return m.validate_structure(model)


HEADER = """
Pattern P ShortName p {
  DTSpec { DT Basic ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: Basic.NAT) }
      OutputPorts { OutputPort o (Type: Basic.NAT) }
      %s
    }
  }
}
"""


def test_span_rejects_inverted_range():
    with pytest.raises(ValueError):
        SourceSpan("f", 2, 1, 1, 1)


def test_diagnostic_rejects_unknown_rule():
    with pytest.raises(ValueError):
        Diagnostic(ERROR, "NOT_A_RULE", "x")
    with pytest.raises(ValueError):
        Diagnostic("fatal", "LEX_ERROR", "x")


def test_rules_are_a_closed_set():
    assert "UNEXPECTED_TOKEN" in RULES
    assert isinstance(RULES, frozenset)


def test_valid_corpus_models_have_no_structure_diagnostics():
    for name in ("radder.apml", "relay.apml", "radder_duration6.apml"):
        model, diags = load(name)
        assert not diags
        assert m.validate_structure(model) == []


def test_first_trigger_must_start_at_zero():
    out = validate(HEADER % """
      Contracts { Contract c {
        var x: Basic.NAT
        triggers { t1: [i = x] at 2 }
        guarantees { [o = x] } duration 5 } }""")
    assert rules_of(out) == ["CONTRACT_FIRST_TRIGGER_TIME"]


def test_triggers_must_be_ordered_by_time():
    out = validate(HEADER % """
      Contracts { Contract c {
        var x: Basic.NAT
        triggers { t1: [i = x], t2: [i = x] at 3, t3: [i = x] at 1 }
        guarantees { [o = x] } duration 5 } }""")
    assert rules_of(out) == ["CONTRACT_TRIGGER_ORDER"]


def test_duration_must_exceed_last_trigger_time():
    out = validate(HEADER % """
      Contracts { Contract c {
        var x: Basic.NAT
        triggers { t1: [i = x], t2: [i = x] at 4 }
        guarantees { [o = x] } duration 4 } }""")
    assert rules_of(out) == ["CONTRACT_DURATION_POSITIVE"]


def test_triggerless_duration_must_be_positive():
    out = validate(HEADER % """
      Contracts { Contract c {
        var x: Basic.NAT
        guarantees { [o = x] } duration 0 } }""")
    assert rules_of(out) == ["CONTRACT_DURATION_POSITIVE"]


def test_trigger_over_output_port_is_flagged():
    out = validate(HEADER % """
      Contracts { Contract c {
        var x: Basic.NAT
        triggers { t1: [o = x] }
        guarantees { [o = x] } duration 1 } }""")
    assert "TRIGGER_SCOPE" in rules_of(out)


def test_guarantee_over_input_port_is_flagged():
    out = validate(HEADER % """
      Contracts { Contract c {
        var x: Basic.NAT
        triggers { t1: [i = x] }
        guarantees { [i = x] } duration 1 } }""")
    assert "GUARANTEE_SCOPE" in rules_of(out)


def test_duplicate_dt_is_a_warning_and_symbols_merge():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec {
    DT D ( Sort S Predicate a: S ),
    DT D ( Sort S Predicate b: S )
  }
}""")
    assert not diags
    out = m.validate_structure(model)
    assert [d.rule for d in out] == ["DUPLICATE_DT"]
    assert out[0].severity == WARNING
    sig = model.signature
    assert "D.a" in sig.predicate_symbols and "D.b" in sig.predicate_symbols


def test_a_symbol_declared_twice_in_a_dt_is_reported():
    """The signature keeps one declaration per qualified name, so a second
    operation ``f`` of another sort would silently replace the first."""
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec {
    DT B ( Sort T ),
    DT A ( Sort S Operation f: A.S => A.S, f: B.T => B.T Predicate ok: A.S )
  }
}""")
    assert not diags
    assert [(d.rule, d.message, d.span.start_line)
            for d in m.validate_structure(model)] == [
        ("DUPLICATE_NAME", "duplicate symbol 'f' in 'A'", 5)]


def test_duplicate_component_type_and_contract_are_reported():
    contract = """
        Contract c { triggers { t1: [i = i] } guarantees { [o = o] }
                     duration 1 }"""
    out = validate("""
Pattern P ShortName p {
  DTSpec { DT Basic ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: Basic.NAT) }
      OutputPorts { OutputPort o (Type: Basic.NAT) }
    },
    CType A {
      InputPorts { InputPort i (Type: Basic.NAT) }
      OutputPorts { OutputPort o (Type: Basic.NAT) }
      Contracts { %s, %s }
    }
  }
}""" % (contract, contract))
    assert [(d.rule, d.message, d.span.start_line) for d in out] == [
        ("DUPLICATE_NAME", "duplicate component type 'A'", 9),
        ("DUPLICATE_NAME", "duplicate contract 'c' in 'A'", 9),
    ]


def test_duplicate_architecture_contracts_are_reported_where_repeated():
    """One diagnostic per repeated name, in name order, at the span of the
    name's first repeated declaration."""
    text = (CORPUS / "relay.apml").read_text()
    start = text.index("    Contract relayed")
    end = text.rindex("\n  }\n}")
    block = text[start:end]
    other = block.replace("relayed", "again")
    model, diags = parse_model(
        text[:start] + ",\n".join([block, other, block, other, block])
        + text[end:], "relay.apml")
    assert not diags
    out = m.validate_structure(model)
    assert [(d.rule, d.message) for d in out] == [
        ("DUPLICATE_NAME", "duplicate architecture contract 'again'"),
        ("DUPLICATE_NAME", "duplicate architecture contract 'relayed'"),
    ]
    assert [d.span for d in out] == [model.contracts[3].span,
                                     model.contracts[2].span]
    assert NO_SPAN != out[0].span != out[1].span != NO_SPAN


def test_connection_direction_and_sort_checks():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ), DT C ( Sort INT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
    },
    CType Z {
      InputPorts { InputPort i (Type: C.INT) }
      OutputPorts { OutputPort o (Type: C.INT) }
    }
  }
  Connections {
    (A.o, Z.o),
    (Z.i, A.o),
    (Z.i, A.i)
  }
}""")
    assert not diags
    rules = rules_of(m.validate_structure(model))
    assert "CONNECTION_NOT_INPUT" in rules
    assert "CONNECTION_NOT_OUTPUT" in rules
    assert "CONNECTION_DUPLICATE_INPUT" in rules
    assert "CONNECTION_SORT_MISMATCH" in rules


def test_connection_diagnostics_carry_their_connection_span():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ), DT C ( Sort INT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
    },
    CType Z {
      InputPorts { InputPort i (Type: C.INT) }
      OutputPorts { OutputPort o (Type: C.INT) }
    }
  }
  Connections {
    (A.o, Z.o),
    (Z.i, A.o), (Z.i, A.i)
  }
}""", "p.apml")
    assert not diags
    assert [(d.rule, str(d.span)) for d in m.validate_structure(model)] == [
        ("CONNECTION_NOT_INPUT", "p.apml:15:5"),
        ("CONNECTION_SORT_MISMATCH", "p.apml:15:5"),
        ("CONNECTION_SORT_MISMATCH", "p.apml:16:5"),
        ("CONNECTION_NOT_OUTPUT", "p.apml:16:17"),
        ("CONNECTION_DUPLICATE_INPUT", "p.apml:16:17"),
        ("CONNECTION_SORT_MISMATCH", "p.apml:16:17"),
    ]
    # a model built in code has no connection spans
    assert {d.span for d in m.validate_structure(dataclasses.replace(
        model, connection_spans=()))} == {NO_SPAN}


def test_architecture_contract_over_connected_port():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
    },
    CType Z {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
    }
  }
  Connections { (Z.i, A.o) }
  Contracts {
    Contract k {
      var x: B.NAT
      triggers { t1: [Z.i = x] }
      guarantees { [A.o = x] }
      duration 1
    }
  }
}""")
    assert not diags
    rules = rules_of(m.validate_structure(model))
    assert rules == ["ARCH_PORT_CONNECTED"]


def test_both_kinds_of_contract_report_shape_scope_and_sorts_in_order():
    """A component contract and an architecture contract, each wrong in
    shape, scope and sorts at once, are judged alike: shape, then each
    trigger's scope and sorts, then the guarantee's; only the scope rule
    differs."""
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ), DT C ( Sort INT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT), OutputPort n (Type: C.INT) }
      Contracts {
        Contract c {
          var x: C.INT
          triggers {
            t1: [o = x] at 1,
            t2: [i = i]
          }
          guarantees { [i = n] }
          duration 1
        }
      }
    },
    CType Z {
      InputPorts { InputPort i (Type: B.NAT) }
    }
  }
  Connections { (Z.i, A.o) }
  Contracts {
    Contract k {
      var y: C.INT
      triggers {
        t1: [Z.i = y] at 1
      }
      guarantees { [A.o = y] }
      duration 1
    }
  }
}""")
    assert not diags
    assert [(d.rule, d.message, d.span.start_line)
            for d in m.validate_structure(model)] == [
        ("CONTRACT_FIRST_TRIGGER_TIME",
         "first trigger of 'A.c' must be at time 0, got 1", 9),
        ("CONTRACT_TRIGGER_ORDER",
         "triggers of 'A.c' not ordered by time (0 after 1)", 9),
        ("CONTRACT_DURATION_POSITIVE",
         "duration 1 of 'A.c' must exceed last trigger time 1", 9),
        ("TRIGGER_SCOPE",
         "trigger 't1' of 'A.c' references non-input port A.o", 12),
        ("SORT_MISMATCH", "equality between sorts B.NAT and C.INT", 12),
        ("GUARANTEE_SCOPE",
         "guarantee of 'A.c' references non-output port A.i", 9),
        ("SORT_MISMATCH", "equality between sorts B.NAT and C.INT", 9),
        ("CONTRACT_FIRST_TRIGGER_TIME",
         "first trigger of 'k' must be at time 0, got 1", 26),
        ("CONTRACT_DURATION_POSITIVE",
         "duration 1 of 'k' must exceed last trigger time 1", 26),
        ("ARCH_PORT_CONNECTED",
         "trigger 't1' of 'k' references Z.i, which is not an interface "
         "input", 29),
        ("SORT_MISMATCH", "equality between sorts B.NAT and C.INT", 29),
        ("ARCH_PORT_CONNECTED",
         "guarantee of 'k' references A.o, which is not an interface "
         "output", 26),
        ("SORT_MISMATCH", "equality between sorts B.NAT and C.INT", 26),
    ]


def test_operation_arity_and_sorts_are_checked():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT Operation f: NAT => NAT ), DT C ( Sort INT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: C.INT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c {
        var x: B.NAT
        triggers { t1: [i = x] }
        guarantees { [o = B.f[x, x]] }
        duration 1 } }
    }
  }
}""")
    assert not diags
    rules = rules_of(m.validate_structure(model))
    # trigger equates an INT port with a NAT variable; guarantee misapplies f
    assert "SORT_MISMATCH" in rules


def test_connection_map_first_declaration_wins():
    model, _ = load("radder.apml")
    conn = model.connection_map()
    assert len(conn) == 6
    first_in, first_out = model.connections[0]
    shadowed = m.Model(
        name=model.name, short_name=model.short_name,
        datatypes=model.datatypes, component_types=model.component_types,
        connections=model.connections + ((first_in, model.connections[1][1]),),
        contracts=model.contracts)
    assert shadowed.connection_map()[first_in] == first_out
    inputs, outputs = m.architecture_interface(model)
    assert {p.qualified for p in inputs} == {"Dispatcher.i1", "Dispatcher.i2"}
    assert {p.qualified for p in outputs} == {"Merger.o"}


def test_name_lookups_resolve_to_the_first_declaration():
    model, _ = load("radder.apml")
    first = model.component_types[0]
    fwd = first.contracts[0]
    twin = m.Contract(fwd.name, fwd.owner, (), (), fwd.guarantee, 9)
    shadowed = m.Model(
        name=model.name, short_name=model.short_name,
        datatypes=model.datatypes,
        component_types=(m.ComponentType(first.name, first.inputs,
                                         first.outputs,
                                         first.contracts + (twin,)),)
        + model.component_types,
        connections=model.connections, contracts=model.contracts)
    assert shadowed.find_contract(fwd.qualified) is fwd
    assert shadowed.component(first.name).contracts[-1] is twin
    assert shadowed.find_contract(first.name + ".nope") is None
    assert shadowed.connections_by_owner == model.connections_by_owner

def test_substitute_and_free_variables():
    x = m.Var("x", "B.NAT")
    y = m.Var("y", "B.NAT")
    p = m.Eq(m.App("B.f", (x,)), y)
    assert m.free_variables(p) == {"x", "y"}
    q = m.substitute(p, {"x": y})
    assert m.free_variables(q) == {"y"}
    assert m.conjuncts(m.conjoin([p, q])) == (p, q)


def test_operation_and_predicate_applications_share_one_sort_check():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT Operation f: NAT => NAT Predicate Q: NAT ),
           DT C ( Sort INT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c {
        var x: B.NAT
        var y: C.INT
        triggers { t1: [i = x] }
        guarantees { [o = B.f[x, x]] /\\ B.Q[B.f[y]] /\\ B.Q[x, x]
                     /\\ B.Q[y] }
        duration 1 } }
    }
  }
}""")
    assert not diags, diags
    assert [(d.rule, d.message) for d in m.validate_structure(model)] == [
        ("SORT_MISMATCH", "operation 'B.f' expects 1 arguments, got 2"),
        ("SORT_MISMATCH", "argument of 'B.f' has sort C.INT, expected B.NAT"),
        ("SORT_MISMATCH", "predicate 'B.Q' expects 1 arguments, got 2"),
        ("SORT_MISMATCH", "argument of 'B.Q' has sort C.INT, expected B.NAT"),
    ]


# ---------------------------------------------------------------------------
# Value records

SPAN = SourceSpan("f.apml", 1, 2, 3, 4)
PORT = m.Port("o", "A", m.OUTPUT, "B.N")
X = m.Var("x", "B.N")
EQ = m.Eq(m.PortRef(PORT), X)
TRIGGER = m.Trigger("t1", EQ, 0, SPAN)
CONTRACT = dict(name="c", owner="A", variables=(("x", "B.N"),),
                triggers=(TRIGGER,), guarantee=EQ, duration=1, span=SPAN)
STEP = m.ProofStep("s0", 1, EQ, "A.c", ((m.TriggerRef(0, "t1"),),), SPAN)
COMPONENT = m.ComponentType("A", (), (PORT,), (m.Contract(**CONTRACT),), SPAN)

# every record class: the fields of one instance, in constructor order, and
# the fields left out of equality and hashing
RECORDS = [
    (SourceSpan, dict(file="f", start_line=1, start_col=2, end_line=3,
                      end_col=4), ()),
    (Diagnostic, dict(severity=ERROR, rule="LEX_ERROR", message="bad",
                      span=SPAN), ()),
    (m.DataType, dict(name="B", sort="N", predicates=(("P", ("B.N",)),),
                      operations=(("f", ("B.N",), "B.N"),), span=SPAN),
     ("span",)),
    (m.Port, dict(name="o", owner="A", direction=m.OUTPUT, sort="B.N"), ()),
    (m.Var, dict(name="x", sort="B.N"), ()),
    (m.PortRef, dict(port=PORT), ()),
    (m.App, dict(op="B.f", args=(X,)), ()),
    (m.Eq, dict(lhs=m.PortRef(PORT), rhs=X), ()),
    (m.Atom, dict(pred="B.P", args=(X,)), ()),
    (m.And, dict(parts=(EQ, m.Atom("B.P", (X,)))), ()),
    (m.Or, dict(parts=(EQ, m.Atom("B.P", (X,)))), ()),
    (m.Trigger, dict(label="t1", predicate=EQ, time=0, span=SPAN), ("span",)),
    (m.TriggerRef, dict(index=0, label="t1"), ("label",)),
    (m.StepRef, dict(index=0, connections=((PORT, PORT),), label="s0"),
     ("label",)),
    (checker.Finding, dict(condition="C3", status=checker.VIOLATED,
                           message="bad", step=0), ()),
    (checker.StepVerdict, dict(index=0, label="s0", status=checker.OK,
                               findings=(), warnings=("note",),
                               instantiation={"x": X}), ("instantiation",)),
    (checker.ProofVerdict, dict(contract="c", status=checker.OK, steps=(),
                                findings=()), ()),
    (oracle.SearchResult, dict(status=oracle.FOUND, proof=(),
                               steps_explored=1, reason="why"), ()),
    (m.Contract, CONTRACT, ("span",)),
    (m.ArchitectureContract, dict(CONTRACT, owner="", proof=(STEP,)),
     ("span",)),
    (m.ProofStep, dict(label="s0", time=1, state=EQ, rationale="A.c",
                       refs=((m.TriggerRef(0, "t1"),),), span=SPAN),
     ("span",)),
    (m.ComponentType, dict(name="A", inputs=(), outputs=(PORT,),
                           contracts=(m.Contract(**CONTRACT),), span=SPAN),
     ("span",)),
    (m.Model, dict(name="P", short_name="p", datatypes=(m.DataType("B"),),
                   component_types=(COMPONENT,), connections=((PORT, PORT),),
                   contracts=(m.ArchitectureContract(**CONTRACT),),
                   connection_spans=(SPAN,)), ("connection_spans",)),
    (isar.EmitConfig, dict(comments=False, legacy_connection_names=True,
                           strict_symbols=True), ()),
]
RECORD_IDS = [cls.__qualname__ for cls, _, _ in RECORDS]


def test_records_cover_every_record_class():
    """Each record class compiles its own constructor, so the record tests
    take every one of them: every subclass of ``Record`` but ``Value``."""
    import apml.cli                      # noqa: F401  the commands' modules
    classes, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.add(sub)
            todo.append(sub)
    assert classes - {Value} == {cls for cls, _, _ in RECORDS}
    assert len(RECORDS) == len(classes) - 1 == 24


# the constructor defaults of every record class that has any
DEFAULTS = {
    SourceSpan: dict(file="<input>", start_line=1, start_col=1, end_line=1,
                     end_col=1),
    Diagnostic: dict(span=NO_SPAN),
    m.DataType: dict(sort=None, predicates=(), operations=(), span=NO_SPAN),
    m.Trigger: dict(span=NO_SPAN),
    m.TriggerRef: dict(label=""),
    m.StepRef: dict(label=""),
    checker.Finding: dict(step=-1),
    checker.StepVerdict: dict(findings=(), warnings=(), instantiation=None),
    checker.ProofVerdict: dict(steps=(), findings=()),
    oracle.SearchResult: dict(proof=None, steps_explored=0, reason=""),
    m.Contract: dict(span=NO_SPAN),
    m.ArchitectureContract: dict(span=NO_SPAN, proof=None),
    m.ProofStep: dict(span=NO_SPAN),
    m.ComponentType: dict(span=NO_SPAN),
    m.Model: dict(datatypes=(), component_types=(), connections=(),
                  contracts=(), connection_spans=()),
    isar.EmitConfig: dict(comments=True, legacy_connection_names=False,
                          strict_symbols=False),
}

# values the constructors accept in place of the ones above
ALTERNATIVES = {"severity": WARNING, "rule": "NESTING_LIMIT",
                "condition": "C4"}


def _other(field, value):
    """A value unequal to ``value`` that the constructor still accepts."""
    if field in ALTERNATIVES:
        return ALTERNATIVES[field]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, tuple):
        return value + (X,)
    if isinstance(value, dict):
        return {}
    return m.Var("y", "B.N")


@pytest.mark.parametrize("cls, fields, uncompared", RECORDS, ids=RECORD_IDS)
def test_records_compare_and_hash_by_their_compared_fields(cls, fields,
                                                           uncompared):
    record = cls(**fields)
    twin = cls(**fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(record)
    for name, value in fields.items():
        changed = cls(**dict(fields, **{name: _other(name, value)}))
        if name in uncompared:
            assert changed == record and hash(changed) == hash(record), name
        else:
            assert changed != record, name
    assert record != tuple(fields.values())


def test_and_and_or_over_the_same_parts_differ():
    parts = (EQ, m.Atom("B.P", (X,)))
    assert m.And(parts) != m.Or(parts)
    assert len({m.And(parts), m.Or(parts), m.And(parts)}) == 2


VALUE_CLASSES = (m.Port, m.Var, m.PortRef, m.App, m.Eq, m.Atom, m.And, m.Or)
VALUE_PAIRS = list(itertools.combinations(VALUE_CLASSES, 2))


def _on_shared_fields(cls):
    """A value of ``cls`` whose fields are the first of the same objects
    every other value class is built on."""
    return cls(*("a", (X,), X, "d")[:len(cls.__match_args__)])


@pytest.mark.parametrize("first, second", VALUE_PAIRS, ids=[
    "%s-%s" % (a.__name__, b.__name__) for a, b in VALUE_PAIRS])
def test_values_of_two_classes_on_the_same_fields_stay_apart(first, second):
    one, two = _on_shared_fields(first), _on_shared_fields(second)
    assert one != two and not one == two
    assert len({one, two}) == 2 and len({one: 1, two: 2}) == 2
    for value in (one, two):
        assert value != tuple(getattr(value, f) for f in value.__match_args__)
        for again in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert again.__class__ is value.__class__
            assert again == value and hash(again) == hash(value)
            assert again != (two if value is one else one)


@pytest.mark.parametrize("cls, fields, uncompared", RECORDS, ids=RECORD_IDS)
def test_records_are_frozen(cls, fields, uncompared):
    record = cls(**fields)
    hash(record)
    for name, value in fields.items():
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(FrozenInstanceError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields, uncompared", RECORDS, ids=RECORD_IDS)
def test_records_keep_the_dataclass_repr_and_constructors(cls, fields,
                                                          uncompared):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert repr(record) == "%s(%s)" % (cls.__qualname__, ", ".join(
        "%s=%r" % item for item in fields.items()))


@pytest.mark.parametrize("cls, fields, uncompared", RECORDS, ids=RECORD_IDS)
def test_record_constructors_take_their_slots(cls, fields, uncompared):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls.__match_args__) == list(fields)
    assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    assert all(defaults[f] is NO_SPAN for f, value in defaults.items()
               if value == NO_SPAN)


@pytest.mark.parametrize("cls, fields, uncompared", RECORDS, ids=RECORD_IDS)
def test_record_constructors_reject_bad_arguments(cls, fields, uncompared):
    required = [f for f in fields if f not in DEFAULTS.get(cls, {})]
    if required:
        with pytest.raises(TypeError):
            cls(**{f: v for f, v in fields.items() if f != required[-1]})
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls, fields, uncompared", RECORDS, ids=RECORD_IDS)
def test_records_copy_and_pickle(cls, fields, uncompared):
    record = cls(**fields)
    for again in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert again.__class__ is cls
        assert again == record and hash(again) == hash(record)
        assert repr(again) == repr(record)


def test_models_copy_and_pickle():
    model, _ = load("tgmt.apml")
    for again in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert again == model and again is not model
        assert hash(again.contracts[0].guarantee) == hash(
            model.contracts[0].guarantee)
        assert again.contracts[0].triggers[0].span == \
            model.contracts[0].triggers[0].span


def test_record_reprs_and_defaults():
    assert repr(m.Var("x", "Bit.BIT")) == "Var(name='x', sort='Bit.BIT')"
    assert repr(m.TriggerRef(1)) == "TriggerRef(index=1, label='')"
    assert repr(SourceSpan()) == ("SourceSpan(file='<input>', start_line=1, "
                                  "start_col=1, end_line=1, end_col=1)")
    assert Diagnostic(ERROR, "LEX_ERROR", "bad").span == SourceSpan()
    assert m.DataType("B") == m.DataType("B", None, (), (), NO_SPAN)
    assert m.Trigger("t", EQ, 0).span is NO_SPAN
    assert m.StepRef(0, ()).label == ""
    assert checker.Finding("C1", checker.VIOLATED, "bad").step == -1
    verdict = checker.StepVerdict(0, "s0", checker.OK)
    assert (verdict.findings, verdict.warnings, verdict.instantiation) == (
        (), (), None)
    assert checker.ProofVerdict("c", checker.OK).steps == ()
    assert oracle.SearchResult(oracle.FOUND) == oracle.SearchResult(
        oracle.FOUND, None, 0)


def test_finding_rejects_unknown_condition():
    with pytest.raises(ValueError):
        checker.Finding("C6", checker.VIOLATED, "bad")


def test_configuration_objects_stay_mutable():
    """A universe is filled in place as it is parsed, so its tables are
    its own; ``isar.EmitConfig`` is a record and is tested with them."""
    first, second = oracle.FiniteUniverse(), oracle.FiniteUniverse()
    first.carriers["S"] = ["0"]
    assert second.carriers == {} and second.operations == {} \
        and second.predicates == {}
    universe = oracle.FiniteUniverse(carriers={"S": ["0"]})
    assert universe.carrier("S") == ["0"]


def test_model_containers_stay_dataclasses():
    model, diags = load("relay.apml")
    assert not diags
    ct = model.component_types[0]
    contract = model.contracts[0]
    step = contract.proof[0]
    assert dataclasses.replace(ct.contracts[0], duration=3).duration == 3
    assert dataclasses.replace(contract, proof=None).proof is None
    assert dataclasses.replace(step, time=5).time == 5
    assert dataclasses.replace(ct, contracts=()).contracts == ()
    assert dataclasses.replace(model, contracts=()).contracts == ()


def test_model_container_annotations_resolve():
    for cls in (m.Contract, m.ArchitectureContract, m.ProofStep,
                m.ComponentType):
        assert typing.get_type_hints(cls)["span"] is SourceSpan
    assert typing.get_type_hints(m.Model)["contracts"] is tuple


def test_validation_leaves_a_symbol_the_parser_reported_unsorted():
    """An undeclared operation or predicate is the parser's error; sort
    checking skips its application instead of adding a SORT_MISMATCH."""
    model, diags = parse_model((CORPUS / "relay.apml").read_text().replace(
        "guarantees { [o = x] }",
        "guarantees { [o = Bit.g[x]] /\\ Bit.ok[x] }", 1))
    assert [d.rule for d in diags] == ["UNDECLARED_SYMBOL"] * 2
    assert m.validate_structure(model) == []
