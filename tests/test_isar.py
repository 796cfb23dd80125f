"""Isabelle theory emission."""

import pathlib
import re

import pytest

from apml import cli
from apml.isar import (EmitConfig, Renderer, UnmappedSymbol, abbreviate,
                       emit_locale, emit_theory, locale_assumptions,
                       port_names, sort_name, unmapped_sorts)
from apml.model import validate_structure
from apml.parser import parse_model

from conftest import CORPUS, load, ROOT

GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def radder():
    model, diags = load("radder.apml")
    assert not diags
    return model


def test_golden_theory_byte_exact(radder):
    assert emit_theory(radder) == (GOLDEN / "rsum.thy").read_text()


def test_emission_is_deterministic(radder):
    assert emit_theory(radder) == emit_theory(radder)


def test_locale_assumption_counts(radder):
    r = Renderer(radder)
    locale = emit_locale(r, locale_assumptions(r))
    assume_lines = [l for l in locale.splitlines() if ': "' in l]
    # six contract assumptions then six connection assumptions
    assert len(assume_lines) == 6 + 6
    conn = [l for l in assume_lines if "\\<And>n." in l]
    assert len(conn) == 6


def test_proof_applies_each_rationale_once(radder):
    theory = emit_theory(radder)
    assert theory.count("by blast") == 4
    assert "  thus ?thesis by auto\nqed" in theory
    # the conclusion comes after the last rationale application
    assert theory.rindex("by blast") < theory.index("thus ?thesis")


def test_abbreviate():
    assert abbreviate("Dispatcher") == "d"
    assert abbreviate("Adder1") == "a1"
    assert abbreviate("Merger") == "m"
    assert abbreviate("TrackGate") == "tg"
    assert abbreviate("track_gate") == "tg"
    assert abbreviate("OdometerV2Sensor") == "ov2s"


def test_port_parameter_names(radder):
    names = port_names(radder)
    assert names["Dispatcher.i1"] == "di1"
    assert names["Adder1.o"] == "a1o"
    assert names["Merger.o"] == "mo"


def test_port_name_collision_falls_back_to_full_prefix():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType Motor { OutputPorts { OutputPort o (Type: B.NAT) } },
    CType Mixer { OutputPorts { OutputPort o (Type: B.NAT) } }
  }
}""")
    assert not diags
    names = port_names(model)
    assert names["Motor.o"] == "motor_o"
    assert names["Mixer.o"] == "mixer_o"


# models whose port names still collide with full component prefixes: two
# components named apart only by case, and two ports that sanitize alike
_PRIMED_PORTS = {
    "stage1_twice": ((CORPUS / "relay.apml").read_text().replace(
        "Stage2", "stage1"), ["stage1_i", "stage1_o", "stage1_i'",
                              "stage1_o'"]),
    "sanitized_alike": ("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes { CType C { OutputPorts {
    OutputPort a\u00e9 (Type: B.NAT), OutputPort a_ (Type: B.NAT)
  } } }
}""", ["c_a_", "c_a_'"]),
}


@pytest.mark.parametrize("name", _PRIMED_PORTS)
def test_a_port_whose_full_prefixed_name_is_taken_is_primed(name, tmp_path,
                                                            capsys):
    text, fixed = _PRIMED_PORTS[name]
    path = tmp_path / "m.apml"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["emit-isar", str(path)]) == 0
    theory, err = capsys.readouterr()
    assert err == ""
    # one fixes entry per port, in declaration order
    assert re.findall(r"(\S+)::\"nat \\<Rightarrow>", theory) == fixed
    if name == "stage1_twice":
        assert "stage1_i'_stage1_o: \"\\<And>n. stage1_i' n = stage1_o n\"" \
            in theory


def test_sort_mapping_and_typedecls():
    assert sort_name("Basic.NAT") == "nat"
    assert sort_name("B.BOOLEAN") == "bool"
    assert sort_name("Track.TrackState") == "TrackState"
    model, _ = parse_model("""
Pattern P ShortName p {
  DTSpec { DT T ( Sort State ) }
  CTypes { CType A { OutputPorts { OutputPort o (Type: T.State) } } }
}""")
    assert unmapped_sorts(model, {}) == ["State"]
    assert "typedecl State" in emit_theory(model)


def test_typedecls_cover_variable_and_symbol_sorts():
    # KEY is named by a variable and a symbol, WID by symbols only
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec {
    DT Basic ( Sort NAT ),
    DT W ( Sort WID Predicate ok: WID ),
    DT K ( Sort KEY Operation h: KEY => Basic.NAT, g: KEY => W.WID )
  }
  CTypes { CType A {
    OutputPorts { OutputPort o (Type: Basic.NAT) }
    Contracts { Contract c {
      var k: K.KEY
      guarantees { [o = K.h[k]] /\\ W.ok[K.g[k]] }
      duration 1
    } }
  } }
}""")
    assert not diags, diags
    r = Renderer(model)
    locale_assumptions(r)            # names the symbols the contract uses
    assert unmapped_sorts(model, r.params) == ["KEY", "WID"]
    theory = emit_theory(model)
    assert "typedecl KEY\ntypedecl WID\n" in theory
    assert 'h::"KEY \\<Rightarrow> nat"' in theory
    assert 'ok::"WID \\<Rightarrow> bool"' in theory


def test_no_comments_flag(radder):
    theory = emit_theory(radder, EmitConfig(comments=False))
    assert "(*" not in theory
    # structure is otherwise unchanged
    assert theory.count("by blast") == 4


def test_legacy_connection_names(radder):
    theory = emit_theory(radder, EmitConfig(legacy_connection_names=True))
    assert "and a1i1_do1:" in theory
    assert "and do1_a1i1:" in theory
    # the proof cites both spellings
    assert "using a1i1_do1 do1_a1i1 a1i2_do2 do2_a1i2 by simp" in theory


def test_strict_mode_rejects_unmapped_symbols():
    model, _ = load("tgmt.apml")
    with pytest.raises(UnmappedSymbol):
        emit_theory(model, EmitConfig(strict_symbols=True))


def test_large_model_emits_deterministically():
    model, _ = load("tgmt.apml")
    t1 = emit_theory(model)
    t2 = emit_theory(model)
    assert t1 == t2
    assert t1.startswith("theory tgmt")
    # unmapped symbols become locale parameters instead
    assert "locale tgmt =" in t1


def test_proofless_theorem_ends_with_oops():
    model, _ = load("radder_duration6.apml")
    theory = emit_theory(model)
    assert "  oops" in theory
    assert "proof -" not in theory


def test_term_rendering_offsets(radder):
    r = Renderer(radder)
    from apml import model as m
    port = m.PortRef(m.Port("o", "Merger", m.OUTPUT, "Basic.NAT"))
    assert r.term(port, 0) == "mo n"
    assert r.term(port, 7) == "mo (n+7)"
    add = m.App("Basic.add", (m.Var("x", "Basic.NAT"),
                              m.Var("y", "Basic.NAT")))
    assert r.term(add, 0) == "x + y"
    assert r.predicate(m.Eq(port, add), 7) == "mo (n+7) = x + y"


def test_rejected_step_is_left_open_naming_its_conditions():
    """The merge step of radder_merge1 fails C2: its lines close with sorry,
    and the step's conclusion names the failed condition."""
    model, _ = load("radder_merge1.apml")
    lines = emit_theory(model).splitlines()
    step = lines[lines.index("  (* step 3 *)") + 1:][:2]
    assert step[0].endswith(" using mi1_a1o mi2_a2o sorry")
    assert step[1] == ('  hence s3: "mo (n+7) = x + y" using merge1 '
                       'sorry (* C2 violated *)')
    # the accepted steps still close by blast
    assert sum("sorry" in l for l in lines) == 2
    assert sum(l.endswith("by blast") for l in lines) == 3


def test_proof_missing_the_guarantee_ends_open_naming_its_conditions():
    """Two tgmt proofs end away from their guarantee: the conclusion is left
    open with the proof-level findings, and an accepted proof still closes
    by auto."""
    model, _ = load("tgmt.apml")
    lines = emit_theory(model).splitlines()

    def closing(theorem):
        start = lines.index("theorem %s:" % theorem)
        return next(l for l in lines[start:] if "?thesis" in l)

    assert closing("PSDAreOpenIfNotMovingAndMatchingPosition") == \
        "  thus ?thesis sorry (* FINAL_STATE violated *)"
    assert closing("trainOpensTheDoorOnTheRightSide_2") == \
        "  thus ?thesis sorry (* FINAL_STATE violated, FINAL_TIME violated *)"
    assert closing("trainOpensTheDoorOnTheRightSide") == \
        "  thus ?thesis by auto"


# a model whose symbols share base names: A.f and B.f, A.ok and B.ok
_SYMBOLS = """
Pattern P ShortName p {
  DTSpec {
    DT A ( Sort S Operation f: A.S => A.S Predicate ok: A.S ),
    DT B ( Operation f: A.S => A.S Predicate ok: A.S )
  }
  CTypes { CType C {
    InputPorts { InputPort i (Type: A.S) }
    OutputPorts { OutputPort o (Type: A.S) }
    Contracts { Contract c {
      var _x: A.S
      %s
      guarantees { %s }
      duration 1
    } }
  } }
  Contracts { Contract arch {
    var y: A.S
    triggers { t1: %s }
    guarantees { [C.o = y] }
    duration 1
    proof { s0: at 1 have %s from [ t1 ] using C.c }
  } }
}"""


def _symbol_theory(triggers="triggers { t1: [i = _x] }",
                   guarantee="[o = _x]", arch_trigger="[C.i = y]",
                   state="[C.o = y]"):
    model, diags = parse_model(
        _SYMBOLS % (triggers, guarantee, arch_trigger, state))
    assert not diags, diags
    return emit_theory(model, EmitConfig(comments=False))


def _symbol_fixes(theory):
    """The locale's symbol parameters, in the order it fixes them."""
    lines = theory.splitlines()
    start = lines.index("  fixes") + 2          # past the ports
    end = next(k for k, l in enumerate(lines) if l.startswith("  assumes"))
    return lines[start:end]


def test_a_name_not_starting_with_a_letter_gets_a_v_prefix():
    theory = _symbol_theory()
    assert ('assumes c: "\\<And>n v_x. \\<lbrakk>ci n = v_x\\<rbrakk> '
            '\\<Longrightarrow> co (n+1) = v_x"') in theory


def test_a_symbol_whose_base_name_is_taken_gets_its_qualified_name():
    theory = _symbol_theory(guarantee="[o = B.f[A.f[_x]]]")
    # outside in: the outer B.f claims the base name
    assert _symbol_fixes(theory) == ['    and f::"S \\<Rightarrow> S"',
                                     '    and A_f::"S \\<Rightarrow> S"']
    assert 'co (n+1) = f (A_f v_x)"' in theory


def test_a_contract_names_its_trigger_symbols_before_its_guarantee():
    theory = _symbol_theory(triggers="triggers { t1: [i = B.f[_x]] }",
                            guarantee="[o = A.f[_x]]")
    assert _symbol_fixes(theory) == ['    and f::"S \\<Rightarrow> S"',
                                     '    and A_f::"S \\<Rightarrow> S"']
    assert ('"\\<And>n v_x. \\<lbrakk>ci n = f v_x\\<rbrakk> '
            '\\<Longrightarrow> co (n+1) = A_f v_x"') in theory


def test_a_symbol_first_used_by_the_architecture_is_fixed_in_the_locale():
    theory = _symbol_theory(arch_trigger="[C.i = y] /\\ B.ok[y]",
                            state="[C.o = y] /\\ A.ok[y]")
    assert _symbol_fixes(theory) == [
        '    and ok::"S \\<Rightarrow> bool"',
        '    and A_ok::"S \\<Rightarrow> bool"']
    assert 'assumes a0: "ci n = y \\<and> ok y"' in theory
    assert 's0: "co (n+1) = y \\<and> A_ok y" using c' in theory


# a model whose names invite clashes: the operation A.co and C's output port
# parameter co, the predicate A.p and the operation A.p
_CLASHES = """
Pattern P ShortName p {
  DTSpec { DT A ( Sort S Operation co: A.S => A.S Operation f: A.S => A.S
                  Predicate p: A.S Operation p: A.S => A.S ) }
  CTypes { CType C {
    InputPorts { InputPort i (Type: A.S) }
    OutputPorts { OutputPort o (Type: A.S) }
    Contracts { Contract c {
      var %s: A.S
      triggers { t1: [i = %s] }
      guarantees { %s }
      duration 1
    } }
  } }
  Contracts { Contract arch {
    var %s: A.S
    triggers { t1: [C.i = %s] }
    guarantees { [C.o = %s] }
    duration 1
  } }
}"""


def _clash_model(var="x", guarantee="[o = x]", arch_var="y"):
    model, diags = parse_model(
        _CLASHES % (var, var, guarantee, arch_var, arch_var, arch_var))
    assert not diags, diags
    return model


def test_a_symbol_never_takes_a_port_parameter_name():
    theory = emit_theory(_clash_model(guarantee="[o = A.co[x]]"),
                         EmitConfig(comments=False))
    assert _symbol_fixes(theory) == ['    and A_co::"S \\<Rightarrow> S"']
    assert 'co (n+1) = A_co x"' in theory


def test_a_variable_is_never_the_time_binder_or_a_parameter():
    """A variable takes a prime when the time binder or a locale parameter
    has its name; a symbol then yields the name to the variable."""
    theory = emit_theory(_clash_model("n", "[o = n]", "co"),
                         EmitConfig(comments=False))
    assert ('assumes c: "\\<And>n n\'. \\<lbrakk>ci n = n\'\\<rbrakk> '
            '\\<Longrightarrow> co (n+1) = n\'"') in theory
    assert ('  fixes n co\'\n  assumes a0: "ci n = co\'"\n'
            '  shows "co (n+1) = co\'"') in theory
    theory = emit_theory(_clash_model("f", "[o = A.f[f]]"),
                         EmitConfig(comments=False))
    assert _symbol_fixes(theory) == ['    and A_f::"S \\<Rightarrow> S"']
    assert ('"\\<And>n f. \\<lbrakk>ci n = f\\<rbrakk> '
            '\\<Longrightarrow> co (n+1) = A_f f"') in theory


def test_a_predicate_and_an_operation_of_one_name():
    """Structural validation reports them; emit-isar fixes each with its
    own parameter and type."""
    model = _clash_model(guarantee="[o = A.p[A.p[x]]] /\\ A.p[o]")
    assert [(d.rule, d.message, d.span) for d in validate_structure(model)] \
        == [("DUPLICATE_NAME", "duplicate symbol 'p' in 'A'",
             model.datatypes[0].span)]
    theory = emit_theory(model, EmitConfig(comments=False))
    assert _symbol_fixes(theory) == ['    and A_p::"S \\<Rightarrow> bool"',
                                     '    and p::"S \\<Rightarrow> S"']
    assert 'co (n+1) = p (p x) \\<and> A_p (co (n+1))"' in theory
