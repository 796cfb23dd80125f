"""Lexer, parser and canonical printer."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from apml import model as m
from apml import parser
from apml.parser import parse_model, tokenize, KEYWORDS, KINDS, MAX_NESTING
from apml.printer import print_model
from apml.model import validate_structure

from conftest import load, CORPUS, ROOT
from oracles import mutated_corpus, naive_tokenize, relay_chain_model

ALL_CORPUS = sorted(p.name for p in CORPUS.glob("*.apml"))


def test_empty_input_reports_expected_pattern():
    model, diags = parse_model("")
    assert [d.rule for d in diags] == ["EXPECTED_PATTERN"]
    assert model == m.EMPTY_MODEL


def test_non_pattern_input_reports_expected_pattern():
    _, diags = parse_model("hello world")
    assert diags[0].rule == "EXPECTED_PATTERN"


def test_unterminated_comment():
    _, diags = parse_model("Pattern P ShortName p { /* oops")
    assert any(d.rule == "UNTERMINATED_COMMENT" for d in diags)


def test_lex_error_character():
    _, diags = parse_model("Pattern P ShortName p { % }")
    assert any(d.rule == "LEX_ERROR" for d in diags)


def test_comments_and_whitespace_are_skipped():
    tokens, diags = tokenize("Pattern // c1\n/* c2\nc3 */ P\t{")
    assert not diags
    assert tokens.texts == ["Pattern", "P", "{", ""]
    assert tokens.kinds == KINDS["Pattern"] + parser.ID + "{" + parser.EOF
    assert tokens.span(1).start_line == 3


def test_eof_after_a_trailing_line_comment_is_at_the_end_of_input():
    text = "Pattern P ShortName p { // trailing"
    _, diags = parse_model(text)
    assert [str(d) for d in diags] == [
        "<input>:1:%d: error: expected '}', got '<eof>' [UNEXPECTED_TOKEN]"
        % (len(text) + 1)]


def test_token_spans_are_one_based():
    tokens, _ = tokenize("ab cd")
    spans = [tokens.span(i) for i in range(len(tokens))]
    assert (spans[0].start_line, spans[0].start_col) == (1, 1)
    assert (spans[1].start_line, spans[1].start_col) == (1, 4)


@pytest.mark.parametrize("nest", [
    lambda d: "(" * d + "[o = x]" + ")" * d,
    lambda d: "[o = %sx%s]" % ("D.f[" * d, ", x]" * d),
], ids=["parentheses", "applications"])
def test_nesting_is_limited(nest):
    def diagnostics(depth):
        _, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT D ( Sort S Operation f: S, S => S ) }
  CTypes {
    CType A {
      OutputPorts { OutputPort o (Type: D.S) }
      Contracts { Contract c {
        var x: D.S
        guarantees { %s } duration 1 } }
    }
  }
}""" % nest(depth))
        return diags

    assert diagnostics(MAX_NESTING) == []
    (too_deep,) = diagnostics(MAX_NESTING + 1)
    assert too_deep.rule == "NESTING_LIMIT"
    assert too_deep.span.start_line == 9


def test_qualified_ports_resolve_in_the_first_component_of_a_name():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A { InputPorts { InputPort i (Type: B.NAT) } },
    CType A { InputPorts { InputPort j (Type: B.NAT) } },
    CType C { OutputPorts { OutputPort o (Type: B.NAT) } }
  }
  Connections { (A.i, C.o), (A.j, C.o) }
}""")
    assert [(d.rule, d.message) for d in diags] == [
        ("UNDECLARED_PORT", "unknown port 'A.j'")]
    assert model.connections == ((model.component_types[0].inputs[0],
                                  model.component_types[2].outputs[0]),)


def test_a_component_contract_may_name_only_its_own_ports():
    # C declares o, and A is declared before C's contract, yet neither
    # contract may read the other component's port
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c { var x: B.NAT
        triggers { t1: [C.o = x] } guarantees { [A.o = x] } duration 1 } }
    },
    CType C {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c { var x: B.NAT
        triggers { t1: [i = x] } guarantees { [o = A.o] } duration 1 } }
    }
  }
}""")
    assert [(d.rule, d.message, d.span.start_line, d.span.start_col)
            for d in diags] == [
        ("UNDECLARED_PORT",
         "a contract of 'A' may name only its own ports, not 'C.o'", 9, 25),
        ("UNDECLARED_PORT",
         "a contract of 'C' may name only its own ports, not 'A.o'", 15, 52)]
    a, c = (ct.contracts[0] for ct in model.component_types)
    assert a.triggers[0].predicate.lhs == m.Var("C.o", "?")
    assert a.guarantee.lhs == m.PortRef(model.component_types[0].outputs[0])
    assert c.guarantee.rhs == m.Var("A.o", "?")


def test_every_port_of_a_wide_component_resolves_to_its_declaration():
    # each name resolves through one dict per component, so a contract
    # that reads P ports costs P lookups, not P scans of P ports; a
    # redeclared port name resolves to its first declaration
    width = 2000
    ports = ",\n".join("OutputPort o%d (Type: B.NAT)" % k
                        for k in range(width))
    reads = " /\\ ".join("[o%d = x]" % k for k in range(width))
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType W {
      OutputPorts { %s, OutputPort o0 (Type: B.NAT) }
      Contracts { Contract c {
        var x: B.NAT
        guarantees { %s } duration 1 } }
    }
  }
}""" % (ports, reads))
    assert not diags
    (wide,) = model.component_types
    assert len(wide.outputs) == width + 1
    refs = [part.lhs.port for part in wide.contracts[0].guarantee.parts]
    assert len(refs) == width
    assert all(port is wide.outputs[k] for k, port in enumerate(refs))


def test_keywords_are_reserved():
    _, diags = parse_model("Pattern proof ShortName p { }")
    assert any(d.rule == "UNEXPECTED_TOKEN" for d in diags)
    assert "proof" in KEYWORDS


def test_unknown_proof_label_is_reported_and_dropped():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c {
        var x: B.NAT
        triggers { t1: [i = x] }
        guarantees { [o = x] } duration 1 } }
    }
  }
  Contracts {
    Contract k {
      var x: B.NAT
      triggers { t1: [A.i = x] }
      guarantees { [A.o = x] }
      duration 1
      proof { s0: at 1 have [A.o = x] from [ nonsense ] using A.c }
    }
  }
}""")
    assert [d.rule for d in diags] == ["UNKNOWN_LABEL"]
    assert model.contracts[0].proof[0].refs == ((),)


def test_unknown_rationale():
    # B.c names a contract of a component declared after A's
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A {
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c { guarantees { [o = o] } duration 1 } }
    },
    CType B {
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c { guarantees { [o = o] } duration 1 } }
    }
  }
  Contracts {
    Contract k {
      guarantees { [A.o = A.o] }
      duration 2
      proof { s0: at 1 have [B.o = B.o] using B.c,
              s1: at 2 have [A.o = A.o] using A.nosuch }
    }
  }
}""")
    assert [(d.rule, d.message, d.span.start_line, d.span.start_col)
            for d in diags] == [
        ("UNDECLARED_CONTRACT", "undeclared contract 'A.nosuch'", 19, 47)]
    assert [s.rationale for s in model.contracts[0].proof] == [
        "B.c", "A.nosuch"]


def test_undeclared_names_are_reported():
    _, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.MISSING) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c {
        triggers { t1: [i = ghost] }
        guarantees { B.nosuch[o] } duration 1 } }
    }
  }
}""")
    rules = {d.rule for d in diags}
    assert {"UNDECLARED_SORT", "UNDECLARED_VARIABLE",
            "UNDECLARED_SYMBOL"} <= rules


def test_predicate_and_operation_declaration_chains():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec {
    DT D (
      Sort S
      Predicate a: S, b: S, S
      Operation f: S, S => S, g: S => S
    )
  }
}""")
    assert not diags
    sig = model.signature
    assert sig.predicate_symbols["D.a"] == ("D.S",)
    assert sig.predicate_symbols["D.b"] == ("D.S", "D.S")
    assert sig.operation_symbols["D.f"] == (("D.S", "D.S"), "D.S")
    assert sig.operation_symbols["D.g"] == (("D.S",), "D.S")


def test_qualified_sort_references_across_dts():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec {
    DT A ( Sort S ),
    DT B ( Predicate q: A.S )
  }
}""")
    assert not diags
    assert model.signature.predicate_symbols["B.q"] == ("A.S",)


def test_symbol_sorts_resolve_once_the_dtspec_is_read():
    # B.f names C.T before DT C declares it; NTA and C.U name nothing
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec {
    DT Basic ( Sort NAT Operation f: NAT => NTA ),
    DT B ( Operation f: C.T => C.T Predicate q: Basic.NAT, C.U ),
    DT C ( Sort T )
  }
}""")
    assert [(d.rule, d.message, d.span.start_line, d.span.start_col)
            for d in diags] == [
        ("UNDECLARED_SORT", "undeclared sort 'Basic.NTA'", 4, 45),
        ("UNDECLARED_SORT", "undeclared sort 'C.U'", 5, 62)]
    assert model.signature.operation_symbols["Basic.f"] == (
        ("Basic.NAT",), "Basic.NTA")
    assert model.signature.operation_symbols["B.f"] == (("C.T",), "C.T")


def test_disjunction_and_precedence():
    model, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT), InputPort j (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c {
        var x: B.NAT
        triggers { t1: [i = x] \\/ [j = x] /\\ [i = x] }
        guarantees { ([o = x] \\/ [o = x]) /\\ [o = x] } duration 1 } }
    }
  }
}""")
    assert not diags
    trig = model.component_types[0].contracts[0].triggers[0].predicate
    # /\ binds tighter than \/
    assert isinstance(trig, m.Or) and isinstance(trig.parts[1], m.And)
    guar = model.component_types[0].contracts[0].guarantee
    assert isinstance(guar, m.And) and isinstance(guar.parts[0], m.Or)


def test_conjunction_chains_parse_flat_whatever_their_grouping():
    text = (CORPUS / "relay.apml").read_text()

    def guarantee_of(pred):
        model, diags = parse_model(text.replace(
            "guarantees { [o = x] }", "guarantees { %s }" % pred, 1))
        assert not diags
        return model, model.component_types[0].contracts[0].guarantee

    right, g = guarantee_of("[o = x] /\\ ([x = o] /\\ [o = o])")
    left, _ = guarantee_of("([o = x] /\\ [x = o]) /\\ [o = o]")
    assert right == left
    assert isinstance(g, m.And) and len(g.parts) == 3
    assert not any(isinstance(p, m.And) for p in g.parts)


def test_braced_reference_sets_group_into_one_set():
    model, _ = load("radder_merge1.apml")
    step = model.contracts[0].proof[3]
    assert len(step.refs) == 1
    assert len(step.refs[0]) == 2


def test_with_clause_on_trigger_reference_is_rejected():
    _, diags = parse_model("""
Pattern P ShortName p {
  DTSpec { DT B ( Sort NAT ) }
  CTypes {
    CType A {
      InputPorts { InputPort i (Type: B.NAT) }
      OutputPorts { OutputPort o (Type: B.NAT) }
      Contracts { Contract c {
        var x: B.NAT
        triggers { t1: [i = x] }
        guarantees { [o = x] } duration 1 } }
    }
  }
  Contracts {
    Contract k {
      var x: B.NAT
      triggers { t1: [A.i = x] }
      guarantees { [A.o = x] }
      duration 1
      proof { s0: at 1 have [A.o = x]
              from [ t1 with [ (A.i, A.o) ] ] using A.c }
    }
  }
}""")
    assert any(d.rule == "UNEXPECTED_TOKEN" for d in diags)


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_corpus_roundtrip_and_determinism(name):
    model, diags = load(name)
    printed = print_model(model)
    again, rediags = parse_model(printed, name)
    assert again == model
    assert print_model(again) == printed
    # reparsing canonical output never adds parse diagnostics
    assert [d.rule for d in rediags] == []
    # diagnostics of the original parse are themselves stable
    model2, diags2 = load(name)
    assert model2 == model and diags2 == diags


# ---------------------------------------------------------------------------
# The lexer against the reference character loop

def _lexes_like_the_reference(text):
    tokens, diags = tokenize(text, "f.apml")
    expected, expected_diags = naive_tokenize(text, "f.apml")
    assert [(tokens.kinds[i], tokens.texts[i], tokens.span(i))
            for i in range(len(tokens))] == expected
    assert diags == expected_diags


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_tokenize_matches_the_reference_on_the_corpus(name):
    _lexes_like_the_reference((CORPUS / name).read_text())


def test_tokenize_matches_the_reference_on_a_printed_chain():
    _lexes_like_the_reference(print_model(relay_chain_model(30)))


def test_spans_asked_in_any_order_match_the_reference():
    # spans count lines from the last one asked for, back or forth
    text = (CORPUS / "tgmt.apml").read_text()
    tokens, _ = tokenize(text, "f.apml")
    expected, _ = naive_tokenize(text, "f.apml")
    order = list(range(len(tokens))) * 2
    random.Random(20261022).shuffle(order)
    assert all(tokens.span(i) == expected[i][2] for i in order)


# Every character class the lexer tells apart, and the two-character
# lexemes whole so that they are frequent; a superscript and an Arabic-Indic
# digit are digits but start no token.
_ALPHABET = (list("/\\*=>{}()[],:.") + [" ", "\t", "\n", "\r", "_", "$"]
             + list("axZ09") + ["\u00e9", "\u03a9", "\u00df"]
             + ["\u00b2", "\u0663"]
             + ["//", "/*", "*/", "=>", "/\\", "\\/", "Pattern"])


def test_tokenize_matches_the_reference_on_random_strings():
    rng = random.Random(20261018)
    for _ in range(20000):
        _lexes_like_the_reference("".join(
            rng.choice(_ALPHABET) for _ in range(rng.randrange(40))))


# Cuts between chunks fall between tokens, in blank runs, in the middle of
# line and block comments, next to stray characters and non-ASCII
# identifiers, and inside an unterminated comment.
_CUT_CASES = [
    "a\nb\n\nc", "x // c /* d\ny", "/* a\n\nb */ c\nd", "/*/\n*/ x\n/*/",
    "/**/\n/* x */\n// /*\ny\n*/ z", "a\n$\n\u00e9\n\u00e9a\u00b2\n\u00b2b",
    "a\n/* b\n\nc", "p\n/*\n", "\u03a9\n/* a */ \u03a9x\n#\n/* b",
]


@pytest.mark.parametrize("chunk", [0, 2])
def test_tokenize_matches_the_reference_across_chunk_cuts(chunk, monkeypatch):
    monkeypatch.setattr(parser, "CHUNK", chunk)
    for text in _CUT_CASES:
        _lexes_like_the_reference(text)
    for name in ALL_CORPUS:
        test_tokenize_matches_the_reference_on_the_corpus(name)
    test_tokenize_matches_the_reference_on_a_printed_chain()
    test_tokenize_matches_the_reference_on_random_strings()


def test_tokens_take_under_40_bytes_each():
    # three columns of 8-byte entries, plus their growth and one string
    # per distinct token text
    text = print_model(relay_chain_model(400))
    tokenize(text)                   # fills re's cache outside the trace
    tracemalloc.start()
    try:
        tokens, _ = tokenize(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * len(tokens)


def _element_spans(model):
    """One line per data type, component type, contract, trigger and proof
    step, with its span: model equality ignores spans."""
    lines = []

    def add(kind, name, span):
        lines.append("%s %s %d:%d-%d:%d" % (kind, name, span.start_line,
                                            span.start_col, span.end_line,
                                            span.end_col))

    def add_contract(c):
        add("contract", c.qualified, c.span)
        for t in c.triggers:
            add("trigger", "%s.%s" % (c.qualified, t.label), t.span)
        for s in getattr(c, "proof", None) or ():
            add("step", "%s.%s" % (c.qualified, s.label), s.span)

    for dt in model.datatypes:
        add("datatype", dt.name, dt.span)
    for ct in model.component_types:
        add("ctype", ct.name, ct.span)
        for c in ct.contracts:
            add_contract(c)
    for c in model.contracts:
        add_contract(c)
    return lines


def test_corpus_element_spans_match_the_golden():
    """The golden file was written by the character-loop lexer's parser."""
    lines = []
    for name in ALL_CORPUS:
        model, _ = load(name)
        lines += ["== " + name] + _element_spans(model)
    golden = ROOT / "tests" / "golden" / "corpus_spans.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()


def mutation_lines():
    """One line per seeded mutation of each corpus file: its diagnostics'
    rules and a short digest of the partial model and the diagnostics."""
    lines = []
    for name, k, text in mutated_corpus(CORPUS):
        model, diags = parse_model(text, name)
        digest = hashlib.sha1(
            (repr(model) + "\n" + repr(diags)).encode()).hexdigest()
        lines.append("%s %d %s %s" % (
            name, k, ",".join(d.rule for d in diags) or "-", digest[:12]))
    return lines


def test_mutated_corpus_parses_like_the_golden():
    """Partial models and diagnostics of broken input are pinned too."""
    golden = ROOT / "tests" / "golden" / "parse_mutations.txt"
    assert "\n".join(mutation_lines()) + "\n" == golden.read_text()


def phrase_edits(text):
    """``(edit, k, text)`` for each token k of text: the text cut after it,
    each keyword replaced by the identifier ``q`` and each identifier by a
    keyword, round-robin over the sorted keywords.  Together they break
    every fixed phrase of the grammar at every token."""
    tokens, _ = tokenize(text)
    keywords = sorted(KEYWORDS)
    renamed = 0
    for k in range(len(tokens) - 1):
        word, end = tokens.texts[k], tokens.ends[k]
        start = end - len(word)
        yield "cut", k, text[:end]
        if word in KEYWORDS:
            yield "q", k, text[:start] + "q" + text[end:]
        elif word.isidentifier():
            keyword = keywords[renamed % len(keywords)]
            renamed += 1
            yield "keyword", k, text[:start] + keyword + text[end:]


def test_broken_phrases_parse_like_the_golden():
    """Every fixed phrase of relay.apml, cut or with a token of the wrong
    kind, reports the same first wrong token and keeps the same partial
    model."""
    lines = []
    for edit, k, text in phrase_edits((CORPUS / "relay.apml").read_text()):
        model, diags = parse_model(text, "relay.apml")
        digest = hashlib.sha1(
            (repr(model) + "\n" + repr(diags)).encode()).hexdigest()
        lines.append("%s %d %s %s" % (
            edit, k, ",".join(d.rule for d in diags) or "-", digest[:12]))
    golden = ROOT / "tests" / "golden" / "phrase_mutations.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()


def test_missing_brace_after_connections_keeps_the_parsed_connections():
    model, _ = load("relay.apml")
    text = (CORPUS / "relay.apml").read_text().replace(
        "(Stage2.i, Stage1.o)\n  }", "(Stage2.i, Stage1.o)\n")
    partial, diags = parse_model(text)
    assert [str(d) for d in diags] == [
        "<input>:50:3: error: expected '}', got 'Contracts' "
        "[UNEXPECTED_TOKEN]"]
    assert partial.connections == model.connections != ()
    assert partial.contracts == ()


# ---------------------------------------------------------------------------
# Round-trip property over generated models

IDENT = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)


@st.composite
def models(draw):
    dt = m.DataType(name="D", sort="S",
                    predicates=(("P", ("D.S",)),),
                    operations=(("f", ("D.S", "D.S"), "D.S"),))
    n_ports = draw(st.integers(1, 3))
    names = draw(st.lists(IDENT, min_size=n_ports + 1, max_size=n_ports + 1,
                          unique=True))
    inputs = tuple(m.Port(n, "A", m.INPUT, "D.S") for n in names[:n_ports])
    output = m.Port(names[n_ports], "A", m.OUTPUT, "D.S")
    x = m.Var("x", "D.S")

    def term(depth):
        if depth > 0 and draw(st.booleans()):
            return m.App("D.f", (term(depth - 1), term(depth - 1)))
        return draw(st.sampled_from([m.PortRef(inputs[0]), x]))

    def pred(depth):
        kind = draw(st.integers(0, 3 if depth > 0 else 1))
        if kind == 0:
            return m.Eq(term(1), term(1))
        if kind == 1:
            return m.Atom("D.P", (term(1),))
        if kind == 2:
            return m.conjoin([pred(depth - 1), pred(depth - 1)])
        return m.disjoin([pred(depth - 1), pred(depth - 1)])

    triggers = tuple(m.Trigger("t%d" % i, pred(1), i)
                     for i in range(draw(st.integers(0, 2))))
    duration = (max([t.time for t in triggers]) if triggers else 0) \
        + draw(st.integers(1, 3))
    contract = m.Contract(name="c", owner="A", variables=(("x", "D.S"),),
                          triggers=triggers,
                          guarantee=m.Eq(m.PortRef(output), x),
                          duration=duration)
    ct = m.ComponentType(name="A", inputs=inputs, outputs=(output,),
                         contracts=(contract,))
    return m.Model(name="Gen", short_name="gen", datatypes=(dt,),
                   component_types=(ct,))


@settings(max_examples=60, deadline=None)
@given(models())
def test_roundtrip_property(model):
    printed = print_model(model)
    again, diags = parse_model(printed)
    assert not diags
    assert again == model
    assert print_model(again) == printed
