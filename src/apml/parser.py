"""Lexer and recursive-descent parser for the textual pattern language.

``parse_model`` never raises on bad input: it returns a best-effort partial
model together with span-carrying diagnostics.

A token is a plain tuple ``(kind, text, file, line, col)``.  ``kind`` is ID,
NAT, AND, OR, ARROW, EOF or a punctuation kind; NAT is ASCII digits only.
A token's ``SourceSpan`` is built by ``token_span`` only where something
keeps it, a model element or a diagnostic, so most tokens never get one.
``tokenize`` matches one precompiled pattern per token, and the parser finds
component ports by name through a dict, so parsing is linear in the input.

Every comma list between braces or brackets goes through ``bracketed``, which
recovers item by item, and every optional ``Keyword { ... }`` block through
``section``.  Names inside a contract resolve against parser state that
``parse_contract`` sets: the owner ("" for the architecture), its ports and
the contract's variables.
"""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, SourceSpan, ERROR
from . import model as m

KEYWORDS = frozenset([
    "Pattern", "ShortName", "DTSpec", "DT", "Sort", "Predicate", "Operation",
    "CTypes", "CType", "InputPorts", "InputPort", "OutputPorts", "OutputPort",
    "Connections", "Contracts", "Contract", "Type", "var", "triggers",
    "guarantees", "duration", "proof", "at", "have", "from", "with", "using",
])

# One alternative per token kind, tried in this order after skipping blanks
# within a line; the group that matched names the token kind.  ``\w`` is
# exactly ``str.isalnum`` or "_", but no class is exactly ``str.isalpha``, so
# an identifier that starts with a non-ASCII letter falls to OTHER, as do the
# start of an unterminated block comment and a stray character.
_TOKEN_RE = re.compile(r"""[ \t\r]*(?:
      (?P<ID>[A-Za-z_]\w*)
    | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<LPAREN>\() | (?P<RPAREN>\))
    | (?P<LBRACK>\[) | (?P<RBRACK>\]) | (?P<COMMA>,) | (?P<COLON>:)
    | (?P<DOT>\.) | (?P<ARROW>=>) | (?P<EQ>=)
    | (?P<NL>\n)
    | (?P<NAT>[0-9]+)
    | (?P<COMMENT>//[^\n]*|/\*.*?\*/)
    | (?P<AND>/\\) | (?P<OR>\\/)
    | (?P<OTHER>[^ \t\r])
    )""", re.VERBOSE | re.DOTALL)
_WORD_RE = re.compile(r"\w*")

# Parentheses and operation applications nest at most this deep in one
# predicate.  Each level takes three Python frames here and a few in every
# later recursive walk of the predicate, so deeper input is reported as
# NESTING_LIMIT instead of exhausting the interpreter's recursion limit.
# ``/\`` and ``\/`` chains add no depth: they parse to one flat node.
MAX_NESTING = 200


def token_span(tok):
    """The source span of a token; a token lies on one line."""
    _, text, file, line, col = tok
    return SourceSpan(file, line, col, line, col + len(text))


def tokenize(text, filename="<input>"):
    """The tokens of text, ending with EOF, and the lexical diagnostics."""
    tokens = []
    diags = []
    line, line_start = 1, 0          # line_start: offset of the line's col 1
    pos, end = 0, len(text)
    match = _TOKEN_RE.match
    while True:
        mo = match(text, pos)
        if mo is None:               # only blanks are left
            break
        kind = mo.lastgroup
        start = mo.start(kind)
        pos = mo.end()
        if kind == "NL":
            line += 1
            line_start = pos
        elif kind == "COMMENT":
            nl = text.count("\n", start, pos)
            if nl:
                line += nl
                line_start = text.rfind("\n", start, pos) + 1
        elif kind != "OTHER":
            tokens.append((kind, text[start:pos], filename, line,
                           start - line_start + 1))
        elif text[start].isalpha():
            pos = _WORD_RE.match(text, pos).end()
            tokens.append(("ID", text[start:pos], filename, line,
                           start - line_start + 1))
        else:
            col = start - line_start + 1
            if text.startswith("/*", start):
                diags.append(Diagnostic(ERROR, "UNTERMINATED_COMMENT",
                                        "unterminated block comment",
                                        SourceSpan(filename, line, col,
                                                   line, col)))
                end = start
                break
            diags.append(Diagnostic(ERROR, "LEX_ERROR",
                                    "unexpected character %r" % text[start],
                                    SourceSpan(filename, line, col,
                                               line, col + 1)))
    tokens.append(("EOF", "", filename, line, end - line_start + 1))
    return tokens, diags


class _ParseError(Exception):
    pass


# What ``expect`` names in its message when a token of a kind is missing.
_EXPECTED = {"LBRACE": "'{'", "RBRACE": "'}'", "LPAREN": "'('",
             "RPAREN": "')'", "LBRACK": "'['", "RBRACK": "']'",
             "COMMA": "','", "COLON": "':'", "DOT": "'.'", "EQ": "'='",
             "ARROW": "'=>'", "NAT": "number"}


def _port_named(ports, name):
    return next((p for p in ports if p.name == name), None)


class Parser:
    def __init__(self, tokens, diags):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags
        # resolution state
        self.signature = m.Signature([])
        self.ports_of = {}               # component name -> its ports;
                                         # the first declaration wins
        # the contract being parsed: its owner ("" for the architecture),
        # the owner's ports and the contract's variables (name -> sort)
        self.owner, self.ports, self.variables = "", (), {}

    # -- token plumbing ----------------------------------------------------
    # t[0] is a token's kind and t[1] its text.  The list ends with EOF,
    # which advance never passes; no caller accepts or expects EOF, so
    # consuming a token that matched is a plain increment.

    @property
    def tok(self):
        return self.tokens[self.pos]

    def peek(self, k=1):
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def advance(self):
        t = self.tokens[self.pos]
        if t[0] != "EOF":
            self.pos += 1
        return t

    def at(self, kind, text=None):
        t = self.tokens[self.pos]
        return t[0] == kind and (text is None or t[1] == text)

    def accept(self, kind, text=None):
        t = self.tokens[self.pos]
        if t[0] == kind and (text is None or t[1] == text):
            self.pos += 1
            return t
        return None

    def error(self, message, tok=None, rule="UNEXPECTED_TOKEN"):
        """Report at ``tok``, by default the current token."""
        self.diags.append(Diagnostic(ERROR, rule, message,
                                     token_span(tok or self.tok)))

    def expect(self, kind, text=None):
        """The current token if it has this kind (and, for a keyword, this
        text); else report it and abandon the enclosing item."""
        t = self.accept(kind, text)
        if t is None:
            self.error("expected %s, got %r" % (
                "'%s'" % text if text else _EXPECTED[kind],
                self.tok[1] or "<eof>"))
            raise _ParseError()
        return t

    def skip_balanced(self, until_kinds):
        """Panic-mode recovery: skip to a follow token at bracket depth 0."""
        depth = 0
        while not self.at("EOF"):
            k = self.tok[0]
            if depth == 0 and k in until_kinds:
                return
            if k in ("LBRACE", "LPAREN", "LBRACK"):
                depth += 1
            elif k in ("RBRACE", "RPAREN", "RBRACK"):
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    def ident(self, what="identifier"):
        t = self.tokens[self.pos]
        if t[0] == "ID" and t[1] not in KEYWORDS:
            self.pos += 1
            return t
        self.error("expected %s, got %r" % (what, t[1] or "<eof>"))
        raise _ParseError()

    def dotted(self, what, then):
        """``ID . ID``: both tokens and the dotted name."""
        first = self.ident(what)
        self.expect("DOT")
        second = self.ident(then)
        return first, second, "%s.%s" % (first[1], second[1])

    def nat(self):
        return int(self.expect("NAT")[1])

    def bracketed(self, parse_item, opener="LBRACE", items=None):
        """A comma list between braces or brackets, each item recovered on
        its own; None items are dropped.  The items go into ``items``, so a
        caller that passes its own list keeps them should the closer be
        missing."""
        closer = "RBRACE" if opener == "LBRACE" else "RBRACK"
        items = [] if items is None else items
        self.expect(opener)
        while not self.at("EOF") and not self.at(closer):
            try:
                item = parse_item()
                if item is not None:
                    items.append(item)
            except _ParseError:
                self.skip_balanced(("COMMA", closer))
            if not self.accept("COMMA"):
                break
        self.expect(closer)
        return items

    def section(self, word, parse_item, opener="LBRACE", items=None):
        """An optional ``word { ... }`` block; no items if it is absent."""
        if self.accept("ID", word):
            return self.bracketed(parse_item, opener, items)
        return [] if items is None else items

    # -- model -------------------------------------------------------------

    def parse_model(self):
        if not self.at("ID", "Pattern"):
            self.error("empty input: expected a Pattern" if self.at("EOF")
                       else "input does not start with a Pattern",
                       rule="EXPECTED_PATTERN")
            return m.EMPTY_MODEL
        self.advance()
        name = short = ""
        datatypes, ctypes, connections, contracts = [], [], [], []
        try:
            name = self.ident("pattern name")[1]
            self.expect("ID", "ShortName")
            short = self.ident("short name")[1]
            self.expect("LBRACE")
            # an unclosed DTSpec or CTypes keeps none of its items; an
            # unclosed Connections or Contracts keeps those read so far
            datatypes = self.section("DTSpec", self.parse_dt)
            self.signature = m.Signature(datatypes)
            ctypes = self.section("CTypes", self.parse_ctype)
            for ct in ctypes:
                self.ports_of.setdefault(ct.name, ct.ports)
            self.section("Connections", self.parse_connection, "LBRACE",
                         connections)
            self.section("Contracts", self.parse_contract, "LBRACE",
                         contracts)
            self.expect("RBRACE")
            if not self.at("EOF"):
                self.error("trailing input after pattern")
        except _ParseError:
            self.skip_balanced(())
        return m.Model(name=name, short_name=short,
                       datatypes=tuple(datatypes),
                       component_types=tuple(ctypes),
                       connections=tuple(connections),
                       contracts=tuple(contracts))

    # -- data types ----------------------------------------------------------

    def parse_dt(self):
        span = token_span(self.expect("ID", "DT"))
        name = self.ident("data type name")[1]
        self.expect("LPAREN")
        sort = None
        predicates = []
        operations = []
        while not self.at("RPAREN") and not self.at("EOF"):
            if self.accept("ID", "Sort"):
                sort = self.ident("sort name")[1]
            elif self.accept("ID", "Predicate"):
                predicates.extend(self.parse_symbol_decls(name, with_result=False))
            elif self.accept("ID", "Operation"):
                operations.extend(self.parse_symbol_decls(name, with_result=True))
            else:
                self.error("expected Sort, Predicate or Operation")
                raise _ParseError()
        self.expect("RPAREN")
        return m.DataType(name=name, sort=sort, predicates=tuple(predicates),
                          operations=tuple(operations), span=span)

    def parse_symbol_decls(self, dt_name, with_result):
        """`name: S1, S2 => R, name2: ...` - a comma both separates argument
        sorts and successive declarations; an `ID :` lookahead starts a new
        declaration."""
        decls = []
        while True:
            sym = self.ident("symbol name")[1]
            self.expect("COLON")
            args = [self.parse_sort_ref(dt_name)]
            while self.at("COMMA") and not self._next_is_decl_or_end():
                self.advance()
                args.append(self.parse_sort_ref(dt_name))
            if with_result:
                self.expect("ARROW")
                result = self.parse_sort_ref(dt_name)
                decls.append((sym, tuple(args), result))
            else:
                decls.append((sym, tuple(args)))
            # a comma followed by `ID :` continues the declaration list
            if self.at("COMMA") and self._next_is_decl_or_end():
                self.advance()
                continue
            break
        return decls

    def _next_is_decl_or_end(self):
        # after a comma inside an argument-sort list: `ID :` means a new
        # symbol declaration rather than a further argument sort
        return self.peek()[0] == "ID" and self.peek(2)[0] == "COLON"

    def parse_sort_ref(self, dt_name):
        first = self.ident("sort name")[1]
        if self.accept("DOT"):
            second = self.ident("sort name")[1]
            return "%s.%s" % (first, second)
        return "%s.%s" % (dt_name, first)

    # -- component types -----------------------------------------------------

    def parse_ctype(self):
        span = token_span(self.expect("ID", "CType"))
        name = self.ident("component type name")[1]
        self.expect("LBRACE")
        inputs = tuple(self.section(
            "InputPorts", lambda: self.parse_port(name, m.INPUT)))
        outputs = tuple(self.section(
            "OutputPorts", lambda: self.parse_port(name, m.OUTPUT)))
        contracts = self.section(
            "Contracts", lambda: self.parse_contract(name, inputs + outputs))
        self.expect("RBRACE")
        return m.ComponentType(name=name, inputs=inputs, outputs=outputs,
                               contracts=tuple(contracts), span=span)

    def parse_port(self, owner, direction):
        self.expect("ID", "InputPort" if direction == m.INPUT
                    else "OutputPort")
        pname = self.ident("port name")[1]
        self.expect("LPAREN")
        self.expect("ID", "Type")
        self.expect("COLON")
        sort = self.parse_qualified_sort()
        self.expect("RPAREN")
        return m.Port(name=pname, owner=owner, direction=direction, sort=sort)

    def parse_qualified_sort(self):
        _, second, sort = self.dotted("sort reference", "sort name")
        if sort not in self.signature.sorts:
            self.error("undeclared sort '%s'" % sort, second,
                       "UNDECLARED_SORT")
        return sort

    # -- contracts -----------------------------------------------------------

    def parse_contract(self, owner="", ports=()):
        """A component's contract, or the architecture's when ``owner`` is
        empty; only the architecture's may carry a proof."""
        span = token_span(self.expect("ID", "Contract"))
        name = self.ident("contract name")[1]
        self.expect("LBRACE")
        variables = []
        while self.accept("ID", "var"):
            vname = self.ident("variable name")[1]
            self.expect("COLON")
            variables.append((vname, self.parse_qualified_sort()))
            self.accept("COMMA")
        self.owner, self.ports, self.variables = owner, ports, dict(variables)
        triggers = self.section("triggers", self.parse_trigger)
        self.expect("ID", "guarantees")
        self.expect("LBRACE")
        guarantee = self.parse_predicate()
        self.expect("RBRACE")
        self.expect("ID", "duration")
        duration = self.nat()
        if owner:
            self.expect("RBRACE")
            return m.Contract(name=name, owner=owner,
                              variables=tuple(variables),
                              triggers=tuple(triggers), guarantee=guarantee,
                              duration=duration, span=span)
        proof = self.parse_proof(triggers) if self.accept("ID", "proof") \
            else None
        self.expect("RBRACE")
        return m.ArchitectureContract(
            name=name, owner=owner, variables=tuple(variables),
            triggers=tuple(triggers), guarantee=guarantee,
            duration=duration, proof=proof, span=span)

    def parse_trigger(self):
        label_tok = self.ident("trigger label")
        self.expect("COLON")
        pred = self.parse_predicate()
        time = self.nat() if self.accept("ID", "at") else 0
        return m.Trigger(label=label_tok[1], predicate=pred, time=time,
                         span=token_span(label_tok))

    # -- proofs ----------------------------------------------------------------

    def parse_proof(self, triggers):
        trigger_labels = {t.label: i for i, t in enumerate(triggers)}
        steps = []
        step_labels = {}

        def parse_ref():
            label_tok = self.ident("trigger or step label")
            label = label_tok[1]
            has_with = self.at("ID", "with")
            connections = self.section("with", self.parse_connection,
                                       "LBRACK")
            if label in step_labels:
                return m.StepRef(index=step_labels[label],
                                 connections=tuple(connections), label=label)
            if label in trigger_labels:
                if has_with:
                    self.error("'with' is only allowed on step references",
                               label_tok)
                return m.TriggerRef(index=trigger_labels[label], label=label)
            self.error("unknown trigger or step label '%s'" % label,
                       label_tok, "UNKNOWN_LABEL")
            return None

        def ref_set():
            if self.at("LBRACE"):
                return self.bracketed(parse_ref)
            ref = parse_ref()
            return [] if ref is None else [ref]

        def parse_step():
            label_tok = self.ident("step label")
            self.expect("COLON")
            self.expect("ID", "at")
            time = self.nat()
            self.expect("ID", "have")
            state = self.parse_predicate()
            refs = self.section("from", ref_set, "LBRACK")
            self.expect("ID", "using")
            rationale = self.dotted("contract reference",
                                    "contract reference")[2]
            step_labels[label_tok[1]] = len(steps)
            return m.ProofStep(label=label_tok[1], time=time, state=state,
                               rationale=rationale,
                               refs=tuple(tuple(r) for r in refs),
                               span=token_span(label_tok))

        return tuple(self.bracketed(parse_step, "LBRACE", steps))

    def parse_connection(self):
        self.expect("LPAREN")
        p_in = self.parse_port_ref()
        self.expect("COMMA")
        p_out = self.parse_port_ref()
        self.expect("RPAREN")
        if p_in is None or p_out is None:
            return None
        return (p_in, p_out)

    def parse_port_ref(self):
        tok, second, _ = self.dotted("qualified port", "port name")
        return self.port_of(tok, second[1], self.ports_of.get(tok[1], ()))

    def port_of(self, tok, name, ports):
        """The port ``name`` among ``ports`` of component ``tok``, or None
        once reported."""
        port = _port_named(ports, name)
        if port is None:
            self.error("unknown port '%s.%s'" % (tok[1], name), tok,
                       "UNDECLARED_PORT")
        return port

    # -- predicates and terms ----------------------------------------------
    # Names resolve in the scope of the contract being parsed: its
    # variables, then its owner's ports; ``C.p`` names port p of C, where
    # the owner, not yet declared, stands for itself.

    def parse_predicate(self, depth=0):
        parts = [self.parse_conjunction(depth)]
        while self.accept("OR"):
            parts.append(self.parse_conjunction(depth))
        return m.disjoin(parts)

    def parse_conjunction(self, depth):
        parts = [self.parse_atom(depth)]
        while self.accept("AND"):
            parts.append(self.parse_atom(depth))
        return m.conjoin(parts)

    def parse_atom(self, depth):
        """``depth`` counts the parentheses and operation applications
        around this atom; see MAX_NESTING."""
        if self.at("LPAREN"):
            if depth == MAX_NESTING:
                self.skip_too_deep()
                return m.Atom("?", ())
            self.advance()
            p = self.parse_predicate(depth + 1)
            self.expect("RPAREN")
            return p
        if self.accept("LBRACK"):
            lhs = self.parse_term(depth)
            self.expect("EQ")
            rhs = self.parse_term(depth)
            self.expect("RBRACK")
            return m.Eq(lhs, rhs)
        # predicate-symbol application: DT.pred[args]
        tok, _, qualified = self.dotted("predicate", "predicate name")
        args = self.bracketed(lambda: self.parse_term(depth), "LBRACK")
        if qualified not in self.signature.predicate_symbols:
            self.error("'%s' is not a declared predicate" % qualified, tok,
                       "UNDECLARED_SYMBOL")
        return m.Atom(qualified, tuple(args))

    def parse_term(self, depth):
        tok = self.ident("term")
        if not self.accept("DOT"):
            name = tok[1]
            if name in self.variables:
                return m.Var(name, self.variables[name])
            port = _port_named(self.ports, name)
            if port is not None:
                return m.PortRef(port)
            self.error("unknown variable or port '%s'" % name, tok,
                       "UNDECLARED_VARIABLE")
            return m.Var(name, "?")
        second = self.ident("name")[1]
        qualified = "%s.%s" % (tok[1], second)
        if self.at("LBRACK"):
            if depth == MAX_NESTING:
                self.skip_too_deep()
                return m.Var(qualified, "?")
            args = self.bracketed(lambda: self.parse_term(depth + 1),
                                  "LBRACK")
            if qualified not in self.signature.operation_symbols:
                self.error("'%s' is not a declared operation" % qualified,
                           tok, "UNDECLARED_SYMBOL")
            return m.App(qualified, tuple(args))
        port = self.port_of(tok, second, self.ports if tok[1] == self.owner
                            else self.ports_of.get(tok[1], ()))
        return m.Var(qualified, "?") if port is None else m.PortRef(port)

    def skip_too_deep(self):
        """Report the bracket group opening at the current token, nested
        past MAX_NESTING, and skip it whole."""
        self.error("nesting deeper than %d levels" % MAX_NESTING,
                   rule="NESTING_LIMIT")
        self.advance()
        self.skip_balanced(())
        self.advance()


def parse_model(text, filename="<input>"):
    """Parse source text into a (Model, diagnostics) pair."""
    tokens, diags = tokenize(text, filename)
    parser = Parser(tokens, diags)
    model = parser.parse_model()
    return model, diags
