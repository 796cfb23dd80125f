"""Lexer and recursive-descent parser for the textual pattern language.

``parse_model`` never raises on bad input: it returns a best-effort partial
model together with span-carrying diagnostics.

A token is a plain tuple ``(kind, text, file, line, col)``.  ``kind`` is ID,
NAT, AND, OR, ARROW, EOF or a punctuation kind; NAT is ASCII digits only.
A token's ``SourceSpan`` is built by ``token_span`` only where something
keeps it, a model element or a diagnostic, so most tokens never get one.
``tokenize`` matches one precompiled pattern per token, and the parser finds
component types by name through a dict, so parsing is linear in the input.
"""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, SourceSpan, ERROR, WARNING
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


class Parser:
    def __init__(self, tokens, diags):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags
        # resolution state
        self.datatypes = []
        self.signature = m.Signature([])
        self.component_types = []
        self.component_by_name = {}      # first declaration wins

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

    def at_kw(self, word):
        return self.at("ID", word)

    def accept(self, kind, text=None):
        t = self.tokens[self.pos]
        if t[0] == kind and (text is None or t[1] == text):
            self.pos += 1
            return t
        return None

    def error(self, message, span=None):
        self.diags.append(Diagnostic(ERROR, "UNEXPECTED_TOKEN", message,
                                     span or token_span(self.tok)))

    def expect(self, kind, what, text=None):
        t = self.accept(kind, text)
        if t is None:
            self.error("expected %s, got %r" % (what, self.tok[1] or "<eof>"))
            raise _ParseError()
        return t

    def expect_kw(self, word):
        return self.expect("ID", "'%s'" % word, word)

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

    def nat(self):
        t = self.expect("NAT", "number")
        return int(t[1])

    def comma_list(self, parse_item, closers):
        """Comma-separated items with per-item recovery."""
        items = []
        while not self.at("EOF") and self.tok[0] not in closers:
            try:
                item = parse_item()
                if item is not None:
                    items.append(item)
            except _ParseError:
                self.skip_balanced(("COMMA",) + closers)
            if not self.accept("COMMA"):
                break
        return items

    # -- model -------------------------------------------------------------

    def parse_model(self):
        if self.at("EOF"):
            self.diags.append(Diagnostic(ERROR, "EXPECTED_PATTERN",
                                         "empty input: expected a Pattern",
                                         token_span(self.tok)))
            return m.EMPTY_MODEL
        if not self.at("ID", "Pattern"):
            self.diags.append(Diagnostic(ERROR, "EXPECTED_PATTERN",
                                         "input does not start with a Pattern",
                                         token_span(self.tok)))
            return m.EMPTY_MODEL
        self.advance()
        name = short = ""
        connections = []
        arch_contracts = []
        try:
            name = self.ident("pattern name")[1]
            self.expect_kw("ShortName")
            short = self.ident("short name")[1]
            self.expect("LBRACE", "'{'")
            if self.at_kw("DTSpec"):
                self.parse_dtspec()
                self.signature = m.Signature(self.datatypes)
            if self.at_kw("CTypes"):
                self.parse_ctypes()
            if self.at_kw("Connections"):
                self.advance()
                self.expect("LBRACE", "'{'")
                connections = self.comma_list(self.parse_connection,
                                              ("RBRACE",))
                self.expect("RBRACE", "'}'")
            if self.at_kw("Contracts"):
                self.advance()
                self.expect("LBRACE", "'{'")
                arch_contracts = self.comma_list(self.parse_arch_contract,
                                                 ("RBRACE",))
                self.expect("RBRACE", "'}'")
            self.expect("RBRACE", "'}'")
            if not self.at("EOF"):
                self.error("trailing input after pattern")
        except _ParseError:
            self.skip_balanced(())
        return m.Model(name=name, short_name=short,
                       datatypes=tuple(self.datatypes),
                       component_types=tuple(self.component_types),
                       connections=tuple(connections),
                       contracts=tuple(arch_contracts))

    # -- data types ----------------------------------------------------------

    def parse_dtspec(self):
        self.expect_kw("DTSpec")
        self.expect("LBRACE", "'{'")
        dts = self.comma_list(self.parse_dt, ("RBRACE",))
        self.expect("RBRACE", "'}'")
        self.datatypes.extend(dts)

    def parse_dt(self):
        span = token_span(self.expect_kw("DT"))
        name = self.ident("data type name")[1]
        self.expect("LPAREN", "'('")
        sort = None
        predicates = []
        operations = []
        while not self.at("RPAREN") and not self.at("EOF"):
            if self.at_kw("Sort"):
                self.advance()
                sort = self.ident("sort name")[1]
            elif self.at_kw("Predicate"):
                self.advance()
                predicates.extend(self.parse_symbol_decls(name, with_result=False))
            elif self.at_kw("Operation"):
                self.advance()
                operations.extend(self.parse_symbol_decls(name, with_result=True))
            else:
                self.error("expected Sort, Predicate or Operation")
                raise _ParseError()
        self.expect("RPAREN", "')'")
        return m.DataType(name=name, sort=sort, predicates=tuple(predicates),
                          operations=tuple(operations), span=span)

    def parse_symbol_decls(self, dt_name, with_result):
        """`name: S1, S2 => R, name2: ...` - a comma both separates argument
        sorts and successive declarations; an `ID :` lookahead starts a new
        declaration."""
        decls = []
        while True:
            sym = self.ident("symbol name")[1]
            self.expect("COLON", "':'")
            args = [self.parse_sort_ref(dt_name)]
            while self.at("COMMA") and not self._next_is_decl_or_end():
                self.advance()
                args.append(self.parse_sort_ref(dt_name))
            if with_result:
                self.expect("ARROW", "'=>'")
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

    def parse_ctypes(self):
        self.expect_kw("CTypes")
        self.expect("LBRACE", "'{'")
        cts = self.comma_list(self.parse_ctype, ("RBRACE",))
        self.expect("RBRACE", "'}'")
        self.component_types.extend(cts)
        for ct in cts:
            self.component_by_name.setdefault(ct.name, ct)

    def parse_ctype(self):
        span = token_span(self.expect_kw("CType"))
        name = self.ident("component type name")[1]
        self.expect("LBRACE", "'{'")
        inputs, outputs, contracts = [], [], []
        if self.at_kw("InputPorts"):
            self.advance()
            self.expect("LBRACE", "'{'")
            inputs = self.comma_list(
                lambda: self.parse_port(name, m.INPUT), ("RBRACE",))
            self.expect("RBRACE", "'}'")
        if self.at_kw("OutputPorts"):
            self.advance()
            self.expect("LBRACE", "'{'")
            outputs = self.comma_list(
                lambda: self.parse_port(name, m.OUTPUT), ("RBRACE",))
            self.expect("RBRACE", "'}'")
        ct = m.ComponentType(name=name, inputs=tuple(inputs),
                             outputs=tuple(outputs), contracts=(), span=span)
        if self.at_kw("Contracts"):
            self.advance()
            self.expect("LBRACE", "'{'")
            contracts = self.comma_list(
                lambda: self.parse_contract(ct), ("RBRACE",))
            self.expect("RBRACE", "'}'")
        self.expect("RBRACE", "'}'")
        return m.ComponentType(name=name, inputs=tuple(inputs),
                               outputs=tuple(outputs),
                               contracts=tuple(contracts), span=span)

    def parse_port(self, owner, direction):
        kw = "InputPort" if direction == m.INPUT else "OutputPort"
        self.expect_kw(kw)
        pname = self.ident("port name")[1]
        self.expect("LPAREN", "'('")
        self.expect_kw("Type")
        self.expect("COLON", "':'")
        sort = self.parse_qualified_sort()
        self.expect("RPAREN", "')'")
        return m.Port(name=pname, owner=owner, direction=direction, sort=sort)

    def parse_qualified_sort(self):
        first = self.ident("sort reference")[1]
        self.expect("DOT", "'.'")
        second = self.ident("sort name")
        sort = "%s.%s" % (first, second[1])
        if sort not in self.signature.sorts:
            self.diags.append(Diagnostic(ERROR, "UNDECLARED_SORT",
                                         "undeclared sort '%s'" % sort,
                                         token_span(second)))
        return sort

    # -- contracts -----------------------------------------------------------

    def parse_contract(self, ctype, arch=False):
        span = token_span(self.expect_kw("Contract"))
        name = self.ident("contract name")[1]
        self.expect("LBRACE", "'{'")
        variables = []
        while self.at_kw("var"):
            self.advance()
            vname = self.ident("variable name")[1]
            self.expect("COLON", "':'")
            vsort = self.parse_qualified_sort()
            variables.append((vname, vsort))
            self.accept("COMMA")
        scope = _Scope(self, ctype, dict(variables))
        triggers = []
        if self.at_kw("triggers"):
            self.advance()
            self.expect("LBRACE", "'{'")
            triggers = self.comma_list(
                lambda: self.parse_trigger(scope), ("RBRACE",))
            self.expect("RBRACE", "'}'")
        self.expect_kw("guarantees")
        self.expect("LBRACE", "'{'")
        guarantee = self.parse_predicate(scope)
        self.expect("RBRACE", "'}'")
        self.expect_kw("duration")
        duration = self.nat()
        proof = None
        if arch and self.at_kw("proof"):
            proof = self.parse_proof(scope, triggers)
        self.expect("RBRACE", "'}'")
        owner = ctype.name if ctype else ""
        if arch:
            return m.ArchitectureContract(
                name=name, owner=owner, variables=tuple(variables),
                triggers=tuple(triggers), guarantee=guarantee,
                duration=duration, proof=proof, span=span)
        return m.Contract(name=name, owner=owner, variables=tuple(variables),
                          triggers=tuple(triggers), guarantee=guarantee,
                          duration=duration, span=span)

    def parse_arch_contract(self):
        return self.parse_contract(None, arch=True)

    def parse_trigger(self, scope):
        label_tok = self.ident("trigger label")
        self.expect("COLON", "':'")
        pred = self.parse_predicate(scope)
        time = 0
        if self.at_kw("at"):
            self.advance()
            time = self.nat()
        return m.Trigger(label=label_tok[1], predicate=pred, time=time,
                         span=token_span(label_tok))

    # -- proofs ----------------------------------------------------------------

    def parse_proof(self, scope, triggers):
        self.expect_kw("proof")
        self.expect("LBRACE", "'{'")
        trigger_labels = {t.label: i for i, t in enumerate(triggers)}
        steps = []
        step_labels = {}

        def parse_step():
            label_tok = self.ident("step label")
            self.expect("COLON", "':'")
            self.expect_kw("at")
            time = self.nat()
            self.expect_kw("have")
            state = self.parse_predicate(scope)
            refs = []
            if self.at_kw("from"):
                self.advance()
                self.expect("LBRACK", "'['")
                refs = self.comma_list(
                    lambda: self.parse_ref_set(trigger_labels, step_labels),
                    ("RBRACK",))
                self.expect("RBRACK", "']'")
            self.expect_kw("using")
            rationale = self.parse_qualified_name("contract reference")
            step = m.ProofStep(label=label_tok[1], time=time, state=state,
                               rationale=rationale,
                               refs=tuple(tuple(r) for r in refs),
                               span=token_span(label_tok))
            step_labels[step.label] = len(steps)
            steps.append(step)
            return step

        self.comma_list(parse_step, ("RBRACE",))
        self.expect("RBRACE", "'}'")
        return tuple(steps)

    def parse_ref_set(self, trigger_labels, step_labels):
        if self.accept("LBRACE"):
            refs = self.comma_list(
                lambda: self.parse_ref(trigger_labels, step_labels),
                ("RBRACE",))
            self.expect("RBRACE", "'}'")
            return [r for r in refs if r is not None]
        r = self.parse_ref(trigger_labels, step_labels)
        return [r] if r is not None else []

    def parse_ref(self, trigger_labels, step_labels):
        label_tok = self.ident("trigger or step label")
        label = label_tok[1]
        connections = []
        has_with = False
        if self.at_kw("with"):
            has_with = True
            self.advance()
            self.expect("LBRACK", "'['")
            connections = self.comma_list(self.parse_connection, ("RBRACK",))
            self.expect("RBRACK", "']'")
        if label in step_labels:
            return m.StepRef(index=step_labels[label],
                             connections=tuple(connections), label=label)
        if label in trigger_labels:
            if has_with:
                self.error("'with' is only allowed on step references",
                           token_span(label_tok))
            return m.TriggerRef(index=trigger_labels[label], label=label)
        self.diags.append(Diagnostic(ERROR, "UNKNOWN_LABEL",
                                     "unknown trigger or step label '%s'"
                                     % label, token_span(label_tok)))
        return None

    def parse_connection(self):
        self.expect("LPAREN", "'('")
        p_in = self.parse_port_ref()
        self.expect("COMMA", "','")
        p_out = self.parse_port_ref()
        self.expect("RPAREN", "')'")
        if p_in is None or p_out is None:
            return None
        return (p_in, p_out)

    def parse_port_ref(self):
        tok = self.ident("qualified port")
        self.expect("DOT", "'.'")
        pname = self.ident("port name")[1]
        ct = self.component_by_name.get(tok[1])
        port = None
        if ct is not None:
            port = next((p for p in ct.ports if p.name == pname), None)
        if port is None:
            self.diags.append(Diagnostic(ERROR, "UNDECLARED_PORT",
                                         "unknown port '%s.%s'"
                                         % (tok[1], pname), token_span(tok)))
        return port

    def parse_qualified_name(self, what):
        first = self.ident(what)[1]
        self.expect("DOT", "'.'")
        second = self.ident(what)[1]
        return "%s.%s" % (first, second)

    # -- predicates and terms ----------------------------------------------

    def parse_predicate(self, scope, depth=0):
        parts = [self.parse_conjunction(scope, depth)]
        while self.accept("OR"):
            parts.append(self.parse_conjunction(scope, depth))
        return m.disjoin(parts)

    def parse_conjunction(self, scope, depth):
        parts = [self.parse_atom(scope, depth)]
        while self.accept("AND"):
            parts.append(self.parse_atom(scope, depth))
        return m.conjoin(parts)

    def parse_atom(self, scope, depth):
        """``depth`` counts the parentheses and operation applications
        around this atom; see MAX_NESTING."""
        if self.at("LPAREN"):
            if depth == MAX_NESTING:
                self.skip_too_deep()
                return m.Atom("?", ())
            self.advance()
            p = self.parse_predicate(scope, depth + 1)
            self.expect("RPAREN", "')'")
            return p
        if self.accept("LBRACK"):
            lhs = self.parse_term(scope, depth)
            self.expect("EQ", "'='")
            rhs = self.parse_term(scope, depth)
            self.expect("RBRACK", "']'")
            return m.Eq(lhs, rhs)
        # predicate-symbol application: DT.pred[args]
        tok = self.ident("predicate")
        self.expect("DOT", "'.'")
        sym = self.ident("predicate name")[1]
        qualified = "%s.%s" % (tok[1], sym)
        self.expect("LBRACK", "'['")
        args = self.comma_list(lambda: self.parse_term(scope, depth),
                               ("RBRACK",))
        self.expect("RBRACK", "']'")
        if qualified not in self.signature.predicate_symbols:
            self.diags.append(Diagnostic(
                ERROR, "UNDECLARED_SYMBOL",
                "'%s' is not a declared predicate" % qualified,
                token_span(tok)))
        return m.Atom(qualified, tuple(args))

    def parse_term(self, scope, depth):
        tok = self.ident("term")
        if self.at("DOT"):
            self.advance()
            second = self.ident("name")[1]
            qualified = "%s.%s" % (tok[1], second)
            if self.at("LBRACK"):
                if depth == MAX_NESTING:
                    self.skip_too_deep()
                    return m.Var(qualified, "?")
                self.advance()
                args = self.comma_list(
                    lambda: self.parse_term(scope, depth + 1), ("RBRACK",))
                self.expect("RBRACK", "']'")
                if qualified not in self.signature.operation_symbols:
                    self.diags.append(Diagnostic(
                        ERROR, "UNDECLARED_SYMBOL",
                        "'%s' is not a declared operation" % qualified,
                        token_span(tok)))
                return m.App(qualified, tuple(args))
            port = scope.resolve_qualified_port(tok[1], second)
            if port is not None:
                return m.PortRef(port)
            self.diags.append(Diagnostic(ERROR, "UNDECLARED_PORT",
                                         "unknown port '%s'" % qualified,
                                         token_span(tok)))
            return m.Var(qualified, "?")
        return scope.resolve(tok, self)

    def skip_too_deep(self):
        """Report the bracket group opening at the current token, nested
        past MAX_NESTING, and skip it whole."""
        self.diags.append(Diagnostic(ERROR, "NESTING_LIMIT",
                                     "nesting deeper than %d levels"
                                     % MAX_NESTING, token_span(self.tok)))
        self.advance()
        self.skip_balanced(())
        self.advance()


class _Scope:
    """Resolution context for terms inside one contract."""

    def __init__(self, parser, ctype, variables):
        self.parser = parser
        self.ctype = ctype               # None for architecture contracts
        self.variables = variables       # name -> sort

    def resolve(self, tok, parser):
        name = tok[1]
        if name in self.variables:
            return m.Var(name, self.variables[name])
        if self.ctype is not None:
            port = next((p for p in self.ctype.ports if p.name == name), None)
            if port is not None:
                return m.PortRef(port)
        parser.diags.append(Diagnostic(
            ERROR, "UNDECLARED_VARIABLE",
            "unknown variable or port '%s'" % name, token_span(tok)))
        return m.Var(name, "?")

    def resolve_qualified_port(self, owner, pname):
        # the enclosing component is not yet registered while its own
        # contracts are being parsed
        if self.ctype is not None and self.ctype.name == owner:
            ct = self.ctype
        else:
            ct = self.parser.component_by_name.get(owner)
        if ct is None:
            return None
        return next((p for p in ct.ports if p.name == pname), None)


def parse_model(text, filename="<input>"):
    """Parse source text into a (Model, diagnostics) pair."""
    tokens, diags = tokenize(text, filename)
    parser = Parser(tokens, diags)
    model = parser.parse_model()
    return model, diags
