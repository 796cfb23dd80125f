"""Lexer and recursive-descent parser for the textual pattern language.

``parse_model`` never raises on bad input: it returns a best-effort partial
model together with span-carrying diagnostics.

``tokenize`` fills ``Tokens``, three parallel columns: each token's kind, its
text and its end offset.  A token is an index into them.  ``kind`` is ID,
NAT, AND, OR, ARROW, EOF or a punctuation kind; NAT is ASCII digits only.
No token stores its line or column: ``Tokens.span`` finds them by bisecting
the offsets of the line starts, only where something keeps a span, a model
element or a diagnostic, so most tokens never get one.

``tokenize`` has no Python loop per token.  It scans the text in chunks of
about ``CHUNK`` characters, each cut at a newline outside block comments, so
a chunk bounds the memory its matches take, with one ``findall`` each: texts
come from a table of distinct matches, end offsets from summing the match
lengths.  A block comment left open is a chunk's last match, so the chunk is
scanned again up to the line that closes it; at the end of the text it ends
the input.  One pass over the single characters that start no token then
joins up identifiers that start with a non-ASCII letter and reports any
other character.  The parser finds component ports by name through one dict
per component, so parsing is linear in the input.

Every comma list between braces or brackets goes through ``bracketed``, which
recovers item by item, and every optional ``Keyword { ... }`` block through
``section``.  Names inside a contract resolve against parser state that
``parse_contract`` sets: the owner ("" for the architecture), its ports and
the contract's variables.

The parser is the one module that resolves names.  It reports every sort
(a symbol declaration's once the whole DTSpec is read, as DTs may refer
forward), port, symbol, variable and proof label that names nothing
declared, so ``model.validate_structure`` judges only the declarations of
the model it returns.
"""

import re
from array import array
from bisect import bisect_right
from itertools import accumulate, compress

from .diagnostics import Diagnostic, SourceSpan, ERROR
from . import model as m

KEYWORDS = frozenset([
    "Pattern", "ShortName", "DTSpec", "DT", "Sort", "Predicate", "Operation",
    "CTypes", "CType", "InputPorts", "InputPort", "OutputPorts", "OutputPort",
    "Connections", "Contracts", "Contract", "Type", "var", "triggers",
    "guarantees", "duration", "proof", "at", "have", "from", "with", "using",
])

# ``\w`` is exactly ``str.isalnum`` or "_", but no class is exactly
# ``str.isalpha``, so an identifier that starts with a non-ASCII letter
# matches as that letter alone.  A block comment left open runs to the end
# of the scan.  The last alternative excludes blanks, or a trailing blank
# would match it after backtracking.
_TOKEN_RE = re.compile(r"""[ \t\r\n]*(?:=>|[{}()\[\],:.=]|[A-Za-z_]\w*|[0-9]+
    |/\\|\\/|//[^\n]*|/\*.*?\*/|/\*.*|[^ \t\r\n])""",
                       re.VERBOSE | re.DOTALL)
_OPEN = re.compile(r"/\*(?:(?!\*/).)*", re.DOTALL).fullmatch
_WORD_RE = re.compile(r"\w*")
# A single character that starts no token.
_STRAY = re.compile(r"[^\w{}()\[\],:.=]", re.ASCII).fullmatch
# ``tokenize`` scans this many characters per ``findall``, and on to the
# next newline outside block comments.
CHUNK = 4096
_PUNCTUATION = {
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ":": "COLON", ".": "DOT",
    "=": "EQ", "=>": "ARROW", "/\\": "AND", "\\/": "OR",
}

# Parentheses and operation applications nest at most this deep in one
# predicate.  Each level takes three Python frames here and a few in every
# later recursive walk of the predicate, so deeper input is reported as
# NESTING_LIMIT instead of exhausting the interpreter's recursion limit.
# ``/\`` and ``\/`` chains add no depth: they parse to one flat node.
MAX_NESTING = 200


class Tokens:
    """The tokens of one text, ending with EOF: ``kinds[i]``, ``texts[i]``
    and ``ends[i]`` (the offset just past it) describe token ``i``."""

    __slots__ = ("file", "kinds", "texts", "ends", "line_starts")

    def __init__(self, text, file):
        self.file = file
        self.kinds, self.texts, self.ends = [], [], array("l")
        self.line_starts = array("l", [0] + [
            mo.end() for mo in re.finditer("\n", text)])

    def __len__(self):
        return len(self.kinds)

    def at_offset(self, offset, width):
        """The span of ``width`` characters from ``offset``, on one line."""
        line = bisect_right(self.line_starts, offset)
        col = offset - self.line_starts[line - 1] + 1
        return SourceSpan(self.file, line, col, line, col + width)

    def span(self, i):
        """The source span of token ``i``; a token lies on one line."""
        width = len(self.texts[i])
        return self.at_offset(self.ends[i] - width, width)


class _Words(dict):
    """Match -> its token text, one string per distinct text: the blank
    prefix is stripped once per distinct match."""

    def __missing__(self, match):
        word = match.lstrip(" \t\r\n")
        word = self[match] = self.setdefault(word, word)
        return word


def tokenize(text, filename="<input>"):
    """The ``Tokens`` of text and the lexical diagnostics."""
    tokens = Tokens(text, filename)
    texts, ends, words = tokens.texts, tokens.ends, _Words()
    find, pos, end, opened = text.find, 0, len(text), None
    while pos < end:
        cut = find("\n", pos + CHUNK) + 1 or end
        matches = _TOKEN_RE.findall(text, pos, cut)
        # a block comment open at the cut is the last match: cut after the
        # line that closes it
        while cut < end and matches and _OPEN(words[matches[-1]]):
            k = find("*/", cut - len(words[matches[-1]]) + 2)
            cut = find("\n", k + 2) + 1 or end if k >= 0 else end
            matches = _TOKEN_RE.findall(text, pos, cut)
        offsets = accumulate(map(len, matches), initial=pos)
        next(offsets)
        found = map(words.__getitem__, matches)
        if find("//", pos, cut) >= 0 or find("/*", pos, cut) >= 0:
            found = list(found)
            if _OPEN(found[-1]):     # the text ends in this comment
                opened = end - len(found[-1])
            keep = [w[:2] not in ("//", "/*") for w in found]
            offsets, found = compress(offsets, keep), compress(found, keep)
        ends.extend(offsets)
        texts.extend(found)
        pos = cut
    # repair the single characters that start no token, in order
    stray = set(filter(_STRAY, words))
    hits = [e - 1 for e, w in zip(ends, texts) if w in stray] if stray else ()
    diags, joined, kept = [], 0, None
    for start in hits:
        if start < joined:
            continue
        i = bisect_right(ends, start)
        if text[start].isalpha():
            joined = _WORD_RE.match(text, start).end()
            word, j = text[start:joined], bisect_right(ends, joined)
            texts[i], ends[i] = words.setdefault(word, word), joined
            i += 1
        else:
            diags.append(Diagnostic(ERROR, "LEX_ERROR", "unexpected "
                                    "character %r" % text[start],
                                    tokens.at_offset(start, 1)))
            j = i + 1
        kept = kept or bytearray(b"\1") * len(texts)
        kept[i:j] = bytes(j - i)
    if kept:                         # drop them all in one pass
        texts[:] = compress(texts, kept)
        ends[:] = array("l", compress(ends, kept))
    if opened is not None:
        diags.append(Diagnostic(ERROR, "UNTERMINATED_COMMENT",
                                "unterminated block comment",
                                tokens.at_offset(opened, 0)))
        end = opened
    texts.append("")
    ends.append(end)
    # A token's text determines its kind, so the kinds column is filled in
    # one pass here: three columns growing side by side in the loop left
    # the allocator more holes and raised the process's peak memory.
    kind_of = {word: _PUNCTUATION.get(word)
               or ("NAT" if word[0] in "0123456789" else "ID")
               for word in words}
    kind_of[""] = "EOF"
    tokens.kinds.extend(map(kind_of.__getitem__, texts))
    return tokens, diags


class _ParseError(Exception):
    pass


# What ``expect`` names in its message when a token of a kind is missing.
_EXPECTED = {kind: "'%s'" % text for text, kind in _PUNCTUATION.items()}
_EXPECTED["NAT"] = "number"


def _by_name(ports):
    """Name -> port; the first declaration of a name wins."""
    return {p.name: p for p in reversed(ports)}


class Parser:
    def __init__(self, tokens, diags):
        self.tokens = tokens
        self.kinds, self.texts = tokens.kinds, tokens.texts
        self.pos = 0
        self.diags = diags
        # resolution state
        self.signature = m.Signature([])
        self.ports_of = {}               # component name -> its ports by name
        self.symbol_sorts = []           # (sort token, sort) of DT symbols
        self.contracts = set()           # qualified component contracts
        # the contract being parsed: its owner ("" for the architecture),
        # the owner's ports by name and the contract's variables by name
        self.owner, self.ports, self.variables = "", {}, {}

    # -- token plumbing ----------------------------------------------------
    # A token is an index into ``kinds`` and ``texts``; index 0 is a token,
    # so a returned index is tested against None, never for truth.  The
    # columns end with EOF, which advance never passes; no caller accepts or
    # expects EOF, so consuming a token that matched is a plain increment.

    def advance(self):
        if self.kinds[self.pos] != "EOF":
            self.pos += 1

    def at(self, kind, text=None):
        i = self.pos
        return self.kinds[i] == kind and (text is None
                                          or self.texts[i] == text)

    def accept(self, kind, text=None):
        """The current token's index if it has this kind (and text), having
        consumed it; else None."""
        i = self.pos
        if self.kinds[i] == kind and (text is None or self.texts[i] == text):
            self.pos = i + 1
            return i
        return None

    def error(self, message, tok=None, rule="UNEXPECTED_TOKEN"):
        """Report at token ``tok``, by default the current token."""
        span = self.tokens.span(self.pos if tok is None else tok)
        self.diags.append(Diagnostic(ERROR, rule, message, span))

    def expect(self, kind, text=None):
        """The current token's index if it has this kind (and, for a
        keyword, this text); else report it and abandon the enclosing
        item."""
        i = self.pos
        if self.kinds[i] == kind and (text is None or self.texts[i] == text):
            self.pos = i + 1
            return i
        self.error("expected %s, got %r" % (
            "'%s'" % text if text else _EXPECTED[kind],
            self.texts[i] or "<eof>"))
        raise _ParseError()

    def skip_balanced(self, until_kinds):
        """Panic-mode recovery: skip to a follow token at bracket depth 0."""
        depth = 0
        while not self.at("EOF"):
            k = self.kinds[self.pos]
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
        i = self.pos
        if self.kinds[i] == "ID" and self.texts[i] not in KEYWORDS:
            self.pos = i + 1
            return i
        self.error("expected %s, got %r" % (what, self.texts[i] or "<eof>"))
        raise _ParseError()

    def dotted(self, what, then):
        """``ID . ID``: both token indices and the dotted name."""
        first = self.ident(what)
        self.expect("DOT")
        second = self.ident(then)
        return first, second, "%s.%s" % (self.texts[first],
                                         self.texts[second])

    def nat(self):
        return int(self.texts[self.expect("NAT")])

    def bracketed(self, parse_item, opener="LBRACE", items=None):
        """A comma list between braces or brackets, each item recovered on
        its own; None items are dropped.  The items go into ``items``, so a
        caller that passes its own list keeps them should the closer be
        missing."""
        closer = "RBRACE" if opener == "LBRACE" else "RBRACK"
        items = [] if items is None else items
        self.expect(opener)
        kinds = self.kinds
        while kinds[self.pos] != "EOF" and kinds[self.pos] != closer:
            try:
                item = parse_item()
                if item is not None:
                    items.append(item)
            except _ParseError:
                self.skip_balanced(("COMMA", closer))
            if kinds[self.pos] != "COMMA":
                break
            self.pos += 1
        self.expect(closer)
        return items

    def section(self, word, parse_item, opener="LBRACE", items=None):
        """An optional ``word { ... }`` block; no items if it is absent."""
        if self.accept("ID", word) is not None:
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
        datatypes, ctypes, connections, contracts, spans = [], [], [], [], []
        try:
            name = self.texts[self.ident("pattern name")]
            self.expect("ID", "ShortName")
            short = self.texts[self.ident("short name")]
            self.expect("LBRACE")
            # an unclosed DTSpec or CTypes keeps none of its items; an
            # unclosed Connections or Contracts keeps those read so far
            datatypes = self.section("DTSpec", self.parse_dt)
            self.signature = m.Signature(datatypes)
            # a symbol may name the sort of a DT declared after it
            for tok, sort in self.symbol_sorts:
                self.check_sort(tok, sort)
            ctypes = self.section("CTypes", self.parse_ctype)
            for ct in ctypes:
                self.ports_of.setdefault(ct.name, _by_name(ct.ports))
                self.contracts.update(c.qualified for c in ct.contracts)
            self.section("Connections", lambda: self.parse_connection(spans),
                         "LBRACE", connections)
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
                       contracts=tuple(contracts),
                       connection_spans=tuple(spans))

    # -- data types ----------------------------------------------------------

    def parse_dt(self):
        span = self.tokens.span(self.expect("ID", "DT"))
        name = self.texts[self.ident("data type name")]
        self.expect("LPAREN")
        sort = None
        predicates = []
        operations = []
        while not self.at("RPAREN") and not self.at("EOF"):
            if self.accept("ID", "Sort") is not None:
                sort = self.texts[self.ident("sort name")]
            elif self.accept("ID", "Predicate") is not None:
                predicates.extend(self.parse_symbol_decls(name, with_result=False))
            elif self.accept("ID", "Operation") is not None:
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
            sym = self.texts[self.ident("symbol name")]
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
        # symbol declaration rather than a further argument sort.  The
        # current token is that comma, so i + 1 is at most EOF and i + 2 is
        # read only after an ID.
        kinds, i = self.kinds, self.pos
        return kinds[i + 1] == "ID" and kinds[i + 2] == "COLON"

    def parse_sort_ref(self, dt_name):
        tok = self.ident("sort name")
        if self.accept("DOT") is not None:
            dt_name, tok = self.texts[tok], self.ident("sort name")
        sort = "%s.%s" % (dt_name, self.texts[tok])
        self.symbol_sorts.append((tok, sort))
        return sort

    # -- component types -----------------------------------------------------

    def parse_ctype(self):
        span = self.tokens.span(self.expect("ID", "CType"))
        name = self.texts[self.ident("component type name")]
        self.expect("LBRACE")
        inputs = tuple(self.section(
            "InputPorts", lambda: self.parse_port(name, m.INPUT)))
        outputs = tuple(self.section(
            "OutputPorts", lambda: self.parse_port(name, m.OUTPUT)))
        ports = _by_name(inputs + outputs)
        contracts = self.section(
            "Contracts", lambda: self.parse_contract(name, ports))
        self.expect("RBRACE")
        return m.ComponentType(name=name, inputs=inputs, outputs=outputs,
                               contracts=tuple(contracts), span=span)

    def parse_port(self, owner, direction):
        self.expect("ID", "InputPort" if direction == m.INPUT
                    else "OutputPort")
        pname = self.texts[self.ident("port name")]
        self.expect("LPAREN")
        self.expect("ID", "Type")
        self.expect("COLON")
        sort = self.parse_qualified_sort()
        self.expect("RPAREN")
        return m.Port(name=pname, owner=owner, direction=direction, sort=sort)

    def parse_qualified_sort(self):
        _, second, sort = self.dotted("sort reference", "sort name")
        self.check_sort(second, sort)
        return sort

    def check_sort(self, tok, sort):
        if sort not in self.signature.sorts:
            self.error("undeclared sort '%s'" % sort, tok, "UNDECLARED_SORT")

    # -- contracts -----------------------------------------------------------

    def parse_contract(self, owner="", ports=None):
        """A component's contract, with its owner's ``ports`` by name, or the
        architecture's when ``owner`` is empty; only the architecture's may
        carry a proof."""
        span = self.tokens.span(self.expect("ID", "Contract"))
        name = self.texts[self.ident("contract name")]
        self.expect("LBRACE")
        variables = []
        while self.accept("ID", "var") is not None:
            vname = self.texts[self.ident("variable name")]
            self.expect("COLON")
            variables.append((vname, self.parse_qualified_sort()))
            self.accept("COMMA")
        self.owner, self.ports = owner, {} if ports is None else ports
        self.variables = dict(variables)
        triggers = self.section("triggers", self.parse_trigger)
        self.expect("ID", "guarantees")
        self.expect("LBRACE")
        guarantee = self.parse_predicate()
        self.expect("RBRACE")
        self.expect("ID", "duration")
        duration = self.nat()
        kind, proof = m.Contract, ()
        if not owner:
            kind, proof = m.ArchitectureContract, (
                self.parse_proof(triggers)
                if self.accept("ID", "proof") is not None else None,)
        self.expect("RBRACE")
        return kind(name, owner, tuple(variables), tuple(triggers), guarantee,
                    duration, span, *proof)

    def parse_trigger(self):
        label_tok = self.ident("trigger label")
        self.expect("COLON")
        pred = self.parse_predicate()
        time = self.nat() if self.accept("ID", "at") is not None else 0
        return m.Trigger(label=self.texts[label_tok], predicate=pred,
                         time=time, span=self.tokens.span(label_tok))

    # -- proofs ----------------------------------------------------------------

    def parse_proof(self, triggers):
        trigger_labels = {t.label: i for i, t in enumerate(triggers)}
        steps = []
        step_labels = {}

        def parse_ref():
            label_tok = self.ident("trigger or step label")
            label = self.texts[label_tok]
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
            tok, _, rationale = self.dotted("contract reference",
                                            "contract reference")
            if rationale not in self.contracts:
                self.error("undeclared contract '%s'" % rationale, tok,
                           "UNDECLARED_CONTRACT")
            label = self.texts[label_tok]
            step_labels[label] = len(steps)
            return m.ProofStep(label=label, time=time, state=state,
                               rationale=rationale,
                               refs=tuple(tuple(r) for r in refs),
                               span=self.tokens.span(label_tok))

        return tuple(self.bracketed(parse_step, "LBRACE", steps))

    def parse_connection(self, spans=None):
        """An (input, output) port pair, or None once reported; its span
        goes into ``spans`` if given."""
        tok = self.expect("LPAREN")
        p_in = self.parse_port_ref()
        self.expect("COMMA")
        p_out = self.parse_port_ref()
        self.expect("RPAREN")
        if p_in is None or p_out is None:
            return None
        if spans is not None:
            spans.append(self.tokens.span(tok))
        return (p_in, p_out)

    def parse_port_ref(self):
        tok, second, _ = self.dotted("qualified port", "port name")
        return self.port_of(tok, self.texts[second],
                            self.ports_of.get(self.texts[tok], {}))

    def port_of(self, tok, name, ports):
        """The port ``name`` in ``ports``, the ports by name of component
        ``tok``, or None once reported."""
        port = ports.get(name)
        if port is None:
            self.error("unknown port '%s.%s'" % (self.texts[tok], name), tok,
                       "UNDECLARED_PORT")
        return port

    # -- predicates and terms ----------------------------------------------
    # Names resolve in the scope of the contract being parsed: its
    # variables, then its owner's ports; ``C.p`` names port p of C, which
    # in a component's contract must be the owner, not yet declared.

    def parse_predicate(self, depth=0):
        parts = [self.parse_conjunction(depth)]
        while self.accept("OR") is not None:
            parts.append(self.parse_conjunction(depth))
        return m.disjoin(parts)

    def parse_conjunction(self, depth):
        parts = [self.parse_atom(depth)]
        while self.accept("AND") is not None:
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
        if self.accept("LBRACK") is not None:
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
        if self.accept("DOT") is None:
            name = self.texts[tok]
            if name in self.variables:
                return m.Var(name, self.variables[name])
            port = self.ports.get(name)
            if port is not None:
                return m.PortRef(port)
            self.error("unknown variable or port '%s'" % name, tok,
                       "UNDECLARED_VARIABLE")
            return m.Var(name, "?")
        second = self.texts[self.ident("name")]
        component = self.texts[tok]
        qualified = "%s.%s" % (component, second)
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
        if self.owner and component != self.owner:
            self.error("a contract of '%s' may name only its own ports, "
                       "not '%s'" % (self.owner, qualified), tok,
                       "UNDECLARED_PORT")
            return m.Var(qualified, "?")
        port = self.port_of(tok, second, self.ports if self.owner
                            else self.ports_of.get(component, {}))
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
