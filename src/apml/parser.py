"""Lexer and recursive-descent parser for the textual pattern language.

``parse_model`` never raises on bad input: it returns a best-effort partial
model together with span-carrying diagnostics.

``tokenize`` fills ``Tokens``: each token's kind, its text and its end
offset.  A kind is one character: ID, NAT (ASCII digits only), EOF, a
punctuation token's own or one per keyword, so no parse step compares
texts.  ``Tokens.span`` counts a token's line and column only where a model
element or a diagnostic keeps a span, so most tokens never get one.

``tokenize`` has no Python loop per token.  It scans the text in chunks of
about ``CHUNK`` characters, each cut at a newline outside block comments, so
a chunk bounds the memory its matches take, with one ``findall`` each: texts
come from a table of distinct matches, end offsets from summing the match
lengths.  A block comment left open is a chunk's last match, so the chunk is
scanned again up to the line that closes it; at the end of the text it ends
the input.  One pass over the single characters that start no token then
joins up identifiers that start with a non-ASCII letter and reports any
other character.

The parser reads each fixed run of the grammar, such as ``at NAT have``, as
one phrase: one ``str.startswith`` on the kinds tests it, and its texts are
read at known offsets.  On a miss, ``phrase`` reports the first token of
the wrong kind as ``expect`` would.  A phrase ends where a name resolves,
so that diagnostic precedes a later token's, as token by token.  Every
comma list and optional ``Keyword { ... }`` block goes through
``bracketed``, which recovers item by item.  Ports are found by name through
one dict per component, so parsing is linear in the input.

The parser is the one module that resolves names.  It reports every sort
(a symbol declaration's once the whole DTSpec is read, as DTs may refer
forward), port, symbol, variable and proof label that names nothing
declared, so ``model.validate_structure`` judges only the declarations of
the model it returns.  Names inside a contract resolve against state that
``parse_contract`` sets: the owner ("" for the architecture), its ports and
the contract's variables.
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

# The token kinds no text names; KINDS gives the kind of each punctuation
# token and keyword, "@" and the capitals for the keywords.
ID, NAT, EOF = "a", "0", "$"
KINDS = {"=>": ">", "/\\": "&", "\\/": "|"}
KINDS.update((c, c) for c in "{}()[],:.=")
KINDS.update(zip(sorted(KEYWORDS), map(chr, range(64, 91))))

# Parentheses and operation applications nest at most this deep in one
# predicate.  Each level takes two Python frames here and a few in every
# later recursive walk of the predicate, so deeper input is reported as
# NESTING_LIMIT instead of exhausting the interpreter's recursion limit.
# ``/\`` and ``\/`` chains add no depth: they parse to one flat node.
MAX_NESTING = 200


class Tokens:
    """The tokens of one text, ending with EOF: ``kinds[i]`` (``kinds`` is
    a string), ``texts[i]`` and ``ends[i]`` (the offset just past it).
    Spans are mostly asked for in ascending order, so ``offset`` and
    ``line`` keep the last one's place, and a span's line is that line plus
    or minus the newlines between: a parse counts each about once."""

    __slots__ = ("file", "text", "kinds", "texts", "ends", "offset", "line")

    def __init__(self, text, file):
        self.file, self.text = file, text
        self.kinds, self.texts, self.ends = "", [], array("l")
        self.offset, self.line = 0, 1

    def __len__(self):
        return len(self.texts)

    def span(self, i):
        """The source span of token ``i``; a token lies on one line."""
        text, last, width = self.text, self.offset, len(self.texts[i])
        offset = self.ends[i] - width
        if offset < last:
            line = self.line - text.count("\n", offset, last)
        else:
            line = self.line + text.count("\n", last, offset)
        self.offset, self.line = offset, line
        col = offset - text.rfind("\n", 0, offset)
        return SourceSpan(self.file, line, col, line, col + width)


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
        ends.fromlist(list(offsets))
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
                                    tokens.span(i)))
            j = i + 1
        kept = kept or bytearray(b"\1") * len(texts)
        kept[i:j] = bytes(j - i)
    if kept:                         # drop them all in one pass
        texts[:] = compress(texts, kept)
        ends[:] = array("l", compress(ends, kept))
    texts.append("")
    ends.append(end if opened is None else opened)
    if opened is not None:           # at EOF, where the comment opens
        diags.append(Diagnostic(ERROR, "UNTERMINATED_COMMENT",
                                "unterminated block comment",
                                tokens.span(len(texts) - 1)))
    # A token's text determines its kind, so the kinds are filled in one
    # pass here: columns growing side by side in the loop left the
    # allocator more holes and raised the process's peak memory.
    kind_of = {w: KINDS.get(w) or (NAT if w[0] in "0123456789" else ID)
               for w in set(words.values())}
    kind_of[""] = EOF
    tokens.kinds = "".join(map(kind_of.__getitem__, texts))
    return tokens, diags


class _ParseError(Exception):
    pass


# What ``expect`` names in its message when a token of a kind is missing.
_EXPECTED = {kind: "'%s'" % text for text, kind in KINDS.items()}
_EXPECTED[NAT] = "number"
_WORDS = frozenset(ID + "".join(KINDS[word] for word in KEYWORDS))


class _Phrases(dict):
    """A fixed run of tokens, written as their texts -> its kinds, read on
    first use.  NAT stands for a number and any word that is no token's text
    for an identifier, which messages call by it ("_" for a blank)."""

    def __missing__(self, spec):
        self[spec] = "".join(KINDS.get(w) or (NAT if w == "NAT" else ID)
                             for w in spec.split())
        return self[spec]


_PHRASES = _Phrases()
# the commonest atoms, [x = y] and [C.p = y], are read whole
_EQ_NAMES, _EQ_PORT = _PHRASES["[ x = y ]"], _PHRASES["[ C . p = y ]"]
_PORT = {d: "%sPort port_name ( Type : sort_reference . sort_name" % kw
         for d, kw in ((m.INPUT, "Input"), (m.OUTPUT, "Output"))}


class Parser:
    def __init__(self, tokens, diags):
        self.kinds, self.texts, self.span = (tokens.kinds, tokens.texts,
                                             tokens.span)
        self.pos = 0
        self.diags = diags
        # resolution state
        self.signature = m.Signature([])
        self.ports_of = {}               # component name -> its ports by name
        self.symbol_sorts = []           # (sort token, sort) of DT symbols
        self.contracts = set()           # qualified component contracts
        # the contract being parsed: its owner ("" for the architecture),
        # the owner's ports and the contract's variables, by name
        self.owner, self.ports, self.variables = "", {}, {}

    # -- token plumbing ----------------------------------------------------
    # A token is an index into ``kinds`` and ``texts``.  The columns end
    # with EOF, which is never consumed: no phrase holds EOF, so consuming
    # tokens that matched is a plain increment.

    def error(self, message, tok=None, rule="UNEXPECTED_TOKEN"):
        """Report at token ``tok``, by default the current token."""
        span = self.span(self.pos if tok is None else tok)
        self.diags.append(Diagnostic(ERROR, rule, message, span))

    def expect(self, kind, what=None):
        """The current token's index if it has this kind; else report it,
        as ``what`` if given, and abandon the enclosing item."""
        i = self.pos
        if self.kinds[i] == kind:
            self.pos = i + 1
            return i
        self.error("expected %s, got %r" % (what or _EXPECTED[kind],
                                            self.texts[i] or "<eof>"))
        raise _ParseError()

    def phrase(self, spec):
        """The index of the first token of the fixed run ``spec`` (see
        ``_Phrases``), having consumed the run; else report its first token
        of the wrong kind, as ``expect`` would, and abandon the item."""
        kinds, i = self.kinds, self.pos
        want = _PHRASES[spec]
        if kinds.startswith(want, i):
            self.pos = i + len(want)
            return i
        while kinds[self.pos] == want[self.pos - i]:   # EOF ends a miss
            self.pos += 1
        j = self.pos - i
        self.expect(want[j], want[j] == ID and spec.split()[j].replace(
            "_", " "))

    def skip_balanced(self, until=""):
        """Panic-mode recovery: skip to a follow token, one of the kinds
        ``until``, at bracket depth 0."""
        depth, kinds = 0, self.kinds
        while kinds[self.pos] != EOF:
            k = kinds[self.pos]
            if depth == 0 and k in until:
                return
            if k in "{([":
                depth += 1
            elif k in "})]":
                if depth == 0:
                    return
                depth -= 1
            self.pos += 1

    def bracketed(self, head, parse_item, *args, items=None):
        """An optional comma list: the run ``head`` ending in ``{`` or ``[``,
        then items ``parse_item(*args)`` up to the closer, each recovered on
        its own; none without head's first token.  Items but None go into
        ``items``, so a caller's list keeps them should the closer be
        missing."""
        items = [] if items is None else items
        kinds, i = self.kinds, self.pos
        want = _PHRASES[head]
        if kinds[i] != want[0]:
            return items
        if not kinds.startswith(want, i):
            self.phrase(head)            # reports the missing opener
        self.pos = i + len(want)
        closer = "}" if want[-1] == "{" else "]"
        while kinds[self.pos] != closer and kinds[self.pos] != EOF:
            try:
                item = parse_item(*args)
            except _ParseError:
                self.skip_balanced("," + closer)
            else:
                if item is not None:
                    items.append(item)
            if kinds[self.pos] != ",":
                break
            self.pos += 1
        if kinds[self.pos] != closer:
            self.expect(closer)
        self.pos += 1
        return items

    # -- model -------------------------------------------------------------

    def parse_model(self):
        if self.kinds[0] != KINDS["Pattern"]:
            self.error("empty input: expected a Pattern"
                       if self.kinds[0] == EOF
                       else "input does not start with a Pattern",
                       rule="EXPECTED_PATTERN")
            return m.EMPTY_MODEL
        self.pos = 1
        name = short = ""
        datatypes, ctypes, connections, contracts, spans = [], [], [], [], []
        try:
            name = self.texts[self.expect(ID, "pattern name")]
            self.expect(KINDS["ShortName"])
            short = self.texts[self.expect(ID, "short name")]
            self.expect("{")
            # an unclosed DTSpec or CTypes keeps none of its items; an
            # unclosed Connections or Contracts keeps those read so far
            datatypes = self.bracketed("DTSpec {", self.parse_dt)
            self.signature = m.Signature(datatypes)
            # a symbol may name the sort of a DT declared after it
            for tok, sort in self.symbol_sorts:
                self.check_sort(tok, sort)
            ctypes = self.bracketed("CTypes {", self.parse_ctype)
            self.bracketed("Connections {", self.parse_connection, spans,
                           items=connections)
            self.bracketed("Contracts {", self.parse_contract, items=contracts)
            self.expect("}")
            if self.kinds[self.pos] != EOF:
                self.error("trailing input after pattern")
        except _ParseError:
            self.skip_balanced()
        return m.Model(name, short, tuple(datatypes), tuple(ctypes),
                       tuple(connections), tuple(contracts), tuple(spans))

    # -- data types ----------------------------------------------------------

    def parse_dt(self):
        i = self.phrase("DT data_type_name (")
        span, name = self.span(i), self.texts[i + 1]
        sort, predicates, operations, kinds = None, [], [], self.kinds
        while kinds[self.pos] != ")" and kinds[self.pos] != EOF:
            k = kinds[self.pos]
            if k == KINDS["Sort"]:
                sort = self.texts[self.phrase("Sort sort_name") + 1]
            elif k == KINDS["Predicate"] or k == KINDS["Operation"]:
                self.pos += 1
                with_result = k == KINDS["Operation"]
                (operations if with_result else predicates).extend(
                    self.parse_symbol_decls(name, with_result))
            else:
                self.error("expected Sort, Predicate or Operation")
                raise _ParseError()
        self.expect(")")
        return m.DataType(name, sort, tuple(predicates), tuple(operations),
                          span)

    def parse_symbol_decls(self, dt_name, with_result):
        """`name: S1, S2 => R, name2: ...` - a comma both separates argument
        sorts and successive declarations."""
        decls = []
        while True:
            sym = self.texts[self.phrase("symbol_name :")]
            args = [self.parse_sort_ref(dt_name)]
            while self.kinds[self.pos] == "," and not self._next_is_decl():
                self.pos += 1
                args.append(self.parse_sort_ref(dt_name))
            if with_result:
                self.expect(">")
                result = self.parse_sort_ref(dt_name)
                decls.append((sym, tuple(args), result))
            else:
                decls.append((sym, tuple(args)))
            if self.kinds[self.pos] != "," or not self._next_is_decl():
                return decls
            self.pos += 1

    def _next_is_decl(self):
        # after a comma: a word (an identifier or a keyword) and ``:`` start
        # a new declaration rather than a further argument sort.  i + 1 is
        # at most EOF, and i + 2 is read only after a word.
        kinds, i = self.kinds, self.pos
        return kinds[i + 1] in _WORDS and kinds[i + 2] == ":"

    def parse_sort_ref(self, dt_name):
        tok = self.expect(ID, "sort name")
        if self.kinds[self.pos] == ".":
            self.pos += 1
            dt_name, tok = self.texts[tok], self.expect(ID, "sort name")
        sort = "%s.%s" % (dt_name, self.texts[tok])
        self.symbol_sorts.append((tok, sort))
        return sort

    # -- component types -----------------------------------------------------

    def parse_ctype(self):
        i = self.phrase("CType component_type_name {")
        span, name = self.span(i), self.texts[i + 1]
        inputs = tuple(self.bracketed("InputPorts {", self.parse_port, name,
                                      m.INPUT))
        outputs = tuple(self.bracketed("OutputPorts {", self.parse_port,
                                       name, m.OUTPUT))
        # name -> a reference to the port; a name's first declaration wins
        ports = {p.name: m.PortRef(p) for p in reversed(inputs + outputs)}
        contracts = tuple(self.bracketed("Contracts {", self.parse_contract,
                                         name, ports))
        self.expect("}")
        # connections and proofs, read after every CType, may name these
        self.ports_of.setdefault(name, ports)
        self.contracts.update(c.qualified for c in contracts)
        return m.ComponentType(name, inputs, outputs, contracts, span)

    def parse_port(self, owner, direction):
        i = self.phrase(_PORT[direction])
        sort = self.qualified_sort(i + 5)
        self.expect(")")
        return m.Port(self.texts[i + 1], owner, direction, sort)

    def qualified_sort(self, tok):
        """The sort ``DT.S`` read from token ``tok`` on, checked."""
        sort = "%s.%s" % (self.texts[tok], self.texts[tok + 2])
        if sort not in self.signature.sorts:
            self.check_sort(tok + 2, sort)
        return sort

    def check_sort(self, tok, sort):
        if sort not in self.signature.sorts:
            self.error("undeclared sort '%s'" % sort, tok, "UNDECLARED_SORT")

    # -- contracts -----------------------------------------------------------

    def parse_contract(self, owner="", ports=None):
        """A component's contract, with its owner's ``ports`` by name, or the
        architecture's when ``owner`` is empty; only the architecture's may
        carry a proof."""
        i = self.phrase("Contract contract_name {")
        span, name = self.span(i), self.texts[i + 1]
        kinds, variables, names = self.kinds, [], {}
        while kinds[self.pos] == KINDS["var"]:
            i = self.phrase("var variable_name : sort_reference . sort_name")
            vname, sort = self.texts[i + 1], self.qualified_sort(i + 3)
            variables.append((vname, sort))
            names[vname] = m.Var(vname, sort)
            if kinds[self.pos] == ",":
                self.pos += 1
        self.owner, self.ports = owner, {} if ports is None else ports
        self.variables = names
        triggers = self.bracketed("triggers {", self.parse_trigger)
        self.phrase("guarantees {")
        guarantee = self.parse_predicate()
        duration = int(self.texts[self.phrase("} duration NAT") + 2])
        kind, proof = m.Contract, ()
        if not owner:
            kind, proof = m.ArchitectureContract, (
                self.parse_proof(triggers)
                if kinds[self.pos] == KINDS["proof"] else None,)
        self.expect("}")
        return kind(name, owner, tuple(variables), tuple(triggers), guarantee,
                    duration, span, *proof)

    def parse_trigger(self):
        label_tok = self.phrase("trigger_label :")
        span = self.span(label_tok)
        pred = self.parse_predicate()
        time = (int(self.texts[self.phrase("at NAT") + 1])
                if self.kinds[self.pos] == KINDS["at"] else 0)
        return m.Trigger(self.texts[label_tok], pred, time, span)

    # -- proofs ----------------------------------------------------------------

    def parse_proof(self, triggers):
        trigger_labels = {t.label: i for i, t in enumerate(triggers)}
        steps, step_labels = [], {}

        def parse_ref():
            label_tok = self.expect(ID, "trigger or step label")
            label = self.texts[label_tok]
            has_with = self.kinds[self.pos] == KINDS["with"]
            connections = self.bracketed("with [", self.parse_connection)
            if label in step_labels:
                return m.StepRef(step_labels[label], tuple(connections),
                                 label)
            if label in trigger_labels:
                if has_with:
                    self.error("'with' is only allowed on step references",
                               label_tok)
                return m.TriggerRef(trigger_labels[label], label)
            self.error("unknown trigger or step label '%s'" % label,
                       label_tok, "UNKNOWN_LABEL")
            return None

        def ref_set():
            if self.kinds[self.pos] == "{":
                return self.bracketed("{", parse_ref)
            ref = parse_ref()
            return [] if ref is None else [ref]

        def parse_step():
            i = self.phrase("step_label : at NAT have")
            span = self.span(i)
            state = self.parse_predicate()
            refs = self.bracketed("from [", ref_set)
            tok = self.phrase(
                "using contract_reference . contract_reference") + 1
            rationale = "%s.%s" % (self.texts[tok], self.texts[tok + 2])
            if rationale not in self.contracts:
                self.error("undeclared contract '%s'" % rationale, tok,
                           "UNDECLARED_CONTRACT")
            label = self.texts[i]
            step_labels[label] = len(steps)
            return m.ProofStep(label, int(self.texts[i + 3]), state,
                               rationale, tuple(map(tuple, refs)), span)

        return tuple(self.bracketed("proof {", parse_step, items=steps))

    def parse_connection(self, spans=None):
        """An (input, output) port pair, or None once reported; its span
        goes into ``spans`` if given."""
        tok = self.phrase("( qualified_port . port_name")
        p_in = self.port_of(tok + 1)
        p_out = self.port_of(self.phrase(", qualified_port . port_name") + 1)
        self.expect(")")
        if p_in is None or p_out is None:
            return None
        if spans is not None:
            spans.append(self.span(tok))
        return (p_in.port, p_out.port)

    def port_of(self, tok, ports=None):
        """A reference to the port ``C.p`` read from token ``tok`` on, found
        in ``ports`` (by default C's), or None once reported."""
        if ports is None:
            ports = self.ports_of.get(self.texts[tok], {})
        port = ports.get(self.texts[tok + 2])
        if port is None:
            self.error("unknown port '%s.%s'" % (self.texts[tok],
                                                 self.texts[tok + 2]), tok,
                       "UNDECLARED_PORT")
        return port

    # -- predicates and terms ----------------------------------------------
    # Names resolve in the scope of the contract being parsed: its
    # variables, then its owner's ports; ``C.p`` names port p of C, which
    # in a component's contract must be the owner, not yet declared.

    def parse_predicate(self, depth=0):
        """Atoms joined by ``/\\`` and, binding less tightly, ``\\/``; a
        lone atom is returned as it is."""
        p = self.parse_atom(depth)
        kinds = self.kinds
        if kinds[self.pos] not in "&|":
            return p
        disjuncts, conjuncts = [], [p]
        while kinds[self.pos] in "&|":
            if kinds[self.pos] == "|":
                disjuncts.append(m.conjoin(conjuncts))
                conjuncts = []
            self.pos += 1
            conjuncts.append(self.parse_atom(depth))
        disjuncts.append(m.conjoin(conjuncts))
        return m.disjoin(disjuncts)

    def parse_atom(self, depth):
        """``depth`` counts the parentheses and operation applications
        around this atom; see MAX_NESTING."""
        kinds, i = self.kinds, self.pos
        if kinds.startswith(_EQ_NAMES, i):
            self.pos = i + 5
            return m.Eq(self.name_term(i + 1), self.name_term(i + 3))
        if kinds.startswith(_EQ_PORT, i):
            self.pos = i + 7
            return m.Eq(self.port_term(i + 1), self.name_term(i + 5))
        if kinds[i] == "(":
            if depth == MAX_NESTING:
                self.skip_too_deep()
                return m.Atom("?", ())
            self.pos = i + 1
            p = self.parse_predicate(depth + 1)
            self.expect(")")
            return p
        if kinds[i] == "[":
            self.pos = i + 1
            lhs = self.parse_term(depth)
            self.expect("=")
            rhs = self.parse_term(depth)
            self.expect("]")
            return m.Eq(lhs, rhs)
        # predicate-symbol application: DT.pred[args]
        tok = self.phrase("predicate . predicate_name")
        qualified = "%s.%s" % (self.texts[tok], self.texts[tok + 2])
        if self.kinds[self.pos] != "[":
            self.expect("[")
        args = self.bracketed("[", self.parse_term, depth)
        if qualified not in self.signature.predicate_symbols:
            self.error("'%s' is not a declared predicate" % qualified, tok,
                       "UNDECLARED_SYMBOL")
        return m.Atom(qualified, tuple(args))

    def parse_term(self, depth):
        tok = self.expect(ID, "term")
        if self.kinds[self.pos] != ".":
            return self.name_term(tok)
        self.pos += 1
        self.expect(ID, "name")
        if self.kinds[self.pos] != "[":
            return self.port_term(tok)
        qualified = "%s.%s" % (self.texts[tok], self.texts[tok + 2])
        if depth == MAX_NESTING:
            self.skip_too_deep()
            return m.Var(qualified, "?")
        args = self.bracketed("[", self.parse_term, depth + 1)
        if qualified not in self.signature.operation_symbols:
            self.error("'%s' is not a declared operation" % qualified,
                       tok, "UNDECLARED_SYMBOL")
        return m.App(qualified, tuple(args))

    def name_term(self, tok):
        """The variable or port that the name at token ``tok`` names."""
        name = self.texts[tok]
        term = self.variables.get(name) or self.ports.get(name)
        if term is None:
            self.error("unknown variable or port '%s'" % name, tok,
                       "UNDECLARED_VARIABLE")
            return m.Var(name, "?")
        return term

    def port_term(self, tok):
        """The port ``C.p`` read from token ``tok`` on."""
        component, qualified = self.texts[tok], "%s.%s" % (
            self.texts[tok], self.texts[tok + 2])
        if self.owner and component != self.owner:
            self.error("a contract of '%s' may name only its own ports, "
                       "not '%s'" % (self.owner, qualified), tok,
                       "UNDECLARED_PORT")
            return m.Var(qualified, "?")
        port = self.port_of(tok, self.ports if self.owner else None)
        return m.Var(qualified, "?") if port is None else port

    def skip_too_deep(self):
        """Report the bracket group opening at the current token, nested
        past MAX_NESTING, and skip it whole."""
        self.error("nesting deeper than %d levels" % MAX_NESTING,
                   rule="NESTING_LIMIT")
        self.pos += 1
        self.skip_balanced()
        if self.kinds[self.pos] != EOF:      # the group's closer
            self.pos += 1


def parse_model(text, filename="<input>"):
    """Parse source text into a (Model, diagnostics) pair."""
    tokens, diags = tokenize(text, filename)
    parser = Parser(tokens, diags)
    model = parser.parse_model()
    return model, diags
