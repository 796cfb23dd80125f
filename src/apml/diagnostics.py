"""Source spans and diagnostics shared by the parser, validator and checker."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    """1-based half-open-ish source region; start must not exceed end."""

    file: str = "<input>"
    start_line: int = 1
    start_col: int = 1
    end_line: int = 1
    end_col: int = 1

    def __post_init__(self):
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span end precedes start")

    def __str__(self):
        return "%s:%d:%d" % (self.file, self.start_line, self.start_col)


ERROR = "error"
WARNING = "warning"

# Closed set of diagnostic rule identifiers.  Anything emitted anywhere in the
# toolchain must be registered here; tests enforce this.
RULES = frozenset([
    # lexical / syntactic
    "LEX_ERROR",
    "UNTERMINATED_COMMENT",
    "EXPECTED_PATTERN",
    "UNEXPECTED_TOKEN",
    "NESTING_LIMIT",
    # name resolution
    "DUPLICATE_DT",
    "DUPLICATE_NAME",
    "UNDECLARED_SORT",
    "UNDECLARED_SYMBOL",
    "UNDECLARED_PORT",
    "UNDECLARED_VARIABLE",
    "UNKNOWN_CONTRACT",
    "UNKNOWN_LABEL",
    # structural validation
    "PORT_DIRECTION_CONFLICT",
    "CONNECTION_NOT_INPUT",
    "CONNECTION_NOT_OUTPUT",
    "CONNECTION_DUPLICATE_INPUT",
    "CONNECTION_SORT_MISMATCH",
    "CONTRACT_FIRST_TRIGGER_TIME",
    "CONTRACT_TRIGGER_ORDER",
    "CONTRACT_DURATION_POSITIVE",
    "SORT_MISMATCH",
    "TRIGGER_SCOPE",
    "GUARANTEE_SCOPE",
    "ARCH_PORT_CONNECTED",
])


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    rule: str
    message: str
    span: SourceSpan = field(default_factory=SourceSpan)

    def __post_init__(self):
        if self.severity not in (ERROR, WARNING):
            raise ValueError("bad severity %r" % self.severity)
        if self.rule not in RULES:
            raise ValueError("unregistered diagnostic rule %r" % self.rule)

    def __str__(self):
        return "%s: %s: %s [%s]" % (self.span, self.severity, self.message,
                                    self.rule)


def errors(diags):
    return [d for d in diags if d.severity == ERROR]
