"""Source spans and diagnostics shared by the parser, validator and checker,
and ``Record``, the base of the toolchain's immutable value types."""

from collections import UserDict, _tuplegetter
from functools import cached_property
from operator import attrgetter
from types import FunctionType

_set = object.__setattr__
_new = tuple.__new__
_SHAPES = {}                  # (field count, __post_init__) -> (init, new)


class Record:
    """An immutable value record.

    A subclass declares each field once, in constructor order after its
    base's: in ``__slots__``, by annotations or (a ``Value``) in the class
    keyword ``fields``; its default, if any, in the class keyword
    ``defaults``; and, in the class keyword ``uncompared``, the fields
    (spans, labels) left out of equality and hashing.  A check of the field
    values goes in ``__post_init__``.  The class's ``__init__`` (a
    ``Value``'s ``__new__``) is generated from these, as ``dataclasses`` and
    ``namedtuple`` do, from code compiled once per shape.  Records are equal
    when they are of the same class with equal compared fields, and hash by
    those fields with no cache.  ``repr`` lists every field, as a dataclass
    does; ``copy`` and ``pickle`` rebuild a record through its constructor.
    A record declared by annotations keeps a ``__dict__`` (for
    ``cached_property``) and ``dataclasses.replace``, ``fields`` and
    ``asdict`` take it.  Records
    replace ``@dataclass(frozen=True)`` because importing ``dataclasses``
    and generating its methods took about half of ``import apml.cli``.
    """

    __slots__ = ()
    __match_args__ = ()                  # the fields, in constructor order
    _defaults = {}
    _uncompared = ()

    def __init_subclass__(cls, fields=(), uncompared=(), defaults={},
                          **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__slots__")
        if own is None:
            own = vars(cls).get("__annotations__", ())
            cls.__dataclass_fields__ = _DataclassFields(cls)
        fields = cls.__match_args__ = cls.__match_args__ + tuple(own) + fields
        if not fields:                   # Value, a base with no fields
            return
        uncompared = cls._uncompared = cls._uncompared + tuple(uncompared)
        defaults = cls._defaults = dict(cls._defaults, **defaults)
        cls._key = attrgetter(*[f for f in fields if f not in uncompared])
        shape = len(fields), hasattr(cls, "__post_init__")
        if shape not in _SHAPES:         # compile fields _0, _1, ... once
            args = ["_%d" % i for i in range(shape[0])]
            lines = ["def __init__(self, %s):" % ", ".join(args)]
            lines += ["    _set(self, %r, %s)" % (a, a) for a in args]
            lines += ["    self.__post_init__()"] * shape[1]
            lines += ["def __new__(cls, %s):" % ", ".join(args),
                      "    return _new(cls, (cls, %s))" % ", ".join(args)]
            exec("\n".join(lines), scope := {})
            _SHAPES[shape] = scope["__init__"], scope["__new__"]
        value = issubclass(cls, tuple)   # a Value: built by __new__
        code = _SHAPES[shape][value].__code__
        names = dict(zip(code.co_varnames[1:], fields))
        make = FunctionType(code.replace(
            co_varnames=code.co_varnames[:1] + fields,
            co_consts=tuple(names.get(c, c) for c in code.co_consts)),
            globals(), code.co_name,
            tuple(defaults[f] for f in fields[len(fields) - len(defaults):]))
        make.__qualname__ = "%s.%s" % (cls.__qualname__, code.co_name)
        setattr(cls, code.co_name, staticmethod(make) if value else make)
        for i, f in enumerate(fields if value else (), 1):
            setattr(cls, f, _tuplegetter(i, None))   # field i after the tag

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # the key of a record with one compared field is that field, and
            # == does not shortcut identical values as a tuple comparison does
            mine, theirs = self._key(self), other._key(other)
            return mine is theirs or mine == theirs
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__match_args__))

    def __reduce__(self):
        # rebuilt through the constructor, which alone sets the fields
        return type(self), tuple(getattr(self, f)
                                 for f in self.__match_args__)


class Value(tuple, Record):
    """A record stored as the tuple ``(class, field, ...)``: ``tuple``'s own
    ``__hash__`` and ``__eq__`` hash and compare it in C, and C getters read
    its fields.  A subclass declares its fields in the class keyword
    ``fields`` and has empty ``__slots__``."""

    __slots__ = ()
    __repr__ = Record.__repr__


class _DataclassFields(UserDict):
    """The ``__dataclass_fields__`` of a record class declared by
    annotations: ``UserDict`` reads all through ``data``, which
    ``dataclasses.make_dataclass`` makes on first read, not at import."""

    def __init__(self, cls):
        self._cls = cls

    @cached_property
    def data(self):
        from dataclasses import MISSING, field, make_dataclass
        from typing import get_type_hints
        cls, types = self._cls, get_type_hints(self._cls)
        return make_dataclass(cls.__name__, [
            (f, types[f], field(default=cls._defaults.get(f, MISSING),
                                compare=f not in cls._uncompared))
            for f in cls.__match_args__]).__dataclass_fields__


class SourceSpan(Record, defaults=dict(file="<input>", start_line=1,
                                      start_col=1, end_line=1, end_col=1)):
    """1-based half-open-ish source region; start must not exceed end."""

    __slots__ = ("file", "start_line", "start_col", "end_line", "end_col")

    def __post_init__(self):
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span end precedes start")

    def __str__(self):
        return "%s:%d:%d" % (self.file, self.start_line, self.start_col)


NO_SPAN = SourceSpan()


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
    # name resolution, by the parser
    "UNDECLARED_SORT",
    "UNDECLARED_SYMBOL",
    "UNDECLARED_PORT",
    "UNDECLARED_VARIABLE",
    "UNDECLARED_CONTRACT",
    "UNKNOWN_LABEL",
    # structural validation of the declarations
    "DUPLICATE_DT",
    "DUPLICATE_NAME",
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


class Diagnostic(Record, defaults=dict(span=NO_SPAN)):
    __slots__ = ("severity", "rule", "message", "span")

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
