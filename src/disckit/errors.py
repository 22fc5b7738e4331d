"""Error types, the count check and the record base shared across the toolkit.

Every exception carries the process exit code the command line maps it
to: 2 for input syntax problems, 3 for ring or parameter problems, 4
for exceeded enumeration budgets, 5 for internal invariant violations.

It also holds two small pieces that every module shares.  check_int
refuses a count argument (a degree, level, index or budget) that is not
an int: a bool is refused, and so is 2.0.  Record is the base of the
report types (SylvesterSpec, ChartId, Stratum and the rest).  A record
names its fields once, in _fields; Record's __init__, the only one,
binds positional then keyword values to them in __dict__, in field
order, so vars() reads them, and refuses a missing, extra, unknown or
repeated field with TypeError.  A record's conditions on its fields go
in _check, which runs once they are stored.  Record supplies equality
and hashing on the field tuple within one class, a repr in the format
of the standard library's dataclasses, and assignment and deletion that
raise AttributeError, so every record is immutable.  Records are not
dataclasses because importing dataclasses, with the inspect it loads,
took about a third of the package's import time; tests/test_records.py
holds each record to a dataclass twin.
"""

from __future__ import annotations


class DisckitError(Exception):
    """Base class for all structured errors raised by this package."""

    exit_code = 5


class InputSyntaxError(DisckitError):
    """Malformed source text; carries a 1-based line and column."""

    exit_code = 2

    def __init__(self, message: str, line: int, column: int, source: str | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.source = source

    def caret_diagnostic(self) -> str:
        """Multi-line message pointing at the offending column."""
        lines = [f"error: {self.args[0]} (line {self.line}, column {self.column})"]
        if self.source is not None:
            src_lines = self.source.splitlines() or [""]
            if 1 <= self.line <= len(src_lines):
                bad = src_lines[self.line - 1]
                lines.append("  " + bad)
                lines.append("  " + " " * (self.column - 1) + "^")
        return "\n".join(lines)


class RingMismatchError(DisckitError):
    """Operands live in different rings."""

    exit_code = 3


class UnsupportedRingError(DisckitError):
    """The requested ring or ring operation is outside the supported tower."""

    exit_code = 3


class ParameterError(DisckitError):
    """A parameter is out of the documented range."""

    exit_code = 3


class BudgetError(DisckitError):
    """An enumeration would exceed the configured budget."""

    exit_code = 4


class ExactDivisionError(DisckitError):
    """An exact division left a remainder; internal invariant violation."""

    exit_code = 5


def check_int(value, what: str) -> None:
    """Refuse a count argument that is not an int; a bool is refused too."""
    if type(value) is not int:
        raise ParameterError(f"{what} must be an integer, got {value!r}")


class Record:
    """An immutable record of the fields named in _fields (see the module docstring)."""

    _fields: tuple[str, ...] = ()
    _check = None

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            rest = fields[len(values):]
            stray = named.keys() - rest
            if stray:
                raise TypeError(f"{self.__class__.__qualname__}() got unknown or repeated "
                                f"fields {sorted(stray)}")
            values += tuple([named[name] for name in rest if name in named])
        if len(values) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields {fields}, "
                            f"got {len(values)} values")
        self.__dict__.update(zip(fields, values))
        if self._check is not None:
            self._check()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
