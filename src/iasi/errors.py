"""Shared exception types, the number-token check every parser uses, the
result-record base, the attribute guard of the immutable types, and the JSON
writer every document goes through, which knows report rows by their type."""

from json.encoder import encode_basestring_ascii


class ParseError(ValueError):
    """Malformed textual input, with a 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


class InternalCheckError(RuntimeError):
    """A self-verification that can never legitimately fail did fail."""


def _immutable(self, name, value=None):
    """`__setattr__` and `__delattr__` of the immutable types: both refuse."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Record:
    """Field-wise `==`, `Name(field=value, ...)` repr, `__reduce__` and `to_dict`
    over the `__slots__` of a record whose `__init__` takes its fields in slot order.
    Records are unhashable unless they define `__hash__`."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def to_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))


def parse_natural(token: str) -> int | None:
    """The value of a token of ASCII decimal digits, else None.

    `str.isdigit` alone is not enough: `int` silently reads other scripts'
    digits ('٣' as 3) and raises a bare ValueError on superscripts ('²') and
    on tokens longer than the interpreter's integer-string limit.
    """
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:
            return None
    return None


def to_json(obj) -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, written
    directly: with an indent the standard library falls back to its
    pure-Python encoder.  Every fragment goes into one list, joined once.
    Takes dicts with str keys, lists, tuples, str, bool, None and int;
    anything else raises TypeError."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


class _EdgeRows(list):
    """The verifier's ((u, v), ok) report rows, str names and bool flag each,
    which `to_json` writes from one template without testing them."""

    __slots__ = ()


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the text of `obj`, its nested lines indented after `newline`."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if type(obj) is _EdgeRows:
            # One f-string per row; each row carries the separator before
            # it, the first row's comma dropped.
            i1, i2 = inner + "  ", inner + "    "
            head, mid = f",{inner}[{i1}[{i2}", f",{i2}"
            tails = (f"{i1}],{i1}false{inner}]", f"{i1}],{i1}true{inner}]")
            rows = [
                f"{head}{encode_basestring_ascii(u)}{mid}{encode_basestring_ascii(v)}{tails[ok]}"
                for (u, v), ok in obj
            ]
            rows[0] = rows[0][1:]
            out.append("[")
            out += rows
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                sep = "," + inner
                # Strings, most items of a report's other lists, skip the call.
                if type(x) is str:
                    out.append(encode_basestring_ascii(x))
                else:
                    _write(x, inner, out)
        out.append(newline + "]")
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _write(value, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
