"""Shared exception types, the number-token check every parser uses, and the
JSON writer every document goes through."""

from json.encoder import encode_basestring_ascii


class ParseError(ValueError):
    """Malformed textual input, with a 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


class InternalCheckError(RuntimeError):
    """A self-verification that can never legitimately fail did fail."""


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


def to_json(obj, newline: str = "\n") -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, written
    directly: with an indent the standard library falls back to its
    pure-Python encoder.  Takes dicts with str keys, lists, tuples, str,
    bool, None and int; anything else raises TypeError."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        parts = []
        row = None
        for x in obj:
            # Strings, bools and edge rows, most items of a report, skip the call.
            if type(x) is str:
                parts.append(encode_basestring_ascii(x))
            elif x is True:
                parts.append("true")
            elif x is False:
                parts.append("false")
            elif (
                type(x) is tuple
                and len(x) == 2
                and (x[1] is True or x[1] is False)
                and type(x[0]) is tuple
                and len(x[0]) == 2
                and type(x[0][0]) is str
                and type(x[0][1]) is str
            ):
                # A ((u, v), ok) row, formatted from one template per list.
                if row is None:
                    i1 = inner + "  "
                    i2 = i1 + "  "
                    row = f"[{i1}[{i2}%s,{i2}%s{i1}],{i1}%s{inner}]"
                u, v = x[0]
                ok = "true" if x[1] else "false"
                parts.append(row % (encode_basestring_ascii(u), encode_basestring_ascii(v), ok))
            else:
                parts.append(to_json(x, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + to_json(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
