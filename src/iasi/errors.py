"""Shared exception types, and the number-token check every parser uses."""


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
