"""Exact algebra of finite sets of non-negative integers.

The objects here are the vertex and edge labels of an integer additive
set-indexer: finite sets A, B of non-negative integers, their sumset
A + B = {a+b : a in A, b in B}, elementwise scalings n.A = {n*a}, and the
difference set D(A) of all absolute differences between distinct elements
of A.  The central fact the rest of the library leans on is that
|A + B| = |A| * |B| exactly when D(A) and D(B) are disjoint; both sides of
that equivalence are implemented independently so it can be checked, not
assumed.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from typing import Iterable, Iterator

from .errors import ParseError, _immutable, parse_natural

__all__ = [
    "IntSet",
    "sumset",
    "scale",
    "diff_set",
    "is_strong_pair",
    "parse_int_set",
]


class IntSet:
    """Immutable finite set of non-negative integers, kept as a strictly
    increasing tuple.

    Canonical text form is ``{a1,a2,...,ak}`` with strictly increasing
    elements and no spaces.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int]):
        given = list(elements)
        for x in given:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"set element {x!r} is not an integer")
            if x < 0:
                raise ValueError(f"set element {x} is negative")
        object.__setattr__(self, "elements", tuple(sorted(set(given))))

    @classmethod
    def _trusted(cls, elements: tuple[int, ...]) -> "IntSet":
        """Wrap a tuple already known to be sorted, duplicate-free and non-negative."""
        s = object.__new__(cls)
        object.__setattr__(s, "elements", elements)
        return s

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return type(self)._trusted, (self.elements,)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.elements))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.elements)})"

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"

    def __add__(self, other: "IntSet") -> "IntSet":
        return sumset(self, other)

    @property
    def min(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no minimum")
        return self.elements[0]

    @property
    def max(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no maximum")
        return self.elements[-1]


def _require_nonempty(a: IntSet, what: str) -> None:
    if len(a) == 0:
        raise ValueError(f"{what} requires a nonempty set")


def sumset(a: IntSet, b: IntSet) -> IntSet:
    """{x + y : x in a, y in b}.  Both operands must be nonempty."""
    _require_nonempty(a, "sumset")
    _require_nonempty(b, "sumset")
    return IntSet._trusted(tuple(sorted({x + y for x in a.elements for y in b.elements})))


def scale(n: int, a: IntSet) -> IntSet:
    """Elementwise product n.A = {n*x : x in A}; {0} when n == 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"scale factor {n!r} is not a non-negative integer")
    _require_nonempty(a, "scale")
    return IntSet._trusted(tuple(sorted({n * x for x in a.elements})))


def diff_set(a: IntSet) -> frozenset[int]:
    """D(a): all absolute differences |x - y| over distinct x, y in a; empty
    for singletons.  An edge uv is strong iff D(f(u)).isdisjoint(D(f(v)))."""
    _require_nonempty(a, "diff_set")
    return frozenset(y - x for x, y in combinations(a.elements, 2))


def _sharing(diffs: list[frozenset[int]]) -> list[int]:
    """The difference index: row i has bit j set when diffs[i] and diffs[j]
    share a difference, so its own bit exactly when diffs[i] is nonempty."""
    holders: dict[int, int] = {}  # difference -> the sets that hold it
    for i, d in enumerate(diffs):
        for x in d:
            holders[x] = holders.get(x, 0) | 1 << i
    return [reduce(int.__or__, map(holders.__getitem__, d), 0) for d in diffs]


def is_strong_pair(a: IntSet, b: IntSet) -> bool:
    """Whether the sumset attains maximal cardinality: |a+b| == |a|*|b|.

    Deliberately computed through the sumset itself, not through difference
    sets, so the equivalence with `diff_set(a).isdisjoint(diff_set(b))` stays
    an independently testable theorem.
    """
    _require_nonempty(a, "is_strong_pair")
    _require_nonempty(b, "is_strong_pair")
    return len(sumset(a, b)) == len(a) * len(b)


def parse_int_set(text: str, line: int = 1, col_offset: int = 0) -> IntSet:
    """Parse the canonical form ``{a1,a2,...}``.

    Interior whitespace is tolerated; the emitted form never contains any.
    `line` and `col_offset` locate the text inside a larger file so errors
    can point at the right spot.
    """
    s = text.strip()
    pad = col_offset + len(text) - len(text.lstrip())

    def err(msg: str, pos: int) -> ParseError:
        return ParseError(msg, line=line, column=pad + pos + 1)

    if not s.startswith("{"):
        raise err("expected '{' to open a set", 0)
    if not s.endswith("}"):
        raise err("unterminated set: expected '}'", len(s) - 1)
    body = s[1:-1].strip()
    if not body:
        return IntSet(())
    elements = []
    pos = 1
    for chunk in body.split(","):
        token = chunk.strip()
        if not token:
            raise err("empty element in set", pos)
        x = parse_natural(token)
        if x is None:
            raise err(f"invalid set element {token!r}", pos)
        elements.append(x)
        pos += len(chunk) + 1
    if any(x <= y for x, y in zip(elements[1:], elements)):
        raise err("set elements must be strictly increasing", 1)
    # parse_natural admits only ASCII-digit naturals, checked increasing above.
    return IntSet._trusted(tuple(elements))
