import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import IntSet, diff_set, is_strong_pair, scale, sumset
from iasi.errors import ParseError
from iasi.setalg import parse_int_set

int_sets = st.frozensets(st.integers(0, 30), min_size=1, max_size=6).map(IntSet)


def brute_sumset(a, b):
    return sorted({x + y for x in a for y in b})


def brute_diffs(a):
    return sorted({abs(x - y) for x in a for y in a if x != y})


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def test_sumset_examples():
    a, b = IntSet([1, 2]), IntSet([3, 5])
    assert brute_sumset([1, 2], [3, 5]) == [4, 5, 6, 7]
    assert sumset(a, b) == IntSet([4, 5, 6, 7])

    # the 2+3 = 1+4 collision drops one element
    assert brute_sumset([1, 2], [3, 4]) == [4, 5, 6]
    assert sumset(IntSet([1, 2]), IntSet([3, 4])) == IntSet([4, 5, 6])


@given(int_sets)
def test_sumset_zero_identity(a):
    assert sumset(IntSet([0]), a) == a


def test_scale_examples():
    a = IntSet([1, 2, 4])
    assert scale(1, a) == a
    assert scale(3, a) == IntSet([3, 6, 12])
    assert scale(0, a) == IntSet([0])


def test_diff_set_examples():
    assert diff_set(IntSet([7])) == frozenset()
    assert brute_diffs([1, 2, 4]) == [1, 2, 3]
    assert diff_set(IntSet([1, 2, 4])) == frozenset({1, 2, 3})
    assert brute_diffs([0, 3, 6]) == [3, 6]
    assert diff_set(IntSet([0, 3, 6])) == frozenset({3, 6})


def test_disjoint_examples():
    # D({4}) is empty, so a singleton is disjoint from everything, itself included.
    assert diff_set(IntSet([4])).isdisjoint(diff_set(IntSet([4])))
    assert diff_set(IntSet([0, 1])).isdisjoint(diff_set(IntSet([0, 2, 4])))
    # D({0,1,4}) = {1,3,4} and D({0,3,5}) = {2,3,5} share 3.
    assert not diff_set(IntSet([0, 1, 4])).isdisjoint(diff_set(IntSet([0, 3, 5])))


def test_strong_pair_examples():
    assert is_strong_pair(IntSet([9]), IntSet([0, 4, 5]))
    assert is_strong_pair(IntSet([1, 2]), IntSet([3, 5]))
    assert not is_strong_pair(IntSet([1, 2]), IntSet([3, 4]))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_rejects_negative_elements():
    with pytest.raises(ValueError):
        IntSet([1, -1])


def test_rejects_non_integer_elements_by_name():
    # Mixed and unhashable elements are named too, not left to `sorted` or `set`.
    for elements, shown in ((["x"], "'x'"), ([1, "a"], "'a'"), ([None, 2], "None"), ([[1]], r"\[1\]")):
        with pytest.raises(ValueError, match=f"set element {shown} is not an integer"):
            IntSet(elements)


def test_empty_inputs_rejected():
    empty, a = IntSet([]), IntSet([1])
    for op in (lambda: sumset(empty, a), lambda: sumset(a, empty),
               lambda: diff_set(empty), lambda: is_strong_pair(a, empty),
               lambda: scale(2, empty)):
        with pytest.raises(ValueError):
            op()


def test_intset_is_immutable_and_hashable():
    a = IntSet([2, 1])
    assert a.elements == (1, 2)
    with pytest.raises(AttributeError):
        a.elements = (5,)
    assert len({a, IntSet([1, 2])}) == 1


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------

@given(int_sets, int_sets)
def test_sumset_commutes(a, b):
    assert sumset(a, b) == sumset(b, a)


@given(int_sets, int_sets)
def test_sumset_cardinality_bounds(a, b):
    s = sumset(a, b)
    assert max(len(a), len(b)) <= len(s) <= len(a) * len(b)


@given(int_sets, int_sets, int_sets)
@settings(max_examples=60)
def test_sumset_associates(a, b, c):
    assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))


@given(int_sets, st.integers(1, 9))
def test_diff_set_scaling_covariance(a, n):
    scaled = diff_set(scale(n, a))
    assert scaled == frozenset(n * d for d in diff_set(a))


@given(int_sets, int_sets, st.integers(1, 9))
def test_scaling_preserves_disjointness(a, b, n):
    if diff_set(a).isdisjoint(diff_set(b)):
        assert diff_set(scale(n, a)).isdisjoint(diff_set(scale(n, b)))


@given(int_sets, int_sets)
def test_cardinality_disjointness_equivalence(a, b):
    assert is_strong_pair(a, b) == diff_set(a).isdisjoint(diff_set(b))


def test_equivalence_exhaustive_small_universe():
    universe = range(6)
    subsets = [IntSet(c) for r in range(1, 7) for c in combinations(universe, r)]
    for a in subsets:
        for b in subsets:
            assert is_strong_pair(a, b) == diff_set(a).isdisjoint(diff_set(b))


def test_equivalence_random_large_universe():
    rng = random.Random(20240811)
    for _ in range(10_000):
        a = IntSet(rng.sample(range(31), rng.randint(1, 6)))
        b = IntSet(rng.sample(range(31), rng.randint(1, 6)))
        assert is_strong_pair(a, b) == diff_set(a).isdisjoint(diff_set(b))


@given(int_sets)
def test_singleton_is_strong_with_anything(b):
    assert is_strong_pair(IntSet([3]), b)


@given(int_sets)
def test_diff_set_size_bound(a):
    c = len(a)
    d = diff_set(a)
    assert (len(d) == 0) == (c == 1)
    assert len(d) <= c * (c - 1) // 2


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def test_format_is_canonical():
    assert str(IntSet([4, 1, 2])) == "{1,2,4}"
    assert str(IntSet([])) == "{}"


@given(int_sets)
def test_parse_round_trip(a):
    assert parse_int_set(str(a)) == a


def test_parse_tolerates_whitespace():
    assert parse_int_set("  { 1 , 2 ,  10 } ") == IntSet([1, 2, 10])


@pytest.mark.parametrize(
    "bad",
    [
        "{1,2", "1,2}", "{1,,2}", "{a}", "{2,1}", "{1 2}", "", "{1,٣}", "{1,²}",
        pytest.param("{" + "1" * 5000 + "}", id="5000-digit element"),
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_int_set(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_int_set("{1,2", line=7)
    assert exc.value.line == 7
    assert exc.value.column is not None


# ---------------------------------------------------------------------------
# closed operations build their results without re-validation
# ---------------------------------------------------------------------------

def _canonical(s) -> bool:
    return all(x < y for x, y in zip(s.elements, s.elements[1:]))


@given(int_sets, int_sets, st.integers(0, 9))
def test_closed_operations_match_validating_constructors(a, b, n):
    s = sumset(a, b)
    assert s == IntSet({x + y for x in a for y in b}) and _canonical(s)
    t = scale(n, a)
    assert t == IntSet({n * x for x in a}) and _canonical(t)
    d = diff_set(a)
    assert d == frozenset(abs(x - y) for x in a for y in a if x != y)


def test_scale_rejects_non_integer_factor():
    with pytest.raises(ValueError):
        scale(1.5, IntSet([1, 2]))
    with pytest.raises(ValueError):
        scale(-1, IntSet([1, 2]))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: IntSet([]).min, "no minimum", id="min-of-empty"),
        pytest.param(lambda: IntSet([]).max, "no maximum", id="max-of-empty"),
    ],
)
def test_intset_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@given(int_sets, int_sets)
def test_intset_membership_and_plus(a, b):
    assert all(x in a for x in a.elements)
    assert a.max + 1 not in a and -1 not in a
    assert a + b == sumset(a, b)
