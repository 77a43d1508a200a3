"""The oracles' shared label-pair table, the lemma sweep's failure branch,
and the audit sample of the concurrent search."""

from itertools import combinations_with_replacement

import pytest
from helpers import reference_pair_table, stabiliser_orbits, strong_labelings

import iasi.oracle as oraclemod
from iasi import (
    Graph,
    IntSet,
    OracleConfig,
    complement,
    cycle_graph,
    diff_set,
    exists_concurrent,
    is_strong_pair,
    lemma_oracle,
    path_graph,
    sumset,
    write_graph,
)
from iasi.cli import main
from iasi.errors import InternalCheckError

K2 = Graph(["a", "b"], [("a", "b")])

TABLE_CONFIGS = [
    OracleConfig(universe_max=u, min_card=c, max_card=c)
    for u in (2, 4, 6)
    for c in (1, 2, 3)
    if c <= u + 1
] + [
    OracleConfig(universe_max=4, min_card=1, max_card=5),
    OracleConfig(universe_max=7, min_card=2, max_card=3),
]


def _partners(space) -> list[dict[int, int]]:
    """The `partners` table `_sweep` builds from `space`, read from the
    frame of a sweep of K2 paused after its first partition."""
    sweep = oraclemod._sweep(space, ["a", "b"], (K2,), lambda *args: None)
    next(sweep)
    return sweep.gi_frame.f_locals["partners"]


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=repr)
def test_pair_table_matches_both_routes(cfg):
    space = oraclemod._Space(cfg)
    partners = _partners(space)
    labels = space.labels
    assert labels == cfg.candidate_labels()
    sumset_of_key: dict[int, IntSet] = {}
    key_of_sumset: dict[IntSet, int] = {}
    for i, j in combinations_with_replacement(range(len(labels)), 2):
        a, b = labels[i], labels[j]
        strong = is_strong_pair(a, b)
        assert (space.strong[i] >> j & 1, space.strong[j] >> i & 1) == (strong, strong)
        apart = diff_set(a).isdisjoint(diff_set(b))
        assert (space.ddisjoint[i] >> j & 1, space.ddisjoint[j] >> i & 1) == (apart, apart)
        if not strong:
            continue
        # products equal exactly when the sumsets are: the map is a bijection
        p = space.spread[i] * space.spread[j]
        assert (partners[i][p], partners[j][p]) == (1 << j, 1 << i)
        s = sumset(a, b)
        assert sumset_of_key.setdefault(p, s) == s
        assert key_of_sumset.setdefault(s, p) == p
    # and each row's partners are its strong pairs alone
    assert [sum(row.values()) for row in partners] == space.strong
    assert [len(row) for row in partners] == [row.bit_count() for row in space.strong]


@pytest.mark.parametrize(
    "cfg", [*TABLE_CONFIGS, OracleConfig(universe_max=8, min_card=1, max_card=9)], ids=repr
)
def test_pair_table_from_translation_classes_matches_one_product_per_pair(cfg):
    # The last configuration is the table of `oracle lemma --max 8`.
    space = oraclemod._Space(cfg)
    assert (space.strong, _partners(space)) == reference_pair_table(cfg)


def test_widest_fields_keep_the_strong_rows_exact():
    # At the largest universe a product field is 4 bits wide and counts up
    # to 11 ways to one sum.  Counts of 10 and 11 need two labels of at
    # least 10 elements, so their rows hold every pair that reaches them.
    top = oraclemod.UNIVERSE_LIMIT
    cfg = OracleConfig(universe_max=top, min_card=1, max_card=top + 1)
    space = oraclemod._Space(cfg)
    labels = space.labels
    wide = [i for i, a in enumerate(labels) if len(a) >= 10]
    assert len(wide) == 12
    for i in wide:
        row = sum(1 << j for j, b in enumerate(labels) if is_strong_pair(labels[i], b))
        assert space.strong[i] == row
    check = lemma_oracle(top)
    assert check.ok
    assert check.pairs_checked == 4_190_209 == len(labels) ** 2


def test_lemma_builds_no_partners(monkeypatch):
    # `_sweep` alone builds the partner maps of the sumset keys; the lemma
    # reads only the strength and difference-disjointness rows.
    def no_sweep(*args):
        raise AssertionError("lemma_oracle called _sweep")

    spaces = []
    real = oraclemod._Space
    monkeypatch.setattr(oraclemod, "_sweep", no_sweep)
    monkeypatch.setattr(oraclemod, "_Space", lambda cfg: spaces.append(real(cfg)) or spaces[-1])
    assert lemma_oracle(3).ok
    (space,) = spaces
    assert not hasattr(space, "partners")


def test_lemma_reports_the_first_disagreement_in_rank_order(monkeypatch):
    # Over {0,1,2}, {0,2} is the only subset with difference set {2} and
    # {0,1,2} the only one with {1,2}; they share 2, so the pair is weak.
    # A lying `diff_set` gives {0,1,2} the difference set {1}.  That changes
    # only its pair with {0,2}, now called disjoint, and the sweep must name it.
    a, b = IntSet([0, 2]), IntSet([0, 1, 2])
    real = oraclemod.diff_set
    monkeypatch.setattr(
        oraclemod, "diff_set", lambda s: frozenset({1}) if s == b else real(s)
    )
    check = lemma_oracle(2)
    labels = OracleConfig(universe_max=2, min_card=1, max_card=3).candidate_labels()
    assert [diff_set(s) for s in labels].count(diff_set(a)) == 1
    assert [diff_set(s) for s in labels].count(diff_set(b)) == 1
    i, j = labels.index(a), labels.index(b)
    assert i < j
    assert not check.ok
    assert check.counterexample == (a, b)
    assert check.pairs_checked == i * len(labels) + j + 1 == 35
    assert check.to_dict()["counterexample"] == ["{0,2}", "{0,1,2}"]


def _audited(witnesses: int) -> int:
    """Witnesses 1-8 and every power-of-two-numbered one after them."""
    return sum(1 for k in range(1, witnesses + 1) if k <= 8 or k & (k - 1) == 0)


def _enumerated(g, cfg) -> int:
    """The witnesses the sweep enumerates, by a permutation scan: one per
    orbit of Aut(g) and the mirror x -> universe_max - x, chosen by the
    orbit-minimum rules on the brute-force orbits, with the vertices in the
    order the oracle sweeps them.  With r[k] the rank of vertex k's label
    and m(i) the rank of label i's mirror: r[0] <= m(r[0]); each w in
    orbit[0] has min(r[w], m(r[w])) > r[0] or r[w] == m(r[0]);
    each w in orbit[k], k >= 1, has r[w] > r[k]."""
    labels = cfg.candidate_labels()
    rank = {s: i for i, s in enumerate(labels)}
    m = [rank[IntSet(cfg.universe_max - x for x in s)] for s in labels]
    verts = oraclemod._search_order(g, g.sorted_vertices())
    orbits = stabiliser_orbits(g, verts)
    count = 0
    for f in strong_labelings(g, labels, (g, complement(g)), verts):
        r = [rank[f[v]] for v in verts]
        count += (
            r[0] <= m[r[0]]
            and all(min(r[w], m[r[w]]) > r[0] or r[w] == m[r[0]] for w in orbits[0])
            and all(r[w] > r[k] for k in range(1, len(verts)) for w in orbits[k])
        )
    return count


@pytest.mark.parametrize(
    "g, cfg",
    [
        (path_graph(4), OracleConfig(universe_max=3)),  # no witness
        (path_graph(4), OracleConfig(universe_max=3, min_card=1, max_card=1)),  # 8, 4 swept
        (path_graph(4), OracleConfig(universe_max=4, min_card=1, max_card=1)),  # 72, 22 swept
        (cycle_graph(4), OracleConfig(universe_max=5)),  # 6,576, 414 swept
        (cycle_graph(5), OracleConfig(universe_max=5)),  # 14,400, 720 swept
    ],
    ids=["p4-none", "p4-eight", "p4-singletons", "c4", "c5"],
)
def test_concurrent_audits_a_sample_spanning_the_sweep(monkeypatch, g, cfg):
    # The sample is numbered over the witnesses the sweep enumerates (one
    # per orbit of Aut(g) and the mirror), not over the weighted count it
    # reports.
    calls = []
    real = oraclemod.verify_concurrent_strong

    def counting(graph, f):
        calls.append(f)
        return real(graph, f)

    monkeypatch.setattr(oraclemod, "verify_concurrent_strong", counting)
    result = exists_concurrent(g, cfg)
    swept = _enumerated(g, cfg)
    assert len(calls) >= min(8, swept)
    assert len(calls) == _audited(swept)
    if swept:
        assert calls[0] == result.witness


def test_rejected_witness_is_an_internal_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(oraclemod, "verify_concurrent_strong", lambda g, f: False)
    with pytest.raises(InternalCheckError):
        exists_concurrent(path_graph(4), OracleConfig(universe_max=5))
    gp = tmp_path / "p4.g"
    gp.write_text(write_graph(path_graph(4)))
    assert main(["oracle", "concurrent", str(gp), "--max", "5"]) == 3
    assert "verify_concurrent_strong" in capsys.readouterr().err
