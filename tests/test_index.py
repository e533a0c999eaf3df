import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import primindex
from primindex import graphs, index
from primindex.errors import InvalidInputError, ResourceGuardError, UnsupportedInputError
from primindex.index import (
    CERT_UNDETERMINED,
    _class_values,
    _scan_quotients,
    commutator_witness,
    d_prim,
    d_prim_census_oracle,
    d_simp,
    d_simp_census,
    divisibility,
    f_table,
    index_report,
    index_values,
)
from primindex.graphs import (
    AGraph,
    _census_duals,
    cover_census,
    cover_graph,
    path_terminus,
    rewrite_loop,
    spanning_data,
    trace_path,
)
from primindex.randomwalk import WalkConfig, sample_word
from primindex.whitehead import (
    WhiteheadAut,
    apply_letters,
    enumerate_whitehead,
    has_cut_vertex,
    is_primitive,
    is_simple,
    minimize,
    rauzy3_full,
)
from primindex.words import (
    CyclicWord,
    Word,
    _display_codes,
    alphabet,
    class_representatives,
    cyclic_reduce,
    enumerate_reduced,
    index_candidates_exact,
    is_proper_power,
)

W = Word.parse
CW = CyclicWord.parse


def test_d_prim_of_generator_powers():
    for n in range(1, 5):
        w = CyclicWord((1,) * n, 2)
        value, witness = d_prim(w)
        assert value == n
        assert witness.graph.num_vertices == n


def test_d_prim_generator_is_one():
    value, _ = d_prim(CW("a", 2))
    assert value == 1


def test_d_prim_abAB_equals_census():
    w = CW("abAB", 2)
    value, _ = d_prim(w)
    assert value <= 4
    assert value == d_prim_census_oracle(w, 4)


def test_d_simp_examples():
    assert d_simp(CW("a", 2))[0] == 1
    w = CW("abAB", 2)
    s, _ = d_simp(w)
    p, _ = d_prim(w)
    assert s <= p


def test_index_report_chain_and_trivial_rejection():
    rep = index_report(CW("aabAB", 2))
    assert (
        rep.d_fill_lower
        <= rep.d_fill_upper
        <= rep.d_simp
        <= rep.d_prim
        <= len(rep.word)
    )
    with pytest.raises(InvalidInputError):
        d_prim(CyclicWord((), 2))


def test_d_fill_bounds_simple_word():
    rep = index_report(CW("a", 2))
    assert (rep.d_fill_lower, rep.d_fill_upper) == (1, 1)


def test_d_fill_bounds_ordering_small_words():
    for n in range(1, 5):
        for w in index_candidates_exact(n, 2):
            rep = index_report(w)
            s, _ = d_simp(w)
            assert rep.d_fill_lower <= rep.d_fill_upper == s


def test_oracle_equivalence_small():
    # principal-quotient d_prim equals the cover census value
    for n in range(1, 4):
        for w in index_candidates_exact(n, 2):
            v, _ = d_prim(w)
            assert v == d_prim_census_oracle(w, n)


def test_oracle_equivalence_classes_up_to_len6():
    # census capped at the quotient value: agreement means no smaller cover
    # succeeds and one of exactly that degree does
    for n in range(1, 7):
        for w in index_candidates_exact(n, 2):
            v, _ = d_prim(w)
            assert v <= len(w)
            assert d_prim_census_oracle(w, v) == v


def test_d_simp_census_matches_quotient_scan():
    for n in range(1, 5):
        for w in index_candidates_exact(n, 2):
            v, _ = d_simp(w)
            assert d_simp_census(w, 4) == v


def test_d_simp_census_matches_quotient_scan_rank_3():
    # 81 root-free classes, all with d_simp <= 2
    reps = [w for n in range(1, 7) for w in class_representatives(n, 3, skip_powers=True)]
    assert len(reps) == 81
    for w in reps:
        d = index_values(w)[1]
        assert d <= 2
        assert d_simp_census(w, d) == d, w.text()


def test_power_monotonicity_of_d_simp():
    for text in ["ab", "aab", "abAB"]:
        w = CW(text, 2)
        base, _ = d_simp(w)
        for k in (2, 3):
            wk = CyclicWord(w.letters * k, 2)
            assert d_simp(wk)[0] <= base


F_TABLE_9_2_SHA256 = "a120869429c0f2ea89be48f54394064da1b948d9d952c85e2d9fa2fecad14c40"


def test_f_table_9_2_payload_is_pinned():
    payload = json.dumps(f_table(9, 2).to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == F_TABLE_9_2_SHA256


def test_f_table_rank_3_witnesses_agree_with_census():
    table = f_table(6, 3)
    assert [(r.f_prim, r.f_simp) for r in table.rows] == [
        (1, 1), (1, 1), (1, 1), (2, 1), (2, 1), (3, 2)
    ]
    for r in table.rows:
        assert d_prim_census_oracle(CW(r.witness_prim, 3), r.f_prim) == r.f_prim
        assert d_simp_census(CW(r.witness_simp, 3), r.f_simp) == r.f_simp


def test_f_table_small():
    table = f_table(3, 2)
    assert [r.n for r in table.rows] == [1, 2, 3]
    assert table.rows[0].f_prim == 1
    assert table.rows[1].f_prim == 1
    for prev, cur in zip(table.rows, table.rows[1:]):
        assert cur.f_prim >= prev.f_prim
        assert cur.f_simp >= prev.f_simp
    for r in table.rows:
        assert r.f_fill_lower <= r.f_fill_upper <= r.f_simp <= r.f_prim <= r.n


def test_divisibility_examples():
    assert divisibility(W("a", 2), 3) == 2
    assert divisibility(W("aa", 2), 4) == 3  # inside every index-2 subgroup
    assert divisibility(W("abAB", 2), 4) == 3  # commutators survive index 2


def first_cover_by_trace(w, d_max, accept):
    """The per-cover census scan: trace w on every cover, degree by degree."""
    for d in range(1, d_max + 1):
        for perms in cover_census(w.rank, d):
            g = cover_graph(w.rank, perms)
            if accept(g, trace_path(g, g.base, w)):
                return d
    return None


def _closes_and(pred):
    return lambda g, p: (
        path_terminus(g, p) == g.base and pred(rewrite_loop(g, spanning_data(g), p))
    )


def test_census_scans_match_per_cover_oracle_on_class_reps():
    # the closing test runs on every cover at once and only the covers that
    # close are traced; the scans must agree with tracing every cover
    words = 0
    for n in range(1, 7):
        for rep in class_representatives(n, 2, skip_powers=False):
            words += 1
            assert d_prim_census_oracle(rep, 4) == first_cover_by_trace(
                rep, 4, _closes_and(is_primitive)
            ), rep
            assert d_simp_census(rep, 4) == first_cover_by_trace(
                rep, 4, _closes_and(is_simple)
            ), rep
            assert divisibility(rep.word(), 4) == first_cover_by_trace(
                rep, 4, lambda g, p: path_terminus(g, p) != g.base
            ), rep
    assert words > 30


def simple_by_minimization(w):
    """Test-local oracle for is_simple: the minimal form omits a generator."""
    m, _ = minimize(w)
    return len({abs(x) for x in m.letters}) < w.rank


def test_d_simp_census_of_a_long_word_matches_minimization_scan():
    # d_simp_census decides each closing cover's dual word by the descent,
    # the per-cover scan by minimize: they must stop at the same degree
    w = cyclic_reduce(sample_word(WalkConfig(2, 1000, 1)))[1]
    assert len(w) == 1000
    assert d_simp_census(w, 5) == first_cover_by_trace(
        w, 5, _closes_and(simple_by_minimization)
    )


def test_census_scans_build_no_graph_once_the_census_is_warm(monkeypatch):
    # the scans read the census's permutation and dual-letter tables; no
    # AGraph (and so no spanning tree or edge path) is built per cover
    w = cyclic_reduce(sample_word(WalkConfig(2, 200, 3)))[1]

    def whole_dual_words():  # every closing cover's, each read as the full span
        ends, read = _census_duals(2, range(1, 6), w.letters)
        closing = np.flatnonzero(np.concatenate(ends) == 0)
        return len(list(read(closing, [(0, len(w))] * len(closing))))

    scans = (
        lambda: d_simp_census(w, 5),
        lambda: d_prim_census_oracle(w, 5),
        lambda: d_simp_census(CW("abAB", 2), 4),
        lambda: d_prim_census_oracle(CW("aabAB", 2), 4),
        lambda: divisibility(W("abAB", 2), 4),
        whole_dual_words,
    )
    warm = [scan() for scan in scans]
    assert warm[-1] > 0
    built = []
    post_init = AGraph.__post_init__

    def counting(self):
        built.append(self.num_vertices)
        post_init(self)

    monkeypatch.setattr(AGraph, "__post_init__", counting)
    AGraph(2, 1, 0, ())  # the spy sees constructions
    assert built == [1]
    built.clear()
    assert [scan() for scan in scans] == warm
    assert built == []


def test_predicates_build_no_whitehead_automorphism(monkeypatch):
    # the descent applies each step through a letter table over the 2N
    # letters; no WhiteheadAut is built on the predicate path
    w = cyclic_reduce(sample_word(WalkConfig(2, 200, 3)))[1]
    words = [CW(t, r) for t, r in (("aabb", 2), ("abAB", 2), ("aabAbb", 2), ("abcABC", 3))]
    words += [CW("aaabaBAbAB", 2), CW("aabbccabc", 3), w]
    calls = (
        lambda: [(is_primitive(u), is_simple(u), has_cut_vertex(u)) for u in words],
        lambda: _scan_quotients(CW("aaabaBAbAB", 2), ("prim", "simp", "fill")),
        lambda: _scan_quotients(CW("aabaabABB", 2), ("simp",)),
        lambda: d_simp_census(w, 5),
    )
    warm = [call() for call in calls]
    built = []
    post_init = WhiteheadAut.__post_init__

    def counting(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(WhiteheadAut, "__post_init__", counting)
    WhiteheadAut(2, "first", perm=(1, 2))  # the spy sees constructions
    assert built == ["first"]
    built.clear()
    assert [call() for call in calls] == warm
    assert built == []


def test_first_cover_on_length_24_words_builds_no_step_table(monkeypatch):
    # the experiment's words take one letter per step on every degree to 4;
    # a longer word takes the multi-letter tables
    built = []
    step_table = graphs._step_table

    def spy(nxt, k):
        built.append(k)
        return step_table(nxt, k)

    monkeypatch.setattr(graphs, "_step_table", spy)
    words = []
    for seed in range(200):
        w = cyclic_reduce(sample_word(WalkConfig(2, 24, seed)))[1]
        if len(w) == 24:
            words.append(w)
    assert len(words) >= 20
    for w in words:
        d_simp_census(w, 4)
        d_prim_census_oracle(w, 4)
        divisibility(w.word(), 4)
    assert built == []
    d_simp_census(CyclicWord(words[0].letters * 42, 2), 4)
    assert 4 in built

def _dual_words_by_trace(w, d, pred):
    """The per-cover oracle at one degree: the dual words (rewrite_loop) of
    the covers that close w, in census order, up to the first that pred
    accepts, and whether one did."""
    seen = []
    for perms in cover_census(w.rank, d):
        g = cover_graph(w.rank, perms)
        p = trace_path(g, g.base, w)
        if path_terminus(g, p) == g.base:
            u = rewrite_loop(g, spanning_data(g), p)
            seen.append(u.letters)
            if pred(u):
                return seen, True
    return seen, False


@pytest.mark.parametrize("rank, d_max", [(2, 4), (3, 3)])
def test_first_cover_batch_matches_per_cover_trace(rank, d_max, monkeypatch):
    # one batch of words of lengths 1 to 2,000, with duplicates: each word's
    # answer is the per-cover trace oracle's, and pred is asked, per word
    # and in census order, about the dual words the oracle rewrites, up to
    # that word's first yes; the words still open at a degree come in batch
    # order.  The longest words walk the low degrees in multi-letter steps
    steps = []
    step_length = graphs._step_length
    monkeypatch.setattr(graphs, "_step_length", lambda *a: steps.append(step_length(*a)) or steps[-1])
    rng = random.Random(rank * 100 + d_max)
    ws = []
    for n in (1, 2, 3, 5, 9, 24, 25, 100, 333, 2000):
        letters = [rng.choice(alphabet(rank))]
        while len(letters) < n:
            x = rng.choice(alphabet(rank))
            if x != -letters[-1] and (len(letters) < n - 1 or x != -letters[0]):
                letters.append(x)
        ws.append(CyclicWord(tuple(letters), rank))
    ws += [ws[1], ws[5], ws[1], CW("ab" * 12 + "aB", rank)]
    rng.shuffle(ws)
    for pred in (is_simple, is_primitive):
        expected = [first_cover_by_trace(w, d_max, _closes_and(pred)) for w in ws]
        log, found = [], [None] * len(ws)
        for d in range(1, d_max + 1):
            for i, w in enumerate(ws):
                if found[i] is None:
                    seen, yes = _dual_words_by_trace(w, d, pred)
                    log += seen
                    found[i] = d if yes else None
        assert found == expected
        calls = []
        assert index.first_cover(ws, d_max, lambda u: calls.append(u.letters) or pred(u)) == expected
        assert calls == log
        assert [index.first_cover([w], d_max, pred)[0] for w in ws] == expected
    assert 1 in steps and max(steps) > 1


def test_first_cover_checks_its_input():
    assert index.first_cover([], 3, is_simple) == []
    for bad in ([CW("ab", 2), CyclicWord((), 2)], [CW("ab", 2), CW("ab", 3)]):
        with pytest.raises(InvalidInputError):
            index.first_cover(bad, 3, is_simple)


def test_first_cover_codes_its_batch_once(monkeypatch):
    # the batch is coded once, padded to a multiple of the longest step,
    # and each degree's walk takes the rows of the words still open
    calls = []
    letter_codes = graphs._letter_codes

    def counting(rows, rank, width):
        calls.append((len(rows), width))
        return letter_codes(rows, rank, width)

    monkeypatch.setattr(graphs, "_letter_codes", counting)
    monkeypatch.setattr(index, "_letter_codes", counting)
    ws = [CW(t, 2) for t in ("aabbAB", "abAB", "aaab", "abbbaB", "ab")]
    walks = []
    walk = graphs._census_walk

    def recording(rank, degrees, rows, grid=0):
        walks.append(rows.shape)
        return walk(rank, degrees, rows, grid)

    monkeypatch.setattr(index, "_census_walk", recording)
    expected = [first_cover_by_trace(w, 4, _closes_and(is_simple)) for w in ws]
    assert index.first_cover(ws, 4, is_simple) == expected
    assert calls == [(5, 8)]
    degrees = range(1, max(e or 4 for e in expected) + 1)
    assert walks == [(sum(e is None or e >= d for e in expected), 8) for d in degrees]
    assert index.first_cover(ws, 3, lambda u: False) == [None] * 5
    assert calls == [(5, 8)] * 2


def test_first_cover_checks_that_each_walk_closes(monkeypatch):
    # a closing test that lets an open cover through is caught by the read
    walk = graphs._census_walk

    def all_close(*args):
        ends, *rest = walk(*args)
        return [np.zeros_like(e) for e in ends], *rest

    w = CW("aabbAB", 2)  # only the last degree-2 cover closes w
    assert walk(2, (2,), [w.letters])[0][0].tolist() == [[1, 1, 0]]
    assert d_simp_census(w, 2) == 2
    monkeypatch.setattr(index, "_census_walk", all_close)
    with pytest.raises(InvalidInputError, match="does not close"):
        d_simp_census(w, 2)


def test_rank_1_has_d_prim_but_no_d_simp():
    # in F_1 = Z, a^n is primitive in nZ, of index n; no subgroup of F_1
    # has a simple element, so d_simp and the d_fill interval are undefined
    for n in range(1, 5):
        w = CyclicWord((1,) * n, 1)
        assert d_prim(w)[0] == n
        assert d_prim_census_oracle(w, n) == n
        assert d_simp_census(w, n) is None
        for call in (d_simp, index_report, index_values):
            with pytest.raises(UnsupportedInputError):
                call(w)
    with pytest.raises(UnsupportedInputError):
        f_table(3, 1)


def test_divisibility_rejects_trivial():
    with pytest.raises(InvalidInputError):
        divisibility(Word((), 2), 2)


def rf_growth(n: int, rank: int, d_max: int) -> int:
    """The appendix's residual-finiteness growth: the largest divisibility
    of a nontrivial word of length <= n.  Divisibility is invariant under
    conjugation, inversion and relabeling, so cyclically reduced class
    representatives (powers included) suffice."""
    best = 0
    for m in range(1, n + 1):
        for rep in class_representatives(m, rank, skip_powers=False):
            v = divisibility(rep.word(), d_max)
            assert v is not None, f"divisibility of {rep.text()} exceeds {d_max}"
            best = max(best, v)
    return best


def test_rf_growth_n1():
    assert rf_growth(1, 2, 3) == 2


def test_rf_bounded_by_primitivity_function_desk_scale():
    # the commutator witness of the residual-growth extremal word has
    # length <= 8 and primitivity index >= RF(1), so f_prim(8) >= RF(1)
    rf = rf_growth(1, 2, 3)
    assert rf == 2
    achieved = False
    for w in enumerate_reduced(1, 2):
        if divisibility(w, 3) != rf:
            continue
        gamma = commutator_witness(w)
        assert len(gamma) <= 8
        core = cyclic_reduce(gamma)[1]
        assert not is_proper_power(core)[0]
        assert d_prim_census_oracle(core, rf - 1) is None  # d_prim >= rf
        achieved = True
    assert achieved


def test_commutator_witness():
    g = commutator_witness(W("a", 2))
    assert 0 < len(g) <= 8
    assert not is_proper_power(CW(g.text(), 2))[0]
    # [a, b^-1 a b] spelled out
    assert g.text() == "aBabABAb"


def test_commutator_witness_length_bound():
    for w in enumerate_reduced(3, 2):
        gamma = commutator_witness(w)
        assert len(gamma) <= 4 * len(w) + 4


def test_commutator_witness_dominates_divisibility():
    # every subgroup where [w, w^a] is primitive omits w or w^a
    for n in (1, 2):
        for w in enumerate_reduced(n, 2):
            dv = divisibility(w, 4)
            gamma = commutator_witness(w)
            core = cyclic_reduce(gamma)[1]
            oracle = d_prim_census_oracle(core, dv - 1) if dv > 1 else None
            assert oracle is None  # no small cover holds gamma primitively


def test_commutator_witness_dominates_divisibility_to_length_10():
    # the appendix at scale: d_prim([w, w^a]) >= divisibility(w) on every
    # rank-2 class to length 10, powers included; no quotient with fewer
    # vertices than divisibility(w) holds the commutator primitively
    words = 0
    for n in range(1, 11):
        for rep in class_representatives(n, 2, skip_powers=False):
            dv = divisibility(rep.word(), 7)
            assert dv is not None, rep.text()
            gamma = cyclic_reduce(commutator_witness(rep.word()))[1]
            assert "prim" not in _scan_quotients(gamma, ("prim",), max_index=dv - 1), rep.text()
            words += 1
    assert words == 779


def test_resource_guard_trips():
    with pytest.raises(ResourceGuardError):
        index_report(CW("aabbaabAbb", 2), max_partitions=5)


# search steps each entry point needs: (index_report and d_prim, d_simp)
_STEPS_TO_FINISH = {
    "aaaabaaaB": (56, 10),
    "aabaabABB": (55, 55),
    "aabbaabAbb": (13, 13),
    "abAB": (12, 12),
}


@pytest.mark.parametrize("text", sorted(_STEPS_TO_FINISH))
def test_step_cap_trips_one_step_short(text):
    w = CW(text, 2)
    full, simp = _STEPS_TO_FINISH[text]
    for fn, n in ((index_report, full), (d_prim, full), (d_simp, simp)):
        with pytest.raises(ResourceGuardError):
            fn(w, max_partitions=n - 1)
        fn(w, max_partitions=n)


# the least cap each scan finishes under, with witnesses and without: the
# one-vertex quotient alone (max_index 1) takes one step per generator used
_CAPS_TO_FINISH = {
    ("bbC", 3, 1): (2, 2),
    ("BcB", 3, 1): (2, 2),
    ("c", 3, None): (1, 1),
    ("abcABC", 3, 1): (3, 3),
    ("abcABC", 3, None): (29, 9),
    ("bcbCbcBcbC", 3, None): (14, 11),
    ("abAB", 2, None): (12, 6),
}


# A length-120 word whose 2-vertex cover with a-loops at both vertices and
# b swapping them reads a rank-3 canonical dual word whose length-3 factors,
# with its inverse's, are all 150 reduced triples, so rauzy3_full certifies
# it; the first-visit dual of that cover, whose tree is w's first edge into
# vertex 1 (B, not spanning_data's b), is not certified.  The word is the
# lift of such a dual word through that cover, from a seeded search over
# the orientations of the 75 inverse pairs of triples.
_BASIS_DEPENDENT = (
    "ABABABaBabAbAbabbABabbabbAbABAbABabAABabaaabbaBaabaBAbbbaBAAbaBABBaaa"
    "BBBBBAbbbaBABBBBBaBBabaBBBBBAbbbABBaBBaaBBBAbAABBBA"
)


def test_fill_certificate_is_asked_of_the_canonical_dual():
    # rauzy3_full is the one predicate whose answer depends on the dual
    # basis; the scan must ask it in spanning_data's basis, where the a-loop
    # cover, the least key of the three 2-vertex covers, is certified
    w = CW(_BASIS_DEPENDENT, 2)
    loops = (2, 2, ((0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 1)))
    codes = _display_codes(w.letters)
    covers = {}
    for out in graphs._quotient_tables(w, 2):
        edges, order, canonical, _ = graphs._read_quotient(w, out, 2)
        first_visit = graphs._first_visit_dual(codes, out, 4)
        covers[graphs._relabeled_key(2, order, edges)] = (
            rauzy3_full(canonical), rauzy3_full(first_visit)
        )
    assert len(w) == 120 and len(covers) == 3 and covers[loops] == (True, False)
    undetermined = AGraph(2, 2, 0, ((0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 2)))
    assert _scan_quotients(w, ("fill",), max_index=2) == {
        "fill": (2, index.Witness(undetermined, CERT_UNDETERMINED))
    }
    assert _scan_quotients(w, ("fill",), max_index=2, witnesses=False) == {"fill": (2, None)}


@pytest.mark.parametrize("text,rank,max_index", sorted(_CAPS_TO_FINISH, key=str))
def test_scan_cap_trips_one_step_short(text, rank, max_index):
    w = CW(text, rank)
    for witnesses, cap in zip((True, False), _CAPS_TO_FINISH[text, rank, max_index]):
        with pytest.raises(ResourceGuardError):
            _scan_quotients(w, index._INDEXES, max_index, cap - 1, witnesses=witnesses)
        _scan_quotients(w, index._INDEXES, max_index, cap, witnesses=witnesses)


def test_each_quotient_is_asked_only_what_is_still_open(monkeypatch):
    # the indexes are minima over the same quotients with
    # d_fill <= d_simp <= d_prim, so a scan stops asking about an index
    # at the first k with a success for it, and never asks about one its
    # caller did not name
    level = [0]
    calls: list[tuple[str, int]] = []
    grow = index._quotient_tables

    def at_level(w, k, step):
        level[0] = k
        return grow(w, k, step)

    monkeypatch.setattr(index, "_quotient_tables", at_level)
    for name in ("is_primitive", "descend", "rauzy3_full"):
        def spy(arg, name=name, fn=getattr(index, name)):
            calls.append((name, level[0]))
            return fn(arg)

        monkeypatch.setattr(index, name, spy)
    for text in ("aaaabaaaB", "aabaabABB", "aabbaabAbb", "abAB", "aabbabAB"):
        w = CW(text, 2)
        calls.clear()
        d_prim(w)
        assert {name for name, _ in calls} == {"is_primitive"}, text
        calls.clear()
        d_simp(w)
        assert "is_primitive" not in {name for name, _ in calls}, text
        calls.clear()
        rep = index_report(w)
        assert all(k <= rep.d_simp for name, k in calls if name == "descend"), text
        assert all(k <= rep.d_prim for name, k in calls if name == "is_primitive"), text
        assert all(k <= rep.d_fill_lower for name, k in calls if name == "rauzy3_full"), text
        assert any(name == "descend" for name, _ in calls), text


_ROOT_FREE_REPS = [
    rep
    for rank, n_max in ((2, 8), (3, 5))
    for n in range(1, n_max + 1)
    for rep in index_candidates_exact(n, rank)
]


def _scan_steps(monkeypatch) -> list[int]:
    """Route every quotient scan's grower through a recording on_step that
    also calls the scan's own; the returned one-element list counts the
    steps taken since it was zeroed."""
    steps = [0]
    grow = index._quotient_tables

    def at_level(w, k, step):
        def record():
            steps[0] += 1
            if step is not None:
                step()

        return grow(w, k, record)

    monkeypatch.setattr(index, "_quotient_tables", at_level)
    return steps


def test_degrees_only_scan_matches_the_witness_scan():
    # the table reads only degrees, so its scan closes each index at the
    # first k-vertex success; the degrees must be the full scan's
    for rep in _ROOT_FREE_REPS:
        found = _scan_quotients(rep, index._INDEXES, witnesses=False)
        assert all(witness is None for _, witness in found.values()), rep.text()
        report = index_report(rep)
        expected = (report.d_prim, report.d_simp, report.d_fill_lower)
        assert tuple(found[name][0] for name in index._INDEXES) == expected, rep.text()
        assert _class_values(rep.rank, rep.letters) == expected, rep.text()


def test_class_values_computes_no_witness(monkeypatch):
    keys, graphs_built = [], []
    real_key = index._relabeled_key
    monkeypatch.setattr(index, "_relabeled_key", lambda *a: keys.append(a) or real_key(*a))
    real_init = AGraph.__post_init__

    def counting(self):
        graphs_built.append(self)
        real_init(self)

    monkeypatch.setattr(AGraph, "__post_init__", counting)
    for rep in _ROOT_FREE_REPS:
        _class_values(rep.rank, rep.letters)
    assert keys == [] and graphs_built == []
    index_report(CW("aaaabaaaB", 2))  # the spies see the witness scan's work
    assert keys and len(graphs_built) == 3


def test_degrees_only_scan_takes_no_more_steps(monkeypatch):
    steps = _scan_steps(monkeypatch)
    fewer = []
    for rep in _ROOT_FREE_REPS:
        counts = []
        for witnesses in (True, False):
            steps[0] = 0
            _scan_quotients(rep, index._INDEXES, witnesses=witnesses)
            counts.append(steps[0])
        full, degrees_only = counts
        assert 0 < degrees_only <= full, rep.text()
        if degrees_only < full:
            fewer.append((rep.rank, rep.text()))
    # abAB reaches d_simp = d_prim = 2 before its last 2-vertex quotient
    assert (2, "abAB") in fewer


def test_step_cap_counts_the_scan_that_runs(monkeypatch):
    # the table's cap counts the degrees-only scan's steps, so a cap
    # between the two scans' counts passes the table and trips the report
    w = CW("aabaabABB", 2)
    steps = _scan_steps(monkeypatch)
    _scan_quotients(w, index._INDEXES, witnesses=False)
    cap = steps[0]
    assert cap < _STEPS_TO_FINISH["aabaabABB"][0]
    with pytest.raises(ResourceGuardError):
        _class_values(2, w.letters, cap - 1)
    assert _class_values(2, w.letters, cap) == (3, 3, 1)
    with pytest.raises(ResourceGuardError):
        index_report(w, max_partitions=cap)


_INVARIANTS_UNDER_O = """
from primindex.errors import InvalidInputError
from primindex.graphs import _first_visit_dual, _read_quotient
from primindex.index import IndexReport
from primindex.words import CyclicWord

if __debug__:
    raise SystemExit("assert statements are still live")
w = CyclicWord.parse("ab", 2)
try:
    IndexReport(w, d_prim=1, d_simp=2, d_fill_lower=1, witnesses={})
    raise SystemExit("out-of-order IndexReport accepted")
except InvalidInputError:
    pass
# the flat next-vertex table, slots a A b B per vertex, of the two-vertex
# cover whose a-edges swap the vertices
swap = [1, 1, 0, 0, 0, 0, 1, 1]
try:
    _read_quotient(CyclicWord.parse("a", 2), swap, 2)
    raise SystemExit("open trace accepted as a quotient loop")
except InvalidInputError:
    pass
# b leaves vertex 0 of the table with the b-edges taken out: -1 is no index
try:
    _first_visit_dual([2], [1, 1, -1, -1, 0, 0, -1, -1], 4)
    raise SystemExit("walk off the table accepted")
except InvalidInputError:
    pass
"""


def test_invariants_raise_under_python_O():
    src = str(Path(primindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _INVARIANTS_UNDER_O],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_index_report_on_word_longer_than_recursion_limit():
    # a^1100 b is primitive; the quotient search recurses once per edge it
    # adds, not once per letter of w
    rep = index_report(CyclicWord((1,) * 1100 + (2,), 2))
    assert (rep.d_prim, rep.d_simp, rep.d_fill_lower) == (1, 1, 1)


def test_index_values_cache_consistency():
    w = CW("aab", 2)
    vp, vs, vl = index_values(w)
    assert vp == d_prim(w)[0]
    assert vs == d_simp(w)[0]
    # a rotation, scanned itself, has the same values
    rot = CyclicWord(tuple(list(w.letters)[1:] + [w.letters[0]]), 2)
    assert index_values(rot) == (vp, vs, vl)


def _class_members(w: CyclicWord) -> set[tuple[int, ...]]:
    """Every rotation of every signed relabeling of w and of w^-1."""
    members = set()
    for perm in itertools.permutations(range(1, w.rank + 1)):
        for signs in itertools.product((1, -1), repeat=w.rank):
            images = [s * g for g, s in zip(perm, signs)]
            image = tuple(images[x - 1] if x > 0 else -images[-x - 1] for x in w.letters)
            for base in (image, tuple(-x for x in reversed(image))):
                members |= {base[r:] + base[:r] for r in range(len(base))}
    return members


def test_index_values_same_on_every_rotation_inversion_and_relabeling():
    # the values are invariants of Aut(F_N); index_values scans each word
    # itself, so every member of every short class is scanned and compared
    # with the witness scan of its representative
    for rank, n_max in ((2, 7), (3, 5)):
        for n in range(1, n_max + 1):
            for rep in class_representatives(n, rank, skip_powers=False):
                report = index_report(rep)
                expected = (report.d_prim, report.d_simp, report.d_fill_lower)
                assert expected[:2] == (d_prim(rep)[0], d_simp(rep)[0]), rep.text()
                for letters in _class_members(rep):
                    assert index_values(CyclicWord(letters, rank)) == expected, (rep.text(), letters)


_SHORT_REPS = {
    2: [rep for n in range(1, 7) for rep in class_representatives(n, 2, skip_powers=False)],
    3: [rep for n in range(1, 6) for rep in class_representatives(n, 3, skip_powers=False)],
}
_SECOND_KIND = {
    rank: [t for t in enumerate_whitehead(rank) if t.kind == "second"] for rank in (2, 3)
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda rank: st.tuples(
            st.sampled_from(_SHORT_REPS[rank]), st.sampled_from(_SECOND_KIND[rank])
        )
    )
)
def test_index_values_invariant_under_whitehead_automorphisms(rep_and_aut):
    # d_prim and d_simp are invariants of Aut(F_N); rotation, inversion and
    # relabeling are checked on every short class above, this draws the
    # other kind
    rep, t = rep_and_aut
    image = cyclic_reduce(Word(apply_letters(t, rep.letters), rep.rank))[1]
    assume(len(image) <= 10)
    assert index_values(image) == index_values(rep)
    assert d_simp_census(image, 4) == d_simp_census(rep, 4)


def test_indexes_agree_on_images_under_products_of_whitehead_automorphisms():
    # d_prim and d_simp are invariants of Aut(F_N); d_fill is only
    # bracketed, so the two certified intervals must intersect
    auts = enumerate_whitehead(2)
    rng = random.Random(2014)
    pairs = moved = 0
    for n in range(2, 8):
        for rep in class_representatives(n, 2, skip_powers=True):
            a = index_report(rep)
            for _ in range(4):
                letters = rep.letters
                for _ in range(rng.randint(1, 4)):
                    letters = apply_letters(rng.choice(auts), letters)
                image = cyclic_reduce(Word(letters, 2))[1]
                if len(image) > 12:
                    continue
                b = index_report(image)
                assert (b.d_prim, b.d_simp) == (a.d_prim, a.d_simp), (rep.text(), image.text())
                assert max(a.d_fill_lower, b.d_fill_lower) <= min(a.d_fill_upper, b.d_fill_upper)
                pairs += 1
                moved += image.letters != rep.letters
    assert pairs >= 200 and moved >= 150
