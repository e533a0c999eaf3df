import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primindex import graphs
from primindex.errors import InvalidInputError, NoSuchPathError, UnsupportedInputError
from primindex.graphs import (
    AGraph,
    EdgePath,
    _census_duals,
    _census_table,
    _census_walk,
    _relabeled_key,
    canonical_key,
    circle_graph,
    collapse_vertices,
    complete_to_cover,
    cover_census,
    cover_graph,
    fold,
    fold_with_map,
    graph_to_dot,
    graph_to_json,
    is_cover,
    is_folded,
    out_map,
    path_contains,
    path_terminus,
    rewrite_loop,
    rewrite_loop_cyclic,
    set_partitions_with_blocks,
    spanning_data,
    subgroup_count,
    trace_path,
    universal_three_word,
)
from primindex.words import (
    CyclicWord,
    Word,
    _display_codes,
    alphabet,
    class_representatives,
    cyclic_class_key,
    cyclic_reduce,
    enumerate_cyclically_reduced,
    free_reduce,
)
from primindex.whitehead import is_primitive, is_simple, rauzy3_array, rauzy3_full, rauzy3_linear

from path_oracles import (
    alpha_path,
    beta_path,
    connector_path,
    cycle_rank,
    delta_path,
    loop_path,
    rauzy3_by_triples,
    tree_path,
)

CW = CyclicWord.parse
W = Word.parse


def path_is_reduced(p):
    """No edge is followed by its inverse: no two neighbours sum to 0."""
    return all(a + b != 0 for a, b in zip(p.edges, p.edges[1:]))


# -- oracles ------------------------------------------------------------------

def bell(n):
    """Bell numbers by the triangle recurrence; B_n = last entry of row n."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def subgroup_count_oracle(rank, d):
    """Index-d subgroup counts of a rank-N free group via the standard
    recursion a_d = d*(d!)^(N-1) - sum_{i<d} ((d-i)!)^(N-1) * a_i."""
    import math

    a = {}
    for m in range(1, d + 1):
        total = m * math.factorial(m) ** (rank - 1)
        total -= sum(
            math.factorial(m - i) ** (rank - 1) * a[i] for i in range(1, m)
        )
        a[m] = total
    return a[d]


def lex_least_transitive_tuples(rank, d):
    """Oracle for the census numbering: every transitive rank-tuple of
    permutations of range(d), replaced by the lex-least of its conjugates
    by permutations fixing 0, deduplicated and sorted."""
    perms = list(itertools.permutations(range(d)))
    fixing_base = [s for s in perms if s[0] == 0]
    reps = set()
    for tup in itertools.product(perms, repeat=rank):
        orbit, frontier = {0}, [0]
        while frontier:
            v = frontier.pop()
            for perm in tup:
                if perm[v] not in orbit:
                    orbit.add(perm[v])
                    frontier.append(perm[v])
        if len(orbit) < d:
            continue
        conjugates = []
        for s in fixing_base:  # relabel vertex j as s[j]
            conj = []
            for perm in tup:
                q = [0] * d
                for j in range(d):
                    q[s[j]] = s[perm[j]]
                conj.append(tuple(q))
            conjugates.append(tuple(conj))
        reps.add(min(conjugates))
    return sorted(reps)


def grow(hole, finish, on_step=lambda: None):
    """The oracle grower: folded graphs from vertex 0, one edge at a time,
    depth first.  hole(out, size) reads the edges out[(vertex, letter)] ->
    vertex and names the next edge to fill as (vertex, letter, targets),
    None when the graph is finished, which yields finish(out, size), or ()
    when the branch is dead; target size is a new vertex.  Targets holding
    the inverse letter are skipped; on_step is called per target tried."""
    out = {}

    def search(size):
        h = hole(out, size)
        if h is None:
            yield finish(out, size)
        elif h:
            v, x, targets = h
            for t in targets:
                if (t, -x) not in out:
                    on_step()
                    out[v, x], out[t, -x] = t, v
                    yield from search(size + (t == size))
                    del out[v, x], out[t, -x]

    return search(1)


def first_empty_cell(rank, degree):
    """The covers' hole: the first empty (vertex, letter) cell in (vertex,
    alphabet) order, filled by every vertex and a new one while fewer than
    degree exist; a full table on fewer vertices is dead."""
    cells = list(itertools.product(range(degree), alphabet(rank)))

    def hole(out, size):
        for v, x in cells[: size * 2 * rank]:
            if (v, x) not in out:
                return v, x, range(size + (size < degree))
        return None if size == degree else ()

    return hole


def _finished(rank, out, size):
    edges = sorted((v, t, x) for (v, x), t in out.items() if x > 0)
    return AGraph(rank, size, 0, tuple(edges))


def flat_table(rank, out, size):
    """The oracle grower's table out[(vertex, letter)] as the library's
    flat next-vertex table: slot v * 2 rank + c for the letter of display
    code c, -1 where v has no such edge."""
    flat = [-1] * (2 * rank * size)
    for (v, x), t in out.items():
        flat[2 * rank * v + (2 * x - 2 if x > 0 else -2 * x - 1)] = t
    return flat


def census_by_plain_min(rank, degree):
    """Oracle for cover_census: every subgroup grown once by filling the
    first empty (vertex, letter) cell, relabeled by a plain min over all
    (degree-1)! relabelings fixing the base, then sorted."""
    # a relabeled edge list sorted by (gen, vertex) compares as its tuple
    fixing_base = [(0,) + p for p in itertools.permutations(range(1, degree))]
    keys = sorted(
        min(tuple(sorted((gen, s[o], s[t]) for o, t, gen in g.edges)) for s in fixing_base)
        for g in grow(first_empty_cell(rank, degree), lambda out, size: _finished(rank, out, size))
    )
    return tuple(tuple(t for _, _, t in key) for key in keys)


def least_relabeling(image, d):
    """Oracle for the census relabeling, one table at a time: the lex-least
    of the images perm_1[0..d-1] + perm_2[0..d-1] + ... of a transitive
    permutation tuple, given flat as image[(gen - 1) * d + j] = perm_gen[j],
    over its relabelings fixing 0, by branch and bound.

    The positions are filled in order.  An image with no label yet takes
    the next free label (any other label would make that position larger);
    a position whose vertex has no label yet branches over the unlabeled
    vertices; a branch is cut as soon as its prefix exceeds the best tuple
    found so far."""
    n = len(image)
    best = []

    def search(p, label, vertex, free, prefix, tight):
        # label: old vertex -> new label (-1: none), vertex: its inverse;
        # tight: prefix equals best[:p], else it is smaller (or best empty)
        nonlocal best
        while p < n:
            j = p % d
            u = vertex[j]
            if u < 0:  # label j == free is unused: branch on who takes it
                for u in range(d):
                    if label[u] < 0:
                        before = best
                        lab, ver = label[:], vertex[:]
                        lab[u], ver[j] = j, u
                        search(p, lab, ver, free + 1, prefix[:], tight)
                        # a new best shares this prefix, so siblings are tight
                        tight = tight or best is not before
                return
            t = image[p - j + u]
            lt = label[t]
            if lt < 0:
                lt = label[t] = free
                vertex[free] = t
                free += 1
            if tight:
                b = best[p]
                if lt > b:
                    return
                tight = lt == b
            prefix.append(lt)
            p += 1
        best = prefix

    search(0, [0] + [-1] * (d - 1), [0] + [-1] * (d - 1), 1, [], False)
    return best


def raw_tables_by_grow(rank, degree):
    """Oracle for the array grower: every subgroup's coset table, grown
    depth first with the first-empty-cell hole, as flat images perm_1 +
    perm_2 + ... in the grower's numbering."""
    images = [(j, gen) for gen in range(1, rank + 1) for j in range(degree)]
    hole = first_empty_cell(rank, degree)
    return list(grow(hole, lambda out, size: tuple(map(out.__getitem__, images))))


def is_transitive(image, rank, d):
    """Whether the flat permutation tuple image moves 0 to every vertex."""
    orbit, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for gen in range(rank):
            t = image[gen * d + v]
            if t not in orbit:
                orbit.add(t)
                frontier.append(t)
    return len(orbit) == d


def grown_tables(rank, degree):
    """The array grower's raw tables, as one (tables, rank, degree) array."""
    return np.concatenate(list(graphs._grow_covers(rank, degree)))


def canonical_form(g):
    """g relabeled as its canonical_key orders the vertices."""
    return AGraph(g.rank, g.num_vertices, 0, canonical_key(g)[2])


def census_graphs(rank, degree):
    return [cover_graph(rank, perms) for perms in cover_census(rank, degree)]


def quotients_with_vertices(w, k, on_step=None):
    """The folded quotients of the circle graph of w with exactly k
    vertices, each once, in graphs._quotient_tables' order and from its
    search steps, each read by graphs._read_quotient before the grower
    resumes: (sorted edges, vertices in spanning_data's order, the canonical
    dual word, is a cover).  The empty word raises at the call."""
    return (graphs._read_quotient(w, out, k) for out in graphs._quotient_tables(w, k, on_step))


def quotient_graphs(w, k, on_step=None):
    """The graphs of quotients_with_vertices(w, k), in its order."""
    return [AGraph(w.rank, k, 0, edges) for edges, *_ in quotients_with_vertices(w, k, on_step)]


def quotients_by_retracing(w, k, on_step, finish=None):
    """Oracle for quotients_with_vertices: the same search on the oracle
    grower, each hole retracing w from vertex 0 instead of resuming where
    the edge above it was placed.  finish(out, size) reads each finished
    graph; by default it becomes an AGraph."""
    letters, n = w.letters, len(w)

    def hole(out, size):
        v = i = 0
        while i < n and (v, letters[i]) in out:
            v, i = out[v, letters[i]], i + 1
        if i == n:
            return None if v == 0 and size == k else ()
        if size + n - i - 1 < k:
            return ()
        return v, letters[i], (0,) if i == n - 1 else range(size + (size < k))

    return grow(hole, finish or (lambda out, size: _finished(w.rank, out, size)), on_step)


def set_partitions(n):
    """All set partitions of range(n), by ascending block count."""
    for k in range(1, n + 1):
        yield from set_partitions_with_blocks(n, k)


def principal_quotients(w):
    """Folded collapses of the circle graph of w, one per set partition of
    its vertices (ascending block count), with the composed vertex map."""
    cw = circle_graph(w)
    for blocks in set_partitions(len(w)):
        collapsed, vmap = collapse_vertices(cw, blocks)
        folded, fmap = fold_with_map(collapsed)
        yield folded, tuple(fmap[b] for b in vmap)


def quotients_by_partitions(w, k):
    """Slow oracle for quotients_with_vertices: the distinct folded
    collapses with exactly k vertices over the k-block partitions (each
    such quotient collapses its circle by k blocks)."""
    cw = circle_graph(w)
    out = set()
    for blocks in set_partitions_with_blocks(len(w), k):
        q = fold_with_map(collapse_vertices(cw, blocks)[0])[0]
        if q.num_vertices == k:
            out.add(q)
    return out


def two_vertex_cover():
    # a-edges swap the vertices, b-loops at both
    return AGraph(2, 2, 0, ((0, 1, 1), (1, 0, 1), (0, 0, 2), (1, 1, 2)))


# -- folding ------------------------------------------------------------------

def test_fold_merges_double_loop():
    g = AGraph(2, 1, 0, ((0, 0, 1), (0, 0, 1)))
    f = fold(g)
    assert f.edges == ((0, 0, 1),)
    assert is_folded(f)


def test_fold_identity_on_folded():
    g = two_vertex_cover()
    assert fold(g).edges == tuple(sorted(g.edges))


def test_fold_of_aa_circle_is_identity():
    g = circle_graph(CW("aa", 2))
    assert is_folded(g)
    f = fold(g)
    assert f.num_vertices == 2 and len(f.edges) == 2


def test_fold_wedge_of_cancelling_paths():
    # two length-2 paths from base both labeled ab must merge
    g = AGraph(2, 5, 0, ((0, 1, 1), (1, 2, 2), (0, 3, 1), (3, 4, 2)))
    f = fold(g)
    assert f.num_vertices == 3
    assert is_folded(f)


@st.composite
def random_agraph(draw):
    nv = draw(st.integers(1, 6))
    ne = draw(st.integers(0, 10))
    edges = tuple(
        (
            draw(st.integers(0, nv - 1)),
            draw(st.integers(0, nv - 1)),
            draw(st.integers(1, 2)),
        )
        for _ in range(ne)
    )
    return AGraph(2, nv, 0, edges)


@given(random_agraph(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_fold_confluent_under_edge_reordering(g, rng):
    from primindex.graphs import is_connected

    if not is_connected(g):
        return
    f1 = fold(g)
    perm = list(g.edges)
    rng.shuffle(perm)
    f2 = fold(AGraph(g.rank, g.num_vertices, g.base, tuple(perm)))
    assert f1.num_vertices == f2.num_vertices <= g.num_vertices
    assert canonical_key(f1) == canonical_key(f2)
    assert is_folded(f1)


# -- covers ---------------------------------------------------------------------

def test_is_cover_examples():
    assert is_cover(cover_graph(2, cover_census(2, 1)[0]))
    assert is_cover(two_vertex_cover())
    assert not is_cover(circle_graph(CW("ab", 2)))


def test_complete_to_cover_rose_unchanged():
    (rose,) = census_graphs(2, 1)
    assert complete_to_cover(rose).edges == rose.edges


def test_complete_to_cover_abAB():
    g = circle_graph(CW("abAB", 2))
    c = complete_to_cover(g)
    assert c.num_vertices == 4
    assert is_cover(c)
    assert set(g.edges) <= set(c.edges)


def test_complete_to_cover_adds_missing_loop():
    g = AGraph(2, 1, 0, ((0, 0, 1),))
    c = complete_to_cover(g)
    assert is_cover(c)
    assert (0, 0, 2) in c.edges


def test_cover_census_counts_match_subgroup_recursion():
    for d in range(1, 7):  # 3447 covers of degree 6
        assert len(cover_census(2, d)) == subgroup_count_oracle(2, d)


def test_subgroup_count_matches_recursion_oracle():
    for rank in (1, 2, 3, 4):
        for d in range(1, 8):
            assert subgroup_count(rank, d) == subgroup_count_oracle(rank, d)
    assert [len(cover_census(3, d)) for d in (1, 2, 3)] == [
        subgroup_count(3, d) for d in (1, 2, 3)
    ]
    for rank, d in ((0, 1), (0, 2), (2, 0)):
        for fn in (subgroup_count, cover_census):
            with pytest.raises(InvalidInputError):
                fn(rank, d)


@pytest.mark.parametrize("rank,d_max", [(2, 6), (3, 4)])
def test_cover_census_matches_plain_min_relabeling(rank, d_max):
    # the array grower and batch relabeling, against the depth-first oracle
    # grower and a plain min: the same list, order included
    for d in range(1, d_max + 1):
        census = tuple(map(tuple, cover_census(rank, d).tolist()))
        assert census == census_by_plain_min(rank, d), (rank, d)


def test_cover_census_degree_7_matches_hall():
    # unwrapped, so the 29,093 covers are not kept in the cache
    census = cover_census.__wrapped__(2, 7)
    assert len(census) == subgroup_count(2, 7) == 29093
    assert census.shape == (29093, 14)
    assert len(set(map(tuple, census.tolist()))) == len(census)


def test_cover_census_rank_3_degree_5_matches_hall():
    # unwrapped, so the 68,641 covers are not kept in the cache
    census = cover_census.__wrapped__(3, 5)
    assert len(census) == subgroup_count(3, 5) == 68641
    assert census.shape == (68641, 15)
    assert len(set(map(tuple, census.tolist()))) == len(census)


def test_census_table_is_read_only_and_shared():
    tables = _census_table(2, 3)
    assert len(tables) == 2
    for table in tables:
        with pytest.raises(ValueError):
            table[2, 0] = 1
        with pytest.raises(ValueError):
            table.ravel()[0] = 1
        with pytest.raises(ValueError):
            table.flags.writeable = True
        assert table.shape == (5, 3 * len(cover_census(2, 3)))
    again = _census_table(2, 3)
    assert again is tables and all(a is b for a, b in zip(again, tables))


@pytest.mark.parametrize("rank,d_max", [(2, 5), (3, 4)])
def test_cover_census_is_sorted_lex_least_transitive_tuples(rank, d_max):
    # witness words and `covers --json` depend on this numbering, which is
    # not canonical_form's; a faster census engine must reproduce it
    relabeled = 0
    for d in range(1, d_max + 1):
        tuples = [
            tuple(tuple(perms[i * d : (i + 1) * d]) for i in range(rank))
            for perms in cover_census(rank, d).tolist()
        ]
        assert tuples == lex_least_transitive_tuples(rank, d)
        relabeled += sum(canonical_form(g) != g for g in census_graphs(rank, d))
    assert relabeled > 0


@pytest.mark.parametrize("rank,d_max", [(1, 5), (2, 6), (3, 4), (4, 3)])
def test_array_grower_matches_grow_with_a_first_empty_cell_hole(rank, d_max):
    # breadth first, every row one edge per level, against the depth-first
    # grower: the same multiset of raw tables, Hall's count, all transitive
    for d in range(1, d_max + 1):
        tables = [tuple(t) for t in grown_tables(rank, d).reshape(-1, rank * d).tolist()]
        assert sorted(tables) == sorted(raw_tables_by_grow(rank, d)), (rank, d)
        assert len(tables) == subgroup_count(rank, d)
        assert all(is_transitive(t, rank, d) for t in tables)


@pytest.mark.parametrize("rank,d_max", [(2, 6), (3, 4), (4, 3)])
def test_batch_relabeling_matches_branch_and_bound_on_every_raw_table(rank, d_max):
    for d in range(1, d_max + 1):
        perms = grown_tables(rank, d)
        least = graphs._least_tuples(perms).reshape(len(perms), -1).tolist()
        raw = perms.reshape(len(perms), -1).tolist()
        assert least == [least_relabeling(image, d) for image in raw], (rank, d)


def _random_transitive_tables(rng, rank, d, perm_1, count):
    tables = []
    while len(tables) < count:
        first = list(perm_1) if perm_1 is not None else rng.sample(range(d), d)
        image = first + [t for _ in range(rank - 1) for t in rng.sample(range(d), d)]
        if is_transitive(image, rank, d):
            tables.append(image)
    return tables


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("d", [8, 9])
def test_batch_relabeling_matches_branch_and_bound_on_random_tables(rank, d):
    # past the census ranges; the identity perm_1 and a perm_1 fixing every
    # vertex off the cycle of 0 have the largest centralizers: (d-1)! and (d-3)!
    rng = random.Random(2500 + 10 * rank + d)
    tables = _random_transitive_tables(rng, rank, d, None, 24)
    tables += _random_transitive_tables(rng, rank, d, range(d), 2)
    tables += _random_transitive_tables(rng, rank, d, [1, 2, 0, *range(3, d)], 2)
    perms = np.array(tables, dtype=np.int8).reshape(-1, rank, d)
    least = graphs._least_tuples(perms).reshape(len(tables), -1).tolist()
    assert least == [least_relabeling(image, d) for image in tables]


def test_centralizer_keeps_perm_1_in_standard_form():
    # each cycle of length L off the cycle of 0 can be rotated L ways, and
    # m cycles of one length permuted m! ways; the cycle of 0 stays fixed
    for lengths in [(1,), (3,), (1, 1, 1, 1), (2, 1, 1, 3), (1, 2, 2), (2, 1, 2, 2, 3)]:
        d = sum(lengths)
        c, c_inv = graphs._centralizer(lengths)
        size = 1
        for length in set(lengths[1:]):
            m = lengths[1:].count(length)
            size *= length**m * math.factorial(m)
        assert c.shape == (size, d) and len(set(map(tuple, c.tolist()))) == size
        perm_1, at = [], 0
        for length in lengths:
            perm_1 += [at + (k + 1) % length for k in range(length)]
            at += length
        perm_1 = np.array(perm_1)
        assert np.array_equal(c[:, perm_1], perm_1[c])  # c commutes with perm_1
        assert np.array_equal(c[:, : lengths[0]], np.broadcast_to(np.arange(lengths[0]), (size, lengths[0])))
        assert np.array_equal(np.take_along_axis(c, c_inv.astype(np.intp), axis=1), np.broadcast_to(np.arange(d), (size, d)))
        with pytest.raises(ValueError):
            c[0, 0] = 1
    assert graphs._centralizer.cache_info().maxsize is not None


def test_census_is_the_same_in_small_chunks(monkeypatch):
    # a level step of one row, one table relabeled at a time, and
    # candidates past the cap when one table's centralizer outgrows it
    expected = {(rank, d): cover_census(rank, d) for rank, d in [(2, 5), (3, 4)]}
    monkeypatch.setattr(graphs, "_CELLS", 1 << 6)
    for (rank, d), census in expected.items():
        again = cover_census.__wrapped__(rank, d)
        assert again.dtype == census.dtype and np.array_equal(again, census)


def test_census_tables_take_the_narrowest_type_that_holds_the_degree():
    assert next(graphs._grow_covers(2, 3)).dtype == np.int8
    assert next(graphs._grow_covers(1, 130)).dtype == np.int16
    # rank 1 has one cover per degree, the standard cycle 0 -> 1 -> ... -> 0
    census = cover_census.__wrapped__(1, 130)
    assert census.dtype == np.int16
    (cycle,) = census.tolist()
    assert cycle == list(range(1, 130)) + [0]
    g = cover_graph(1, census[0])
    assert g.edges[-1] == (129, 0, 1) and all(type(t) is int for e in g.edges for t in e)


_COLD_BUILD = """
import sys
from primindex.graphs import cover_census
cover_census(2, 4), cover_census(3, 3)
print(sorted(m for m in ("numpy.ma", "numpy.random") if m in sys.modules))
"""


def test_census_build_imports_neither_numpy_ma_nor_numpy_random():
    # either import costs more than a cold build of the small censuses
    src = str(Path(graphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_BUILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("rank,d_max", [(2, 5), (3, 4)])
def test_census_table_matches_cover_graph_edges(rank, d_max):
    # the census holds one row per cover; cover_graph lays each out as
    # edges (j, perm_gen[j], gen) of plain ints in (gen, vertex) order, and
    # the walker's table, built from the rows alone, follows those edges
    cells = [(j, gen) for gen in range(1, rank + 1) for j in range(d_max)]
    for d in range(1, d_max + 1):
        census = cover_census(rank, d)
        assert census.dtype == np.int8 and census.shape == (len(census), rank * d)
        states = len(census) * d
        expected = np.empty((2 * rank + 1, states), dtype=np.intp)
        expected[rank] = np.arange(states)
        for c, perms in enumerate(census):
            g = cover_graph(rank, perms)
            assert all(type(t) is int for e in g.edges for t in e)
            assert (g.rank, g.num_vertices, g.base) == (rank, d, 0) and is_cover(g)
            assert [(o, gen) for o, _, gen in g.edges] == [(j, gen) for j, gen in cells if j < d]
            for o, t, gen in g.edges:
                expected[rank + gen, c * d + o] = c * d + t
                expected[rank - gen, c * d + t] = c * d + o
        assert np.array_equal(_census_table(rank, d)[0], expected), (rank, d)


@pytest.mark.parametrize("rank,d_max", [(1, 4), (2, 6), (3, 4), (4, 2)])
def test_census_dual_table_matches_spanning_data(rank, d_max):
    # the dual letters of all covers come from one batched breadth-first
    # search; spanning_data on each cover's graph is the oracle
    for d in range(1, d_max + 1):
        nxt, dual = _census_table(rank, d)
        expected = np.zeros((2 * rank + 1, nxt.shape[1]), dtype=np.int64)
        for c, g in enumerate(census_graphs(rank, d)):
            complement = spanning_data(g).complement
            assert len(complement) == d * (rank - 1) + 1  # Schreier
            for i, e in enumerate(complement, 1):
                o, t, gen = g.edges[e - 1]
                expected[rank + gen, c * d + o] = i
                expected[rank - gen, c * d + t] = -i
        assert np.array_equal(dual, expected), (rank, d)


# -- tracing -----------------------------------------------------------------

def test_trace_on_rose():
    (rose,) = census_graphs(2, 1)
    p = trace_path(rose, 0, W("abAB", 2))
    assert len(p) == 4 and path_terminus(rose, p) == 0


def test_trace_empty_word():
    p = trace_path(two_vertex_cover(), 1, ())
    assert p.edges == () and path_terminus(two_vertex_cover(), p) == 1


def test_trace_two_vertex_cover():
    g = two_vertex_cover()
    p = trace_path(g, 0, W("aa", 2))
    assert path_terminus(g, p) == 0
    assert g.terminus(p.edges[0]) == 1  # passes through the other vertex


def test_trace_missing_edge_reports_position():
    g = AGraph(2, 1, 0, ((0, 0, 1),))
    with pytest.raises(NoSuchPathError) as exc:
        trace_path(g, 0, W("ab", 2))
    assert exc.value.position == 1 and exc.value.letter == 2


def test_out_map_is_read_only():
    g = two_vertex_cover()
    om = out_map(g)
    with pytest.raises(TypeError):
        om[0, 1] = -1
    with pytest.raises(TypeError):
        del om[0, 1]
    assert out_map(g) == om and len(om) == 2 * len(g.edges)


def trace_path_oracle(g, start, letters):
    """Per-letter tracing through out_map, one edge lookup per letter."""
    om = out_map(g)
    edges = []
    v = start
    for i, x in enumerate(letters):
        e = om.get((v, x))
        if e is None:
            raise NoSuchPathError(vertex=v, letter=x, position=i)
        edges.append(e)
        v = g.terminus(e)
    return EdgePath(start, tuple(edges))


def rewrite_loop_oracle(g, sd, p):
    """Per-edge rewriting: skip tree edges, map complement edges by index."""
    index = {e: i + 1 for i, e in enumerate(sd.complement)}
    letters = []
    for e in p.edges:
        j = abs(e)
        if j - 1 in sd.tree_edges:
            continue
        letters.append(index[j] if e > 0 else -index[j])
    return free_reduce(letters, len(sd.complement))


def _seeded_words(rank, rng, count, max_len):
    return [
        free_reduce([rng.choice(alphabet(rank)) for _ in range(rng.randrange(max_len))], rank)
        for _ in range(count)
    ]


@pytest.mark.parametrize("rank, d_max", [(2, 4), (3, 3)])
def test_trace_and_rewrite_match_per_letter_oracles_on_census(rank, d_max):
    rng = random.Random(rank * 100 + d_max)
    closed = opened = 0
    for d in range(1, d_max + 1):
        for g in census_graphs(rank, d):
            sd = spanning_data(g)
            for u in _seeded_words(rank, rng, 6, 40):
                for start in range(g.num_vertices):
                    assert trace_path(g, start, u) == trace_path_oracle(g, start, u.letters)
                # close u at the base with the tree path back from its end
                end = path_terminus(g, trace_path_oracle(g, g.base, u.letters))
                back = tuple(g.label(e) for e in tree_path(g, sd, end, g.base))
                for w in (u, free_reduce(u.letters + back, rank)):
                    p = trace_path(g, g.base, w)
                    assert p == trace_path_oracle(g, g.base, w.letters)
                    if path_terminus(g, p) != g.base:
                        opened += 1
                        with pytest.raises(InvalidInputError):
                            rewrite_loop(g, sd, p)
                        continue
                    closed += 1
                    lin = rewrite_loop(g, sd, p)
                    assert lin == rewrite_loop_oracle(g, sd, p)
                    assert rewrite_loop_cyclic(g, sd, p) == cyclic_reduce(lin)[1]
    assert closed > 0 and opened > 0


# 16/17 and 324/325 letters fall on and just past the reader's block boundaries
WALK_LENGTHS = (1, 2, 3, 4, 7, 16, 17, 40, 324, 325, 333, 2000)


@pytest.mark.parametrize("rank, d_max", [(2, 5), (3, 4)])
def test_census_walk_matches_per_cover_trace(rank, d_max):
    # the per-cover trace_path loop is the oracle for the batch walker: the
    # end vertex on every cover, walking each degree alone and all degrees
    # together, and the one-walk reader on all degrees together gives the
    # same ends and, on the covers that close, the dual word and the rauzy3
    # certificate
    rng = random.Random(rank * 1000 + d_max)
    degrees = range(1, d_max + 1)
    closed = certified = 0
    for n in WALK_LENGTHS:
        w = free_reduce([rng.choice(alphabet(rank)) for _ in range(n)], rank)
        while len(w) < n:
            w = free_reduce(w.letters + (rng.choice(alphabet(rank)),), rank)
        together = [e[0] for e in _census_walk(rank, degrees, [w.letters])[0]]
        read_ends, reader = _census_duals(rank, degrees, w.letters)
        closes = np.flatnonzero(np.concatenate(read_ends) == 0)
        duals = reader(closes, [(0, len(w))] * len(closes))  # whole words: the full span
        for d, ends, read in zip(degrees, together, read_ends):
            census = census_graphs(rank, d)
            paths = [trace_path(g, g.base, w) for g in census]
            expected = [path_terminus(g, p) for g, p in zip(census, paths)]
            assert ends.tolist() == expected, (n, d)
            assert read.tolist() == expected, (n, d)
            assert _census_walk(rank, (d,), [w.letters])[0][0][0].tolist() == expected, (n, d)
            closing = [i for i, v in enumerate(expected) if v == 0]
            words = list(itertools.islice(duals, len(closing)))
            assert len(words) == len(closing)
            for i, u in zip(closing, words):
                g = census[i]
                cyc = rewrite_loop_cyclic(g, spanning_data(g), paths[i])
                assert tuple(u.tolist()) == cyc.letters, (n, d, i)
                if len(cyc):
                    assert rauzy3_array(u, cyc.rank) == rauzy3_full(cyc) == rauzy3_by_triples(cyc)
                    certified += rauzy3_full(cyc)
            closed += len(closing)
        assert next(duals, None) is None
    assert closed > 0 and certified > 0


def _whole_dual_words(rank, degrees, letters):
    """The whole dual word of every cover that closes the letters, each read
    as the full span."""
    ends, read = _census_duals(rank, degrees, letters)
    closing = np.flatnonzero(np.concatenate(ends) == 0)
    return read(closing, [(0, len(letters))] * len(closing))


def test_census_walk_rejects_open_covers_and_unreduced_words(monkeypatch):
    w = W("abAAbab", 2)
    assert _census_walk(2, (2,), [w.letters])[0][0].any()
    # a closing test that lets the open covers through is caught by the
    # walk from the last block start
    walk = graphs._census_walk

    def all_close(*args):
        ends, *rest = walk(*args)
        return [np.zeros_like(e) for e in ends], *rest

    monkeypatch.setattr(graphs, "_census_walk", all_close)
    with pytest.raises(InvalidInputError, match="close the word"):
        list(_whole_dual_words(2, (2,), w.letters))
    monkeypatch.undo()
    # on the rose every edge is a dual letter, so aA gives a cancelling pair
    with pytest.raises(InvalidInputError, match="not freely reduced"):
        list(_whole_dual_words(2, (1,), (1, -1, 2)))


def _reduced_letters(rank, rng, n):
    """n random letters, none cancelling the one before."""
    out = [rng.choice(alphabet(rank))]
    while len(out) < n:
        x = rng.choice(alphabet(rank))
        if x != -out[-1]:
            out.append(x)
    return tuple(out)


# long enough for 4-letter steps; none is a multiple of the step
@pytest.mark.parametrize(
    "rank, d_max, lengths", [(2, 3, (28_751, 30_002)), (3, 2, (36_017, 37_003))]
)
def test_multi_letter_walk_matches_per_cover_trace(rank, d_max, lengths):
    # the ends and the stop states of the walk in 4-letter steps, on a grid
    # asked for off the step, against the vertices of per-cover trace_path
    rng = random.Random(rank * 7 + d_max)
    degrees = range(1, d_max + 1)
    width = sum(_census_table(rank, d)[0].shape[1] for d in degrees)
    for n in lengths:
        assert graphs._step_length(n, (2 * rank + 1, width)) == 4
        letters = _reduced_letters(rank, rng, n)
        ends, states, grid, _ = graphs._census_walk(rank, degrees, [letters], 1001)
        assert grid == 1004 and states.shape == (-(-n // grid), 1, states.shape[2])
        ends = np.concatenate(ends, axis=1)[0].tolist()
        assert ends == np.concatenate(_census_walk(rank, degrees, [letters])[0], axis=1)[0].tolist()
        states = (states[:, 0] - states[0, 0]).T.tolist()  # per cover, the vertex at each stop
        c = 0
        for d in degrees:
            for g in census_graphs(rank, d):
                p = trace_path(g, g.base, letters)
                vertices = [g.base] + [g.terminus(e) for e in p.edges]
                assert ends[c] == vertices[-1], (n, d, c)
                assert states[c] == vertices[:n:grid], (n, d, c)
                c += 1


def test_census_walk_stops_in_the_narrowest_unsigned_type():
    # the stop states fit the side-by-side width: uint8 to degree 2, uint16
    # to degree 5 (2,635 states); each stop is where the walk of the letters
    # before it ends
    letters = _reduced_letters(2, random.Random(5), 3001)
    for degrees, dtype in ((range(1, 3), np.uint8), (range(1, 6), np.uint16)):
        _, states, grid, (nxt, _, bases) = graphs._census_walk(2, degrees, [letters], 60)
        assert states.dtype == dtype and nxt.shape[1] - 1 <= np.iinfo(dtype).max
        for s in (1, len(states) // 2, len(states) - 1):
            ends = np.concatenate(_census_walk(2, degrees, [letters[: s * grid]])[0], axis=1)[0]
            assert np.array_equal(states[s, 0], bases + ends)


def test_step_table_composes_the_letter_rows():
    nxt, _ = _census_table(2, 3)
    for k in (2, 4):
        table = graphs._step_table(nxt, k)
        assert table.shape == (5**k, nxt.shape[1])
        for word in itertools.product(range(5), repeat=k):
            row = np.arange(nxt.shape[1])
            code = 0
            for x in word:
                row = nxt[x, row]
                code = code * 5 + x
            assert np.array_equal(table[code], row), word
    # letter codes are letter + rank; a short row is padded with letter 0,
    # the identity row, to a multiple of the step
    codes = graphs._letter_codes([np.array([1, -2, 2], dtype=np.int8), (2,)], 2, 4)
    assert codes.tolist() == [[3, 0, 4, 2], [4, 2, 2, 2]]
    assert graphs._step_codes(codes, 2, 2).tolist() == [[3 * 5 + 0, 4 * 5 + 2], [4 * 5 + 2, 2 * 5 + 2]]
    assert graphs._step_codes(codes, 2, 1).tolist() == codes.tolist()
    assert graphs._step_length(24, (5, 1)) == 1 and graphs._step_length(25, (5, 1)) == 2


def _dual_letters_along(g, sd, p):
    """The dual letter of each edge of p, 0 on tree edges."""
    index = {e: i + 1 for i, e in enumerate(sd.complement)}
    return [index.get(abs(e), 0) * (1 if e > 0 else -1) for e in p.edges]


def _peel_count(head, tail):
    k = 0
    while k < min(len(head), len(tail)) and head[k] == -tail[-1 - k]:
        k += 1
    return k


def test_segment_reads_match_the_dual_word_oracle():
    # words c m c^-1 whose dual words peel on some covers; per closing cover,
    # spans that touch the first grid block, the last, both, or neither.  A
    # segment comes back exactly when the peel length k is known from the
    # first and last grid blocks and is 0, or the span avoids both; it is
    # then the dual letters of the span's grid blocks, a subword of the
    # cyclically reduced dual word
    rank, degrees = 2, range(1, 4)
    rng = random.Random(41)
    seen = {"peeled, touching": 0, "peeled, inside": 0, "unpeeled, touching": 0, "unknown": 0}
    census = [g for d in degrees for g in census_graphs(rank, d)]
    for n, outer in ((400, 2), (400, 30), (1500, 1), (1500, 5), (2900, 60)):
        c = _reduced_letters(rank, rng, outer)
        w = free_reduce(c + _reduced_letters(rank, rng, n) + tuple(-x for x in reversed(c)), rank)
        n = len(w)
        grid = graphs._census_walk(rank, degrees, [w.letters], math.isqrt(n - 1) + 1)[2]
        blocks = -(-n // grid)
        ends, read = _census_duals(rank, degrees, w.letters)
        closing = np.flatnonzero(np.concatenate(ends) == 0).tolist()
        spans = [(0, grid // 2), (n - grid // 2, n), (0, n), (grid, n - grid), (n // 3, n // 3 + 2 * grid)]
        covers, many = [i for i in closing for _ in spans], spans * len(closing)
        got = list(read(covers, many))
        with pytest.MonkeyPatch.context() as mp:  # a few covers' spans per batch
            mp.setattr(graphs, "_CELLS", 4 * grid)
            batched = list(read(covers, many))
        assert [None if x is None else x.tolist() for x in batched] == [None if x is None else x.tolist() for x in got]
        got = iter(got)
        for i in closing:
            g = census[i]
            sd = spanning_data(g)
            p = trace_path(g, g.base, w)
            along = _dual_letters_along(g, sd, p)
            cyc = rewrite_loop_cyclic(g, sd, p).letters
            k = (sum(map(bool, along)) - len(cyc)) // 2
            head = [x for x in along[:grid] if x]
            tail = [x for x in along[(blocks - 1) * grid :] if x]
            known = _peel_count(head, tail) < min(len(head), len(tail))
            for a, b in spans:
                seg = next(got)
                lo, hi = a // grid, -(-b // grid)
                if (lo, hi) == (0, blocks):
                    assert tuple(seg.tolist()) == cyc
                    continue
                touching = lo == 0 or hi == blocks
                if not known:
                    seen["unknown"] += 1
                    assert seg is None
                elif k and touching:
                    seen["peeled, touching"] += 1
                    assert seg is None
                else:
                    seen["peeled, inside"] += bool(k)
                    seen["unpeeled, touching"] += not k and touching
                    expected = [x for x in along[lo * grid : hi * grid] if x]
                    assert seg.tolist() == expected, (n, i, a, b)
                    assert bytes(np.array(expected, np.int8)) in bytes(np.array(cyc, np.int8))
        assert next(got, None) is None
    assert all(seen.values()), seen
    # a segment is checked to be freely reduced: aA sits inside grid block 4 of 9
    w = (1, 2) * 20 + (1, -1) + (2, 1) * 20
    _, read = _census_duals(2, (1,), w)
    with pytest.raises(InvalidInputError, match="not freely reduced"):
        list(read([0], [(38, 46)]))


def test_census_duals_refuses_the_trivial_word():
    # refused before the walk, with the message first_cover and
    # divisibility give: a grid of 0 letters has no block to read
    for empty in ((), np.array([], dtype=np.int8)):
        with pytest.raises(InvalidInputError, match="census scans reject the trivial word"):
            _census_duals(2, (1, 2), empty)


def test_dual_reads_of_narrow_letters_at_the_type_limits():
    # letters that fit int8 up to rank 127, codes 0 .. 2 rank that need int16
    # from rank 64, and the rose's dual letters, which need int16 at rank
    # 128: a word given in its narrowest type reads as the same word given
    # as a tuple, whole or as the segment of its first grid block (3 letters)
    for rank in (63, 64, 65, 127, 128):
        w = (rank, -(rank - 1), rank - 2, 1, -rank, -rank, 2)
        reads = []
        for given in (np.array(w, dtype=graphs._letter_dtype(rank)), w):
            ends, read = _census_duals(rank, (1,), given)
            assert [e.tolist() for e in ends] == [[0]]
            reads.append([u.tolist() for u in read([0], [(0, len(w))])] + [u.tolist() for u in read([0], [(0, 3)])])
        assert reads[0] == reads[1] == [list(w), list(w[:3])], rank
    assert graphs._letter_codes([(64, -64)], 64, 3).tolist() == [[128, 0, 64]]


def test_rauzy3_array_matches_rauzy3_full_on_short_words():
    for rank in (1, 2, 3):
        for n in range(1, 5):
            for cw in enumerate_cyclically_reduced(n, rank):
                u = np.array(cw.letters, dtype=np.int8)
                assert rauzy3_array(u, rank) == rauzy3_full(cw) == rauzy3_by_triples(cw), cw
    u3 = universal_three_word(3)
    cw = cyclic_reduce(u3)[1]
    assert rauzy3_array(np.array(cw.letters), 3) == rauzy3_full(cw) == rauzy3_by_triples(cw) is True
    for bad in ((np.array([], dtype=np.int8), 2), (np.array([1]), 0)):
        with pytest.raises(InvalidInputError):
            rauzy3_array(*bad)
    # a zero letter, or a letter beyond the rank, is refused, not read
    for bad in (([1, 0, 2, 1], 2), ([0], 2), ([1, 2, 1], 1), ([3, 1, 2], 2), ([-3, 1], 2)):
        for test in (rauzy3_array, rauzy3_linear):
            with pytest.raises(InvalidInputError, match="nonzero and within"):
                test(np.array(bad[0], dtype=np.int8), bad[1])


@pytest.mark.parametrize("rank", [1, 2, 3, 6])
def test_rauzy3_linear_matches_the_set_of_triples(rank):
    # the linear test on a freely reduced array against the set of its
    # length-3 factors and theirs inverses; rauzy3_array is the linear test
    # on the word followed by its first two letters
    rng = random.Random(rank)
    certified = 0
    for n in (0, 1, 2, 3, 5, 20, 60, 300, 3000, 30000):
        for _ in range(6):
            u = free_reduce([rng.choice(alphabet(rank)) for _ in range(2 * n)], rank).letters[:n]
            triples = set(zip(u, u[1:], u[2:]))
            triples |= {(-z, -y, -x) for x, y, z in triples}
            expected = len(triples) == 2 * rank * (2 * rank - 1) ** 2
            assert rauzy3_linear(np.array(u, dtype=np.int8), rank) == expected, (n, u)
            certified += expected
            cw = cyclic_reduce(Word(u, rank))[1]
            if len(cw):
                assert rauzy3_array(np.array(cw.letters), rank) == rauzy3_full(cw) == rauzy3_by_triples(cw)
    assert certified > 0


def test_trace_errors_match_oracle_on_principal_quotients():
    rng = random.Random(7)
    failed = 0
    for text, rank in (("aaabaBAbAB", 2), ("aabbcAbC", 3)):
        w = CW(text, rank)
        for k in range(1, len(w) + 1):
            for q in quotient_graphs(w, k):
                for u in _seeded_words(rank, rng, 4, 12) + [w.word()]:
                    for start in range(-1, q.num_vertices + 1):
                        try:
                            expected = trace_path_oracle(q, start, u.letters)
                        except NoSuchPathError as err:
                            failed += 1
                            with pytest.raises(NoSuchPathError) as exc:
                                trace_path(q, start, u)
                            assert str(exc.value) == str(err)
                            assert (exc.value.vertex, exc.value.letter, exc.value.position) == (
                                err.vertex, err.letter, err.position
                            )
                        else:
                            assert trace_path(q, start, u) == expected
    assert failed > 0


# -- spanning data and rewriting ----------------------------------------------

def test_rank_formula_on_folded_graphs():
    for g in census_graphs(2, 1) + [two_vertex_cover(), circle_graph(CW("abAB", 2))]:
        sd = spanning_data(g)
        assert len(sd.complement) == len(g.edges) - g.num_vertices + 1
        assert cycle_rank(g) == len(sd.complement)


def test_rewrite_tree_loop_is_empty():
    g = two_vertex_cover()
    sd = spanning_data(g)
    j = next(iter(sd.tree_edges)) + 1
    p = EdgePath(g.origin(j), (j, -j))
    # conjugate into a base loop if needed
    if g.origin(j) == g.base:
        assert rewrite_loop(g, sd, p).letters == ()


def test_rewrite_dual_loop_single_letter():
    g = two_vertex_cover()
    sd = spanning_data(g)
    for i in range(1, len(sd.complement) + 1):
        p = delta_path(g, sd, Word((i,), sd.dual_rank))
        assert rewrite_loop(g, sd, p).letters == (i,)


def test_rewrite_rejects_non_loop():
    g = two_vertex_cover()
    sd = spanning_data(g)
    with pytest.raises(InvalidInputError):
        rewrite_loop(g, sd, trace_path(g, 0, W("a", 2)))


def test_rewrite_cyclic_rejects_non_loop():
    g = census_graphs(2, 2)[1]
    sd = spanning_data(g)
    p = trace_path(g, 0, W("a", 2))
    assert path_terminus(g, p) == 1  # an open path, not a base loop
    with pytest.raises(InvalidInputError):
        rewrite_loop_cyclic(g, sd, p)


def test_primitivity_witness_rewrite_single_letter():
    # the defining loop of w on the completed circle is primitive in its
    # subgroup (the d_prim <= |w| lemma), whatever the spanning tree
    for n in range(1, 7):
        for w in enumerate_cyclically_reduced(n, 2):
            c = complete_to_cover(circle_graph(w))
            loop = trace_path(c, 0, w)
            assert path_terminus(c, loop) == 0
            assert is_primitive(rewrite_loop(c, spanning_data(c), loop))


def test_rewrite_cyclic_matches_linear_up_to_rotation():
    g = two_vertex_cover()
    sd = spanning_data(g)
    for text in ["abab", "aabAA", "abBA"]:
        w = free_reduce(W(text, 2).letters, 2)
        try:
            p = trace_path(g, 0, w)
        except NoSuchPathError:
            continue
        if path_terminus(g, p) != 0:
            continue
        lin = rewrite_loop(g, sd, p)
        cyc = rewrite_loop_cyclic(g, sd, p)
        assert cyclic_reduce(lin)[1].min_rotation() == cyc.min_rotation()


# -- circle graphs and principal quotients ---------------------------------------

def test_circle_graph_shapes():
    assert circle_graph(CW("ab", 2)).num_vertices == 2
    g1 = circle_graph(CW("a", 2))
    assert g1.num_vertices == 1 and g1.edges == ((0, 0, 1),)
    g4 = circle_graph(CW("abAB", 2))
    assert g4.num_vertices == 4 and is_folded(g4)


def test_set_partition_counts_are_bell_numbers():
    for n in range(1, 8):
        assert sum(1 for _ in set_partitions(n)) == bell(n)
    import math

    # Stirling check for one mid case
    assert sum(1 for _ in set_partitions_with_blocks(5, 2)) == 15


def test_principal_quotient_counts():
    assert len(list(principal_quotients(CW("a", 2)))) == 1
    assert len(list(principal_quotients(CW("ab", 2)))) == 2  # B_2
    assert len(list(principal_quotients(CW("abAB", 2)))) == 15  # B_4


def test_principal_quotients_outputs_are_quotients():
    w = CW("aabA", 2)  # length 4, cyclically reduced
    for q, vmap in principal_quotients(w):
        assert is_folded(q)
        assert len(vmap) == len(w)
        base = vmap[0]
        assert base == q.base
        p = trace_path(q, base, w)
        assert path_terminus(q, p) == base
        assert {abs(e) - 1 for e in p.edges} == set(range(len(q.edges)))


def _assert_generator_matches_oracle(w, ks):
    for k in ks:
        grown = quotient_graphs(w, k)
        assert len(grown) == len(set(grown)), (w.text(), k)
        assert set(grown) == quotients_by_partitions(w, k), (w.text(), k)


def test_quotient_generator_matches_partition_oracle_on_class_reps():
    for rank, n_max in ((2, 7), (3, 5)):
        for n in range(1, n_max + 1):
            for w in enumerate_cyclically_reduced(n, rank):
                # a class key starts with the letter a; test that first, it is cheap
                if w.letters[0] == 1 and w.letters == cyclic_class_key(w.letters, rank):
                    _assert_generator_matches_oracle(w, range(1, n + 1))


@st.composite
def cyclic_words(draw):
    """Cyclically reduced words of length 1..10 in rank 2 or 3."""
    rank = draw(st.integers(2, 3))
    letters = [draw(st.sampled_from(alphabet(rank)))]
    for _ in range(draw(st.integers(0, 9))):
        letters.append(draw(st.sampled_from([x for x in alphabet(rank) if x != -letters[-1]])))
    while len(letters) > 1 and letters[0] == -letters[-1]:
        letters.pop()
    return CyclicWord(tuple(letters), rank)


@given(cyclic_words())
@settings(max_examples=30, deadline=None)
def test_quotient_generator_matches_partition_oracle_on_random_words(w):
    _assert_generator_matches_oracle(w, range(1, 4))


def test_quotient_generator_steps_and_counts_per_k():
    # --max-partitions caps these search steps; pinning them keeps its meaning
    w = CW("aaabaBAbAB", 2)
    found = []
    for k in range(1, 11):
        steps = []
        quotients = list(quotients_with_vertices(w, k, lambda: steps.append(1)))
        found.append(f"{len(steps)}/{len(quotients)}")
    assert found == [
        "2/1", "10/3", "38/0", "142/18", "324/34", "509/62", "526/54", "358/32", "149/8", "37/1"
    ]


def test_quotient_generator_matches_retracing_oracle_on_class_reps():
    # the stack grower gives the same quotients, in the same order, from the
    # same number of search steps as the oracle grower retracing from vertex 0
    for n in range(1, 9):
        for w in enumerate_cyclically_reduced(n, 2):
            if w.letters[0] != 1 or w.letters != cyclic_class_key(w.letters, 2):
                continue
            for k in range(1, n + 1):
                steps, oracle_steps = [], []
                grown = quotient_graphs(w, k, lambda: steps.append(1))
                expected = list(quotients_by_retracing(w, k, lambda: oracle_steps.append(1)))
                assert grown == expected, (w.text(), k)
                assert len(steps) == len(oracle_steps), (w.text(), k)


def test_one_vertex_quotient_is_the_rose_read_off_the_word():
    # k = 1 reads the rose on the generators w uses off w: the record the
    # oracle grower and _read_quotient give, from one step per generator
    cases = [w for n in range(1, 6) for w in enumerate_cyclically_reduced(n, 3)]
    cases += [CW(text, 4) for text in ("dbDcB", "ddddc", "abcdABCD", "cDcDcD")]
    kinds = set()
    for w in cases:
        used = {abs(x) for x in w.letters}
        steps, oracle_steps = [], []
        got = list(quotients_with_vertices(w, 1, lambda: steps.append(1)))
        expected = list(quotients_by_retracing(
            w, 1, lambda: oracle_steps.append(1),
            lambda out, size: graphs._read_quotient(w, flat_table(w.rank, out, size), size),
        ))
        assert got == expected, w.text()
        assert len(steps) == len(oracle_steps) == len(used), w.text()
        kinds.add("single" if len(w) == 1 else "every" if len(used) == w.rank else "subset")
        (edges, order, dual, cover), = got
        assert edges == tuple((0, 0, g) for g in sorted(used)) and order == (0,)
        assert (dual.rank, cover) == (len(used), len(used) == w.rank)
    assert kinds == {"single", "every", "subset"}
    assert CW("bbC", 3) in cases and CW("BcB", 3) in cases
    _, _, dual, _ = next(quotients_with_vertices(CW("BcB", 3), 1))
    assert dual == CW("AbA", 2)


def test_quotient_generators_share_no_state():
    # two calls drawn in turn each yield what one call yields alone, and a
    # call dropped halfway leaves a fresh call's quotients unchanged; every
    # call alone is drawn first, before any call is left unfinished
    reps = [w for n in range(1, 9) for w in class_representatives(n, 2, skip_powers=False)]
    cases = [(w, k) for w in reps for k in range(1, len(w) + 1)]
    alone = [list(quotients_with_vertices(w, k)) for w, k in cases]
    for (w, k), expected in zip(cases, alone):
        both = zip(quotients_with_vertices(w, k), quotients_with_vertices(w, k))
        assert list(both) == list(zip(expected, expected)), (w.text(), k)
        half = (len(expected) + 1) // 2
        dropped = quotients_with_vertices(w, k)
        assert list(itertools.islice(dropped, half)) == expected[:half]
        assert list(quotients_with_vertices(w, k)) == expected, (w.text(), k)


@pytest.mark.parametrize("rank,n_max", [(2, 8), (3, 6)])
def test_quotient_records_match_their_graphs(rank, n_max):
    # each record hands over what the scan used to compute from its graph:
    # the dual word of w's loop, the canonical key and the cover flag
    for n in range(1, n_max + 1):
        for w in class_representatives(n, rank, skip_powers=False):
            for k in range(1, n + 1):
                for edges, order, dual, cover in quotients_with_vertices(w, k):
                    q = AGraph(rank, k, 0, edges)
                    assert dual == rewrite_loop_cyclic(q, spanning_data(q), trace_path(q, 0, w))
                    assert _relabeled_key(rank, order, edges) == canonical_key(q), (w.text(), k)
                    assert cover == is_cover(q)


@pytest.mark.parametrize("rank,n_max", [(2, 8), (3, 6)])
def test_first_visit_dual_answers_as_the_canonical_dual(rank, n_max):
    # the quotient scan asks its predicates of the dual word read in one walk
    # of w over its first-visit spanning tree: another basis of the same
    # free group, so the same rank and the same answers, and a cyclically
    # reduced word over every dual letter, no longer than w
    for n in range(1, n_max + 1):
        for w in class_representatives(n, rank, skip_powers=False):
            codes = _display_codes(w.letters)
            for k in range(1, n + 1):
                for out in graphs._quotient_tables(w, k):
                    canonical = graphs._read_quotient(w, out, k)[2]
                    dual = graphs._first_visit_dual(codes, out, 2 * rank)
                    assert CyclicWord(dual.letters, dual.rank) == dual, (w.text(), k)
                    assert {abs(y) for y in dual.letters} == set(range(1, dual.rank + 1))
                    assert dual.rank == canonical.rank and len(dual) <= n, (w.text(), k)
                    assert is_primitive(dual) == is_primitive(canonical), (w.text(), k)
                    assert is_simple(dual) == is_simple(canonical), (w.text(), k)


def test_quotient_generator_rejects_empty_word_eagerly():
    # raised at the call, before any quotient is drawn from the iterator
    with pytest.raises(InvalidInputError):
        quotients_with_vertices(CyclicWord((), 2), 1)


# -- connectors -----------------------------------------------------------------

def connector_oracle(g, e1, e2, bound):
    """Exhaustive BFS over reduced edge sequences."""
    frontier = [(e1,)]
    seen = {e1}
    while frontier:
        nxt = []
        for path in frontier:
            if path[-1] == e2:
                return path
            if len(path) >= bound:
                continue
            for f in range(1, len(g.edges) + 1):
                for fe in (f, -f):
                    if g.origin(fe) == g.terminus(path[-1]) and fe != -path[-1]:
                        nxt.append(path + (fe,))
        # dedup by last edge for shortest search
        pruned = []
        for p in nxt:
            if p[-1] not in seen:
                seen.add(p[-1])
                pruned.append(p)
        frontier = pruned
    return None


def test_connector_on_rose():
    (g,) = census_graphs(2, 1)
    p = connector_path(g, 1, 1)
    assert p.edges == (1,)
    p = connector_path(g, 1, 2)
    assert p.edges == (1, 2) and len(p) <= 3


def test_connector_reversed_edge_on_theta():
    # theta graph: two vertices, three parallel strands
    g = AGraph(2, 2, 0, ((0, 1, 1), (0, 1, 2), (1, 0, 1)))
    # folded? edges: a:0->1, b:0->1, a:1->0 -- two a-edges at vertex 1 going out
    # (one as origin of edge 2, one as reverse of edge 0): labels a and a^-1, ok
    assert is_folded(g)
    for e1 in [1, -1, 2, -2, 3, -3]:
        p = connector_path(g, e1, -e1)
        assert p.edges[0] == e1 and p.edges[-1] == -e1
        assert path_is_reduced(p)
        assert len(p) <= 3 * g.num_vertices
        oracle = connector_oracle(g, e1, -e1, 3 * g.num_vertices)
        assert oracle is not None and len(p) == len(oracle)


def test_connector_rejects_rank_one():
    g = circle_graph(CW("ab", 2))
    with pytest.raises(UnsupportedInputError):
        connector_path(g, 1, 2)


# -- delta, alpha, beta ---------------------------------------------------------

def test_alpha_on_roses():
    (g,) = census_graphs(2, 1)
    sd = spanning_data(g)
    a = alpha_path(g, sd)
    assert tuple(g.label(e) for e in a.edges) == (2, 2, 1, 1, 2, 2)  # b b a a b b
    assert len(a) == 6
    (g3,) = census_graphs(3, 1)
    a3 = alpha_path(g3, spanning_data(g3))
    assert tuple(g3.label(e) for e in a3.edges) == (3, 3, 1, 1, 2, 2, 3, 3)


def test_alpha_beta_rewrite_roundtrip():
    for g in census_graphs(2, 2) + census_graphs(2, 1):
        sd = spanning_data(g)
        r = len(sd.complement)
        a = alpha_path(g, sd)
        expected = [r, r] + [i for i in range(1, r + 1) for _ in (0, 1)]
        assert rewrite_loop(g, sd, a).letters == tuple(expected)
        b = beta_path(g, sd)
        assert rewrite_loop(g, sd, b).letters == universal_three_word(r).letters


def test_alpha_length_bound_on_covers():
    for d in (1, 2):
        for g in census_graphs(2, d):
            a = alpha_path(g, spanning_data(g))
            assert len(a) <= 2 * d * d * (2 - 1) + 4 * d


def test_delta_length_bound():
    g = two_vertex_cover()
    sd = spanning_data(g)
    r = len(sd.complement)
    for u in [Word((1, 2, 3), r), Word((3, 3, 1, 1), r)]:
        p = delta_path(g, sd, u)
        d = g.num_vertices
        assert len(p) <= d * (len(u) + 1) - 1
        assert path_is_reduced(p)
        assert rewrite_loop(g, sd, p).letters == u.letters


def test_delta_path_refuses_a_loop_that_is_not_reduced():
    # a dual word that cancels lays out an edge next to its inverse; the
    # array check on neighbouring edges catches it, from delta_path (given
    # an unchecked Word) and from the array routine alike
    from primindex.words import _trusted

    g = two_vertex_cover()
    sd = spanning_data(g)
    r = sd.dual_rank
    for letters in ((1, -1), (2, 3, -3, 1), (1, 2, -2)):
        with pytest.raises(InvalidInputError, match="not reduced"):
            delta_path(g, sd, _trusted(Word, letters, r))
        with pytest.raises(InvalidInputError, match="not reduced"):
            loop_path(g, sd, np.array(letters))
    assert path_is_reduced(delta_path(g, sd, Word((1, -2), r)))


def test_beta_length_bound_on_covers():
    for d in (1, 2):
        for g in census_graphs(2, d):
            b = beta_path(g, spanning_data(g))
            assert len(b) <= 500 * d**4 * 2**3


def test_universal_three_word_r2():
    u = universal_three_word(2)
    assert len(u) <= 4 * 36 - 1
    text = u.text()
    triples = [w.text() for w in __import__("primindex.words", fromlist=["enumerate_reduced"]).enumerate_reduced(3, 2)]
    assert len(triples) == 36
    assert all(t in text for t in triples)


def test_universal_three_word_r3():
    u = universal_three_word(3)
    L = 2 * 3 * (2 * 3 - 1) ** 2
    assert L == 150 and len(u) <= 4 * L - 1


def test_universal_word_truncation_loses_a_triple():
    # dropping the tail of the word must lose factors; with this junction
    # ordering the very last block happens to repeat earlier, so cut deeper
    u = universal_three_word(2)
    text = Word(u.letters[: len(u) // 2], 2).text()
    from primindex.words import enumerate_reduced

    missing = [w for w in enumerate_reduced(3, 2) if w.text() not in text]
    assert missing


# -- serialization -----------------------------------------------------------

def graph_from_json(data: dict, rank: int) -> AGraph:
    """The inverse of graph_to_json."""
    edges = []
    for e in data["edges"]:
        o, t, gen, sign = e["from"], e["to"], e["gen"], e.get("sign", 1)
        edges.append((o, t, gen) if sign > 0 else (t, o, gen))
    return AGraph(rank, len(data["vertices"]), data["base"], tuple(edges))


def test_json_roundtrip():
    g = two_vertex_cover()
    data = graph_to_json(g)
    g2 = graph_from_json(data, 2)
    assert canonical_key(g) == canonical_key(g2)


def test_dot_export_mentions_base_and_labels():
    s = graph_to_dot(census_graphs(2, 1)[0])
    assert "doublecircle" in s and '"a1"' in s and '"a2"' in s


def test_path_contains_tokenized():
    hay = EdgePath(0, (1, 2, -13, 3))
    assert path_contains(hay, EdgePath(0, (2, -13)))
    assert not path_contains(hay, EdgePath(0, (2, -1)))
    assert not path_contains(hay, EdgePath(0, (1, 3)))
