import itertools
import random
import time

import numpy as np
import pytest

from primindex import blockers, graphs
from primindex.blockers import (
    KIND_ALPHA,
    KIND_BETA,
    AuditEntry,
    blocking_word,
    forcing_word,
    witness_word,
)
from primindex.errors import InvalidInputError, ResourceGuardError
from primindex.graphs import (
    AGraph,
    EdgePath,
    cover_census,
    cover_graph,
    out_map,
    path_contains,
    path_terminus,
    rewrite_loop_cyclic,
    spanning_data,
    trace_path,
    universal_three_word,
)
from primindex.index import CERT_RAUZY, CERT_UNDETERMINED, _scan_quotients
from primindex.whitehead import rauzy3_full
from primindex.words import Word

from path_oracles import alpha_path, beta_path, connector_path, tree_path


def path_is_reduced(p):
    """No edge is followed by its inverse: no two neighbours sum to 0."""
    return all(a + b != 0 for a, b in zip(p.edges, p.edges[1:]))


def census_graphs(rank, degree):
    return [cover_graph(rank, perms) for perms in cover_census(rank, degree)]


def test_blocking_word_on_rose():
    rep = blocking_word(census_graphs(2, 1)[0])
    assert rep.kind == "alpha-blocking"
    assert rep.word.text() == "bbaabb"  # the pattern loop itself
    assert len(rep.word) <= rep.length_bound == 9
    assert rep.verified


def test_blocking_word_degree_two():
    for g in census_graphs(2, 2):
        rep = blocking_word(g)
        assert rep.verified
        assert len(rep.word) <= 9 * 8  # (2N+5) d^3
        pattern = alpha_path(g, spanning_data(g))
        for x in range(g.num_vertices):
            assert path_contains(trace_path(g, x, rep.word), pattern)


def test_blocking_word_negative_control_empty_word():
    from primindex.words import Word

    g = next(iter(census_graphs(2, 2)))
    pattern = alpha_path(g, spanning_data(g))
    empty = trace_path(g, 0, Word((), 2))
    assert not path_contains(empty, pattern)


def test_forcing_word_on_rose():
    rep = forcing_word(census_graphs(2, 1)[0])
    assert rep.kind == "beta-forcing"
    assert rep.verified
    assert len(rep.word) <= 1000 * 8  # far below the bound in practice
    # the trace closes up at the base and rewrites to the universal word
    sd = spanning_data(census_graphs(2, 1)[0])
    assert rep.word.letters == universal_three_word(2).letters


def test_forcing_word_degree_two():
    for g in census_graphs(2, 2):
        rep = forcing_word(g)
        assert rep.verified
        d = g.num_vertices
        assert len(rep.word) <= 1000 * 8 * d**5
        for piece in rep.piece_lengths:
            assert piece <= 500 * d**4 * 8 + 3 * d


def test_forcing_trace_rewrite_contains_all_dual_triples():
    # closing the traced loop at the base rewrites to a cyclic word whose
    # factors include every reduced 3-word over the dual basis
    from primindex.graphs import path_terminus

    checked = 0
    for g in census_graphs(2, 1) + census_graphs(2, 2):
        rep = forcing_word(g)
        p = trace_path(g, g.base, rep.word)
        if path_terminus(g, p) != g.base:
            continue
        sd = spanning_data(g)
        rewritten = rewrite_loop_cyclic(g, sd, p)
        assert rauzy3_full(rewritten)
        checked += 1
    assert checked >= 1


def _has_square_chain(w):
    """Does the square chain a_N^2 a_1^2 ... a_N^2 occur among the cyclic
    factors of w or w^-1?"""
    r = w.rank
    pattern = (r, r) + tuple(g for g in range(1, r + 1) for _ in (0, 1))
    if len(w) < len(pattern):
        return False
    return any(
        pattern == (base + base)[i : i + len(pattern)]
        for base in (w.letters, w.inverse().letters)
        for i in range(len(w))
    )


def test_blocking_word_soundness_chain():
    # a cyclically reduced word containing v whose loop closes rewrites to
    # a word containing the square chain, hence is not simple
    from primindex.graphs import path_terminus

    checked = 0
    for g in census_graphs(2, 1) + census_graphs(2, 2):
        rep = blocking_word(g)
        p = trace_path(g, g.base, rep.word)
        if path_terminus(g, p) != g.base:
            continue
        sd = spanning_data(g)
        rewritten = rewrite_loop_cyclic(g, sd, p)
        assert _has_square_chain(rewritten)
        checked += 1
    assert checked >= 1  # the rose always closes


def test_witness_word_degree_one():
    z, audit = witness_word(1, 2)
    assert audit.census_size == 1
    assert audit.complete
    # certified filling inside the whole group
    assert rauzy3_full(z)
    # every k = 1 quotient is certified filling, so d_fill >= 2
    assert "fill" not in _scan_quotients(z, ("fill",), max_index=1)


def test_witness_word_degree_two():
    z, audit = witness_word(2, 2)
    assert audit.census_size == 4  # rose + three double covers
    assert audit.complete
    containing = [e for e in audit.entries if e.contains]
    assert containing, "the word lies in at least the whole group"
    assert all(e.certificate == "rauzy3-filling" for e in containing)
    bound = audit.census_size * (1000 * 8 * 2**5 + 1)
    assert len(z) <= bound


def test_witness_word_resource_guard():
    with pytest.raises(ResourceGuardError):
        witness_word(2, 2, max_covers=2)


def test_witness_word_cap_is_checked_before_the_census_is_built():
    # degree <= 6 in rank 2 holds 1 + 3 + 13 + 71 + 461 + 3447 = 3996 covers
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="exceeds cover cap 3995"):
        witness_word(6, 2, max_covers=3995)
    assert time.perf_counter() - start < 1.0


def _audit_oracle(z, d, rank):
    """The audit by full reads, one cover at a time: trace z from the base
    and, where the loop closes, rewrite it cyclically and ask rauzy3_full."""
    entries = []
    for deg in range(1, d + 1):
        for i, g in enumerate(census_graphs(rank, deg)):
            p = trace_path(g, g.base, z)
            if path_terminus(g, p) != g.base:
                entries.append(AuditEntry(deg, i, False, None))
                continue
            filling = rauzy3_full(rewrite_loop_cyclic(g, spanning_data(g), p))
            entries.append(AuditEntry(deg, i, True, CERT_RAUZY if filling else CERT_UNDETERMINED))
    return tuple(entries)


@pytest.mark.parametrize("d, rank", [(2, 2), (3, 2), (2, 3)])
def test_witness_audit_matches_the_full_read_oracle(d, rank):
    z, audit = witness_word(d, rank)
    assert audit.entries == _audit_oracle(z, d, rank)
    assert audit.complete


def _counting_whole_reads(monkeypatch):
    whole = []
    rauzy3_array = blockers.rauzy3_array

    def counting(u, rank):
        whole.append(len(u))
        return rauzy3_array(u, rank)

    monkeypatch.setattr(blockers, "rauzy3_array", counting)
    return whole


def test_witness_audit_falls_back_to_the_whole_dual_word(monkeypatch):
    whole = _counting_whole_reads(monkeypatch)
    z, audit = witness_word(3, 2)
    assert whole == []  # every closing cover is certified by its own block
    # a segment certificate that never certifies leaves each closing cover
    # to the whole read, which gives the same entries
    monkeypatch.setattr(blockers, "rauzy3_linear", lambda u, rank: False)
    assert witness_word(3, 2) == (z, audit)
    assert len(whole) == sum(e.contains for e in audit.entries) == 8


_BUILDER = blockers._covering_blocks


def _patch_blocks(monkeypatch, edit):
    """Make witness_word's builder pass every block of degree d through
    edit(block, d)."""
    def edited(nxt, dual, eid, bases, segments):
        blocks, pieces = _BUILDER(nxt, dual, eid, bases, segments)
        return [edit(b, nxt.shape[1] // len(bases)) for b in blocks], pieces

    monkeypatch.setattr(blockers, "_covering_blocks", edited)


def test_witness_audit_of_blocks_that_do_not_certify(monkeypatch):
    # degree-2 blocks cut to 8 letters no longer trace the pattern loop:
    # each degree-2 cover that closes z falls back to its whole dual word,
    # which does not certify it either, and the audit is incomplete
    whole = _counting_whole_reads(monkeypatch)
    _patch_blocks(monkeypatch, lambda block, d: block[:8] if d == 2 else block)
    z, audit = witness_word(2, 2)
    assert audit.entries == _audit_oracle(z, 2, 2)
    assert len(whole) == 3 and not audit.complete

def test_witness_word_checks_its_letters_on_the_array(monkeypatch):
    # CyclicWord's checks, made once on z: a cancelling pair inside a block,
    # a zero letter or one beyond the rank is refused before the audit
    for extra, message in (((1, -1), "not freely reduced"), ((0,), "nonzero"), ((3,), "within")):
        _patch_blocks(monkeypatch, lambda block, d, e=extra: np.concatenate((block, e), dtype=np.int8))
        with pytest.raises(InvalidInputError, match=message):
            witness_word(2, 2)
    for z, message in (([1, 2, -2, 1], "not freely reduced"), ([1, 2, -1], "not cyclically reduced")):
        with pytest.raises(InvalidInputError, match=message):
            blockers._check_cyclic(np.array(z, dtype=np.int8), 2)
    blockers._check_cyclic(np.array([1, 2, 1, -2], dtype=np.int8), 2)

# -- the blocks against per-letter oracles ---------------------------------------

def _delta_path_oracle(g, sd, u):
    """delta_path one dual letter at a time: each complement edge is joined
    to the path so far by the tree path from where the path stands."""
    edges = []
    v = g.base
    for y in u.letters:
        e = sd.complement[abs(y) - 1] * (1 if y > 0 else -1)
        edges.extend(tree_path(g, sd, v, g.origin(e)))
        edges.append(e)
        v = g.terminus(e)
    edges.extend(tree_path(g, sd, v, g.base))
    p = EdgePath(g.base, tuple(edges))
    if not path_is_reduced(p):
        raise InvalidInputError("delta_path built a path that is not reduced")
    return p


def _covering_word_oracle(g, sd, pattern):
    """_covering_letters, as tuples, by re-tracing the whole word so far
    from each vertex to find the edge its connector starts from."""
    first_edge = pattern.edges[0]
    pattern_letters = tuple(map(g.label, pattern.edges))
    pieces = []
    sofar = []
    for i in range(g.num_vertices):
        if i == 0:
            into_base = tree_path(g, sd, 0, g.base)
            if into_base:
                q = connector_path(g, into_base[-1], first_edge)
                edges = into_base + q.edges[1:] + pattern.edges[1:]
            else:
                edges = pattern.edges
            piece = tuple(map(g.label, edges))
        else:
            traced = trace_path(g, i, tuple(sofar))
            q = connector_path(g, traced.edges[-1], first_edge)
            piece = tuple(map(g.label, q.edges[1:])) + pattern_letters[1:]
        pieces.append(piece)
        sofar.extend(piece)
    return tuple(sofar), tuple(len(p) for p in pieces)


def _rotated(g):
    """g with vertex v renamed v + 1 mod d, so the base is vertex 1."""
    d = g.num_vertices
    edges = tuple(((o + 1) % d, (t + 1) % d, x) for o, t, x in g.edges)
    return AGraph(g.rank, d, (g.base + 1) % d, edges)


def _oracle_covers():
    """Every cover of rank 2 to degree 4 and of rank 3 to degree 3; those
    of rank 2 and degree >= 2, and of rank 3 and degree 2, also with the
    base moved off vertex 0, the only case with a tree path into it."""
    for rank, top, rotate in ((2, 4, range(2, 5)), (3, 3, (2,))):
        for d in range(1, top + 1):
            for g in census_graphs(rank, d):
                yield g
                if d in rotate:
                    yield _rotated(g)


def _builder_block(g, kind):
    """The builder's block and piece lengths for g alone, from its own
    (g, sd) as blocking_word and forcing_word build them."""
    sd = spanning_data(g)
    nxt, dual, eid = graphs._graph_tables(g, sd)
    bases = np.array([g.base])
    segments = graphs._pattern_segments(nxt, dual, bases, blockers._pattern_word(kind, sd.dual_rank))
    (letters,), (pieces,) = blockers._covering_blocks(nxt, dual, eid, bases, segments)
    return letters, pieces


def _alpha_word(r):
    """The square chain b_r^2 b_1^2 ... b_r^2 over the dual basis."""
    return Word((r, r) + tuple(i for i in range(1, r + 1) for _ in (0, 1)), r)


@pytest.mark.parametrize("pattern_fn, dual_word", [
    (alpha_path, _alpha_word),
    (beta_path, universal_three_word),
])
def test_blocks_match_per_letter_oracles(pattern_fn, dual_word):
    kind = KIND_ALPHA if pattern_fn is alpha_path else KIND_BETA
    covers = moved = 0
    for g in _oracle_covers():
        sd = spanning_data(g)
        pattern = pattern_fn(g, sd)
        assert pattern == _delta_path_oracle(g, sd, dual_word(sd.dual_rank))
        letters, lengths = _builder_block(g, kind)
        assert (tuple(letters.tolist()), tuple(lengths.tolist())) == _covering_word_oracle(g, sd, pattern)
        assert sum(lengths) == len(letters)
        covers += 1
        moved += g.base != 0
    assert (covers, moved) == (88 + 105 + 87 + 7, 87 + 7)


# -- the per-cover block path, kept as the builder's oracle ----------------------

def _vertex_map(moves, letters):
    """Where the trace of the letters ends, from each vertex; moves[x][v]
    is the terminus of the x-edge out of v.  The per-letter maps are
    composed pairwise, level by level."""
    d = moves.shape[1]
    maps = moves[letters]
    while len(maps) > 1:
        half = len(maps) // 2
        rows = np.arange(0, half * d, d)[:, None]  # row offsets into the flat odd maps
        paired = maps[1 : 2 * half : 2].ravel()[maps[0 : 2 * half : 2] + rows]
        maps = np.concatenate((paired, maps[2 * half :]))
    return maps[0] if len(maps) else np.arange(d)


def _covering_letters(g, sd, pattern):
    """Letters whose trace from every vertex (ascending id) runs through the
    pattern loop, given as an array of signed edges, and the length of each
    vertex's piece, one cover at a time: a deque connector_path per vertex
    and the tail's _vertex_map give where each vertex's trace stands."""
    first_edge = int(pattern[0])
    o, t, gen = np.array(g.edges, dtype=np.intp).T
    # label[j] is the letter of signed edge j, and moves has row x for letter
    # x; the inverse edges' entries and letters' rows wrap around from the end
    label = np.concatenate(([0], gen, -gen[::-1]), dtype=blockers._letter_dtype(g.rank))
    moves = np.empty((2 * g.rank + 1, g.num_vertices), dtype=np.intp)
    moves[gen, o], moves[-gen, t] = t, o
    pattern_letters = label[pattern]
    tail = pattern_letters[1:]
    tail_map = _vertex_map(moves, tail)
    om = out_map(g)
    into_base = tree_path(g, sd, 0, g.base)
    if into_base:
        head = into_base + connector_path(g, into_base[-1], first_edge).edges[1:]
    else:
        head = (first_edge,)
    back = -int(pattern_letters[-1])
    ends = np.arange(g.num_vertices)
    pieces = []
    for i in range(g.num_vertices):
        if i:
            head = connector_path(g, -om[int(ends[i]), back], first_edge).edges[1:]
        piece = label[np.array(head, dtype=np.intp)]
        for x in piece.tolist():
            ends = moves[x, ends]
        ends = tail_map[ends]
        pieces += (piece, tail)
    return np.concatenate(pieces), [len(piece) + len(tail) for piece in pieces[::2]]


def _delta_edges(g, sd, u):
    """The edges of delta_path's loop for a dual word given as an array of
    signed letters: one Python tree_path per distinct pair (previous dual
    letter, dual letter), the segments chained by one gather."""
    hops = {0: (g.base, g.base, ())}
    for i, e in enumerate(sd.complement, 1):
        o, t, _ = g.edges[e - 1]
        hops[i], hops[-i] = (o, t, (e,)), (t, o, (-e,))
    r = sd.dual_rank
    side = 2 * r + 1
    shifted = np.concatenate(([0], u, [0]), dtype=np.intp) + r
    pairs, at = np.unique(shifted[:-1] * side + shifted[1:], return_inverse=True)
    segments = [
        tree_path(g, sd, hops[x][1], hops[y][0]) + hops[y][2]
        for x, y in ((p // side - r, p % side - r) for p in pairs.tolist())
    ]
    sizes = np.fromiter(map(len, segments), np.intp, len(segments))
    flat = np.fromiter(itertools.chain.from_iterable(segments), np.intp, int(sizes.sum()))
    lengths = sizes[at]
    # position p of the loop in pair i's segment is flat[p + shift[i]]
    shift = (np.cumsum(sizes) - sizes)[at] - (np.cumsum(lengths) - lengths)
    e = flat[np.repeat(shift, lengths) + np.arange(int(lengths.sum()))]
    if np.any(e[1:] + e[:-1] == 0):
        raise InvalidInputError("delta_path built a path that is not reduced")
    return e


def _shuffled(g, seed):
    """g with its vertices renamed and its edges listed in a random order;
    the base lands anywhere."""
    rng = random.Random(seed)
    name = list(range(g.num_vertices))
    rng.shuffle(name)
    edges = [(name[o], name[t], x) for o, t, x in g.edges]
    rng.shuffle(edges)
    return AGraph(g.rank, g.num_vertices, name[g.base], tuple(edges))


@pytest.mark.parametrize("kind", [KIND_ALPHA, KIND_BETA])
def test_builder_matches_the_per_cover_block_path(kind):
    # every cover of a degree at once from the census's tables, and each
    # shuffled cover alone from its own (g, sd), against the per-cover path
    dual_word = _alpha_word if kind == KIND_ALPHA else universal_three_word
    covers = moved = 0
    for rank, top in ((2, 4), (3, 3), (4, 2)):
        for d in range(1, top + 1):
            blocks, pieces = blockers._census_blocks(rank, d, kind)
            graphs_ = census_graphs(rank, d)
            assert len(blocks) == len(pieces) == len(graphs_)
            for i, (g, block, lengths) in enumerate(zip(graphs_, blocks, pieces)):
                h = _shuffled(g, covers)
                for g, (block, lengths) in ((g, (block, lengths)), (h, _builder_block(h, kind))):
                    sd = spanning_data(g)
                    u = np.array(dual_word(sd.dual_rank).letters)
                    letters, oracle = _covering_letters(g, sd, _delta_edges(g, sd, u))
                    assert block.dtype == blockers._letter_dtype(rank)
                    assert np.array_equal(block, letters), (rank, d, i, g)
                    assert lengths.tolist() == oracle
                covers += 1
                moved += h.base != 0
    assert covers == 88 + 105 + 16 and moved > covers // 2


def test_blocker_lays_its_pattern_loop_out_once(monkeypatch):
    # blocking_word and forcing_word build g's tables and its pattern loop's
    # segments once, and take both the word and the verified pattern loop
    # from them; the calls are counted through graphs' bindings as well
    calls = []
    for name in ("_graph_tables", "_pattern_segments"):
        def counted(*args, _fn=getattr(graphs, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        for module in (graphs, blockers):
            monkeypatch.setattr(module, name, counted)
    g = census_graphs(2, 3)[-1]
    for h in (g, _rotated(g)):
        for build in (blocking_word, forcing_word):
            calls.clear()
            assert build(h).verified
            assert sorted(calls) == ["_graph_tables", "_pattern_segments"], (h, build)
    assert h.base != 0


def test_forcing_letters_match_the_per_letter_oracle():
    # the block witness_word appends is the oracle's word, already in the
    # letter type of witness_word's z
    covers = 0
    for g in _oracle_covers():
        sd = spanning_data(g)
        block, _ = _builder_block(g, KIND_BETA)
        assert block.dtype == blockers._letter_dtype(g.rank) == np.int8
        assert tuple(block.tolist()) == _covering_word_oracle(g, sd, beta_path(g, sd))[0]
        covers += 1
    assert covers == 88 + 105 + 87 + 7


def test_cached_universal_word_arrays_are_read_only():
    for kind, word in ((KIND_ALPHA, _alpha_word), (KIND_BETA, universal_three_word)):
        for r in (2, 3, 4):
            u = blockers._pattern_word(kind, r)
            assert u is blockers._pattern_word(kind, r)
            assert u.dtype == np.intp and tuple(u.tolist()) == word(r).letters
            with pytest.raises(ValueError):
                u[0] = -u[0]
            with pytest.raises(ValueError):
                u.flags.writeable = True


def test_forcing_letters_are_a_new_array_per_call():
    # no block the builder returns is a view of a cached table: writing to
    # it changes nothing later calls see
    for rank, d in ((2, 1), (2, 2), (3, 1), (2, 3)):
        blocks, pieces = blockers._census_blocks(rank, d, KIND_BETA)
        kept = [b.copy() for b in blocks]
        nxt, dual = graphs._census_table(rank, d)
        cached = (nxt, dual, blockers._pattern_word(KIND_BETA, d * (rank - 1) + 1))
        for b in blocks:
            assert b.flags.writeable and not any(np.shares_memory(b, t) for t in cached)
            b[:] = 0
        again, _ = blockers._census_blocks(rank, d, KIND_BETA)
        assert all(np.array_equal(a, k) for a, k in zip(again, kept))
    for g in census_graphs(2, 1) + census_graphs(2, 2) + census_graphs(3, 1):
        block, _ = _builder_block(g, KIND_BETA)
        kept = block.copy()
        block[:] = 0
        assert np.array_equal(_builder_block(g, KIND_BETA)[0], kept)
