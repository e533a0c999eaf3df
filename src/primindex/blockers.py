"""Per-cover blocking and forcing words, and witness words whose
non-filling index provably exceeds a chosen degree.

The blocking word for a cover traces through the square-chain pattern loop
from every vertex (so containing loops cannot be simple); the forcing word
traces through the universal length-3 pattern loop (so containing loops are
certified filling by the level-3 subword test).
"""
from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, ResourceGuardError, UnsupportedInputError
from .index import CERT_RAUZY, CERT_UNDETERMINED
from .graphs import (
    _CELLS,
    AGraph,
    _census_duals,
    _census_edge_ids,
    _census_table,
    _graph_tables,
    _lay_out,
    _letter_dtype,
    _pattern_segments,
    _separator,
    _tree_paths,
    cover_census,
    is_cover,
    path_contains,
    spanning_data,
    subgroup_count,
    trace_path,
    universal_three_word,
)
from .whitehead import rauzy3_array, rauzy3_linear
# Unused here; perfbench/tracer.py patches these names on this module.
from .graphs import rewrite_loop_cyclic  # noqa: F401
from .whitehead import rauzy3_full  # noqa: F401
from .words import CyclicWord, Word, _trusted

KIND_ALPHA = "alpha-blocking"
KIND_BETA = "beta-forcing"


@dataclass(frozen=True)
class BlockerReport:
    """per_vertex_containment[x]: does the word's trace from vertex x run
    through the pattern loop?"""

    cover: AGraph
    word: Word
    kind: str
    length_bound: int
    per_vertex_containment: tuple[bool, ...]
    piece_lengths: tuple[int, ...]

    @property
    def verified(self) -> bool:
        return len(self.word) <= self.length_bound and all(self.per_vertex_containment)

    def to_json(self) -> dict:
        from .graphs import graph_to_json

        return {
            "kind": self.kind,
            "degree": self.cover.num_vertices,
            "rank": self.cover.rank,
            "word": self.word.text(),
            "length": len(self.word),
            "length_bound": self.length_bound,
            "piece_lengths": list(self.piece_lengths),
            "verified": self.verified,
            "cover": graph_to_json(self.cover),
        }


def _connectors(
    nxt: np.ndarray, slots: np.ndarray, e1: np.ndarray, e2: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """The connector from e1 to e2 for pairs of edges, at most one pair per
    cover of a batch, an edge given as its node (x + rank) * states +
    origin state: the shortest reduced path that starts with e1 and ends
    with e2, found by a breadth-first search over edges from e1 whose queue
    takes the edges out of a vertex in adjacency's order.  Returns the
    connectors' letters after e1, (pairs, longest) padded with 0, and their
    counts.

    The searches run together, one level at a time.  A level's edges are
    kept in the order that queue takes them, and each new edge keeps its
    first finder in (that order, slot) order, slots[k, v] being the letter
    row of the k-th edge out of v in adjacency's order; so each search
    finds what the queue finds, with the same predecessors."""
    rank, states = len(nxt) // 2, nxt.shape[1]
    step = nxt.ravel()
    seen = np.zeros(nxt.size, dtype=bool)
    prev = np.zeros(nxt.size, dtype=np.intp)
    pair = np.zeros(states // degree, dtype=np.intp)
    pair[e2 % states // degree] = np.arange(len(e2))
    seen[e1] = True
    open_ = e1 != e2
    front = e1[open_]
    while len(front):
        t = step[front]
        rows = slots[:, t].T  # (front, slot)
        nodes = rows * states + t[:, None]
        ok = (rows != 2 * rank - front[:, None] // states) & ~seen[nodes]
        nodes, found_by = nodes[ok], np.broadcast_to(front[:, None], ok.shape)[ok]
        # where each distinct node is found first, in finding order: the
        # keys node * n + place are distinct, so the unstable default argsort
        # sorts them as a stable sort of the nodes would (np.unique's
        # return_index and np.sort each page in a sort kernel that nothing
        # else on the census path uses, a few hundred kB of peak RSS)
        n = len(nodes)
        key = nodes * n + np.arange(n)
        key = key[np.argsort(key)]
        lead = np.ones(n, dtype=bool)
        lead[1:] = key[1:] // n != key[:-1] // n
        found = np.zeros(n, dtype=bool)
        found[key[lead] % n] = True
        first = np.flatnonzero(found)
        new = nodes[first]
        seen[new], prev[new] = True, found_by[first]
        at = pair[new % states // degree]
        open_[at[new == e2[at]]] = False
        front = new[open_[at]]
    if open_.any():
        raise InvalidInputError("no reduced connector exists")
    back, counts, cur = [], np.zeros(len(e1), dtype=np.intp), e2
    while np.any(going := cur != e1):  # walk the predecessors back from e2
        back.append(cur)
        counts += going
        cur = np.where(going, prev[cur], cur)
    if len(back) + 1 > 3 * degree:
        warnings.warn(f"connector of length {len(back) + 1} exceeds 3·#V = {3 * degree}")
    back = np.array(back, dtype=np.intp).reshape(-1, len(e1)).T
    col = np.arange(back.shape[1])
    nodes = np.take_along_axis(back, np.maximum(counts[:, None] - 1 - col, 0), axis=1)
    return np.where(col < counts[:, None], nodes // states - rank, 0), counts


def _chunk_blocks(
    nxt: np.ndarray, dual: np.ndarray, eid: np.ndarray, bases: np.ndarray,
    segments: np.ndarray, at: np.ndarray, lengths: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """_covering_blocks on a chunk of covers, given their loops' segments
    (_pattern_segments)."""
    rank, states = len(nxt) // 2, nxt.shape[1]
    covers = len(bases)
    degree = states // covers
    loops = _lay_out(segments, at, lengths)
    stops = np.cumsum(lengths)
    first = loops[stops - lengths].astype(np.intp) + rank  # letter rows
    last = loops[stops - 1].astype(np.intp) + rank
    # each segment's vertex map, then the loop's, composed pairwise over its
    # positions; the tail's trace from v is the loop's from the vertex whose
    # edge labeled with the first letter ends at v
    cover = np.arange(states) // degree
    maps = np.arange(states, dtype=np.int32).reshape(covers, 1, degree)
    maps = np.broadcast_to(maps, (*segments.shape[:2], degree))
    for j in range(segments.shape[2]):
        maps = nxt[segments[:, :, j, None].astype(np.intp) + rank, maps].astype(np.int32)
    maps = maps.transpose(1, 0, 2).reshape(segments.shape[1], states)[at]
    while len(maps) > 1:  # [k] = maps[2 k + 1][maps[2 k]], one flat take per level
        half = len(maps) // 2
        pairs = maps[: 2 * half].reshape(half, 2, states)
        odd = np.arange(states, 2 * states * half, 2 * states, dtype=np.int32)[:, None]
        paired = pairs.reshape(-1).take(pairs[:, 0] + odd)
        maps = np.concatenate((paired, maps[2 * half :])) if len(maps) % 2 else paired
    tail_map = maps[0][nxt[2 * rank - first[cover], np.arange(states)]]
    key = 2 * np.abs(eid) + (eid < 0)  # adjacency's order of the edges out of a vertex
    key[rank] = -1
    slots = np.argsort(key, axis=0)[1:]
    e2 = first * states + bases  # the pattern's first edge
    heads = []
    ends = np.arange(states)  # where the trace of the pieces so far ends, from each state
    for i in range(degree):
        if i:  # from the edge into vertex i's end labeled with the pattern's last letter
            e1 = last * states + nxt[2 * rank - last, ends[i::degree]]
            heads.append(_connectors(nxt, slots, e1, e2, degree))
        else:  # straight into the pattern, or into the base along the tree from vertex 0 first
            heads.append(_first_heads(nxt, dual, slots, bases, e2))
        head = heads[-1][0] + rank
        for j in range(head.shape[1]):
            ends = nxt[head[cover, j], ends]
        ends = tail_map[ends]
    pieces = np.array([h for _, h in heads]).T
    heads = [head.astype(loops.dtype) for head, _ in heads]
    blocks = []
    for c, (stop, counts) in enumerate(zip(stops.tolist(), pieces.tolist())):
        tail = loops[stop - lengths[c] + 1 : stop]
        blocks.append(np.concatenate([x for head, h in zip(heads, counts) for x in (head[c, :h], tail)]))
    return blocks, pieces + lengths[:, None] - 1


def _first_heads(
    nxt: np.ndarray, dual: np.ndarray, slots: np.ndarray, bases: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The first piece's letters before the pattern's tail, (covers,
    longest) padded with 0, and their counts: the pattern's first letter
    where the base is vertex 0; elsewhere the tree path from vertex 0 into
    the base, then the connector from its last edge into the pattern.  Only
    a graph given alone (_graph_tables) has its base elsewhere."""
    rank, states = len(nxt) // 2, nxt.shape[1]
    degree = states // len(bases)
    rows = (e2 // states - rank)[:, None]
    moved = np.flatnonzero(bases % degree)
    if not len(moved):
        return rows, np.ones(len(bases), dtype=np.intp)
    path, depth = _tree_paths(nxt, dual, bases)
    into = [-path[s, depth[s] - 1 :: -1] for s in moved * degree]  # up from vertex 0
    entry = np.array([up[-1] for up in into], dtype=np.intp) + rank
    e1 = entry * states + nxt[2 * rank - entry, bases[moved]]
    connect, more = _connectors(nxt, slots, e1, e2[moved], degree)
    rows = rows.tolist()
    for c, up, letters, m in zip(moved.tolist(), into, connect, more.tolist()):
        rows[c] = up.tolist() + letters[:m].tolist()
    counts = np.array(list(map(len, rows)))
    out = np.zeros((len(rows), counts.max()), dtype=np.intp)
    for row, letters in zip(out, rows):
        row[: len(letters)] = letters
    return out, counts


def _covering_blocks(
    nxt: np.ndarray, dual: np.ndarray, eid: np.ndarray, bases: np.ndarray,
    segments: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray]:
    """For every cover of a batch of one degree, given as _graph_tables or
    _census_table tables over the states, _census_edge_ids, each cover's
    base state and its pattern loop's _pattern_segments: the letters whose
    trace from every vertex (ascending id) runs through the pattern loop,
    as a new array of _letter_dtype, and the length of each vertex's piece,
    (covers, degree).  Per vertex, steer into the pattern with a reduced
    connector (_connectors) and append the pattern's label.

    Every piece ends with the pattern's tail (its letters after the first),
    so where the trace of the pieces so far stops, from each vertex,
    follows from the tail's vertex map and each new connector's; the
    trace's last edge is the one labeled with the pattern's last letter
    into that end.  The loops' segments are built once for the batch, by
    the caller; the rest goes a chunk of covers at a time, each of about
    _CELLS letters."""
    states = nxt.shape[1]
    degree = states // len(bases)
    segments, at, lengths = segments
    if int(dual.max()) < 2 and (degree > 1 or np.any(bases % degree)):
        raise UnsupportedInputError("connector needs fundamental group rank >= 2")
    size = degree * np.cumsum(lengths)
    chunk = (size - size[0]) // _CELLS
    bounds = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(bases)]
    blocks, pieces = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        part, shift = slice(lo * degree, hi * degree), lo * degree
        more, counts = _chunk_blocks(
            nxt[:, part] - shift, dual[:, part], eid[:, part], bases[lo:hi] - shift,
            segments[lo:hi], at, lengths[lo:hi],
        )
        blocks += more
        pieces.append(counts)
    return blocks, np.concatenate(pieces)


@lru_cache(maxsize=16)
def _pattern_word(kind: str, dual_rank: int) -> np.ndarray:
    """The dual word of a kind's pattern loop as a read-only intp array,
    cached by (kind, dual rank): the square chain b_r^2 b_1^2 ... b_r^2,
    whose loop keeps a containing circuit from being simple, or the
    universal length-3 word, whose loop makes it filling."""
    if kind == KIND_BETA:
        letters = universal_three_word(dual_rank).letters
    elif dual_rank < 1:
        raise UnsupportedInputError("graph has trivial fundamental group")
    else:
        letters = (dual_rank, dual_rank, *(i for i in range(1, dual_rank + 1) for _ in (0, 1)))
    u = np.array(letters, dtype=np.intp)
    u.flags.writeable = False
    return u.view()  # a view of a read-only base cannot be made writeable again


def _census_blocks(rank: int, degree: int, kind: str) -> tuple[list[np.ndarray], np.ndarray]:
    """_covering_blocks for every cover of cover_census(rank, degree), in
    census order, from its _census_table."""
    nxt, dual = _census_table(rank, degree)
    bases = np.arange(0, nxt.shape[1], degree)
    u = _pattern_word(kind, degree * (rank - 1) + 1)  # Schreier's index formula
    segments = _pattern_segments(nxt, dual, bases, u)
    return _covering_blocks(nxt, dual, _census_edge_ids(nxt, degree), bases, segments)


def _blocker(g: AGraph, caller: str, kind: str) -> BlockerReport:
    """The report for g from its own tables: one segment build gives both
    the word and the pattern loop, traced from the base, that each
    vertex's trace of the word must contain."""
    if not is_cover(g):
        raise InvalidInputError(f"{caller} expects a connected cover")
    sd = spanning_data(g)
    nxt, dual, eid = _graph_tables(g, sd)
    bases = np.array([g.base])
    segments = _pattern_segments(nxt, dual, bases, _pattern_word(kind, sd.dual_rank))
    (letters,), (pieces,) = _covering_blocks(nxt, dual, eid, bases, segments)
    pattern = trace_path(g, g.base, _lay_out(*segments).tolist())
    if kind == KIND_ALPHA:
        bound = (2 * g.rank + 5) * g.num_vertices**3
    else:
        bound = 1000 * g.rank**3 * g.num_vertices**5
    word = Word(tuple(letters.tolist()), g.rank)
    containment = tuple(
        path_contains(trace_path(g, x, word), pattern) for x in range(g.num_vertices)
    )
    return BlockerReport(g, word, kind, bound, containment, tuple(pieces.tolist()))


def blocking_word(g: AGraph) -> BlockerReport:
    """Simplicity-blocking word: every vertex's trace contains the
    square-chain pattern loop; |word| <= (2N+5) d^3."""
    return _blocker(g, "blocking_word", KIND_ALPHA)


def forcing_word(g: AGraph) -> BlockerReport:
    """Filling-forcing word: every vertex's trace contains the universal
    length-3 pattern loop; |word| <= 1000 N^3 d^5."""
    return _blocker(g, "forcing_word", KIND_BETA)


@dataclass(frozen=True)
class AuditEntry:
    degree: int
    cover_index: int
    contains: bool
    certificate: str | None


@dataclass(frozen=True)
class WitnessAudit:
    degree: int
    rank: int
    census_size: int
    entries: tuple[AuditEntry, ...]

    @property
    def complete(self) -> bool:
        """Every census cover either misses the word or certifies filling."""
        return all(
            e.certificate == CERT_RAUZY for e in self.entries if e.contains
        )

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "rank": self.rank,
            "census_size": self.census_size,
            "complete": self.complete,
            "entries": [
                {
                    "degree": e.degree,
                    "cover_index": e.cover_index,
                    "contains": e.contains,
                    "certificate": e.certificate,
                }
                for e in self.entries
            ],
        }


_CHECKED_AT_ONCE = 1 << 20  # letters of z checked at a time, so that no check copies all of z


def _check_cyclic(z: np.ndarray, rank: int) -> None:
    """CyclicWord's checks, made once on a signed-letter array: every
    letter nonzero and within -rank..rank, no letter cancelling the next,
    and the last not cancelling the first."""
    for lo in range(0, len(z), _CHECKED_AT_ONCE):
        part = z[lo : lo + _CHECKED_AT_ONCE + 1]  # and the next part's first letter
        if part.min() < -rank or part.max() > rank or not part.all():
            raise InvalidInputError(f"letters must be nonzero and within -{rank}..{rank}")
        if np.any(part[1:] == -part[:-1]):
            raise InvalidInputError("cyclic word is not freely reduced")
    if len(z) >= 2 and z[0] == -z[-1]:
        raise InvalidInputError("cyclic word is not cyclically reduced")


def _closing_certificates(
    rank: int, degrees: range, z: np.ndarray, spans: list, dual_ranks: np.ndarray
) -> dict[int, str]:
    """The certificate of each cover that closes z, by its number over the
    degrees in turn: rauzy3_linear on the dual letters along the cover's
    own block where they lie in the cyclically reduced dual word, else
    rauzy3_array on the whole of that word, read as the full span of z."""
    ends, read = _census_duals(rank, degrees, z)
    closing = np.flatnonzero(np.concatenate(ends) == 0).tolist()
    certs = {}
    for c, seg in zip(closing, read(closing, [spans[c] for c in closing])):
        if seg is not None and rauzy3_linear(seg, int(dual_ranks[c])):
            certs[c] = CERT_RAUZY
    rest = [c for c in closing if c not in certs]
    for c, u in zip(rest, read(rest, [(0, len(z))] * len(rest))):
        certs[c] = CERT_RAUZY if rauzy3_array(u, int(dual_ranks[c])) else CERT_UNDETERMINED
    return certs


def witness_word(
    d: int, rank: int, max_covers: int | None = None
) -> tuple[CyclicWord, WitnessAudit]:
    """Concatenate the forcing words of every based cover of degree <= d
    into one cyclically reduced word, and audit that each census cover
    containing its loop carries a filling certificate; a complete audit
    shows the word's non-filling index exceeds d.

    The word is built as a signed-letter array, one block at a time.  A
    cover that closes it is certified by the dual letters read along its
    own block, when they lie in the cyclically reduced dual word and hold
    every reduced triple: the block traces the universal 3-word's pattern
    loop from the cover's state at the block's start.  Otherwise its whole
    dual word is read and rauzy3 decides; the entries are the same either
    way (_closing_certificates)."""
    if d < 1:
        raise InvalidInputError("degree must be >= 1")
    if max_covers is not None and (
        sum(subgroup_count(rank, deg) for deg in range(1, d + 1)) > max_covers
    ):
        raise ResourceGuardError(
            f"census of degree <= {d} exceeds cover cap {max_covers}"
        )
    degrees = range(1, d + 1)
    sizes = [len(cover_census(rank, deg)) for deg in degrees]
    dtype = _letter_dtype(rank)
    parts: list[np.ndarray] = []
    spans = []  # where each cover's block lies in z, [start, stop)
    size, last = 0, None
    for deg in degrees:
        for block in _census_blocks(rank, deg, KIND_BETA)[0]:
            if parts:
                parts.append(np.array(_separator(last, int(block[0]), rank), dtype=dtype))
                size += len(parts[-1])
            parts.append(block)
            spans.append((size, size + len(block)))
            size, last = size + len(block), int(block[-1])
    parts.append(np.array(_separator(last, int(parts[0][0]), rank), dtype=dtype))
    z = np.concatenate(parts)
    del parts  # the audit reads z alone
    _check_cyclic(z, rank)

    dual_ranks = np.repeat([deg * (rank - 1) + 1 for deg in degrees], sizes)  # Schreier's index formula
    certs = _closing_certificates(rank, degrees, z, spans, dual_ranks)
    numbered = ((deg, i) for deg, count in zip(degrees, sizes) for i in range(count))
    entries = tuple(
        AuditEntry(deg, i, c in certs, certs.get(c)) for c, (deg, i) in enumerate(numbered)
    )
    # unpacked straight into a tuple of its exact size, with no list of the letters
    letters = struct.unpack(f"{len(z)}{z.dtype.char}", z)
    return _trusted(CyclicWord, letters, rank), WitnessAudit(d, rank, sum(sizes), entries)
