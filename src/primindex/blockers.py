"""Per-cover blocking and forcing words, and witness words whose
non-filling index provably exceeds a chosen degree.

The blocking word for a cover traces through the square-chain pattern loop
from every vertex (so containing loops cannot be simple); the forcing word
traces through the universal length-3 pattern loop (so containing loops are
certified filling by the level-3 subword test).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, ResourceGuardError
from .index import CERT_RAUZY, CERT_UNDETERMINED
from .graphs import (
    AGraph,
    EdgePath,
    SpanningData,
    _census_duals,
    alpha_path,
    beta_path,
    connector_path,
    cover_census,
    cover_graph,
    is_cover,
    out_map,
    path_contains,
    spanning_data,
    subgroup_count,
    trace_path,
    tree_path,
)
from .whitehead import rauzy3_array
# Unused here; perfbench/tracer.py patches these names on this module.
from .graphs import rewrite_loop_cyclic  # noqa: F401
from .whitehead import rauzy3_full  # noqa: F401
from .words import CyclicWord, Word, alphabet

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


def _vertex_map(moves: np.ndarray, letters: tuple[int, ...]) -> np.ndarray:
    """Where the trace of the letters ends, from each vertex; moves[x][v]
    is the terminus of the x-edge out of v.  The per-letter maps are
    composed pairwise, level by level."""
    d = moves.shape[1]
    maps = moves[np.fromiter(letters, np.intp, len(letters))]
    while len(maps) > 1:
        half = len(maps) // 2
        rows = np.arange(0, half * d, d)[:, None]  # row offsets into the flat odd maps
        paired = maps[1 : 2 * half : 2].ravel()[maps[0 : 2 * half : 2] + rows]
        maps = np.concatenate((paired, maps[2 * half :]))
    return maps[0] if len(maps) else np.arange(d)


def _pattern_covering_word(
    g: AGraph, sd: SpanningData, pattern: EdgePath
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Letters whose trace from every vertex (ascending id) runs through the
    pattern loop, and the length of each vertex's piece: per vertex, steer
    into the pattern with a reduced connector and append the pattern's label.

    Every piece ends with the pattern's tail (its letters after the first),
    so ends[v], where the trace of the pieces so far from v stops, follows
    from the tail's vertex map and each new connector's; the trace's last
    edge is the one labeled with the pattern's last letter into that end."""
    first_edge = pattern.edges[0]
    label: dict[int, int] = {}  # signed edge -> signed letter
    # row x for letter x; the inverse letters' rows wrap around from the end
    moves = np.empty((2 * g.rank + 1, g.num_vertices), dtype=np.intp)
    for j, (o, t, gen) in enumerate(g.edges, 1):
        label[j], label[-j] = gen, -gen
        moves[gen, o], moves[-gen, t] = t, o
    pattern_letters = tuple(map(label.__getitem__, pattern.edges))
    tail = pattern_letters[1:]
    tail_map = _vertex_map(moves, tail)
    om = out_map(g)
    into_base = tree_path(g, sd, 0, g.base)
    if into_base:
        head = into_base + connector_path(g, into_base[-1], first_edge).edges[1:]
    else:
        head = pattern.edges[:1]
    ends = np.arange(g.num_vertices)
    pieces: list[tuple[int, ...]] = []
    for i in range(g.num_vertices):
        if i:
            last_edge = -om[int(ends[i]), -pattern_letters[-1]]
            head = connector_path(g, last_edge, first_edge).edges[1:]
        piece = tuple(map(label.__getitem__, head))
        for x in piece:
            ends = moves[x, ends]
        ends = tail_map[ends]
        pieces.append(piece + tail)
    letters = tuple(itertools.chain.from_iterable(pieces))
    return letters, tuple(map(len, pieces))


def _blocker(
    g: AGraph,
    caller: str,
    pattern_fn: Callable[[AGraph, SpanningData], EdgePath],
    kind: str,
    bound: int,
) -> BlockerReport:
    if not is_cover(g):
        raise InvalidInputError(f"{caller} expects a connected cover")
    sd = spanning_data(g)
    pattern = pattern_fn(g, sd)
    letters, piece_lengths = _pattern_covering_word(g, sd, pattern)
    word = Word(letters, g.rank)
    containment = tuple(
        path_contains(trace_path(g, x, word), pattern) for x in range(g.num_vertices)
    )
    return BlockerReport(g, word, kind, bound, containment, piece_lengths)


def blocking_word(g: AGraph) -> BlockerReport:
    """Simplicity-blocking word: every vertex's trace contains the
    square-chain pattern loop; |word| <= (2N+5) d^3."""
    bound = (2 * g.rank + 5) * g.num_vertices**3
    return _blocker(g, "blocking_word", alpha_path, KIND_ALPHA, bound)


def forcing_word(g: AGraph) -> BlockerReport:
    """Filling-forcing word: every vertex's trace contains the universal
    length-3 pattern loop; |word| <= 1000 N^3 d^5."""
    bound = 1000 * g.rank**3 * g.num_vertices**5
    return _blocker(g, "forcing_word", beta_path, KIND_BETA, bound)


def _forcing_letters(g: AGraph) -> tuple[int, ...]:
    """forcing_word(g).word.letters without the per-vertex containment
    pass and without a Word: the witness audit certifies the concatenation
    instead, and its CyclicWord checks the letters of every block."""
    sd = spanning_data(g)
    return _pattern_covering_word(g, sd, beta_path(g, sd))[0]


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


def _separator(last: int, first: int, rank: int) -> tuple[int, ...]:
    """Smallest letter joining two blocks reducibly; empty when possible."""
    if last != -first:
        return ()
    for y in alphabet(rank):
        if y != -last and y != -first:
            return (y,)
    raise InvalidInputError("no separator letter exists")


def witness_word(
    d: int, rank: int, max_covers: int | None = None
) -> tuple[CyclicWord, WitnessAudit]:
    """Concatenate the forcing words of every based cover of degree <= d
    into one cyclically reduced word, and audit that each census cover
    containing its loop carries a filling certificate; a complete audit
    shows the word's non-filling index exceeds d."""
    if d < 1:
        raise InvalidInputError("degree must be >= 1")
    if max_covers is not None and (
        sum(subgroup_count(rank, deg) for deg in range(1, d + 1)) > max_covers
    ):
        raise ResourceGuardError(
            f"census of degree <= {d} exceeds cover cap {max_covers}"
        )
    census = [perms for deg in range(1, d + 1) for perms in cover_census(rank, deg)]
    letters: list[int] = []
    for perms in census:
        block = _forcing_letters(cover_graph(rank, perms))
        letters.extend(_separator(letters[-1], block[0], rank) if letters else ())
        letters.extend(block)
    letters.extend(_separator(letters[-1], letters[0], rank))
    z = CyclicWord(tuple(letters), rank)
    del letters  # the audit reads z alone, and the list is as large as its tuple

    entries = []
    degrees = range(1, d + 1)
    all_ends, duals = _census_duals(rank, degrees, z.letters)
    for deg, ends in zip(degrees, all_ends):
        closing = np.flatnonzero(ends == 0).tolist()
        dual_rank = deg * (rank - 1) + 1  # Schreier's index formula
        # zip draws on closing first, so each degree takes only its own words
        certs = {
            i: CERT_RAUZY if rauzy3_array(u, dual_rank) else CERT_UNDETERMINED
            for i, u in zip(closing, duals)
        }
        entries.extend(AuditEntry(deg, i, i in certs, certs.get(i)) for i in range(len(ends)))
    audit = WitnessAudit(d, rank, len(census), tuple(entries))
    return z, audit
