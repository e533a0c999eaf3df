"""Per-cover blocking and forcing words, and witness words whose
non-filling index provably exceeds a chosen degree.

The blocking word for a cover traces through the square-chain pattern loop
from every vertex (so containing loops cannot be simple); the forcing word
traces through the universal length-3 pattern loop (so containing loops are
certified filling by the level-3 subword test).
"""
from __future__ import annotations

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
    _census_ends,
    alpha_path,
    beta_path,
    connector_path,
    cover_census,
    cover_graph,
    is_cover,
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


def _pattern_covering_word(
    g: AGraph, sd: SpanningData, pattern: EdgePath
) -> tuple[Word, tuple[int, ...]]:
    """Word whose trace from every vertex (ascending id) runs through the
    pattern loop: per vertex, steer into the pattern with a reduced
    connector and append the pattern's label."""
    first_edge = pattern.edges[0]
    label: dict[int, int] = {}  # signed edge -> signed letter
    for j, (_, _, gen) in enumerate(g.edges, 1):
        label[j], label[-j] = gen, -gen
    pattern_letters = tuple(map(label.__getitem__, pattern.edges))
    pieces: list[tuple[int, ...]] = []
    sofar: list[int] = []
    for i in range(g.num_vertices):
        if i == 0:
            into_base = tree_path(g, sd, 0, g.base)
            if into_base:
                q = connector_path(g, into_base[-1], first_edge)
                edges = into_base + q.edges[1:] + pattern.edges[1:]
            else:
                edges = pattern.edges
            piece = tuple(map(label.__getitem__, edges))
        else:
            traced = trace_path(g, i, tuple(sofar))
            q = connector_path(g, traced.edges[-1], first_edge)
            piece = tuple(map(label.__getitem__, q.edges[1:])) + pattern_letters[1:]
        pieces.append(piece)
        sofar.extend(piece)
    word = Word(tuple(sofar), g.rank)
    return word, tuple(len(p) for p in pieces)


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
    word, piece_lengths = _pattern_covering_word(g, sd, pattern)
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
    pass; the witness audit certifies the concatenation instead."""
    sd = spanning_data(g)
    return _pattern_covering_word(g, sd, beta_path(g, sd))[0].letters


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
    blocks = [_forcing_letters(cover_graph(rank, perms)) for perms in census]
    letters: list[int] = list(blocks[0])
    for block in blocks[1:]:
        letters.extend(_separator(letters[-1], block[0], rank))
        letters.extend(block)
    letters.extend(_separator(letters[-1], letters[0], rank))
    z = CyclicWord(tuple(letters), rank)

    entries = []
    degrees = range(1, d + 1)
    for deg, ends in zip(degrees, _census_ends(rank, degrees, z.letters)):
        closing = np.flatnonzero(ends == 0).tolist()
        dual_rank = deg * (rank - 1) + 1  # Schreier's index formula
        certs = {
            i: CERT_RAUZY if rauzy3_array(u, dual_rank) else CERT_UNDETERMINED
            for i, u in zip(closing, _census_duals(rank, deg, closing, z.letters))
        }
        entries.extend(AuditEntry(deg, i, i in certs, certs.get(i)) for i in range(len(ends)))
    audit = WitnessAudit(d, rank, len(census), tuple(entries))
    return z, audit
