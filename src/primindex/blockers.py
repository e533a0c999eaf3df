"""Per-cover blocking and forcing words, and witness words whose
non-filling index provably exceeds a chosen degree.

The blocking word for a cover traces through the square-chain pattern loop
from every vertex (so containing loops cannot be simple); the forcing word
traces through the universal length-3 pattern loop (so containing loops are
certified filling by the level-3 subword test).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, ResourceGuardError
from .index import CERT_RAUZY, CERT_UNDETERMINED
from .graphs import (
    AGraph,
    EdgePath,
    SpanningData,
    _beta_edges,
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
from .whitehead import rauzy3_array, rauzy3_linear
# Unused here; perfbench/tracer.py patches these names on this module.
from .graphs import rewrite_loop_cyclic  # noqa: F401
from .whitehead import rauzy3_full  # noqa: F401
from .words import CyclicWord, Word, _trusted, alphabet

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


def _letter_dtype(rank: int) -> np.dtype:
    """The smallest integer type that holds every letter and its inverse."""
    return np.min_scalar_type(-rank - 1)


def _vertex_map(moves: np.ndarray, letters: np.ndarray) -> np.ndarray:
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


def _covering_letters(
    g: AGraph, sd: SpanningData, pattern: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Letters whose trace from every vertex (ascending id) runs through the
    pattern loop, given as an array of signed edges, and the length of each
    vertex's piece: per vertex, steer into the pattern with a reduced
    connector and append the pattern's label.  The letters come as an
    array of _letter_dtype, read from a table of the signed edges' labels.

    Every piece ends with the pattern's tail (its letters after the first),
    so ends[v], where the trace of the pieces so far from v stops, follows
    from the tail's vertex map and each new connector's; the trace's last
    edge is the one labeled with the pattern's last letter into that end."""
    first_edge = int(pattern[0])
    o, t, gen = np.array(g.edges, dtype=np.intp).T
    # label[j] is the letter of signed edge j, and moves has row x for letter
    # x; the inverse edges' entries and letters' rows wrap around from the end
    label = np.concatenate(([0], gen, -gen[::-1]), dtype=_letter_dtype(g.rank))
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
    pieces: list[np.ndarray] = []
    for i in range(g.num_vertices):
        if i:
            head = connector_path(g, -om[int(ends[i]), back], first_edge).edges[1:]
        piece = label[np.array(head, dtype=np.intp)]
        for x in piece.tolist():
            ends = moves[x, ends]
        ends = tail_map[ends]
        pieces += (piece, tail)
    return np.concatenate(pieces), [len(piece) + len(tail) for piece in pieces[::2]]


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
    letters, piece_lengths = _covering_letters(g, sd, np.array(pattern.edges, dtype=np.intp))
    word = Word(tuple(letters.tolist()), g.rank)
    containment = tuple(
        path_contains(trace_path(g, x, word), pattern) for x in range(g.num_vertices)
    )
    return BlockerReport(g, word, kind, bound, containment, tuple(piece_lengths))


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


def _forcing_letters(g: AGraph) -> np.ndarray:
    """forcing_word(g).word.letters as an array of _letter_dtype, without
    the per-vertex containment pass and without a Word: the witness audit
    certifies the concatenation instead, and witness_word checks the
    letters of every block."""
    sd = spanning_data(g)
    return _covering_letters(g, sd, _beta_edges(g, sd))[0]


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
    rank: int, degrees: range, z: np.ndarray, spans: list, dual_ranks: list[int]
) -> dict[int, str]:
    """The certificate of each cover that closes z, by its number over the
    degrees in turn: rauzy3_linear on the dual letters along the cover's
    own block where they lie in the cyclically reduced dual word, else
    rauzy3_array on the whole of that word."""
    ends, read = _census_duals(rank, degrees, z)
    closing = np.flatnonzero(np.concatenate(ends) == 0).tolist()
    certs = {}
    for c, seg in zip(closing, read(closing, [spans[c] for c in closing])):
        if seg is not None and rauzy3_linear(seg, dual_ranks[c]):
            certs[c] = CERT_RAUZY
    rest = [c for c in closing if c not in certs]
    for c, u in zip(rest, read(rest)):
        certs[c] = CERT_RAUZY if rauzy3_array(u, dual_ranks[c]) else CERT_UNDETERMINED
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
    census = [(deg, i, perms) for deg in degrees for i, perms in enumerate(cover_census(rank, deg))]
    dtype = _letter_dtype(rank)
    parts: list[np.ndarray] = []
    spans = []  # where each cover's block lies in z, [start, stop)
    size, last = 0, None
    for _, _, perms in census:
        block = _forcing_letters(cover_graph(rank, perms))
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

    dual_ranks = [deg * (rank - 1) + 1 for deg, _, _ in census]  # Schreier's index formula
    certs = _closing_certificates(rank, degrees, z, spans, dual_ranks)
    entries = tuple(
        AuditEntry(deg, i, c in certs, certs.get(c)) for c, (deg, i, _) in enumerate(census)
    )
    # unpacked straight into a tuple of its exact size, with no list of the letters
    letters = struct.unpack(f"{len(z)}{z.dtype.char}", z)
    return _trusted(CyclicWord, letters, rank), WitnessAudit(d, rank, len(census), entries)
