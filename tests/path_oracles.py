"""Per-graph path constructions kept as oracles for the block builder,
which lays out the same paths for every cover of a degree at once: the
reduced tree path between two vertices, and connector_path, the shortest
reduced path from one directed edge to another by a breadth-first search
over edges in adjacency's order.  Also the pattern loops on one graph alone
(delta_path, alpha_path, beta_path), laid out by the library's segment
builder as blocking_word and forcing_word lay them out.  And the set of
cyclic 3-factors of a word and its inverse, the oracle for the rauzy3
filling tests."""
import warnings
from collections import deque

import numpy as np

from primindex.blockers import KIND_ALPHA, KIND_BETA, _pattern_word
from primindex.errors import InvalidInputError, UnsupportedInputError
from primindex.graphs import (
    AGraph,
    EdgePath,
    SpanningData,
    _graph_tables,
    _lay_out,
    _pattern_segments,
    adjacency,
    trace_path,
)
from primindex.words import CyclicWord, Word, count_reduced


def tree_path(g: AGraph, sd: SpanningData, u: int, v: int) -> tuple[int, ...]:
    """Directed edges of the unique reduced tree path u -> v."""
    up: list[int] = []
    down: list[int] = []
    a, b = u, v
    while sd.depth[a] > sd.depth[b]:
        e = sd.parent_edge[a]
        up.append(-e)  # type: ignore[operator]
        a = g.origin(e)  # type: ignore[arg-type]
    while sd.depth[b] > sd.depth[a]:
        e = sd.parent_edge[b]
        down.append(e)  # type: ignore[arg-type]
        b = g.origin(e)  # type: ignore[arg-type]
    while a != b:
        e1, e2 = sd.parent_edge[a], sd.parent_edge[b]
        up.append(-e1)  # type: ignore[operator]
        down.append(e2)  # type: ignore[arg-type]
        a, b = g.origin(e1), g.origin(e2)  # type: ignore[arg-type]
    return tuple(up) + tuple(reversed(down))


def cycle_rank(g: AGraph) -> int:
    return len(g.edges) - g.num_vertices + 1


def connector_path(g: AGraph, e1: int, e2: int) -> EdgePath:
    """Shortest reduced path starting with directed edge e1 and ending with
    e2; on a core graph of rank >= 2 its length is at most 3·#V."""
    if cycle_rank(g) < 2:
        raise UnsupportedInputError("connector needs fundamental group rank >= 2")
    if e1 == e2:
        return EdgePath(g.origin(e1), (e1,))
    adj = adjacency(g)
    prev: dict[int, int] = {e1: 0}
    queue = deque([e1])
    while queue:
        e = queue.popleft()
        if e == e2:
            break
        for f in adj[g.terminus(e)]:
            if f != -e and f not in prev:
                prev[f] = e
                queue.append(f)
    if e2 not in prev:
        raise InvalidInputError("no reduced connector exists")
    edges = [e2]
    while edges[-1] != e1:
        edges.append(prev[edges[-1]])
    edges.reverse()
    if len(edges) > 3 * g.num_vertices:
        warnings.warn(
            f"connector of length {len(edges)} exceeds 3·#V = {3 * g.num_vertices}"
        )
    return EdgePath(g.origin(e1), tuple(edges))


def loop_path(g: AGraph, sd: SpanningData, u: np.ndarray) -> EdgePath:
    """The reduced base loop realizing a nonempty dual word given as an
    array of signed letters, laid out on g alone and traced from the base."""
    nxt, dual, _ = _graph_tables(g, sd)
    loop = _lay_out(*_pattern_segments(nxt, dual, np.array([g.base]), u))
    return trace_path(g, g.base, loop.tolist())


def delta_path(g: AGraph, sd: SpanningData, u: Word) -> EdgePath:
    """loop_path for a dual word given as a Word of the complement's rank."""
    return loop_path(g, sd, np.array(u.letters))


def alpha_path(g: AGraph, sd: SpanningData) -> EdgePath:
    """The square chain's pattern loop, b_r^2 b_1^2 ... b_r^2."""
    return loop_path(g, sd, _pattern_word(KIND_ALPHA, sd.dual_rank))


def beta_path(g: AGraph, sd: SpanningData) -> EdgePath:
    """The universal length-3 word's pattern loop."""
    return loop_path(g, sd, _pattern_word(KIND_BETA, sd.dual_rank))


def cyclic_triples(cw: CyclicWord) -> set[tuple[int, ...]]:
    """The length-3 cyclic factors of cw and cw^-1 (none when |cw| < 3)."""
    ls = cw.letters
    if len(ls) < 3:
        return set()
    d = ls + ls[:2]
    out = set(zip(d, d[1:], d[2:]))
    return out | {(-z, -y, -x) for x, y, z in out}


def rauzy3_by_triples(cw: CyclicWord) -> bool:
    """Do the cyclic 3-factors of cw and cw^-1 exhaust all freely reduced
    length-3 words of its rank?"""
    return len(cyclic_triples(cw)) == count_reduced(3, cw.rank)
