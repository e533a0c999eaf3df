"""Labeled graphs over a rank-N basis: folding, covers, spanning
trees with dual bases, loop rewriting, circle graphs, principal quotients
grown by tracing a word, cover censuses, and the pattern loops of the
blocking and forcing words as segment arrays (blockers lays them out).

Vertices are 0..V-1 with a distinguished base vertex.  Each stored edge is a
positively labeled triple (origin, terminus, gen); a directed edge is the
signed 1-based index +j / -j for edge j-1 traversed forward / backward.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    NoSuchPathError,
    UnsupportedInputError,
)
from .words import (
    CyclicWord,
    Word,
    _reduced_tuples,
    alphabet,
    cyclic_reduce,
    free_reduce,
)


@dataclass(frozen=True, slots=True)
class AGraph:
    rank: int
    num_vertices: int
    base: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise InvalidInputError("graph needs at least one vertex")
        if not 0 <= self.base < self.num_vertices:
            raise InvalidInputError("base vertex out of range")
        for o, t, g in self.edges:
            if not (0 <= o < self.num_vertices and 0 <= t < self.num_vertices):
                raise InvalidInputError("edge endpoint out of range")
            if not 1 <= g <= self.rank:
                raise InvalidInputError(f"edge label {g} out of range")

    def origin(self, e: int) -> int:
        o, t, _ = self.edges[abs(e) - 1]
        return o if e > 0 else t

    def terminus(self, e: int) -> int:
        o, t, _ = self.edges[abs(e) - 1]
        return t if e > 0 else o

    def label(self, e: int) -> int:
        g = self.edges[abs(e) - 1][2]
        return g if e > 0 else -g


@dataclass(frozen=True, slots=True)
class EdgePath:
    """A sequence of consecutive directed edges starting at a vertex."""

    start: int
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SpanningData:
    """A maximal tree plus the ordered positive complement edges.

    Dual letter i (1-based) corresponds to complement[i-1]; parent_edge[v]
    is the directed tree edge into v from its parent (None at the root);
    order lists the vertices in the order the search found them.
    """

    tree_edges: frozenset[int]
    complement: tuple[int, ...]
    parent_edge: tuple[int | None, ...]
    depth: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def dual_rank(self) -> int:
        return len(self.complement)


# -- basic structure ---------------------------------------------------------

@lru_cache(maxsize=65536)
def out_map(g: AGraph) -> Mapping[tuple[int, int], int]:
    """(vertex, signed letter) -> directed edge, as a read-only view shared
    by every caller. Raises if g is not folded."""
    out: dict[tuple[int, int], int] = {}
    for j, (o, t, gen) in enumerate(g.edges):
        for v, letter, e in ((o, gen, j + 1), (t, -gen, -(j + 1))):
            key = (v, letter)
            if key in out:
                raise InvalidInputError(
                    f"graph not folded: two edges labeled {letter} at vertex {v}"
                )
            out[key] = e
    return MappingProxyType(out)


def is_folded(g: AGraph) -> bool:
    try:
        out_map(g)
        return True
    except InvalidInputError:
        return False


def adjacency(g: AGraph) -> dict[int, list[int]]:
    """vertex -> directed edges out of it, in edge-index order."""
    adj: dict[int, list[int]] = {v: [] for v in range(g.num_vertices)}
    for j, (o, t, _) in enumerate(g.edges):
        adj[o].append(j + 1)
        adj[t].append(-(j + 1))
    return adj


def is_connected(g: AGraph) -> bool:
    adj = adjacency(g)
    seen = {g.base}
    queue = deque([g.base])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            w = g.terminus(e)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.num_vertices


def is_cover(g: AGraph) -> bool:
    """True iff every vertex has exactly one in- and out-edge per generator."""
    if not is_folded(g):
        return False
    om = out_map(g)
    return all(
        (v, x) in om for v in range(g.num_vertices) for x in alphabet(g.rank)
    )


# -- folding ----------------------------------------------------------------

def fold_with_map(g: AGraph) -> tuple[AGraph, tuple[int, ...]]:
    """Stallings folding via a worklist with union-find vertex merging.

    Returns the folded graph and the induced vertex map.
    """
    parent = list(range(g.num_vertices))

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    halves: list[tuple[int, int, int]] = []
    for o, t, gen in g.edges:
        halves.append((o, gen, t))
        halves.append((t, -gen, o))
    queue = deque(range(len(halves)))
    slot: dict[tuple[int, int], int] = {}
    keys_at: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.num_vertices)}

    while queue:
        h = queue.popleft()
        o, x, t = halves[h]
        ro = find(o)
        key = (ro, x)
        other = slot.get(key)
        if other is None:
            slot[key] = h
            keys_at[ro].append(key)
            continue
        rt, rt2 = find(t), find(halves[other][2])
        if rt == rt2:
            continue  # parallel duplicate
        loser, winner = (rt, rt2) if len(keys_at[rt]) <= len(keys_at[rt2]) else (rt2, rt)
        parent[loser] = winner
        for k in keys_at[loser]:
            stale = slot.pop(k, None)
            if stale is not None:
                queue.append(stale)
        keys_at[loser] = []
        queue.append(h)

    new_id: dict[int, int] = {}
    vertex_map = []
    for v in range(g.num_vertices):
        r = find(v)
        if r not in new_id:
            new_id[r] = len(new_id)
        vertex_map.append(new_id[r])
    edges = sorted(
        {(vertex_map[o], vertex_map[t], gen) for o, t, gen in g.edges}
    )
    folded = AGraph(
        rank=g.rank,
        num_vertices=len(new_id),
        base=vertex_map[g.base],
        edges=tuple(edges),
    )
    return folded, tuple(vertex_map)


def fold(g: AGraph) -> AGraph:
    """Fold until no two edges share an origin and a label."""
    if not is_connected(g):
        raise InvalidInputError("fold expects a connected graph")
    return fold_with_map(g)[0]


# -- tracing and paths --------------------------------------------------------

def trace_path(g: AGraph, start: int, letters: Sequence[int] | Word) -> EdgePath:
    """The unique path from start reading the given letters.

    Total on covers; on other folded graphs raises NoSuchPathError at the
    first missing edge.  Each step is one lookup in a table built once per
    call, rows[v][letter] = (edge, row of the edge's terminus).
    """
    ls = letters.letters if isinstance(letters, (Word, CyclicWord)) else tuple(letters)
    out_map(g)  # raises InvalidInputError unless g is folded
    rows: dict[int, dict] = {v: {} for v in range(g.num_vertices)}
    for j, (o, t, gen) in enumerate(g.edges, 1):
        rows[o][gen] = (j, rows[t])
        rows[t][-gen] = (-j, rows[o])
    edges: list[int] = []
    append = edges.append
    row = rows.get(start, {})  # a start outside the graph has no edges
    try:
        for x in ls:
            e, row = row[x]
            append(e)
    except KeyError:
        i = len(edges)
        v = g.terminus(edges[-1]) if edges else start
        raise NoSuchPathError(vertex=v, letter=ls[i], position=i) from None
    return EdgePath(start, tuple(edges))


def path_terminus(g: AGraph, p: EdgePath) -> int:
    return g.terminus(p.edges[-1]) if p.edges else p.start


def _edge_token_string(edges: Sequence[int]) -> str:
    return "," + ",".join(map(str, edges)) + "," if edges else ","


def path_contains(hay: EdgePath, needle: EdgePath) -> bool:
    """Does needle's directed edge sequence occur contiguously in hay's?"""
    if not needle.edges:
        return True
    return _edge_token_string(needle.edges) in _edge_token_string(hay.edges)


# -- covers -------------------------------------------------------------------

def complete_to_cover(g: AGraph) -> AGraph:
    """Add edges (never vertices) until every vertex is full for every
    generator; missing out/in vertices are paired in ascending id order."""
    if not is_folded(g):
        raise InvalidInputError("complete_to_cover expects a folded graph")
    edges = list(g.edges)
    for gen in range(1, g.rank + 1):
        have_out = {o for o, _, x in edges if x == gen}
        have_in = {t for _, t, x in edges if x == gen}
        missing_out = [v for v in range(g.num_vertices) if v not in have_out]
        missing_in = [v for v in range(g.num_vertices) if v not in have_in]
        if len(missing_out) != len(missing_in):
            raise InvalidInputError(
                f"generator {gen} has {len(missing_out)} vertices missing an "
                f"outgoing edge but {len(missing_in)} missing an incoming one"
            )
        edges.extend((o, t, gen) for o, t in zip(missing_out, missing_in))
    return AGraph(g.rank, g.num_vertices, g.base, tuple(edges))


def _grow_covers(rank: int, degree: int) -> Iterator[np.ndarray]:
    """The coset table of every subgroup of index degree, each once, as
    raw images perms[c, gen - 1, j] = perm_gen[j] in the narrowest signed
    type that holds the degree, yielded in batches of about _CELLS // (16 *
    degree) tables.

    Sims' method (Computation with Finitely Presented Groups, 1994, ch. 5),
    breadth first: a frontier row is a partial table, one column per
    (vertex, letter) cell in alphabet order and -1 for empty.  Each level
    fills the first empty cell of every row, branching over the targets
    t <= size (t == size a new vertex while size < degree) whose inverse
    cell is empty; a row whose first empty cell lies past its vertices has
    closed at a smaller degree and dies.  A level fills one edge in every
    row, so every cover is finished after exactly degree * rank levels: the
    tables a depth-first first-empty-cell search grows (the tests' oracle
    grower).  The frontier advances in blocks of rows, the deepest block
    first, so that only a few blocks per level are held at a time."""
    width = 2 * rank
    letters = alphabet(rank)
    vertex, column = np.divmod(np.arange(degree * width), width)  # of each cell
    back = np.array([letters.index(-x) for x in letters])[column]  # the column of its inverse letter
    reach = np.arange(degree) < np.minimum(np.arange(degree + 1) + 1, degree)[:, None]  # [size, target]
    dtype = np.min_scalar_type(-degree)
    block = max(1, _CELLS // (16 * degree * width))  # rows a level step takes
    batch = max(1, _CELLS // (16 * degree))
    done: list[np.ndarray] = []
    held = 0  # finished tables in done
    stack = [(0, np.full((1, degree * width), -1, dtype=dtype), np.ones(1, dtype=np.intp))]
    while stack:
        level, tab, size = stack.pop()
        if level == degree * rank:
            done.append(tab.reshape(-1, degree, rank, 2)[..., 0].transpose(0, 2, 1))
            held += len(tab)
            if held >= batch:
                yield np.concatenate(done)
                done, held = [], 0
            continue
        cell = np.argmax(tab < 0, axis=1)
        live = cell < size * width
        if not live.all():
            tab, size, cell = tab[live], size[live], cell[live]
        free = tab.reshape(len(tab), degree, width)[np.arange(len(tab)), :, back[cell]] < 0
        free &= reach[size]
        rows, t = np.nonzero(free)
        tab, size, cell = tab[rows], size[rows], cell[rows]
        new = np.arange(len(rows))
        tab[new, cell] = t
        tab[new, t * width + back[cell]] = vertex[cell]
        size = np.maximum(size, t + 1)
        stack.extend(
            (level + 1, tab[at : at + block], size[at : at + block])
            for at in range(0, len(tab), block)
        )
    if done:
        yield np.concatenate(done)


def _standard_form(p1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabel each row of p1 (a perm_1 per row) into standard form: the
    cycle of 0 is labeled 0, 1, ... along perm_1, then the other cycles
    follow by ascending length (ties by least vertex), each labeled
    consecutively along perm_1 from its least vertex.  Returns label[r, v]
    (vertex -> label), its inverse vertex[r, i], and start[r, i], whether
    label i begins a cycle, which is the cycle type.  degree gathers, then
    one sort per row."""
    n, d = p1.shape
    flat, base = p1.ravel(), np.arange(0, n * d, d)[:, None]  # row r starts at r * d
    power = np.empty((d + 1, n, d), dtype=p1.dtype)  # power[k] = perm_1^k
    power[0] = np.arange(d)
    for k in range(d):
        np.take(flat, base + power[k], out=power[k + 1])
    least = power[:d].min(axis=0)  # the least vertex of each cycle ...
    back = power[:d].argmin(axis=0)  # ... is perm_1^back of the vertex
    length = np.argmax(power[1:] == power[0], axis=0) + 1
    cycle = np.where(least > 0, length, 0) * d + least  # 0's cycle first
    key = (cycle * d + (length - back) % length).astype(np.min_scalar_type((d + 1) * d * d))
    vertex = np.argsort(key, axis=1).astype(p1.dtype)
    at = base + vertex
    label = np.empty_like(vertex)
    label.reshape(-1)[at] = power[0]
    cycle = np.take(cycle, at)
    start = np.ones((n, d), dtype=bool)
    start[:, 1:] = cycle[:, 1:] != cycle[:, :-1]
    return label, vertex, start


@lru_cache(maxsize=128)
def _centralizer(lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The relabelings that keep a perm_1 in standard form, whose cycles
    have these lengths (0's cycle, then the others ascending): each fixes
    the cycle of 0, rotates every other cycle and permutes cycles of equal
    length.  Rows c[j, label] = new label, and their inverses; read-only."""
    rows = [list(range(lengths[0]))]
    at = lengths[0]
    for length, same in itertools.groupby(lengths[1:]):
        m = len(list(same))
        moves = [
            [at + to[i] * length + (k + turn[i]) % length for i in range(m) for k in range(length)]
            for to in itertools.permutations(range(m))
            for turn in itertools.product(range(length), repeat=m)
        ]
        rows = [row + move for row in rows for move in moves]
        at += m * length
    c = np.array(rows, dtype=np.min_scalar_type(-at))  # perms' type
    c_inv = np.argsort(c, axis=1).astype(c.dtype)
    c.flags.writeable = c_inv.flags.writeable = False
    return c, c_inv


def _least_tuples(perms: np.ndarray) -> np.ndarray:
    """Each table perms[r] (transitive) relabeled, 0 fixed, to its lex-least
    perm_1 + perm_2 + ... .  That tuple has perm_1 in standard form, since
    at the first position where two choices differ a shorter cycle wins; so
    the choices left are the _centralizer of its cycle type, and the lex-min
    over them is taken column by column of perm_2, perm_3, ... over every
    (table, relabeling) candidate at once, each column keeping the
    candidates that reach their table's least value.  Candidates are built
    for whole tables, at most _CELLS // 8 cells at a time (or one table's,
    if its centralizer is larger), so that the intp index arrays numpy makes
    of them hold at most _CELLS words."""
    n, rank, d = perms.shape
    label, vertex, start = _standard_form(perms[:, 0])
    # one centralizer per cycle type; kind[r] numbers the type of table r
    types = np.packbits(start, axis=1)
    order = np.lexsort(types.T[::-1])
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(types[order[1:]] != types[order[:-1]], axis=1)
    kind = np.empty(n, dtype=np.intp)
    kind[order] = np.cumsum(first) - 1
    cuts = [[i for i, s in enumerate(row) if s] + [d] for row in start[order[first]].tolist()]
    cs, c_invs = zip(*(_centralizer(tuple(b - a for a, b in itertools.pairwise(at))) for at in cuts))
    sizes = np.array([len(c) for c in cs])
    c, c_inv = np.concatenate(cs), np.concatenate(c_invs)  # type by type
    offset = np.cumsum(sizes) - sizes  # of each type's first relabeling
    stops = np.cumsum(sizes[kind]) * d  # candidate cells up to each table
    out = np.empty_like(perms)
    at = 0
    while at < n:
        end = max(at + 1, int(np.searchsorted(stops, (stops[at - 1] if at else 0) + _CELLS // 8, "right")))
        tables = np.arange(end - at)
        m = sizes[kind[at:end]]
        mine = np.repeat(tables, m)  # candidate -> its table in this chunk
        j = np.arange(len(mine)) - np.repeat(np.cumsum(m) - m - offset[kind[at:end]], m)
        lab = c[j[:, None], label[at:end][mine]]  # candidate under relabeling c[j]
        ver = vertex[at:end][mine[:, None], c_inv[j]]
        table = perms[at:end]
        alive = np.arange(len(mine))
        for gen, i in itertools.product(range(1, rank), range(d)):
            if len(alive) == len(tables):
                break
            own = mine[alive]
            value = lab[alive, table[own, gen, ver[alive, i]]]
            least = np.minimum.reduceat(value, np.searchsorted(own, tables))
            alive = alive[value == least[own]]
        tables = tables[:, None, None]
        images = table[tables, np.arange(rank)[:, None], ver[alive, None, :]]
        out[at:end] = lab[alive[tables], images]
        at = end
    return out


@lru_cache(maxsize=None)
def cover_census(rank: int, degree: int) -> np.ndarray:
    """All based covers of exact degree, one per based-isomorphism class, as
    one read-only (covers, rank * degree) array of rows perm[(gen - 1) *
    degree + j] = perm_gen[j], in the narrowest signed type that holds the
    degree; cover_graph builds a cover's AGraph from its row.

    Each subgroup of index degree is grown once as a coset table
    (_grow_covers, breadth first), relabeled to the lex-least row among its
    relabelings fixing the base (_least_tuples, a batch of tables at a
    time), and the rows are sorted lexicographically, with no dedup.  The
    numbering is generally not canonical_key's; witness words and `covers
    --json` depend on it."""
    if rank < 1 or degree < 1:
        raise InvalidInputError("rank and degree must be >= 1")
    batches = [_least_tuples(perms).reshape(len(perms), -1) for perms in _grow_covers(rank, degree)]
    census = np.concatenate(batches)
    census = census[np.lexsort(census.T[::-1])]
    census.flags.writeable = False
    return census.view()  # a view of a read-only base cannot be made writeable again


def cover_graph(rank: int, perms: Sequence[int] | np.ndarray) -> AGraph:
    """The based cover of a census row (or int sequence) perms[(gen - 1) *
    degree + j] = perm_gen[j]: int edges (j, perm_gen[j], gen) in (gen,
    vertex) order, base 0."""
    perms = np.asarray(perms).tolist()
    degree = len(perms) // rank
    return AGraph(
        rank, degree, 0, tuple((i % degree, t, i // degree + 1) for i, t in enumerate(perms))
    )


def subgroup_count(rank: int, degree: int) -> int:
    """len(cover_census(rank, degree)) without building it: the number of
    index-degree subgroups of the rank-N free group by Hall's recursion
    (1949), a_d = d (d!)^(N-1) - sum_{i<d} ((d-i)!)^(N-1) a_i."""
    if rank < 1 or degree < 1:
        raise InvalidInputError("rank and degree must be >= 1")
    counts: list[int] = []
    for d in range(1, degree + 1):
        counts.append(
            d * math.factorial(d) ** (rank - 1)
            - sum(math.factorial(d - i) ** (rank - 1) * counts[i - 1] for i in range(1, d))
        )
    return counts[-1]


# -- batch walks over the census ----------------------------------------------

_LONGEST_STEP = 4  # letters per step of a census walk, at most
_CODES = 1 << 16  # letters a walk codes at a time, rounded to whole grid blocks; a multiple of every step
_CELLS = 1 << 20  # (row, state) cells, or read letters, that a batch of census walks holds at a time; bounds the census build's arrays too


@lru_cache(maxsize=None)
def _census_table(rank: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """cover_census(rank, degree) as two read-only tables over the states
    c * degree + j (vertex j of cover c), built from its rows alone:

    - nxt[x + rank, c * degree + j] = c * degree + the vertex that letter x
      leads to from vertex j of cover c; row rank (letter 0) is the identity;
    - dual[x + rank, c * degree + j] = the signed dual letter of that edge,
      0 on tree edges and in row rank: exactly the numbering of
      spanning_data(cover_graph(rank, perms)).complement.

    The spanning trees of all covers grow together, breadth-first from
    vertex 0 with letters in alphabet order: one gather per queue position
    and letter over every cover.  Cached under the census's key, for as long."""
    census = cover_census(rank, degree)
    covers = len(census)
    # intp, so that gathers index with the states as they come
    states = np.arange(covers * degree, dtype=np.intp)
    perms = census.astype(np.intp).reshape(covers, rank, degree)
    perms += states[::degree, None, None]
    nxt = np.empty((2 * rank + 1, len(states)), dtype=np.intp)
    nxt[rank] = states
    for gen in range(1, rank + 1):
        image = perms[:, gen - 1].ravel()
        nxt[rank + gen] = image
        nxt[rank - gen, image] = states
    # order[p, c]: the state found p-th; the queue never runs dry before
    # position degree - 1, which finds nothing new, since covers are connected
    order = np.empty((degree, covers), dtype=np.intp)
    order[0] = states[::degree]
    found = np.ones(covers, dtype=np.intp)
    seen = np.zeros(len(states), dtype=bool)
    seen[order[0]] = True
    ids = np.arange(covers)
    tree = np.zeros((rank, len(states)), dtype=bool)  # [gen - 1, origin state]
    for p in range(degree - 1):
        v = order[p]
        for x in alphabet(rank):
            t = nxt[x + rank, v]
            new = ~seen[t]
            t = t[new]
            seen[t] = True
            order[found[new], ids[new]] = t
            found += new
            tree[abs(x) - 1, v[new] if x > 0 else t] = True
    # number each cover's complement edges in cover_graph's (gen, vertex) order
    free = ~tree.reshape(rank, covers, degree).transpose(1, 0, 2).reshape(covers, -1)
    number = (np.cumsum(free, axis=1) * free).reshape(covers, rank, degree)
    number = number.transpose(1, 0, 2).reshape(rank, len(states))
    # dual letters run to +-the cycle rank, degree (rank - 1) + 1 by Schreier
    dual = np.zeros(nxt.shape, dtype=_letter_dtype(degree * (rank - 1) + 1))
    for gen in range(1, rank + 1):
        dual[rank + gen] = number[gen - 1]
        dual[rank - gen, nxt[rank + gen]] = -number[gen - 1]
    nxt.flags.writeable = dual.flags.writeable = False
    # views of read-only bases cannot be made writeable again
    return nxt.view(), dual.view()


def _step_length(letters: int, shape: tuple[int, int]) -> int:
    """Letters per step of a walk of that many letters through a table of
    the given shape (2 rank + 1 letter rows by the states): 4 or 2 when the
    table of all words of that length, rows ** k by the states, has no more
    cells than the word has letters; 1 otherwise.  Building and holding the
    table then costs no more than one intp array of the word would."""
    rows, width = shape
    return next((k for k in (_LONGEST_STEP, 2) if rows**k * width <= letters), 1)


def _step_table(nxt: np.ndarray, k: int) -> np.ndarray:
    """nxt composed with itself into one row per k-letter word, k a power
    of 2: row (...(c_1 * R + c_2) * R ...) + c_k, R = len(nxt), leads each
    state along the rows c_1, ..., c_k of nxt in turn."""
    table = nxt
    while k > 1:
        ids = np.arange(len(table))[None, :, None]
        # [a, b, s] = table[b, table[a, s]]: the row a, then the row b
        table = table[ids, table[:, None, :]].reshape(-1, nxt.shape[1])
        k //= 2
    return table


def _code_dtype(rank: int) -> np.dtype:
    """The narrowest signed type that holds every letter code, 0 .. 2 rank."""
    return np.min_scalar_type(-2 * rank - 1)


def _letter_codes(rows: Sequence[Sequence[int] | np.ndarray], rank: int, width: int) -> np.ndarray:
    """Rows of letters as one (rows, width) array of letter codes, letter +
    rank, each row padded with rank: letter 0, whose table row stays put."""
    codes = np.full((len(rows), width), rank, dtype=_code_dtype(rank))
    for row, letters in zip(codes, rows):
        row[: len(letters)] += letters
    return codes


def _step_codes(codes: np.ndarray, rank: int, k: int) -> np.ndarray:
    """The rows of _step_table(nxt, k) that walk rows of letter codes k at a
    time, each k codes read as one number in base 2 rank + 1 by Horner's
    rule, in the narrowest unsigned type that holds them; the rows' length
    is a multiple of k."""
    if k == 1:
        return codes
    base = 2 * rank + 1
    digits = codes.reshape(len(codes), -1, k)
    out = digits[:, :, 0].astype(np.min_scalar_type(base**k - 1))
    for i in range(1, k):
        out *= base
        out += digits[:, :, i].astype(out.dtype)
    return out


def _gather_walk(
    table: np.ndarray | list[np.ndarray],
    codes: np.ndarray,
    state: np.ndarray,
    rows: np.ndarray | None = None,
    dual: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The one gather loop of the census walks: row i of state, one state or
    a row of them, walks along row rows[i] of codes (row i when rows is
    None), whose entries number table's rows, one gather per column.
    Returns the states reached; given dual, a table shaped like table (so
    one letter per step), also the dual letter of every step, (rows,
    columns).  To walk one row of codes for its states alone, table may be
    the list of its rows: each step then indexes a row, which costs less
    than a flat gather when the states are few."""
    if isinstance(table, list):
        (line,) = codes
        for code in line.tolist():
            state = table[code][state]
        return state
    pick = slice(None) if rows is None else rows
    width, step = table.shape[1], table.reshape(-1)
    if dual is not None:
        letters, out = dual.reshape(-1), np.empty((codes.shape[1], len(state)), dtype=dual.dtype)
    for t in range(codes.shape[1]):
        at = np.multiply(codes[pick, t], width, dtype=np.intp)
        if state.ndim > 1:  # one code per row, for each of its states
            at = at[:, None] + state
        else:
            at += state
        if dual is not None:
            letters.take(at, out=out[t])
        state = step.take(at)
    return state if dual is None else (state, out.T)


def _census_walk(
    rank: int,
    degrees: Sequence[int],
    rows: Sequence[Sequence[int] | np.ndarray] | np.ndarray,
    grid: int = 0,
) -> tuple[list[np.ndarray], np.ndarray, int, tuple[np.ndarray, ...]]:
    """Rows of letters (words) walked from the base of every cover of the
    listed degrees at once.  The rows may also come as their _letter_codes,
    a 2-D array padded to a multiple of _LONGEST_STEP, hence of every step,
    with grid 0: first_cover codes its batch once and walks the open rows
    at each degree.  Returns:

    - per listed degree, the vertex where each row's path from each cover's
      base ends, (rows, covers) (0: the row closes on that cover);
    - every state after row[:k] for each multiple k of the grid below the
      longest row, (stops, rows, states), in the narrowest unsigned type
      that holds the side-by-side width (no stops when grid is 0);
    - the grid, rounded up to a multiple of the step;
    - the (nxt, dual, base state) tables of _census_table side by side, each
      shifted by the widths before it.

    The walk takes _step_length letters of the longest row per step through
    _step_table's rows.  The rows are coded and read as step codes once per
    chunk of about _CODES letters, a whole number of grid blocks, and each
    chunk is walked one _gather_walk per grid block (per chunk when grid is
    0); the rows are padded with letter 0 to a multiple of the grid (of the
    step when grid is 0).  Rows of words are coded a chunk at a time, and
    no code copy of them is kept."""
    tables = [_census_table(rank, d) for d in degrees]
    offsets = list(itertools.accumulate((t.shape[1] for t, _ in tables), initial=0))
    if len(tables) > 1:
        nxt = np.hstack([t + o for (t, _), o in zip(tables, offsets)])
        tables = [(nxt, np.hstack([u for _, u in tables]))]
    ((nxt, dual),) = tables
    bases = np.concatenate([np.arange(a, b, d) for a, b, d in zip(offsets, offsets[1:], degrees)])
    coded = isinstance(rows, np.ndarray)
    n = rows.shape[1] if coded else max(map(len, rows), default=0)
    k = _step_length(n, nxt.shape)
    table = _step_table(nxt, k) if k > 1 else nxt
    if len(rows) == 1:
        table = list(table)  # _gather_walk's one-row steps
    grid = -(-grid // k) * k
    unit = grid or k
    width = rows.shape[1] if coded else -(-n // unit) * unit
    stops = width // grid if grid else 0
    states = np.empty((stops, len(rows), len(bases)), dtype=np.min_scalar_type(nxt.shape[1]))
    state = np.broadcast_to(bases, states.shape[1:])
    chunk = max(1, _CODES // unit) * unit
    for lo in range(0, width, chunk):
        hi = min(lo + chunk, width)
        codes = rows[:, lo:hi] if coded else _letter_codes([r[lo:hi] for r in rows], rank, hi - lo)
        steps = _step_codes(codes, rank, k)
        for at in range(0, hi - lo, grid or chunk):
            if grid:
                states[(lo + at) // grid] = state
            state = _gather_walk(table, steps[:, at // k : (at + (grid or chunk)) // k], state)
    # per degree, its covers' columns
    ends = np.split(state - bases, np.cumsum(np.diff(offsets) // degrees)[:-1], axis=1)
    return ends, states, grid, (nxt, dual, bases)


def _read_duals(
    nxt: np.ndarray,
    dual: np.ndarray,
    codes: np.ndarray,
    rows: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """The dual letters, (len(rows), columns), of walks from the states in
    start along rows `rows` of letter codes, one letter per gather; each
    walk is checked to end at its state in end."""
    state, out = _gather_walk(nxt, codes, start, rows, dual)
    if not np.array_equal(state, end):
        raise InvalidInputError(
            "a read walk does not end where the closing walk did: a cover that "
            "does not close the word passed the closing test"
        )
    return out


def _reduced_letters(rows: np.ndarray) -> np.ndarray:
    """The nonzero dual letters of consecutive read rows, checked to be
    freely reduced."""
    u = rows[rows != 0]
    if np.any(u[1:] == -u[:-1]):
        raise InvalidInputError("dual word of a traced loop is not freely reduced")
    return u


def _peel_count(head: np.ndarray, tail: np.ndarray) -> int:
    """How many letters from the start of head cancel against the end of
    tail (head[i] == -tail[-1 - i]), counting at most the shorter's length."""
    m = min(len(head), len(tail))
    cancel = head[:m] != -tail[::-1][:m]
    return int(cancel.argmax()) if cancel.any() else m


def _census_duals(
    rank: int, degrees: Sequence[int], letters: Sequence[int] | np.ndarray
) -> tuple[list[np.ndarray], Callable[..., Iterator[np.ndarray | None]]]:
    """The closing test of one nonempty word (the trivial word is refused),
    _census_walk(rank, degrees, [letters])[0] with its one row taken, and
    read(covers, spans), the reader of its dual letters, read from
    _census_table's dual letters; covers are numbered over the listed
    degrees in turn, census order within each, and each must close the
    word.  No graph is built.

    read(covers, spans) reads, per cover, only the grid blocks that meet
    its span [start, stop) of letters, and the first and last grid blocks,
    which give the peel length k: the length of the conjugator that
    cancels between the two ends of the dual word.
    - A span that meets every grid block, such as the full span
      (0, len(letters)), gives the cyclically reduced dual word of the
      cover's loop (rewrite_loop_cyclic's letters) as a signed array.
    - Any other span gives the dual letters of its grid blocks when they
      are a subword of the cyclically reduced dual word, that is when k is
      known and is 0, or they avoid the first and last grid blocks; None
      otherwise.
    Batches hold about _CELLS letters read, and at least one cover.

    The closing test's walk keeps every cover's state at each multiple of
    a grid of about sqrt(len) letters, and no code copy of the letters.
    Each batch of (cover, grid block) rows codes the grid blocks it reads
    from the letters themselves, then takes one gather through the
    dual-letter table (0 on tree edges) and one through the permutation
    table per position in a block (_read_duals).
    Each row is checked to end at the walk's state at the next stop (at the
    base after the last block), and each word or segment read to be freely
    reduced."""
    n = len(letters)
    if not n:
        raise InvalidInputError("census scans reject the trivial word")
    ends, firsts, grid, (nxt, dual, bases) = _census_walk(
        rank, degrees, [letters], math.isqrt(n - 1) + 1
    )
    ends, firsts = [e[0] for e in ends], firsts[:, 0]
    blocks = len(firsts)
    letters = np.asarray(letters)

    def read_rows(cover: np.ndarray, block: np.ndarray) -> np.ndarray:
        # the codes of the grid blocks read, from the letters themselves; the
        # last grid block, the only one that can be short, is padded with
        # letter 0 (ids come sorted)
        ids, row = np.unique(block, return_inverse=True)
        whole = n // grid
        codes = np.full((len(ids), grid), rank, dtype=_code_dtype(rank))
        inside = ids < whole
        codes[inside] += letters[: whole * grid].reshape(whole, grid)[ids[inside]]
        if not inside.all():
            codes[-1, : n - whole * grid] += letters[whole * grid :]
        after = firsts[np.minimum(block + 1, blocks - 1), cover]
        end = np.where(block + 1 < blocks, after, bases[cover])
        return _read_duals(nxt, dual, codes, row, firsts[block, cover], end)

    def piece(mine: np.ndarray, lo: int, hi: int) -> np.ndarray | None:
        # mine: the rows of grid block 0, of blocks lo .. hi - 1, and of the last
        if (lo, hi) == (0, blocks):
            u = _reduced_letters(mine)
            half = len(u) // 2
            k = _peel_count(u[:half], u[len(u) - half :])
            return u[k : len(u) - k]
        seg = _reduced_letters(mine[int(lo > 0) : len(mine) - int(hi < blocks)])
        head, tail = _reduced_letters(mine[:1]), _reduced_letters(mine[-1:])
        k = _peel_count(head, tail)
        inside = k < min(len(head), len(tail)) and (k == 0 or (lo > 0 and hi < blocks))
        return seg if inside else None

    def read(covers: Sequence[int], spans: Sequence[tuple[int, int]]) -> Iterator[np.ndarray | None]:
        covers = np.asarray(covers, dtype=np.intp)
        # the grid blocks plus at most 2 rows per cover, about _CELLS letters a batch
        picks = [(a // grid, -(-b // grid)) for a, b in spans]
        letters_read = grid * sum(hi - lo + 2 for lo, hi in picks)
        chunk = max(1, len(covers) * _CELLS // max(letters_read, 1))
        for c in range(0, len(covers), chunk):
            ids = [sorted({0, *range(lo, hi), blocks - 1}) for lo, hi in picks[c : c + chunk]]
            sizes = list(map(len, ids))
            out = read_rows(np.repeat(covers[c : c + chunk], sizes), np.concatenate(ids, dtype=np.intp))
            starts = itertools.accumulate(sizes, initial=0)
            for (lo, hi), at, size in zip(picks[c : c + chunk], starts, sizes):
                yield piece(out[at : at + size], lo, hi)

    return ends, read


# -- canonical forms -----------------------------------------------------------

def _relabeled_key(rank: int, order: Sequence[int], edges) -> tuple:
    """(rank, vertices, edges), each vertex renamed by its position in
    order and the edges sorted: canonical_key's, and the quotient scan's."""
    label = {v: i for i, v in enumerate(order)}
    return rank, len(order), tuple(sorted([(label[o], label[t], gen) for o, t, gen in edges]))


def canonical_key(g: AGraph) -> tuple:
    """Key of g relabeled in the order spanning_data's breadth-first search
    from the base finds the vertices. Folded connected graphs only."""
    return _relabeled_key(g.rank, spanning_data(g).order, g.edges)


# -- circle graphs and principal quotients -------------------------------------

def circle_graph(w: CyclicWord) -> AGraph:
    """The based simplicial circle reading w once around from vertex 0."""
    n = len(w)
    if n == 0:
        raise InvalidInputError("circle graph needs a nonempty word")
    edges = []
    for j, x in enumerate(w.letters):
        o, t = j, (j + 1) % n
        edges.append((o, t, x) if x > 0 else (t, o, -x))
    return AGraph(w.rank, n, 0, tuple(edges))


def set_partitions_with_blocks(n: int, k: int) -> Iterator[list[list[int]]]:
    """Set partitions of range(n) into exactly k blocks, via restricted
    growth strings; blocks are ordered by their minimal element."""
    if not 1 <= k <= n:
        return
    rgs = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                blocks: list[list[int]] = [[] for _ in range(k)]
                for j, b in enumerate(rgs):
                    blocks[b].append(j)
                yield blocks
            return
        for b in range(min(used + 1, k)):
            new_used = used + (1 if b == used else 0)
            if new_used + (n - i - 1) < k:
                continue
            rgs[i] = b
            yield from rec(i + 1, new_used)

    yield from rec(1, 1)


def collapse_vertices(
    g: AGraph, blocks: Sequence[Sequence[int]]
) -> tuple[AGraph, tuple[int, ...]]:
    """Collapse each block to one vertex (no folding). Blocks must
    partition the vertex set; block order fixes the new ids."""
    vmap = [-1] * g.num_vertices
    for b, block in enumerate(blocks):
        for v in block:
            vmap[v] = b
    if any(b < 0 for b in vmap):
        raise InvalidInputError("blocks do not cover the vertex set")
    edges = tuple((vmap[o], vmap[t], gen) for o, t, gen in g.edges)
    return AGraph(g.rank, len(blocks), vmap[g.base], edges), tuple(vmap)


def _read_quotient(w: CyclicWord, out: dict, size: int) -> tuple:
    """The folded graph with next-vertex table out[(vertex, letter)] on
    vertices 0..size-1 as the quotient scan reads it, one pass each: (sorted
    edges, vertices in spanning_data's order, w's dual word as
    rewrite_loop_cyclic gives it, is a cover); w must be a loop at 0."""
    edges = tuple(sorted([(v, t, x) for (v, x), t in out.items() if x > 0]))
    order, tree = [0], set()  # tree: (origin, gen) of the spanning tree's edges
    for v in order:  # the loop reads what it appends: a breadth-first search
        for x in alphabet(w.rank):
            if (t := out.get((v, x), 0)) not in order:
                order.append(t)
                tree.add((v, x) if x > 0 else (t, -x))
    dual: dict[tuple[int, int], int] = {}  # (vertex, letter) -> signed dual letter
    for o, t, x in edges:
        if (o, x) not in tree:
            y = len(dual) // 2 + 1
            dual[o, x], dual[t, -x] = y, -y
    ys, v = [], 0
    for x in w.letters:
        if (v, x) in dual:
            ys.append(dual[v, x])
        v = out.get((v, x), -1)  # -1 from the first missing edge on
    if v:
        raise InvalidInputError("w does not close at vertex 0 of the quotient")
    cyc = cyclic_reduce(free_reduce(ys, len(dual) // 2))[1]
    return edges, tuple(order), cyc, len(out) == 2 * w.rank * size


def quotients_with_vertices(
    w: CyclicWord, k: int, on_step: Callable[[], None] | None = None
) -> Iterator[tuple]:
    """The folded quotients of the circle graph of w with exactly k
    vertices, each once: trace w from vertex 0, following an edge already
    present (the graph stays folded), else branching over each vertex free
    for the inverse letter plus a new vertex while fewer than k exist; the
    last letter closes at 0.  Vertices are numbered in first-visit order
    along w and edges sorted, as fold_with_map numbers a collapse of
    circle_graph(w).  Each is yielded as _read_quotient reads it off the
    next-vertex table out[(vertex, letter)], with no graph built.  on_step
    is called per edge tried.  The search is depth first on an explicit
    stack, since a branch stops early where w cannot close; covers, which
    all have degree * rank edges, grow breadth first instead (_grow_covers).
    For k = 1 the one quotient, the rose on the generators w uses, is read
    off w with no search: one step per generator, as the search takes.
    """
    letters, n = w.letters, len(w)
    if n == 0:
        raise InvalidInputError("need a nonempty cyclic word")

    def rose() -> Iterator[tuple]:
        gens = sorted({abs(x) for x in letters})
        if on_step is not None:
            for _ in gens:
                on_step()
        dual = {g: y for y, g in enumerate(gens, 1)}
        cyc = CyclicWord(tuple([dual[x] if x > 0 else -dual[-x] for x in letters]), len(gens))
        yield tuple([(0, 0, g) for g in gens]), (0,), cyc, len(gens) == w.rank

    def grow() -> Iterator[tuple]:
        out: dict[tuple[int, int], int] = {}
        stack = []  # per missing edge: vertex, letter, its index in w, targets left, size
        v, i, size = 0, 0, 1
        while True:
            while i < n and (v, letters[i]) in out:  # follow the edges already present
                v, i = out[v, letters[i]], i + 1
            if i == n:
                if v == 0 and size == k:
                    yield _read_quotient(w, out, size)
            elif size + n - i - 1 >= k:  # only letters before the last add vertices
                targets = (0,) if i == n - 1 else range(size + (size < k))
                stack.append((v, letters[i], i, iter(targets), size))
            while stack:  # place the next target of the deepest missing edge
                v, x, i, targets, size = stack[-1]
                t = out.pop((v, x), None)  # the target placed here last time
                if t is not None:
                    del out[t, -x]
                for t in targets:
                    if (t, -x) not in out:
                        break
                else:
                    stack.pop()
                    continue
                if on_step is not None:
                    on_step()
                out[v, x], out[t, -x] = t, v
                size += t == size
                v, i = t, i + 1
                break
            else:
                return

    return rose() if k == 1 else grow()


# -- spanning data and rewriting ------------------------------------------------

def spanning_data(g: AGraph) -> SpanningData:
    """Choose a maximal tree breadth-first from the base, letters in display
    order, and order the complement."""
    om = out_map(g)
    letters = alphabet(g.rank)
    parent_edge: list[int | None] = [None] * g.num_vertices
    depth = [0] * g.num_vertices
    tree: set[int] = set()
    order = [g.base]  # also the queue: the loop reads what it appends
    seen = {g.base}
    for v in order:
        for x in letters:
            e = om.get((v, x))
            if e is None:
                continue
            w = g.terminus(e)
            if w not in seen:
                seen.add(w)
                tree.add(abs(e) - 1)
                parent_edge[w] = e
                depth[w] = depth[v] + 1
                order.append(w)
    if len(order) != g.num_vertices:
        raise InvalidInputError("graph is not connected")
    complement = tuple(j + 1 for j in range(len(g.edges)) if j not in tree)
    return SpanningData(
        tree_edges=frozenset(tree),
        complement=complement,
        parent_edge=tuple(parent_edge),
        depth=tuple(depth),
        order=tuple(order),
    )


def rewrite_loop(g: AGraph, sd: SpanningData, p: EdgePath) -> Word:
    """Rewrite a base loop as a freely reduced word over the dual basis:
    drop tree edges and map complement edges to dual letters."""
    if p.start != g.base or path_terminus(g, p) != g.base:
        raise InvalidInputError("rewrite_loop expects a loop at the base vertex")
    dual: dict[int, int] = {}  # signed complement edge -> signed dual letter
    for i, e in enumerate(sd.complement, 1):
        dual[e], dual[-e] = i, -i
    return free_reduce(tuple(filter(None, map(dual.get, p.edges))), len(sd.complement))


def rewrite_loop_cyclic(g: AGraph, sd: SpanningData, p: EdgePath) -> CyclicWord:
    """The cyclic reduction of rewrite_loop(g, sd, p); its rotation is
    whatever cyclic_reduce leaves."""
    return cyclic_reduce(rewrite_loop(g, sd, p))[1]


# -- pattern loops ---------------------------------------------------------------

def _letter_dtype(rank: int) -> np.dtype:
    """The smallest integer type that holds every letter and its inverse."""
    return np.min_scalar_type(-rank - 1)


def _graph_tables(g: AGraph, sd: SpanningData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One folded graph as a batch of one for the pattern builders, laid out
    like _census_table's tables over its vertices (blocking_word and
    forcing_word build them once per graph): nxt[x + rank, v],
    dual[x + rank, v] numbered as in sd.complement, and eid[x + rank, v],
    the signed edge leaving v by letter x (out_map as an array).  A missing
    edge stays put, with dual letter and edge id 0, as letter 0 does."""
    r = g.rank
    nxt = np.tile(np.arange(g.num_vertices, dtype=np.intp), (2 * r + 1, 1))
    dual, eid = np.zeros_like(nxt), np.zeros_like(nxt)
    o, t, gen = np.array(g.edges, dtype=np.intp).reshape(-1, 3).T
    ids = np.arange(1, len(o) + 1)
    number = np.zeros(len(o) + 1, dtype=np.intp)
    number[list(sd.complement)] = np.arange(1, sd.dual_rank + 1)
    for table, out, back in ((nxt, t, o), (eid, ids, -ids), (dual, number[ids], -number[ids])):
        table[r + gen, o], table[r - gen, t] = out, back
    return nxt, dual, eid


def _census_edge_ids(nxt: np.ndarray, degree: int) -> np.ndarray:
    """_graph_tables' eid for every cover of one census degree, nxt its
    _census_table: cover_graph numbers the edge leaving vertex j by gen as
    (gen - 1) * degree + j + 1."""
    rank = len(nxt) // 2
    eid = np.zeros(nxt.shape, dtype=np.intp)
    j = np.arange(nxt.shape[1]) % degree
    for gen in range(1, rank + 1):
        eid[rank + gen] = (gen - 1) * degree + j + 1
        eid[rank - gen, nxt[rank + gen]] = -eid[rank + gen]
    return eid


def _tree_paths(nxt: np.ndarray, dual: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each state's path from its graph's base in the spanning tree of the
    edges with dual letter 0: its letters, (states, degree - 1) padded with
    0, and its length.  The trees of a batch grow together, a level at a
    time; a tree has one path to each vertex, so this is spanning_data's."""
    rank, states = len(nxt) // 2, nxt.shape[1]
    degree = states // len(bases)
    depth = np.full(states, -1, dtype=np.intp)
    depth[bases] = 0
    path = np.zeros((states, degree - 1), dtype=_letter_dtype(rank))
    front = bases
    for level in range(degree - 1):
        found = []
        for x in alphabet(rank):
            t = nxt[x + rank, front]
            new = (dual[x + rank, front] == 0) & (depth[t] < 0)
            t = t[new]
            depth[t] = level + 1
            path[t] = path[front[new]]
            path[t, level] = x
            found.append(t)
        front = np.concatenate(found)
    return path, depth


def _pattern_segments(
    nxt: np.ndarray, dual: np.ndarray, bases: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced base loops realizing the nonempty dual word u (signed
    letters), complement edges joined by tree paths, for a batch of graphs
    of one degree and dual rank, as tables over the states
    (_graph_tables, _census_table) with each graph's base state, cut into
    segments: one per pair (previous dual letter, dual letter) of u, the
    same pairs for every graph.  A segment is the tree path from the
    previous complement edge's terminus to this one's origin, then this
    edge; the pair (0, y) starts at the base and (y, 0) only returns to it.

    Returns the segments' letters, (graphs, pairs, 2 degree - 1): the tree
    path's steps up to the meet, the steps down from it, then the edge,
    each part padded with 0 (letter 0 stays put); the pair at each
    position of u; and each loop's length.  Tree paths come from the paths
    from the base, _tree_paths."""
    rank, states = len(nxt) // 2, nxt.shape[1]
    degree = states // len(bases)
    r = int(dual.max())  # the dual rank
    # dual letter y is the edge leaving origin[:, y + r] by letter[:, y + r]; 0 stays at the base
    origin = np.repeat(bases[:, None], 2 * r + 1, axis=1)
    letter = np.zeros(origin.shape, dtype=np.intp)
    rows, cols = np.nonzero(dual)
    y = dual[rows, cols].astype(np.intp) + r
    origin[cols // degree, y], letter[cols // degree, y] = cols, rows - rank
    side = 2 * r + 1
    shifted = np.concatenate(([0], u, [0]), dtype=np.intp) + r
    coded = shifted[:-1] * side + shifted[1:]
    pairs, at, counts = np.unique(coded, return_inverse=True, return_counts=True)
    x, y = pairs // side, pairs % side
    a, b = nxt[letter[:, x] + rank, origin[:, x]], origin[:, y]
    path, depth = _tree_paths(nxt, dual, bases)
    pa, pb, da, db = path[a], path[b], depth[a, None], depth[b, None]
    col = np.arange(degree - 1)
    meet = np.cumprod((pa == pb) & (col < np.minimum(da, db)), axis=-1).sum(-1, keepdims=True)
    up = -np.take_along_axis(pa, np.maximum(da - 1 - col, 0), axis=-1)
    down = np.take_along_axis(pb, np.minimum(meet + col, max(degree - 2, 0)), axis=-1)
    edge = letter[:, y, None]
    letters = np.concatenate((up, down, edge), axis=-1, dtype=path.dtype)
    inside = np.concatenate((col < da - meet, col < db - meet, edge != 0), axis=-1)
    return np.where(inside, letters, 0), at, (inside.sum(axis=-1) * counts).sum(axis=-1)


def _lay_out(segments: np.ndarray, at: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """_pattern_segments' loops, one after another, as signed letters: the
    blocks are built along them, and on one graph the pattern loop that
    each vertex's trace must contain is read from them.  The segments at
    each position are gathered with their padding, which is 0 and never a
    letter, and the padding is dropped (for one-byte letters by
    bytes.translate, which runs at C speed).  Checked to be reduced: no
    letter is followed by its inverse, which in a folded graph is the edge
    back."""
    padded = segments.take(at, axis=1)
    if padded.itemsize == 1:
        loops = np.frombuffer(padded.tobytes().translate(None, b"\0"), dtype=padded.dtype)
    else:
        loops = padded[padded != 0]
    cancel = loops[1:] == -loops[:-1]
    cancel[np.cumsum(lengths)[:-1] - 1] = False  # where one loop meets the next
    if cancel.any():
        raise InvalidInputError("pattern loop is not reduced")
    return loops


def _separator(last: int, first: int, rank: int) -> tuple[int, ...]:
    """Smallest letter joining two blocks reducibly; empty when possible."""
    if last != -first:
        return ()
    for y in alphabet(rank):
        if y != -last and y != -first:
            return (y,)
    raise InvalidInputError("no separator letter exists")


def universal_three_word(r: int) -> Word:
    """A freely reduced word over rank r containing every freely reduced
    length-3 word as a factor: the triples in order, joined by _separator;
    length <= 4L-1 for L = 2r(2r-1)^2.  Built on each call; the forcing
    words read it through blockers._pattern_word, which caches it by r."""
    if r < 2:
        raise UnsupportedInputError("need dual rank >= 2")
    triples = list(_reduced_tuples(3, r))
    letters: list[int] = list(triples[0])
    for nxt in triples[1:]:
        letters.extend(_separator(letters[-1], nxt[0], r))
        letters.extend(nxt)
    return Word(tuple(letters), r)


# -- serialization -----------------------------------------------------------

def graph_to_json(g: AGraph) -> dict:
    return {
        "vertices": list(range(g.num_vertices)),
        "base": g.base,
        "edges": [
            {"from": o, "to": t, "gen": gen, "sign": 1} for o, t, gen in g.edges
        ],
    }


def graph_to_dot(g: AGraph, name: str = "agraph") -> str:
    lines = [f"digraph {name} {{"]
    for v in range(g.num_vertices):
        shape = ' shape=doublecircle' if v == g.base else ""
        lines.append(f'  v{v} [label="{v}"{shape}];')
    for o, t, gen in g.edges:
        lines.append(f'  v{o} -> v{t} [label="a{gen}"];')
    lines.append("}")
    return "\n".join(lines)
