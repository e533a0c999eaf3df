"""Exact primitivity and simplicity indexes via principal quotients,
certified interval bounds for the non-filling index, index-function tables,
one cover-census scan behind the d_prim oracle and d_simp_census, and the
appendix's divisibility (the census closing test) and commutator witness.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, ResourceGuardError, UnsupportedInputError
from .graphs import AGraph, _CELLS, _LONGEST_STEP, _census_walk, _letter_codes
from .graphs import _read_duals, _relabeled_key
from .graphs import graph_to_json, quotients_with_vertices, subgroup_count
# Unused here; perfbench/tracer.py patches these names on this module.
from .graphs import collapse_vertices, fold_with_map, rewrite_loop  # noqa: F401
from .graphs import cover_census, set_partitions_with_blocks  # noqa: F401
from .graphs import canonical_key, is_cover, rewrite_loop_cyclic  # noqa: F401
from .graphs import spanning_data, trace_path  # noqa: F401
from .words import (
    CyclicWord,
    Word,
    concat,
    cyclic_class_key,
    index_candidates_exact,
)
from .whitehead import _has_lone_generator, _uses_every_generator, descend
from .whitehead import is_primitive, is_simple, rauzy3_full

CERT_PRIMITIVE = "primitive-in-subgroup"
CERT_SIMPLE = "simple-in-subgroup"
CERT_RAUZY = "rauzy3-filling"
CERT_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Witness:
    graph: AGraph
    certificate: str

    def to_json(self) -> dict:
        return {"certificate": self.certificate, "graph": graph_to_json(self.graph)}


@dataclass(frozen=True)
class IndexReport:
    word: CyclicWord
    d_prim: int
    d_simp: int
    d_fill_lower: int
    witnesses: dict[str, Witness]

    @property
    def d_fill_upper(self) -> int:
        """Simplicity certifies non-filling, so d_fill <= d_simp."""
        return self.d_simp

    def __post_init__(self):
        chain = (self.d_fill_lower, self.d_fill_upper, self.d_simp, self.d_prim, len(self.word))
        if list(chain) != sorted(chain):
            raise InvalidInputError(f"need d_fill <= d_simp <= d_prim <= |w|, got {chain}")

    def to_json(self) -> dict:
        return {
            "word": self.word.text(),
            "rank": self.word.rank,
            "d_prim": self.d_prim,
            "d_simp": self.d_simp,
            "d_fill": [self.d_fill_lower, self.d_fill_upper],
            "witnesses": {k: w.to_json() for k, w in self.witnesses.items()},
        }


_INDEXES = ("prim", "simp", "fill")


def _scan_quotients(
    w: CyclicWord,
    wanted: tuple[str, ...],
    max_index: int | None = None,
    max_partitions: int | None = None,
    *,
    witnesses: bool = True,
) -> dict[str, tuple[int, Witness | None]]:
    """Best-first scan of principal quotients by ascending vertex count for
    the indexes named in wanted (a subset of _INDEXES); returns
    {name: (k, witness)} for those reached within max_index.

    At each k the quotients with exactly k vertices are grown directly by
    tracing w (quotients_with_vertices), so the first k with a success per
    index realizes its minimum; among the k-vertex successes the witness
    is the one with the least canonical key, and only it becomes a graph.
    Each quotient is asked only about the indexes still open, and the scan
    stops once none is.  A cover with simplicity or filling open descends
    once, unless a generator occurs once in its dual word, which is then
    primitive and so simple; only a simple one can be primitive (dual rank
    >= 2), and it is asked of its descended word, an automorphic image.

    With witnesses=False only the degrees are wanted: an index is closed at
    its first k-vertex success, later quotients of the level are asked only
    about the indexes still open, the level stops once none is, and every
    witness is None.  The degrees are the same, since a level's answer is
    whether some k-vertex quotient succeeds, not which one.

    max_partitions caps the total number of search steps (edge choices
    tried) over all k.  The degrees-only scan stops its levels early, so it
    takes no more steps than the full scan, and may finish under a cap the
    full scan exceeds.
    """
    if len(w) == 0:
        raise InvalidInputError("index operations reject the trivial word")
    found: dict[str, tuple[int, Witness | None]] = {}
    pending = list(wanted)
    steps = 0

    def step() -> None:  # passed to the grower only under a cap
        nonlocal steps
        steps += 1
        if steps > max_partitions:  # type: ignore[operator]
            raise ResourceGuardError(
                f"principal-quotient scan exceeded {max_partitions} search steps"
            )

    on_step = None if max_partitions is None else step

    k_cap = len(w) if max_index is None else min(len(w), max_index)
    for k in range(1, k_cap + 1):
        if not pending:
            break
        best: dict[str, tuple | None] = {}
        asked = list(pending)  # shrinks at each hit when witnesses is False
        for edges, order, dual, cover in quotients_with_vertices(w, k, on_step):
            # a quotient that is not a cover counts as simple; simple
            # certifies non-filling
            word, simple = dual, True
            # the dual rank of a cover is >= 2 in rank >= 2, so a lone
            # generator's primitive dual word is simple
            open_simp = "simp" in asked or "fill" in asked
            if cover and open_simp and not _has_lone_generator(dual.letters):
                word = descend(dual)
                simple = not _uses_every_generator(word.letters, word.rank)
            hits = [(name, CERT_SIMPLE) for name in ("simp", "fill") if simple and name in asked]
            if "prim" in asked and simple and is_primitive(word):
                hits.append(("prim", CERT_PRIMITIVE))
            if not simple and "fill" in asked and not rauzy3_full(dual):
                hits.append(("fill", CERT_UNDETERMINED))
            if not hits:
                continue
            if not witnesses:
                for name, _ in hits:
                    best[name] = None
                    asked.remove(name)
                if not asked:
                    break
                continue
            key = _relabeled_key(w.rank, order, edges)
            for name, cert in hits:
                if name not in best or key < best[name][0]:
                    best[name] = (key, edges, cert)
        for name, hit in best.items():
            witness = None if hit is None else Witness(AGraph(w.rank, k, 0, hit[1]), hit[2])
            found[name] = (k, witness)
            pending.remove(name)
    return found


def _require_simple_elements(rank: int) -> None:
    """F_1 and all its finite-index subgroups are infinite cyclic, with no
    simple element, so d_simp and the d_fill interval it closes are
    undefined below rank 2; d_prim is not."""
    if rank < 2:
        raise UnsupportedInputError(f"d_simp needs rank >= 2, got rank {rank}")


def d_prim(
    w: CyclicWord,
    max_index: int | None = None,
    max_partitions: int | None = None,
) -> tuple[int, Witness]:
    """Least index of a subgroup holding w as a primitive element, with a
    witness quotient graph of that many vertices."""
    found = _scan_quotients(w, ("prim",), max_index, max_partitions)
    if "prim" not in found:
        raise ResourceGuardError("d_prim not reached within max_index")
    return found["prim"]


def d_simp(
    w: CyclicWord,
    max_index: int | None = None,
    max_partitions: int | None = None,
) -> tuple[int, Witness]:
    """Least index of a subgroup holding w as a simple element."""
    _require_simple_elements(w.rank)
    found = _scan_quotients(w, ("simp",), max_index, max_partitions)
    if "simp" not in found:
        raise ResourceGuardError("d_simp not reached within max_index")
    return found["simp"]


def index_report(
    w: CyclicWord,
    max_index: int | None = None,
    max_partitions: int | None = None,
) -> IndexReport:
    """One scan computing d_prim, d_simp, and the d_fill interval;
    max_partitions caps its search steps (edge choices tried)."""
    _require_simple_elements(w.rank)
    found = _scan_quotients(w, _INDEXES, max_index, max_partitions)
    if len(found) < len(_INDEXES):
        raise ResourceGuardError("index scan did not finish within caps")
    (dp, wp), (ds, ws), (dl, wl) = (found[name] for name in _INDEXES)
    return IndexReport(
        word=w,
        d_prim=dp,
        d_simp=ds,
        d_fill_lower=dl,
        witnesses={"prim": wp, "simp": ws, "fill_lower": wl},
    )


# -- class-level cache --------------------------------------------------------

@lru_cache(maxsize=1 << 14)
def _class_values(
    rank: int, key: tuple[int, ...], max_partitions: int | None = None
) -> tuple[int, int, int]:
    """(d_prim, d_simp, d_fill_lower) of the class whose cyclic_class_key is
    key, from a degrees-only scan (no witness is computed) capped at
    max_partitions search steps; cache_info() gives the hit rate of
    index_values and f_table."""
    found = _scan_quotients(
        CyclicWord(key, rank), _INDEXES, max_partitions=max_partitions, witnesses=False
    )
    dp, ds, dl = (found[name][0] for name in _INDEXES)
    return dp, ds, dl


def index_values(w: CyclicWord) -> tuple[int, int, int]:
    """(d_prim, d_simp, d_fill_lower) with caching per equivalence class
    under rotation, inversion and relabeling (all three are invariant)."""
    _require_simple_elements(w.rank)
    return _class_values(w.rank, cyclic_class_key(w.letters, w.rank))


# -- tables ---------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    n: int
    f_prim: int
    f_simp: int
    f_fill_lower: int
    witness_prim: str
    witness_simp: str

    @property
    def f_fill_upper(self) -> int:
        return self.f_simp


@dataclass(frozen=True)
class IndexFunctionTable:
    rank: int
    rows: tuple[TableRow, ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "rows": [
                {
                    "n": r.n,
                    "f_prim": r.f_prim,
                    "f_simp": r.f_simp,
                    "f_fill": [r.f_fill_lower, r.f_fill_upper],
                    "witness_prim": r.witness_prim,
                    "witness_simp": r.witness_simp,
                }
                for r in self.rows
            ],
        }


def f_table(
    n_max: int,
    rank: int,
    max_partitions: int | None = None,
    jobs: int = 1,
) -> IndexFunctionTable:
    """Index-function table over root-free class representatives of each
    length; columns are running maxima so they are monotone by construction.

    jobs > 1 shards the per-word scans across processes; the monotone fold
    makes the result schedule-independent.
    """
    if n_max < 1:
        raise InvalidInputError("need n_max >= 1")
    _require_simple_elements(rank)
    per_length: list[list[CyclicWord]] = [
        list(index_candidates_exact(n, rank)) for n in range(1, n_max + 1)
    ]
    # representatives are their own class keys
    keys = [rep.letters for reps in per_length for rep in reps]
    args = ([rank] * len(keys), keys, [max_partitions] * len(keys))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(_class_values, *args, chunksize=4))
    else:
        values = list(map(_class_values, *args))
    rows: list[TableRow] = []
    fp = fs = fl = 0
    wp = ws = ""
    i = 0
    for n, reps in enumerate(per_length, start=1):
        for rep in reps:
            dp, ds, dl = values[i]
            i += 1
            if dp > fp:
                fp, wp = dp, rep.text()
            if ds > fs:
                fs, ws = ds, rep.text()
            fl = max(fl, dl)
        rows.append(
            TableRow(
                n=n,
                f_prim=fp,
                f_simp=fs,
                f_fill_lower=fl,
                witness_prim=wp,
                witness_simp=ws,
            )
        )
    return IndexFunctionTable(rank=rank, rows=tuple(rows))


# -- census scans ----------------------------------------------------------------

def first_cover(
    ws: Sequence[Word | CyclicWord], d_max: int, pred: Callable[[Word], bool]
) -> list[int | None]:
    """For each word w of ws, all of one rank: the least degree d <= d_max
    of a based cover (subgroups of index d are exactly the based degree-d
    covers) whose w-loop from the base closes and reads a dual word
    satisfying pred; None when no cover within the cap qualifies.

    The words are coded once (_letter_codes, padded to a multiple of every
    step).  Degree by degree, the rows of the words still open walk every
    cover of the degree together (_census_walk, at most _CELLS states at a
    time).  The (word, cover) pairs that close then read their dual letters
    together, one gather per letter (_read_duals), _CELLS letters at a
    time: the nonzero ones make a Word over the degree (rank - 1) + 1 dual
    letters of Schreier's formula.  Each word asks pred about its closing covers in
    census order and stops at its first yes, so pred sees, per word, what
    a scan of that word alone would; a word with its answer leaves the
    later degrees.  No graph is built."""
    ws = list(ws)
    if not ws:
        return []
    if any(len(w) == 0 for w in ws):
        raise InvalidInputError("census scans reject the trivial word")
    rank = ws[0].rank
    if any(w.rank != rank for w in ws):
        raise InvalidInputError("a census scan takes words of one rank")
    found: list[int | None] = [None] * len(ws)
    longest = max(map(len, ws))
    coded = _letter_codes([w.letters for w in ws], rank, -(-longest // _LONGEST_STEP) * _LONGEST_STEP)
    for d in range(1, d_max + 1):
        todo = [i for i, v in enumerate(found) if v is None]
        if not todo:
            break
        chunk = max(1, _CELLS // max(subgroup_count(rank, d), longest))
        for lo in range(0, len(todo), chunk):
            ids = todo[lo : lo + chunk]
            codes = coded[ids]
            (ends,), _, _, (nxt, dual, bases) = _census_walk(rank, (d,), codes)
            pending = [True] * len(ids)
            pairs = np.argwhere(ends == 0)  # (row, cover): by word, then census order
            per = max(1, _CELLS // codes.shape[1])
            for at in range(0, len(pairs), per):
                batch = pairs[at : at + per]
                batch = batch[np.array(pending)[batch[:, 0]]]
                rows, starts = batch[:, 0], bases[batch[:, 1]]
                read = _read_duals(nxt, dual, codes, rows, starts, starts)
                kept = read != 0
                letters = read[kept].tolist()
                stops = list(itertools.accumulate(kept.sum(axis=1).tolist(), initial=0))
                for row, a, b in zip(rows.tolist(), stops, stops[1:]):
                    if pending[row] and pred(Word(tuple(letters[a:b]), d * (rank - 1) + 1)):
                        pending[row] = False
                        found[ids[row]] = d
    return found


def d_prim_census_oracle(w: CyclicWord, d_max: int) -> int | None:
    """Independent oracle: least cover degree <= d_max whose traced w-loop
    closes and rewrites to a primitive dual word; None when none found."""
    return first_cover([w], d_max, is_primitive)[0]


def d_simp_census(w: CyclicWord, d_max: int) -> int | None:
    """Exact d_simp capped at d_max: least cover degree whose traced w-loop
    closes and rewrites to a simple dual word."""
    return first_cover([w], d_max, is_simple)[0]


def divisibility(g: Word, d_max: int) -> int | None:
    """Least degree <= d_max of a based cover whose traced g-path does not
    close (a subgroup avoiding g); None if every cover contains g."""
    if len(g) == 0:
        raise InvalidInputError("census scans reject the trivial word")
    for d in range(1, d_max + 1):
        if _census_walk(g.rank, (d,), [g.letters])[0][0].any():
            return d
    return None


def commutator_witness(w: Word) -> Word:
    """The commutator [w, w^a] for the first basis letter a not commuting
    with w; nontrivial, never a proper power, length <= 4|w| + 4."""
    if w.is_trivial():
        raise InvalidInputError("need a nontrivial word")
    for g in range(1, w.rank + 1):
        a = Word((g,), w.rank)
        if concat(w, a, w.inverse(), a.inverse()).letters:
            conj = concat(a.inverse(), w, a)
            gamma = concat(w, conj, w.inverse(), conj.inverse())
            if len(gamma) > 4 * len(w) + 4:
                raise InvalidInputError(
                    f"commutator witness of length {len(gamma)} exceeds 4|w| + 4"
                )
            return gamma
    raise InvalidInputError("word commutes with every generator")
