"""Whitehead automorphisms: enumeration, application, greedy cyclic-length
minimization, primitivity and simplicity decisions by Stallings' descent on
the Whitehead graph (which also gives the cut-vertex test), and the level-3
subword filling certificate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidInputError, ResourceGuardError
from .words import (
    CyclicWord,
    Word,
    _letter,
    _trusted,
    alphabet,
    count_reduced,
    cyclic_reduce,
    free_reduce,
    reduce_letters,
)

TAGS = ("id", "right", "left", "conj")  # x, xa, a^-1 x, a^-1 x a


@dataclass(frozen=True, slots=True)
class WhiteheadAut:
    """First kind: a letter permutation commuting with inversion, given by
    generator images.  Second kind: a fixed multiplier with one action tag
    per generator pair (the multiplier's own pair is fixed)."""

    rank: int
    kind: str
    perm: tuple[int, ...] | None = None
    multiplier: int | None = None
    tags: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind == "first":
            if self.perm is None or sorted(abs(x) for x in self.perm) != list(
                range(1, self.rank + 1)
            ):
                raise InvalidInputError("first kind needs a signed permutation")
        elif self.kind == "second":
            if self.multiplier is None or self.tags is None:
                raise InvalidInputError("second kind needs multiplier and tags")
            if not 1 <= abs(self.multiplier) <= self.rank:
                raise InvalidInputError("multiplier out of range")
            if len(self.tags) != self.rank or any(t not in TAGS for t in self.tags):
                raise InvalidInputError("bad action tags")
            if self.tags[abs(self.multiplier) - 1] != "id":
                raise InvalidInputError("multiplier pair must be fixed")
        else:
            raise InvalidInputError(f"unknown kind {self.kind!r}")

    def inverse(self) -> "WhiteheadAut":
        if self.kind == "first":
            inv = [0] * self.rank
            for i, img in enumerate(self.perm):  # type: ignore[arg-type]
                if img > 0:
                    inv[img - 1] = i + 1
                else:
                    inv[-img - 1] = -(i + 1)
            return WhiteheadAut(self.rank, "first", perm=tuple(inv))
        return WhiteheadAut(
            self.rank,
            "second",
            multiplier=-self.multiplier,  # type: ignore[operator]
            tags=self.tags,
        )

    def letter_image(self, x: int) -> tuple[int, ...]:
        """Image of a single letter as a raw letter sequence."""
        if self.kind == "first":
            return (
                (self.perm[x - 1],) if x > 0 else (-self.perm[-x - 1],)
            )  # type: ignore[index]
        a = self.multiplier
        if abs(x) == abs(a):  # type: ignore[arg-type]
            return (x,)
        tag = self.tags[abs(x) - 1]  # type: ignore[index]
        if tag == "id":
            return (x,)
        if x > 0:
            if tag == "right":
                return (x, a)  # type: ignore[return-value]
            if tag == "left":
                return (-a, x)  # type: ignore[return-value]
            return (-a, x, a)  # type: ignore[return-value]
        if tag == "right":
            return (-a, x)  # type: ignore[return-value]
        if tag == "left":
            return (x, a)  # type: ignore[return-value]
        return (-a, x, a)  # type: ignore[return-value]

    def to_json(self) -> dict:
        if self.kind == "first":
            return {"kind": "first", "permutation": list(self.perm)}  # type: ignore[arg-type]
        return {
            "kind": "second",
            "multiplier": self.multiplier,
            "actions": list(self.tags),  # type: ignore[arg-type]
        }


def identity_aut(rank: int) -> WhiteheadAut:
    return WhiteheadAut(rank, "first", perm=tuple(range(1, rank + 1)))


def apply_letters(t: WhiteheadAut, letters: Sequence[int]) -> tuple[int, ...]:
    raw: list[int] = []
    for x in letters:
        raw.extend(t.letter_image(x))
    return reduce_letters(raw)


def apply(t: WhiteheadAut, w: Word) -> Word:
    """Freely reduced image of w; first-kind images keep the length."""
    return Word(apply_letters(t, w.letters), w.rank)


def _second_kind(rank: int) -> Iterator[WhiteheadAut]:
    for a in alphabet(rank):
        for i in range(1, 4 ** (rank - 1)):  # entry 0 is the identity
            yield _second_kind_at(rank, a, i)


def _first_kind_generators(rank: int) -> Iterator[WhiteheadAut]:
    for i in range(1, rank + 1):
        perm = list(range(1, rank + 1))
        perm[i - 1] = -i
        yield WhiteheadAut(rank, "first", perm=tuple(perm))
    for i, j in itertools.combinations(range(1, rank + 1), 2):
        perm = list(range(1, rank + 1))
        perm[i - 1], perm[j - 1] = j, i
        yield WhiteheadAut(rank, "first", perm=tuple(perm))


@lru_cache(maxsize=None)
def enumerate_whitehead(rank: int) -> tuple[WhiteheadAut, ...]:
    """The identity, generators of the letter-permutation subgroup, and all
    non-identity second-kind automorphisms (one tag assignment per choice of
    multiplier and per inversion pair of non-multiplier letters)."""
    if rank < 1:
        raise InvalidInputError("rank must be >= 1")
    return tuple(
        itertools.chain(
            (identity_aut(rank),),
            _first_kind_generators(rank),
            _second_kind(rank),
        )
    )


def conjugation_by(letter: int, rank: int) -> WhiteheadAut:
    """The inner automorphism g -> letter^-1 g letter as a second-kind
    automorphism (all pairs tagged conj)."""
    tags = tuple(
        "id" if g == abs(letter) else "conj" for g in range(1, rank + 1)
    )
    return WhiteheadAut(rank, "second", multiplier=letter, tags=tags)


def _junction_ends(cw: CyclicWord) -> dict[int, int]:
    """Whitehead graph of cw as junction sets: bit j of ends[x] is set when
    the edge {y, z^-1} of the j-th cyclic junction y z ends at letter x.

    No edge is a loop, so a vertex set A cuts junction j iff exactly one
    end lies in A: cut(A) is the popcount of the XOR of ends over A, and
    deg(x) = cut({x}) counts the letters +-x in cw."""
    letters = cw.letters
    n = len(letters)
    ends = dict.fromkeys(alphabet(cw.rank), 0)
    for j, y in enumerate(letters):
        z = letters[j + 1 - n]  # the next letter, cyclically
        bit = 1 << j
        ends[y] |= bit
        ends[-z] |= bit
    return ends


def _cuts(
    ends: dict[int, int], g: int, rank: int
) -> Iterator[tuple[int, list[int]]]:
    """For the multipliers a = g, g^-1: cut(A) for each tag assignment of
    the other pairs, in enumeration order; entry 0 is the identity.

    A holds a, x for each pair tagged right or conj and x^-1 for each pair
    tagged left or conj; the automorphism changes the cyclic length of w by
    cut(A) - deg(a) (Lyndon-Schupp, ch. I.4)."""
    part = [0]
    for h in range(1, rank + 1):
        if h != g:
            e, f = ends[h], ends[-h]
            adds = (0, e, f, e ^ f)  # tags id, right, left, conj
            part = [p ^ s for p in part for s in adds]
    for a in (g, -g):
        ea = ends[a]
        yield a, [(ea ^ p).bit_count() for p in part]


def _second_kind_at(rank: int, a: int, i: int) -> WhiteheadAut:
    """Entry i of _cuts for multiplier a: base-4 digits of i are the TAGS
    indices of the other pairs, the first pair most significant."""
    tags = ["id"] * rank
    for h in range(rank, 0, -1):
        if h != abs(a):
            i, k = divmod(i, 4)
            tags[h - 1] = TAGS[k]
    return WhiteheadAut(rank, "second", multiplier=a, tags=tuple(tags))


def _first_reducing(cw: CyclicWord) -> WhiteheadAut | None:
    """The first second-kind automorphism in enumeration order that shortens
    cw cyclically, scored by its Whitehead-graph cut; None if cw is
    Whitehead minimal."""
    rank = cw.rank
    ends = _junction_ends(cw)
    for g in range(1, rank + 1):
        d = ends[g].bit_count()
        if not d:
            continue  # a cut is never negative
        for a, cuts in _cuts(ends, g, rank):
            if min(cuts) < d:
                i = next(i for i, c in enumerate(cuts) if c < d)
                return _second_kind_at(rank, a, i)
    return None


def minimize(w: Word | CyclicWord) -> tuple[CyclicWord, list[WhiteheadAut]]:
    """Greedy descent to a Whitehead-minimal cyclic word.

    Applies the first strictly length-reducing second-kind automorphism in
    enumeration order until none applies; the returned trace (conjugations
    for cyclic reduction interleaved with the reducing automorphisms)
    replays from w to the minimal form by word-level application.  Each
    pass scores every automorphism from the Whitehead graph of the current
    word and applies only the one it picks.
    """
    if not w.letters:
        raise InvalidInputError("the trivial word cannot be minimized")
    rank = w.rank
    trace: list[WhiteheadAut] = []

    def peel(word: Word | CyclicWord) -> CyclicWord:
        conj, core = cyclic_reduce(word)
        trace.extend(conjugation_by(c, rank) for c in conj.letters)
        return core

    cw = peel(w)
    while (t := _first_reducing(cw)) is not None:
        trace.append(t)
        # the image of a checked word under an automorphism of its rank
        cw = peel(_trusted(Word, apply_letters(t, cw.letters), rank))
    return cw, trace


def replay_trace(w: Word, trace: Sequence[WhiteheadAut]) -> Word:
    """Apply the automorphisms of trace to w in order.  A run of
    conjugations by c_1, ..., c_k is applied once, as conjugation by
    c_1 ... c_k, so replaying a long peeled conjugator takes linear time."""
    run: list[int] = []
    for t in trace:
        if t.kind == "second" and t == conjugation_by(t.multiplier, t.rank):  # type: ignore[arg-type]
            run.append(t.multiplier)  # type: ignore[arg-type]
            continue
        if run:
            w = _conjugate(w, run)
            run = []
        w = apply(t, w)
    return _conjugate(w, run) if run else w


def _conjugate(w: Word, u: Sequence[int]) -> Word:
    """u^-1 w u, freely reduced."""
    return free_reduce([-x for x in reversed(u)] + list(w.letters) + list(u), w.rank)


def _whitehead_masks(cw: CyclicWord) -> list[int]:
    """Whitehead graph of cw as 2N adjacency bitmasks over the display
    codes 2(|x| - 1) + (x < 0) of the letters (so code ^ 1 is the inverse):
    the cyclic junction y z gives the edge {y, z^-1}, which is never a loop.
    Each distinct junction is read once; edge multiplicities are dropped."""
    ls = cw.letters
    adj = [0] * (2 * cw.rank)
    for y, z in set(zip(ls, ls[1:] + ls[:1])):
        u = 2 * y - 2 if y > 0 else -2 * y - 1
        v = 2 * z - 1 if z > 0 else -2 * z - 2  # the code of z^-1
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _descent_step(cw: CyclicWord) -> WhiteheadAut | None:
    """A Whitehead automorphism that shortens cw, which uses every
    generator, or None when its Whitehead graph G is connected with no cut
    vertex.

    For each vertex x in code order, let R be the component of x^-1 in
    G - x.  If x has a neighbour outside R, the automorphism (A, x) with
    A = V - R (so x in A, x^-1 not in A) has cut(A) = edges(x, R) < deg(x),
    so it shortens cw cyclically.  If G is connected, such an x is exactly
    a cut vertex (every other component of G - x touches x).  If G is
    disconnected, any x whose component misses x^-1 qualifies, with cut 0;
    one exists, since a component closed under inversion would hold every
    letter of cw.  If G is connected with no cut vertex, R = V - x for
    every x and no step exists (Whitehead's cut-vertex lemma)."""
    rank = cw.rank
    adj = _whitehead_masks(cw)
    full = (1 << 2 * rank) - 1
    for x in range(2 * rank):
        rest = full ^ (1 << x)
        seen = frontier = 1 << (x ^ 1)
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & rest & ~seen
            seen |= frontier
        if adj[x] & ~seen:
            a = _letter(x)
            tags = ["id"] * rank
            for h in range(1, rank + 1):
                if h != abs(a):  # right if h is in A, left if h^-1 is, or both
                    tags[h - 1] = TAGS[~seen >> (2 * h - 2) & 3]
            return WhiteheadAut(rank, "second", multiplier=a, tags=tuple(tags))
    return None


def _uses_every_generator(cw: CyclicWord) -> bool:
    return len(set(map(abs, cw.letters))) == cw.rank


def descend(cw: CyclicWord) -> CyclicWord:
    """Stallings' descent: apply _descent_step until cw omits a generator
    or its Whitehead graph is connected with no cut vertex.  A cyclically
    reduced word of rank >= 2 that uses every generator and stops there
    lies in no proper free factor (Whitehead 1936, Stallings 1999), so the
    descent reaches a missing generator iff cw is simple; the word it
    reaches is an automorphic image of cw, so it is primitive iff cw is."""
    while _uses_every_generator(cw) and (t := _descent_step(cw)) is not None:
        image = cyclic_reduce(_trusted(Word, apply_letters(t, cw.letters), cw.rank))[1]
        if len(image) >= len(cw):
            raise RuntimeError(f"descent step {t} does not shorten {cw.text()}")
        cw = image
    return cw


def _in_used_generators(cw: CyclicWord) -> CyclicWord:
    """cw renamed into the free factor of the generators it uses, which
    become the first ones in their order."""
    used = sorted(set(map(abs, cw.letters)))
    if len(used) == cw.rank:
        return cw
    new = {g: i for i, g in enumerate(used, start=1)}
    letters = tuple([new[x] if x > 0 else -new[-x] for x in cw.letters])
    return _trusted(CyclicWord, letters, len(used))


def is_primitive(w: Word | CyclicWord) -> bool:
    """Is w part of some free basis?  Primitivity in F_N is primitivity in
    the free factor of the generators w uses, so w is renamed into that
    factor and descends there, again after each descent that drops a
    generator; w is primitive iff it ends as one letter in rank 1."""
    if not w.letters:
        raise InvalidInputError("the trivial word is not primitive")
    cw = cyclic_reduce(w)[1]
    while True:
        cw = _in_used_generators(cw)
        if cw.rank == 1:
            return len(cw) == 1
        cw = descend(cw)
        if _uses_every_generator(cw):
            return False


def is_simple(w: Word | CyclicWord) -> bool:
    """Is w inside a proper free factor?  True iff the descent of its
    cyclic reduction reaches a word that omits a generator."""
    if not w.letters:
        raise InvalidInputError("the trivial word is not simple")
    return not _uses_every_generator(descend(cyclic_reduce(w)[1]))


def has_cut_vertex(w: CyclicWord) -> bool:
    """Does the Whitehead graph of w, on all 2N letters, have a cut vertex:
    is it disconnected, or does removing one vertex disconnect it?  A
    generator absent from w leaves two isolated letters, so missing
    generators make this True by design; otherwise it is True iff a
    descent step exists."""
    if len(w) == 0:
        raise InvalidInputError("need a nonempty cyclic word")
    return not _uses_every_generator(w) or _descent_step(w) is not None


def _cyclic_triples(cw: CyclicWord) -> set[tuple[int, ...]]:
    """The length-3 cyclic factors of cw and cw^-1 (none when |cw| < 3)."""
    ls = cw.letters
    if len(ls) < 3:
        return set()
    d = ls + ls[:2]
    out = set(zip(d, d[1:], d[2:]))
    return out | {(-z, -y, -x) for x, y, z in out}


def rauzy3_full(w: CyclicWord) -> bool:
    """Do the cyclic factors of w and w^-1 exhaust all freely reduced
    length-3 words?  If so, w is filling (level-3 subword certificate)."""
    if len(w) == 0:
        raise InvalidInputError("need a nonempty cyclic word")
    if w.rank < 1:
        raise InvalidInputError("rank must be >= 1")
    needed = count_reduced(3, w.rank)
    return len(_cyclic_triples(w)) == needed


def rauzy3_array(u: np.ndarray, rank: int) -> bool:
    """rauzy3_full on a cyclically reduced word of the given rank held as
    a signed-letter array, which the caller has checked to be cyclically
    reduced: each length-3 cyclic factor of u and of u^-1 is coded in base
    2 rank + 1 and marked in one mask, whose count is compared with the
    number of freely reduced length-3 words."""
    if len(u) == 0:
        raise InvalidInputError("need a nonempty cyclic word")
    if rank < 1:
        raise InvalidInputError("rank must be >= 1")
    if len(u) < 3:
        return False
    base = 2 * rank + 1
    d = np.concatenate([u, u[:2]]).astype(np.int32) + rank
    x, y, z = d[:-2], d[1:-1], d[2:]
    seen = np.zeros(base**3, dtype=bool)
    seen[(x * base + y) * base + z] = True
    top = 2 * rank  # the code of -letter is top - the code of letter
    seen[((top - z) * base + top - y) * base + top - x] = True
    return int(np.count_nonzero(seen)) == count_reduced(3, rank)


def orbit_min_oracle(w: Word | CyclicWord, budget: int = 50000) -> CyclicWord:
    """Independent minimality oracle: breadth-first closure of the conjugacy
    class under all enumerated automorphisms at non-increasing cyclic
    length; returns the lexicographically least element of minimal length."""
    if isinstance(w, Word):
        cw = cyclic_reduce(w)[1]
    else:
        cw = w
    if len(cw) == 0:
        raise InvalidInputError("the trivial word has no orbit minimum")
    rank = cw.rank
    auts = enumerate_whitehead(rank)
    start = cw.min_rotation()
    seen = {start}
    frontier = [start]
    best = start
    while frontier:
        nxt = []
        for letters in frontier:
            cur_len = len(letters)
            for t in auts:
                image = cyclic_reduce(
                    Word(apply_letters(t, letters), rank)
                )[1]
                if len(image) > cur_len:
                    continue
                key = image.min_rotation()
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > budget:
                    raise ResourceGuardError("orbit closure exceeded budget")
                nxt.append(key)
                if (len(key), key) < (len(best), best):
                    best = key
        frontier = nxt
    return CyclicWord(best, rank)
