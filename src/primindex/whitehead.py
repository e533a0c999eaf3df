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
    _peel_length,
    _trusted,
    alphabet,
    count_reduced,
    cyclic_reduce,
    free_reduce,
    letters_to_text,
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
        # bit 0 of a tag's index puts the generator |x| in A, bit 1 its inverse
        tag = TAGS.index(self.tags[abs(x) - 1])  # type: ignore[index]
        bits = tag if x > 0 else _INVERSE_TAG[tag]
        return _second_kind_image(x, a, bits)  # type: ignore[arg-type]

    def to_json(self) -> dict:
        if self.kind == "first":
            return {"kind": "first", "permutation": list(self.perm)}  # type: ignore[arg-type]
        return {
            "kind": "second",
            "multiplier": self.multiplier,
            "actions": list(self.tags),  # type: ignore[arg-type]
        }


_INVERSE_TAG = (0, 2, 1, 3)  # the A-bits of x^-1 from those of x: swap bits 0 and 1


def _second_kind_image(y: int, a: int, bits: int) -> tuple[int, ...]:
    """The image of a letter y other than a^+-1 under the second-kind
    automorphism (A, a), where bit 0 of bits says y is in A and bit 1 that
    y^-1 is: y -> (a^-1 if y^-1 in A) y (a if y in A).  Tags id, right,
    left and conj give the bits 0, 1, 2 and 3 for a generator y."""
    if bits == 0:
        return (y,)
    if bits == 1:
        return (y, a)
    if bits == 2:
        return (-a, y)
    return (-a, y, a)


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
        pairs = [h for h in range(1, rank + 1) if h != abs(a)]
        for i in range(1, 4 ** (rank - 1)):  # entry 0 is the identity
            yield _second_kind_at(rank, a, i, pairs)


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
    ends: dict[int, int], g: int, pairs: Sequence[int]
) -> Iterator[tuple[int, list[int]]]:
    """For the multipliers a = g, g^-1: cut(A) for each tag assignment of
    the generator pairs in pairs (other pairs tagged id), in enumeration
    order; entry 0 is the identity.

    A holds a, x for each pair tagged right or conj and x^-1 for each pair
    tagged left or conj; the automorphism changes the cyclic length of w by
    cut(A) - deg(a) (Lyndon-Schupp, ch. I.4)."""
    part = [0]
    for h in pairs:
        e, f = ends[h], ends[-h]
        adds = (0, e, f, e ^ f)  # tags id, right, left, conj
        part = [p ^ s for p in part for s in adds]
    for a in (g, -g):
        ea = ends[a]
        yield a, [(ea ^ p).bit_count() for p in part]


def _second_kind_at(rank: int, a: int, i: int, pairs: Sequence[int]) -> WhiteheadAut:
    """Entry i of _cuts for multiplier a over pairs: the base-4 digits of
    i are the TAGS indices of those pairs, the first pair most significant;
    every other pair is tagged id."""
    tags = ["id"] * rank
    for h in reversed(pairs):
        i, k = divmod(i, 4)
        tags[h - 1] = TAGS[k]
    return WhiteheadAut(rank, "second", multiplier=a, tags=tuple(tags))


def _first_reducing(cw: CyclicWord) -> WhiteheadAut | None:
    """The first second-kind automorphism in enumeration order that shortens
    cw cyclically, scored by its Whitehead-graph cut; None if cw is
    Whitehead minimal.

    Only the pairs of generators in cw are expanded: an absent pair has no
    junctions, so its tag never changes a cut, and the first shortening
    entry of the full enumeration tags it id."""
    rank = cw.rank
    ends = _junction_ends(cw)
    present = [g for g in range(1, rank + 1) if ends[g]]
    for g in present:
        d = ends[g].bit_count()
        pairs = [h for h in present if h != g]
        for a, cuts in _cuts(ends, g, pairs):
            if min(cuts) < d:
                i = next(i for i, c in enumerate(cuts) if c < d)
                return _second_kind_at(rank, a, i, pairs)
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
        image = peel(_trusted(Word, apply_letters(t, cw.letters), rank))
        if len(image) >= len(cw):
            raise RuntimeError(f"{t} picked to shorten {cw.text()} does not shorten it")
        cw = image
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


def _whitehead_masks(letters: tuple[int, ...], rank: int) -> list[int]:
    """Whitehead graph of the cyclic word as 2N adjacency bitmasks over the
    display codes 2(|x| - 1) + (x < 0) of the letters (so code ^ 1 is the
    inverse): the cyclic junction y z gives the edge {y, z^-1}, which is
    never a loop.  Each distinct junction is read once; edge multiplicities
    are dropped."""
    adj = [0] * (2 * rank)
    for y, z in set(zip(letters, letters[1:] + letters[:1])):
        u = 2 * y - 2 if y > 0 else -2 * y - 1
        v = 2 * z - 1 if z > 0 else -2 * z - 2  # the code of z^-1
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _descent_step(letters: tuple[int, ...], rank: int) -> tuple[int, int] | None:
    """A Whitehead automorphism (A, x) that shortens the cyclic word, which
    uses every generator, as the code of x and the bitmask of A over the
    letter codes; None when its Whitehead graph G is connected with no cut
    vertex.

    For each vertex x in code order, let R be the component of x^-1 in
    G - x.  If x has a neighbour outside R, the automorphism (A, x) with
    A = V - R (so x in A, x^-1 not in A) has cut(A) = edges(x, R) < deg(x),
    so it shortens the word cyclically.  If G is connected, such an x is
    exactly a cut vertex (every other component of G - x touches x).  If G
    is disconnected, any x whose component misses x^-1 qualifies, with cut
    0; one exists, since a component closed under inversion would hold
    every letter of the word.  If G is connected with no cut vertex,
    R = V - x for every x and no step exists (Whitehead's cut-vertex
    lemma)."""
    adj = _whitehead_masks(letters, rank)
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
            return x, full & ~seen
    return None


def _apply_step(letters: tuple[int, ...], rank: int, x: int, in_a: int) -> tuple[int, ...]:
    """The cyclically reduced image of a cyclic word under the step (A, x)
    of _descent_step, A given as the bitmask in_a over the letter codes:
    each letter's image is read from a table over the 2N letters, then
    the image is freely reduced on a stack and trimmed to its cyclic core."""
    a = _letter(x)
    images = {}
    for c in range(2 * rank):
        y = _letter(c)
        bits = 0 if c >> 1 == x >> 1 else (in_a >> c & 1) | (in_a >> (c ^ 1) & 1) << 1
        images[y] = _second_kind_image(y, a, bits)
    image = reduce_letters(itertools.chain.from_iterable(map(images.__getitem__, letters)))
    k = _peel_length(image)
    return image[k : len(image) - k]


def _uses_every_generator(letters: tuple[int, ...], rank: int) -> bool:
    return len(set(map(abs, letters))) == rank


def _has_lone_generator(letters: tuple[int, ...]) -> bool:
    """Does some generator occur exactly once (as itself or its inverse)?
    Then the word is primitive: if x occurs once in w = x u, then
    {w} and the basis without x form a basis (Nielsen; Lyndon-Schupp,
    ch. I.2)."""
    gens = list(map(abs, letters))
    return 1 in map(gens.count, set(gens))


def _descend(letters: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """descend on the letters of a cyclically reduced word, with no
    automorphism or word object per step."""
    while _uses_every_generator(letters, rank):
        step = _descent_step(letters, rank)
        if step is None:
            break
        image = _apply_step(letters, rank, *step)
        if len(image) >= len(letters):
            raise RuntimeError(
                f"descent step (A={step[1]:b}, x={_letter(step[0])}) does not shorten "
                f"{letters_to_text(letters, rank)}"
            )
        letters = image
    return letters


def descend(cw: CyclicWord) -> CyclicWord:
    """Stallings' descent: apply _descent_step until cw omits a generator
    or its Whitehead graph is connected with no cut vertex.  A cyclically
    reduced word of rank >= 2 that uses every generator and stops there
    lies in no proper free factor (Whitehead 1936, Stallings 1999), so the
    descent reaches a missing generator iff cw is simple; the word it
    reaches is an automorphic image of cw, so it is primitive iff cw is."""
    letters = _descend(cw.letters, cw.rank)
    return cw if letters is cw.letters else _trusted(CyclicWord, letters, cw.rank)


def _in_used_generators(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The letters renamed into the free factor of the generators they use,
    which become the first ones in their order, and that factor's rank."""
    used = sorted(set(map(abs, letters)))
    if used[-1] == len(used):  # already the first generators
        return letters, len(used)
    new = {g: i for i, g in enumerate(used, start=1)}
    return tuple([new[x] if x > 0 else -new[-x] for x in letters]), len(used)


def is_primitive(w: Word | CyclicWord) -> bool:
    """Is w part of some free basis?  Primitivity in F_N is primitivity in
    the free factor of the generators w uses, so w is renamed into that
    factor and descends there, again after each descent that drops a
    generator.  A word in which some generator occurs once is primitive
    (Nielsen's lemma; Lyndon-Schupp, ch. I.2), which is checked after
    each renaming; in rank 1 that is the whole answer."""
    if not w.letters:
        raise InvalidInputError("the trivial word is not primitive")
    letters = cyclic_reduce(w)[1].letters
    while True:
        letters, rank = _in_used_generators(letters)
        if _has_lone_generator(letters):
            return True
        if rank == 1:
            return False
        letters = _descend(letters, rank)
        if _uses_every_generator(letters, rank):
            return False


def is_simple(w: Word | CyclicWord) -> bool:
    """Is w inside a proper free factor?  In rank >= 2 a word in which some
    generator occurs once is primitive (Nielsen's lemma; Lyndon-Schupp,
    ch. I.2), so simple; otherwise w is simple iff the descent of its
    cyclic reduction reaches a word that omits a generator.  F_1 has no
    simple element."""
    if not w.letters:
        raise InvalidInputError("the trivial word is not simple")
    cw = cyclic_reduce(w)[1]
    if w.rank >= 2 and _has_lone_generator(cw.letters):
        return True
    return not _uses_every_generator(_descend(cw.letters, w.rank), w.rank)


def has_cut_vertex(w: CyclicWord) -> bool:
    """Does the Whitehead graph of w, on all 2N letters, have a cut vertex:
    is it disconnected, or does removing one vertex disconnect it?  A
    generator absent from w leaves two isolated letters, so missing
    generators make this True by design; otherwise it is True iff a
    descent step exists."""
    if len(w) == 0:
        raise InvalidInputError("need a nonempty cyclic word")
    ls = w.letters
    return not _uses_every_generator(ls, w.rank) or _descent_step(ls, w.rank) is not None


def rauzy3_full(w: CyclicWord) -> bool:
    """Do the cyclic factors of w and w^-1 exhaust all freely reduced
    length-3 words?  If so, w is filling (level-3 subword certificate).
    w and w^-1 have at most |w| cyclic 3-factors each, so a word shorter
    than half their number is answered before any factor is read; a longer
    one is decided by rauzy3_array."""
    if len(w) == 0:
        raise InvalidInputError("need a nonempty cyclic word")
    if w.rank < 1:
        raise InvalidInputError("rank must be >= 1")
    return 2 * len(w) >= count_reduced(3, w.rank) and rauzy3_array(np.array(w.letters), w.rank)


_MARKED_AT_ONCE = 1 << 16  # triple codes turned into mask indices at a time


def rauzy3_linear(u: np.ndarray, rank: int) -> bool:
    """Do the length-3 factors of u and of u^-1 exhaust all freely reduced
    length-3 words?  u is a signed-letter array of the given rank, which
    the caller has checked to be freely reduced; when u is a subword of a
    cyclic word w, a True answer certifies w as rauzy3_full(w) would.

    Each factor is coded in base 2 rank + 1 in the smallest integer type
    that holds every code, and marked in one mask, whose count is compared
    with the number of freely reduced length-3 words."""
    if rank < 1:
        raise InvalidInputError("rank must be >= 1")
    if len(u) and (u.min() < -rank or u.max() > rank or not u.all()):
        raise InvalidInputError(f"letters must be nonzero and within -{rank}..{rank}")
    base = 2 * rank + 1
    top = base**3 - 1
    d = u.astype(np.min_scalar_type(-top - 1))
    d += rank  # letter codes 0 .. 2 rank; the inverse letter's is 2 rank minus it
    x, y, z = d[:-2], d[1:-1], d[2:]
    seen = np.zeros(base**3, dtype=bool)
    for first, last in ((x, z), (z, x)):
        codes = (first * base + y) * base + last
        if first is z:  # the inverse of x y z is Z Y X, coded top - code(z y x)
            np.subtract(top, codes, out=codes)
        for lo in range(0, len(codes), _MARKED_AT_ONCE):
            seen[codes[lo : lo + _MARKED_AT_ONCE]] = True
    return int(np.count_nonzero(seen)) == count_reduced(3, rank)


def rauzy3_array(u: np.ndarray, rank: int) -> bool:
    """rauzy3_full on a cyclically reduced word of the given rank held as
    a signed-letter array, which the caller has checked to be cyclically
    reduced: rauzy3_linear on u followed by its first two letters."""
    if len(u) == 0:
        raise InvalidInputError("need a nonempty cyclic word")
    linear = rauzy3_linear(np.concatenate([u, u[:2]]), rank)
    return len(u) >= 3 and linear


_ORBIT_BUDGET = 50000  # cyclic words the orbit closure may visit


def orbit_min_oracle(w: Word | CyclicWord) -> CyclicWord:
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
                if len(seen) > _ORBIT_BUDGET:
                    raise ResourceGuardError("orbit closure exceeded budget")
                nxt.append(key)
                if (len(key), key) < (len(best), best):
                    best = key
        frontier = nxt
    return CyclicWord(best, rank)
