"""Free-group word arithmetic over a fixed rank-N basis.

A letter is a nonzero int: +i is the i-th generator, -i its inverse, for
1 <= i <= rank.  Words are immutable and always freely reduced; cyclic
words are additionally cyclically reduced and stored with a fixed rotation.

Text syntax: generators a_1..a_N print as a..z, inverses as A..Z
("abAB" = a b a^-1 b^-1).  Ranks above 26 use "x3"/"X3" index tokens.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import add, neg
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInputError

_ASCII_A = ord("a")


@lru_cache(maxsize=None)
def alphabet(rank: int) -> tuple[int, ...]:
    """All 2N letters in display order."""
    out: list[int] = []
    for g in range(1, rank + 1):
        out.extend((g, -g))
    return tuple(out)


_LETTER_TYPES = frozenset((int, bool))


@lru_cache(maxsize=None)
def _letter_set(rank: int) -> frozenset[int]:
    return frozenset(alphabet(rank))


def _check_letters(letters: Iterable[int], rank: int) -> tuple[int, ...]:
    """The letters as a tuple, after checking each is a nonzero int of
    absolute value <= rank; the per-letter loop runs only to name the first
    bad letter."""
    ls = tuple(letters)
    # types first: the value test would let 1.0 through, and fails on unhashables
    if _LETTER_TYPES.issuperset(map(type, ls)) and _letter_set(rank).issuperset(ls):
        return ls
    for x in ls:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise InvalidInputError(f"letter {x!r} out of range for rank {rank}")
    return ls


def _trusted(cls, letters: tuple[int, ...], rank: int):
    """A Word or CyclicWord built without checks, for letters derived from
    an already validated word; the result must satisfy cls's checks."""
    w = object.__new__(cls)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "rank", rank)
    return w


# _TEXT_BYTES[x] is the character of letter x, for 0 < |x| <= 26: negative
# indices count from the end, where the capitals stand in reverse order
_TEXT_BYTES = b"`" + bytes(range(_ASCII_A, _ASCII_A + 26)) + bytes(range(ord("Z"), 64, -1))


def letters_to_text(letters: Sequence[int], rank: int) -> str:
    """The text syntax of the letters.  Up to rank 26 each letter maps to
    one byte, so the text costs about two bytes per letter to build."""
    if rank <= 26:
        return bytes(map(_TEXT_BYTES.__getitem__, letters)).decode("ascii")
    return "".join(f"x{x}" if x > 0 else f"X{-x}" for x in letters)


def text_to_letters(text: str, rank: int) -> list[int]:
    """Parse the text syntax into raw letters (no free reduction applied):
    ASCII letters at rank <= 26, else x/X tokens with ASCII digits."""
    out: list[int] = []
    if rank <= 26:
        for ch in text:
            if ch.isspace():
                continue
            if not (ch.isascii() and ch.isalpha()):
                raise InvalidInputError(f"bad character {ch!r} in word")
            idx = ord(ch.lower()) - _ASCII_A + 1
            if idx > rank:
                raise InvalidInputError(f"letter {ch!r} exceeds rank {rank}")
            out.append(idx if ch.islower() else -idx)
        return out
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in ("x", "X"):
            raise InvalidInputError(f"expected x/X token at position {i}")
        j = i + 1
        while j < len(text) and text[j].isascii() and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise InvalidInputError(f"missing generator index at position {i}")
        idx = int(text[i + 1 : j])
        if not 1 <= idx <= rank:
            raise InvalidInputError(f"generator index {idx} is out of range 1..{rank}")
        out.append(idx if ch == "x" else -idx)
        i = j
    return out


def reduce_letters(raw: Iterable[int]) -> tuple[int, ...]:
    """Stack-based free reduction of a raw letter sequence."""
    stack: list[int] = []
    for x in raw:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word. Construct unreduced input via free_reduce()."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        ls = _check_letters(self.letters, self.rank)
        object.__setattr__(self, "letters", ls)
        if 0 in map(add, ls, ls[1:]):  # some letter cancels the next
            raise InvalidInputError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        return letters_to_text(self.letters, self.rank)

    def inverse(self) -> "Word":
        return _trusted(Word, tuple(map(neg, reversed(self.letters))), self.rank)

    def is_trivial(self) -> bool:
        return not self.letters

    @staticmethod
    def parse(text: str, rank: int) -> "Word":
        return free_reduce(text_to_letters(text, rank), rank)


@dataclass(frozen=True, slots=True)
class CyclicWord:
    """A cyclically reduced word with a fixed stored rotation.

    Equality is rotation-sensitive; use min_rotation() or cyclic_class_key()
    for conjugacy-class comparisons.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        ls = _check_letters(self.letters, self.rank)
        object.__setattr__(self, "letters", ls)
        if 0 in map(add, ls, ls[1:]):
            raise InvalidInputError("cyclic word is not freely reduced")
        if len(ls) >= 2 and ls[0] == -ls[-1]:
            raise InvalidInputError("cyclic word is not cyclically reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        return letters_to_text(self.letters, self.rank)

    def word(self) -> Word:
        return _trusted(Word, self.letters, self.rank)

    def inverse(self) -> "CyclicWord":
        return _trusted(CyclicWord, tuple(map(neg, reversed(self.letters))), self.rank)

    def rotations(self) -> Iterator[tuple[int, ...]]:
        n = len(self.letters)
        dbl = self.letters + self.letters
        for r in range(n):
            yield dbl[r : r + n]

    def min_rotation(self) -> tuple[int, ...]:
        return min(self.rotations()) if self.letters else ()

    @staticmethod
    def parse(text: str, rank: int) -> "CyclicWord":
        return cyclic_reduce(Word.parse(text, rank))[1]


def free_reduce(raw: Sequence[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence into a Word."""
    ls = _check_letters(raw, rank)
    return _trusted(Word, reduce_letters(ls) if 0 in map(add, ls, ls[1:]) else ls, rank)


def concat(*words: Word) -> Word:
    """Freely reduced product of words over a common rank."""
    if not words:
        raise InvalidInputError("concat needs at least one word")
    rank = words[0].rank
    raw: list[int] = []
    for w in words:
        if w.rank != rank:
            raise InvalidInputError("mixed ranks in concat")
        raw.extend(w.letters)
    return free_reduce(raw, rank)


def cyclic_reduce(w: Word | CyclicWord) -> tuple[Word, CyclicWord]:
    """Split w = c · core · c^-1 with core cyclically reduced.

    Returns (conjugator c, core).  The empty word yields two empties.
    """
    ls, n = w.letters, len(w.letters)
    k = _peel_length(ls)
    return _trusted(Word, ls[:k], w.rank), _trusted(CyclicWord, ls[k : n - k], w.rank)


def _peel_length(ls: Sequence[int]) -> int:
    """The length k of the conjugator c in ls = c · core · c^-1, for
    freely reduced letters ls with core cyclically reduced."""
    n = len(ls)
    k = 0
    while n - 2 * k >= 2 and ls[k] == -ls[n - 1 - k]:
        k += 1
    return k


def iota_length(w: Word) -> int:
    """Length of the maximal initial segment cancelling against the tail."""
    return len(cyclic_reduce(w)[0])


def is_proper_power(w: CyclicWord) -> tuple[bool, CyclicWord, int]:
    """Maximal-root decomposition w = root^exponent.

    Returns (exponent >= 2, root, exponent); the exponent divides |w|.
    """
    n = len(w)
    if n == 0:
        raise InvalidInputError("empty word has no root decomposition")
    ls = w.letters
    for p in range(1, n):
        if n % p:
            continue
        if ls == ls[:p] * (n // p):
            return True, CyclicWord(ls[:p], w.rank), n // p
    return False, w, 1


def count_reduced(n: int, rank: int) -> int:
    """Size of the sphere of freely reduced words of length exactly n."""
    if n == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (n - 1)


def _reduced_tuples(n: int, rank: int) -> Iterator[tuple[int, ...]]:
    """Letter tuples of the freely reduced words of length exactly n >= 1,
    depth first in display order (a < a^-1 < b < ...), hence sorted in it."""
    if n < 1 or rank < 1:
        raise InvalidInputError("need n >= 1 and rank >= 1")
    ab = alphabet(rank)
    follow = {x: tuple(y for y in ab if y != -x) for x in ab}
    stack = [(x,) for x in reversed(ab)]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            yield prefix
        elif len(prefix) == n - 1:
            for y in follow[prefix[-1]]:
                yield prefix + (y,)
        else:
            stack.extend([prefix + (y,) for y in reversed(follow[prefix[-1]])])


def enumerate_reduced(n: int, rank: int) -> Iterator[Word]:
    """All freely reduced words of length exactly n, lexicographic in
    display order (a < a^-1 < b < ...)."""
    for ls in _reduced_tuples(n, rank):
        yield Word(ls, rank)


def enumerate_cyclically_reduced(n: int, rank: int) -> Iterator[CyclicWord]:
    """All cyclically reduced words of length exactly n, in the order of
    enumerate_reduced."""
    for ls in _reduced_tuples(n, rank):
        if n == 1 or ls[0] != -ls[-1]:
            yield CyclicWord(ls, rank)


def _letter(code: int) -> int:
    """Inverse of the display code 2(|x| - 1) + (x < 0): a, A, b, B, ... are
    0, 1, 2, 3, ..., so comparing code tuples compares in display order."""
    return -(code // 2 + 1) if code & 1 else code // 2 + 1


def _display_codes(letters: Sequence[int]) -> list[int]:
    """The display code of each letter, which _letter inverts; code ^ 1 is
    the inverse letter's."""
    return [2 * x - 2 if x > 0 else -2 * x - 1 for x in letters]


def _longest_run_starts(base: tuple[int, ...]) -> list[int]:
    """Rotations of a cyclic word that begin with one of its longest runs
    of a repeated letter (all of them, as [0], for a power of one letter)."""
    n = len(base)
    starts = [r for r in range(n) if base[r - 1] != base[r]]
    if not starts:
        return [0]
    lengths = []
    for r in starts:
        e = r + 1
        while base[e % n] == base[r]:
            e += 1
        lengths.append(e - r)
    longest = max(lengths)
    return [r for r, k in zip(starts, lengths) if k == longest]


def cyclic_class_key(letters: Sequence[int], rank: int) -> tuple[int, ...]:
    """Canonical representative of a cyclic word's class under rotation,
    inversion and relabeling; minimal in display order (a < a^-1 < b < ...)
    over the orbit.

    For a fixed rotation and orientation the least relabeling is forced:
    each generator gets the next unused generator, in order of first
    occurrence, with the sign of that occurrence.  Its display codes open
    with as many zeros as the rotation's leading run is long, so only
    rotations that start a longest run are compared, not 2^N N! 2n.
    """
    n = len(letters)
    if n == 0:
        return ()
    full = 2 * len({abs(x) for x in letters})
    best: tuple[int, ...] | None = None
    for base in (tuple(letters), tuple([-x for x in reversed(letters)])):
        dbl = base + base
        for r in _longest_run_starts(base):
            seq = dbl[r : r + n]
            codes: dict[int, int] = {}
            for x in seq:
                if x not in codes:
                    k = len(codes)
                    codes[x], codes[-x] = k, k + 1
                    if k + 2 == full:
                        break
            cand = tuple(map(codes.__getitem__, seq))
            if best is None or cand < best:
                best = cand
    return tuple([_letter(c) for c in best])  # type: ignore[union-attr]


def _is_class_key(codes: Sequence[int], lead: int) -> bool:
    """Is the leaf with these display codes its own cyclic_class_key?
    The leaf's forced relabeling is the identity, it opens with a run of
    lead a's and no run in it is longer.  For each orientation and each
    other rotation that opens a run of lead letters, the forced relabeling
    is built letter by letter against codes: the first smaller code
    answers no, the first larger one moves on to the next rotation."""
    n = len(codes)
    starts, s = [], 0
    for i in range(1, n + 1):  # no run wraps: only a one-run necklace ends in a
        if i == n or codes[i] != codes[s]:
            if i - s == lead:
                starts.append(s)
            s = i
    # a run at s of the leaf opens the inverse at n - s - lead; the leaf
    # itself (rotation 0, forward) is skipped
    inverse = [c ^ 1 for c in reversed(codes)]
    for base, rotations in (
        (codes, starts[1:]), (inverse, [n - s - lead for s in starts])
    ):
        dbl = base + base
        for r in rotations:
            relabel: dict[int, int] = {}
            for x, want in zip(islice(dbl, r, None), codes):
                c = relabel.get(x)
                if c is None:
                    c = relabel[x] = len(relabel)
                    relabel[x ^ 1] = c + 1
                if c != want:
                    if c < want:
                        return False
                    break
    return True


def class_representatives(
    n: int, rank: int, skip_powers: bool
) -> Iterator[CyclicWord]:
    """One cyclically reduced word of length exactly n per rotation/
    inversion/relabeling class (its cyclic_class_key), in display order;
    skip_powers drops the classes of proper powers.

    Orderly generation: a class key is its own least rotation, a necklace
    in display codes, so the prefixes of keys are grown letter by letter
    by the prenecklace rule of Fredricksen-Kessler-Maiorana (a code may not
    fall below the code one period back; Ruskey, Savage and Wang 1992),
    starting at a and skipping free cancellations.  A key's forced
    relabeling is the identity, so its generators first appear positive and
    in order: after `used` generators only codes below 2 used + 1 are tried.
    A key opens with one of the longest runs of one letter, relabeled to a,
    so no run in it is longer than its leading run of a: a prefix whose
    last run outgrows the leading run is dropped (a prefix of a's only is
    still growing its leading run).  Only the necklaces (Lyndon words when
    skip_powers) that are cyclically reduced and pass the run rule reach
    the leaf test, a minimality test against each rival relabeling that
    stops at the first letter where the two differ (McKay 1998).
    """
    if n < 1 or rank < 1:
        raise InvalidInputError("need n >= 1 and rank >= 1")
    top = 2 * rank
    a = [0] * n
    # (position t, period p of the prenecklace a[:t], least code at t,
    # generators in a[:t], length of its leading run, length of its last run)
    stack = [(1, 1, 0, 1, 1, 1)]
    while stack:
        t, p, c, used, lead, run = stack.pop()
        if t == n:
            necklace = p == n if skip_powers else n % p == 0
            if necklace and a[0] != a[-1] ^ 1 and _is_class_key(a, lead):
                yield CyclicWord(tuple([_letter(x) for x in a]), rank)
            continue
        c = max(c, a[t - p])
        # skip a free cancellation, and a repeat that would make the last
        # run outgrow the leading run once that has ended (lead < t)
        while c == a[t - 1] ^ 1 or (c == a[t - 1] and run == lead < t):
            c += 1
        if c < min(top, 2 * used + 1):
            a[t] = c
            stack.append((t, p, c + 1, used, lead, run))
            same = c == a[t - 1]
            stack.append((
                t + 1, p if c == a[t - p] else t + 1, 0, max(used, c // 2 + 1),
                lead + (same and lead == t), run + 1 if same else 1,
            ))


def index_candidates_exact(n: int, rank: int) -> Iterator[CyclicWord]:
    """One representative per rotation/inversion/relabeling class of the
    root-free cyclically reduced words of length exactly n."""
    return class_representatives(n, rank, skip_powers=True)


def subword_count(sigma: Word, w: Word) -> int:
    """Occurrences (overlapping allowed) of sigma as a factor of w."""
    m, n = len(sigma), len(w)
    if m == 0:
        raise InvalidInputError("empty query word")
    if m > n:
        return 0
    if w.rank <= 26:
        hay, needle = w.text(), sigma.text()
        count = pos = 0
        while True:
            pos = hay.find(needle, pos)
            if pos < 0:
                return count
            count += 1
            pos += 1
    count = 0
    ls, ss = w.letters, sigma.letters
    for i in range(n - m + 1):
        if ls[i : i + m] == ss:
            count += 1
    return count


@dataclass(frozen=True)
class WordStats:
    length: int
    iota_length: int
    subword_counts: dict[str, int]


def word_stats(w: Word) -> WordStats:
    """Length, cancellation-tail length, and the factor counts of every
    freely reduced length-2 word of w's rank (none when w is trivial)."""
    queries = enumerate_reduced(2, w.rank) if len(w) >= 1 else ()
    counts = {q.text(): subword_count(q, w) for q in queries}
    return WordStats(length=len(w), iota_length=iota_length(w), subword_counts=counts)
