import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primindex import words
from primindex.errors import InvalidInputError
from primindex.words import (
    CyclicWord,
    Word,
    alphabet,
    class_representatives,
    concat,
    count_reduced,
    cyclic_class_key,
    cyclic_reduce,
    enumerate_cyclically_reduced,
    enumerate_reduced,
    free_reduce,
    index_candidates_exact,
    is_proper_power,
    iota_length,
    subword_count,
    word_stats,
)

W = Word.parse
CW = CyclicWord.parse


# -- independent oracles ----------------------------------------------------

def naive_reduce(raw):
    ls = list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(ls) - 1):
            if ls[i] == -ls[i + 1]:
                del ls[i : i + 2]
                changed = True
                break
    return tuple(ls)


def power_oracle(cw):
    """Try every divisor exponent by explicit repetition, largest first."""
    n = len(cw)
    for e in range(n, 1, -1):
        if n % e:
            continue
        root = cw.letters[: n // e]
        if root * e == cw.letters:
            return (True, root, e)
    return (False, cw.letters, 1)


def sliding_count(sigma, w):
    m = len(sigma.letters)
    return sum(
        1
        for i in range(len(w.letters) - m + 1)
        if w.letters[i : i + m] == sigma.letters
    )


def display_codes(letters):
    return tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in letters)


def class_key_oracle(letters, rank):
    """Least word in display order over every rotation of every signed
    relabeling of w and of w^-1, compared rotation by rotation."""
    ls = tuple(letters)
    n = len(ls)
    if n == 0:
        return ()
    inv = tuple(-x for x in reversed(ls))
    best, best_code = None, None
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            images = [s * g for g, s in zip(perm, signs)]
            for base in (ls, inv):
                img = tuple(images[x - 1] if x > 0 else -images[-x - 1] for x in base)
                for r in range(n):
                    cand = img[r:] + img[:r]
                    code = display_codes(cand)
                    if best_code is None or code < best_code:
                        best, best_code = cand, code
    return best


def class_representatives_oracle(n, rank):
    """The whole-sphere filter: every cyclically reduced word of length n,
    in enumeration order, that is its own class key.  A key is its own
    least rotation, so that cheaper test runs first."""
    for cw in enumerate_cyclically_reduced(n, rank):
        codes = display_codes(cw.letters)
        if any(codes[r:] + codes[:r] < codes for r in range(1, n)):
            continue
        if cw.letters == class_key_oracle(cw.letters, rank):
            yield cw


letters_f2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40)


# -- free_reduce ------------------------------------------------------------

def test_free_reduce_trivial_examples():
    assert free_reduce([1, 2, -2, 1], 2).letters == (1, 1)
    assert free_reduce([1, 2, -1], 2).letters == (1, 2, -1)
    assert free_reduce([1, -1], 2).letters == ()


def test_free_reduce_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        free_reduce([3], 2)
    with pytest.raises(InvalidInputError):
        free_reduce([0], 2)


@given(letters_f2)
def test_free_reduce_matches_naive_and_is_idempotent(raw):
    w = free_reduce(raw, 2)
    assert w.letters == naive_reduce(raw)
    assert free_reduce(w.letters, 2).letters == w.letters
    assert len(w) <= len(raw)
    assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


def test_word_constructor_rejects_unreduced():
    with pytest.raises(InvalidInputError):
        Word((1, -1), 2)


def check_letters_oracle(letters, rank):
    """The per-letter check: the first bad letter names the error."""
    for x in letters:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            return f"letter {x!r} out of range for rank {rank}"
    return None


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_check_letters_raises_the_loop_message(rank):
    import numpy

    bad = [0, rank + 1, -(rank + 1), 1.0, numpy.int64(1), "a", None]
    for x in bad:
        for letters in ((x,), (1, -1, x, 0), (rank, x)):
            expected = check_letters_oracle(letters, rank)
            assert expected is not None
            for build in (
                lambda ls: words._check_letters(ls, rank),
                lambda ls: free_reduce(ls, rank),
                lambda ls: Word(ls, rank),
                lambda ls: CyclicWord(ls, rank),
            ):
                with pytest.raises(InvalidInputError) as exc:
                    build(letters)
                assert str(exc.value) == expected
    assert words._check_letters((True, 1, -1), rank) == (True, 1, -1)
    assert Word((True, True), rank).letters == (1, 1)
    assert free_reduce([True, -1, rank], rank).letters == (rank,)


def test_derived_words_equal_their_validated_constructions():
    # cyclic_reduce, inverse(), word() and free_reduce build their results
    # without rechecking; each must pass the checks it skipped
    for rank, n_max in ((1, 4), (2, 6), (3, 4)):
        for n in range(n_max + 1):
            sphere = [Word((), rank)] if n == 0 else enumerate_reduced(n, rank)
            for w in sphere:
                conj, core = cyclic_reduce(w)
                assert conj == Word(conj.letters, rank) and type(conj) is Word
                assert core == CyclicWord(core.letters, rank)
                assert type(core) is CyclicWord
                inv = tuple(-x for x in reversed(w.letters))
                assert w.inverse() == Word(inv, rank) and type(w.inverse()) is Word
                assert core.inverse() == CyclicWord(
                    tuple(-x for x in reversed(core.letters)), rank
                )
                assert core.word() == Word(core.letters, rank)
                raw = w.letters + inv[:1] + w.letters[:2]
                assert free_reduce(raw, rank) == Word(naive_reduce(raw), rank)


# -- text syntax ------------------------------------------------------------

def test_text_roundtrip_low_rank():
    w = W("abAB", 2)
    assert w.letters == (1, 2, -1, -2)
    assert w.text() == "abAB"


def test_text_high_rank_tokens():
    w = Word((3, -11), 30)
    assert w.text() == "x3X11"
    assert Word.parse("x3X11", 30).letters == (3, -11)


def _text_by_join(letters, rank):
    """letters_to_text as a join of one-character strings, its form before
    the byte table."""
    if rank <= 26:
        return "".join(chr(96 + x) if x > 0 else chr(96 - x).upper() for x in letters)
    return "".join(f"x{x}" if x > 0 else f"X{-x}" for x in letters)


def test_letters_to_text_matches_the_join_of_characters():
    rng = random.Random(22)
    for rank in range(1, 28):
        assert words.letters_to_text((), rank) == ""
        for letters in [alphabet(rank)] + [
            tuple(rng.choice(alphabet(rank)) for _ in range(n)) for n in (1, 2, 9, 80)
        ]:
            text = words.letters_to_text(letters, rank)
            assert text == _text_by_join(letters, rank), (rank, letters)
            assert Word.parse(text, rank).letters == free_reduce(letters, rank).letters


def test_letters_to_text_takes_under_4_bytes_per_letter():
    # the text of a long word is built as bytes, not as a list with one
    # string pointer per letter
    rng = random.Random(7)
    letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(1_000_000))
    tracemalloc.start()
    try:
        text = words.letters_to_text(letters, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == len(letters) and peak < 4 * len(letters), peak


# -- cyclic_reduce ----------------------------------------------------------

def test_cyclic_reduce_examples():
    conj, core = cyclic_reduce(W("abA", 2))
    assert (conj.text(), core.text()) == ("a", "b")
    conj, core = cyclic_reduce(W("ab", 2))
    assert (conj.text(), core.text()) == ("", "ab")
    # derived: verified by reducing the sandwich
    w = W("abaBA", 2)
    conj, core = cyclic_reduce(w)
    assert concat(conj, core.word(), conj.inverse()).letters == w.letters
    assert (conj.text(), core.text()) == ("ab", "a")


def test_cyclic_reduce_empty():
    conj, core = cyclic_reduce(Word((), 2))
    assert len(conj) == 0 and len(core) == 0


@given(letters_f2)
def test_cyclic_reduce_reassembles(raw):
    w = free_reduce(raw, 2)
    conj, core = cyclic_reduce(w)
    assert len(core) == len(w) - 2 * len(conj)
    assert concat(conj, core.word(), conj.inverse()).letters == w.letters
    assert iota_length(w) == len(conj)
    assert iota_length(w) <= len(w) // 2


# -- is_proper_power --------------------------------------------------------

def test_proper_power_examples():
    assert is_proper_power(CW("aaa", 2)) == (True, CW("a", 2), 3)
    assert is_proper_power(CW("ab", 2)) == (False, CW("ab", 2), 1)
    assert is_proper_power(CW("abab", 2)) == (True, CW("ab", 2), 2)


def test_proper_power_rejects_empty():
    with pytest.raises(InvalidInputError):
        is_proper_power(CyclicWord((), 2))


def test_proper_power_matches_oracle_up_to_len_12():
    for n in range(1, 13):
        for cw in enumerate_cyclically_reduced(n, 2):
            is_p, root, e = is_proper_power(cw)
            o_is, o_root, o_e = power_oracle(cw)
            assert (is_p, root.letters, e) == (o_is, o_root, o_e)
            assert root.letters * e == cw.letters


# -- enumeration ------------------------------------------------------------

@pytest.mark.parametrize("n,rank,expected", [(1, 2, 4), (2, 2, 12), (3, 2, 36)])
def test_enumerate_reduced_counts_small(n, rank, expected):
    words = list(enumerate_reduced(n, rank))
    assert len(words) == expected == count_reduced(n, rank)
    assert len({w.letters for w in words}) == expected


@pytest.mark.parametrize("rank", [2, 3])
def test_enumerate_reduced_counts_to_8(rank):
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_reduced(n, rank)) == count_reduced(n, rank)


@pytest.mark.parametrize("rank,n_max", [(2, 6), (3, 4)])
def test_enumerate_reduced_in_display_order(rank, n_max):
    # universal_three_word, hence the witness words, reads this order
    def display(letters):
        return [(abs(x), x < 0) for x in letters]

    for n in range(1, n_max + 1):
        words = [w.letters for w in enumerate_reduced(n, rank)]
        assert len(words) == count_reduced(n, rank)
        assert all(display(u) < display(v) for u, v in zip(words, words[1:]))


def test_enumerate_index_candidates_counts():
    assert len(list(index_candidates_exact(1, 2))) == 1
    assert len(list(index_candidates_exact(2, 2))) == 1
    # the length-3 classes include the class of aab
    reps3 = list(index_candidates_exact(3, 2))
    key = cyclic_class_key((1, 1, 2), 2)
    assert any(r.letters == key for r in reps3)


def test_candidates_cover_every_class_once():
    for n in (1, 2, 3, 4):
        reps = {r.letters for r in index_candidates_exact(n, 2)}
        seen = {}
        for cw in enumerate_cyclically_reduced(n, 2):
            if is_proper_power(cw)[0]:
                continue
            seen.setdefault(cyclic_class_key(cw.letters, 2), cw)
        assert reps == set(seen.keys())


# -- subword_count ----------------------------------------------------------

def test_subword_count_examples():
    assert subword_count(W("a", 2), W("aba", 2)) == 2
    assert subword_count(W("ab", 2), W("abab", 2)) == 2
    assert subword_count(W("aa", 2), W("aaa", 2)) == 2


@given(letters_f2, st.integers(1, 3))
def test_subword_count_matches_sliding_window(raw, m):
    w = free_reduce(raw, 2)
    for sigma in enumerate_reduced(m, 2):
        assert subword_count(sigma, w) == sliding_count(sigma, w)


def test_subword_count_long_random_word():
    import random

    rng = random.Random(42)
    ls = [rng.choice([1, 2])]
    for _ in range(10_000 - 1):
        ls.append(rng.choice([y for y in alphabet(2) if y != -ls[-1]]))
    w = Word(tuple(ls), 2)
    for sigma in itertools.islice(enumerate_reduced(2, 2), 12):
        assert subword_count(sigma, w) == sliding_count(sigma, w)


def test_word_stats():
    s = word_stats(W("abA", 2))
    assert s.length == 3
    assert s.iota_length == 1
    assert s.subword_counts["ab"] == 1
    assert sum(s.subword_counts.values()) == 2  # ab, bA


# -- class keys -------------------------------------------------------------

def test_class_key_invariances():
    w = CW("aab", 2)
    k = cyclic_class_key(w.letters, 2)
    for rot in w.rotations():
        assert cyclic_class_key(rot, 2) == k
    assert cyclic_class_key(w.inverse().letters, 2) == k
    relabeled = tuple(-x for x in w.letters)  # invert both generators
    assert cyclic_class_key(relabeled, 2) == k


# -- orderly class representatives against the sphere filter -----------------

@pytest.mark.parametrize("rank,n_max", [(2, 8), (3, 5), (4, 3)])
def test_class_representatives_match_sphere_filter(rank, n_max):
    for n in range(1, n_max + 1):
        oracle = [cw.letters for cw in class_representatives_oracle(n, rank)]
        root_free = [
            ls for ls in oracle if not is_proper_power(CyclicWord(ls, rank))[0]
        ]
        for skip_powers, expected in ((False, oracle), (True, root_free)):
            grown = [cw.letters for cw in class_representatives(n, rank, skip_powers)]
            assert grown == expected, (rank, n, skip_powers)


@pytest.mark.parametrize("skip_powers", [True, False])
@pytest.mark.parametrize("rank,n_max", [(2, 8), (3, 5)])
def test_only_necklace_leaves_reach_the_class_key(monkeypatch, rank, n_max, skip_powers):
    # the generator's work bound: the leaf test runs once per cyclically
    # reduced necklace (Lyndon word) whose generators first appear positive
    # and in order (a key's forced relabeling is the identity) and in which
    # no run of one letter is longer than the leading run of a (a key opens
    # with a longest run), nothing else
    calls = []
    real = words._is_class_key
    monkeypatch.setattr(
        words,
        "_is_class_key",
        lambda codes, lead: calls.append(tuple(map(words._letter, codes))) or real(codes, lead),
    )
    for n in range(1, n_max + 1):
        calls.clear()
        list(class_representatives(n, rank, skip_powers))
        expected = []
        for cw in enumerate_cyclically_reduced(n, rank):
            codes = display_codes(cw.letters)
            rotations = [codes[r:] + codes[:r] for r in range(1, n)]
            firsts = [x for i, x in enumerate(cw.letters) if abs(x) not in map(abs, cw.letters[:i])]
            in_order = firsts == list(range(1, len(firsts) + 1))
            runs = [len(list(g)) for _, g in itertools.groupby(cw.letters)]
            runs_fit = cw.letters[0] == 1 and max(runs) <= runs[0]
            if in_order and runs_fit and all(codes <= rot for rot in rotations):
                if not (skip_powers and codes in rotations):
                    expected.append(cw.letters)
        assert calls == expected, (rank, n)


@pytest.mark.parametrize("skip_powers", [True, False])
@pytest.mark.parametrize("rank,n_max", [(2, 8), (3, 5), (4, 4)])
def test_leaf_test_matches_the_class_key_on_every_leaf(monkeypatch, rank, n_max, skip_powers):
    # the early-exit leaf test answers as comparing the leaf with its whole
    # class key does, on every leaf the generator reaches; lead is the
    # leaf's leading run, which no run in it outgrows
    leaves = []
    real = words._is_class_key
    monkeypatch.setattr(
        words, "_is_class_key", lambda codes, lead: leaves.append((list(codes), lead)) or real(codes, lead)
    )
    for n in range(1, n_max + 1):
        leaves.clear()
        list(class_representatives(n, rank, skip_powers))
        assert leaves, (rank, n)
        for codes, lead in leaves:
            ls = tuple(map(words._letter, codes))
            runs = [len(list(g)) for _, g in itertools.groupby(ls)]
            assert lead == runs[0] == max(runs), ls
            assert real(codes, lead) == (cyclic_class_key(ls, rank) == ls), ls


@pytest.mark.parametrize("rank,n_max", [(2, 7), (3, 4)])
def test_class_key_matches_oracle_on_every_word(rank, n_max):
    for n in range(1, n_max + 1):
        for cw in enumerate_cyclically_reduced(n, rank):
            assert cyclic_class_key(cw.letters, rank) == class_key_oracle(cw.letters, rank)


@st.composite
def cyclic_words_rank4(draw):
    letters = [draw(st.sampled_from(alphabet(4)))]
    for _ in range(draw(st.integers(0, 7))):
        letters.append(draw(st.sampled_from([y for y in alphabet(4) if y != -letters[-1]])))
    if len(letters) > 1 and letters[0] == -letters[-1]:
        letters.pop()
    return tuple(letters)


@settings(max_examples=40, deadline=None)
@given(cyclic_words_rank4())
def test_class_key_matches_oracle_rank_4(letters):
    assert cyclic_class_key(letters, 4) == class_key_oracle(letters, 4)


def test_class_representatives_rejects_bad_sizes():
    with pytest.raises(InvalidInputError):
        list(class_representatives(0, 2, skip_powers=True))
