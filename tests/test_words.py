import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primindex.errors import InvalidInputError
from primindex.words import (
    CyclicWord,
    Word,
    alphabet,
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


# -- text syntax ------------------------------------------------------------

def test_text_roundtrip_low_rank():
    w = W("abAB", 2)
    assert w.letters == (1, 2, -1, -2)
    assert w.text() == "abAB"


def test_text_high_rank_tokens():
    w = Word((3, -11), 30)
    assert w.text() == "x3X11"
    assert Word.parse("x3X11", 30).letters == (3, -11)


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


def test_enumerate_reduced_sharding():
    full = [w.letters for w in enumerate_reduced(4, 2)]
    shards = [
        [w.letters for w in enumerate_reduced(4, 2, start=a, stop=b)]
        for a, b in [(0, 30), (30, 75), (75, len(full))]
    ]
    assert sum(shards, []) == full


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
