import itertools
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primindex import whitehead
from primindex.errors import InvalidInputError
from primindex.whitehead import (
    TAGS,
    WhiteheadAut,
    _apply_step,
    _cuts,
    _descent_step,
    _has_lone_generator,
    _junction_ends,
    _second_kind_at,
    apply,
    apply_letters,
    conjugation_by,
    enumerate_whitehead,
    has_cut_vertex,
    identity_aut,
    is_primitive,
    is_simple,
    minimize,
    orbit_min_oracle,
    rauzy3_full,
    replay_trace,
)
from primindex.words import (
    CyclicWord,
    Word,
    _letter,
    alphabet,
    count_reduced,
    cyclic_reduce,
    enumerate_cyclically_reduced,
    free_reduce,
)

from path_oracles import cyclic_triples

W = Word.parse
CW = CyclicWord.parse

def words_of_rank(rank, max_size):
    return st.builds(
        lambda raw: free_reduce(raw, rank),
        st.lists(st.sampled_from(alphabet(rank)), min_size=0, max_size=max_size),
    )


words_f2 = words_of_rank(2, 12)


def cyclic_words_of_rank(rank, max_size):
    return words_of_rank(rank, max_size).map(lambda w: cyclic_reduce(w)[1]).filter(len)


def random_cyclic_word(rank, length, rng):
    while True:
        raw = [rng.choice(alphabet(rank)) for _ in range(length)]
        cw = cyclic_reduce(free_reduce(raw, rank))[1]
        if len(cw) == length:
            return cw


# -- enumeration ---------------------------------------------------------------

def test_enumeration_counts_rank2():
    auts = enumerate_whitehead(2)
    ids = [t for t in auts if t == identity_aut(2)]
    seconds = [t for t in auts if t.kind == "second"]
    firsts = [t for t in auts if t.kind == "first"]
    assert len(ids) == 1
    assert len(seconds) == 4 * 3  # 4 multipliers, 4 tag options each, minus identity
    assert len(firsts) == 1 + 3  # identity + 2 inversions + 1 transposition
    assert len(auts) == 16


def test_conjugation_is_enumerated():
    conj = conjugation_by(1, 2)
    assert conj in enumerate_whitehead(2)
    w = W("b", 2)
    assert apply(conj, w).text() == "Aba"


def test_rank1_enumeration():
    auts = enumerate_whitehead(1)
    assert len(auts) == 2  # identity and the inversion
    assert all(t.kind == "first" for t in auts)


# -- apply ----------------------------------------------------------------------

@given(words_f2)
@settings(max_examples=80)
def test_apply_inverse_roundtrip(w):
    for t in enumerate_whitehead(2):
        assert apply(t.inverse(), apply(t, w)).letters == w.letters


@given(words_f2)
@settings(max_examples=60)
def test_first_kind_preserves_length(w):
    for t in enumerate_whitehead(2):
        if t.kind == "first":
            assert len(apply(t, w)) == len(w)


def test_apply_second_kind_substitution():
    # multiplier a, action b -> ba
    t = WhiteheadAut(2, "second", multiplier=1, tags=("id", "right"))
    assert apply(t, W("b", 2)).text() == "ba"
    assert apply(t, W("B", 2)).text() == "AB"
    assert apply(t, W("a", 2)).text() == "a"


# -- minimize --------------------------------------------------------------------

def minimize_by_application(w):
    """Slow oracle for minimize: the same greedy descent, finding the first
    reducing automorphism by applying every second-kind automorphism to the
    word and measuring the cyclic length of the image."""
    if isinstance(w, CyclicWord):
        w = w.word()
    rank = w.rank
    trace = []

    def peel(word):
        while len(word) >= 2 and word.letters[0] == -word.letters[-1]:
            trace.append(conjugation_by(word.letters[0], rank))
            word = Word(word.letters[1:-1], rank)
        return CyclicWord(word.letters, rank)

    cw = peel(w)
    seconds = [t for t in enumerate_whitehead(rank) if t.kind == "second"]
    improved = True
    while improved:
        improved = False
        for t in seconds:
            image = apply_letters(t, cw.letters)
            if len(cyclic_reduce(Word(image, rank))[1]) < len(cw):
                trace.append(t)
                cw = peel(Word(image, rank))
                improved = True
                break
    return cw, trace


def cut_scores(cw):
    """(t, cut score) for every second-kind t in enumeration order."""
    ends = _junction_ends(cw)
    for g in range(1, cw.rank + 1):
        d = ends[g].bit_count()
        pairs = [h for h in range(1, cw.rank + 1) if h != g]
        for a, cuts in _cuts(ends, g, pairs):
            for i, c in enumerate(cuts[1:], start=1):
                yield _second_kind_at(cw.rank, a, i, pairs), c - d


def second_kind_by_product(rank):
    """Independent reference for the second-kind order: per multiplier in
    display order, every tag assignment of the other pairs but all-id, the
    first pair varying slowest."""
    for a in alphabet(rank):
        others = [g for g in range(1, rank + 1) if g != abs(a)]
        for combo in itertools.product(TAGS, repeat=len(others)):
            if all(t == "id" for t in combo):
                continue
            tags = ["id"] * rank
            for g, t in zip(others, combo):
                tags[g - 1] = t
            yield WhiteheadAut(rank, "second", multiplier=a, tags=tuple(tags))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_cut_scores_follow_enumeration_order(rank):
    expected = list(second_kind_by_product(rank))
    seconds = [t for t in enumerate_whitehead(rank) if t.kind == "second"]
    assert seconds == expected
    assert [t for t, _ in cut_scores(CyclicWord((1,), rank))] == expected


@pytest.mark.parametrize("rank", [2, 3, 4])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cut_score_is_cyclic_length_change(rank, data):
    cw = data.draw(cyclic_words_of_rank(rank, 14))
    for t, score in cut_scores(cw):
        image = cyclic_reduce(Word(apply_letters(t, cw.letters), rank))[1]
        assert score == len(image) - len(cw), (cw.text(), t)


@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 5)])
def test_minimize_matches_application_oracle_exhaustively(rank, max_len):
    for n in range(1, max_len + 1):
        for cw in enumerate_cyclically_reduced(n, rank):
            assert minimize(cw) == minimize_by_application(cw), cw.text()


@pytest.mark.parametrize("rank, count", [(4, 8), (5, 3), (6, 1)])
def test_minimize_matches_application_oracle_on_random_words(rank, count):
    rng = random.Random(rank)
    for _ in range(count):
        cw = random_cyclic_word(rank, 20, rng)
        assert minimize(cw) == minimize_by_application(cw), cw.text()


def omitting_word(rank, rng):
    """A random cyclic word of length 1 to 12 over a random proper subset
    of the generators, the others absent."""
    used = rng.sample(range(1, rank + 1), rng.randrange(1, rank))
    letters = [x for g in used for x in (g, -g)]
    while True:
        raw = [rng.choice(letters) for _ in range(rng.randrange(1, 13))]
        cw = cyclic_reduce(free_reduce(raw, rank))[1]
        if len(cw):
            return cw


@pytest.mark.parametrize("rank, count", [(3, 40), (4, 12), (5, 4), (6, 2)])
def test_minimize_matches_application_oracle_on_words_omitting_generators(rank, count):
    # only the pairs of generators present are expanded; the first reducing
    # automorphism of the full enumeration tags every absent pair id
    rng = random.Random(100 + rank)
    for _ in range(count):
        cw = omitting_word(rank, rng)
        assert minimize(cw) == minimize_by_application(cw), cw.text()


_MINIMIZE_RANK_27 = """
import time
from primindex.whitehead import minimize, replay_trace
from primindex.words import Word

w = Word((1, 2), 27)
start = time.perf_counter()
m, trace = minimize(w)
assert time.perf_counter() - start < 1, "minimize(ab) at rank 27 took 1 s or more"
assert len(m) == 1 and len(trace) == 1
assert all(tag == "id" for h, tag in enumerate(trace[0].tags, start=1) if h > 2)
assert replay_trace(w, trace).letters == m.letters
"""


def test_minimize_of_a_word_omitting_most_generators_is_fast():
    # expanding the tag choices of the 25 absent pairs as well needs 4^25
    # cuts per multiplier; the child runs under a 1 GB address-space limit
    # so that such a regression fails here instead of exhausting memory
    src = str(Path(whitehead.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-c", _MINIMIZE_RANK_27],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit,
    )
    assert done.returncode == 0, done.stderr


def test_minimize_examples():
    m, trace = minimize(W("a", 2))
    assert m.text() == "a" and trace == []
    m, trace = minimize(W("abA", 2))
    assert m.text() == "b"
    assert len(trace) == 1 and trace[0].kind == "second"
    m, _ = minimize(W("aabb", 2))
    assert len(m) == 4  # a^2 b^2 is already Whitehead minimal


def test_long_conjugators_are_peeled_in_linear_time():
    # a^k b a^-k: peeling one conjugator letter per slice or per Word took
    # seconds at this k
    k = 20000
    w = Word((1,) * k + (2,) + (-1,) * k, 2)
    start = time.perf_counter()
    conj, core = cyclic_reduce(w)
    assert time.perf_counter() - start < 1
    assert conj.letters == (1,) * k and core.letters == (2,)
    start = time.perf_counter()
    m, trace = minimize(w)
    assert time.perf_counter() - start < 1
    assert m.letters == (2,) and trace == [conjugation_by(1, 2)] * k
    short = Word((1,) * 50 + (2,) + (-1,) * 50, 2)
    assert replay_trace(short, minimize(short)[1]) == W("b", 2)


def replay_oracle(w, trace):
    """Apply each automorphism of the trace to the whole word in turn."""
    for t in trace:
        w = apply(t, w)
    return w


def test_replay_composes_conjugations_in_linear_time():
    # a^k b a^-k: applying each of the k peeled conjugations to the whole
    # word took 7.7 s at this k
    k = 4000
    w = Word((1,) * k + (2,) + (-1,) * k, 2)
    trace = minimize(w)[1]
    start = time.perf_counter()
    assert replay_trace(w, trace) == W("b", 2)
    assert time.perf_counter() - start < 1
    for k in range(51):
        for text in ("b", "ab", "bab", "bbA"):
            w = free_reduce((1,) * k + W(text, 2).letters + (-1,) * k, 2)
            trace = minimize(w)[1]
            assert replay_trace(w, trace) == replay_oracle(w, trace)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_replay_matches_step_by_step_on_random_words(rank):
    rng = random.Random(rank)
    for _ in range(40):
        conj = [rng.choice(alphabet(rank)) for _ in range(rng.randrange(8))]
        core = [rng.choice(alphabet(rank)) for _ in range(rng.randrange(1, 12))]
        w = free_reduce(conj + core + [-x for x in reversed(conj)], rank)
        if not len(w):
            continue
        m, trace = minimize(w)
        # a mixed trace: conjugation runs between and around other automorphisms
        mixed = [conjugation_by(x, rank) for x in conj] + trace
        mixed += [conjugation_by(rng.choice(alphabet(rank)), rank) for _ in range(3)]
        assert replay_trace(w, trace) == replay_oracle(w, trace)
        assert replay_trace(w, trace).letters == m.letters
        assert replay_trace(w, mixed) == replay_oracle(w, mixed)


def test_minimize_rejects_trivial():
    with pytest.raises(InvalidInputError):
        minimize(Word((), 2))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_minimize_result_is_whitehead_minimal(data):
    rank = data.draw(st.sampled_from([2, 3]))
    w = data.draw(words_of_rank(rank, 12).filter(len))
    m, trace = minimize(w)
    n = len(m)
    for t in enumerate_whitehead(rank):
        image = cyclic_reduce(Word(apply_letters(t, m.letters), rank))[1]
        assert len(image) >= n
    assert replay_trace(w, trace).letters == m.letters


def test_minimize_matches_oracle_small():
    for n in range(1, 5):
        for cw in enumerate_cyclically_reduced(n, 2):
            m, _ = minimize(cw)
            o = orbit_min_oracle(cw)
            assert len(m) == len(o)


# -- primitivity and simplicity ---------------------------------------------------

def test_primitive_examples():
    assert is_primitive(W("a", 2))
    assert is_primitive(W("ab", 2))
    assert not is_primitive(W("aabb", 2))


def test_generators_primitive_and_first_kind_invariance():
    for i, g in enumerate(["a", "b"], start=1):
        assert is_primitive(W(g, 2))
    w = W("abb", 2)
    for t in enumerate_whitehead(2):
        if t.kind == "first":
            assert is_primitive(apply(t, w)) == is_primitive(w)


def test_simple_examples():
    assert is_simple(W("a", 2))
    assert not is_simple(W("abAB", 2))
    assert not is_simple(W("aabb", 2))


def test_rank_1_letter_is_primitive_but_not_simple():
    # F_1 has no simple element, though a occurs once in a
    assert _has_lone_generator((1,))
    assert is_primitive(W("a", 1)) and not is_simple(W("a", 1))
    assert not is_primitive(W("aa", 1)) and not is_simple(W("aa", 1))


def minimal_form_facts(w):
    """Test-local oracle for the predicates, read from minimize's minimal
    form: (one letter, omits a generator)."""
    m, _ = minimize(w)
    return len(m) == 1, len({abs(x) for x in m.letters}) < w.rank


@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 6)])
def test_predicates_match_minimization_oracle_exhaustively(rank, max_len):
    for n in range(1, max_len + 1):
        for cw in enumerate_cyclically_reduced(n, rank):
            assert (is_primitive(cw), is_simple(cw)) == minimal_form_facts(cw), cw.text()


@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 6)])
def test_lone_generator_certifies_primitivity_exhaustively(rank, max_len):
    # Nielsen's lemma: a word in which some generator occurs once is primitive
    certified = 0
    for n in range(1, max_len + 1):
        for cw in enumerate_cyclically_reduced(n, rank):
            gens = [abs(x) for x in cw.letters]
            assert _has_lone_generator(cw.letters) == (1 in map(gens.count, gens)), cw.text()
            if _has_lone_generator(cw.letters):
                assert minimal_form_facts(cw) == (True, rank > 1), cw.text()
                certified += 1
    assert certified > 100


def seeded_oracle_words(rank, rng):
    """Random cyclic words of length <= 30, and images of a letter and of
    words in the first rank - 1 generators under random automorphism
    products, so that primitive and simple words are drawn too."""
    for _ in range(30):
        yield random_cyclic_word(rank, rng.randrange(1, 31), rng)
    for _ in range(40):
        if rng.random() < 0.3:
            w = Word((rng.choice(alphabet(rank)),), rank)
        else:
            factor = random_cyclic_word(rank - 1, rng.randrange(1, 9), rng)
            w = Word(factor.letters, rank)
        for _ in range(6):
            image = apply(rng.choice(enumerate_whitehead(rank)), w)
            if len(cyclic_reduce(image)[1]) <= 30:
                w = image
        yield cyclic_reduce(w)[1]


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_predicates_match_minimization_oracle_on_seeded_words(rank):
    rng = random.Random(rank)
    facts = set()
    for cw in seeded_oracle_words(rank, rng):
        expected = minimal_form_facts(cw)
        assert (is_primitive(cw), is_simple(cw)) == expected, cw.text()
        facts.add(expected)
    assert facts == {(True, True), (False, True), (False, False)}


def whitehead_graph_oracle(cw):
    """(connected, has a cut vertex) of the Whitehead graph of cw, a word
    using every generator, by set closure over the minimizer's junction
    sets: letters x and y are adjacent when ends[x] & ends[y] is nonzero."""
    ends = _junction_ends(cw)

    def connected(vs):
        seen, stack = {vs[0]}, [vs[0]]
        while stack:
            v = stack.pop()
            for u in vs:
                if u not in seen and ends[u] & ends[v]:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(vs)

    vertices = list(ends)
    cut = any(not connected([u for u in vertices if u != v]) for v in vertices)
    return connected(vertices), len(vertices) > 2 and cut


def step_aut(step, rank):
    """The Whitehead automorphism (A, x) of a descent step (code of x,
    bitmask of A over the letter codes), tagged by TAGS' rule."""
    x, in_a = step
    a = _letter(x)
    tags = ["id"] * rank
    for h in range(1, rank + 1):
        if h != abs(a):  # right if h is in A, left if h^-1 is, conj if both
            tags[h - 1] = TAGS[in_a >> (2 * h - 2) & 3]
    return WhiteheadAut(rank, "second", multiplier=a, tags=tuple(tags))


def check_descent_step(cw):
    step = _descent_step(cw.letters, cw.rank)
    connected, cut = whitehead_graph_oracle(cw)
    assert (step is None) == (connected and not cut), cw.text()
    if step is not None:
        t = step_aut(step, cw.rank)
        image = cyclic_reduce(Word(apply_letters(t, cw.letters), cw.rank))[1]
        assert len(image) < len(cw), (cw.text(), t)


def check_step_image(cw):
    """The descent's letter-table image equals the cyclic reduction of the
    image under the automorphism built from the step."""
    step = _descent_step(cw.letters, cw.rank)
    if step is not None:
        t = step_aut(step, cw.rank)
        expected = cyclic_reduce(Word(apply_letters(t, cw.letters), cw.rank))[1]
        assert _apply_step(cw.letters, cw.rank, *step) == expected.letters, (cw.text(), t)
    return step is not None


@pytest.mark.parametrize("rank, max_len", [(2, 7), (3, 5)])
def test_descent_step_images_match_the_automorphism_exhaustively(rank, max_len):
    steps = 0
    for n in range(1, max_len + 1):
        for cw in enumerate_cyclically_reduced(n, rank):
            if len({abs(x) for x in cw.letters}) == rank:
                steps += check_step_image(cw)
    assert steps > 100


@pytest.mark.parametrize("rank", [4, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_descent_step_images_match_the_automorphism(rank, data):
    cw = data.draw(cyclic_words_of_rank(rank, 40))
    auts = st.sampled_from(enumerate_whitehead(rank))
    moved = replay_oracle(cw.word(), data.draw(st.lists(auts, max_size=4)))
    for w in (cw, cyclic_reduce(moved)[1]):
        if len({abs(x) for x in w.letters}) == rank:
            check_step_image(w)


@pytest.mark.parametrize("rank, max_len", [(1, 4), (2, 7), (3, 5)])
def test_descent_steps_shorten_and_exist_iff_cut_vertex_exhaustively(rank, max_len):
    for n in range(1, max_len + 1):
        for cw in enumerate_cyclically_reduced(n, rank):
            if len({abs(x) for x in cw.letters}) == rank:
                check_descent_step(cw)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_descent_steps_shorten_and_exist_iff_cut_vertex(rank, data):
    cw = data.draw(cyclic_words_of_rank(rank, 40))
    if len({abs(x) for x in cw.letters}) < rank:  # a factor word, moved
        auts = st.sampled_from(enumerate_whitehead(rank))
        cw = cyclic_reduce(replay_oracle(cw.word(), data.draw(st.lists(auts, max_size=4))))[1]
    if len({abs(x) for x in cw.letters}) == rank:
        check_descent_step(cw)


def test_descent_raises_when_a_step_does_not_shorten(monkeypatch):
    # (A, a) with A every letter but a^-1 is conjugation by a, which keeps
    # the cyclic length, so it must not pass for a step
    def conjugation_step(letters, rank):
        return 0, ((1 << 2 * rank) - 1) & ~0b10

    assert step_aut(conjugation_step((), 2), 2) == conjugation_by(1, 2)
    monkeypatch.setattr(whitehead, "_descent_step", conjugation_step)
    with pytest.raises(RuntimeError, match="does not shorten"):
        is_simple(W("aabb", 2))


def test_minimize_raises_when_a_pick_does_not_shorten(monkeypatch):
    # a scoring that picks an automorphism keeping the length must stop
    # minimize at once; the fake gives up after a few picks, so a minimize
    # without the check fails here instead of looping forever
    picks = []

    def keeps_length(cw):
        picks.append(cw)
        assert len(picks) < 5, "minimize kept applying a pick that does not shorten"
        return identity_aut(cw.rank)

    monkeypatch.setattr(whitehead, "_first_reducing", keeps_length)
    with pytest.raises(RuntimeError, match="does not shorten"):
        minimize(W("aabAb", 2))
    assert len(picks) == 1


@pytest.mark.parametrize("rank", [2, 3, 4])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_predicates_are_automorphism_invariant(rank, data):
    # words of the first rank - 1 generators are simple; their images need not
    # omit a generator
    cw = data.draw(
        st.one_of(
            cyclic_words_of_rank(rank, 12),
            cyclic_words_of_rank(rank - 1, 10).map(lambda w: CyclicWord(w.letters, rank)),
        )
    )
    product = data.draw(st.lists(st.sampled_from(enumerate_whitehead(rank)), max_size=5))
    image = replay_oracle(cw.word(), product)
    assert is_primitive(image) == is_primitive(cw), (cw.text(), product)
    assert is_simple(image) == is_simple(cw), (cw.text(), product)


def test_simple_uses_one_minimal_form():
    # aab is primitive hence simple
    assert is_primitive(W("aab", 2))
    assert is_simple(W("aab", 2))


def test_simple_implies_cut_vertex_up_to_len8():
    from primindex.words import is_proper_power

    for n in range(1, 9):
        for w in enumerate_cyclically_reduced(n, 2):
            if is_proper_power(w)[0]:
                continue
            if is_simple(w.word()):
                m, _ = minimize(w)
                assert has_cut_vertex(m), w.text()


# -- Whitehead graphs ---------------------------------------------------------------

def test_whitehead_graph_of_square_word():
    # aabb: the 4-cycle a - A - b - B - a, so no single vertex disconnects it
    w = CW("aabb", 2)
    ends = _junction_ends(w)
    for x in alphabet(2):
        assert sum(1 for y in alphabet(2) if y != x and ends[x] & ends[y]) == 2
    assert not has_cut_vertex(w)


def test_whitehead_graph_single_letter():
    assert has_cut_vertex(CW("a", 2))  # isolated b/B disconnect the graph
    assert not has_cut_vertex(CW("a", 1))  # two vertices, one edge
    with pytest.raises(InvalidInputError):
        has_cut_vertex(CyclicWord((), 2))


def test_star_has_cut_vertex():
    # every letter occurs, yet the graph is the path b - A - a - B (aab) or
    # falls apart into two edges (ab)
    assert has_cut_vertex(CW("aab", 2))
    assert has_cut_vertex(CW("ab", 2))
    assert has_cut_vertex(CW("aabcc", 3))


@st.composite
def relabelings(draw, rank):
    images = draw(st.permutations(range(1, rank + 1)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank))
    return [s * g for s, g in zip(signs, images)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_whitehead_graph_rotation_inversion_invariant(data):
    # rotation, inversion and relabeling are graph isomorphisms
    rank = data.draw(st.sampled_from([2, 3]))
    w = data.draw(cyclic_words_of_rank(rank, 12))
    expected = has_cut_vertex(w)
    r = data.draw(st.integers(0, len(w) - 1))
    assert has_cut_vertex(CyclicWord(w.letters[r:] + w.letters[:r], rank)) == expected
    assert has_cut_vertex(w.inverse()) == expected
    images = data.draw(relabelings(rank))
    relabeled = tuple(images[x - 1] if x > 0 else -images[-x - 1] for x in w.letters)
    assert has_cut_vertex(CyclicWord(relabeled, rank)) == expected


def test_blocking_pattern_word_not_simple():
    # contains b^2 a^2 b^2
    w = CW("bbaabb", 2)
    assert not has_cut_vertex(w)
    assert not is_simple(w.word())


# -- rauzy3 ---------------------------------------------------------------------

def cyclic_triples_oracle(cw):
    """Every length-3 window of cw and of cw^-1, read around the circle."""
    n = len(cw)
    out = set()
    if n < 3:
        return out
    for base in (cw.letters, tuple(-x for x in reversed(cw.letters))):
        dbl = base + base
        for i in range(n):
            out.add(dbl[i : i + 3])
    return out


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_cyclic_triples_match_sliding_oracle(data):
    rank = data.draw(st.integers(1, 4))
    cw = data.draw(cyclic_words_of_rank(rank, data.draw(st.sampled_from([3, 4, 30]))))
    assert cyclic_triples(cw) == cyclic_triples_oracle(cw)


def test_cyclic_triples_of_short_words():
    for rank in (1, 2, 3):
        for n in (1, 2, 3):
            for cw in enumerate_cyclically_reduced(n, rank):
                assert cyclic_triples(cw) == cyclic_triples_oracle(cw)

def test_rauzy3_examples():
    from primindex.graphs import universal_three_word

    u = universal_three_word(2)
    ls = list(u.letters)
    if ls[0] == -ls[-1]:  # append a joiner to close up cyclically
        for y in (1, -1, 2, -2):
            if y != -ls[-1] and y != -ls[0]:
                ls.append(y)
                break
    w = CyclicWord(tuple(ls), 2)
    assert rauzy3_full(w)
    assert not rauzy3_full(CW("a", 2))
    assert not rauzy3_full(CW("ababab", 2))


def _reduced_cyclic_word(rank, length, rng):
    """A cyclically reduced word of exactly this length, letter by letter."""
    ls = [rng.choice(alphabet(rank))]
    while len(ls) < length:
        ls.append(rng.choice([y for y in alphabet(rank) if y != -ls[-1]]))
        if len(ls) == length and ls[-1] == -ls[0]:
            ls.pop()
    return CyclicWord(tuple(ls), rank)


def test_rauzy3_length_guard_matches_the_triple_set(monkeypatch):
    from primindex.graphs import universal_three_word

    # a word with 2 |w| below the number of reduced length-3 words is
    # answered without rauzy3_array, and every answer is the triple set's
    rng = random.Random(20140731)
    cases = [w for n in range(1, 9) for w in enumerate_cyclically_reduced(n, 2)]
    cases += [_reduced_cyclic_word(rank, n, rng) for rank in (2, 3) for n in range(15, 81) for _ in range(3)]
    cases += [cyclic_reduce(universal_three_word(rank))[1] for rank in (2, 3)]
    read = []
    real = whitehead.rauzy3_array
    monkeypatch.setattr(whitehead, "rauzy3_array", lambda u, rank: read.append(u) or real(u, rank))
    certified = set()
    for w in cases:
        needed = count_reduced(3, w.rank)
        read.clear()
        assert rauzy3_full(w) == (len(cyclic_triples(w)) == needed), w.text()
        assert len(read) == (2 * len(w) >= needed), w.text()
        certified.add((w.rank, rauzy3_full(w)))
    assert certified == {(2, False), (2, True), (3, False), (3, True)}


def test_rauzy3_implies_not_simple_not_primitive():
    from primindex.graphs import universal_three_word

    u = universal_three_word(2)
    ls = list(u.letters)
    if ls[0] == -ls[-1]:
        ls.append(1 if -ls[-1] != 1 and -ls[0] != 1 else 2)
    w = CyclicWord(tuple(ls), 2)
    assert rauzy3_full(w)
    assert not is_simple(w.word())
    assert not is_primitive(w.word())


# -- oracle -------------------------------------------------------------------

def test_orbit_oracle_returns_class_member():
    w = W("abA", 2)
    o = orbit_min_oracle(w)
    assert len(o) == 1
