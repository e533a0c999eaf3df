import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import primindex
from primindex.errors import InvalidInputError
from primindex.randomwalk import (
    WalkConfig,
    experiment_dsimp,
    pair_frequency_counts,
    sample_word,
    subword_spectrum,
    trial_seed,
)
from primindex.words import _letter, cyclic_reduce


def test_sample_is_reduced_and_exact_length():
    for seed in range(5):
        w = sample_word(WalkConfig(2, 50, seed))
        assert len(w) == 50
        ls = w.letters
        assert all(a != -b for a, b in zip(ls, ls[1:]))


def test_seed_determinism_byte_exact():
    cfg = WalkConfig(2, 2000, 7)
    a = sample_word(cfg)
    b = sample_word(cfg)
    assert a.text() == b.text()
    assert sample_word(WalkConfig(2, 2000, 8)).text() != a.text()


def _numpy_scalar_codes(cfg):
    """The letter codes as sample_word drew them one numpy scalar at a
    time, kept as an oracle for the loop over Python ints."""
    rng = np.random.default_rng(cfg.seed)
    two_n = 2 * cfg.rank
    n = cfg.length
    codes = np.empty(n, dtype=np.int64)
    codes[0] = rng.integers(0, two_n)
    draws = rng.integers(0, two_n - 1, size=n - 1) if n > 1 else []
    for i in range(1, n):
        forbidden = codes[i - 1] ^ 1
        r = draws[i - 1]
        codes[i] = r + (r >= forbidden)
    return tuple(map(_letter, codes.tolist()))


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("length", [1, 2, 24, 1000])
def test_sample_word_matches_numpy_scalar_loop(rank, length):
    for seed in range(20):
        cfg = WalkConfig(rank, length, seed)
        assert sample_word(cfg).letters == _numpy_scalar_codes(cfg)


def test_first_letter_distribution_chi_square():
    # the first letters of 100,000 seeded one-letter walks, as letter codes
    firsts = [
        sample_word(WalkConfig(2, 1, seed)).letters[0]
        for seed in range(100_000)
    ]
    counts = np.bincount([2 * (abs(x) - 1) + (x < 0) for x in firsts], minlength=4)
    expected = 100_000 / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 3 degrees of freedom; 16.27 is the 0.1% point
    assert chi2 < 16.27


def test_pair_frequencies_near_one_twelfth():
    n, samples = 2_000, 500
    counts = pair_frequency_counts(2, n, samples, seed=11)
    total = samples * (n - 1)
    assert counts.sum() == total
    # cancelling pairs never occur: codes (c, c^1)
    for c in range(4):
        assert counts[c, c ^ 1] == 0
    freqs = counts / total
    p = 1 / 12
    se = (p * (1 - p) / total) ** 0.5
    reduced = [(i, j) for i in range(4) for j in range(4) if j != i ^ 1]
    assert len(reduced) == 12
    for i, j in reduced:
        assert abs(freqs[i, j] - p) < 5 * se


def test_subword_spectrum_shape():
    rep = subword_spectrum(sample_word(WalkConfig(2, 10_000, 5)))
    assert rep.sigma_length == round(0.5 * np.log(10_000) / np.log(3))
    assert sum(rep.counts.values()) <= 10_000
    assert rep.max_abs_deviation < rep.deviation_band


def test_iota_stat():
    # no cancellation tail of 50 length-1000 walks exceeds 5% of the length
    words = [sample_word(WalkConfig(2, 1000, s)) for s in range(50)]
    for w in words:
        assert len(cyclic_reduce(w)[0]) <= 0.05 * len(w)


def test_trial_seed_stability():
    assert trial_seed(7, 0) == trial_seed(7, 0)
    assert trial_seed(7, 0) != trial_seed(7, 1)
    assert trial_seed(8, 0) != trial_seed(7, 0)


def test_experiment_dsimp_small():
    rep = experiment_dsimp(WalkConfig(2, 6, 13), trials=60, d_cap=3)
    assert sum(rep.distribution.values()) == 60
    assert rep.proper_power_fraction <= 0.2
    # exact values obey the general upper bound d_simp <= n
    for key in rep.distribution:
        if not key.startswith(">"):
            assert 1 <= int(key) <= 6
    # thresholds are monotone
    fr = rep.fraction_at_least
    assert all(fr[t] >= fr[t + 1] for t in list(fr)[:-1] if t + 1 in fr)


def test_experiment_matches_exact_dsimp_on_tiny_words():
    from primindex.index import d_simp
    from primindex.index import d_simp_census

    rep = experiment_dsimp(WalkConfig(2, 5, 21), trials=25, d_cap=5)
    # redo the trials by hand and compare against the quotient scanner
    for t in range(25):
        core = cyclic_reduce(sample_word(WalkConfig(2, 5, trial_seed(21, t))))[1]
        assert d_simp_census(core, 5) == d_simp(core)[0]


def test_power_fraction_drops_with_length():
    rep = experiment_dsimp(WalkConfig(2, 12, 17), trials=40, d_cap=2)
    assert rep.proper_power_fraction <= 0.1


def test_walk_config_validation():
    with pytest.raises(InvalidInputError):
        WalkConfig(1, 5, 0)
    with pytest.raises(InvalidInputError):
        WalkConfig(2, 0, 0)


_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "walk_subword_statistics.py"


def _run_script(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(primindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, str(_SCRIPT), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_walk_statistics_script_smoke():
    done = _run_script("--n", "300", "--samples", "50")
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("worst deviation: ") for line in done.stdout.splitlines())


@pytest.mark.parametrize("argv", [("--n", "1"), ("--samples", "0")])
def test_walk_statistics_script_rejects_tiny_scales(argv):
    done = _run_script(*argv)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "expected an integer >=" in done.stderr
