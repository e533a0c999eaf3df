"""Non-backtracking uniform word sampling and the derived experiments.

The walk starts uniformly on the 2N letters and then picks uniformly among
the 2N-1 non-cancelling successors, which makes every length-n freely
reduced word equally likely.  All randomness flows from numpy's PCG64 so
runs replay exactly from their seeds.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import index
from .errors import InvalidInputError
# Unused here; perfbench/tracer.py patches this name on this module.
from .index import d_simp_census  # noqa: F401
from .words import (
    Word,
    _letter,
    cyclic_reduce,
    is_proper_power,
)

RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class WalkConfig:
    rank: int
    length: int
    seed: int

    def __post_init__(self):
        if self.rank < 2 or self.length < 1:
            raise InvalidInputError("need rank >= 2 and length >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"need a non-negative seed, got {self.seed}")


def sample_word(cfg: WalkConfig) -> Word:
    """One uniform freely reduced word of the configured length.

    The letter stream is a function of the seed alone: first letter from
    integers(0, 2N), then integers(0, 2N-1) skipping the cancelling code.
    """
    rng = np.random.default_rng(cfg.seed)
    two_n = 2 * cfg.rank
    code = int(rng.integers(0, two_n))
    codes = [code]
    for r in rng.integers(0, two_n - 1, size=cfg.length - 1).tolist():  # Python ints
        code = r + (r >= (code ^ 1))
        codes.append(code)
    return Word(tuple(map(_letter, codes)), cfg.rank)


def pair_frequency_counts(rank: int, n: int, samples: int, seed: int) -> np.ndarray:
    """Aggregate counts of adjacent letter-code pairs over many walks.

    Streams the chain one step at a time across all samples at once, so
    memory stays O(samples); returns a (2N, 2N) matrix whose (i, j) entry
    counts positions where code i is followed by code j.
    """
    if samples < 1 or n < 2:
        raise InvalidInputError("need samples >= 1 and n >= 2")
    rng = np.random.default_rng(seed)
    two_n = 2 * rank
    counts = np.zeros(two_n * two_n, dtype=np.int64)
    state = rng.integers(0, two_n, size=samples)
    for _ in range(n - 1):
        r = rng.integers(0, two_n - 1, size=samples)
        forbidden = state ^ 1
        nxt = r + (r >= forbidden)
        counts += np.bincount(state * two_n + nxt, minlength=two_n * two_n)
        state = nxt
    return counts.reshape(two_n, two_n)


@dataclass(frozen=True)
class SpectrumReport:
    n: int
    ell: float
    sigma_length: int
    expected_per_sigma: float
    deviation_band: float
    counts: dict[str, int]
    max_abs_deviation: float


_ELL_FRAC = 0.5  # factor length, as a fraction of log n / log lam
_EPSILON = 0.2  # slack exponent of the deviation band


def subword_spectrum(w: Word) -> SpectrumReport:
    """Counts of every reduced word of length round(ell·log n / log lam) in
    w, ell = 1/2, with deviations from the stationary expectation
    n·mu(sigma) and the band n^(epsilon + (1 - ell) / 2), epsilon = 1/5."""
    n = len(w)
    if n < 2:
        raise InvalidInputError("word too short for a spectrum")
    lam = 2 * w.rank - 1
    sigma_len = max(1, round(_ELL_FRAC * math.log(n) / math.log(lam)))
    mu = (lam / (2 * w.rank)) * lam**-sigma_len
    expected = n * mu
    band = n ** (_EPSILON + (1 - _ELL_FRAC) / 2)
    counts: dict[str, int] = {}
    # one sliding pass over w
    from collections import Counter

    window = Counter(
        w.letters[i : i + sigma_len] for i in range(n - sigma_len + 1)
    )
    from .words import enumerate_reduced

    max_dev = 0.0
    for sigma in enumerate_reduced(sigma_len, w.rank):
        c = window.get(sigma.letters, 0)
        counts[sigma.text()] = c
        max_dev = max(max_dev, abs(c - expected))
    return SpectrumReport(
        n=n,
        ell=_ELL_FRAC,
        sigma_length=sigma_len,
        expected_per_sigma=expected,
        deviation_band=band,
        counts=counts,
        max_abs_deviation=max_dev,
    )


def trial_seed(master_seed: int, trial: int) -> int:
    """Stable per-trial seed so sharded runs agree with sequential ones."""
    digest = hashlib.blake2b(
        f"{master_seed}:{trial}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ExperimentReport:
    rank: int
    n: int
    trials: int
    d_cap: int
    master_seed: int
    algorithm: str
    distribution: dict[str, int]
    proper_power_fraction: float
    fraction_at_least: dict[int, float]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "n": self.n,
            "trials": self.trials,
            "d_cap": self.d_cap,
            "seed": self.master_seed,
            "algorithm": self.algorithm,
            "distribution": self.distribution,
            "proper_power_fraction": self.proper_power_fraction,
            "fraction_at_least": {
                str(k): v for k, v in self.fraction_at_least.items()
            },
        }


def experiment_dsimp(
    cfg: WalkConfig, trials: int, d_cap: int = 4
) -> ExperimentReport:
    """Sample words and measure their simplicity index, censored at d_cap.

    Each trial reseeds from (master seed, trial index).  Every trial is
    sampled first; then one census scan (index.first_cover with is_simple)
    computes each word's capped index exactly over the covers of degree
    <= d_cap, all words walking each degree's covers together.
    """
    if trials < 1 or d_cap < 1:
        raise InvalidInputError("need trials >= 1 and d_cap >= 1")
    distribution: dict[str, int] = {}
    powers = 0
    cores = []
    for t in range(trials):
        word = sample_word(WalkConfig(cfg.rank, cfg.length, trial_seed(cfg.seed, t)))
        core = cyclic_reduce(word)[1]
        if is_proper_power(core)[0]:
            powers += 1
        cores.append(core)
    # index.is_simple read at call time, where perfbench/tracer.py patches it
    values = index.first_cover(cores, d_cap, index.is_simple)
    for v in values:
        key = str(v) if v is not None else f">{d_cap}"
        distribution[key] = distribution.get(key, 0) + 1
    fraction_at_least = {}
    for threshold in range(2, d_cap + 1):
        hits = sum(1 for v in values if v is None or v >= threshold)
        fraction_at_least[threshold] = hits / trials
    return ExperimentReport(
        rank=cfg.rank,
        n=cfg.length,
        trials=trials,
        d_cap=d_cap,
        master_seed=cfg.seed,
        algorithm=RNG_ALGORITHM,
        distribution=dict(sorted(distribution.items())),
        proper_power_fraction=powers / trials,
        fraction_at_least=fraction_at_least,
    )
