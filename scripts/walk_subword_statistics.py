#!/usr/bin/env python3
"""Aggregate subword statistics of the non-backtracking walk.

Checks the two predictions at a configurable scale: length-2 factor
frequencies concentrate at 1/(2N(2N-1)) across many walks, and within a
single long walk every factor of length ~ log n / (2 log(2N-1)) shows up
with count close to n * mu(sigma).

Usage:
    python scripts/walk_subword_statistics.py --rank 2 --n 10000 \
        --samples 5000 --seed 7
"""
from __future__ import annotations

import argparse
import sys

from primindex.randomwalk import (
    WalkConfig,
    pair_frequency_counts,
    sample_word,
    subword_spectrum,
)


def _at_least(low: int):
    """argparse type for an integer of at least low; argparse exits 2 on
    anything else."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--n", type=_at_least(2), default=10_000)
    ap.add_argument("--samples", type=_at_least(1), default=5_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    two_n = 2 * args.rank
    p = 1 / (two_n * (two_n - 1))
    counts = pair_frequency_counts(args.rank, args.n, args.samples, args.seed)
    total = args.samples * (args.n - 1)
    se = (p * (1 - p) / total) ** 0.5
    print(f"pair frequencies over {total} windows (target {p:.6f}, SE {se:.2e}):")
    worst = 0.0
    for i in range(two_n):
        for j in range(two_n):
            if j == i ^ 1:
                continue
            freq = counts[i, j] / total
            dev = abs(freq - p) / se
            worst = max(worst, dev)
            print(f"  codes ({i},{j}): {freq:.6f}  ({dev:.2f} SE)")
    print(f"worst deviation: {worst:.2f} SE")

    spectrum = subword_spectrum(sample_word(WalkConfig(args.rank, args.n, args.seed)))
    print(
        f"single-walk spectrum: sigma length {spectrum.sigma_length}, "
        f"expected {spectrum.expected_per_sigma:.1f} per factor, "
        f"max |deviation| {spectrum.max_abs_deviation:.1f} "
        f"(band {spectrum.deviation_band:.1f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
