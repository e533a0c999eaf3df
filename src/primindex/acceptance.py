"""The package's acceptance suite: eight end-to-end checks with pinned
tolerances, shared by the test suite and the command-line self test.

Each criterion returns a CriterionResult; stated wall-clock limits are part
of the check.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .blockers import blocking_word, forcing_word, witness_word
from .graphs import cover_census, cover_graph
from .index import (
    commutator_witness,
    d_prim,
    d_prim_census_oracle,
    divisibility,
    index_values,
)
from .randomwalk import WalkConfig, pair_frequency_counts, sample_word
from .whitehead import has_cut_vertex, is_simple, minimize, orbit_min_oracle
from .words import (
    CyclicWord,
    cyclic_class_key,
    cyclic_reduce,
    enumerate_cyclically_reduced,
    enumerate_reduced,
    is_proper_power,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion-{self.number} {self.name} ({self.seconds:.1f}s): {self.detail}"


def _timed(number: int, name: str, limit: float | None, fn: Callable[[], tuple[bool, str]]) -> CriterionResult:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        elapsed = time.perf_counter() - start
        return CriterionResult(number, name, False, elapsed, f"error: {exc!r}")
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed > limit:
        ok = False
        detail += f"; exceeded {limit:.0f}s limit"
    return CriterionResult(number, name, ok, elapsed, detail)


def criterion_power_law() -> CriterionResult:
    """d_prim(a^n) = n exactly, for n = 1..6 in rank 2 and n = 1..4 in rank 3."""

    def run() -> tuple[bool, str]:
        checked = 0
        for rank, n_max in ((2, 6), (3, 4)):
            for n in range(1, n_max + 1):
                w = CyclicWord((1,) * n, rank)
                value, _ = d_prim(w)
                if value != n:
                    return False, f"d_prim(a^{n}) = {value} != {n} at rank {rank}"
                checked += 1
        return True, f"{checked} powers exact"

    return _timed(1, "power-law", 60.0, run)


def _chain_values(rank: int, n_max: int):
    """(word, d_prim, d_simp, d_fill_lower) for every root-free cyclically
    reduced word of length <= n_max, via the class-level cache."""
    for n in range(1, n_max + 1):
        for w in enumerate_cyclically_reduced(n, rank):
            if is_proper_power(w)[0]:
                continue
            yield w, index_values(w)


def criterion_upper_bound_chain() -> CriterionResult:
    """d_fill_lower <= d_fill_upper <= d_simp <= d_prim <= ||w|| for every
    root-free cyclically reduced word of length <= 6 in rank 2."""

    def run() -> tuple[bool, str]:
        count = 0
        for w, (dp, ds, dl) in _chain_values(2, 6):
            du = ds  # certified upper bound is the simplicity index
            if not (dl <= du <= ds <= dp <= len(w)):
                return False, f"chain violated at {w.text()}: {dl},{du},{ds},{dp}"
            count += 1
        return True, f"{count} words, zero violations"

    return _timed(2, "upper-bound-chain", None, run)


def criterion_oracle_equivalence() -> CriterionResult:
    """Principal-quotient d_prim equals the cover-census value (degree cap 5)
    for every root-free cyclically reduced word of length <= 5 in rank 2."""

    def run() -> tuple[bool, str]:
        census_cache: dict[tuple[int, ...], int | None] = {}
        count = 0
        for n in range(1, 6):
            for w in enumerate_cyclically_reduced(n, 2):
                if is_proper_power(w)[0]:
                    continue
                key = cyclic_class_key(w.letters, 2)
                if key not in census_cache:
                    census_cache[key] = d_prim_census_oracle(
                        CyclicWord(key, 2), 5
                    )
                quotient_value = index_values(w)[0]
                if census_cache[key] != quotient_value:
                    return (
                        False,
                        f"{w.text()}: quotients {quotient_value}, census {census_cache[key]}",
                    )
                count += 1
        return True, f"{count} words agree ({len(census_cache)} classes)"

    return _timed(3, "oracle-equivalence", 600.0, run)


def criterion_whitehead_soundness() -> CriterionResult:
    """minimize agrees with the orbit-closure oracle on minimal length for
    every cyclic word of length <= 6 in rank 2, and simple words have a cut
    vertex in their minimal form's Whitehead graph."""

    def run() -> tuple[bool, str]:
        count = 0
        for n in range(1, 7):
            for w in enumerate_cyclically_reduced(n, 2):
                m, _ = minimize(w)
                oracle = orbit_min_oracle(w)
                if len(m) != len(oracle):
                    return (
                        False,
                        f"minimal length mismatch at {w.text()}: {len(m)} vs {len(oracle)}",
                    )
                if is_simple(w.word()) and not has_cut_vertex(m):
                    return False, f"simple word {w.text()} lacks a cut vertex"
                count += 1
        return True, f"{count} cyclic words checked"

    return _timed(4, "whitehead-soundness", 300.0, run)


def criterion_blockers() -> CriterionResult:
    """Blocking and forcing words verified for every cover of degree <= 3
    in rank 2, within |v| <= 9 d^3 and |w| <= 8000 d^5."""

    def run() -> tuple[bool, str]:
        count = 0
        for d in (1, 2, 3):
            for perms in cover_census(2, d):
                g = cover_graph(2, perms)
                rb = blocking_word(g)
                if not (rb.verified and len(rb.word) <= 9 * d**3):
                    return False, f"blocking word failed on a degree-{d} cover"
                rf = forcing_word(g)
                if not (rf.verified and len(rf.word) <= 8000 * d**5):
                    return False, f"forcing word failed on a degree-{d} cover"
                count += 1
        return True, f"{count} covers verified"

    return _timed(5, "blocker-verification", 300.0, run)


def criterion_witness_words() -> CriterionResult:
    """z_1 and z_2 carry complete audits: every containing cover of degree
    <= d certifies filling, so the non-filling index exceeds d."""

    def run() -> tuple[bool, str]:
        details = []
        for d in (1, 2):
            z, audit = witness_word(d, 2)
            if not audit.complete:
                return False, f"audit incomplete for degree {d}"
            containing = sum(1 for e in audit.entries if e.contains)
            details.append(
                f"z_{d}: |z|={len(z)}, census={audit.census_size}, containing={containing}"
            )
        return True, "; ".join(details)

    return _timed(6, "witness-words", None, run)


def criterion_walk_statistics(
    samples: int = 100_000, n: int = 10_000, seed: int = 7
) -> CriterionResult:
    """Every reduced length-2 word's aggregate frequency lies within three
    normal-approximation standard errors of 1/12, and sampling is
    byte-exact under a fixed seed."""

    def run() -> tuple[bool, str]:
        a = sample_word(WalkConfig(2, n, seed), with_stats=False)
        b = sample_word(WalkConfig(2, n, seed), with_stats=False)
        if a.word.text() != b.word.text():
            return False, "seeded sampling is not reproducible"
        counts = pair_frequency_counts(2, n, samples, seed=seed)
        total = samples * (n - 1)
        p = 1 / 12
        se = (p * (1 - p) / total) ** 0.5
        worst = 0.0
        for i in range(4):
            for j in range(4):
                if j == i ^ 1:
                    if counts[i, j] != 0:
                        return False, "a cancelling pair occurred"
                    continue
                dev = abs(counts[i, j] / total - p) / se
                worst = max(worst, dev)
        if worst >= 3:
            return False, f"worst deviation {worst:.2f} standard errors"
        return True, f"12 pairs within 3 SE (worst {worst:.2f}); determinism byte-exact"

    return _timed(7, "walk-statistics", None, run)


def criterion_appendix_desk_check() -> CriterionResult:
    """For every nontrivial word of length <= 2 in rank 2, no cover of
    degree below divisibility(w) holds [w, w^a] as a primitive element,
    hence d_prim([w, w^a]) >= divisibility(w)."""

    def run() -> tuple[bool, str]:
        count = 0
        for n in (1, 2):
            for w in enumerate_reduced(n, 2):
                dv = divisibility(w, 4)
                if dv is None:
                    return False, f"divisibility of {w.text()} exceeded cap"
                gamma = cyclic_reduce(commutator_witness(w))[1]
                if dv > 1 and d_prim_census_oracle(gamma, dv - 1) is not None:
                    return False, f"violation at {w.text()}"
                count += 1
        return True, f"{count} words, zero violations"

    return _timed(8, "appendix-desk-check", None, run)


def run_all(fast: bool = False) -> list[CriterionResult]:
    """Run the acceptance criteria in order; fast mode shrinks only the
    walk-statistics scale (smoke test, not the stated tolerance)."""
    walk = (
        (lambda: criterion_walk_statistics(samples=2_000, n=2_000))
        if fast
        else criterion_walk_statistics
    )
    checks: list[Callable[[], CriterionResult]] = [
        criterion_power_law,
        criterion_upper_bound_chain,
        criterion_oracle_equivalence,
        criterion_whitehead_soundness,
        criterion_blockers,
        criterion_witness_words,
        walk,
        criterion_appendix_desk_check,
    ]
    return [check() for check in checks]
