"""The four workloads: seeded inputs, the timed library calls, the result
payload of each call, and the checks on that payload.

No reference comes from the timed code path: ``index-hard`` and ``table`` are
checked against the cover-census oracles, ``census`` against Hall's
subgroup-count recursion, and every workload against values pinned here.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import factorial
from typing import Callable

from primindex import blockers, graphs, index, randomwalk
from primindex.words import CyclicWord, text_to_letters

DEFAULT_SEED = 0

# Rank-2 classes with the largest d_prim / d_simp at lengths 9 and 10, with
# (d_prim, d_simp).
HARD_CLASSES = (
    ("aaabaBAbAB", 4, 2),
    ("aabaBAAbaB", 4, 2),
    ("aaabaBabAB", 4, 2),
    ("aaaabbAAbb", 4, 2),
    ("aaaaaabbbb", 4, 2),
    ("aaaabAAAB", 4, 2),
    ("aaaabaaaB", 4, 2),
    ("aabaabABB", 3, 3),
    ("aabaabAbb", 3, 3),
)
HARD_ORACLE_DEGREE = 4

TABLE_N, TABLE_RANK = 9, 2
TABLE_F_PRIM = (1, 1, 1, 2, 2, 3, 3, 3, 4)
TABLE_F_SIMP = (1, 1, 1, 2, 2, 2, 2, 2, 3)
TABLE_SHA256 = "a120869429c0f2ea89be48f54394064da1b948d9d952c85e2d9fa2fecad14c40"

EXPERIMENT = {"rank": 2, "length": 24, "trials": 150, "d_cap": 4}
EXPERIMENT_SHA256 = {
    DEFAULT_SEED: "1a3d89c9f955d504a27f79413800c96dd10e2f5760953a434412c9ea71f81675"
}

CENSUS = ((2, 5), (3, 4))  # (rank, highest degree), every degree from 1
CENSUS_COUNTS = {2: (1, 3, 13, 71, 461), 3: (1, 7, 97, 2143)}
WITNESSES = ((3, 2), (2, 3))  # (degree, rank)
WITNESS_LENGTHS = {(3, 2): 103701, (2, 3): 55268}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def hall_subgroup_counts(rank: int, degree: int) -> list[int]:
    """Number of index-n subgroups of the free group of the given rank, for
    n = 1..degree (Hall 1949): a_n = n (n!)^(r-1) - sum_k ((n-k)!)^(r-1) a_k."""
    a: list[int] = []
    for n in range(1, degree + 1):
        a.append(
            n * factorial(n) ** (rank - 1)
            - sum(factorial(n - k) ** (rank - 1) * a[k - 1] for k in range(1, n))
        )
    return a


def _cyclic(text: str, rank: int) -> CyclicWord:
    return CyclicWord(tuple(text_to_letters(text, rank)), rank)


def transform(letters: tuple[int, ...], rank: int, rng: random.Random) -> tuple[int, ...]:
    """A seeded rotation, then maybe inversion, then a signed relabeling;
    d_prim, d_simp and d_fill are invariant under all three."""
    r = rng.randrange(len(letters))
    out = letters[r:] + letters[:r]
    if rng.random() < 0.5:
        out = tuple(-x for x in reversed(out))
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    images = [g if rng.random() < 0.5 else -g for g in perm]
    return tuple(images[x - 1] if x > 0 else -images[-x - 1] for x in out)


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    inputs: Callable[[int], dict]  # seed -> JSON inputs
    run: Callable[[dict], object]  # the timed library calls
    payload: Callable[[object], object]  # call result -> JSON payload
    items: Callable[[dict], int]  # items checked per call
    check: Callable[[dict, object, dict], list[str]]  # -> failed item names
    references: dict


# -- table --------------------------------------------------------------------

def _table_inputs(seed: int) -> dict:
    return {"n_max": TABLE_N, "rank": TABLE_RANK, "jobs": 1}


def _table_run(inp: dict):
    return index.f_table(inp["n_max"], inp["rank"], jobs=inp["jobs"])


def _table_check(inp: dict, payload: dict, refs: dict) -> list[str]:
    failed = []
    rank = inp["rank"]
    whole_ok = refs["sha256"] in (None, digest(payload))
    for row, f_prim, f_simp in zip(payload["rows"], refs["f_prim"], refs["f_simp"]):
        wp, ws = _cyclic(row["witness_prim"], rank), _cyclic(row["witness_simp"], rank)
        ok = (
            whole_ok
            and row["f_prim"] == f_prim == index.d_prim_census_oracle(wp, f_prim)
            and row["f_simp"] == f_simp == index.d_simp_census(ws, f_simp)
        )
        if not ok:
            failed.append(f"row n={row['n']}")
    missing = len(refs["f_prim"]) - len(payload["rows"])
    failed += [f"missing row {i}" for i in range(max(missing, 0))]
    return failed


# -- index-hard ---------------------------------------------------------------

def _hard_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    words = [
        CyclicWord(transform(_cyclic(text, 2).letters, 2, rng), 2).text()
        for text, _, _ in HARD_CLASSES
    ]
    return {"rank": 2, "words": words}


def _hard_run(inp: dict):
    return [index.index_report(_cyclic(w, inp["rank"])) for w in inp["words"]]


def _hard_check(inp: dict, payload: list, refs: dict) -> list[str]:
    failed = []
    for w, rep, (_, d_prim, d_simp) in zip(inp["words"], payload, refs["classes"]):
        cw = _cyclic(w, inp["rank"])
        ok = (
            rep["word"] == w
            and rep["d_prim"] == d_prim == index.d_prim_census_oracle(cw, refs["degree"])
            and rep["d_simp"] == d_simp == index.d_simp_census(cw, refs["degree"])
            and rep["d_fill"][0] <= rep["d_fill"][1] == d_simp
        )
        if not ok:
            failed.append(w)
    return failed + ["missing report"] * (len(inp["words"]) - len(payload))


# -- experiment ---------------------------------------------------------------

def _experiment_inputs(seed: int) -> dict:
    return dict(EXPERIMENT, seed=seed)


def _experiment_run(inp: dict):
    cfg = randomwalk.WalkConfig(inp["rank"], inp["length"], inp["seed"])
    return randomwalk.experiment_dsimp(cfg, trials=inp["trials"], d_cap=inp["d_cap"])


def _experiment_check(inp: dict, payload: dict, refs: dict) -> list[str]:
    pinned = refs["sha256"].get(inp["seed"])
    ok = (
        sum(payload["distribution"].values()) == inp["trials"]
        and payload["trials"] == inp["trials"]
        and (pinned is None or digest(payload) == pinned)
    )
    # the checks cover the report as a whole, so a failure fails every trial
    return [] if ok else [f"trial {t}" for t in range(inp["trials"])]


# -- census -------------------------------------------------------------------

def _census_inputs(seed: int) -> dict:
    return {
        "census": [list(c) for c in CENSUS],
        "witnesses": [list(w) for w in WITNESSES],
    }


def _census_run(inp: dict):
    counts = [
        [rank, d, len(graphs.cover_census(rank, d))]
        for rank, top in inp["census"]
        for d in range(1, top + 1)
    ]
    return counts, [blockers.witness_word(d, rank) for d, rank in inp["witnesses"]]


def _census_payload(result) -> dict:
    counts, witnesses = result
    return {
        "census": counts,
        "witnesses": [
            {
                "length": len(z),
                "word_sha256": hashlib.sha256(z.text().encode()).hexdigest(),
                "audit": audit.to_json(),
            }
            for z, audit in witnesses
        ],
    }


def _census_check(inp: dict, payload: dict, refs: dict) -> list[str]:
    failed = []
    for rank, d, count in payload["census"]:
        hall = hall_subgroup_counts(rank, d)[-1]
        if not count == hall == refs["counts"][rank][d - 1]:
            failed.append(f"cover_census({rank}, {d})")
    for (d, rank), wit in zip(inp["witnesses"], payload["witnesses"]):
        audit = wit["audit"]
        size = sum(hall_subgroup_counts(rank, d))
        ok = (
            audit["complete"]
            and all(e["certificate"] == "rauzy3-filling" for e in audit["entries"] if e["contains"])
            and audit["census_size"] == size == len(audit["entries"])
            and wit["length"] == refs["lengths"][(d, rank)]
        )
        if not ok:
            failed.append(f"witness_word({d}, {rank})")
    expected = sum(top for _, top in inp["census"]) + len(inp["witnesses"])
    return failed + ["missing item"] * (expected - len(payload["census"]) - len(payload["witnesses"]))


def _json(result):
    return result.to_json()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table", False, _table_inputs, _table_run, _json,
            lambda inp: inp["n_max"], _table_check,
            {"f_prim": TABLE_F_PRIM, "f_simp": TABLE_F_SIMP, "sha256": TABLE_SHA256},
        ),
        Workload(
            "index-hard", True, _hard_inputs, _hard_run,
            lambda reports: [r.to_json() for r in reports],
            lambda inp: len(inp["words"]), _hard_check,
            {"classes": HARD_CLASSES, "degree": HARD_ORACLE_DEGREE},
        ),
        Workload(
            "experiment", True, _experiment_inputs, _experiment_run, _json,
            lambda inp: inp["trials"], _experiment_check,
            {"sha256": EXPERIMENT_SHA256},
        ),
        Workload(
            "census", False, _census_inputs, _census_run, _census_payload,
            lambda inp: sum(top for _, top in inp["census"]) + len(inp["witnesses"]),
            _census_check,
            {"counts": CENSUS_COUNTS, "lengths": WITNESS_LENGTHS},
        ),
    )
}
