"""Command-line front end: index computation, tables, blockers, walks,
cover censuses, graph export, and the acceptance self test.

Every JSON payload embeds a manifest (command, parameters, version, seeds);
wall time goes to stderr so payloads replay byte-for-byte.

Exit codes: 0 success, 2 invalid input or input outside an operation's
supported domain, 3 resource guard tripped, 4 self-test failure.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from . import __version__
from .acceptance import run_all
from .blockers import blocking_word, forcing_word, witness_word
from .errors import InvalidInputError, ResourceGuardError, UnsupportedInputError
from .graphs import cover_census, cover_graph, graph_to_dot, graph_to_json, subgroup_count
from .index import f_table, index_report
from .randomwalk import (
    RNG_ALGORITHM,
    WalkConfig,
    experiment_dsimp,
    sample_word,
)
from .words import CyclicWord, Word, word_stats

SCHEMA_VERSION = 1


def _manifest(command: str, params: dict, seeds: list[int] | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": params,
        "version": __version__,
        "seeds": seeds or [],
    }


def _emit_json(manifest: dict, result) -> None:
    print(json.dumps({"manifest": manifest, "result": result}, indent=2, sort_keys=True))


def _check_out_dir(out: str | None) -> None:
    """Refuse an --out path with no directory, that is a directory, or that
    may not be written, before any computation runs; nothing is created."""
    if not out:
        return
    path = Path(out)
    if not path.parent.is_dir():
        raise InvalidInputError(f"cannot write {out}: no directory {path.parent}")
    if path.is_dir():
        raise InvalidInputError(f"cannot write {out}: is a directory")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise InvalidInputError(f"cannot write {out}: permission denied")


def _write_out(out: str, payload: dict) -> None:
    try:
        Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out}: {exc.strerror}") from None
    print(f"wrote {out}", file=sys.stderr)


def _parse_cyclic(text: str, rank: int) -> CyclicWord:
    w = CyclicWord.parse(text, rank)
    if not w.letters:
        raise InvalidInputError("the word reduces to the identity")
    return w


# -- commands -----------------------------------------------------------------

def cmd_index(args) -> int:
    w = _parse_cyclic(args.word, args.rank)
    rep = index_report(
        w, max_index=args.max_index, max_partitions=args.max_partitions
    )
    manifest = _manifest(
        "index",
        {
            "word": args.word,
            "rank": args.rank,
            "max_index": args.max_index,
            "max_partitions": args.max_partitions,
        },
    )
    if args.json:
        _emit_json(manifest, rep.to_json())
    else:
        print(f"word (cyclic form): {w.text()}   rank {args.rank}")
        print(f"d_prim = {rep.d_prim}")
        print(f"d_simp = {rep.d_simp}")
        if rep.d_fill_lower == rep.d_fill_upper:
            print(f"d_fill = {rep.d_fill_lower} (exact)")
        else:
            print(f"d_fill in [{rep.d_fill_lower}, {rep.d_fill_upper}]")
        for kind, witness in rep.witnesses.items():
            g = witness.graph
            print(
                f"witness[{kind}]: {g.num_vertices} vertices, "
                f"{len(g.edges)} edges, certificate {witness.certificate}"
            )
    return 0


def cmd_table(args) -> int:
    _check_out_dir(args.out)
    table = f_table(
        args.nmax, args.rank, max_partitions=args.max_partitions, jobs=args.jobs
    )
    manifest = _manifest(
        "table",
        {
            "nmax": args.nmax,
            "rank": args.rank,
            "jobs": args.jobs,
            "max_partitions": args.max_partitions,
        },
    )
    if args.out:
        _write_out(args.out, {"manifest": manifest, "result": table.to_json()})
    if args.json:
        _emit_json(manifest, table.to_json())
    elif not args.out:
        print(f"{'n':>3} {'f_prim':>7} {'f_simp':>7} {'f_fill':>12}  witness")
        for r in table.rows:
            fill = (
                str(r.f_fill_lower)
                if r.f_fill_lower == r.f_fill_upper
                else f"[{r.f_fill_lower},{r.f_fill_upper}]"
            )
            print(
                f"{r.n:>3} {r.f_prim:>7} {r.f_simp:>7} {fill:>12}  {r.witness_prim}"
            )
    return 0


def cmd_blocker(args) -> int:
    build = blocking_word if args.kind == "alpha" else forcing_word
    reports = [
        build(cover_graph(args.rank, perms)) for perms in cover_census(args.rank, args.degree)
    ]
    manifest = _manifest(
        "blocker",
        {
            "degree": args.degree,
            "rank": args.rank,
            "kind": args.kind,
            "verify": args.verify,
        },
    )
    if args.json:
        payload = []
        for rep in reports:
            entry = rep.to_json()
            if args.verify:
                entry["per_vertex_containment"] = list(rep.per_vertex_containment)
            payload.append(entry)
        _emit_json(manifest, payload)
    else:
        for i, rep in enumerate(reports):
            status = "verified" if rep.verified else "UNVERIFIED"
            print(
                f"cover {i}: degree {rep.cover.num_vertices}, kind {rep.kind}, "
                f"|word| = {len(rep.word)} <= {rep.length_bound}, {status}"
            )
            if args.verbose:
                print(f"  word: {rep.word.text()}")
    if not all(r.verified for r in reports):
        return 4
    return 0


def cmd_minimize(args) -> int:
    from .whitehead import minimize, replay_trace

    w = Word.parse(args.word, args.rank)
    if w.is_trivial():
        raise InvalidInputError("the word reduces to the identity")
    minimal, trace = minimize(w)
    replayed = replay_trace(w, trace)
    manifest = _manifest("minimize", {"word": args.word, "rank": args.rank})
    if args.json:
        _emit_json(
            manifest,
            {
                "minimal": minimal.text(),
                "minimal_length": len(minimal),
                "trace": [t.to_json() for t in trace],
                "replay_matches": replayed.letters == minimal.letters,
            },
        )
    else:
        print(f"minimal form: {minimal.text()} (length {len(minimal)})")
        print(f"trace: {len(trace)} automorphisms; replay matches: "
              f"{replayed.letters == minimal.letters}")
        for t in trace:
            print(f"  {json.dumps(t.to_json(), sort_keys=True)}")
    return 0


def cmd_witness(args) -> int:
    z, audit = witness_word(args.degree, args.rank, max_covers=args.max_covers)
    manifest = _manifest(
        "witness",
        {"degree": args.degree, "rank": args.rank, "max_covers": args.max_covers},
    )
    if args.json:
        _emit_json(
            manifest,
            {"word": z.text(), "length": len(z), "audit": audit.to_json()},
        )
    else:
        print(f"witness word of degree {args.degree}: length {len(z)}")
        print(f"census size {audit.census_size}; audit complete: {audit.complete}")
        for e in audit.entries:
            status = e.certificate if e.contains else "does not contain"
            print(f"  cover d={e.degree} #{e.cover_index}: {status}")
    return 0 if audit.complete else 4


def cmd_walk(args) -> int:
    word = sample_word(WalkConfig(args.rank, args.n, args.seed))
    stats = word_stats(word) if args.stats else None
    manifest = _manifest(
        "walk",
        {"rank": args.rank, "n": args.n, "stats": args.stats,
         "algorithm": RNG_ALGORITHM},
        seeds=[args.seed],
    )
    if args.json:
        result = {"word": word.text(), "algorithm": RNG_ALGORITHM}
        if args.stats:
            result["stats"] = {
                "length": stats.length,
                "iota_length": stats.iota_length,
                "subword_counts": stats.subword_counts,
            }
        _emit_json(manifest, result)
    else:
        print(word.text())
        if args.stats:
            print(f"iota length: {stats.iota_length}", file=sys.stderr)
            for sigma, count in sorted(stats.subword_counts.items()):
                print(f"  <{sigma}, w> = {count}", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    _check_out_dir(args.out)
    cfg = WalkConfig(args.rank, args.n, args.seed)
    report = experiment_dsimp(cfg, trials=args.trials, d_cap=args.dcap)
    manifest = _manifest(
        "experiment",
        {"rank": args.rank, "n": args.n, "trials": args.trials, "dcap": args.dcap,
         "algorithm": RNG_ALGORITHM},
        seeds=[args.seed],
    )
    if args.out:
        _write_out(args.out, {"manifest": manifest, "result": report.to_json()})
    _emit_json(manifest, report.to_json())
    return 0


def cmd_covers(args) -> int:
    if args.max_covers is not None:
        count = subgroup_count(args.rank, args.degree)
        if count > args.max_covers:
            raise ResourceGuardError(
                f"{count} covers exceed --max-covers {args.max_covers}"
            )
    covers = [cover_graph(args.rank, perms) for perms in cover_census(args.rank, args.degree)]
    manifest = _manifest(
        "covers",
        {"rank": args.rank, "degree": args.degree},
    )
    if args.dot:
        outdir = Path(args.dot)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidInputError(f"cannot write DOT files to {outdir}: {exc.strerror}") from None
        for i, g in enumerate(covers):
            (outdir / f"cover_{args.degree}_{i}.dot").write_text(
                graph_to_dot(g, name=f"cover_{args.degree}_{i}")
            )
        print(f"wrote {len(covers)} DOT files to {outdir}", file=sys.stderr)
    if args.json:
        _emit_json(manifest, [graph_to_json(g) for g in covers])
    else:
        print(f"{len(covers)} based covers of degree {args.degree}, rank {args.rank}")
        for i, g in enumerate(covers):
            print(f"cover {i}: edges {g.edges}")
    return 0


def cmd_selftest(args) -> int:
    results = run_all(fast=args.fast)
    for r in results:
        print(r.line())
    if not all(r.passed for r in results):
        return 4
    return 0


# -- argument parsing -----------------------------------------------------------

def _positive_int(text: str) -> int:
    """argparse type of the caps, the deadline and the job count: anything
    but a positive integer is invalid input, and argparse exits 2."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primindex",
        description=(
            "Primitivity, simplicity and non-filling indexes in free groups: "
            "exact index computation, index-function tables, blocking and "
            "forcing words, witness words, cover censuses, and "
            "non-backtracking walk experiments."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument(
            "--timeout-seconds", type=_positive_int, default=None,
            help="abort with exit code 3 after this many seconds",
        )

    p = sub.add_parser("index", help="compute d_prim / d_simp / d_fill bounds")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-index", type=_positive_int, default=None)
    p.add_argument(
        "--max-partitions", type=_positive_int, default=None,
        help="cap on quotient search steps (edge choices tried); exit 3 beyond it",
    )
    common(p)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("table", help="index-function table over word lengths")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument(
        "--max-partitions", type=_positive_int, default=None,
        help="cap on each class's quotient search steps (edge choices tried); exit 3 "
        "beyond it. The table's scans find degrees only and stop each level at its "
        "first success, so a class can finish under a cap that `index` exceeds",
    )
    common(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("blocker", help="blocking/forcing words for covers")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--kind", choices=["alpha", "beta"], default="beta")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--verbose", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_blocker)

    p = sub.add_parser("minimize", help="Whitehead-minimal form with trace")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("witness", help="witness word with filling audit")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-covers", type=_positive_int, default=None)
    common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("walk", help="sample a uniform freely reduced word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stats", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("experiment", help="simplicity index of random words")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--dcap", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("covers", help="census of based covers")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--dot", default=None, help="directory for DOT export")
    p.add_argument("--max-covers", type=_positive_int, default=None)
    common(p)
    p.set_defaults(fn=cmd_covers)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--fast", action="store_true",
                   help="smoke scale for the walk statistics criterion")
    common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    timeout = getattr(args, "timeout_seconds", None)
    if timeout:
        def on_alarm(signum, frame):
            raise ResourceGuardError(f"timed out after {timeout}s")

        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(timeout)
    try:
        code = args.fn(args)
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except UnsupportedInputError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    finally:
        if timeout:
            signal.alarm(0)
        print(f"wall time: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
