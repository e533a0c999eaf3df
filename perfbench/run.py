"""primindex benchmark: one workload, one seed, a closed loop of cold calls.

    python3 perfbench/run.py --workload table --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  Workloads: ``table``, ``index-hard``, ``experiment``, ``census``
(see ``perfbench/DESIGN.md``).  Every call runs in a fresh interpreter, one
at a time, so the library's caches start cold as in a ``primindex`` CLI
process.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced call and the
tracing overhead.  Each run also writes a record with its provenance to
``perfbench/out/``; a traced run also writes its spans there.  The exit code
is 0 only when every output passed its checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 4  # before the measured calls, and as many after
SETUP_PROBES = 3
CALL_TIMEOUT_S = 150


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "primindex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, inputs: dict, seeded: bool) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seed_applies": seeded,
        "inputs": inputs,
        "load": "closed loop, one call at a time, one thread, jobs=1",
    }


def _child(args, *mode: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), *mode,
    ]


def setup_seconds(args) -> list[tuple[float, float]]:
    """(wall, normalized) times of fresh interpreters that import the library
    and make the inputs, then exit (``--setup-only``)."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        # no timeout: wait() with a timeout polls in 50 ms steps
        done = subprocess.run(
            _child(args, "--setup-only"), check=True, capture_output=True, text=True
        )
        wall = time.perf_counter() - t0
        times.append((wall, probe.normalize(wall, json.loads(done.stdout))))
    return times


def one_call(wl, inputs: dict, traced: bool, spans_out: str | None) -> dict:
    """Run in a ``--call`` child: one cold call, as a JSON-able dict."""
    import bench
    import tracer

    rec = tracer.Recorder() if traced else None
    call = bench.run_once(wl, inputs, rec)
    out = {
        "wall_s": call.wall,
        "norm_wall_s": call.norm,
        "probes": call.probes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "payload": call.payload,
    }
    if rec is not None:
        import numpy
        from primindex import graphs

        out["layers"], out["spans"] = tracer.layer_metrics(rec, graphs.out_map.cache_info())
        numpy.savez(spans_out, **rec.arrays())
    return out


def spawn_call(args, traced: bool, spans_out: Path | None = None) -> dict:
    mode = ["--call", "--trace", "1" if traced else "0"]
    if spans_out is not None:
        mode += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        _child(args, *mode), capture_output=True, text=True, timeout=CALL_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"call exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(args) -> tuple[list[dict], list[dict]]:
    """Cold calls until the next round would end after ``--seconds``; at least
    one round.  A traced round is an untraced call, then a traced one."""
    deadline = time.perf_counter() + args.seconds
    calls: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        calls.append(spawn_call(args, False))
        if args.trace:
            traced.append(spawn_call(args, True, OUT / f"spans-{args.workload}-{len(traced)}.npz"))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            return calls, traced


def _call_json(call: dict) -> dict:
    return {k: call[k] for k in ("wall_s", "norm_wall_s", "probes", "rss_mb")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--call", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # the host's speed around set-up: before the library is imported and after
    samples = [probe.timed() for _ in range(SETUP_PROBES)] if args.setup_only else []

    if not (ROOT / "src" / "primindex" / "__init__.py").is_file():
        print(f"error: no primindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    if args.setup_only:
        samples += [probe.timed() for _ in range(SETUP_PROBES)]
        print(json.dumps(samples))
        return 0
    if args.call:
        print(json.dumps(one_call(wl, inputs, bool(args.trace), args.spans_out)))
        return 0

    OUT.mkdir(exist_ok=True)
    setups = [] if args.trace else setup_seconds(args)
    try:
        calls, traced = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired):
        # a call that raises or hangs fails all of its items
        traceback.print_exc()
        items = wl.items(inputs)
        print(json.dumps({"correct": False, "attempted": items, "failed": items, "metrics": {}}))
        return 1
    if not args.trace:
        setups += setup_seconds(args)
    attempted, failed = bench.check(wl, inputs, [c["payload"] for c in calls + traced])

    record = {
        "provenance": provenance(args, inputs, wl.seeded),
        "calls": [_call_json(c) for c in calls],
    }
    if args.trace:
        from tracer import unit

        # the traced call with the median wall time gives the layer metrics
        pick = sorted(range(len(traced)), key=lambda i: traced[i]["wall_s"])[(len(traced) - 1) // 2]
        for i in range(len(traced)):
            spans = OUT / f"spans-{args.workload}-{i}.npz"
            if i == pick:
                spans.replace(OUT / f"spans-{args.workload}.npz")
            else:
                spans.unlink()
        metrics = dict(traced[pick]["layers"])
        base = statistics.median(c["norm_wall_s"] for c in calls)
        metrics["trace.overhead_frac"] = statistics.median(c["norm_wall_s"] for c in traced) / base - 1
        record["traced_calls"] = [_call_json(c) for c in traced]
        record["spans"] = traced[pick]["spans"]
        units = {k: unit(k) for k in metrics}
    else:
        metrics = {
            "norm_wall_s": statistics.median(c["norm_wall_s"] for c in calls),
            "setup_s": statistics.median(norm for _, norm in setups),
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in calls),
            "ok_frac": 1 - len(failed) / attempted,
        }
        units = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
        record["wall_s"] = statistics.median(c["wall_s"] for c in calls)
        record["setup"] = [{"wall_s": wall, "norm_s": norm} for wall, norm in setups]
    record.update(metrics=metrics, failed=failed[:50])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for name in failed[:20]:
        print(f"FAILED {args.workload}: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
