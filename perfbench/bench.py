"""One call of a workload, timed while the host's speed is sampled (see
``probe``), and the checks on the outputs of a run's calls."""
from __future__ import annotations

import time
from dataclasses import dataclass

import probe
import tracer
from workloads import Workload, digest


@dataclass(frozen=True)
class Call:
    wall: float  # seconds, probes included
    norm: float  # seconds at the reference speed, probes excluded
    probes: int
    payload: object


def run_once(wl: Workload, inputs: dict, rec: tracer.Recorder | None = None) -> Call:
    """One call of the workload; traced when rec is given."""
    samples = [probe.timed()]  # so that even a very short call has one
    with probe.sampling(samples):
        if rec is None:
            t0 = time.perf_counter()
            result = wl.run(inputs)
            wall = time.perf_counter() - t0
        else:
            with rec.installed():
                t0 = time.perf_counter()
                result = wl.run(inputs)
                wall = time.perf_counter() - t0
    # samples[0] ran before the clock started, the rest inside the call
    norm = probe.normalize(wall + samples[0], samples)
    return Call(wall, norm, len(samples), wl.payload(result))


def check(wl: Workload, inputs: dict, payloads: list) -> tuple[int, list[str]]:
    """(items attempted, failed item names) over every call's payload.

    The first payload is checked against the references; every other one
    must be byte-identical to it, or all of its items fail.
    """
    items = wl.items(inputs)
    failed = wl.check(inputs, payloads[0], wl.references)
    first = digest(payloads[0])
    for i, payload in enumerate(payloads[1:], start=1):
        if digest(payload) != first:
            failed += [f"call {i}: payload differs from call 0"] * items
    return items * len(payloads), failed
