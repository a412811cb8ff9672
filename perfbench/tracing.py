"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files, around each call into a
layer of dht_rebalance.  A span is (name, start_ns, end_ns, job_id); the job
id names the job span that caused it (-1 for pass-level work such as building
rings).  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

JOB = "job"


class Tracer:
    """Calls a layer function, recording a span around it when enabled."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int]] = []
        self.job = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, t0, time.perf_counter_ns(), self.job))

    def job_span(self, job_id: int, t0_ns: int, t1_ns: int) -> None:
        if self.enabled:
            self.spans.append((JOB, t0_ns, t1_ns, job_id))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0,
                                     "end_ns": t1, "job": job}) + "\n")


def layer_self_times(spans) -> dict[str, tuple[float, int]]:
    """Per layer span name: (self seconds, calls).

    A layer span's self time is its whole duration: the benchmark wraps only
    its own calls into the program, so layer spans never nest.  Job spans are
    the parents and are left out.
    """
    out: dict[str, list] = defaultdict(lambda: [0, 0])
    for name, t0, t1, _job in spans:
        if name == JOB:
            continue
        acc = out[name]
        acc[0] += t1 - t0
        acc[1] += 1
    return {name: (ns / 1e9, calls) for name, (ns, calls) in out.items()}
