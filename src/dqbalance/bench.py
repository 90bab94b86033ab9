"""Benchmark harness: balance checks over generated directed cycles.

For every (size, weight type, method) cell, a balanced cycle is generated
and checked; wall and CPU time cover the check only (generation excluded).
Output is CSV with the fixed columns
``n,weight_type,method,wall_seconds,cpu_seconds,err,verdict``.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .balance import Method, check_balance
from .generate import gen_cycle
from .graphs import WeightType

CSV_COLUMNS = ("n", "weight_type", "method", "wall_seconds", "cpu_seconds", "err", "verdict")

DEFAULT_SIZES = (10, 20, 50, 100, 200, 500)
DEFAULT_TYPES = (WeightType.UNIT_COMPLEX, WeightType.UNIT_DUAL_QUATERNION)
DEFAULT_METHODS = (Method.DIRECT, Method.GAIN_GRAPH)


@dataclass(frozen=True)
class BenchRecord:
    n: int
    weight_type: str
    method: str
    wall_seconds: float           # time.perf_counter
    cpu_seconds: float            # time.process_time
    err: float
    verdict: str


def run_benchmark(sizes: Sequence[int] = DEFAULT_SIZES,
                  weight_types: Sequence[WeightType | str] = DEFAULT_TYPES,
                  methods: Sequence[Method | str] = DEFAULT_METHODS,
                  repetitions: int = 1,
                  seed: int = 0) -> list[BenchRecord]:
    """One record per (n, weight type, method); times averaged over repetitions.

    Each cell draws its graph from an independent seed stream, so verdicts
    and residuals are deterministic per ``seed`` (timings of course are not).
    """
    records = []
    for ti, weight_type in enumerate(WeightType(t) for t in weight_types):
        for n in sizes:
            rng = np.random.default_rng(np.random.SeedSequence([seed, ti, n]))
            g = gen_cycle(n, weight_type, rng)
            for method in (Method(m) for m in methods):
                walls, cpus = [], []
                report = None
                for _ in range(max(1, repetitions)):
                    cpu0 = time.process_time()
                    report = check_balance(g, method)
                    cpus.append(time.process_time() - cpu0)
                    walls.append(report.seconds)
                records.append(BenchRecord(
                    n=n,
                    weight_type=weight_type.value,
                    method=method.value,
                    wall_seconds=float(np.mean(walls)),
                    cpu_seconds=float(np.mean(cpus)),
                    err=report.err if report.err is not None else math.nan,
                    verdict=report.verdict.value,
                ))
    return records


def write_csv(records: Iterable[BenchRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.n, r.weight_type, r.method,
                         repr(r.wall_seconds), repr(r.cpu_seconds), repr(r.err), r.verdict])


def save_csv(records: Iterable[BenchRecord], path) -> None:
    with open(path, "w", newline="") as f:
        write_csv(records, f)
