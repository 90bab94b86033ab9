"""dqbalance benchmark: closed-loop balance decides on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cycle_solve --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One decide is `serialize.loads_graph(doc)` followed by
`balance.check_balance(g, method)` for one (document, method) pair.  The
loop has concurrency 1: each decide starts when the previous one ends.  It
runs a fixed number of whole passes over the workload's (document, method)
pairs: as many as take about ``--seconds`` on the reference machine, and
at least two (see `Workload.passes`).  After the clock stops, every decide
is checked against the label the generator gave its instance (see `gate`).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` passes alternate between untraced
and traced; the traced passes must reproduce the untraced verdicts and
``residual_max`` exactly, and the last line carries the per-layer
metrics.  Spans are written to ``perfbench/out/`` when the run ends.
"""

import os
import sys
import time

_START = time.perf_counter()

import argparse
import json
import resource
import statistics
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# BLAS / OpenMP threads, capped at the number of CPUs.  One thread: on a
# shared two-CPU machine cycle_solve figures spread 5-16% between runs with
# two threads and 5-7% with one.
THREADS = 1
SETUPS = 3          # set-up repetitions; setup_s reports their median
WORKLOAD_NAMES = ("cycle_solve", "random_mixed", "potential_sparse")
END_TO_END = (("setup_s", "s"), ("decide_p50_s", "s"), ("decide_tail_s", "s"),
              ("decides_per_s", "1/s"), ("cpu_per_decide_s", "s"), ("peak_rss_mb", "MB"))


def load_package() -> float:
    """Pin BLAS threads, import dqbalance from this checkout; return seconds since start."""
    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    import dqbalance
    if not Path(dqbalance.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"dqbalance imported from {dqbalance.__file__}, not this checkout")
    return perf_counter() - _START


def environment() -> dict:
    import networkx
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy, "networkx": networkx.__version__}


class Phase:
    """Decides of one kind (untraced or traced) in a closed loop.

    ``outcomes[op]`` maps each distinct outcome signature of that
    (instance, method) pair to its first outcome and the decide ids that
    produced it; repeats of a deterministic decide cost no memory.
    """

    def __init__(self):
        self.samples = []
        self.outcomes = defaultdict(dict)
        self.passes = 0
        self.wall = 0.0
        self.cpu = 0.0

    def run_pass(self, ops, instances, decide_id, tracer=None) -> int:
        """One decide of every (instance, method) pair; returns the next decide id."""
        from gate import signature
        from workloads import decide
        wall0, cpu0 = perf_counter(), process_time()
        for op, (i, method) in enumerate(ops):
            if tracer is not None:
                tracer.decide = decide_id
            t0 = perf_counter()
            outcome = decide(instances[i].doc, method)
            self.samples.append(perf_counter() - t0)
            sig = signature(outcome)
            seen = self.outcomes[op].get(sig)
            if seen is None:
                self.outcomes[op][sig] = (outcome, [decide_id])
            else:
                seen[1].append(decide_id)
            decide_id += 1
        self.wall += perf_counter() - wall0
        self.cpu += process_time() - cpu0
        self.passes += 1
        return decide_id

    def verdicts(self) -> dict:
        return {op: sorted(sig[0] for sig in sigs) for op, sigs in self.outcomes.items()}

    def residual_max(self) -> float:
        """Largest certificate residual over balanced verdicts."""
        return max((outcome.err for sigs in self.outcomes.values()
                    for sig, (outcome, _) in sigs.items()
                    if sig[0] == "balanced" and outcome.err is not None), default=0.0)


def closed_loop(ops, instances, passes, tracer=None) -> list[Phase]:
    """``passes`` whole passes over the (instance, method) pairs.

    The pass count does not depend on the clock, so a run of a given seed
    makes the same decides, and the same failed decides, on every machine.
    With a tracer, passes alternate between an untraced and a traced phase,
    so that a drift in machine speed falls on both alike; the tracer is
    installed for the traced passes only.
    """
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    decide_id = 0
    for k in range(passes):
        phase = phases[k % len(phases)]
        if phase is not phases[0]:
            tracer.install()
            try:
                decide_id = phase.run_pass(ops, instances, decide_id, tracer)
            finally:
                tracer.uninstall()
        else:
            decide_id = phase.run_pass(ops, instances, decide_id)
    return phases


def set_up(workload, seed, sizes=None):
    """Generate and serialize the inputs SETUPS times; inputs must repeat exactly."""
    times, instances = [], None
    for _ in range(SETUPS):
        t0 = perf_counter()
        again = workload.instances(seed, sizes)
        times.append(perf_counter() - t0)
        if instances is not None and again != instances:
            raise RuntimeError(f"{workload.name}: inputs differ between set-ups of one seed")
        instances = again
    return instances, statistics.median(times)


def verify(phases, ops, instances):
    """Gate every decide; returns (failures, number of failed decides)."""
    import gate
    from dqbalance import serialize
    graphs = {}
    failures, failed = [], 0
    for phase in phases:
        for op, sigs in phase.outcomes.items():
            i, method = ops[op]
            inst = instances[i]
            if i not in graphs:
                graphs[i] = serialize.loads_graph(inst.doc)
            for outcome, ids in sigs.values():
                failure = gate.check(graphs[i], inst.balanced, outcome)
                if failure is None:
                    continue
                failed += len(ids)
                failures.append({"op": op, "instance": inst.name, "method": method,
                                 "stage": failure.stage, "exc_type": failure.exc_type,
                                 "detail": failure.detail, "decides": ids,
                                 "known_defect": gate.known_defect(inst, method, graphs[i],
                                                                   outcome, failure)})
    return failures, failed


def tail_percentile(wanted: int, n: int) -> int:
    """``wanted``, or the highest percentile with at least ten samples beyond it."""
    if n * (100 - wanted) >= 1000:
        return wanted
    return max(50, int(100 * (1 - 10 / n)))


def percentile(samples, pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def run_workload(name, seed, seconds, trace, import_s, sizes=None, emit=print,
                 out_dir=OUT_DIR) -> dict:
    """Set up, run and verify one workload; returns the result object.

    ``sizes`` overrides the workload's graph sizes (the self-tests use toy
    sizes); ``emit`` receives the human-readable lines.
    """
    import random
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    setup_tracer = Tracer()
    if trace:
        setup_tracer.install_generators()
    try:
        instances, gen_s = set_up(workload, seed, sizes)
    finally:
        setup_tracer.uninstall()
    ops = [(i, m) for i, inst in enumerate(instances) for m in inst.methods]
    random.Random(seed).shuffle(ops)
    setup_s = import_s + gen_s

    problems = []
    tracer = Tracer() if trace else None
    passes = workload.passes(seconds)
    passes += passes % 2 if trace else 0        # as many traced passes as untraced
    phases = closed_loop(ops, instances, passes, tracer)
    if trace:
        untraced, traced = phases
        if traced.verdicts() != untraced.verdicts():
            problems.append("traced verdicts differ from untraced")
    failures, failed = verify(phases, ops, instances)
    residual_max = phases[0].residual_max()
    if trace and traced.residual_max() != residual_max:
        problems.append(f"traced residual_max {traced.residual_max()!r} "
                        f"!= untraced {residual_max!r}")
    problems += [f"unexpected failure: {f['instance']} {f['method']} {f['stage']}"
                 for f in failures if not f["known_defect"]]
    attempted = sum(len(p.samples) for p in phases)

    timed = phases[-1]
    tail_pct = tail_percentile(workload.tail_pct, len(timed.samples))
    emit(f"# {name} seed={seed}: {len(instances)} graphs, {len(ops)} decides/pass, "
         f"{timed.passes} passes, {len(timed.samples)} timed decides, "
         f"tail = p{tail_pct}, closed loop, concurrency 1")
    if not trace:
        values = {
            "setup_s": setup_s,
            "decide_p50_s": statistics.median(timed.samples),
            "decide_tail_s": percentile(timed.samples, tail_pct),
            "decides_per_s": len(timed.samples) / timed.wall,
            "cpu_per_decide_s": timed.cpu / len(timed.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        per = len(traced.samples)
        base = sum(untraced.samples) / len(untraced.samples)
        values = tracer.layer_metrics(per, SETUPS, setup_tracer)
        values["trace.overhead_frac"] = (sum(traced.samples) / per - base) / base
        values["trace.covered_frac"] = sum(tracer.self_s.values()) / sum(traced.samples)
        units = dict(PER_LAYER)
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.tsv")
        setup_tracer.write(out_dir / f"setup-spans-{name}-seed{seed}.tsv")
        emit(f"# trace.overhead_frac base: untraced mean decide {base:.6g} s "
             f"over {len(untraced.samples)} decides")
    for key, value in values.items():
        emit(f"{key:<44} {value:.6g} {units[key]}")
    # Reported, but not in the result object: fail_frac is 0 on most
    # workloads, and residual_max is a maximum of rounding errors that moves
    # by half its value from seed to seed, so neither can carry a bound.
    emit(f"{'fail_frac':<44} {failed / attempted:.6g} 1  ({failed}/{attempted})")
    emit(f"{'residual_max':<44} {residual_max:.6g} 1  (largest err of a balanced verdict)")
    emit("# failures " + json.dumps(failures))
    for problem in problems:
        emit(f"# problem: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = load_package()
    print("# env " + json.dumps(environment()))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, import_s)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
