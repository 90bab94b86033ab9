"""Record and compare the outcome of every benchmark decide.

Runs each (instance, method) pair of the three benchmark workloads once per
seed, gates it as the benchmark does, and writes one JSON record per decide:
workload, instance, method, verdict, failure stage, witness, err, formation
and gate outcome.  Comparing the records of two checkouts shows whether a
change kept every verdict and by how much it moved the residuals.

    python3 tools/decide_signatures.py --seeds 1,2,3 --out new.json
    python3 tools/decide_signatures.py --root ../parent --seeds 1,2,3 --out old.json
    python3 tools/decide_signatures.py --diff old.json new.json

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script).  The benchmark files are read, not
changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("verdict", "failure_stage", "witness", "gate")


def _load(root: Path):
    """Pin BLAS to one thread as the benchmark does; import from ``root``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import gate
    import workloads
    from dqbalance import serialize
    return gate, workloads, serialize


def _record(seed, workload, index, inst, method, outcome, failure) -> dict:
    rec = {"seed": seed, "workload": workload, "index": index, "instance": inst.name,
           "method": method, "gate": "pass" if failure is None else failure.stage}
    if isinstance(outcome, Exception):
        return {**rec, "verdict": f"raise {type(outcome).__name__}", "failure_stage": None,
                "witness": None, "err": None, "formation": None}
    witness = outcome.witness
    return {**rec, "verdict": outcome.verdict.value,
            "failure_stage": outcome.failure_stage and outcome.failure_stage.value,
            "witness": witness and [list(witness.vertices), list(witness.forward)],
            "err": outcome.err,
            "formation": outcome.formation and [list(f.to_array()) for f in outcome.formation]}


def record(root: Path, seeds: list[int]) -> list[dict]:
    gate, workloads, serialize = _load(root)
    out = []
    for seed in seeds:
        for name, workload in workloads.WORKLOADS.items():
            for index, inst in enumerate(workload.instances(seed)):
                g = serialize.loads_graph(inst.doc)
                for method in inst.methods:
                    outcome = workloads.decide(inst.doc, method)
                    failure = gate.check(g, inst.balanced, outcome)
                    out.append(_record(seed, name, index, inst, method, outcome, failure))
    return out


def _largest_change(a, b) -> float:
    """Largest componentwise change between two optional nested lists of floats."""
    if a is None or b is None:
        return 0.0 if a is None and b is None else float("inf")
    if isinstance(a, list):
        if len(a) != len(b):
            return float("inf")
        return max((_largest_change(x, y) for x, y in zip(a, b)), default=0.0)
    return abs(a - b)


def diff(old: list[dict], new: list[dict]) -> list[str]:
    """Summary lines: records that differ, and per method the largest err/formation
    change and how many errs fell, stayed or rose."""
    def key(r):
        return r["seed"], r["workload"], r["index"], r["method"]
    before = {key(r): r for r in old}
    after = {key(r): r for r in new}
    lines = [f"records: {len(before)} old, {len(after)} new, "
             f"{len(before.keys() & after.keys())} in both"]
    differ = [k for k in sorted(before.keys() & after.keys())
              if any(before[k][f] != after[k][f] for f in SAME)]
    lines.append(f"differ in verdict, failure stage, witness or gate: {len(differ)}")
    for k in differ:
        a, b = before[k], after[k]
        lines.append(f"  {k} {a['instance']}: "
                     + ", ".join(f"{f} {a[f]!r} -> {b[f]!r}" for f in SAME if a[f] != b[f]))
    per_method = defaultdict(lambda: [0, 0, 0.0, 0.0, 0, 0, 0])
    for k in sorted(before.keys() & after.keys()):
        a, b = before[k], after[k]
        stats = per_method[k[3]]
        stats[0] += 1
        stats[1] += a["err"] == b["err"] and a["formation"] == b["formation"]
        stats[2] = max(stats[2], _largest_change(a["err"], b["err"]))
        stats[3] = max(stats[3], _largest_change(a["formation"], b["formation"]))
        if a["err"] is not None and b["err"] is not None:   # slots 4-6: fell, stayed, rose
            stats[4 + (b["err"] >= a["err"]) + (b["err"] > a["err"])] += 1
    for method, (count, identical, err, formation, *moved) in sorted(per_method.items()):
        lines.append(f"{method:<16} {count:4d} decides, {identical:4d} bit-identical, "
                     f"largest err change {err:.3g}, largest formation change {formation:.3g}; "
                     "err fell {}, stayed {}, rose {}".format(*moved))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--out", help="write the records of --root to this JSON file")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to import from")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two record files instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text()) for p in args.diff)
        print("\n".join(diff(old, new)))
        return 0
    if not args.out:
        parser.error("--out is required unless --diff is given")
    records = record(args.root.resolve(), [int(s) for s in args.seeds.split(",") if s])
    Path(args.out).write_text(json.dumps(records))
    print(f"{len(records)} decides written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
