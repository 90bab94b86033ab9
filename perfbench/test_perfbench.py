"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

import json

import pytest

import run

run.load_package()

import gate  # noqa: E402  (needs the package path set up by load_package)
import workloads  # noqa: E402
from dqbalance import generate, serialize  # noqa: E402

TOY_SIZES = {"cycle_solve": (5, 6), "random_mixed": (6, 8),
             "potential_sparse": (10, 12)}


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_workloads_match_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()]
    assert set(TOY_SIZES) == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, kind, tmp_path):
    lines = []
    result = run.run_workload(name, seed=3, seconds=0, trace=trace, import_s=0.0,
                              sizes=TOY_SIZES[name], emit=lines.append, out_dir=tmp_path)
    assert result["correct"], lines
    assert result["attempted"] >= 1
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == declared(kind)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{name}-seed3.tsv").exists()


def test_workload_inputs_repeat_per_seed():
    for name, sizes in TOY_SIZES.items():
        w = workloads.WORKLOADS[name]
        assert w.instances(5, sizes) == w.instances(5, sizes)
        assert w.instances(5, sizes) != w.instances(6, sizes)


@pytest.mark.parametrize("weight_type, method", [("unit_dual_quaternion", "direct"),
                                                 ("dual_quaternion", "wdg_similarity")])
def test_gate_flags_a_mislabelled_instance(weight_type, method):
    g = generate.perturb(generate.gen_cycle(6, weight_type, 1), (1, 2), 2)
    doc = serialize.dumps_graph(g)
    outcome = workloads.decide(doc, method)
    assert gate.check(g, False, outcome) is None
    failure = gate.check(g, True, outcome)       # perturbed, labelled balanced
    assert failure is not None and failure.stage == "verdict"
    inst = workloads.Instance("mislabelled", doc, True, (method,))
    assert gate.known_defect(inst, method, g, outcome, failure) is None


def test_gate_counts_an_exception_as_a_failure():
    g = generate.gen_cycle(5, "real", 1)
    outcome = workloads.decide(serialize.dumps_graph(g), "direct")   # unit methods only
    failure = gate.check(g, True, outcome)
    assert failure.stage == "decide" and failure.exc_type == "NotUnitWeightTypeError"


def test_pass_count_is_fixed_by_seconds_not_the_clock(tmp_path):
    # Toy graphs decide in milliseconds, so a clock-driven loop would run
    # many more passes than the three that 3 * pass_s asks for.
    w = workloads.WORKLOADS["potential_sparse"]
    runs = [run.run_workload(w.name, seed=1, seconds=3 * w.pass_s, trace=0, import_s=0.0,
                             sizes=TOY_SIZES[w.name], emit=lambda line: None,
                             out_dir=tmp_path) for _ in range(2)]
    decides_per_pass = sum(len(inst.methods) for inst in w.instances(1, TOY_SIZES[w.name]))
    assert [r["attempted"] for r in runs] == [3 * decides_per_pass] * 2
    assert runs[0]["failed"] == runs[1]["failed"]
