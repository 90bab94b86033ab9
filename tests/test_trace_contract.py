"""The benchmark's layer trace must keep working on the current code.

`perfbench/spans.py` wraps dqbalance functions by name (``getattr``), so
renaming or deleting a traced function breaks ``perfbench/run.py --trace 1``.
This test installs the tracer, decides one small graph with each of the
four methods, and checks that every method span recorded time.  Inner
spans are not checked: one can read 0 while its layer still runs, when the
code stops calling the traced function (see ROADMAP item 6).
"""

import importlib.util
from pathlib import Path

from dqbalance import balance
from dqbalance.balance import check_balance
from dqbalance.generate import gen_random_balanced

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_every_method():
    spans = load_spans()
    unit = gen_random_balanced(6, 0.3, "unit_dual_quaternion", 1)
    general = gen_random_balanced(6, 0.3, "dual_quaternion", 1)
    original = balance.direct_method
    tracer = spans.Tracer()
    tracer.install()
    try:
        for method in ("direct", "gain_graph", "cycle_oracle"):
            check_balance(unit, method)
        check_balance(general, "wdg_similarity")
    finally:
        tracer.uninstall()
    for name in spans.METHOD_SPANS:
        assert tracer.calls[name] == 1, name
        assert tracer.self_s[name] > 0.0, name
    assert balance.direct_method is original
