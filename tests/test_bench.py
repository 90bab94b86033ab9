import csv
import io
import math

from dqbalance.bench import BenchRecord, CSV_COLUMNS, run_benchmark, write_csv
from dqbalance.graphs import WeightType


def test_run_benchmark_grid_shape():
    records = run_benchmark(sizes=(10, 20),
                            weight_types=(WeightType.UNIT_COMPLEX,
                                          WeightType.UNIT_DUAL_QUATERNION),
                            methods=("direct", "gain_graph"),
                            seed=1)
    assert len(records) == 8
    assert all(r.verdict == "balanced" for r in records)
    assert all(r.err <= 1e-8 for r in records)
    assert all(r.wall_seconds >= 0.0 and r.cpu_seconds >= 0.0 for r in records)


def test_benchmark_deterministic_errs():
    a = run_benchmark(sizes=(12,), weight_types=(WeightType.UNIT_DUAL_QUATERNION,),
                      methods=("direct",), seed=7)
    b = run_benchmark(sizes=(12,), weight_types=(WeightType.UNIT_DUAL_QUATERNION,),
                      methods=("direct",), seed=7)
    assert a[0].err == b[0].err and a[0].verdict == b[0].verdict


def test_csv_output():
    records = [BenchRecord(10, "unit_complex", "direct", 0.01, 0.02, 1e-15, "balanced")]
    buf = io.StringIO()
    write_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][0] == "10"
    assert float(rows[1][3]) == 0.01 and float(rows[1][4]) == 0.02
    assert float(rows[1][5]) == 1e-15


def test_repetitions_average():
    records = run_benchmark(sizes=(10,), weight_types=(WeightType.UNIT_COMPLEX,),
                            methods=("direct",), repetitions=3, seed=2)
    assert len(records) == 1
    assert not math.isnan(records[0].err)
