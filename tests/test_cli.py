import csv
import json

import pytest

from dqbalance.cli import main
from dqbalance.generate import gen_random_balanced
from dqbalance.graphs import build
from dqbalance.serialize import load_graph, save_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_check_balanced(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    code, _, _ = run(capsys, "gen", "cycle", "--n", "6", "--type", "udq",
                     "--seed", "3", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "check", path, "--method", "all")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 3  # direct, gain, oracle all report
    assert all("verdict=balanced" in l for l in lines)


def test_gen_unbalanced_then_check(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    code, _, _ = run(capsys, "gen", "cycle", "--n", "10", "--type", "udq",
                     "--seed", "7", "--unbalanced", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "check", path, "--method", "all")
    assert code == 1
    assert "verdict=unbalanced" in out


def test_check_single_method_json(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "gen", "cycle", "--n", "5", "--type", "udc",
        "--seed", "1", "--out", path)
    code, out, _ = run(capsys, "check", path, "--method", "direct", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "balanced"
    assert obj["method"] == "direct"


def test_check_general_graph_all(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "gen", "random", "--n", "7", "--type", "dq", "--seed", "2",
        "--density", "0.2", "--out", path)
    code, out, _ = run(capsys, "check", path, "--method", "all")
    assert code == 0
    assert "method=cycle_oracle" in out and "method=wdg_similarity" in out


def test_check_direct_on_general_graph_is_usage_error(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "gen", "random", "--n", "5", "--type", "real", "--seed", "2",
        "--out", path)
    code, _, err = run(capsys, "check", path, "--method", "direct")
    assert code == 3
    assert "unit weight" in err


def test_gen_tree_unbalanced_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "tree", "--n", "5", "--seed", "0",
                       "--unbalanced", "--out", str(tmp_path / "t.json"))
    assert code == 3
    assert "acyclic" in err


def test_gen_writes_stdout(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "--n", "4", "--seed", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4


def test_gen_dst_flag(tmp_path, capsys):
    from dqbalance.graphs import has_directed_spanning_tree
    path = str(tmp_path / "g.json")
    code, _, _ = run(capsys, "gen", "random", "--n", "9", "--type", "udq",
                     "--seed", "4", "--dst", "--out", path)
    assert code == 0
    assert has_directed_spanning_tree(load_graph(path).graph)


def test_malformed_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "check", str(path))
    assert code == 4
    assert "JSON" in err or "json" in err


def test_unknown_weight_type_in_a_graph_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "weight_type": "octonion", "arcs": []}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 4
    assert "octonion" in err


def test_a_vertex_count_beyond_the_arc_keys_is_io_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    arc = {"tail": 1, "head": 2, "w": {"s": [1.0, 0.0, 0.0, 0.0], "d": [0.0] * 4}}
    path.write_text(json.dumps({"n": 2 ** 32, "weight_type": "real", "arcs": [arc]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 4
    assert "4294967296 vertices" in err


def arc_entry(tail, head, s=(1.0, 0.0, 0.0, 0.0), d=(0.0,) * 4):
    return {"tail": tail, "head": head, "w": {"s": list(s), "d": list(d)}}


@pytest.mark.parametrize("weight_type, arcs, message", [
    ("real", [arc_entry(1, 4)], "out of range"),
    ("real", [arc_entry(2, 2)], "loop arc"),
    ("real", [arc_entry(1, 2), arc_entry(1, 2)], "duplicate arc"),
    ("unit_complex", [arc_entry(1, 2, s=(2.0, 0.0, 0.0, 0.0))], "unit validation"),
    ("real", [arc_entry(1, 2, s=(float("nan"), 0.0, 0.0, 0.0))], "not finite"),
    ("complex", [arc_entry(1, 2, d=(1e170, 0.0, 0.0, 0.0))], "norm overflows"),
])
def test_an_invalid_document_is_an_input_error(tmp_path, capsys, weight_type, arcs, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "weight_type": weight_type, "arcs": arcs}))
    for command in (["check", str(path), "--method", "all"], ["verify-potential", str(path)]):
        code, out, err = run(capsys, *command)
        assert code == 4 and out == ""
        assert message in err and "Traceback" not in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/g.json")
    assert code == 4


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])  # missing file argument
    assert exc.value.code == 3


def test_unknown_weight_type(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "cycle", "--n", "5", "--type", "octonion"])
    assert exc.value.code == 3


def test_bench_csv(tmp_path, capsys):
    path = str(tmp_path / "bench.csv")
    code, _, _ = run(capsys, "bench", "--sizes", "10,20", "--types", "udc",
                     "--methods", "direct", "--out", path)
    assert code == 0
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n", "weight_type", "method", "wall_seconds", "cpu_seconds", "err",
                       "verdict"]
    assert len(rows) == 3
    assert all(r[6] == "balanced" for r in rows[1:])


def test_bench_stdout(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "10", "--types", "udq",
                       "--methods", "gain")
    assert code == 0
    assert out.splitlines()[0].startswith("n,weight_type,method")


def test_verify_potential_balanced(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "gen", "random", "--n", "6", "--type", "complex", "--seed", "5",
        "--density", "0.2", "--out", path)
    code, out, _ = run(capsys, "verify-potential", path)
    assert code == 0
    assert "potential found" in out


def test_verify_potential_unbalanced(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "gen", "cycle", "--n", "6", "--type", "complex", "--seed", "6",
        "--unbalanced", "--out", path)
    code, out, _ = run(capsys, "verify-potential", path)
    assert code == 1
    assert "unbalanced" in out


def test_verify_potential_gate_scales_with_the_weights(tmp_path, capsys):
    # The residuals grow with the weights, so the gate must too.
    g = gen_random_balanced(40, 0.1, "dual_quaternion", 2)
    path = str(tmp_path / "g.json")
    save_graph(build(g.n, g.arcs, dict(zip(g.arcs, g.weight_array * 1e6)), g.weight_type), path)
    code, out, _ = run(capsys, "verify-potential", path, "--json")
    assert code == 0
    assert json.loads(out)["balanced"] is True
