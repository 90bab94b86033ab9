"""`tools/decide_signatures.py --diff` on hand-made records.

The tool is a script, not part of the package, so it is loaded by path.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "decide_signatures.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("decide_signatures", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(index, method, weight_type, digest, err, verdict="balanced"):
    return {"seed": 1, "workload": "random_mixed", "index": index, "instance": f"g{index}",
            "doc_sha256": digest, "weight_type": weight_type, "method": method,
            "gate": "pass", "verdict": verdict, "failure_stage": None, "witness": None,
            "err": err, "formation": None}


def test_diff_counts_moved_documents_per_weight_type_and_changed_decides():
    old = [record(0, "direct", "unit_complex", "a", 1e-12),
           record(0, "gain_graph", "unit_complex", "a", 2e-12),
           record(1, "wdg_similarity", "real", "b", 3e-12),
           record(2, "wdg_similarity", "real", "c", 4e-12)]
    new = [record(0, "direct", "unit_complex", "a", 1e-12),
           record(0, "gain_graph", "unit_complex", "a", 2e-12),
           record(1, "wdg_similarity", "real", "B", 2e-12),
           record(2, "wdg_similarity", "real", "c", 5e-12, verdict="unbalanced")]
    lines = load_tool().diff(old, new)
    assert lines[0] == "records: 4 old, 4 new, 4 in both"
    assert lines[1] == "documents that differ: 1 of 3"
    assert lines[2].split() == ["real", "1", "of", "2"]
    assert lines[3].split() == ["unit_complex", "0", "of", "1"]
    assert lines[4] == "differ in verdict, failure stage, witness or gate: 1"
    assert lines[5] == "  by field: verdict 1, failure stage 0, witness 0, gate 0"
    assert "verdict 'balanced' -> 'unbalanced'" in lines[6]
    methods = {line.split()[0]: line for line in lines[7:]}
    assert "2 decides,    0 bit-identical" in methods["wdg_similarity"]
    assert methods["wdg_similarity"].endswith("err fell 1, stayed 0, rose 1")
    assert methods["direct"].endswith("err fell 0, stayed 1, rose 0")


def test_diff_counts_each_field_that_differs():
    # A witness-only change reads as such: one decide gains a witness, another
    # changes stage and gate together.
    old = [record(k, "direct", "unit_complex", "a", None, verdict="unbalanced") for k in range(3)]
    new = [dict(r) for r in old]
    new[0]["witness"] = [[1, 2, 3], [True, True, False]]
    new[1].update(failure_stage="standard_solve", gate="verdict")
    lines = load_tool().diff(old, new)
    assert lines[3] == "differ in verdict, failure stage, witness or gate: 2"
    assert lines[4] == "  by field: verdict 0, failure stage 1, witness 1, gate 1"
    assert "witness None -> [[1, 2, 3], [True, True, False]]" in lines[5]
    assert lines[6].endswith("failure_stage None -> 'standard_solve', gate 'pass' -> 'verdict'")


def test_diff_reports_documents_without_a_digest():
    old = [record(0, "direct", "unit_complex", "a", 1e-12)]
    del old[0]["doc_sha256"]
    new = [record(0, "direct", "unit_complex", "a", 1e-12)]
    assert load_tool().diff(old, new)[1] == "documents that differ: 0 of 0 (1 more without a digest)"


def test_diff_exit_status(tmp_path, capsys):
    base = [record(0, "direct", "unit_complex", "a", 1e-12),
            record(1, "wdg_similarity", "real", "b", 3e-12)]
    moved_err = [record(0, "direct", "unit_complex", "a", 2e-12),
                 record(1, "wdg_similarity", "real", "B", 3e-12)]
    cases = {"same": (base, 0), "err and document moved": (moved_err, 0),
             "verdict": ([base[0], record(1, "wdg_similarity", "real", "b", 3e-12,
                                          verdict="unbalanced")], 1),
             "only in old": (base[:1], 1),
             "only in new": (base + [record(2, "direct", "real", "c", 1e-12)], 1)}
    for field, value in [("failure_stage", "cycle_found"), ("witness", [[1, 2], [True, True]]),
                         ("gate", "formation")]:
        cases[field] = ([base[0], {**base[1], field: value}], 1)
    tool = load_tool()
    old = tmp_path / "old.json"
    old.write_text(json.dumps(base))
    for name, (records, status) in cases.items():
        new = tmp_path / "new.json"
        new.write_text(json.dumps(records))
        assert tool.main(["--diff", str(old), str(new)]) == status, name
        assert capsys.readouterr().out.startswith("records: ")
