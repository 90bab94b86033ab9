"""Import weight: deciding balance must load neither scipy nor networkx.

Importing `scipy.sparse.linalg` after numpy and networkx was measured at
0.33-0.37 s and 22-26 MB of peak resident memory (scipy 1.17.1, Python
3.11, two-CPU x86-64 VM).  That would lift the benchmark's `setup_s` and,
on the small-graph workload `random_mixed`, its `peak_rss_mb` past the 5%
bound.  A change that brings scipy in removes
this test on purpose and shows both figures before and after.

networkx adds 0.13-0.19 s and about 18 MB to an import.  Only
`generate.cycle_arc` uses it, and imports it on its first call, so neither
`import dqbalance` nor any decide or `dqbalance check` loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from dqbalance import check_balance, cycle_arc, gen_cycle, gen_random_balanced, perturb
g = gen_random_balanced(8, 0.3, "unit_dual_quaternion", 1)
for method in ("direct", "gain_graph", "cycle_oracle"):
    check_balance(g, method)
c = gen_cycle(12, "unit_dual_quaternion", 1)
c = perturb(c, cycle_arc(c), 1)     # a bad arc: the staged solves in the switched frame
for method in ("direct", "gain_graph"):
    assert check_balance(c, method).failure_stage.value == "standard_solve"
check_balance(gen_random_balanced(8, 0.3, "dual_quaternion", 1), "wdg_similarity")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_deciding_balance_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


NETWORKX_SCRIPT = """
import sys
import dqbalance
from dqbalance import check_balance, cli, gen_random_balanced
g = gen_random_balanced(8, 0.3, "unit_dual_quaternion", 1)
for method in ("direct", "gain_graph", "cycle_oracle"):
    check_balance(g, method)
check_balance(gen_random_balanced(8, 0.3, "dual_quaternion", 1), "wdg_similarity")
assert cli.main(["check", sys.argv[1], "--method", "all"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_deciding_balance_does_not_import_networkx(tmp_path):
    from dqbalance.generate import gen_random_balanced
    from dqbalance.serialize import save_graph

    path = tmp_path / "g.json"
    save_graph(gen_random_balanced(9, 0.3, "unit_complex", 2), path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", NETWORKX_SCRIPT, str(path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
