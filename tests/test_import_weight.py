"""Import weight: deciding balance must not load scipy.

Importing `scipy.sparse.linalg` after numpy and networkx was measured at
0.33-0.37 s and 22-26 MB of peak resident memory (scipy 1.17.1, Python
3.11, two-CPU x86-64 VM).  That would lift the benchmark's `setup_s` and,
on the small-graph workload `random_mixed`, its `peak_rss_mb` past the 5%
bound.  A change that brings scipy in removes
this test on purpose and shows both figures before and after.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from dqbalance import check_balance, gen_random_balanced
g = gen_random_balanced(8, 0.3, "unit_dual_quaternion", 1)
for method in ("direct", "gain_graph", "cycle_oracle"):
    check_balance(g, method)
check_balance(gen_random_balanced(8, 0.3, "dual_quaternion", 1), "wdg_similarity")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_deciding_balance_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
