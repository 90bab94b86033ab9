"""Outside-in layer tracing: spans around dqbalance's public functions.

`Tracer.install` replaces each traced function with a span-recording
wrapper in every dqbalance module that binds it, so calls made inside
`check_balance` (which look the name up in their own module) are caught.
`uninstall` puts the originals back.  Spans stay in memory as
``(decide, span, parent, name, start, end)`` tuples until `write` is
called; aggregate self times and counts are kept alongside.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from dqbalance import algebra, balance, generate, graphs, linalg, serialize

# Traced functions by defining module; every binding of the same object in
# another dqbalance module is wrapped too.
FUNCTIONS = {
    linalg: ("real_expand", "rank"),
    balance: ("similarity_residual", "wdg_similarity_check", "solve_standard_part",
              "solve_dual_part", "check_symmetry_pairs", "symmetrized_gain_graph",
              "direct_method", "gain_graph_method", "wdg_similarity_method",
              "cycle_oracle"),
    graphs: ("build", "laplacian", "unweighted_laplacian",
             "weighted_magnitude_laplacian", "is_weakly_connected",
             "enumerate_cycles", "walk_weight"),
    serialize: ("loads_graph",),
}
GENERATORS = ("gen_cycle", "gen_random_balanced", "perturb")
METHOD_SPANS = ("balance.direct_method", "balance.gain_graph_method",
                "balance.wdg_similarity_method", "balance.cycle_oracle")

# (metric, unit) pairs of a traced run; per-decide figures divide by the
# number of traced decides, per-setup figures by the number of set-ups.
SELF_S = ("linalg.QuatLeastSquares", "linalg.real_expand", "linalg.QuatLeastSquares.solve",
          "linalg.rank", "balance.similarity_residual", "balance.wdg_similarity_check",
          "balance.solve_standard_part", "balance.solve_dual_part",
          "balance.check_symmetry_pairs", "balance.symmetrized_gain_graph",
          *METHOD_SPANS, "graphs.build", "graphs.laplacian", "graphs.unweighted_laplacian",
          "graphs.weighted_magnitude_laplacian", "graphs.is_weakly_connected",
          "graphs.enumerate_cycles", "graphs.walk_weight", "serialize.loads_graph")
CALLS = ("linalg.rank", "graphs.build", "graphs.walk_weight", "serialize.loads_graph")
DENSE_BYTES = ("linalg.QuatLeastSquares", "balance.similarity_residual",
               "balance.wdg_similarity_check")
PER_LAYER = (
    [(f"{name}.self_s", "s/decide") for name in SELF_S]
    + [(f"{name}.calls", "1/decide") for name in CALLS]
    + [(f"{name}.dense_bytes", "B/decide") for name in DENSE_BYTES]
    + [(f"{name}.errors", "1/decide") for name in METHOD_SPANS]
    + [("balance.cycle_oracle.tested_frac", "ratio"),
       ("graphs.enumerate_cycles.cycles", "1/decide"),
       ("algebra.DualQuaternion.mul.calls", "1/decide")]
    + [(f"generate.{name}.self_s", "s/setup") for name in GENERATORS]
    + [("trace.overhead_frac", "ratio"), ("trace.covered_frac", "ratio")]
)


def _dense_bytes(name, args) -> int:
    """Computed size of the dense array a call works on: 8 bytes per real entry."""
    if name == "linalg.QuatLeastSquares":
        m, n = args[1].shape[:2]          # args[0] is self
        return 8 * (4 * m) * (4 * n)
    if name == "balance.similarity_residual":
        n = args[0].shape[0]
    else:
        n = args[0].n
    return 8 * n * n * 8


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.decide: int | None = None   # id shared by the spans of one decide
        self._stack: list[list] = []      # open spans: [span id, name, child time]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = len(tracer.spans) + len(stack)
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((tracer.decide, span_id,
                                     parent[0] if parent else None, name, start, end))
            tracer._count(name, parent[1] if parent else None, args, result)
            return result

        return traced

    def _count(self, name, parent_name, args, result):
        if name in DENSE_BYTES:
            self.counts[f"{name}.dense_bytes"] += _dense_bytes(name, args)
        elif name == "graphs.enumerate_cycles":
            self.counts["graphs.enumerate_cycles.cycles"] += len(result.cycles)
            if parent_name == "balance.cycle_oracle":
                self.counts["cycle_oracle.enumerated"] += len(result.cycles)
        elif name == "graphs.walk_weight" and parent_name == "balance.cycle_oracle":
            self.counts["cycle_oracle.tested"] += 1

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, name):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("dqbalance")
                    and getattr(mod, attr, None) is original):
                self._patch(mod, attr, wrapper)

    def install_generators(self) -> None:
        """Wrap the set-up generators only."""
        for attr in GENERATORS:
            self._patch_function(generate, attr, f"generate.{attr}")

    def install(self) -> None:
        """Wrap the layers a decide runs through."""
        for module, attrs in FUNCTIONS.items():
            short = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                self._patch_function(module, attr, f"{short}.{attr}")
        qls = linalg.QuatLeastSquares
        self._patch(qls, "__init__", self._wrap("linalg.QuatLeastSquares", qls.__init__))
        self._patch(qls, "solve", self._wrap("linalg.QuatLeastSquares.solve", qls.solve))
        # Products are too frequent for spans: count them only.
        # UnitDualQuaternion.__mul__ delegates here, so units count once.
        dq_mul = algebra.DualQuaternion.__mul__
        counts = self.counts

        def counted_mul(a, b):
            counts["algebra.DualQuaternion.mul.calls"] += 1
            return dq_mul(a, b)

        self._patch(algebra.DualQuaternion, "__mul__", counted_mul)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------
    def layer_metrics(self, decides: int, setups: int, setup_tracer: "Tracer") -> dict:
        """Per-layer figures; layers that did not run report 0."""
        per = 1.0 / max(decides, 1)
        out = {}
        for name in SELF_S:
            out[f"{name}.self_s"] = self.self_s[name] * per
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[name] * per
        for name in DENSE_BYTES:
            out[f"{name}.dense_bytes"] = self.counts[f"{name}.dense_bytes"] * per
        for name in METHOD_SPANS:
            out[f"{name}.errors"] = self.errors[name] * per
        enumerated = self.counts["cycle_oracle.enumerated"]
        out["balance.cycle_oracle.tested_frac"] = (
            self.counts["cycle_oracle.tested"] / enumerated if enumerated else 0.0)
        out["graphs.enumerate_cycles.cycles"] = self.counts["graphs.enumerate_cycles.cycles"] * per
        out["algebra.DualQuaternion.mul.calls"] = (
            self.counts["algebra.DualQuaternion.mul.calls"] * per)
        for attr in GENERATORS:
            out[f"generate.{attr}.self_s"] = (
                setup_tracer.self_s[f"generate.{attr}"] / max(setups, 1))
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line; times in seconds."""
        with open(path, "w") as f:
            f.write("decide\tspan\tparent\tname\tstart_s\tend_s\n")
            for decide, span, parent, name, start, end in self.spans:
                f.write(f"{decide}\t{span}\t{'' if parent is None else parent}\t"
                        f"{name}\t{start:.9f}\t{end:.9f}\n")
