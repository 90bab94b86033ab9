"""The three benchmark workloads, generated deterministically from a seed.

Every workload is a list of `Instance`s: a graph serialized to JSON during
set-up, the label its construction gives it, and the balance methods a
decide runs on it.  Sizes, weight types and which instances are perturbed
are the same for every seed.  Below n = 500 the graph shapes are fixed
too, drawn once from a constant stream, and the seed draws the weights (a
random switching, which keeps balance and redraws every weight), the
perturbed weights and the rescaling factors.  The work of a small graph's decide
depends on its shape (cycle count, rank deficiency, arc count), so fixed
shapes keep the timing mix the same from seed to seed and figures from
different seeds comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from dqbalance import balance, generate, graphs, serialize

UNIT_TYPES = ("unit_complex", "unit_dual_quaternion")
SHAPE_SEED = 0
DESK_SIZES = tuple(range(8, 14))    # desk graphs of random_mixed, up to 2048 cycles
GENERAL_TYPES = ("dual_quaternion", "complex", "real")


@dataclass(frozen=True)
class Instance:
    """One generated graph, as the decides see it."""

    name: str
    doc: str                        # serialized graph; each decide parses it
    balanced: bool                  # label from the construction
    methods: tuple[str, ...]
    unscaled_doc: str | None = None  # the same graph before positive rescaling


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: tuple[int, ...]
    tail_pct: int                   # percentile reported as decide_tail_s
    pass_s: float                   # seconds of one untraced pass on the reference machine
    build: Callable[[int, tuple[int, ...]], list[Instance]]

    def instances(self, seed: int, sizes: tuple[int, ...] | None = None) -> list[Instance]:
        return self.build(seed, tuple(sizes or self.sizes))

    def passes(self, seconds: float) -> int:
        """Whole passes that take about ``seconds`` on the reference machine, at least two.

        The count is fixed by ``seconds`` alone, not by a clock, so every run
        of a seed makes the same decides.
        """
        return max(2, round(seconds / self.pass_s))


def decide(doc: str, method: str):
    """One operation: parse a document and check its balance.

    An exception is returned, not raised, so that the loop goes on and the
    gate counts it.
    """
    try:
        return balance.check_balance(serialize.loads_graph(doc), method)
    except Exception as exc:
        return exc


def all_methods(weight_type: str) -> tuple[str, ...]:
    """The methods `dqbalance check --method all` runs for a weight type."""
    if graphs.WeightType(weight_type).is_unit:
        return ("direct", "gain_graph", "cycle_oracle")
    return ("cycle_oracle", "wdg_similarity")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _reweighted(g, rng):
    """Same shape and balance, fresh weights: a random switching."""
    return generate.apply_switching(g, generate.random_switching(g, rng))


def _perturbed(g, rng):
    """Break balance by redrawing the weight of an arc that lies on a cycle."""
    return generate.perturb(g, generate.cycle_arc(g), rng)


def _rescaled(g, factor: float):
    return graphs.build(g.n, g.arcs, {a: w * factor for a, w in g.weights.items()},
                        g.weight_type)


def _doc(g) -> str:
    return serialize.dumps_graph(g, indent=None)


def _short(weight_type: str) -> str:
    return "".join(part[0] for part in weight_type.split("_"))


def build_cycle_solve(seed: int, sizes: tuple[int, ...]) -> list[Instance]:
    # Two cycles of each of the two smaller sizes, one of each larger size:
    # the median then falls inside the second size class and the tail
    # percentile inside the third, not on a boundary between classes.
    out = []
    counts = [2 if k < len(sizes) // 2 else 1 for k in range(len(sizes))]
    specs = [(n, t, r) for n, c in zip(sizes, counts) for t in UNIT_TYPES for r in range(c)]
    for k, (n, wt, replica) in enumerate(specs):
        rng = _rng(seed, 1, k)
        g = generate.gen_cycle(n, wt, rng)
        perturbed = k % 4 == 1
        if perturbed:
            g = _perturbed(g, rng)
        out.append(Instance(f"cycle n={n} {_short(wt)} #{replica}", _doc(g), not perturbed,
                            ("direct", "gain_graph")))
    return out


def build_random_mixed(seed: int, sizes: tuple[int, ...]) -> list[Instance]:
    out = []
    specs = [(n, t, r) for n in sizes for t in UNIT_TYPES + GENERAL_TYPES
             for r in range(4)]
    for k, (n, wt, replica) in enumerate(specs):
        dst = replica != 0          # a quarter may lack a directed spanning tree
        g = generate.gen_random_balanced(n, 3.5 / (n - 1), wt, _rng(SHAPE_SEED, 2, k),
                                         directed_spanning_tree=dst)
        rng = _rng(seed, 2, k)
        g = _reweighted(g, rng)
        perturbed = k % 3 == 1
        if perturbed:
            g = _perturbed(g, rng)
        methods = ("direct", "gain_graph") if g.weight_type.is_unit else ("wdg_similarity",)
        out.append(Instance(f"random n={n} {_short(wt)} #{replica}{'' if dst else ' nodst'}",
                            _doc(g), not perturbed, methods))
    # Desk-scale graphs under every method, the cycle oracle included: the
    # only decides where cycle enumeration and scalar walk products do the
    # work.  They take about a third of a pass.  As a workload of their own
    # they spread 0.2 to 0.4 between runs on a shared machine, twice as much
    # as the decides above, because pure-Python code follows the machine's
    # speed most closely.
    return out + desk_instances(seed, DESK_SIZES)


def build_potential_sparse(seed: int, sizes: tuple[int, ...]) -> list[Instance]:
    # Five graphs, an odd count, so that the median decide falls inside the
    # samples of one graph, not between two graphs of different cost: every
    # general type at the smaller size, all but the real one at the larger.
    out = []
    specs = [(n, t) for n in sizes for t in GENERAL_TYPES][:-1]
    for k, (n, wt) in enumerate(specs):
        # At these sizes the cost hardly varies between random shapes, so
        # the seed draws the shape too.
        rng = _rng(seed, 3, k)
        g = generate.gen_random_balanced(n, 3.0 / (n - 1), wt, rng)
        perturbed = k % 3 == 1
        if perturbed:
            g = _perturbed(g, rng)
        out.append(Instance(f"sparse n={n} {_short(wt)}", _doc(g), not perturbed,
                            ("wdg_similarity",)))
    return out


def _desk_graph(n: int, wt: str, rng):
    """Random balanced graph with between 2^(n-3) and 2^(n-2) simple cycles.

    The band bounds the oracle's work on each size: up to 2048 cycles at
    n = 13.
    """
    lo, hi = 2 ** (n - 3), 2 ** (n - 2)
    for _ in range(1000):
        g = generate.gen_random_balanced(n, 1.5 / (n - 1), wt, rng,
                                         directed_spanning_tree=True)
        enum = graphs.enumerate_cycles(g.graph, hi)
        if not enum.truncated and len(enum.cycles) >= lo:
            return g
    raise RuntimeError(f"no desk graph with n={n} in the cycle band")


def desk_instances(seed: int, sizes: tuple[int, ...]) -> list[Instance]:
    out = []
    k = 0
    for n in sizes:
        # General weights are rescaled by 10^u, u log-uniform in [-1, 1] and
        # stratified over the three general types of each size.
        strata = _rng(seed, 4, n).permutation(len(GENERAL_TYPES))
        for wt in UNIT_TYPES + GENERAL_TYPES:
            g = _desk_graph(n, wt, _rng(SHAPE_SEED, 4, n, k))
            rng = _rng(seed, 4, n, k)
            g = _reweighted(g, rng)
            perturbed = k % 3 == 1
            if perturbed:
                g = _perturbed(g, rng)
            name = f"desk n={n} {_short(wt)}"
            unscaled = None
            if wt in GENERAL_TYPES:
                stratum = strata[GENERAL_TYPES.index(wt)]
                factor = 10.0 ** ((stratum + rng.random()) * 2.0 / 3.0 - 1.0)
                unscaled = _doc(g)
                g = _rescaled(g, factor)
                name += f" x{factor:.3g}"
            out.append(Instance(name, _doc(g), not perturbed, all_methods(wt), unscaled))
            k += 1
    return out


WORKLOADS = {w.name: w for w in (
    Workload("cycle_solve",
             "directed n-cycles up to n=400: the dense SVD of the real expansion "
             "does ~90% of the work; a quarter unbalanced exit before the dual solve",
             (100, 200, 300, 400), 75, 15.0, build_cycle_solve),
    Workload("random_mixed",
             "random graphs n<=150 of all five weight types, plus desk graphs n<=13 "
             "under the cycle oracle: graph, parse and algebra code weigh as much as linalg",
             (50, 100, 150), 95, 5.5, build_random_mixed),
    Workload("potential_sparse",
             "general weights, n up to 1000, m~4n: no SVD; the dense n*n*8 "
             "certificate and per-arc potential loops dominate",
             (500, 1000), 70, 2.8, build_potential_sparse),
)}
