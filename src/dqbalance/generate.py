"""Random weighted-digraph generators and perturbation tools.

Balanced instances are produced constructively: unit weights come from a
random formation vector (``w_ij = conj(f_i) f_j``), general weights from a
random invertible potential with positive arc scalars
(``w_ij = theta_i^-1 theta_j c_ij``).  Potentials and switchings are drawn
one vertex at a time; all arc weights are then computed in one array
expression on `linalg`'s kernels, the expression `balance` checks them
against.  Every generator is deterministic per seed.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from . import linalg
from .algebra import DualQuaternion, Quaternion, _as_rng, random_udq, udq_from_motion
from .balance import is_neutral
from .graphs import (
    WeightedDigraph,
    WeightType,
    arc_positions,
    build,
    inverse_weights,
)

# Smallest standard magnitude of a random general weight (redrawn below it).
MIN_DRAW = 0.3


def random_unit_dual_complex(rng: np.random.Generator) -> DualQuaternion:
    """Random unit weight restricted to the (1, i) plane in both parts."""
    a, b = rng.normal(size=2)
    norm = float(np.hypot(a, b))
    while norm < 1e-6:
        a, b = rng.normal(size=2)
        norm = float(np.hypot(a, b))
    rotation = Quaternion(a / norm, b / norm, 0.0, 0.0)
    # An i-axis translation keeps the dual part complex-embedded.
    return udq_from_motion(rotation, Quaternion(0.0, float(rng.normal()), 0.0, 0.0))


def _gaussian_quaternion(rng) -> Quaternion:
    v = rng.normal(size=4)
    while np.linalg.norm(v) < MIN_DRAW:
        v = rng.normal(size=4)
    return Quaternion.from_array(v)


def random_weight(weight_type: WeightType | str, rng) -> DualQuaternion:
    """Random weight valid for the given weight type."""
    weight_type = WeightType(weight_type)
    rng = _as_rng(rng)
    if weight_type is WeightType.UNIT_DUAL_QUATERNION:
        return random_udq(rng)
    if weight_type is WeightType.UNIT_COMPLEX:
        return random_unit_dual_complex(rng)
    if weight_type is WeightType.DUAL_QUATERNION:
        return DualQuaternion(_gaussian_quaternion(rng),
                              Quaternion.from_array(rng.normal(size=4)))
    if weight_type is WeightType.COMPLEX:
        a, b = rng.normal(size=2)
        while np.hypot(a, b) < MIN_DRAW:
            a, b = rng.normal(size=2)
        return DualQuaternion.from_quaternion(Quaternion(float(a), float(b), 0.0, 0.0))
    r = float(rng.normal())
    while abs(r) < MIN_DRAW:
        r = float(rng.normal())
    return DualQuaternion.from_real(r)


def random_vertex_potential(n: int, weight_type: WeightType, rng) -> list[DualQuaternion]:
    """One random invertible (unit, for unit types) value per vertex."""
    return [random_weight(weight_type, rng) for _ in range(n)]


def _potential_graph(n: int, tails: np.ndarray, heads: np.ndarray, weight_type: WeightType,
                     theta, c: np.ndarray) -> WeightedDigraph:
    """Graph on the sorted 0-based arcs ``(tails, heads)`` weighted ``theta_i^-1 theta_j c_ij``."""
    theta = np.array(theta, dtype=np.float64).reshape(n, 8)
    W = linalg.dqmul(inverse_weights(weight_type, theta[tails]), theta[heads]) * c[:, None]
    return build(n, zip((tails + 1).tolist(), (heads + 1).tolist()), W, weight_type)


def gen_cycle(n: int, weight_type: WeightType | str, seed) -> WeightedDigraph:
    """Directed n-cycle (1 -> 2 -> ... -> n -> 1), balanced by construction.

    Weights are ``theta_i^-1 theta_{i+1}`` for a random vertex potential, so
    every cycle product telescopes to 1.
    """
    if n < 3:
        raise ValueError("a directed cycle needs n >= 3")
    weight_type = WeightType(weight_type)
    rng = _as_rng(seed)
    theta = random_vertex_potential(n, weight_type, rng)
    tails = np.arange(n)
    return _potential_graph(n, tails, (tails + 1) % n, weight_type, theta, np.ones(n))


def gen_random_balanced(n: int, arc_density: float,
                        weight_type: WeightType | str, seed,
                        directed_spanning_tree: bool = False) -> WeightedDigraph:
    """Random weakly connected balanced graph: a random spanning tree plus extras.

    Each ordered non-tree pair is added independently with probability
    ``arc_density``. Unit weights come from a random formation vector,
    general weights from a random potential with positive scalars drawn
    log-normally.  With ``directed_spanning_tree`` the tree arcs all point
    child-to-parent, so vertex 1 is reachable from everywhere.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    weight_type = WeightType(weight_type)
    rng = _as_rng(seed)
    taken = np.eye(n, dtype=bool)      # the loops, then every arc
    for v in range(2, n + 1):
        p = int(rng.integers(1, v))
        arc = (v - 1, p - 1) if directed_spanning_tree or rng.random() < 0.5 else (p - 1, v - 1)
        taken[arc] = True
    # One draw per pair that is neither a loop nor a tree arc, in row-major
    # order: the same stream as drawing pair by pair.  A row at a time keeps
    # the draws' memory O(n).
    for i in range(n):
        free = np.flatnonzero(~taken[i])
        taken[i, free[rng.random(free.size) < arc_density]] = True
    np.fill_diagonal(taken, False)
    tails, heads = np.nonzero(taken)    # row-major: the arcs in sorted order
    theta = random_vertex_potential(n, weight_type, rng)
    c = (np.ones(len(tails)) if weight_type.is_unit
         else np.exp(rng.normal(scale=0.3, size=len(tails))))
    return _potential_graph(n, tails, heads, weight_type, theta, c)


def gen_tree(n: int, weight_type: WeightType | str, seed) -> WeightedDigraph:
    """Random tree (no extra arcs); balanced for any weights."""
    return gen_random_balanced(n, 0.0, weight_type, seed)


def perturb(g: WeightedDigraph, arc: tuple[int, int], seed) -> WeightedDigraph:
    """Replace one arc weight with a fresh random one of the same type.

    The replacement is redrawn until it differs from the original by more
    than a positive-real factor, so perturbing an arc that lies on a cycle
    is guaranteed to break balance.
    """
    rng = _as_rng(seed)
    old = g.weight(*arc)
    while True:
        new = random_weight(g.weight_type, rng)
        ratio = new * old.inverse()
        if not is_neutral(ratio, tol=1e-3):
            return g.with_weight(arc, new)


def _networkx_first_cycle(g: WeightedDigraph, count: int) -> tuple[int, ...] | None:
    """The smallest, in canonical form and order (see `graphs.enumerate_cycles`),
    of the first ``count`` cycles that networkx's ``simple_cycles`` yields on
    the underlying multigraph; None if it yields none."""
    import networkx as nx

    mg = nx.MultiGraph()
    mg.add_nodes_from(range(1, g.n + 1))
    mg.add_edges_from(g.arcs)
    best = None
    for cycle in islice(nx.simple_cycles(mg), count):
        p = cycle.index(min(cycle))
        turned = cycle[p:] + cycle[:p]
        key = (len(turned), min(turned, turned[:1] + turned[:0:-1]))
        best = key if best is None else min(best, key)
    return None if best is None else tuple(best[1])


def cycle_arc(g: WeightedDigraph) -> tuple[int, int] | None:
    """Some arc lying on a simple cycle, or None for acyclic graphs.

    The arc is the first step, along an arc in preference to against one, of
    the smallest of the first eight cycles that networkx's ``simple_cycles``
    finds.  `perturb` redraws this arc in every unbalanced benchmark and test
    instance, so the choice must not move; it depends on networkx's search
    order, which is why networkx is imported here, on the first call, and
    nowhere on the decide path.
    """
    cycle = _networkx_first_cycle(g, 8)
    if cycle is None:
        return None
    a, b = cycle[0], cycle[1]
    return (a, b) if arc_positions(g.graph, [a], [b])[0] >= 0 else (b, a)


def apply_switching(g: WeightedDigraph, zeta) -> WeightedDigraph:
    """Switch weights to ``zeta(i)^-1 w_ij zeta(j)``; preserves balance.

    ``zeta`` maps each vertex 1..n to an invertible scalar.  ``zeta(i)^-1`` is
    the conjugate for unit weight types and the inverse for general ones
    (`graphs.inverse_weights`), so a non-unit ``zeta`` on a unit graph gives
    non-unit weights, which fail validation.
    """
    Z = np.array([zeta[v] for v in range(1, g.n + 1)], dtype=np.float64).reshape(g.n, 8)
    left = inverse_weights(g.weight_type, Z[g.graph.tails])
    W = linalg.dqmul(linalg.dqmul(left, g.weight_array), Z[g.graph.heads])
    return build(g.n, g.arcs, W, g.weight_type)


def random_switching(g: WeightedDigraph, seed) -> dict[int, DualQuaternion]:
    """Random switching function matched to the graph's weight type."""
    rng = _as_rng(seed)
    return {v: random_weight(g.weight_type, rng) for v in range(1, g.n + 1)}
