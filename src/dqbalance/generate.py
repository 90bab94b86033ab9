"""Random weighted-digraph generators and perturbation tools.

Balanced instances are produced constructively: unit weights come from a
random formation vector (``w_ij = conj(f_i) f_j``), general weights from a
random invertible potential with positive arc scalars
(``w_ij = theta_i^-1 theta_j c_ij``).  Every generator is deterministic per
seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import DualQuaternion, Quaternion, _as_rng, random_udq, udq_from_motion
from .balance import is_neutral
from .graphs import (
    WeightedDigraph,
    WeightType,
    build,
    enumerate_cycles,
)


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


def _gaussian_quaternion(rng, min_norm: float = 0.3) -> Quaternion:
    v = rng.normal(size=4)
    while np.linalg.norm(v) < min_norm:
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
        while np.hypot(a, b) < 0.3:
            a, b = rng.normal(size=2)
        return DualQuaternion.from_quaternion(Quaternion(float(a), float(b), 0.0, 0.0))
    r = float(rng.normal())
    while abs(r) < 0.3:
        r = float(rng.normal())
    return DualQuaternion.from_real(r)


def random_vertex_potential(n: int, weight_type: WeightType, rng) -> list[DualQuaternion]:
    """One random invertible (unit, for unit types) value per vertex."""
    return [random_weight(weight_type, rng) for _ in range(n)]


def _potential_weight(theta_i: DualQuaternion, theta_j: DualQuaternion,
                      c: float, unit: bool) -> DualQuaternion:
    inv = theta_i.conjugate() if unit else theta_i.inverse()
    w = inv * theta_j
    return w if c == 1.0 else w * c


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
    unit = weight_type.is_unit
    arcs = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    weights = {(i, j): _potential_weight(theta[i - 1], theta[j - 1], 1.0, unit)
               for (i, j) in arcs}
    return build(n, arcs, weights, weight_type)


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
    arcs = set()
    for v in range(2, n + 1):
        p = int(rng.integers(1, v))
        if directed_spanning_tree or rng.random() < 0.5:
            arcs.add((v, p))
        else:
            arcs.add((p, v))
    # One draw per pair that is neither a loop nor a tree arc, in row-major
    # order: the same stream as drawing pair by pair.  A row at a time keeps
    # the draws' memory O(n).
    taken = np.eye(n, dtype=bool)
    taken[[i - 1 for i, _ in arcs], [j - 1 for _, j in arcs]] = True
    for i in range(n):
        free = np.flatnonzero(~taken[i])
        arcs.update((i + 1, j + 1) for j in free[rng.random(free.size) < arc_density].tolist())
    unit = weight_type.is_unit
    theta = random_vertex_potential(n, weight_type, rng)
    weights = {}
    for (i, j) in sorted(arcs):
        c = 1.0 if unit else float(np.exp(rng.normal(scale=0.3)))
        weights[(i, j)] = _potential_weight(theta[i - 1], theta[j - 1], c, unit)
    return build(n, sorted(arcs), weights, weight_type)


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


def cycle_arc(g: WeightedDigraph) -> tuple[int, int] | None:
    """Some arc lying on a simple cycle, or None for acyclic graphs."""
    enum = enumerate_cycles(g.graph, max_cycles=8)
    if not enum.cycles:
        return None
    return enum.cycles[0].arcs()[0]


def apply_switching(g: WeightedDigraph, zeta) -> WeightedDigraph:
    """Switch weights to ``zeta(i)^-1 w_ij zeta(j)``; preserves balance.

    ``zeta`` maps each vertex to an invertible scalar (a unit one for unit
    weight types, or the result will fail validation).
    """
    unit = g.weight_type.is_unit
    weights = {}
    for (i, j), w in g.weights.items():
        zi = zeta[i]
        inv = zi.conjugate() if unit and zi.is_unit() else zi.inverse()
        weights[(i, j)] = inv * w * zeta[j]
    return build(g.n, g.graph.arcs, weights, g.weight_type)


def random_switching(g: WeightedDigraph, seed) -> dict[int, DualQuaternion]:
    """Random switching function matched to the graph's weight type."""
    rng = _as_rng(seed)
    return {v: random_weight(g.weight_type, rng) for v in range(1, g.n + 1)}
