"""Directed graphs with (dual) quaternion arc weights.

Vertices are 1-based (1..n).  An arc ``(i, j)`` points from tail ``i`` to
head ``j``; loops and duplicate arcs are rejected, antiparallel pairs are
allowed.  Graphs are immutable after construction and every query here is a
pure function, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from .algebra import APPRECIABLE_TOL, UNIT_TOL, DualQuaternion

# Components that must vanish for a weight to live on the declared axis
# (complex embedding uses the (1, i) plane; real weights only the 1 axis).
EMBED_TOL = 1e-12


class LoopArcError(ValueError):
    """An arc (i, i) was supplied."""


class DuplicateArcError(ValueError):
    """The same ordered arc was supplied twice."""


class NonUnitWeightError(ValueError):
    """A unit weight type received a non-unit weight."""


class NonAppreciableWeightError(ValueError):
    """A weight has (near-)zero standard part and is not invertible."""


class WeightTypeMismatchError(ValueError):
    """A weight does not lie in the declared scalar subring."""


class InvalidWalkError(ValueError):
    """A walk step does not correspond to an arc of the graph."""


class ArcNotFoundError(KeyError):
    """The referenced arc is not in the graph."""


class WeightType(str, Enum):
    UNIT_DUAL_QUATERNION = "unit_dual_quaternion"
    UNIT_COMPLEX = "unit_complex"
    DUAL_QUATERNION = "dual_quaternion"
    COMPLEX = "complex"
    REAL = "real"

    @property
    def is_unit(self) -> bool:
        return self in (WeightType.UNIT_DUAL_QUATERNION, WeightType.UNIT_COMPLEX)

    @property
    def complex_embedded(self) -> bool:
        """Weights restricted to the (1, i) plane."""
        return self in (WeightType.UNIT_COMPLEX, WeightType.COMPLEX)

    @property
    def dualfree(self) -> bool:
        """Weight group without a dual part (plain complex / real numbers)."""
        return self in (WeightType.COMPLEX, WeightType.REAL)


@dataclass(frozen=True)
class Digraph:
    """A loopless simple directed graph on vertices 1..n."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        seen = set()
        for (i, j) in self.arcs:
            if i == j:
                raise LoopArcError(f"loop arc ({i}, {i})")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"arc ({i}, {j}) out of range 1..{self.n}")
            if (i, j) in seen:
                raise DuplicateArcError(f"duplicate arc ({i}, {j})")
            seen.add((i, j))
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))

    def out_arcs(self, i: int) -> list[tuple[int, int]]:
        return [a for a in self.arcs if a[0] == i]

    def has_arc(self, i: int, j: int) -> bool:
        return (i, j) in set(self.arcs)

    def to_networkx(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(1, self.n + 1))
        g.add_edges_from(self.arcs)
        return g


def _validate_weight(w: DualQuaternion, weight_type: WeightType) -> None:
    if weight_type.is_unit and not w.is_unit(UNIT_TOL):
        a, b = w.unit_defect()
        raise NonUnitWeightError(
            f"weight fails unit validation (defects {a:.3g}, {b:.3g})")
    if not w.is_appreciable(APPRECIABLE_TOL):
        raise NonAppreciableWeightError("weight has no appreciable part")
    if weight_type.complex_embedded:
        off = (abs(w.s.y), abs(w.s.z), abs(w.d.y), abs(w.d.z))
        if max(off) > EMBED_TOL:
            raise WeightTypeMismatchError("weight is not complex-embedded")
    if weight_type is WeightType.REAL:
        off = (abs(w.s.x), abs(w.s.y), abs(w.s.z))
        if max(off) > EMBED_TOL:
            raise WeightTypeMismatchError("weight is not real")
    if weight_type.dualfree and w.d.norm() > EMBED_TOL:
        raise WeightTypeMismatchError(
            f"{weight_type.value} weights carry no dual part")


@dataclass(frozen=True)
class WeightedDigraph:
    """A digraph together with a weight on every arc."""

    graph: Digraph
    weight_type: WeightType
    weights: Mapping[tuple[int, int], DualQuaternion]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self.graph.arcs

    def weight(self, i: int, j: int) -> DualQuaternion:
        try:
            return self.weights[(i, j)]
        except KeyError:
            raise ArcNotFoundError((i, j)) from None

    def with_weight(self, arc: tuple[int, int], w: DualQuaternion) -> "WeightedDigraph":
        """Copy of the graph with one arc's weight replaced."""
        if arc not in self.weights:
            raise ArcNotFoundError(arc)
        new = dict(self.weights)
        new[arc] = w
        return build(self.n, self.graph.arcs, new, self.weight_type)


def build(n: int,
          arcs: Iterable[tuple[int, int]],
          weights: Mapping[tuple[int, int], DualQuaternion],
          weight_type: WeightType | str) -> WeightedDigraph:
    """Validated weighted digraph from arcs and an arc->weight mapping."""
    weight_type = WeightType(weight_type)
    graph = Digraph(n, tuple(arcs))
    missing = [a for a in graph.arcs if a not in weights]
    if missing:
        raise ValueError(f"missing weights for arcs {missing}")
    for arc in graph.arcs:
        try:
            _validate_weight(weights[arc], weight_type)
        except ValueError as exc:
            raise type(exc)(f"arc {arc}: {exc}") from None
    return WeightedDigraph(graph, weight_type,
                           {a: weights[a] for a in graph.arcs})


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def is_weakly_connected(g: Digraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    return nx.is_weakly_connected(g.to_networkx())


def has_directed_spanning_tree(g: Digraph) -> bool:
    """True iff some vertex is reachable from every other vertex by directed paths.

    Equivalent to the condensation of the digraph having exactly one sink
    component.
    """
    cond = nx.condensation(g.to_networkx())
    sinks = [c for c in cond.nodes if cond.out_degree(c) == 0]
    return len(sinks) == 1


# ---------------------------------------------------------------------------
# Degrees and Laplacians
# ---------------------------------------------------------------------------

def out_degree(g: WeightedDigraph, i: int) -> float:
    """Out-degree of vertex i: the sum of |standard part| over arcs leaving i.

    For unit weight types every term is one, so this is exactly the number
    of outgoing arcs.
    """
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range 1..{g.n}")
    arcs_out = g.graph.out_arcs(i)
    if g.weight_type.is_unit:
        return float(len(arcs_out))
    return float(sum(g.weights[a].s.norm() for a in arcs_out))


def laplacian_entries(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray, np.ndarray]:
    """The entries of `laplacian` and `weighted_magnitude_laplacian` that can be nonzero.

    Returns ``(rows, cols, L, M)``: 0-based positions, the n diagonal entries
    first and then one entry per arc in arc order, with the dual quaternion
    values ``L`` (shape (n + m, 8)) of the weighted Laplacian and the real
    values ``M`` (shape (n + m,)) of the magnitude Laplacian there.  Every
    other entry of both matrices is zero.  One pass over the arcs adds each
    out-degree (see `out_degree`) as it goes.
    """
    n, m = g.n, len(g.arcs)
    unit = g.weight_type.is_unit
    rows = np.empty(n + m, dtype=np.intp)
    cols = np.empty(n + m, dtype=np.intp)
    rows[:n] = cols[:n] = np.arange(n)
    L = np.zeros((n + m, 8))
    M = np.zeros(n + m)
    for k, (i, j) in enumerate(g.arcs, start=n):
        w = g.weights[(i, j)]
        mag = w.s.norm()
        rows[k], cols[k] = i - 1, j - 1
        L[k] = -w.to_array()
        M[k] = -mag
        degree = 1.0 if unit else mag
        L[i - 1, 0] += degree
        M[i - 1] += degree
    return rows, cols, L, M


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Weighted Laplacian D - A as a dual quaternion matrix, shape (n, n, 8).

    D is the diagonal of out-degrees and A holds the arc weights at (tail, head).
    """
    rows, cols, L, _ = laplacian_entries(g)
    out = np.zeros((g.n, g.n, 8))
    out[rows, cols] = L
    return out


def weighted_magnitude_laplacian(g: WeightedDigraph) -> np.ndarray:
    """Real Laplacian D - A with a_ij = |standard part of the (i, j) weight|."""
    rows, cols, _, M = laplacian_entries(g)
    out = np.zeros((g.n, g.n))
    out[rows, cols] = M
    return out


def unweighted_laplacian(g: Digraph) -> np.ndarray:
    """Real Laplacian D - A of the bare digraph (0/1 adjacency, out-degrees)."""
    n = g.n
    L = np.zeros((n, n))
    for (i, j) in g.arcs:
        L[i - 1, i - 1] += 1.0
        L[i - 1, j - 1] -= 1.0
    return L


# ---------------------------------------------------------------------------
# Cycles and walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientedCycle:
    """A simple cycle with, per step, the direction the arc is traversed in.

    ``vertices`` lists each cycle vertex once; step ``t`` goes from
    ``vertices[t]`` to ``vertices[(t + 1) % k]``.  ``forward[t]`` is True when
    that step follows an arc of the graph tail-to-head, False when it runs
    against one.
    """

    vertices: tuple[int, ...]
    forward: tuple[bool, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a cycle visits at least two vertices")
        if len(self.forward) != len(self.vertices):
            raise ValueError("one direction flag per step is required")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    def steps(self) -> list[tuple[int, int, bool]]:
        k = len(self.vertices)
        return [(self.vertices[t], self.vertices[(t + 1) % k], self.forward[t])
                for t in range(k)]

    def arcs(self) -> list[tuple[int, int]]:
        """The arcs of the graph used by the cycle (in step order)."""
        return [(a, b) if fwd else (b, a) for a, b, fwd in self.steps()]


@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[OrientedCycle, ...]
    truncated: bool = False


class CycleLimitExceededError(RuntimeError):
    """More simple cycles than the configured limit."""


def orient_cycle(vertices: Sequence[int], g: Digraph) -> OrientedCycle:
    """Cycle over a vertex sequence with inferred step directions.

    Each step must correspond to an arc in some direction; when both
    directions exist the forward arc is preferred.
    """
    return OrientedCycle(tuple(vertices), _orient(vertices, set(g.arcs)))


def _orient(vertices: Sequence[int], arcset: set) -> tuple[bool, ...]:
    flags = []
    k = len(vertices)
    for t in range(k):
        a, b = vertices[t], vertices[(t + 1) % k]
        if (a, b) in arcset:
            flags.append(True)
        elif (b, a) in arcset:
            flags.append(False)
        else:
            raise InvalidWalkError(f"no arc between {a} and {b}")
    return tuple(flags)


def _canonical_vertices(cycle: Sequence[int]) -> tuple[int, ...]:
    k = len(cycle)
    p = cycle.index(min(cycle))
    fwd = tuple(cycle[(p + t) % k] for t in range(k))
    rev = tuple(cycle[(p - t) % k] for t in range(k))
    return min(fwd, rev)


def enumerate_cycles(g: Digraph, max_cycles: int = 10 ** 6) -> CycleEnumeration:
    """All simple cycles of the digraph, traversable in either arc direction.

    The underlying undirected multigraph is searched (antiparallel arcs are
    parallel edges, so each such pair contributes a 2-cycle).  Every cycle is
    reported once, canonicalized to start at its smallest vertex with the
    lexicographically smaller direction; steps along antiparallel pairs
    prefer the forward arc.  Enumeration stops after ``max_cycles`` results
    and sets the ``truncated`` flag.
    """
    mg = nx.MultiGraph()
    mg.add_nodes_from(range(1, g.n + 1))
    for (i, j) in g.arcs:
        mg.add_edge(i, j, key=(i, j))
    arcset = set(g.arcs)
    raw = list(islice(nx.simple_cycles(mg), max_cycles + 1))
    truncated = len(raw) > max_cycles
    cycles = []
    for nodes in raw[:max_cycles]:
        verts = _canonical_vertices(list(nodes))
        cycles.append(OrientedCycle(verts, _orient(verts, arcset)))
    cycles.sort(key=lambda c: (len(c), c.vertices))
    return CycleEnumeration(tuple(cycles), truncated)


def walk_weight(g: WeightedDigraph, walk) -> DualQuaternion:
    """Ordered product of shadow elements along a walk.

    Forward steps contribute the arc weight, backward steps its inverse
    (conjugate for unit weight types).  ``walk`` is an `OrientedCycle` or a
    vertex sequence; for sequences the direction of each step is inferred,
    preferring the forward arc.
    """
    if isinstance(walk, OrientedCycle):
        steps = walk.steps()
    else:
        verts = list(walk)
        if len(verts) < 2:
            raise InvalidWalkError("a walk needs at least two vertices")
        arcset = set(g.arcs)
        steps = []
        for a, b in zip(verts, verts[1:]):
            if (a, b) in arcset:
                steps.append((a, b, True))
            elif (b, a) in arcset:
                steps.append((a, b, False))
            else:
                raise InvalidWalkError(f"no arc between {a} and {b}")
    prod = DualQuaternion.from_real(1.0)
    unit = g.weight_type.is_unit
    for a, b, fwd in steps:
        arc = (a, b) if fwd else (b, a)
        if arc not in g.weights:
            raise InvalidWalkError(f"flagged arc {arc} is not in the graph")
        w = g.weights[arc]
        if not fwd:
            w = w.conjugate() if unit else w.inverse()
        prod = prod * w
    return prod
