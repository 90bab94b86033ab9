"""Directed graphs with (dual) quaternion arc weights.

Vertices are 1-based (1..n).  An arc ``(i, j)`` points from tail ``i`` to
head ``j``; loops and duplicate arcs are rejected, antiparallel pairs are
allowed.  Weights are held as one read-only (m, 8) array in arc order.
Graphs are immutable after construction and every query here is a pure
function, so concurrent reads are safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from . import linalg
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


class NonFiniteWeightError(ValueError):
    """A weight has an infinite or NaN component, or an infinite magnitude."""


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


def _is_vertex_number(v) -> bool:
    """Python or NumPy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Digraph:
    """A loopless simple directed graph on vertices 1..n; ``arcs`` are sorted,
    ``tails``/``heads`` are read-only arrays of their 0-based ends and
    ``arc_keys`` of their increasing keys ``n * tail + head``, then ``n * n``."""

    n: int
    arcs: tuple[tuple[int, int], ...]
    tails: np.ndarray = field(init=False, repr=False, compare=False)
    heads: np.ndarray = field(init=False, repr=False, compare=False)
    arc_keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_vertex_number(self.n) and self.n >= 1):
            raise ValueError(f"need a positive integer vertex count, not {self.n!r}")
        seen = set()
        for (i, j) in self.arcs:
            if not (type(i) is type(j) is int or _is_vertex_number(i) and _is_vertex_number(j)):
                raise ValueError(f"arc ({i!r}, {j!r}): vertex numbers must be integers")
            if i == j:
                raise LoopArcError(f"loop arc ({i}, {i})")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"arc ({i}, {j}) out of range 1..{self.n}")
            if (i, j) in seen:
                raise DuplicateArcError(f"duplicate arc ({i}, {j})")
            seen.add((i, j))
        arcs = tuple(sorted(self.arcs))
        ends = np.array(arcs, dtype=np.intp).reshape(len(arcs), 2) - 1
        keys = np.append(ends @ (self.n, 1), self.n * self.n)
        ends.setflags(write=False)
        keys.setflags(write=False)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "tails", ends[:, 0])
        object.__setattr__(self, "heads", ends[:, 1])
        object.__setattr__(self, "arc_keys", keys)


def arc_positions(g: Digraph, tails, heads) -> np.ndarray:
    """Index in ``g.arcs`` of each arc ``(tails[k], heads[k])`` (1-based), or -1 if absent.

    One binary search in ``g.arc_keys``.
    """
    t, h = np.asarray(tails, dtype=np.intp) - 1, np.asarray(heads, dtype=np.intp) - 1
    in_range = (t >= 0) & (t < g.n) & (h >= 0) & (h < g.n)
    key = np.where(in_range, t * g.n + h, g.n * g.n)    # out of range: the sentinel
    pos = np.searchsorted(g.arc_keys, key)
    return np.where(in_range & (g.arc_keys[pos] == key), pos, -1)


def _check_weights(arcs, W: np.ndarray, weight_type: WeightType) -> None:
    """Raise, naming the arc, for the first arc whose weight fails a check (in listed order)."""
    s, d = W[:, :4], W[:, 4:]
    with np.errstate(over="ignore", invalid="ignore"):
        mag, norm = np.linalg.norm(s, axis=1), np.linalg.norm(W, axis=1)
        # Finite exactly when every component is and the 8-component norm does not overflow.
        finite = np.isfinite(norm)
        # The rule of `DualQuaternion.unit_defect`: the dual condition relative to |w|.
        defect = np.abs(mag - 1.0), np.abs(2.0 * np.sum(s * d, axis=1)) / norm
    checks = [(finite, NonFiniteWeightError, "weight is not finite")]
    if weight_type.is_unit:
        checks.append(((defect[0] <= UNIT_TOL) & (defect[1] <= UNIT_TOL), NonUnitWeightError,
                       "weight fails unit validation (defects {0:.3g}, {1:.3g})"))
    checks.append((mag > APPRECIABLE_TOL, NonAppreciableWeightError,
                   "weight has no appreciable part"))
    if weight_type.complex_embedded:
        checks.append((np.abs(W[:, [2, 3, 6, 7]]).max(axis=1) <= EMBED_TOL,
                       WeightTypeMismatchError, "weight is not complex-embedded"))
    if weight_type is WeightType.REAL:
        checks.append((np.abs(s[:, 1:]).max(axis=1) <= EMBED_TOL,
                       WeightTypeMismatchError, "weight is not real"))
    if weight_type.dualfree:
        checks.append((np.linalg.norm(d, axis=1) <= EMBED_TOL, WeightTypeMismatchError,
                       f"{weight_type.value} weights carry no dual part"))
    valid = np.logical_and.reduce([ok for ok, _, _ in checks])
    if not valid.all():
        k = int(np.argmin(valid))
        error, message = next((error, message) for ok, error, message in checks if not ok[k])
        raise error(f"arc {arcs[k]}: " + message.format(defect[0][k], defect[1][k]))


class WeightView(Mapping):
    """Read-only ``arc -> DualQuaternion`` view of a weight array; each lookup builds one."""

    def __init__(self, graph: Digraph, array: np.ndarray):
        self._graph, self._array = graph, array

    def __getitem__(self, arc) -> DualQuaternion:
        k = int(arc_positions(self._graph, *arc))
        if k < 0:
            raise ArcNotFoundError(arc)
        return DualQuaternion.from_array(self._array[k])

    def __iter__(self):
        return iter(self._graph.arcs)

    def __len__(self) -> int:
        return len(self._graph.arcs)


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """A digraph together with a weight on every arc.

    Row k of the read-only (m, 8) ``weight_array`` is the weight of
    ``arcs[k]``, standard part then dual part.
    """

    graph: Digraph
    weight_type: WeightType
    weight_array: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self.graph.arcs

    @property
    def weights(self) -> WeightView:
        """The weights as a read-only mapping from arc to `DualQuaternion`."""
        return WeightView(self.graph, self.weight_array)

    def weight(self, i: int, j: int) -> DualQuaternion:
        return self.weights[(i, j)]

    def with_weight(self, arc: tuple[int, int], w: DualQuaternion) -> "WeightedDigraph":
        """Copy of the graph with one arc's weight replaced."""
        if arc not in self.weights:
            raise ArcNotFoundError(arc)
        return build(self.n, self.arcs, {**dict(zip(self.arcs, self.weight_array)), arc: w},
                     self.weight_type)


def build(n: int,
          arcs: Iterable[tuple[int, int]],
          weights: Mapping[tuple[int, int], DualQuaternion],
          weight_type: WeightType | str) -> WeightedDigraph:
    """Validated weighted digraph from arcs and an arc -> weight (`DualQuaternion`
    or eight floats, standard then dual part) mapping."""
    weight_type = WeightType(weight_type)
    graph = Digraph(n, tuple(arcs))
    missing = [a for a in graph.arcs if a not in weights]
    if missing:
        raise ValueError(f"missing weights for arcs {missing}")
    W = np.array([weights[a] for a in graph.arcs], dtype=np.float64).reshape(len(graph.arcs), 8)
    _check_weights(graph.arcs, W, weight_type)
    W.setflags(write=False)
    return WeightedDigraph(graph, weight_type, W)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def spanning_forest(g: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first spanning forest of the underlying undirected graph.

    Roots ascend and every vertex explores its arcs in (tail, head) order.
    Returns, per 0-based vertex, the arc that reached it (-1: root) and its depth.
    """
    adjacent = [[] for _ in range(g.n)]
    for k, (i, j) in enumerate(g.arcs):     # sorted arcs: every list ascends
        adjacent[i - 1].append((j - 1, k))
        adjacent[j - 1].append((i - 1, k))
    parent_arc, depth = [-1] * g.n, [-1] * g.n
    for root in range(g.n):
        if depth[root] < 0:
            depth[root] = 0
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for u, k in adjacent[v]:
                    if depth[u] < 0:
                        depth[u], parent_arc[u] = depth[v] + 1, k
                        queue.append(u)
    return np.array(parent_arc, dtype=np.intp), np.array(depth, dtype=np.intp)


def is_weakly_connected(g: Digraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    return int(np.count_nonzero(spanning_forest(g)[0] < 0)) == 1


def mother_vertex(g: Digraph) -> int | None:
    """A vertex reachable from every vertex by a directed path, or None if none is.

    Such a vertex reaches every vertex along the reversed arcs: it is a
    mother vertex of the reversed graph.  A search of the reversed graph that
    starts again at each vertex not yet reached leaves a reached set that is
    closed under reachability, so the search that reaches such a vertex
    reaches all the rest: the last vertex started from is one if any is.  A
    second search from it decides.  Returns the 1-based vertex.
    """
    into = [[] for _ in range(g.n)]
    for i, j in g.arcs:
        into[j - 1].append(i - 1)

    def search(start: int, reached: list[bool]) -> None:
        reached[start], stack = True, [start]
        while stack:
            for u in into[stack.pop()]:
                if not reached[u]:
                    reached[u] = True
                    stack.append(u)

    reached, last = [False] * g.n, 0
    for v in range(g.n):
        if not reached[v]:
            search(v, reached)
            last = v
    reached = [False] * g.n
    search(last, reached)
    return last + 1 if all(reached) else None


def has_directed_spanning_tree(g: Digraph) -> bool:
    """True iff some vertex is reachable from every other vertex by directed paths
    (a spanning tree with every arc directed towards that root; see `mother_vertex`)."""
    return mother_vertex(g) is not None


# ---------------------------------------------------------------------------
# Degrees and Laplacians
# ---------------------------------------------------------------------------

def laplacian_entries(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray, np.ndarray]:
    """The entries of `laplacian` and `weighted_magnitude_laplacian` that can be nonzero.

    Returns ``(rows, cols, L, M)``: 0-based positions, the n diagonal entries
    first and then one entry per arc in arc order, with the dual quaternion
    values ``L`` (shape (n + m, 8)) of the weighted Laplacian and the real
    values ``M`` (shape (n + m,)) of the magnitude Laplacian there.  Every
    other entry of both matrices is zero.  The diagonal holds the
    out-degrees, the sums of |standard part| over the arcs leaving each
    vertex (arc counts for unit weight types), summed in arc order.
    """
    n, tails = g.n, g.graph.tails
    mag = np.linalg.norm(g.weight_array[:, :4], axis=1)
    degree = np.bincount(tails, weights=None if g.weight_type.is_unit else mag, minlength=n)
    rows = np.concatenate([np.arange(n), tails])
    cols = np.concatenate([np.arange(n), g.graph.heads])
    L = np.concatenate([degree[:, None] * np.eye(1, 8), -g.weight_array])
    return rows, cols, L, np.concatenate([degree, -mag])


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
    L = np.zeros((g.n, g.n))
    L[g.tails, g.heads] = -1.0
    L[np.diag_indices(g.n)] = np.bincount(g.tails, minlength=g.n)
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

    def arcs(self) -> list[tuple[int, int]]:
        """The arcs of the graph used by the cycle (in step order)."""
        v = self.vertices
        return [(a, b) if fwd else (b, a) for a, b, fwd in zip(v, v[1:] + v[:1], self.forward)]


@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[OrientedCycle, ...]
    truncated: bool = False


def _cycle_steps(cycles: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end vertices of the steps of closed walks, walk after walk."""
    a = np.array([v for vs in cycles for v in vs], dtype=np.intp)
    return a, np.array([v for vs in cycles for v in vs[1:] + vs[:1]], dtype=np.intp)


def _directions(g: Digraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each step ``a[t] -> b[t]`` follows an arc (preferred) or runs against one."""
    forward = arc_positions(g, a, b) >= 0
    missing = ~forward & (arc_positions(g, b, a) < 0)
    if np.any(missing):
        t = int(np.argmax(missing))
        raise InvalidWalkError(f"no arc between {a[t]} and {b[t]}")
    return forward


def _canonical_vertices(cycle: list[int]) -> tuple[int, ...]:
    """The cycle from its smallest vertex, in the lexicographically smaller direction."""
    p = cycle.index(min(cycle))
    fwd = cycle[p:] + cycle[:p]
    return tuple(min(fwd, fwd[:1] + fwd[:0:-1]))


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
    mg.add_edges_from(g.arcs)
    raw = list(islice(nx.simple_cycles(mg), max_cycles + 1))
    vertices = [_canonical_vertices(list(nodes)) for nodes in raw[:max_cycles]]
    flags = iter(_directions(g, *_cycle_steps(vertices)).tolist())
    cycles = sorted((OrientedCycle(v, tuple(islice(flags, len(v)))) for v in vertices),
                    key=lambda c: (len(c), c.vertices))
    return CycleEnumeration(tuple(cycles), len(raw) > max_cycles)


def inverse_weights(weight_type: WeightType, a: np.ndarray) -> np.ndarray:
    """Entrywise inverse of an (m, 8) array of weights: the conjugate for unit weight types."""
    return (linalg.dqconj if weight_type.is_unit else linalg.dqinv)(a)


def step_weights(g: WeightedDigraph, pos, forward) -> np.ndarray:
    """Shadow elements of steps over the arcs ``pos``: the weight where ``forward``,
    else its inverse (`inverse_weights`).  Shape (len(pos), 8).
    """
    steps = g.weight_array[pos]
    back = ~np.asarray(forward, dtype=bool)
    steps[back] = inverse_weights(g.weight_type, steps[back])
    return steps


def _oriented_products(g: WeightedDigraph, a, b, forward, lengths) -> np.ndarray:
    """Left-to-right shadow-element products of walks, shape (len(lengths), 8).

    Steps ``a[t] -> b[t]`` (1-based), following their arc where ``forward[t]``,
    are listed walk after walk, ``lengths[r]`` of them for walk r.
    """
    tails, heads = np.where(forward, a, b), np.where(forward, b, a)
    pos = arc_positions(g.graph, tails, heads)
    if np.any(pos < 0):
        t = int(np.argmin(pos))
        raise InvalidWalkError(f"flagged arc {(int(tails[t]), int(heads[t]))} "
                               "is not in the graph")
    steps = step_weights(g, pos, forward)
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    prod = np.tile(np.eye(1, 8), (len(lengths), 1))     # each walk starts at 1
    for t in range(int(lengths.max(initial=0))):
        walks = np.flatnonzero(lengths > t)
        prod[walks] = linalg.dqmul(prod[walks], steps[starts[walks] + t])
    return prod


def cycle_products(g: WeightedDigraph, cycles: Sequence[OrientedCycle]) -> np.ndarray:
    """`walk_weight` of every cycle at once, shape (len(cycles), 8)."""
    a, b = _cycle_steps([c.vertices for c in cycles])
    forward = np.array([f for c in cycles for f in c.forward], dtype=bool)
    return _oriented_products(g, a, b, forward, [len(c) for c in cycles])


def walk_weight(g: WeightedDigraph, walk) -> DualQuaternion:
    """Ordered product of shadow elements along a walk.

    Forward steps contribute the arc weight, backward steps its inverse
    (conjugate for unit weight types).  ``walk`` is an `OrientedCycle` or a
    vertex sequence; for sequences the direction of each step is inferred,
    preferring the forward arc.
    """
    if isinstance(walk, OrientedCycle):
        return DualQuaternion.from_array(cycle_products(g, [walk])[0])
    verts = np.asarray(list(walk), dtype=np.intp)
    if len(verts) < 2:
        raise InvalidWalkError("a walk needs at least two vertices")
    a, b = verts[:-1], verts[1:]
    forward = _directions(g.graph, a, b)
    return DualQuaternion.from_array(_oriented_products(g, a, b, forward, [len(a)])[0])
