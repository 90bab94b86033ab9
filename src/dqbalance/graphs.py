"""Directed graphs with (dual) quaternion arc weights.

Vertices are 1-based (1..n).  An arc ``(i, j)`` points from tail ``i`` to
head ``j``; loops and duplicate arcs are rejected, antiparallel pairs are
allowed.  Weights are held as one read-only (m, 8) array in arc order.
Graphs are immutable after construction and every query here is a pure
function, so concurrent reads are safe.  Simple cycles are enumerated by a
search of this module's own over arrays, block by biconnected block and
within a memory budget (`enumerate_cycles`), so the module needs numpy
alone.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Mapping, Sequence

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


def _is_vertex_type(kind: type) -> bool:
    """Python or NumPy integer type, not bool."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


# Largest vertex count whose arc keys ``n * tail + head`` and sentinel ``n * n`` fit an intp.
MAX_VERTICES = math.isqrt(int(np.iinfo(np.intp).max))


@dataclass(frozen=True)
class Digraph:
    """A loopless simple directed graph on vertices 1..n; ``arcs`` are sorted,
    ``tails``/``heads`` are read-only arrays of their 0-based ends and
    ``arc_keys`` of their increasing keys ``n * tail + head``, then ``n * n``.
    ``order[k]`` is the position of ``arcs[k]`` in the arcs as given."""

    n: int
    arcs: tuple[tuple[int, int], ...]
    tails: np.ndarray = field(init=False, repr=False, compare=False)
    heads: np.ndarray = field(init=False, repr=False, compare=False)
    arc_keys: np.ndarray = field(init=False, repr=False, compare=False)
    order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_vertex_type(type(self.n)) and self.n >= 1):
            raise ValueError(f"need a positive integer vertex count, not {self.n!r}")
        n = int(self.n)
        if n > MAX_VERTICES:
            raise ValueError(f"{n} vertices: the arc keys n * n would overflow an intp")
        # The whole list is checked at once; only a list with a fault runs
        # `_first_arc_fault`, which names the first offending arc in listed order.
        try:
            flat = list(chain.from_iterable(self.arcs))
            valid = (set(map(len, self.arcs)) <= {2}
                     and all(map(_is_vertex_type, set(map(type, flat)))))
            ends = np.fromiter(flat, dtype=np.intp, count=len(flat)).reshape(-1, 2) - 1
        except (TypeError, ValueError, OverflowError):
            valid = False
        if valid:
            tails, heads = ends[:, 0], ends[:, 1]
            keys = tails * n + heads
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            valid = (np.all((tails >= 0) & (tails < n) & (heads >= 0) & (heads < n))
                     and not np.any(tails == heads) and not np.any(keys[1:] == keys[:-1]))
        if not valid:
            _first_arc_fault(n, self.arcs)
        ends = ends[order]
        keys = np.append(keys, n * n)
        for a in (ends, keys, order):
            a.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", tuple(zip(*(ends + 1).T.tolist())))
        object.__setattr__(self, "tails", ends[:, 0])
        object.__setattr__(self, "heads", ends[:, 1])
        object.__setattr__(self, "arc_keys", keys)
        object.__setattr__(self, "order", order)


def _first_arc_fault(n: int, arcs) -> None:
    """Raise for the first arc, in listed order, that is not a new arc between two
    distinct vertices of 1..n."""
    seen = set()
    for (i, j) in arcs:
        if not (_is_vertex_type(type(i)) and _is_vertex_type(type(j))):
            raise ValueError(f"arc ({i!r}, {j!r}): vertex numbers must be integers")
        if i == j:
            raise LoopArcError(f"loop arc ({i}, {i})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"arc ({i}, {j}) out of range 1..{n}")
        if (i, j) in seen:
            raise DuplicateArcError(f"duplicate arc ({i}, {j})")
        seen.add((i, j))
    raise ValueError("arcs must be pairs of vertex numbers")


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
        dual = np.linalg.norm(d, axis=1) if weight_type.dualfree else None
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
        checks.append((dual <= EMBED_TOL, WeightTypeMismatchError,
                       f"{weight_type.value} weights carry no dual part"))
    valid = np.logical_and.reduce([ok for ok, _, _ in checks])
    if not valid.all():
        k = int(np.argmin(valid))
        error, message = next((error, message) for ok, error, message in checks if not ok[k])
        if not finite[k] and np.all(np.isfinite(W[k])):
            message = "weight is too large: its 8-component norm overflows"
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
        k = int(arc_positions(self.graph, *arc))
        if k < 0:
            raise ArcNotFoundError(arc)
        W = self.weight_array.copy()
        W[k] = np.asarray(w, dtype=np.float64).reshape(8)
        return build(self.n, self.arcs, W, self.weight_type)


def build(n: int,
          arcs: Iterable[tuple[int, int]],
          weights: np.ndarray | Mapping[tuple[int, int], DualQuaternion],
          weight_type: WeightType | str) -> WeightedDigraph:
    """Validated weighted digraph from arcs and their weights.

    ``weights`` is an (m, 8) array whose row k, standard then dual part, is
    the weight of the k-th arc as listed, or a mapping from arc to weight
    (`DualQuaternion` or eight floats), which is read into that array.
    """
    weight_type = WeightType(weight_type)
    graph = Digraph(n, tuple(arcs))
    m = len(graph.arcs)
    if isinstance(weights, Mapping):
        missing = [a for a in graph.arcs if a not in weights]
        if missing:
            raise ValueError(f"missing weights for arcs {missing}")
        W = np.array([weights[a] for a in graph.arcs], dtype=np.float64).reshape(m, 8)
    else:
        W = np.asarray(weights, dtype=np.float64).reshape(m, 8)[graph.order]
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


def _successors(vertices: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The vertex each step of flat cycles leads to: the next one of its cycle,
    wrapping round to the cycle's first vertex."""
    ends = np.cumsum(lengths)
    following = np.arange(1, len(vertices) + 1)
    following[ends - 1] = ends - lengths
    return vertices[following]


class CycleView(Sequence):
    """Read-only ``Sequence[OrientedCycle]`` view of flat cycle arrays; each item
    is built on access.

    ``vertices`` and ``forward`` list the cycles' vertices (1-based) and step
    directions, cycle after cycle, ``lengths[r]`` of them for cycle r, which
    starts at ``starts[r]``.  All four arrays are read-only.  A view compares
    and hashes like the tuple of its cycles.
    """

    def __init__(self, vertices: np.ndarray, forward: np.ndarray, lengths: np.ndarray):
        self.vertices, self.forward, self.lengths = (a.view() for a in (vertices, forward, lengths))
        self.starts = np.cumsum(lengths) - lengths
        for a in (self.vertices, self.forward, self.lengths, self.starts):
            a.setflags(write=False)

    @classmethod
    def of(cls, cycles: Sequence[OrientedCycle]) -> "CycleView":
        """The cycles as a view; a view is returned as it is."""
        if isinstance(cycles, CycleView):
            return cycles
        lengths = np.fromiter(map(len, cycles), dtype=np.intp, count=len(cycles))
        total = int(lengths.sum())
        return cls(np.fromiter(chain.from_iterable(c.vertices for c in cycles), np.intp, total),
                   np.fromiter(chain.from_iterable(c.forward for c in cycles), bool, total),
                   lengths)

    def __getitem__(self, k):
        if isinstance(k, slice):
            lengths, starts = self.lengths[k], self.starts[k]
            steps = (np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
                     + np.arange(int(lengths.sum())))
            return CycleView(self.vertices[steps], self.forward[steps], lengths)
        k = operator.index(k)
        start, length = int(self.starts[k]), int(self.lengths[k])
        steps = slice(start, start + length)
        return OrientedCycle(tuple(self.vertices[steps].tolist()),
                             tuple(self.forward[steps].tolist()))

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Tails and heads of the arcs the steps use, cycle after cycle."""
        a, b = self.vertices, _successors(self.vertices, self.lengths)
        return np.where(self.forward, a, b), np.where(self.forward, b, a)

    def __eq__(self, other):
        if isinstance(other, CycleView):
            return (np.array_equal(self.lengths, other.lengths)
                    and np.array_equal(self.vertices, other.vertices)
                    and np.array_equal(self.forward, other.forward))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"CycleView({list(self)!r})"


@dataclass(frozen=True)
class CycleEnumeration:
    """The result of `enumerate_cycles`: the cycles as a read-only
    `CycleView`, which builds an `OrientedCycle` only for an item that is
    read, and whether the enumeration stopped at its ``max_cycles`` bound."""

    cycles: CycleView
    truncated: bool = False


def _directions(g: Digraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each step ``a[t] -> b[t]`` follows an arc (preferred) or runs against one."""
    forward = arc_positions(g, a, b) >= 0
    back = np.flatnonzero(~forward)
    missing = back[arc_positions(g, b[back], a[back]) < 0]
    if len(missing):
        t = missing[0]
        raise InvalidWalkError(f"no arc between {a[t]} and {b[t]}")
    return forward


def _core_times(indptr: list, indices: list) -> np.ndarray:
    """For each vertex v of a simple graph in CSR lists, the largest s such that v
    lies in the 2-core of the subgraph induced on the vertices ``>= s``; -1 if
    v lies on no cycle.

    One peeling, O(n + m): first the graph's own 2-core, then each vertex s in
    turn leaves, and the vertices it drops below degree 2 leave with it.
    """
    k = len(indptr) - 1
    degree = [indptr[v + 1] - indptr[v] for v in range(k)]
    alive, time = [True] * k, [-1] * k

    def peel(v: int, t: int) -> None:
        alive[v], time[v], stack = False, t, [v]
        while stack:
            x = stack.pop()
            for u in indices[indptr[x]:indptr[x + 1]]:
                if alive[u]:
                    degree[u] -= 1
                    if degree[u] < 2:
                        alive[u], time[u] = False, t
                        stack.append(u)

    for v in range(k):
        if alive[v] and degree[v] < 2:
            peel(v, -1)
    for s in range(k):
        if alive[s]:
            peel(s, s)
    return np.array(time, dtype=np.intp)


def _blocks(indptr: list, indices: list, reverse: list) -> list:
    """The biconnected block of each entry of a simple graph in CSR lists,
    numbered from 0; ``reverse[e]`` is the entry of e's other direction, and
    both directions of an edge get its block.

    Iterative Hopcroft-Tarjan, O(n + m): each edge goes on a stack once, as a
    tree edge or as a back edge from its lower end, and a block is popped
    when the search leaves a vertex that nothing below it reaches above.
    """
    k = len(indptr) - 1
    disc, low, up, tree = [-1] * k, [0] * k, [-1] * k, [-1] * k
    following = indptr[:-1]
    block = [-1] * len(indices)
    edges, count, t = [], 0, 0
    for root in range(k):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = t
        t += 1
        stack = [root]
        while stack:
            v = stack[-1]
            e = following[v]
            if e < indptr[v + 1]:
                following[v] = e + 1
                u = indices[e]
                if disc[u] < 0:
                    disc[u] = low[u] = t
                    t += 1
                    up[u], tree[u] = v, e
                    edges.append(e)
                    stack.append(u)
                elif disc[u] < disc[v] and u != up[v]:
                    edges.append(e)
                    low[v] = min(low[v], disc[u])
                continue
            stack.pop()
            if stack:
                p = stack[-1]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    e = -1
                    while e != tree[v]:
                        e = edges.pop()
                        block[e] = block[reverse[e]] = count
                    count += 1
    return block


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending.  (``np.unique`` would import
    ``numpy.ma`` on its first call, 1.7 MB of resident memory.)"""
    a = np.sort(a, kind="stable")
    return np.concatenate([a[:1], a[1:][a[1:] != a[:-1]]])


def _csr(src: np.ndarray, dst: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries ``src[e] -> dst[e]`` over k vertices sorted by (src, dst): the
    sorting order, the row pointers and the sorted keys ``src * k + dst``."""
    keys = src * np.intp(k) + dst
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=k), out=indptr[1:])
    return order, indptr, keys[order]


# The memory, in eight-byte words, that one search may hold: each path one
# word in the tree (its end and its parent), and while it is on the frontier
# two more (its start, second vertex and end) and its visited mask.
SEARCH_WORDS = 1 << 26
# The paths of a level that are extended at once.
_CHUNK = 1 << 12
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def enumerate_cycles(g: Digraph, max_cycles: int = 10 ** 6) -> CycleEnumeration:
    """All simple cycles of the digraph, traversable in either arc direction.

    The underlying undirected multigraph is searched (antiparallel arcs are
    parallel edges, so each such pair contributes a 2-cycle).  Every cycle is
    reported once, canonicalized to start at its smallest vertex with the
    lexicographically smaller direction, and the cycles are sorted by length,
    then by their vertices; steps along antiparallel pairs prefer the forward
    arc.  ``max_cycles`` is a non-negative integer.  When there are more
    cycles than that, ``truncated`` is set and the result holds the
    ``max_cycles`` smallest cycles in this order.  The search also stops,
    with ``truncated`` set, before its paths would take more than
    `SEARCH_WORDS` words; the result then holds fewer cycles, again the
    smallest in this order.

    The 2-cycles are the antiparallel pairs.  The longer cycles come from one
    search of the simple underlying graph that extends every start vertex's
    paths one vertex per level, over arrays.  Every cycle lies in one
    biconnected block (`_blocks`), so the search runs on the blocks side by
    side, a cut vertex once in each of its blocks, and a path's visited mask
    has a bit for each vertex of its own block.  A path from s grows only
    into vertices above s that are not on it and still lie in the 2-core of
    its block's subgraph on the vertices ``>= s`` (`_core_times`); it closes
    into a cycle when s is a neighbour of its end, it has three vertices or
    more, and its second vertex is below its end.  Paths are kept as a
    parent-pointer tree, and ascending neighbours keep every level in
    lexicographic order, so each level's cycles come out canonical and
    sorted.  A level grows `_CHUNK` paths at a time and its new paths are
    closed as they come, so the search stops within the chunk at which the
    count passes ``max_cycles``.
    """
    if not (_is_vertex_type(type(max_cycles)) and max_cycles >= 0):
        raise ValueError(f"max_cycles must be a non-negative integer, not {max_cycles!r}")
    tails, heads = g.tails, g.heads
    reverse = arc_positions(g, heads + 1, tails + 1) >= 0
    up = tails < heads
    pairs = up & reverse
    pairs = np.stack([tails[pairs], heads[pairs]], axis=1)      # sorted arcs: sorted pairs
    count = len(pairs)
    # The simple underlying graph, relabelled 0..k-1 in order over the vertices it touches.
    edge = up | ~reverse
    lo, hi = np.minimum(tails, heads)[edge], np.maximum(tails, heads)[edge]
    label = _distinct(np.concatenate([lo, hi]))
    k = len(label)
    src = np.searchsorted(label, np.concatenate([lo, hi]))
    dst = np.searchsorted(label, np.concatenate([hi, lo]))
    order, indptr, keys = _csr(src, dst, k)
    src, dst = src[order], dst[order]
    back = np.searchsorted(keys, dst * np.intp(k) + src)
    blk = np.array(_blocks(indptr.tolist(), dst.tolist(), back.tolist()), dtype=np.intp)
    keys = np.append(keys, k * k)                       # ascending, then a sentinel
    # The blocks side by side: node x is the vertex node[x] % k in the block
    # node[x] // k, numbered block after block in vertex order.
    node = _distinct(blk * np.intp(k) + src)
    tail = np.searchsorted(node, blk * np.intp(k) + src)
    head = np.searchsorted(node, blk * np.intp(k) + dst)
    local = head - np.searchsorted(node, blk * np.intp(k))
    node = (node % k).astype(np.int32)
    order, indptr, _ = _csr(tail, head, len(node))
    tail, head, local = tail[order], head[order], local[order]
    core = _core_times(indptr.tolist(), head.tolist())
    core = np.where(core >= 0, node[core], -1)          # as a vertex, in the node's block
    # A path from s takes the entry e when s <= reach[e]; entries outside the
    # blocks' 2-cores are never taken.
    use = core[head] >= 0
    tail, head, local = tail[use], head[use], local[use]
    reach = np.minimum(node[head] - 1, core[head])
    first = np.flatnonzero((core[tail] == node[tail]) & (reach >= node[tail]))
    first = first[np.argsort(node[tail[first]] * np.intp(k) + node[head[first]], kind="stable")]
    np.cumsum(np.bincount(tail, minlength=len(node)), out=indptr[1:])
    degree_of = np.diff(indptr)
    word, bit = local >> 6, _BIT[local & 63]
    words = int(local.max(initial=0)) // 64 + 1
    mask = np.zeros((len(first), words), dtype=np.uint64)
    mask[np.arange(len(first)), word[first]] = bit[first]
    start, end = node[tail[first]], head[first]
    second = node[end]
    ends, parents, closed = [start, end], [None, np.arange(len(first), dtype=np.int32)], []
    held, truncated = (4 + words) * len(first), False
    while len(end) and count <= max_cycles and not truncated:
        # Grow the level a chunk of paths at a time, closing the new paths as
        # they come: they come in order, so the search can stop mid-level.
        grown, shut, size = [], [], 0
        for at in range(0, len(end), _CHUNK):
            tip = end[at:at + _CHUNK]
            degree = degree_of[tip]
            path = np.arange(at, at + len(tip), dtype=np.int32).repeat(degree)
            e = np.arange(len(path)) - (degree.cumsum() - degree - indptr[tip]).repeat(degree)
            keep = reach[e] >= start[path]
            path, e = path[keep], e[keep]
            keep = (mask[path, word[e]] & bit[e]) == 0
            path, e = path[keep], e[keep]
            held += (3 + words) * len(path)
            if held > SEARCH_WORDS:
                truncated = True
                break
            h = head[e]
            u = node[h]
            key = start[path] * np.intp(k) + u
            ring = ((second[path] < u) & (keys[keys.searchsorted(key)] == key)).nonzero()[0]
            grown.append((path, e, h))
            shut.append(ring + size)
            size += len(path)
            count += len(ring)
            if count > max_cycles:
                break
        if not grown:
            break
        path, e, h = grown[0] if len(grown) == 1 else map(np.concatenate, zip(*grown))
        del grown
        closed.append(shut[0] if len(shut) == 1 else np.concatenate(shut))
        ends.append(h)
        parents.append(path)
        if count <= max_cycles and not truncated:
            held -= (2 + words) * len(end)
            mask = mask[path]
            mask[np.arange(len(e)), word[e]] |= bit[e]
            start, second, end = start[path], second[path], h
    truncated = truncated or count > max_cycles
    if count > max_cycles and closed:   # the last level passed the bound: keep its first cycles
        closed[-1] = closed[-1][:max_cycles - (count - len(closed[-1]))]
    elif count > max_cycles:            # the 2-cycles alone passed it
        pairs = pairs[:max_cycles]
    # Walk the closed paths back through the tree, every length at once, deepest first.
    sizes = [len(c) for c in closed]
    lengths = np.repeat(np.arange(3, 3 + len(closed)), sizes)
    out = np.empty(int(lengths.sum()), dtype=np.intp)
    last = np.cumsum(lengths) - 1
    offsets = np.cumsum([0] + sizes)
    cursor, where = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    for level in range(len(closed) + 1 if closed else -1, -1, -1):
        if level >= 2 and sizes[level - 2]:
            cursor = np.concatenate([cursor, closed[level - 2]])
            where = np.concatenate([where, last[offsets[level - 2]:offsets[level - 1]]])
        out[where] = node[ends[level][cursor]] if level else ends[0][cursor]
        if level:
            cursor, where = parents[level][cursor], where - 1
    vertices = np.concatenate([pairs.ravel(), label[out]]) + 1
    lengths = np.concatenate([np.full(len(pairs), 2), lengths])
    forward = _directions(g, vertices, _successors(vertices, lengths))
    return CycleEnumeration(CycleView(vertices, forward, lengths), truncated)


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
    """`walk_weight` of every cycle at once, shape (len(cycles), 8).

    ``cycles`` is a `CycleView` or any sequence of `OrientedCycle`; the steps
    of a view go to the product as they are.
    """
    view = CycleView.of(cycles)
    return _oriented_products(g, view.vertices, _successors(view.vertices, view.lengths),
                              view.forward, view.lengths)


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
