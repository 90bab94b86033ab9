from contextlib import contextmanager
from dataclasses import replace
from itertools import islice

import networkx as nx
import numpy as np
import pytest

from dqbalance import linalg
from dqbalance.algebra import DualQuaternion, Quaternion, random_udq
from dqbalance.balance import (
    BALANCE_TOL,
    BalanceReport,
    FailureStage,
    Method,
    Verdict,
    _potential_report,
    _tree_potential,
)
from dqbalance.graphs import (
    InvalidWalkError,
    OrientedCycle,
    WeightType,
    _oriented_products,
    arc_positions,
    build,
)

Q0 = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = DualQuaternion.from_real(1.0)
I = DualQuaternion(Quaternion(0, 1, 0, 0), Q0)
J = DualQuaternion(Quaternion(0, 0, 1, 0), Q0)
K = DualQuaternion(Quaternion(0, 0, 0, 1), Q0)


def make_tree(w21, w31, weight_type=WeightType.UNIT_DUAL_QUATERNION):
    """Three-vertex tree with arcs into vertex 1."""
    return build(3, [(2, 1), (3, 1)], {(2, 1): w21, (3, 1): w31}, weight_type)


def make_cycle3(w13, w21, w32, weight_type=WeightType.UNIT_DUAL_QUATERNION):
    """Three-vertex directed cycle 1 -> 3 -> 2 -> 1 (arcs (1,3), (3,2), (2,1))."""
    return build(3, [(1, 3), (2, 1), (3, 2)],
                 {(1, 3): w13, (2, 1): w21, (3, 2): w32}, weight_type)


def balanced_cycle3(rng):
    """Random-unit-weight instance of the 3-cycle that is balanced by construction."""
    w21 = random_udq(rng)
    w32 = random_udq(rng)
    w13 = (w32 * w21).conjugate()
    return make_cycle3(w13, w21, w32), (w13, w21, w32)


def cycles_equivalent(c1, c2):
    """Same cycle up to rotation and reversal (vertex sequences only)."""
    v1, v2 = list(c1), list(c2)
    if len(v1) != len(v2):
        return False
    doubled = v2 + v2
    reversed_doubled = v2[::-1] + v2[::-1]
    return any(doubled[i:i + len(v1)] == v1 for i in range(len(v2))) or \
        any(reversed_doubled[i:i + len(v1)] == v1 for i in range(len(v2)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def balanced_and_perturbed(weight_type, rng, n=7, density=0.35):
    """A random balanced graph with antiparallel pairs, and three copies with one arc redrawn."""
    from dqbalance.generate import gen_random_balanced, perturb
    g = gen_random_balanced(n, density, weight_type, rng)
    return [g] + [perturb(g, arc, rng) for arc in g.arcs[:3]]


# ---------------------------------------------------------------------------
# Object-per-cycle reference for the cycle enumeration and the oracle: one
# `OrientedCycle` per cycle, canonicalized, ordered and tested cycle by cycle
# as the enumeration did before it kept its cycles as flat arrays.
# ---------------------------------------------------------------------------

def _reference_directions(g, a, b):
    forward = arc_positions(g, a, b) >= 0
    missing = ~forward & (arc_positions(g, b, a) < 0)
    if np.any(missing):
        t = int(np.argmax(missing))
        raise InvalidWalkError(f"no arc between {a[t]} and {b[t]}")
    return forward


def _reference_canonical_vertices(cycle):
    """The cycle from its smallest vertex, in the lexicographically smaller direction."""
    p = cycle.index(min(cycle))
    fwd = cycle[p:] + cycle[:p]
    return tuple(min(fwd, fwd[:1] + fwd[:0:-1]))


def _reference_steps(cycles):
    a = np.array([v for vs in cycles for v in vs], dtype=np.intp)
    return a, np.array([v for vs in cycles for v in vs[1:] + vs[:1]], dtype=np.intp)


def reference_enumeration(g, max_cycles=10 ** 6):
    """``(cycles, truncated)`` for the digraph ``g``: a tuple of `OrientedCycle`
    sorted on ``(len, vertices)`` tuples."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(range(1, g.n + 1))
    mg.add_edges_from(g.arcs)
    raw = list(islice(nx.simple_cycles(mg), max_cycles + 1))
    vertices = [_reference_canonical_vertices(list(nodes)) for nodes in raw[:max_cycles]]
    flags = iter(_reference_directions(g, *_reference_steps(vertices)).tolist())
    cycles = sorted((OrientedCycle(v, tuple(islice(flags, len(v)))) for v in vertices),
                    key=lambda c: (len(c), c.vertices))
    return tuple(cycles), len(raw) > max_cycles


def reference_defects(g, cycles):
    """Each cycle's distance from neutrality, from per-cycle step and arc lists."""
    W = g.weight_array
    if not g.weight_type.is_unit:
        W = W / np.linalg.norm(W[:, :4], axis=1, keepdims=True)
        g = replace(g, weight_array=W)
    a, b = _reference_steps([c.vertices for c in cycles])
    forward = np.array([f for c in cycles for f in c.forward], dtype=bool)
    lengths = np.array([len(c) for c in cycles], dtype=np.intp)
    prod = _oriented_products(g, a, b, forward, lengths)
    prod[:, 0] -= 1.0
    arcs = np.array([arc for c in cycles for arc in c.arcs()], dtype=np.intp).reshape(-1, 2)
    norms = np.linalg.norm(W, axis=1)[arc_positions(g.graph, *arcs.T)]
    return np.linalg.norm(prod, axis=1) / np.maximum.reduceat(norms, np.cumsum(lengths) - lengths)


def reference_oracle(g, max_cycles=10 ** 6):
    """`balance.cycle_oracle` on the object-per-cycle reference."""
    cycles, truncated = reference_enumeration(g.graph, max_cycles)
    if truncated:
        return BalanceReport(Verdict.INDETERMINATE, Method.CYCLE_ORACLE)
    off = ~(reference_defects(g, cycles) <= BALANCE_TOL)
    if np.any(off):
        return BalanceReport(Verdict.UNBALANCED, Method.CYCLE_ORACLE,
                             failure_stage=FailureStage.CYCLE_FOUND,
                             witness=cycles[int(np.argmax(off))])
    return _potential_report(g, _tree_potential(g).theta, Method.CYCLE_ORACLE)


# ---------------------------------------------------------------------------
# Written-out entrywise products: the Hamilton product row by row, and the
# dual product as three of them, as the kernels were written before they read
# their terms from the structure tables.  The kernels must agree with them
# bit for bit.
# ---------------------------------------------------------------------------

def reference_qmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def reference_dqmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    s = reference_qmul(a[..., :4], b[..., :4])
    d = reference_qmul(a[..., :4], b[..., 4:]) + reference_qmul(a[..., 4:], b[..., :4])
    return np.concatenate([s, d], axis=-1)


@contextmanager
def reference_kernels():
    """`linalg.qmul` and `linalg.dqmul` swapped for the written-out references,
    so that `linalg.dqinv` and every caller run on them too."""
    saved = linalg.qmul, linalg.dqmul
    linalg.qmul, linalg.dqmul = reference_qmul, reference_dqmul
    try:
        yield
    finally:
        linalg.qmul, linalg.dqmul = saved
