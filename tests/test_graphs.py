import importlib.util
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqbalance.algebra import (
    DualQuaternion,
    NotUnitError,
    Quaternion,
    UnitDualQuaternion,
    random_udq,
)
from dqbalance import graphs
from dqbalance.generate import cycle_arc, gen_random_balanced, gen_tree, random_weight
from dqbalance.graphs import (
    ArcNotFoundError,
    CycleEnumeration,
    CycleView,
    Digraph,
    DuplicateArcError,
    InvalidWalkError,
    LoopArcError,
    MAX_VERTICES,
    NonAppreciableWeightError,
    NonFiniteWeightError,
    NonUnitWeightError,
    OrientedCycle,
    WeightType,
    WeightTypeMismatchError,
    build,
    cycle_products,
    enumerate_cycles,
    has_directed_spanning_tree,
    is_weakly_connected,
    laplacian,
    mother_vertex,
    spanning_forest,
    unweighted_laplacian,
    walk_weight,
    weighted_magnitude_laplacian,
)
from dqbalance.serialize import cycle_to_obj, loads_graph

from conftest import (
    I,
    J,
    K,
    ONE,
    Q0,
    balanced_and_perturbed,
    cycles_equivalent,
    make_cycle3,
    make_tree,
    reference_enumeration,
)


def unit_pair(rng):
    return random_udq(rng), random_udq(rng)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_build_tree(rng):
    g = make_tree(*unit_pair(rng))
    assert g.n == 3
    assert g.arcs == ((2, 1), (3, 1))


def test_build_cycle(rng):
    g = make_cycle3(random_udq(rng), random_udq(rng), random_udq(rng))
    assert g.arcs == ((1, 3), (2, 1), (3, 2))


def test_build_rejects_loops_and_duplicates():
    with pytest.raises(LoopArcError):
        Digraph(3, ((1, 1),))
    with pytest.raises(DuplicateArcError):
        Digraph(3, ((1, 2), (1, 2)))
    for arc in [(1, 2.5), (1, 2.0), (True, 2), (1, np.True_), ("1", 2)]:
        with pytest.raises(ValueError, match=rf"^arc \({arc[0]!r}, {arc[1]!r}\)"):
            Digraph(3, ((2, 3), arc))
    assert Digraph(3, ((np.int64(1), np.int32(2)),)).arcs == ((1, 2),)
    with pytest.raises(ValueError, match="positive integer vertex count"):
        Digraph(3.5, ((1, 2),))


def scalar_digraph(n, arcs):
    """The arc validation `Digraph` did one arc at a time, kept as the reference:
    ``(arcs, tails, heads, arc_keys)``, or the exception it raises."""
    def vertex_number(v):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool)
    seen = set()
    for (i, j) in arcs:
        if not (type(i) is type(j) is int or vertex_number(i) and vertex_number(j)):
            raise ValueError(f"arc ({i!r}, {j!r}): vertex numbers must be integers")
        if i == j:
            raise LoopArcError(f"loop arc ({i}, {i})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"arc ({i}, {j}) out of range 1..{n}")
        if (i, j) in seen:
            raise DuplicateArcError(f"duplicate arc ({i}, {j})")
        seen.add((i, j))
    arcs = tuple(sorted(arcs))
    ends = np.array(arcs, dtype=np.intp).reshape(len(arcs), 2) - 1
    return arcs, ends[:, 0], ends[:, 1], np.append(ends @ (n, 1), n * n)


@st.composite
def arc_lists(draw):
    """A vertex count and a list of distinct arcs in random order, with loops,
    duplicates, out-of-range or boolean ends and NumPy integer ends put in."""
    n = draw(st.integers(1, 6))
    every = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    arcs = draw(st.permutations(every))[:draw(st.integers(0, len(every)))]
    vertex = st.integers(1, n)
    for fault in draw(st.lists(st.sampled_from(["loop", "duplicate", "range", "bool", "numpy"]),
                               max_size=3)):
        k = draw(st.integers(0, len(arcs)))
        if fault == "loop":
            v = draw(vertex)
            arcs.insert(k, (v, v))
        elif fault == "duplicate" and arcs:
            arcs.insert(k, draw(st.sampled_from(arcs)))
        elif fault == "range":
            bad = draw(st.sampled_from([0, -1, n + 1, 2 ** 70, np.int64(-2 ** 63)]))
            arcs.insert(k, draw(st.permutations([bad, draw(vertex)])))
        elif fault == "bool":
            arcs.insert(k, tuple(draw(st.permutations([draw(st.booleans()), draw(vertex)]))))
        elif fault == "numpy" and k < len(arcs) and all(type(v) is int and 0 <= v < 256
                                                        for v in arcs[k]):
            kind = draw(st.sampled_from([np.int64, np.int32, np.uint8]))
            arcs[k] = (kind(arcs[k][0]), arcs[k][1] if draw(st.booleans()) else kind(arcs[k][1]))
    return n, [tuple(a) for a in arcs]


@settings(max_examples=400, deadline=None, database=None)
@given(arc_lists())
def test_whole_array_validation_matches_the_scalar_loop(case):
    n, arcs = case
    try:
        expected = scalar_digraph(n, arcs)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            Digraph(n, tuple(arcs))
        assert str(raised.value) == str(exc)
        return
    g = Digraph(n, tuple(arcs))
    assert g.arcs == expected[0]
    for got, want in zip((g.tails, g.heads, g.arc_keys), expected[1:]):
        assert got.dtype == np.intp and np.array_equal(got, want)
    assert [arcs[k] for k in g.order] == list(g.arcs)


@pytest.mark.parametrize("wt", [WeightType.COMPLEX, WeightType.REAL])
def test_a_dual_part_whose_norm_overflows_is_named_without_a_warning(wt):
    # Every component is finite, but the 8-component norm overflows: the
    # message says so, and no overflow warning escapes any check.
    W = np.array([[1.0, 0.0, 0.0, 0.0, 1e170, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteWeightError, match=r"^arc \(1, 2\): .*norm overflows"):
            build(2, [(1, 2)], W, wt)
        W[0, 4] = np.inf
        with pytest.raises(NonFiniteWeightError, match=r"^arc \(1, 2\): weight is not finite$"):
            build(2, [(1, 2)], W, wt)


def test_a_vertex_count_whose_arc_keys_overflow_is_rejected():
    # At n = 2**32, n * n overflows an int64: the keys would silently wrap.
    with pytest.raises(ValueError, match="overflow"):
        Digraph(2 ** 32, ((1, 2),))
    g = Digraph(MAX_VERTICES, ((1, MAX_VERTICES), (MAX_VERTICES, 1)))
    assert g.arc_keys.dtype == np.intp
    assert g.arc_keys.tolist() == [MAX_VERTICES - 1, (MAX_VERTICES - 1) * MAX_VERTICES,
                                   MAX_VERTICES ** 2]


def test_build_rejects_non_unit_weight():
    w = DualQuaternion.from_real(2.0)
    with pytest.raises(NonUnitWeightError):
        build(2, [(1, 2)], {(1, 2): w}, WeightType.UNIT_DUAL_QUATERNION)


@pytest.mark.parametrize("dual_defect,unit", [(5e-4, True), (2e-3, False)])
def test_scalar_and_array_unit_rules_are_relative_to_the_norm(dual_defect, unit):
    # 2 Re(s d*) = dual_defect at |w| ~ 1e6: within UNIT_TOL * |w| = 1e-3 or not.
    w = DualQuaternion(Quaternion(1, 0, 0, 0), Quaternion(dual_defect / 2, 1e6, 0, 0))
    assert w.is_unit() is unit
    if unit:
        UnitDualQuaternion(w.s, w.d)
        build(2, [(1, 2)], {(1, 2): w}, WeightType.UNIT_DUAL_QUATERNION)
    else:
        with pytest.raises(NotUnitError):
            UnitDualQuaternion(w.s, w.d)
        with pytest.raises(NonUnitWeightError):
            build(2, [(1, 2)], {(1, 2): w}, WeightType.UNIT_DUAL_QUATERNION)


def test_build_rejects_non_appreciable_weight():
    w = DualQuaternion(Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0))
    with pytest.raises(NonAppreciableWeightError):
        build(2, [(1, 2)], {(1, 2): w}, WeightType.DUAL_QUATERNION)


def test_build_rejects_embedding_mismatch():
    w = DualQuaternion(Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 0))
    with pytest.raises(WeightTypeMismatchError):
        build(2, [(1, 2)], {(1, 2): w}, WeightType.COMPLEX)
    with pytest.raises(WeightTypeMismatchError):
        build(2, [(1, 2)], {(1, 2): DualQuaternion(Quaternion(1, 0, 0, 0),
                                                   Quaternion(1, 0, 0, 0))},
              WeightType.REAL)


def test_build_requires_all_weights(rng):
    with pytest.raises(ValueError, match="missing"):
        build(3, [(1, 2), (2, 3)], {(1, 2): random_udq(rng)},
              WeightType.UNIT_DUAL_QUATERNION)


def test_build_names_the_first_bad_arc_in_arc_order():
    two = DualQuaternion.from_real(2.0)
    with pytest.raises(NonUnitWeightError, match=r"^arc \(1, 2\): weight fails unit"):
        build(3, [(3, 1), (1, 2)], {(3, 1): two, (1, 2): two},
              WeightType.UNIT_DUAL_QUATERNION)
    # Per arc the checks keep their order: appreciability before the embedding.
    j = DualQuaternion(Quaternion(0, 0, 1, 0), Q0)
    zero_j = DualQuaternion(Q0, Quaternion(0, 0, 1, 0))
    with pytest.raises(NonAppreciableWeightError, match=r"^arc \(1, 3\): weight has no"):
        build(3, [(2, 1), (1, 3)], {(2, 1): j, (1, 3): zero_j}, WeightType.COMPLEX)


# ---------------------------------------------------------------------------
# the weight array
# ---------------------------------------------------------------------------

def test_weight_array_and_arc_ends_are_read_only(rng):
    g = gen_random_balanced(6, 0.3, WeightType.DUAL_QUATERNION, rng)
    assert g.weight_array.shape == (len(g.arcs), 8)
    assert [(t + 1, h + 1) for t, h in zip(g.graph.tails, g.graph.heads)] == list(g.arcs)
    for array in (g.weight_array, g.graph.tails, g.graph.heads):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("wt", list(WeightType))
def test_weights_view_equals_the_built_mapping_bit_for_bit(rng, wt):
    arcs = [(3, 2), (1, 2), (3, 1), (2, 3), (4, 1)]
    weights = {a: random_weight(wt, rng) for a in arcs}
    g = build(4, arcs, weights, wt)
    assert dict(g.weights) == weights
    for a in arcs:
        assert g.weights[a].to_array().tobytes() == weights[a].to_array().tobytes()
    rows = np.array([weights[a].to_array() for a in sorted(arcs)])
    assert g.weight_array.tobytes() == rows.tobytes()
    # The same weights as an array aligned with the arcs as listed.
    listed = np.array([weights[a].to_array() for a in arcs])
    assert build(4, arcs, listed, wt).weight_array.tobytes() == rows.tobytes()
    assert listed.flags.writeable
    with pytest.raises(TypeError):
        g.weights[(1, 2)] = weights[(1, 2)]
    for absent in [(2, 1), (1, 4), (4, 5), (0, 1), (1, 1)]:
        assert absent not in g.weights
        with pytest.raises(ArcNotFoundError):
            g.weight(*absent)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def test_spanning_forest_order():
    # Roots ascend and each vertex takes its arcs in (tail, head) order: 3 is
    # queued before 4, so 2 is reached along (3, 2), not along (2, 4).
    g = Digraph(6, ((4, 1), (1, 3), (2, 4), (3, 2), (6, 5)))
    parent_arc, depth = spanning_forest(g)
    assert [g.arcs[k] if k >= 0 else None for k in parent_arc] == [
        None, (3, 2), (1, 3), (4, 1), None, (6, 5)]
    assert depth.tolist() == [0, 2, 1, 1, 0, 1]


def test_weak_connectivity(rng):
    assert is_weakly_connected(make_tree(*unit_pair(rng)).graph)
    assert not is_weakly_connected(Digraph(4, ((1, 2), (3, 4))))
    assert is_weakly_connected(Digraph(1, ()))


def test_directed_spanning_tree(rng):
    assert has_directed_spanning_tree(make_tree(*unit_pair(rng)).graph)
    assert has_directed_spanning_tree(Digraph(3, ((1, 3), (2, 1), (3, 2))))
    # one source feeding two sinks: neither sink reaches the other
    assert not has_directed_spanning_tree(Digraph(3, ((1, 2), (1, 3))))


def test_mother_vertex_is_the_last_search_start():
    # Every vertex reaches 4 and 4 alone is reached by all: the searches of the
    # reversed graph start at 1, 2, 3 and 4 in turn, and 4 is the last.
    g = Digraph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))
    assert mother_vertex(g) == 4
    assert has_directed_spanning_tree(g)
    assert mother_vertex(Digraph(3, ((1, 3), (2, 3)))) == 3


def test_graph_without_a_mother_vertex():
    # Two sinks, 2 and 3: neither reaches the other.
    g = Digraph(3, ((1, 2), (1, 3)))
    assert mother_vertex(g) is None
    assert not has_directed_spanning_tree(g)


def test_directed_spanning_tree_agrees_with_zero_eigenvalue():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j and rng.random() < 0.3]
        g = Digraph(n, tuple(arcs))
        L = unweighted_laplacian(g)
        eigs = np.linalg.eigvals(L)
        scale = max(1.0, np.abs(eigs).max())
        simple_zero = int(np.sum(np.abs(eigs) <= 1e-7 * scale)) == 1
        assert np.linalg.norm(L @ np.ones(n)) < 1e-12
        assert has_directed_spanning_tree(g) == simple_zero


def condensation_has_one_sink(g):
    """Reference: the condensation of the digraph has exactly one sink component."""
    digraph = nx.DiGraph(g.arcs)
    digraph.add_nodes_from(range(1, g.n + 1))
    cond = nx.condensation(digraph)
    return sum(1 for c in cond.nodes if cond.out_degree(c) == 0) == 1


def test_directed_spanning_tree_agrees_with_the_condensation():
    rng = np.random.default_rng(43)
    found = set()
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        p = rng.uniform(0.0, 0.5)
        g = Digraph(n, tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                             if i != j and rng.random() < p))
        found.add(has_directed_spanning_tree(g))
        assert has_directed_spanning_tree(g) == condensation_has_one_sink(g), g.arcs
    assert found == {True, False}


# ---------------------------------------------------------------------------
# degrees and Laplacians
# ---------------------------------------------------------------------------

def test_laplacian_tree_fixture(rng):
    w21, w31 = unit_pair(rng)
    L = laplacian(make_tree(w21, w31))
    expected = np.zeros((3, 3, 8))
    expected[1, 1, 0] = expected[2, 2, 0] = 1.0
    expected[1, 0] = -w21.to_array()
    expected[2, 0] = -w31.to_array()
    assert np.array_equal(L, expected)


def test_laplacian_cycle_fixture(rng):
    w13, w21, w32 = random_udq(rng), random_udq(rng), random_udq(rng)
    L = laplacian(make_cycle3(w13, w21, w32))
    expected = np.zeros((3, 3, 8))
    expected[0, 0, 0] = expected[1, 1, 0] = expected[2, 2, 0] = 1.0
    expected[0, 2] = -w13.to_array()
    expected[1, 0] = -w21.to_array()
    expected[2, 1] = -w32.to_array()
    assert np.array_equal(L, expected)


@pytest.mark.parametrize("wt", list(WeightType))
def test_laplacians_match_per_vertex_out_degree(rng, wt):
    from dqbalance.generate import gen_random_balanced
    g = gen_random_balanced(9, 0.3, wt, rng)
    L, M = laplacian(g), weighted_magnitude_laplacian(g)
    degree = np.zeros(g.n)          # out-degree: sum of |standard part| over leaving arcs
    for (i, _), w in g.weights.items():
        degree[i - 1] += w.s.norm()
    for i in range(1, g.n + 1):
        assert L[i - 1, i - 1, 0] == M[i - 1, i - 1] == pytest.approx(degree[i - 1], rel=1e-12)
    off = ~np.eye(g.n, dtype=bool)
    expected_L, expected_M = np.zeros((g.n, g.n, 8)), np.zeros((g.n, g.n))
    for (i, j), w in g.weights.items():
        expected_L[i - 1, j - 1] = -w.to_array()
        expected_M[i - 1, j - 1] = -w.s.norm()
    assert np.array_equal(L[off], expected_L[off])
    assert np.array_equal(np.diagonal(L)[1:], np.zeros((7, g.n)))
    assert np.array_equal(M[off], expected_M[off])


def test_laplacian_identity_weights_row_sums():
    g = make_cycle3(ONE, ONE, ONE)
    L = laplacian(g)
    assert np.allclose(L.sum(axis=1), 0.0)


def test_unweighted_laplacians(rng):
    cyc = Digraph(3, ((1, 3), (2, 1), (3, 2)))
    assert np.array_equal(unweighted_laplacian(cyc),
                          [[1, 0, -1], [-1, 1, 0], [0, -1, 1]])
    tree = Digraph(3, ((2, 1), (3, 1)))
    assert np.array_equal(unweighted_laplacian(tree),
                          [[0, 0, 0], [-1, 1, 0], [-1, 0, 1]])
    # row sums vanish for every digraph
    arcs = [(i, j) for i in range(1, 7) for j in range(1, 7)
            if i != j and rng.random() < 0.4]
    L = unweighted_laplacian(Digraph(6, tuple(arcs)))
    assert np.allclose(L.sum(axis=1), 0.0)


def test_magnitude_laplacian_matches_unweighted_for_units(rng):
    g = make_cycle3(random_udq(rng), random_udq(rng), random_udq(rng))
    assert np.allclose(weighted_magnitude_laplacian(g),
                       unweighted_laplacian(g.graph), atol=1e-12)


# ---------------------------------------------------------------------------
# cycle enumeration
# ---------------------------------------------------------------------------

def test_enumerate_cycles_three_cycle(rng):
    g = make_cycle3(random_udq(rng), random_udq(rng), random_udq(rng))
    enum = enumerate_cycles(g.graph)
    assert not enum.truncated
    assert len(enum.cycles) == 1
    cyc = enum.cycles[0]
    assert cycles_equivalent(cyc.vertices, (1, 3, 2))
    # every step follows an arc of the graph in its flagged direction
    arcset = set(g.arcs)
    for arc in cyc.arcs():
        assert arc in arcset


def test_enumerate_cycles_tree_empty(rng):
    g = make_tree(*unit_pair(rng))
    assert enumerate_cycles(g.graph).cycles == ()


def test_enumerate_cycles_antiparallel_pair():
    enum = enumerate_cycles(Digraph(2, ((1, 2), (2, 1))))
    assert len(enum.cycles) == 1
    cyc = enum.cycles[0]
    assert cyc.vertices == (1, 2)
    assert cyc.forward == (True, True)


def test_enumerate_cycles_truncation():
    # complete digraph on 5 vertices has far more than 3 simple cycles
    arcs = tuple((i, j) for i in range(1, 6) for j in range(1, 6) if i != j)
    enum = enumerate_cycles(Digraph(5, arcs), max_cycles=3)
    assert enum.truncated
    assert len(enum.cycles) == 3


def test_enumerate_cycles_triangle_with_antiparallel_pair():
    # one 2-cycle from the pair, one triangle (arc choice on the shared step
    # does not multiply the count)
    g = Digraph(3, ((1, 2), (2, 1), (2, 3), (3, 1)))
    enum = enumerate_cycles(g)
    assert [c.vertices for c in enum.cycles] == [(1, 2), (1, 2, 3)]
    assert all(all(c.forward) for c in enum.cycles)


def test_enumerate_cycles_counts_mixed_orientations():
    # square traversable only with one backward step
    g = Digraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    enum = enumerate_cycles(g)
    assert len(enum.cycles) == 1
    assert sorted(enum.cycles[0].vertices) == [1, 2, 3, 4]
    assert sum(1 for f in enum.cycles[0].forward if not f) == 1


@pytest.mark.parametrize("max_cycles", [-1, -2, 2.5, True, None, "3"])
def test_enumerate_cycles_rejects_a_bad_max_cycles(max_cycles):
    with pytest.raises(ValueError, match="max_cycles"):
        enumerate_cycles(gen_tree(5, WeightType.REAL, 1).graph, max_cycles)


def test_enumerate_cycles_at_the_ends_of_max_cycles():
    # Zero cycles allowed: truncated exactly when there is a cycle to drop.
    tree = gen_tree(5, WeightType.REAL, 1).graph
    assert enumerate_cycles(tree, 0) == CycleEnumeration((), False)
    enum = enumerate_cycles(Digraph(2, ((1, 2), (2, 1))), np.int64(0))
    assert enum.truncated and len(enum.cycles) == 0
    # A bound beyond any count of cycles, even past sys.maxsize, truncates nothing.
    enum = enumerate_cycles(Digraph(2, ((1, 2), (2, 1))), 2 ** 64)
    assert not enum.truncated and len(enum.cycles) == 1


def test_cycle_view_sequence_contract():
    # The complete graph on five vertices, with two antiparallel pairs.
    arcs = tuple((i, j) for i in range(1, 6) for j in range(i + 1, 6)) + ((2, 1), (5, 3))
    cycles = enumerate_cycles(Digraph(5, arcs)).cycles
    items = tuple(cycles)
    reference, _ = reference_enumeration(Digraph(5, arcs))
    assert cycles == items == reference and len(cycles) == len(items) > 10
    assert cycles[-1] == items[-1] and cycles[-len(items)] == items[0]
    assert cycles[np.int64(3)] == items[3]
    with pytest.raises(IndexError):
        cycles[len(items)]
    with pytest.raises(TypeError):
        cycles[1.0]
    for key in (slice(2, 7), slice(None, None, -3), slice(5, 2), slice(-4, None)):
        part = cycles[key]
        assert isinstance(part, CycleView) and part == items[key]
        assert np.array_equal(part.starts, np.cumsum(part.lengths) - part.lengths)
    assert list(iter(cycles)) == list(items) and cycles.index(items[4]) == 4
    assert hash(cycles) == hash(items) and cycles == CycleView.of(list(items))
    assert cycles != list(items) and cycles != items[1:]


def test_cycle_view_arrays_are_read_only():
    enum = enumerate_cycles(Digraph(4, ((1, 2), (2, 1), (2, 3), (3, 4), (4, 1), (1, 3))))
    view = enum.cycles
    for a in (view.vertices, view.forward, view.lengths, view.starts):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]
    assert view.vertices.dtype == np.intp and view.forward.dtype == bool
    assert int(view.lengths.sum()) == len(view.vertices) == len(view.forward)


def test_cycle_view_items_are_plain_python():
    g = gen_random_balanced(6, 0.4, WeightType.UNIT_DUAL_QUATERNION, 4)
    enum = enumerate_cycles(g.graph)
    reference, _ = reference_enumeration(g.graph)
    assert any(not all(c.forward) for c in reference)
    for cycle, ref in zip(enum.cycles, reference, strict=True):
        assert all(type(v) is int for v in cycle.vertices)
        assert all(type(f) is bool for f in cycle.forward)
        assert cycle_to_obj(cycle) == cycle_to_obj(ref)
        assert json.dumps(cycle_to_obj(cycle)) == json.dumps(cycle_to_obj(ref))


@pytest.mark.parametrize("wt", list(WeightType))
def test_cycle_arc_is_the_first_arc_of_the_first_cycle(wt):
    # `cycle_arc` names the arc that a perturbation redraws: it must not move.
    for seed in range(12):
        g = gen_random_balanced(3 + seed % 9, 0.15, wt, seed)
        reference, _ = reference_enumeration(g.graph, 8)
        assert cycle_arc(g) == (reference[0].arcs()[0] if reference else None)


@st.composite
def digraph_unions(draw):
    """Unions of random digraphs, oriented forests (some tree arcs with their
    reverse) and isolated vertices, on interleaved vertex numbers.  A part
    after the first may share one vertex with the parts before it, which
    makes that vertex a cut vertex between blocks."""
    arcs, n = [], 0
    for kind in draw(st.lists(st.sampled_from(["random", "forest", "isolated"]),
                              min_size=1, max_size=4)):
        size = draw(st.integers(1, 6))
        ids = list(range(n, n + size))
        if n and kind != "isolated" and draw(st.booleans()):
            ids = [draw(st.integers(0, n - 1))] + ids[:-1]
        if kind == "random":
            density = draw(st.floats(0.0, 1.0))
            keep = draw(st.lists(st.floats(0.0, 1.0).map(lambda u: u < density),
                                 min_size=size * (size - 1), max_size=size * (size - 1)))
            pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
            arcs += [(ids[i], ids[j]) for (i, j), k in zip(pairs, keep) if k]
        elif kind == "forest":
            for v in range(1, size):
                p = draw(st.integers(0, v - 1))
                ends = [(ids[p], ids[v]), (ids[v], ids[p])]
                arcs += ends if draw(st.booleans()) else ends[draw(st.integers(0, 1)):][:1]
        n = max(n, ids[-1] + 1)
    label = draw(st.permutations(range(1, n + 1)))
    return Digraph(n, tuple((label[i], label[j]) for i, j in arcs))


@settings(max_examples=300, deadline=None, database=None)
@given(g=digraph_unions(), max_cycles=st.none() | st.integers(0, 40))
def test_enumerate_cycles_matches_the_networkx_reference(g, max_cycles):
    # Untruncated, the cycles equal the reference's; truncated, they are its
    # first `max_cycles`, the smallest in canonical order.
    reference, _ = reference_enumeration(g)
    enum = enumerate_cycles(g) if max_cycles is None else enumerate_cycles(g, max_cycles)
    k = len(reference) if max_cycles is None else max_cycles
    assert enum.truncated == (len(reference) > k)
    assert enum.cycles == reference[:k]


def load_workloads():
    """The benchmark's workload module, loaded by path: it is not part of the package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_enumerate_cycles_matches_the_reference_on_the_desk_documents():
    workloads = load_workloads()
    for seed in (1, 2, 3):
        for instance in workloads.desk_instances(seed, workloads.DESK_SIZES):
            g = loads_graph(instance.doc).graph
            enum = enumerate_cycles(g)
            assert not enum.truncated and enum.cycles == reference_enumeration(g)[0]


def test_enumerate_cycles_on_a_directed_2000_cycle():
    n = 2000
    g = Digraph(n, tuple((i, i % n + 1) for i in range(1, n + 1)))
    enum = enumerate_cycles(g)
    assert not enum.truncated and enum.cycles == reference_enumeration(g)[0]
    assert enum.cycles[0] == OrientedCycle(tuple(range(1, n + 1)), (True,) * n)



def diamond_chain(d):
    """Hubs 3i + 1 joined to the next hub 3i + 4 through 3i + 2 and through
    3i + 3: d four-cycles in a row, with 2^d paths from the first hub to the
    last."""
    return Digraph(3 * d + 1, tuple(arc for h in range(1, 3 * d, 3)
                                    for arc in ((h, h + 1), (h + 1, h + 3),
                                                (h, h + 2), (h + 2, h + 3))))


def test_enumerate_cycles_keeps_each_path_in_its_block():
    # Each diamond is a block of its own, so no path crosses a hub: the 40
    # four-cycles come out at once, where one search over the whole chain
    # would extend 2^40 paths.
    tracemalloc.start()
    try:
        enum = enumerate_cycles(diamond_chain(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not enum.truncated
    assert enum.cycles == tuple(OrientedCycle((h, h + 1, h + 3, h + 2), (True, True, False, False))
                                for h in range(1, 120, 3))
    assert peak < 2 ** 20


def test_enumerate_cycles_sizes_its_masks_to_the_blocks():
    # 10^4 disjoint triangles: a mask over every vertex would be 157 words
    # per path, 12.5 MB for the starts alone; a mask over the block is one.
    t = 10 ** 4
    g = Digraph(3 * t, tuple(arc for a in range(1, 3 * t, 3)
                             for arc in ((a, a + 1), (a + 1, a + 2), (a + 2, a))))
    tracemalloc.start()
    try:
        enum = enumerate_cycles(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not enum.truncated
    assert enum.cycles == tuple(OrientedCycle((a, a + 1, a + 2), (True, True, True))
                                for a in range(1, 3 * t, 3))
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("words", [0, 40, 200, 1000, 5000])
def test_a_search_past_its_memory_budget_keeps_its_smallest_cycles(monkeypatch, chunk, words):
    # The search stops before its paths pass SEARCH_WORDS, at a chunk
    # boundary inside a level: the result is truncated and holds a prefix of
    # the canonical order.
    g = Digraph(7, tuple((i, j) for i in range(1, 8) for j in range(i + 1, 8)))
    reference, _ = reference_enumeration(g)
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    monkeypatch.setattr(graphs, "SEARCH_WORDS", words)
    enum = enumerate_cycles(g)
    assert enum.truncated and len(enum.cycles) < len(reference)
    assert enum.cycles == reference[:len(enum.cycles)]
    monkeypatch.setattr(graphs, "SEARCH_WORDS", 10 ** 6)
    assert enumerate_cycles(g) == CycleEnumeration(CycleView.of(reference), False)


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_a_search_stops_inside_the_level_that_passes_max_cycles(monkeypatch, chunk):
    # Chunks smaller than a level: the count passes max_cycles mid-level, and
    # the result is still the reference's first max_cycles cycles.
    g = Digraph(6, tuple((i, j) for i in range(1, 7) for j in range(1, 7) if i < j or j == i - 2))
    reference, _ = reference_enumeration(g)
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    for k in range(len(reference) + 2):
        enum = enumerate_cycles(g, k)
        assert enum.truncated == (k < len(reference))
        assert enum.cycles == reference[:k]


# ---------------------------------------------------------------------------
# walk weights
# ---------------------------------------------------------------------------

def test_walk_weight_ijk_cycle():
    g = make_cycle3(I, J, K)
    w = walk_weight(g, [1, 3, 2, 1])
    assert np.allclose(w.to_array(), ONE.to_array(), atol=1e-15)


def test_walk_weight_identity_weights():
    g = make_cycle3(ONE, ONE, ONE)
    assert walk_weight(g, [1, 3, 2, 1]) == ONE


def test_walk_weight_reversal_is_inverse(rng):
    g = make_cycle3(random_udq(rng), random_udq(rng), random_udq(rng))
    fwd = walk_weight(g, [1, 3, 2, 1])
    rev = walk_weight(g, [1, 2, 3, 1])
    prod = fwd * rev
    assert np.allclose(prod.to_array(), ONE.to_array(), atol=1e-12)


def test_walk_weight_backward_steps(rng):
    w = random_udq(rng)
    g = build(2, [(1, 2)], {(1, 2): w}, WeightType.UNIT_DUAL_QUATERNION)
    back = walk_weight(g, [2, 1])
    assert np.allclose(back.to_array(), w.conjugate().to_array())


def test_walk_weight_rejects_invalid(rng):
    g = make_tree(*unit_pair(rng))
    with pytest.raises(InvalidWalkError):
        walk_weight(g, [2, 3])
    with pytest.raises(InvalidWalkError):
        walk_weight(g, OrientedCycle((2, 1), (True, True)))
    # Vertices out of range name no arc either; the lookup must not index past the arcs.
    for walk in ([1, g.n + 2], [g.n + 2, 1], [0, 1], [1, -1]):
        with pytest.raises(InvalidWalkError):
            walk_weight(g, walk)
    with pytest.raises(InvalidWalkError):
        cycle_products(g, [OrientedCycle((1, g.n + 2), (True, False))])


def scalar_walk_weight(g, cycle):
    """Reference: left-to-right product of `DualQuaternion` shadow elements."""
    prod = DualQuaternion.from_real(1.0)
    for arc, fwd in zip(cycle.arcs(), cycle.forward):
        w = g.weights[arc]
        prod = prod * (w if fwd else w.conjugate() if g.weight_type.is_unit else w.inverse())
    return prod.to_array()


@pytest.mark.parametrize("wt", list(WeightType))
def test_cycle_products_match_scalar_products(rng, wt):
    for g in balanced_and_perturbed(wt, rng):
        cycles = enumerate_cycles(g.graph).cycles
        assert cycles
        products = cycle_products(g, cycles)
        for cycle, row in zip(cycles, products):
            assert np.array_equal(walk_weight(g, cycle).to_array(), row)
            ref = scalar_walk_weight(g, cycle)
            if wt.is_unit:      # conjugates: the same arithmetic
                assert np.array_equal(row, ref)
            else:               # inverses square the norm as x * x, not x ** 2
                assert np.linalg.norm(row - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
