import networkx as nx
import numpy as np
import pytest

from dqbalance.algebra import (
    DualQuaternion,
    NotUnitError,
    Quaternion,
    UnitDualQuaternion,
    random_udq,
)
from dqbalance.generate import gen_random_balanced, random_weight
from dqbalance.graphs import (
    ArcNotFoundError,
    Digraph,
    DuplicateArcError,
    InvalidWalkError,
    LoopArcError,
    NonAppreciableWeightError,
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
