from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dqbalance import balance, graphs, linalg
from dqbalance.algebra import DualQuaternion, Quaternion, random_udq, udq_from_motion
from dqbalance.balance import (
    BALANCE_TOL,
    FailureStage,
    FormationView,
    Method,
    NonInvertibleThetaError,
    NotConnectedError,
    NotUnitWeightTypeError,
    PotentialAssignment,
    Verdict,
    _null_space_pipeline,
    _row_norms,
    _tree_potential,
    build_potential,
    check_balance,
    check_symmetry_pairs,
    cycle_deviation,
    cycle_oracle,
    direct_method,
    gain_graph_method,
    is_neutral,
    relative_configuration_residual,
    similarity_residual,
    solve_dual_part,
    solve_standard_part,
    symmetrized_gain_graph,
    wdg_similarity_check,
    wdg_similarity_method,
)
from dqbalance.generate import (
    apply_switching,
    cycle_arc,
    gen_cycle,
    gen_random_balanced,
    gen_tree,
    perturb,
    random_switching,
    random_weight,
)
from dqbalance.graphs import (
    NonFiniteWeightError,
    WeightedDigraph,
    WeightType,
    build,
    enumerate_cycles,
    laplacian,
    unweighted_laplacian,
    walk_weight,
    weighted_magnitude_laplacian,
)

from conftest import (
    I,
    J,
    K,
    ONE,
    balanced_and_perturbed,
    balanced_cycle3,
    make_cycle3,
    make_tree,
    reference_defects,
    reference_enumeration,
    reference_kernels,
    reference_oracle,
)


def dq(w, x, y, z, dw=0.0, dx=0.0, dy=0.0, dz=0.0):
    return DualQuaternion(Quaternion(w, x, y, z), Quaternion(dw, dx, dy, dz))


# ---------------------------------------------------------------------------
# symmetry check
# ---------------------------------------------------------------------------

def test_symmetry_conjugate_pair_passes():
    g = build(2, [(1, 2), (2, 1)], {(1, 2): I, (2, 1): dq(0, -1, 0, 0)},
              WeightType.UNIT_DUAL_QUATERNION)
    assert check_symmetry_pairs(g) is None


def test_symmetry_violation_detected():
    g = build(2, [(1, 2), (2, 1)], {(1, 2): I, (2, 1): I},
              WeightType.UNIT_DUAL_QUATERNION)
    assert check_symmetry_pairs(g) == (1, 2)


def test_symmetry_vacuous_without_antiparallel(rng):
    g = make_tree(random_udq(rng), random_udq(rng))
    assert check_symmetry_pairs(g) is None


# ---------------------------------------------------------------------------
# direct method
# ---------------------------------------------------------------------------

def test_direct_tree_any_weights(rng):
    w21, w31 = random_udq(rng), random_udq(rng)
    report = direct_method(make_tree(w21, w31))
    assert report.verdict is Verdict.BALANCED
    assert report.err <= 1e-12
    # the null solution is [1, w21, w31]; the formation is its conjugate
    x = [f.conjugate() for f in report.formation]
    assert np.allclose(x[0].to_array(), ONE.to_array())
    assert np.allclose(x[1].to_array(), w21.to_array(), atol=1e-10)
    assert np.allclose(x[2].to_array(), w31.to_array(), atol=1e-10)
    assert relative_configuration_residual(make_tree(w21, w31), report.formation) <= 1e-8


def test_direct_cycle_balanced_construction(rng):
    g, (w13, w21, w32) = balanced_cycle3(rng)
    report = direct_method(g)
    assert report.verdict is Verdict.BALANCED
    x = [f.conjugate() for f in report.formation]
    assert np.allclose(x[1].to_array(), w21.to_array(), atol=1e-10)
    assert np.allclose(x[2].to_array(), w13.conjugate().to_array(), atol=1e-10)


def test_direct_ijk_cycle():
    report = direct_method(make_cycle3(I, J, K))
    assert report.verdict is Verdict.BALANCED


def test_direct_perturbed_cycle_fails_standard_solve(rng):
    g, _ = balanced_cycle3(rng)
    report = direct_method(perturb(g, (3, 2), rng))
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.STANDARD_SOLVE


def test_direct_dual_part_violation(rng):
    g, (w13, w21, w32) = balanced_cycle3(rng)
    # same standard part, dual part shifted by s*v (v pure) keeps the weight
    # unit but breaks the dual-stage consistency
    v = Quaternion(0.0, 0.4, -0.2, 0.1)
    w13_bad = DualQuaternion(w13.s, w13.d + w13.s * v)
    report = direct_method(g.with_weight((1, 3), w13_bad))
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.DUAL_SOLVE


def test_direct_symmetry_stage(rng):
    g = build(3, [(1, 2), (2, 1), (2, 3)],
              {(1, 2): I, (2, 1): I, (2, 3): random_udq(rng)},
              WeightType.UNIT_DUAL_QUATERNION)
    report = direct_method(g)
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.SYMMETRY_CHECK
    # the witness is the antiparallel 2-cycle and its product is far from 1
    assert cycle_deviation(g, report.witness) > 1e-6


def too_few_arcs(rng):
    """Two arcs on four vertices."""
    return build(4, [(1, 2), (3, 4)], {(1, 2): random_udq(rng), (3, 4): random_udq(rng)},
                 WeightType.UNIT_DUAL_QUATERNION)


def two_triangles(rng):
    """Two disjoint directed triangles: six arcs on six vertices."""
    arcs = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
    return build(6, arcs, {arc: random_udq(rng) for arc in arcs},
                 WeightType.UNIT_DUAL_QUATERNION)


@pytest.mark.parametrize("method", [direct_method, gain_graph_method, wdg_similarity_method,
                                    build_potential], ids=lambda f: f.__name__)
@pytest.mark.parametrize("graph", [too_few_arcs, two_triangles], ids=lambda f: f.__name__)
def test_tree_methods_require_connected(rng, monkeypatch, graph, method):
    # Fewer than n - 1 arcs is decided before the spanning forest is grown;
    # the triangles have enough arcs, and the forest's two roots decide.
    g = graph(rng)
    forests = []
    spanning_forest = balance.spanning_forest

    def recorded(*args):
        forests.append(args)
        return spanning_forest(*args)
    monkeypatch.setattr(balance, "spanning_forest", recorded)
    with pytest.raises(NotConnectedError,
                       match=f"^{method.__name__} requires a weakly connected graph$"):
        method(g)
    assert len(forests) == (graph is two_triangles)
    assert isinstance(cycle_oracle(g).verdict, Verdict)     # the oracle takes any graph


def test_direct_requires_unit_type():
    g = build(2, [(1, 2)], {(1, 2): dq(2, 0, 0, 0)}, WeightType.REAL)
    with pytest.raises(NotUnitWeightTypeError):
        direct_method(g)


def test_direct_single_vertex():
    g = build(1, [], {}, WeightType.UNIT_DUAL_QUATERNION)
    report = direct_method(g)
    assert report.verdict is Verdict.BALANCED
    assert report.err == 0.0


def test_rank_deficient_standard_part_is_indeterminate():
    # synthetic: a zero standard part leaves the null space unconstrained
    L = np.zeros((3, 3, 8))
    report = _null_space_pipeline(make_cycle3(ONE, ONE, ONE), L, Method.DIRECT)
    assert report.verdict is Verdict.INDETERMINATE
    assert report.failure_stage is FailureStage.ASSUMPTION_RANK


def two_svd_rank_rule(L):
    """Verdict for a rank-deficient reduced block from a second SVD of the whole
    standard part, its rank rounded from the adjoint's (the reference rule)."""
    s = np.linalg.svd(linalg.complex_adjoint(linalg.dq_standard(L)), compute_uv=False)
    kept = int(np.count_nonzero(s > linalg.RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    if int(round(kept / 2)) < L.shape[0] - 1:
        return Verdict.INDETERMINATE, FailureStage.ASSUMPTION_RANK
    return Verdict.UNBALANCED, FailureStage.STANDARD_SOLVE


def test_deficient_reduced_blocks_match_the_two_svd_rank_rule():
    # Sparse random unit graphs, a quarter with a directed spanning tree, a
    # quarter balanced and the rest with some arcs redrawn: multi-sink graphs
    # give deficient blocks of both kinds.
    rng = np.random.default_rng(2024)
    outcomes = []
    for trial in range(800):
        wt = (WeightType.UNIT_DUAL_QUATERNION, WeightType.UNIT_COMPLEX)[trial % 2]
        g = gen_random_balanced(int(rng.integers(3, 9)), float(rng.uniform(0.0, 0.2)), wt,
                                rng, directed_spanning_tree=trial % 4 == 0)
        if trial % 4:
            for k in rng.choice(len(g.arcs), size=int(rng.integers(1, len(g.arcs) + 1)),
                                replace=False):
                g = perturb(g, g.arcs[k], rng)
        L = laplacian(g)
        if solve_standard_part(L).reduced_full_rank:
            continue
        report = _null_space_pipeline(g, L, Method.DIRECT)
        assert (report.verdict, report.failure_stage) == two_svd_rank_rule(L), g.arcs
        outcomes.append(report.verdict)
    assert len(outcomes) >= 200
    assert Verdict.INDETERMINATE in outcomes and Verdict.UNBALANCED in outcomes


# ---------------------------------------------------------------------------
# solve stages
# ---------------------------------------------------------------------------

def test_solve_standard_identity_weights():
    g = make_cycle3(ONE, ONE, ONE)
    std = solve_standard_part(laplacian(g))
    assert std.consistent and std.unit and std.reduced_full_rank
    expected = np.zeros((3, 4))
    expected[:, 0] = 1.0
    assert np.allclose(std.x, expected, atol=1e-12)


def test_solve_standard_tree(rng):
    w21, w31 = random_udq(rng), random_udq(rng)
    std = solve_standard_part(laplacian(make_tree(w21, w31)))
    assert std.consistent and std.unit
    assert np.allclose(std.x[1], w21.s.to_array(), atol=1e-12)
    assert np.allclose(std.x[2], w31.s.to_array(), atol=1e-12)


def test_solve_dual_tree(rng):
    w21, w31 = random_udq(rng), random_udq(rng)
    L = laplacian(make_tree(w21, w31))
    std = solve_standard_part(L)
    dual = solve_dual_part(L, std.x, std.solver)
    assert dual.consistent and dual.orthogonal
    assert np.allclose(dual.x[0], 0.0)
    assert np.allclose(dual.x[1], w21.d.to_array(), atol=1e-12)
    assert np.allclose(dual.x[2], w31.d.to_array(), atol=1e-12)


def test_solve_dual_zero_dual_weights():
    g = make_cycle3(I, J, K)
    L = laplacian(g)
    std = solve_standard_part(L)
    dual = solve_dual_part(L, std.x, std.solver)
    assert dual.consistent
    assert np.allclose(dual.x, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# similarity residual
# ---------------------------------------------------------------------------

def test_similarity_identity_weights_exact_zero():
    g = make_cycle3(ONE, ONE, ONE)
    x = np.zeros((3, 8))
    x[:, 0] = 1.0
    assert similarity_residual(laplacian(g), x, unweighted_laplacian(g.graph)) == 0.0


def test_similarity_wrong_vector(rng):
    g, _ = balanced_cycle3(rng)
    x = np.array([random_udq(rng).to_array() for _ in range(3)])
    err = similarity_residual(laplacian(g), x, unweighted_laplacian(g.graph))
    assert err > 1e-8


def dense_similarity_residual(L_hat, x, L):
    """The certificate multiplied out over every n x n entry."""
    q = linalg.dqconj(x)
    outer = linalg.dqmul(linalg.dqmul(q[:, None, :], L_hat), linalg.dqconj(q)[None, :, :])
    target = np.zeros_like(outer)
    target[:, :, 0] = L
    return linalg.fr_norm(outer - target)


def dense_wdg_similarity_check(g, assignment):
    """`wdg_similarity_check` multiplied out over every n x n entry."""
    y = np.array([(assignment.theta[v].inverse() * assignment.theta[v].s.norm()).to_array()
                  for v in range(1, g.n + 1)])
    L_hat = laplacian(g)
    outer = linalg.dqmul(linalg.dqmul(linalg.dqinv(y)[:, None, :], L_hat), y[None, :, :])
    target = np.zeros_like(outer)
    target[:, :, 0] = weighted_magnitude_laplacian(g)
    return linalg.fr_norm(outer - target), linalg.fr_norm(linalg.dqmat_apply(L_hat, y))


def close(a, b):
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


@pytest.mark.parametrize("wt", list(WeightType))
def test_support_certificates_equal_dense_formula(rng, wt):
    for n, density in ((1, 0.0), (6, 0.3), (12, 0.2)):
        g = gen_random_balanced(n, density, wt, rng)
        pa = build_potential(g)
        wrong = PotentialAssignment(
            {v: DualQuaternion.from_array(rng.normal(size=8)) for v in range(1, n + 1)},
            pa.c)
        for assignment in (pa, wrong):
            err, null_residual = wdg_similarity_check(g, assignment)
            err_ref, null_ref = dense_wdg_similarity_check(g, assignment)
            assert close(err, err_ref) and close(null_residual, null_ref)
        x_good = np.array([pa.theta[v].conjugate().to_array() for v in range(1, n + 1)])
        for x in (x_good, rng.normal(size=(n, 8))):
            for L in (unweighted_laplacian(g.graph), weighted_magnitude_laplacian(g)):
                assert close(similarity_residual(laplacian(g), x, L),
                             dense_similarity_residual(laplacian(g), x, L))
        if wt.is_unit:
            assert similarity_residual(laplacian(g), x_good,
                                       unweighted_laplacian(g.graph)) <= 1e-10


def test_similarity_counts_target_entries_off_the_weighted_support(rng):
    g, _ = balanced_cycle3(rng)
    x = np.array([random_udq(rng).to_array() for _ in range(3)])
    L = rng.normal(size=(3, 3))
    assert close(similarity_residual(laplacian(g), x, L),
                 dense_similarity_residual(laplacian(g), x, L))


def test_similarity_small_cycles_err_band(rng):
    for n in (10, 20, 50):
        g = gen_cycle(n, WeightType.UNIT_DUAL_QUATERNION, rng)
        report = direct_method(g)
        assert report.err <= 1e-10


# ---------------------------------------------------------------------------
# gain graph method
# ---------------------------------------------------------------------------

def test_symmetrized_gain_graph_tree(rng):
    g = make_tree(random_udq(rng), random_udq(rng))
    g1 = symmetrized_gain_graph(g)
    assert len(g1.arcs) == 4
    assert set(g1.arcs) == {(2, 1), (1, 2), (3, 1), (1, 3)}
    w = g.weights[(2, 1)]
    assert np.allclose(g1.weights[(1, 2)].to_array(), w.conjugate().to_array())


def test_gain_laplacian_hermitian_exactly(rng):
    g, _ = balanced_cycle3(rng)
    L1 = laplacian(symmetrized_gain_graph(g))
    assert np.array_equal(L1, linalg.dqconj(L1).transpose(1, 0, 2))


def test_gain_graph_tree_balanced(rng):
    report = gain_graph_method(make_tree(random_udq(rng), random_udq(rng)))
    assert report.verdict is Verdict.BALANCED
    assert report.err <= 1e-10


def test_gain_graph_agrees_with_direct(rng):
    g = make_cycle3(I, J, K)
    assert gain_graph_method(g).verdict is Verdict.BALANCED
    gp = perturb(g, (3, 2), rng)
    assert gain_graph_method(gp).verdict is Verdict.UNBALANCED
    assert direct_method(gp).verdict is Verdict.UNBALANCED


def test_gain_graph_symmetry_stage():
    g = build(2, [(1, 2), (2, 1)], {(1, 2): I, (2, 1): I},
              WeightType.UNIT_DUAL_QUATERNION)
    report = gain_graph_method(g)
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.SYMMETRY_CHECK


def test_gain_graph_formation_satisfies_relations(rng):
    g, _ = balanced_cycle3(rng)
    report = gain_graph_method(g)
    assert relative_configuration_residual(g, report.formation) <= 1e-8


def test_methods_agree_with_stored_antiparallel_pair(rng):
    # conjugate-symmetric pair built from a formation, plus a tail vertex
    f = [random_udq(rng) for _ in range(3)]
    arcs = [(1, 2), (2, 1), (2, 3)]
    weights = {(i, j): f[i - 1].conjugate() * f[j - 1] for (i, j) in arcs}
    g = build(3, arcs, weights, WeightType.UNIT_DUAL_QUATERNION)
    for method in (direct_method, gain_graph_method, cycle_oracle, wdg_similarity_method):
        report = method(g)
        assert report.verdict is Verdict.BALANCED
        assert relative_configuration_residual(g, report.formation) <= 1e-8


def test_unit_formations_of_every_method_reproduce_the_arcs():
    # Every method reports f with w(i, j) = conj(f_i) f_j on unit graphs,
    # the potential route included.
    g = gen_random_balanced(12, 0.2, WeightType.UNIT_DUAL_QUATERNION, 4)
    for method in Method:
        report = check_balance(g, method)
        assert report.verdict is Verdict.BALANCED
        assert relative_configuration_residual(g, report.formation) <= 1e-8


@pytest.mark.parametrize("wt", [WeightType.UNIT_DUAL_QUATERNION, WeightType.UNIT_COMPLEX])
def test_every_balanced_verdict_carries_the_potential_certificate(monkeypatch, wt):
    # No method certifies against the unweighted Laplacian any more: each
    # balanced err is the potential certificate of its own formation.
    def unused(*args):
        raise AssertionError("a decide built a dense certificate")
    monkeypatch.setattr(balance, "similarity_residual", unused)
    monkeypatch.setattr(balance, "unweighted_laplacian", unused, raising=False)  # an imported copy
    monkeypatch.setattr(graphs, "unweighted_laplacian", unused)
    g = gen_random_balanced(12, 0.2, wt, 4, directed_spanning_tree=True)
    for method in Method:
        report = check_balance(g, method)
        assert report.verdict is Verdict.BALANCED
        assert report.err == wdg_similarity_check(g, report.formation)[0]


def test_gain_graph_certificate_does_not_grow_with_n():
    report = gain_graph_method(gen_cycle(200, WeightType.UNIT_DUAL_QUATERNION, 0))
    assert report.verdict is Verdict.BALANCED
    assert report.err < 1e-11


# ---------------------------------------------------------------------------
# the potential seed of direct and gain_graph
# ---------------------------------------------------------------------------

UNIT_TYPES = [WeightType.UNIT_DUAL_QUATERNION, WeightType.UNIT_COMPLEX]


@pytest.fixture
def no_staged_solve(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("a decide built the dense Laplacian or factored it")
    monkeypatch.setattr(linalg.QuatLeastSquares, "__init__", unused)
    monkeypatch.setattr(balance, "laplacian", unused)


@pytest.mark.parametrize("wt", UNIT_TYPES)
def test_balanced_decides_take_the_potential_without_a_solve(no_staged_solve, wt):
    for seed in range(5):
        g = gen_random_balanced(12, 0.15, wt, seed, directed_spanning_tree=True)
        for method in (direct_method, gain_graph_method):
            assert method(g).verdict is Verdict.BALANCED


def test_balanced_graph_without_a_directed_spanning_tree_needs_no_solve(no_staged_solve):
    # Two sinks, 2 and 4, and one undirected cycle 1-2-3-4.
    g = far_formation_graph(4, [(1, 2), (3, 2), (1, 4), (3, 4)], 1.0, 0)
    assert not graphs.has_directed_spanning_tree(g.graph)
    report = direct_method(g)
    assert (report.verdict, report.failure_stage) == (Verdict.INDETERMINATE,
                                                      FailureStage.ASSUMPTION_RANK)
    assert gain_graph_method(g).verdict is Verdict.BALANCED


def test_ten_thousand_cycle_is_decided_without_a_solve(no_staged_solve):
    # The complex adjoint of its Laplacian alone would take about 6.4 GB.
    g = gen_cycle(10 ** 4, WeightType.UNIT_DUAL_QUATERNION, 0)
    for method in (direct_method, gain_graph_method):
        report = method(g)
        assert report.verdict is Verdict.BALANCED
        assert report.err < 1e-10



def test_balanced_decides_build_no_scalar_objects(monkeypatch):
    # The formation stays an (n, 8) array: no `Quaternion` is built on the way.
    g = gen_cycle(2000, WeightType.UNIT_DUAL_QUATERNION, 0)

    def unused(self):
        raise AssertionError("a decide built a Quaternion")
    monkeypatch.setattr(Quaternion, "__post_init__", unused)
    for method in (direct_method, gain_graph_method, wdg_similarity_method):
        report = method(g)
        assert report.verdict is Verdict.BALANCED
        assert np.asarray(report.formation).shape == (2000, 8)


def test_formation_view_contract(rng):
    g = gen_random_balanced(6, 0.3, WeightType.UNIT_DUAL_QUATERNION, rng)
    report = direct_method(g)
    f = report.formation
    array = np.asarray(f)
    assert len(f) == 6 and array.shape == (6, 8)
    assert np.asarray(f) is array and not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0] = 2.0
    items = list(f)
    assert all(type(x) is DualQuaternion for x in items)
    assert [x.to_array().tolist() for x in items] == array.tolist()
    assert f[-1] == items[-1] and f[0] == items[0]
    with pytest.raises(IndexError):
        f[6]
    again = direct_method(g)
    assert again == report and hash(again) == hash(report)
    assert again.formation is not f and again.formation == f
    assert f != FormationView(array * 2.0)


def nudged(g, arc, size, rng):
    """``g`` with the weight of ``arc`` times a unit weight at distance ~``size`` from 1."""
    axis = (1.0, 0.0, 0.0) if g.weight_type is WeightType.UNIT_COMPLEX else rng.normal(size=3)
    axis = size * np.asarray(axis) / np.linalg.norm(axis)
    turn = DualQuaternion.from_quaternion(Quaternion(np.sqrt(1.0 - size ** 2), *axis))
    if g.weight_type is WeightType.UNIT_DUAL_QUATERNION and rng.random() < 0.5:
        turn = udq_from_motion(Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(0.0, *2.0 * axis))
    return g.with_weight(arc, g.weight(*arc) * turn)


def test_seed_route_matches_the_staged_pipeline():
    # The seed decides balanced graphs by structure (a directed spanning tree
    # for `direct`); the staged solves decide by numerical rank.  Every
    # disagreement fails the test.  Unbalanced graphs run the pipeline, and
    # each unbalanced verdict past the symmetry check carries the cycle that
    # the potential's bad arc closes.
    rng = np.random.default_rng(2026)
    seen = Counter()
    for trial in range(600):
        wt = UNIT_TYPES[trial % 2]
        g = gen_random_balanced(int(rng.integers(3, 10)), float(rng.uniform(0.0, 0.3)), wt,
                                rng, directed_spanning_tree=trial % 3 == 0)
        arc = g.arcs[int(rng.integers(len(g.arcs)))]
        if trial % 4 == 1:
            g = perturb(g, arc, rng)
        elif trial % 4 == 2:
            g = nudged(g, arc, 10.0 ** rng.uniform(-6.0, -2.0), rng)
        tp = _tree_potential(g)
        for method, laplacian_of in ((direct_method, laplacian),
                                     (gain_graph_method,
                                      lambda g: laplacian(symmetrized_gain_graph(g)))):
            report = method(g)
            if report.failure_stage is FailureStage.SYMMETRY_CHECK:
                seen["symmetry"] += 1
                continue
            reference = _null_space_pipeline(g, laplacian_of(g), report.method)
            assert (report.verdict, report.failure_stage) == (
                reference.verdict, reference.failure_stage), (method.__name__, g.arcs)
            if tp.bad is not None:
                assert reference.verdict is not Verdict.BALANCED, (method.__name__, g.arcs)
            if report.verdict is Verdict.UNBALANCED:
                assert cycle_deviation(g, report.witness) > BALANCE_TOL
            seen[report.method.value, report.verdict.value,
                 graphs.has_directed_spanning_tree(g.graph)] += 1
    for method in ("direct", "gain_graph"):
        assert seen[method, "balanced", True] >= 100
        assert seen[method, "unbalanced", True] >= 50
    assert seen["direct", "indeterminate", False] >= 50
    assert seen["gain_graph", "balanced", False] >= 50
    assert seen["gain_graph", "unbalanced", False] >= 10


def test_switched_frame_matches_the_dense_pipeline(monkeypatch):
    # Every decide that reaches the staged solves against the staged solves on
    # the unswitched dense Laplacian: perturbed and nudged cycles up to
    # n = 40 and random graphs with n = 3-11, both unit types, both methods.
    routes = []
    switched_solves = balance._switched_solves

    def recorded(*args):
        out = switched_solves(*args)
        routes.append("switched" if out is not None else "dense")
        return out
    monkeypatch.setattr(balance, "_switched_solves", recorded)
    rng = np.random.default_rng(31)
    cases = []
    for n in (3, 4, 5, 8, 13, 21, 40):
        for wt in UNIT_TYPES:
            g = gen_cycle(n, wt, rng)
            cases += [perturb(g, cycle_arc(g), rng),
                      nudged(g, cycle_arc(g), 10.0 ** rng.uniform(-6.0, -2.0), rng)]
    for trial in range(800):
        g = gen_random_balanced(int(rng.integers(3, 12)), float(rng.uniform(0.0, 0.3)),
                                UNIT_TYPES[trial % 2], rng, directed_spanning_tree=trial % 3 == 0)
        for k in rng.choice(len(g.arcs), size=min(1 + trial % 3, len(g.arcs)), replace=False):
            g = (perturb(g, g.arcs[k], rng) if trial % 2
                 else nudged(g, g.arcs[k], 10.0 ** rng.uniform(-6.0, -2.0), rng))
        cases.append(g)
    seen = Counter()
    for g in cases:
        if _tree_potential(g).bad is None or check_symmetry_pairs(g) is not None:
            continue
        for method, solved in ((direct_method, g), (gain_graph_method, symmetrized_gain_graph(g))):
            report = method(g)
            reference = _null_space_pipeline(g, laplacian(solved), report.method)
            assert (report.verdict, report.failure_stage) == (
                reference.verdict, reference.failure_stage), (method.__name__, g.arcs)
            seen[routes[-1], reference.failure_stage] += 1
    assert sum(seen[route, stage] for route, stage in seen if route == "dense") >= 1, seen
    for stage in (FailureStage.STANDARD_SOLVE, FailureStage.UNIT_CHECK, FailureStage.DUAL_SOLVE,
                  FailureStage.SIMILARITY_CHECK):
        assert seen["switched", stage] >= 20, seen
    assert sum(seen[route, stage] for route, stage in seen if route == "switched") >= 500, seen


@pytest.mark.parametrize("wt", UNIT_TYPES)
def test_a_deficient_capacitance_matrix_takes_the_dense_pipeline(monkeypatch, wt):
    # A zero capacitance matrix is rank-deficient: `_switched_solves` gives up
    # after factoring it, and the decide must be the dense pipeline's.
    capacitances, routes = [], []
    switched_solves = balance._switched_solves

    def zero(S, H):
        capacitances.append(len(S))
        return np.zeros((len(S), len(S), 4))

    def recorded(*args):
        out = switched_solves(*args)
        routes.append(out)
        return out
    monkeypatch.setattr(balance, "_capacitance", zero)
    monkeypatch.setattr(balance, "_switched_solves", recorded)
    rng = np.random.default_rng(34)
    for n in (4, 5, 8, 13, 40):
        g = gen_cycle(n, wt, rng)
        g = perturb(g, cycle_arc(g), rng)
        tp = _tree_potential(g)
        for method, solved in ((direct_method, g), (gain_graph_method, symmetrized_gain_graph(g))):
            capacitances.clear()
            report = method(g)
            assert capacitances and routes[-1] is None, (method.__name__, n)
            reference = _null_space_pipeline(g, laplacian(solved), report.method)
            assert reference.verdict is Verdict.UNBALANCED
            assert (report.verdict, report.failure_stage) == (
                reference.verdict, reference.failure_stage), (method.__name__, n)
            assert report.witness == balance._closing_cycle(g, *tp.forest, tp.bad)


@pytest.fixture
def no_dense_solve(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("a decide built the dense Laplacian or ran its staged solve")
    monkeypatch.setattr(balance, "solve_standard_part", unused)
    monkeypatch.setattr(balance, "laplacian", unused)


@pytest.mark.parametrize("wt", UNIT_TYPES)
def test_perturbed_two_thousand_cycle_is_decided_in_the_switched_frame(no_dense_solve,
                                                                       monkeypatch, wt):
    # The dense route would factor a 4000 x 3998 complex adjoint.  The
    # switched frame factors only its two capacitance matrices, each once:
    # |K| is the closing arc, and on the symmetrization its reverse too.
    shapes = []
    init = linalg.QuatLeastSquares.__init__

    def counted(self, A):
        shapes.append(np.shape(A))
        init(self, A)
    monkeypatch.setattr(linalg.QuatLeastSquares, "__init__", counted)
    g = gen_cycle(2000, wt, 0)
    g = perturb(g, cycle_arc(g), 1)
    for method, k in ((direct_method, 1), (gain_graph_method, 2)):
        shapes.clear()
        report = method(g)
        assert (report.verdict, report.failure_stage) == (Verdict.UNBALANCED,
                                                          FailureStage.STANDARD_SOLVE)
        assert cycle_deviation(g, report.witness) > BALANCE_TOL
        assert shapes == [(k, k, 4)] * 2


def test_a_bad_arc_excludes_a_balanced_verdict():
    # The 36th graph of a stream of random graphs with one arc nudged by
    # 10^U(-9, -7): the staged solution passes the potential certificate, yet
    # the tree potential fails on an arc whose closing cycle is not neutral.
    rng = np.random.default_rng(5)
    for trial in range(36):
        g = gen_random_balanced(int(rng.integers(3, 10)), float(rng.uniform(0.0, 0.3)),
                                UNIT_TYPES[trial % 2], rng, directed_spanning_tree=True)
        g = nudged(g, g.arcs[int(rng.integers(len(g.arcs)))], 10.0 ** rng.uniform(-9.0, -7.0),
                   rng)
    assert _tree_potential(g).bad is not None
    expected = wdg_similarity_method(g)
    assert expected.failure_stage is FailureStage.CYCLE_FOUND
    for method, solved in ((direct_method, g), (gain_graph_method, symmetrized_gain_graph(g))):
        report = method(g)
        assert _null_space_pipeline(g, laplacian(solved), report.method).verdict is Verdict.BALANCED
        assert (report.verdict, report.failure_stage) == (Verdict.UNBALANCED,
                                                          FailureStage.CYCLE_FOUND)
        assert report.witness == expected.witness
        assert cycle_deviation(g, report.witness) > BALANCE_TOL


def level_loop_theta(g):
    """The potentials propagated one BFS level at a time: the reference for doubling."""
    parent_arc, depth = graphs.spanning_forest(g.graph)
    child = np.flatnonzero(parent_arc >= 0)
    tree = parent_arc[child]
    forward = g.graph.heads[tree] == child
    parent = np.where(forward, g.graph.tails[tree], g.graph.heads[tree])
    steps = graphs.step_weights(g, tree, forward)
    theta = np.tile(np.eye(1, 8), (g.n, 1))
    for level in range(1, int(depth.max()) + 1):
        at = depth[child] == level
        rows = linalg.dqmul(theta[parent[at]], steps[at])
        theta[child[at]] = rows / np.linalg.norm(rows[:, :4], axis=1, keepdims=True)
    return theta


def first_bad_arc(g, theta):
    W = g.weight_array
    c = np.linalg.norm(W[:, :4], axis=1)
    predicted = linalg.dqmul(linalg.dqinv(theta[g.graph.tails]), theta[g.graph.heads]) * c[:, None]
    bad = np.flatnonzero(np.linalg.norm(W - predicted, axis=1)
                         > BALANCE_TOL * np.linalg.norm(W, axis=1))
    return int(bad[0]) if len(bad) else None


def disjoint_union(a, b):
    arcs = a.arcs + tuple((i + a.n, j + a.n) for i, j in b.arcs)
    rows = np.concatenate([a.weight_array, b.weight_array])
    return build(a.n + b.n, arcs, dict(zip(arcs, rows)), a.weight_type)


@pytest.mark.parametrize("wt", list(WeightType))
def test_pointer_doubling_matches_the_level_loop(wt):
    rng = np.random.default_rng(7)
    cases = [gen_cycle(n, wt, rng) for n in (3, 4, 17, 256, 1025, 2000)]
    cases += [gen_random_balanced(n, density, wt, rng)
              for n, density in ((2, 0.0), (30, 0.0), (60, 0.05), (200, 0.01), (500, 0.002))]
    cases += [perturb(g, g.arcs[len(g.arcs) // 2], rng) for g in cases[2:]]
    cases += [disjoint_union(gen_cycle(9, wt, rng), gen_random_balanced(40, 0.02, wt, rng))]
    bad = []
    for g in cases:
        tp = _tree_potential(g)
        reference = level_loop_theta(g)
        assert np.max(np.abs(tp.theta - reference)) <= 1e-13, (g.n, len(g.arcs))
        assert tp.bad == first_bad_arc(g, reference)
        bad.append(tp.bad)
    assert any(k is None for k in bad) and any(k is not None for k in bad)


# ---------------------------------------------------------------------------
# cycle oracle
# ---------------------------------------------------------------------------

def test_oracle_ijk_balanced():
    report = cycle_oracle(make_cycle3(I, J, K))
    assert report.verdict is Verdict.BALANCED
    assert report.err <= 1e-12
    assert relative_configuration_residual(make_cycle3(I, J, K), report.formation) <= 1e-10


def test_oracle_minus_one_complex_cycle():
    # forward products i * i * 1 = -1 along 1 -> 2 -> 3 -> 1
    g = build(3, [(1, 2), (2, 3), (3, 1)],
              {(1, 2): I, (2, 3): I, (3, 1): ONE}, WeightType.COMPLEX)
    report = cycle_oracle(g)
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.CYCLE_FOUND
    assert sorted(report.witness.vertices) == [1, 2, 3]
    assert not is_neutral(walk_weight(g, report.witness))


def test_oracle_tree_vacuous(rng):
    report = cycle_oracle(make_tree(random_udq(rng), random_udq(rng)))
    assert report.verdict is Verdict.BALANCED


def test_oracle_truncation_indeterminate(rng):
    n = 6
    arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    f = [random_udq(rng) for _ in range(n)]
    weights = {(i, j): f[i - 1].conjugate() * f[j - 1] for (i, j) in arcs}
    g = build(n, arcs, weights, WeightType.UNIT_DUAL_QUATERNION)
    report = cycle_oracle(g, max_cycles=5)
    assert report.verdict is Verdict.INDETERMINATE


@pytest.mark.parametrize("max_cycles", [-1, -2, 2.5, True])
def test_oracle_rejects_a_bad_max_cycles(max_cycles):
    # -1 once called this acyclic graph indeterminate; -2 and 2.5 raised
    # islice's message, which does not name the argument; True meant 1.
    with pytest.raises(ValueError, match="max_cycles"):
        cycle_oracle(gen_tree(5, WeightType.REAL, 1), max_cycles)


def random_digraph_graph(n, pairs, wt, seed, perturbed):
    """A balanced graph on the arcs that ``pairs`` selects among the ordered
    pairs of 1..n, with potential weights and log-normal arc scalars, and
    optionally one arc redrawn."""
    rng = np.random.default_rng(seed)
    arcs = [a for a, keep in zip(((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                                  if i != j), pairs) if keep]
    theta = np.array([random_weight(wt, rng).to_array() for _ in range(n)])
    tails, heads = np.array(arcs, dtype=np.intp).reshape(-1, 2).T - 1
    W = linalg.dqmul(graphs.inverse_weights(wt, theta[tails]), theta[heads])
    if not wt.is_unit:
        W *= np.exp(rng.normal(scale=0.3, size=len(arcs)))[:, None]
    g = build(n, arcs, W, wt)
    return perturb(g, arcs[perturbed % len(arcs)], rng) if perturbed is not None and arcs else g


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(2, 7), data=st.data(), wt=st.sampled_from(list(WeightType)),
       seed=st.integers(0, 2 ** 32 - 1), perturbed=st.none() | st.integers(0, 40),
       max_cycles=st.sampled_from([10 ** 6]) | st.integers(0, 60))
def test_array_oracle_matches_the_object_oracle(n, data, wt, seed, perturbed, max_cycles):
    # The flat-array enumeration and oracle against one `OrientedCycle` per
    # cycle: the same cycles in the same order, the same verdict and witness,
    # and bit-identical defects and residuals.
    density = data.draw(st.floats(0.0, 1.0))
    pairs = data.draw(st.lists(st.floats(0.0, 1.0).map(lambda u: u < density),
                               min_size=n * (n - 1), max_size=n * (n - 1)))
    g = random_digraph_graph(n, pairs, wt, seed, perturbed)
    # A truncated enumeration keeps the `max_cycles` smallest cycles in canonical order.
    reference, _ = reference_enumeration(g.graph)
    truncated, reference = len(reference) > max_cycles, reference[:max_cycles]
    enum = enumerate_cycles(g.graph, max_cycles)
    assert enum.truncated == truncated
    assert [(c.vertices, c.forward) for c in enum.cycles] == \
        [(c.vertices, c.forward) for c in reference]
    assert np.array_equal(balance._cycle_defects(g, enum.cycles),
                          reference_defects(g, reference))
    report, expected = cycle_oracle(g, max_cycles), reference_oracle(g, max_cycles)
    assert (report.verdict, report.failure_stage, report.witness, report.err) == \
        (expected.verdict, expected.failure_stage, expected.witness, expected.err)
    assert report == expected       # the formation too, bit for bit


def desk_graph(kind, wt, n, density, seed, perturbed):
    """A balanced cycle or random graph, with one arc on a cycle redrawn when
    ``perturbed`` (a tree stays as it is); and the stream that drew it."""
    rng = np.random.default_rng(seed)
    g = (gen_cycle(max(n, 3), wt, rng) if kind == "cycle"
         else gen_random_balanced(n, density, wt, rng))
    arc = cycle_arc(g)
    return (perturb(g, arc, rng) if perturbed and arc is not None else g), rng


desk_graphs = dict(kind=st.sampled_from(["cycle", "random"]), n=st.integers(2, 9),
                   density=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None, database=None)
@given(wt=st.sampled_from([WeightType.DUAL_QUATERNION, WeightType.COMPLEX, WeightType.REAL]),
       perturbed=st.booleans(), u=st.floats(-15.0, 150.0), s=st.floats(0.0, 2.0), **desk_graphs)
def test_positive_rescaling_keeps_the_oracle_verdict(kind, wt, n, density, seed, perturbed, u, s):
    # As `test_positive_rescaling_keeps_the_potential_verdict`: each arc times
    # its own positive real, which cannot change balance, for the oracle.
    g, rng = desk_graph(kind, wt, n, density, seed, perturbed)
    try:
        scaled = rescaled(g, 10.0 ** (u + s * rng.uniform(-1.0, 1.0, len(g.arcs))))
    except ValueError:          # a weight `build` rejects: not appreciable or not finite
        assume(False)
    assert cycle_oracle(scaled).verdict is cycle_oracle(g).verdict


@settings(max_examples=100, deadline=None, database=None)
@given(wt=st.sampled_from(list(WeightType)), perturbed=st.booleans(), **desk_graphs)
def test_switching_keeps_the_oracle_verdict(kind, wt, n, density, seed, perturbed):
    g, rng = desk_graph(kind, wt, n, density, seed, perturbed)
    switched = apply_switching(g, random_switching(g, rng))
    assert cycle_oracle(switched).verdict is cycle_oracle(g).verdict


@settings(max_examples=100, deadline=None, database=None)
@given(wt=st.sampled_from(list(WeightType)), **desk_graphs)
def test_oracle_witness_of_a_perturbed_graph_is_far_from_neutral(kind, wt, n, density, seed):
    g, _ = desk_graph(kind, wt, n, density, seed, perturbed=True)
    assume(cycle_arc(g) is not None)
    report = cycle_oracle(g)
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.CYCLE_FOUND
    assert cycle_deviation(g, report.witness) > BALANCE_TOL


def test_oracle_disconnected_graph(rng):
    g = build(4, [(1, 2), (3, 4)],
              {(1, 2): random_udq(rng), (3, 4): random_udq(rng)},
              WeightType.UNIT_DUAL_QUATERNION)
    assert cycle_oracle(g).verdict is Verdict.BALANCED


# ---------------------------------------------------------------------------
# potentials and the general route
# ---------------------------------------------------------------------------

def test_build_potential_unit_graph_matches_formation(rng):
    g, _ = balanced_cycle3(rng)
    pa = build_potential(g)
    assert pa is not None
    assert all(c == pytest.approx(1.0, abs=1e-10) for c in pa.c.values())
    report = direct_method(g)
    for v in range(1, 4):
        assert np.allclose(pa.theta[v].to_array(),
                           report.formation[v - 1].to_array(), atol=1e-8)


def test_build_potential_complex_reciprocal_example():
    one, two = ONE, dq(2, 0, 0, 0)
    ei = dq(0, 1, 0, 0)
    g = build(3, [(1, 2), (2, 1), (1, 3), (2, 3)],
              {(1, 2): one, (2, 1): two, (1, 3): ei, (2, 3): ei},
              WeightType.COMPLEX)
    pa = build_potential(g)
    assert pa is not None
    assert np.allclose(pa.theta[1].to_array(), ONE.to_array())
    assert np.allclose(pa.theta[2].to_array(), ONE.to_array())
    assert np.allclose(pa.theta[3].to_array(), ei.to_array())
    assert pa.c[(2, 1)] == pytest.approx(2.0)
    assert pa.c[(1, 2)] == pytest.approx(1.0)
    assert pa.c[(1, 3)] == pytest.approx(1.0)
    assert pa.c[(2, 3)] == pytest.approx(1.0)
    err, null_residual = wdg_similarity_check(g, pa)
    assert err <= 1e-10 and null_residual <= 1e-10


def test_build_potential_fails_on_negative_cycle():
    g = build(3, [(1, 2), (2, 3), (3, 1)],
              {(1, 2): I, (2, 3): I, (3, 1): ONE}, WeightType.COMPLEX)
    assert build_potential(g) is None


def test_wdg_similarity_unit_graph(rng):
    g, _ = balanced_cycle3(rng)
    pa = build_potential(g)
    err, null_residual = wdg_similarity_check(g, pa)
    assert err <= 1e-10 and null_residual <= 1e-10


def test_wdg_similarity_random_balanced(rng):
    for wt in (WeightType.DUAL_QUATERNION, WeightType.COMPLEX, WeightType.REAL):
        g = gen_random_balanced(7, 0.2, wt, rng)
        pa = build_potential(g)
        assert pa is not None
        err, null_residual = wdg_similarity_check(g, pa)
        assert err <= 1e-8 and null_residual <= 1e-8


def test_wdg_eigenpairs_transfer(rng):
    from dqbalance.graphs import weighted_magnitude_laplacian
    g = gen_random_balanced(6, 0.25, WeightType.DUAL_QUATERNION, rng)
    pa = build_potential(g)
    y = np.array([(pa.theta[v].inverse() * pa.theta[v].s.norm()).to_array()
                  for v in range(1, g.n + 1)])
    L = weighted_magnitude_laplacian(g)
    L_hat = laplacian(g)
    lams, vecs = np.linalg.eig(L)
    for t in range(g.n):
        x = np.zeros((g.n, 8))
        x[:, 0] = vecs[:, t].real
        x[:, 1] = vecs[:, t].imag
        lam = np.zeros(8)
        lam[0], lam[1] = lams[t].real, lams[t].imag
        z = linalg.dqmul(y, x)
        lhs = linalg.dqmat_apply(L_hat, z)
        rhs = linalg.dqmul(z, lam)
        assert linalg.fr_norm(lhs - rhs) <= 1e-8


def test_wdg_method_verdicts(rng):
    g = gen_random_balanced(8, 0.15, WeightType.COMPLEX, rng)
    assert wdg_similarity_method(g).verdict is Verdict.BALANCED
    arc = cycle_arc(g)
    if arc is not None:
        gp = perturb(g, arc, rng)
        report = wdg_similarity_method(gp)
        assert report.verdict is Verdict.UNBALANCED
        assert report.witness is not None
        assert not is_neutral(walk_weight(gp, report.witness))


def test_wdg_witness_follows_the_tree_arc_of_an_antiparallel_pair():
    # The BFS tree reaches 2 by (1, 2) and 3 by (1, 3); (2, 3) is the first
    # arc off the potential.  Closing it through the tree steps 3 -> 1
    # against (1, 3), whose weight makes the cycle non-neutral; the parallel
    # arc (3, 1) would make a neutral cycle: 1 * (-i) * i = 1.
    i = DualQuaternion(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 0, 0))
    g = build(3, [(1, 2), (1, 3), (2, 3), (3, 1)],
              {(1, 2): i, (1, 3): ONE, (2, 3): ONE, (3, 1): -1.0 * i},
              WeightType.COMPLEX)
    report = wdg_similarity_method(g)
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.CYCLE_FOUND
    assert report.witness.arcs() == [(2, 3), (1, 3), (1, 2)]
    assert cycle_deviation(g, report.witness) > 0.1


def test_wdg_witness_closes_at_the_tail_of_the_bad_arc():
    # The tree reaches 3 by (1, 3) and 2 by (2, 3), so the tail 3 of the bad
    # arc (3, 2) is the parent of its head: the cycle is 3 -> 2 -> 3, each
    # vertex once.
    i = DualQuaternion(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 0, 0))
    g = build(3, [(1, 3), (2, 3), (3, 2)], {(1, 3): ONE, (2, 3): ONE, (3, 2): i},
              WeightType.COMPLEX)
    report = wdg_similarity_method(g)
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.CYCLE_FOUND
    assert report.witness.vertices == (3, 2)
    assert report.witness.arcs() == [(3, 2), (2, 3)]
    assert cycle_deviation(g, report.witness) > 0.1


def test_wdg_check_takes_the_assignment_or_its_array(rng):
    g = gen_random_balanced(6, 0.3, WeightType.DUAL_QUATERNION, rng)
    pa = build_potential(g)
    theta = np.array([pa.theta[v].to_array() for v in range(1, g.n + 1)])
    assert np.asarray(pa).tobytes() == theta.tobytes()
    assert wdg_similarity_check(g, pa) == wdg_similarity_check(g, theta)


def test_wdg_non_invertible_theta(rng):
    g = build(2, [(1, 2)], {(1, 2): dq(1, 0, 0, 0)}, WeightType.DUAL_QUATERNION)
    bad = PotentialAssignment(
        {1: DualQuaternion(Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0)),
         2: ONE},
        {(1, 2): 1.0})
    with pytest.raises(NonInvertibleThetaError):
        wdg_similarity_check(g, bad)


# ---------------------------------------------------------------------------
# invariants across methods
# ---------------------------------------------------------------------------

def test_switching_invariance(rng):
    for wt in (WeightType.UNIT_DUAL_QUATERNION, WeightType.DUAL_QUATERNION):
        g = gen_random_balanced(7, 0.2, wt, rng)
        zeta = random_switching(g, rng)
        switched = apply_switching(g, zeta)
        assert cycle_oracle(switched).verdict is Verdict.BALANCED


def test_formation_equivalence_class(rng):
    g, _ = balanced_cycle3(rng)
    report = direct_method(g)
    c = random_udq(rng)
    shifted = [c * f for f in report.formation]
    assert relative_configuration_residual(g, shifted) <= 1e-8


def test_formation_recovers_generator_class(rng):
    # weights built from a known formation f0; the recovered formation must
    # be conj(f0_1) * f0 (both are pinned to 1 at vertex 1)
    f0 = [random_udq(rng) for _ in range(4)]
    arcs = [(1, 2), (2, 3), (3, 4), (4, 1)]
    weights = {(i, j): f0[i - 1].conjugate() * f0[j - 1] for (i, j) in arcs}
    g = build(4, arcs, weights, WeightType.UNIT_DUAL_QUATERNION)
    report = direct_method(g)
    c = f0[0].conjugate()
    for k in range(4):
        assert np.allclose(report.formation[k].to_array(),
                           (c * f0[k]).to_array(), atol=1e-8)


def test_cross_method_agreement_small(rng):
    for trial in range(25):
        wt = list(WeightType)[trial % 5]
        n = int(rng.integers(3, 12))
        g = gen_random_balanced(n, 0.1, wt, rng)
        if trial % 2 == 1:
            arc = cycle_arc(g)
            if arc is not None:
                g = perturb(g, arc, rng)
        verdicts = {}
        if wt.is_unit:
            verdicts["direct"] = direct_method(g).verdict
            verdicts["gain"] = gain_graph_method(g).verdict
        verdicts["oracle"] = cycle_oracle(g).verdict
        verdicts["wdg"] = wdg_similarity_method(g).verdict
        definite = {v for v in verdicts.values() if v is not Verdict.INDETERMINATE}
        assert len(definite) == 1, (wt, n, verdicts)


def test_balanced_solution_lies_in_null_space(rng):
    # conj(formation) solves the weighted Laplacian null system
    for seed in range(5):
        g = gen_random_balanced(10, 0.1, WeightType.UNIT_DUAL_QUATERNION,
                                seed=seed, directed_spanning_tree=True)
        report = direct_method(g)
        assert report.verdict is Verdict.BALANCED
        x = np.array([f.conjugate().to_array() for f in report.formation])
        residual = linalg.fr_norm(linalg.dqmat_apply(laplacian(g), x))
        assert residual <= 1e-10 * g.n


def test_multi_sink_balanced_graph_is_indeterminate_for_direct():
    # a connected digraph whose condensation has two sinks: the standard
    # part has rank n - 2, so the direct route cannot exploit its null
    # space; the symmetrized method still decides
    g = gen_random_balanced(10, 0.1, WeightType.UNIT_DUAL_QUATERNION, seed=2)
    assert linalg.rank(linalg.dq_standard(laplacian(g))) < g.n - 1
    report = direct_method(g)
    assert report.verdict is Verdict.INDETERMINATE
    assert report.failure_stage is FailureStage.ASSUMPTION_RANK
    assert gain_graph_method(g).verdict is Verdict.BALANCED
    assert cycle_oracle(g).verdict is Verdict.BALANCED


def test_report_invariants(rng):
    g, _ = balanced_cycle3(rng)
    balanced = direct_method(g)
    assert balanced.err is not None and balanced.err <= BALANCE_TOL
    assert balanced.formation is not None
    unbalanced = direct_method(perturb(g, (3, 2), rng))
    assert unbalanced.failure_stage is not None


def test_check_balance_dispatch_and_timing(rng):
    g = make_cycle3(I, J, K)
    for method in ("direct", "gain_graph", "cycle_oracle"):
        report = check_balance(g, method)
        assert report.verdict is Verdict.BALANCED
        assert report.seconds is not None and report.seconds >= 0.0
        assert report.method is Method(method)


# ---------------------------------------------------------------------------
# scale and non-finite values
# ---------------------------------------------------------------------------

def rescaled(g, factors):
    """The graph with arc k's weight multiplied by the positive real ``factors[k]``."""
    rows = g.weight_array * np.broadcast_to(factors, (len(g.arcs),))[:, None]
    return build(g.n, g.arcs, dict(zip(g.arcs, rows)), g.weight_type)


@pytest.mark.parametrize("n, factor", [(30, 3.0), (10, 10.0), (30, 10.0), (60, 3.0),
                                       (200, 0.5), (200, 1.5), (200, 0.01), (200, 100.0),
                                       (3, 1e153)])
def test_oracle_accepts_rescaled_balanced_cycles(n, factor):
    # Cycle products reach factor ** n; neutrality is tested relative to that.
    # Potentials reach factor ** (n / 2) unless each one is normalised.
    g = rescaled(gen_cycle(n, WeightType.DUAL_QUATERNION, 1), factor)
    assert cycle_oracle(g).verdict is Verdict.BALANCED
    assert wdg_similarity_method(g).verdict is Verdict.BALANCED


@pytest.mark.parametrize("factor", [1e-4, 1e6])
def test_potential_route_accepts_rescaled_random_graphs(factor):
    # The certificate residuals grow with the weights, so the gate must too.
    g = rescaled(gen_random_balanced(100, 0.04, WeightType.DUAL_QUATERNION, 2), factor)
    report = wdg_similarity_method(g)
    assert report.verdict is Verdict.BALANCED, report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, database=None)
@example(kind="cycle", wt=WeightType.DUAL_QUATERNION, n=3, density=0.0, seed=0, u=153.5, s=0.0)
@given(kind=st.sampled_from(["cycle", "random"]),
       wt=st.sampled_from([WeightType.DUAL_QUATERNION, WeightType.COMPLEX, WeightType.REAL]),
       n=st.integers(3, 60), density=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 32 - 1),
       u=st.floats(-15.0, 160.0), s=st.floats(0.0, 2.0))
def test_positive_rescaling_keeps_the_potential_verdict(kind, wt, n, density, seed, u, s):
    # Every arc times 10^(u + s U(-1, 1)): a positive real per arc, which a
    # potential's scalars absorb, so the graph stays balanced.
    rng = np.random.default_rng(seed)
    g = gen_cycle(n, wt, rng) if kind == "cycle" else gen_random_balanced(n, density, wt, rng)
    try:
        g = rescaled(g, 10.0 ** (u + s * rng.uniform(-1.0, 1.0, len(g.arcs))))
    except ValueError:          # a weight `build` rejects: not appreciable or not finite
        assume(False)
    assert wdg_similarity_method(g).verdict is Verdict.BALANCED


@pytest.mark.parametrize("factor", [1e-9, 1e-10])
def test_tiny_unbalanced_graphs_stay_unbalanced(factor):
    # The per-arc tolerance and the gate are relative to the weights, so
    # shrinking every weight cannot hide a perturbed arc.
    g = gen_random_balanced(30, 0.1, WeightType.DUAL_QUATERNION, 3)
    g = rescaled(perturb(g, cycle_arc(g), 5), factor)
    assert wdg_similarity_method(g).verdict is Verdict.UNBALANCED


def edge_scaled(g, rng):
    """``g`` with each arc times a positive real: its standard part down to
    2e-12 (just above `APPRECIABLE_TOL`), its larger part up to 9e153 (just
    below the weights whose norm overflows), or halfway, in log scale."""
    W = g.weight_array
    s, d = np.linalg.norm(W[:, :4], axis=1), np.linalg.norm(W[:, 4:], axis=1)
    low, high = np.log10(2e-12 / s), np.log10(9e153 / np.maximum(s, d))
    t = rng.choice([0.0, 0.5, 1.0], size=len(W))
    return rescaled(g, 10.0 ** (low + t * (high - low)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["cycle", "random"])
def test_edge_scale_verdicts_hold_on_the_written_out_products(kind, seed):
    # Weights at the edges of the scales `build` accepts: the kernels and
    # the written-out products reach the same verdicts, stages and witnesses.
    g = (gen_cycle(12, WeightType.DUAL_QUATERNION, seed) if kind == "cycle"
         else gen_random_balanced(9, 0.35, WeightType.DUAL_QUATERNION, seed))
    rng = np.random.default_rng(seed)
    for balanced, h in [(True, g), (False, perturb(g, cycle_arc(g), seed))]:
        h = edge_scaled(h, rng)
        for method in (wdg_similarity_method, cycle_oracle):
            report = method(h)
            with reference_kernels():
                expected = method(h)
            assert report.verdict is (Verdict.BALANCED if balanced else Verdict.UNBALANCED)
            assert (report.verdict, report.failure_stage, report.witness) == \
                (expected.verdict, expected.failure_stage, expected.witness)


def test_row_norms_take_overflowing_rows_by_a_scaled_sum(rng):
    # The bad arc of an edge-scaled graph has a defect with components near
    # 2.4e154, whose squares overflow: its norm must read finite, and every
    # other row must be np.linalg.norm's bit for bit.
    a = rng.normal(size=(6, 8)) * 10.0 ** rng.uniform(-150, 150, size=(6, 1))
    a[1] *= 2.4e154 / np.max(np.abs(a[1]))
    a[4, 3] = np.inf
    norms = _row_norms(a)
    plain = np.delete(np.arange(6), [1, 4])
    assert norms[plain].tobytes() == np.linalg.norm(a[plain], axis=1).tobytes()
    assert norms[1] == pytest.approx(2.4e154 * np.linalg.norm(a[1] / 2.4e154), rel=1e-15)
    assert np.isfinite(norms[1]) and norms[4] == np.inf


def far_formation_graph(n, arcs, scale, seed):
    """Unit weights conj(f_i) f_j from rigid motions with translations ~ ``scale``."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(n, 4))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    f = np.array([udq_from_motion(Quaternion.from_array(r[v]),
                                  Quaternion(0.0, *rng.normal(scale=scale, size=3))).to_array()
                  for v in range(n)])
    tails, heads = (np.array(ends) - 1 for ends in zip(*arcs))
    W = linalg.dqmul(linalg.dqconj(f[tails]), f[heads])
    return build(n, arcs, dict(zip(arcs, W)), WeightType.UNIT_DUAL_QUATERNION)


@pytest.mark.parametrize("scale", [1e6, 3e6, 1e7, 3e7])
@pytest.mark.parametrize("seed", range(5))
def test_far_formations_are_balanced_under_every_method(scale, seed):
    # A directed 30-cycle plus two chords.  The unit, orthogonality and
    # symmetry defects grow with the translations, so they are judged relative
    # to |w|: with absolute tolerances `gain_graph` stopped at the
    # orthogonality check at 1e6 and `build` rejected every graph at 3e6.
    arcs = [(v, v % 30 + 1) for v in range(1, 31)] + [(1, 15), (7, 22)]
    g = far_formation_graph(30, arcs, scale, seed)
    largest = float(np.max(np.linalg.norm(g.weight_array, axis=1)))
    for method in (direct_method, gain_graph_method, cycle_oracle):
        report = method(g)
        assert report.verdict is Verdict.BALANCED, (method.__name__, report)
        assert relative_configuration_residual(g, report.formation) <= 1e-12 * largest


def test_far_antiparallel_pairs_pass_the_symmetry_check():
    # w(i, j) and w(j, i) computed from the formation are conjugates up to
    # rounding that grows with |w| (~1e9 here); a relative 1e-6 change is caught.
    arcs = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 1)]
    g = far_formation_graph(3, arcs, 1e9, 0)
    assert check_symmetry_pairs(g) is None
    turn = DualQuaternion.from_quaternion(Quaternion(np.cos(5e-7), np.sin(5e-7), 0.0, 0.0))
    assert check_symmetry_pairs(g.with_weight((3, 2), g.weight(3, 2) * turn)) == (2, 3)


def test_weights_whose_norm_overflows_are_rejected():
    g = gen_cycle(3, WeightType.DUAL_QUATERNION, 1)
    with pytest.raises(NonFiniteWeightError):
        rescaled(g, 10.0 ** 153.5)


def test_nan_certificates_are_not_accepted(monkeypatch):
    # `build` rejects non-finite weights, so the graph is put together directly.
    g = gen_cycle(4, WeightType.DUAL_QUATERNION, 2)
    rows = g.weight_array.copy()
    rows[0, 5] = np.nan
    report = wdg_similarity_method(WeightedDigraph(g.graph, g.weight_type, rows))
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.SIMILARITY_CHECK
    u = gen_cycle(4, WeightType.UNIT_DUAL_QUATERNION, 3)
    monkeypatch.setattr(balance, "wdg_similarity_check", lambda *args: (float("nan"),) * 2)
    report = _null_space_pipeline(u, laplacian(u), Method.DIRECT)
    assert report.verdict is Verdict.UNBALANCED
    assert report.failure_stage is FailureStage.SIMILARITY_CHECK


# ---------------------------------------------------------------------------
# array routines against scalar reference formulas
# ---------------------------------------------------------------------------

def scalar_symmetry_pairs(g, tol=1e-8):
    for (i, j) in g.arcs:
        if i < j and (j, i) in g.weights:
            w = g.weights[(i, j)]
            defect = linalg.fr_norm((w - g.weights[(j, i)].conjugate()).to_array())
            if defect > tol * linalg.fr_norm(w.to_array()):
                return (i, j)
    return None


def scalar_forest_theta(g):
    """Potentials over a BFS forest: roots ascending, incident arcs in arc order."""
    adj = {v: sorted([(a, a[1]) for a in g.arcs if a[0] == v]
                     + [(a, a[0]) for a in g.arcs if a[1] == v]) for v in range(1, g.n + 1)}
    theta, tree = {}, {}
    for root in range(1, g.n + 1):
        if root not in theta:
            theta[root] = DualQuaternion.from_real(1.0)
            queue = [root]
            while queue:
                v = queue.pop(0)
                for arc, u in adj[v]:
                    if u not in theta:
                        w = g.weights[arc]
                        if arc != (v, u):
                            w = w.conjugate() if g.weight_type.is_unit else w.inverse()
                        theta[u], tree[u] = theta[v] * w, arc
                        theta[u] = theta[u] * (1.0 / theta[u].s.norm())
                        queue.append(u)
    return theta, tree


def scalar_potential_defect(g, theta):
    c, bad = [], None
    for k, (i, j) in enumerate(g.arcs):
        w = g.weights[(i, j)]
        c.append(w.s.norm() * theta[i].s.norm() / theta[j].s.norm())
        predicted = theta[i].inverse() * theta[j] * c[-1]
        off = linalg.fr_norm((w - predicted).to_array())
        if bad is None and off > BALANCE_TOL * linalg.fr_norm(w.to_array()):
            bad = k
    return bad, np.array(c)


def scalar_configuration_residual(g, formation):
    return max((linalg.fr_norm((w - formation[i - 1].conjugate() * formation[j - 1]).to_array())
                for (i, j), w in g.weights.items()), default=0.0)


def near(a, b, rtol=1e-12):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= rtol * (1.0 + np.linalg.norm(b))


@pytest.mark.parametrize("wt", list(WeightType))
def test_array_routines_match_scalar_references(rng, wt):
    for g in balanced_and_perturbed(wt, rng):
        assert check_symmetry_pairs(g) == scalar_symmetry_pairs(g)
        theta, connected, bad, c, (parent_arc, _) = _tree_potential(g)
        ref_theta, ref_tree = scalar_forest_theta(g)
        assert {v + 1: g.arcs[k] for v, k in enumerate(parent_arc) if k >= 0} == ref_tree
        assert connected == (len(ref_tree) == g.n - 1)
        ref_rows = np.array([ref_theta[v].to_array() for v in range(1, g.n + 1)])
        assert near(theta, ref_rows)
        ref_bad, ref_c = scalar_potential_defect(g, ref_theta)
        assert bad == ref_bad and near(c, ref_c)
        for formation in ([ref_theta[v] for v in range(1, g.n + 1)],
                          [DualQuaternion.from_array(rng.normal(size=8)) for _ in range(g.n)]):
            assert near(relative_configuration_residual(g, formation),
                        scalar_configuration_residual(g, formation))
