import numpy as np
import pytest

from dqbalance.balance import Verdict, cycle_oracle, direct_method, wdg_similarity_method
from dqbalance.generate import (
    _potential_graph,
    apply_switching,
    cycle_arc,
    gen_cycle,
    gen_random_balanced,
    gen_tree,
    perturb,
    random_switching,
    random_vertex_potential,
    random_weight,
)
from dqbalance.graphs import (
    ArcNotFoundError,
    NonUnitWeightError,
    WeightType,
    build,
    has_directed_spanning_tree,
)

from conftest import ONE

ALL_TYPES = list(WeightType)


def test_gen_cycle_small_balanced():
    g = gen_cycle(3, WeightType.UNIT_DUAL_QUATERNION, seed=0)
    assert cycle_oracle(g).verdict is Verdict.BALANCED


def test_gen_cycle_structure():
    g = gen_cycle(5, WeightType.UNIT_COMPLEX, seed=1)
    assert g.arcs == ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1))


def test_gen_cycle_rejects_small_n():
    with pytest.raises(ValueError):
        gen_cycle(2, WeightType.REAL, seed=0)


def test_gen_cycle_all_types_balanced():
    for k, wt in enumerate(ALL_TYPES):
        g = gen_cycle(6, wt, seed=10 + k)
        assert cycle_oracle(g).verdict is Verdict.BALANCED, wt


def test_identity_potential_gives_identity_weights():
    tails = np.arange(3)
    for wt in ALL_TYPES:
        g = _potential_graph(3, tails, (tails + 1) % 3, wt, [ONE] * 3, np.ones(3))
        assert all(w == ONE for w in g.weights.values()), wt


def test_gen_cycle_deterministic():
    a = gen_cycle(8, WeightType.UNIT_DUAL_QUATERNION, seed=3)
    b = gen_cycle(8, WeightType.UNIT_DUAL_QUATERNION, seed=3)
    assert a.weights == b.weights
    c = gen_cycle(8, WeightType.UNIT_DUAL_QUATERNION, seed=4)
    assert a.weights != c.weights


def test_gen_random_balanced_direct_verdict():
    g = gen_random_balanced(9, 0.15, WeightType.UNIT_DUAL_QUATERNION, seed=5)
    report = direct_method(g)
    assert report.verdict is Verdict.BALANCED
    assert report.err <= 1e-8


def test_gen_random_balanced_density_zero_is_tree():
    g = gen_random_balanced(10, 0.0, WeightType.UNIT_COMPLEX, seed=6)
    assert len(g.arcs) == 9
    assert cycle_arc(g) is None


def test_gen_random_balanced_all_types():
    for k, wt in enumerate(ALL_TYPES):
        g = gen_random_balanced(8, 0.2, wt, seed=20 + k)
        if wt.is_unit:
            assert direct_method(g).verdict is Verdict.BALANCED
        assert wdg_similarity_method(g).verdict is Verdict.BALANCED


def test_gen_random_balanced_directed_spanning_tree():
    for seed in range(5):
        g = gen_random_balanced(12, 0.05, WeightType.REAL, seed,
                                directed_spanning_tree=True)
        assert has_directed_spanning_tree(g.graph)


def test_perturb_breaks_balance_on_cycle():
    g = gen_cycle(6, WeightType.UNIT_DUAL_QUATERNION, seed=7)
    gp = perturb(g, (3, 4), seed=8)
    assert cycle_oracle(gp).verdict is Verdict.UNBALANCED
    assert direct_method(gp).verdict is Verdict.UNBALANCED


def test_perturb_tree_arc_keeps_tree_balanced():
    g = gen_tree(7, WeightType.UNIT_DUAL_QUATERNION, seed=9)
    gp = perturb(g, g.arcs[0], seed=10)
    assert cycle_oracle(gp).verdict is Verdict.BALANCED


def test_perturb_restore_roundtrip():
    g = gen_cycle(5, WeightType.UNIT_COMPLEX, seed=11)
    arc = (2, 3)
    original = g.weights[arc]
    gp = perturb(g, arc, seed=12)
    assert cycle_oracle(gp).verdict is Verdict.UNBALANCED
    restored = gp.with_weight(arc, original)
    assert cycle_oracle(restored).verdict is Verdict.BALANCED


def test_perturb_unknown_arc():
    g = gen_cycle(4, WeightType.REAL, seed=13)
    with pytest.raises(ArcNotFoundError):
        perturb(g, (1, 3), seed=0)


def test_perturb_general_types_break_balance():
    for k, wt in enumerate((WeightType.DUAL_QUATERNION, WeightType.COMPLEX,
                            WeightType.REAL)):
        g = gen_cycle(5, wt, seed=30 + k)
        gp = perturb(g, (1, 2), seed=40 + k)
        assert cycle_oracle(gp).verdict is Verdict.UNBALANCED, wt


def test_random_weight_validates():
    rng = np.random.default_rng(0)
    for wt in ALL_TYPES:
        for _ in range(20):
            w = random_weight(wt, rng)
            # building a one-arc graph runs the full validation
            build(2, [(1, 2)], {(1, 2): w}, wt)


def scalar_potential_weight(theta_i, theta_j, c, unit):
    """Reference: one arc weight ``theta_i^-1 theta_j c`` in scalar arithmetic."""
    inv = theta_i.conjugate() if unit else theta_i.inverse()
    w = inv * theta_j
    return w if c == 1.0 else w * c


def assert_matches_reference(g, weights):
    """Bit for bit on unit types; within 1e-13 |w| on general ones, whose array
    inverse squares with ``x * x`` where the scalar one calls ``x ** 2``."""
    ref = np.array([weights[a].to_array() for a in g.arcs]).reshape(-1, 8)
    if g.weight_type.is_unit:
        assert g.weight_array.tobytes() == ref.tobytes()
    else:
        defect = np.linalg.norm(g.weight_array - ref, axis=1)
        assert np.all(defect <= 1e-13 * np.linalg.norm(ref, axis=1))


def pairwise_random_balanced(n, arc_density, weight_type, seed, dst):
    """Reference: the extra arcs drawn one ordered pair at a time, the weights
    one scalar product per arc."""
    rng = np.random.default_rng(seed)
    arcs = set()
    for v in range(2, n + 1):
        p = int(rng.integers(1, v))
        arcs.add((v, p) if dst or rng.random() < 0.5 else (p, v))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in arcs and rng.random() < arc_density:
                arcs.add((i, j))
    unit = weight_type.is_unit
    theta = random_vertex_potential(n, weight_type, rng)
    weights = {(i, j): scalar_potential_weight(
                   theta[i - 1], theta[j - 1],
                   1.0 if unit else float(np.exp(rng.normal(scale=0.3))), unit)
               for (i, j) in sorted(arcs)}
    return sorted(arcs), weights, rng.random()


@pytest.mark.parametrize("n", [1, 2, 13, 50])
def test_gen_random_balanced_draws_the_pairwise_stream(n):
    for k, wt in enumerate(ALL_TYPES):
        rng = np.random.default_rng(100 + k)
        g = gen_random_balanced(n, 0.2, wt, rng, directed_spanning_tree=bool(k % 2))
        arcs, weights, next_draw = pairwise_random_balanced(n, 0.2, wt, 100 + k, bool(k % 2))
        assert list(g.arcs) == arcs
        assert_matches_reference(g, weights)
        assert rng.random() == next_draw


@pytest.mark.parametrize("wt", ALL_TYPES)
@pytest.mark.parametrize("n", [3, 4, 60])
def test_gen_cycle_matches_the_scalar_reference(wt, n):
    theta = random_vertex_potential(n, wt, np.random.default_rng(n))
    weights = {(i, i % n + 1): scalar_potential_weight(theta[i - 1], theta[i % n], 1.0, wt.is_unit)
               for i in range(1, n + 1)}
    assert_matches_reference(gen_cycle(n, wt, n), weights)


@pytest.mark.parametrize("wt", ALL_TYPES)
@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_apply_switching_matches_the_scalar_reference(wt, n):
    g = gen_random_balanced(n, 0.2, wt, 50 + n)
    zeta = random_switching(g, 60 + n)
    weights = {(i, j): (zeta[i].conjugate() if wt.is_unit else zeta[i].inverse()) * w * zeta[j]
               for (i, j), w in g.weights.items()}
    assert_matches_reference(apply_switching(g, zeta), weights)


@pytest.mark.parametrize("wt", [WeightType.UNIT_DUAL_QUATERNION, WeightType.UNIT_COMPLEX])
def test_switching_a_unit_graph_by_a_non_unit_function_is_rejected(wt):
    g = gen_cycle(4, wt, 1)
    with pytest.raises(NonUnitWeightError):
        apply_switching(g, {v: ONE * 2.0 for v in range(1, g.n + 1)})
