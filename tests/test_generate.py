import numpy as np
import pytest

from dqbalance.balance import Verdict, cycle_oracle, direct_method, wdg_similarity_method
from dqbalance.generate import (
    _potential_weight,
    cycle_arc,
    gen_cycle,
    gen_random_balanced,
    gen_tree,
    perturb,
    random_vertex_potential,
    random_weight,
)
from dqbalance.graphs import (
    ArcNotFoundError,
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
    assert _potential_weight(ONE, ONE, 1.0, True) == ONE
    assert _potential_weight(ONE, ONE, 1.0, False) == ONE


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


def pairwise_random_balanced(n, arc_density, weight_type, seed, dst):
    """Reference: the extra arcs drawn one ordered pair at a time."""
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
    weights = {(i, j): _potential_weight(theta[i - 1], theta[j - 1],
                                         1.0 if unit else float(np.exp(rng.normal(scale=0.3))),
                                         unit)
               for (i, j) in sorted(arcs)}
    return sorted(arcs), weights, rng.random()


@pytest.mark.parametrize("n", [1, 2, 13, 50])
def test_gen_random_balanced_draws_the_pairwise_stream(n):
    for k, wt in enumerate(ALL_TYPES):
        rng = np.random.default_rng(100 + k)
        g = gen_random_balanced(n, 0.2, wt, rng, directed_spanning_tree=bool(k % 2))
        arcs, weights, next_draw = pairwise_random_balanced(n, 0.2, wt, 100 + k, bool(k % 2))
        assert list(g.arcs) == arcs
        assert g.weight_array.tobytes() == np.array(
            [weights[a].to_array() for a in arcs]).reshape(-1, 8).tobytes()
        assert rng.random() == next_draw
