import numpy as np
import pytest

from dqbalance.algebra import DualQuaternion, Quaternion, random_udq
from dqbalance.graphs import WeightType, build

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
