import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqbalance.algebra import (
    DualNumber,
    DualQuaternion,
    NotAppreciableError,
    NotPureError,
    NotUnitError,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Q_ZERO,
    Quaternion,
    UnitDualQuaternion,
    random_udq,
    udq_from_motion,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)
dquats = st.builds(DualQuaternion, quats, quats)


def test_basis_multiplication_table():
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    for e in (Q_I, Q_J, Q_K):
        assert e * e == -Q_ONE


def test_nested_product():
    # k*j = -i, then i*(-i) = 1
    assert Q_I * (Q_K * Q_J) == Q_ONE


def test_quaternion_inverse(rng):
    for _ in range(20):
        q = Quaternion.from_array(rng.normal(size=4))
        p = q * q.inverse()
        assert abs(p.w - 1.0) < 1e-12 and abs(p.x) < 1e-12


def test_quaternion_norm_multiplicative(rng):
    a = Quaternion.from_array(rng.normal(size=4))
    b = Quaternion.from_array(rng.normal(size=4))
    assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)


def test_dual_number_arithmetic():
    p = DualNumber(2.0, 3.0) * DualNumber(5.0, 7.0)
    assert p == DualNumber(10.0, 2 * 7 + 3 * 5)


def test_magnitude_identity():
    m = DualQuaternion.from_real(1.0).magnitude()
    assert m == DualNumber(1.0, 0.0)


def test_magnitude_of_unit(rng):
    for seed in range(10):
        m = random_udq(rng).magnitude()
        assert abs(m.s - 1.0) < 1e-12
        assert abs(m.d) < 1e-12


def test_magnitude_zero_standard_part():
    q = DualQuaternion(Q_ZERO, Q_K)
    assert q.magnitude() == DualNumber(0.0, 1.0)


def test_inverse_identity():
    q = DualQuaternion.from_real(1.0)
    assert q.inverse() == q


def test_inverse_of_unit_is_conjugate(rng):
    for _ in range(10):
        q = random_udq(rng)
        p = q * q.conjugate()
        assert np.allclose(p.to_array(), DualQuaternion.from_real(1.0).to_array(),
                           atol=1e-12)
        assert np.allclose(q.inverse().to_array(), q.conjugate().to_array(),
                           atol=1e-12)


def test_inverse_real_scalar():
    assert DualQuaternion.from_real(2.0).inverse() == DualQuaternion.from_real(0.5)


def test_inverse_not_appreciable():
    with pytest.raises(NotAppreciableError):
        DualQuaternion(Q_ZERO, Q_I).inverse()


def test_motion_identity():
    q = udq_from_motion(Q_ONE, Q_ZERO)
    assert q.to_array() == pytest.approx([1, 0, 0, 0, 0, 0, 0, 0])


def test_motion_i_rotation_k_translation():
    # rotation i, body translation 2k: dual part = i * (2k) / 2 = ik = -j
    q = udq_from_motion(Q_I, Quaternion(0, 0, 0, 2))
    assert q.s == Q_I
    assert q.d == -Q_J
    assert q.is_unit(1e-15)


def test_motion_random_units(rng):
    for _ in range(25):
        r = rng.normal(size=4)
        r /= np.linalg.norm(r)
        q = udq_from_motion(Quaternion.from_array(r),
                            Quaternion(0, *rng.normal(size=3)))
        m = q.magnitude()
        assert abs(m.s - 1.0) < 1e-12 and abs(m.d) < 1e-12


@pytest.mark.parametrize("scale", [1e7, 1e8])
def test_motion_accepts_large_translations(rng, scale):
    # The rounding of 2 Re(s d*) grows with the translation, so it is judged
    # relative to |w|; against an absolute 1e-9 about 1 in 10 of these draws
    # failed at 1e7 and 2 in 3 at 1e8.
    for _ in range(200):
        r = rng.normal(size=4)
        r /= np.linalg.norm(r)
        q = udq_from_motion(Quaternion.from_array(r),
                            Quaternion(0, *rng.normal(scale=scale, size=3)))
        assert q.unit_defect()[1] <= 1e-14


def test_motion_rejects_bad_inputs():
    with pytest.raises(NotUnitError):
        udq_from_motion(Quaternion(2, 0, 0, 0), Q_ZERO)
    with pytest.raises(NotPureError):
        udq_from_motion(Q_ONE, Quaternion(1, 0, 0, 0))


def test_random_udq_deterministic():
    a = random_udq(99)
    b = random_udq(99)
    assert a == b
    assert a != random_udq(100)


def test_random_udq_valid():
    for seed in range(50):
        q = random_udq(seed)
        assert isinstance(q, UnitDualQuaternion)
        assert q.is_unit(1e-10)


def test_random_udq_rotation_mean():
    rng = np.random.default_rng(7)
    comps = np.array([random_udq(rng).s.to_array() for _ in range(10_000)])
    assert np.abs(comps.mean(axis=0)).max() < 0.05


@settings(max_examples=200)
@given(dquats, dquats)
def test_conjugate_antihomomorphism(p, q):
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    scale = 1.0 + np.linalg.norm(p.to_array()) * np.linalg.norm(q.to_array())
    assert np.allclose(lhs.to_array(), rhs.to_array(), atol=1e-12 * scale)


@settings(max_examples=200)
@given(dquats, dquats)
def test_magnitude_multiplicative(p, q):
    if p.s.norm() < 1e-3 or q.s.norm() < 1e-3:
        return  # only appreciable values
    got = (p * q).magnitude()
    a, b = p.magnitude(), q.magnitude()
    want = a * b
    scale = 1.0 + abs(want.s) + abs(want.d)
    assert abs(got.s - want.s) <= 1e-10 * scale
    assert abs(got.d - want.d) <= 1e-10 * scale


def test_unit_closure(rng):
    for _ in range(100):
        p, q = random_udq(rng), random_udq(rng)
        prod = p * q
        assert isinstance(prod, UnitDualQuaternion)
        assert prod.is_unit(1e-10)
        assert p.conjugate().is_unit(1e-10)


def test_unit_validation_rejects():
    with pytest.raises(NotUnitError):
        UnitDualQuaternion(Quaternion(2, 0, 0, 0), Q_ZERO)
    with pytest.raises(NotUnitError):
        UnitDualQuaternion(Q_ONE, Q_ONE)  # 2 Re(s d*) = 2


def test_epsilon_nilpotency_exact():
    q = DualQuaternion(Q_ZERO, Quaternion(1.5, -2.0, 0.25, 3.0))
    sq = q * q
    assert sq.s == Q_ZERO and sq.d == Q_ZERO
