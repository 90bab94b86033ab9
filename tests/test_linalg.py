import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqbalance import linalg
from dqbalance.algebra import DualQuaternion, Quaternion
from dqbalance.linalg import (
    QuatLeastSquares,
    RANK_TOL,
    ShapeMismatchError,
    complex_adjoint,
    dq_standard,
    dqinv,
    dqmat_apply,
    dqmat_mul,
    dqmul,
    fr_norm,
    is_consistent,
    qmat_mul,
    qsolve,
    rank,
    real_expand,
)

from conftest import I, J, ONE, reference_dqmul, reference_kernels, reference_qmul


def qm(*rows):
    """Quaternion matrix from rows of (w, x, y, z) tuples."""
    return np.array([[list(e) for e in row] for row in rows], dtype=float)


def random_qmat(rng, m, n):
    return rng.normal(size=(m, n, 4))


def eye(n, width):
    """Identity matrix with entries of ``width`` real components: 4 quaternion, 8 dual."""
    return np.eye(n)[:, :, None] * np.eye(1, width)[0]


# ---------------------------------------------------------------------------
# real expansion
# ---------------------------------------------------------------------------

def test_expand_identity():
    A = qm([(1, 0, 0, 0)])
    assert np.array_equal(real_expand(A), np.eye(4))


def test_expand_imaginary_unit():
    A = qm([(0, 1, 0, 0)])
    expected = np.array([
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(real_expand(A), expected)


def test_expand_product_homomorphism(rng):
    for _ in range(20):
        A = random_qmat(rng, 3, 4)
        B = random_qmat(rng, 4, 2)
        lhs = real_expand(qmat_mul(A, B))
        rhs = real_expand(A) @ real_expand(B)
        scale = np.linalg.norm(rhs) + 1.0
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_expand_sum_and_conjtranspose(rng):
    A = random_qmat(rng, 3, 3)
    B = random_qmat(rng, 3, 3)
    assert np.allclose(real_expand(A + B), real_expand(A) + real_expand(B))
    assert np.allclose(real_expand(linalg.qmat_conj_transpose(A)), real_expand(A).T,
                       atol=1e-14)


def test_expansion_consistent_with_scalar_product(rng):
    a = Quaternion.from_array(rng.normal(size=4))
    b = Quaternion.from_array(rng.normal(size=4))
    A = np.array([[a.to_array()]])
    B = np.array([[b.to_array()]])
    prod = qmat_mul(A, B)[0, 0]
    assert np.allclose(prod, (a * b).to_array(), atol=1e-13)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def test_solve_identity(rng):
    b = rng.normal(size=(4, 4))
    x, res = QuatLeastSquares(eye(4, 4)).solve(b)
    assert np.allclose(x, b)
    assert res < 1e-12


def test_solve_tree_reduced_system(rng):
    # Reduced standard system of the 3-vertex tree: [[0,0],[1,0],[0,1]] x = rhs
    q21 = rng.normal(size=4)
    q31 = rng.normal(size=4)
    q21 /= np.linalg.norm(q21)
    q31 /= np.linalg.norm(q31)
    A = qm([(0, 0, 0, 0), (0, 0, 0, 0)],
           [(1, 0, 0, 0), (0, 0, 0, 0)],
           [(0, 0, 0, 0), (1, 0, 0, 0)])
    b = np.stack([np.zeros(4), q21, q31])
    x, res = QuatLeastSquares(A).solve(b)
    assert is_consistent(res, b)
    assert np.allclose(x, np.stack([q21, q31]), atol=1e-12)


def test_solve_inconsistent_cycle_system():
    # 3-cycle standard block with weights q13=i, q21=j, q32=i:
    # conj(i) = -i while q32*q21 = i*j = k, so the reduced system cannot close.
    A = qm([(0, 0, 0, 0), (0, -1, 0, 0)],
           [(1, 0, 0, 0), (0, 0, 0, 0)],
           [(0, -1, 0, 0), (1, 0, 0, 0)])
    b = qm([(-1, 0, 0, 0)], [(0, 0, 1, 0)], [(0, 0, 0, 0)])[:, 0, :]
    x, res = QuatLeastSquares(A).solve(b)
    assert not is_consistent(res, b)
    assert res > 0.1


def test_solver_reuse_matches_single_shot(rng):
    A = random_qmat(rng, 6, 4)
    solver = QuatLeastSquares(A)
    for _ in range(3):
        b = rng.normal(size=(6, 4))
        x1, r1 = solver.solve(b)
        x2, r2 = QuatLeastSquares(A).solve(b)
        assert np.allclose(x1, x2) and r1 == pytest.approx(r2)


def test_square_solve_inverts_the_matrix_product(rng):
    A = random_qmat(rng, 5, 5)
    x = rng.normal(size=(5, 4))
    b = qmat_mul(A, x[:, None, :])[:, 0, :]
    assert np.allclose(qsolve(A, b), x, atol=1e-10)
    assert np.allclose(qsolve(A, b), QuatLeastSquares(A).solve(b)[0], atol=1e-10)
    with pytest.raises(ShapeMismatchError):
        qsolve(random_qmat(rng, 5, 4), np.zeros((5, 4)))


def test_solve_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        QuatLeastSquares(eye(3, 4)).solve(np.zeros((2, 4)))


def test_consistent_systems_solve_tightly(rng):
    for _ in range(20):
        A = random_qmat(rng, 5, 3)
        x0 = rng.normal(size=(3, 4))
        b = qmat_mul(A, x0[:, None, :])[:, 0, :]
        _, res = QuatLeastSquares(A).solve(b)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_minimum_norm_solution(rng):
    # One-column deficient system: solution set is x0 + null; the min-norm
    # representative must be orthogonal to the null space.
    A = np.zeros((1, 2, 4))
    A[0, 0, 0] = 1.0
    b = rng.normal(size=(1, 4))
    x, res = QuatLeastSquares(A).solve(b)
    assert res < 1e-12
    assert np.allclose(x[0], b[0])
    assert np.allclose(x[1], 0.0)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert rank(eye(5, 4)) == 5


def laplacian_cycle_standard(w13, w21, w32):
    z = (0, 0, 0, 0)
    one = (1, 0, 0, 0)
    return qm([one, z, tuple(-np.asarray(w13))],
              [tuple(-np.asarray(w21)), one, z],
              [z, tuple(-np.asarray(w32)), one])


def test_rank_cycle_balanced_vs_perturbed(rng):
    i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    assert rank(laplacian_cycle_standard(i, j, k)) == 2
    other = rng.normal(size=4)
    other /= np.linalg.norm(other)
    assert rank(laplacian_cycle_standard(i, j, tuple(other))) == 3


def test_rank_unit_diagonal_invariance(rng):
    A = random_qmat(rng, 4, 4)
    r0 = rank(A)
    d = rng.normal(size=(4, 4))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    D = np.zeros((4, 4, 4))
    D[np.arange(4), np.arange(4)] = d
    assert rank(qmat_mul(D, A)) == r0
    assert rank(qmat_mul(A, D)) == r0


# ---------------------------------------------------------------------------
# complex adjoint, with the real expansion as the reference
# ---------------------------------------------------------------------------

def test_adjoint_scalar_layout():
    # q = z1 + z2 j with z1 = 1 + 2i, z2 = 3 + 4i
    A = qm([(1, 2, 3, 4)])
    assert np.array_equal(complex_adjoint(A), [[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])


def test_adjoint_ring_homomorphism(rng):
    for _ in range(20):
        A = random_qmat(rng, 3, 4)
        B = random_qmat(rng, 4, 2)
        C = random_qmat(rng, 3, 4)
        lhs = complex_adjoint(qmat_mul(A, B))
        rhs = complex_adjoint(A) @ complex_adjoint(B)
        assert np.abs(lhs - rhs).max() <= 1e-12 * (np.linalg.norm(rhs) + 1.0)
        assert np.array_equal(complex_adjoint(A + C), complex_adjoint(A) + complex_adjoint(C))
        assert np.array_equal(complex_adjoint(linalg.qmat_conj_transpose(A)),
                              complex_adjoint(A).conj().T)


def test_adjoint_singular_values_are_the_expansions_twice_over(rng):
    for m, n in [(1, 1), (4, 3), (3, 5), (6, 6)]:
        A = random_qmat(rng, m, n)
        s_real = np.linalg.svd(real_expand(A), compute_uv=False)
        s_adj = np.linalg.svd(complex_adjoint(A), compute_uv=False)
        assert np.allclose(np.repeat(s_adj, 2), s_real, rtol=1e-12, atol=1e-12)
        assert np.allclose(s_adj[0::2], s_adj[1::2], rtol=1e-12, atol=1e-12)


def reference_lstsq(A, b, tol=RANK_TOL):
    """Minimum-norm least squares and real rank from the SVD of the real expansion."""
    R = real_expand(A)
    rv = b.T.reshape(-1)            # first block column of the real expansion
    if min(R.shape) == 0:
        return np.zeros((A.shape[1], 4)), float(np.linalg.norm(rv)), 0
    u, s, vt = np.linalg.svd(R, full_matrices=False)
    keep = s > tol * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    u, s, vt = u[:, keep], s[keep], vt[keep]
    coeff = u.T @ rv / s
    residual = float(np.linalg.norm(rv - u @ (coeff * s)))
    return (vt.T @ coeff).reshape(4, -1).T, residual, int(np.count_nonzero(keep))


def rank_deficient_qmat(rng, m, n, r):
    """An m x n quaternion matrix of quaternion rank r (product of m x r and r x n)."""
    return qmat_mul(random_qmat(rng, m, r), random_qmat(rng, r, n))


@pytest.mark.parametrize("m,n,r", [
    (6, 4, 4),      # overdetermined, full column rank
    (3, 5, 3),      # underdetermined: minimum-norm solution
    (5, 5, 3),      # rank-deficient square
    (7, 4, 2),      # rank-deficient tall
    (4, 4, 0),      # zero matrix
    (0, 3, 0),      # no equations
    (3, 0, 0),      # no unknowns
])
def test_least_squares_and_rank_match_real_expansion(rng, m, n, r):
    A = rank_deficient_qmat(rng, m, n, r) if r else np.zeros((m, n, 4))
    solver = QuatLeastSquares(A)
    for b in (rng.normal(size=(m, 4)), qmat_mul(A, rng.normal(size=(n, 1, 4)))[:, 0, :]):
        x, residual = solver.solve(b)
        x_ref, residual_ref, real_rank = reference_lstsq(A, b)
        scale = 1.0 + np.linalg.norm(b)
        assert x.shape == (n, 4)
        assert np.abs(x - x_ref).max(initial=0.0) <= 1e-10 * scale
        assert abs(residual - residual_ref) <= 1e-10 * scale
        assert solver.rank == real_rank == 4 * r
        assert solver.full_column_rank == (r == n)
        assert rank(A) == r


# ---------------------------------------------------------------------------
# dual quaternion matrices
# ---------------------------------------------------------------------------

def test_dqmat_identity(rng):
    M = rng.normal(size=(3, 3, 8))
    assert np.allclose(dqmat_mul(eye(3, 8), M), M)
    assert np.allclose(dqmat_mul(M, eye(3, 8)), M)


def test_unit_diagonal_times_conjugate(rng):
    from dqbalance.algebra import random_udq
    units = [random_udq(rng) for _ in range(3)]
    D = np.zeros((3, 3, 8))
    D[range(3), range(3)] = [u.to_array() for u in units]
    prod = dqmat_mul(D, linalg.dqconj(D).transpose(1, 0, 2))
    assert np.allclose(prod, eye(3, 8), atol=1e-12)


def test_product_standard_part(rng):
    A = rng.normal(size=(3, 4, 8))
    B = rng.normal(size=(4, 2, 8))
    prod = dqmat_mul(A, B)
    assert np.allclose(dq_standard(prod), qmat_mul(dq_standard(A), dq_standard(B)))


def test_dqmat_conj_transpose_antihomomorphism(rng):
    A = rng.normal(size=(3, 4, 8))
    B = rng.normal(size=(4, 2, 8))
    def conj_transpose(M):
        return linalg.dqconj(M).transpose(1, 0, 2)
    lhs = conj_transpose(dqmat_mul(A, B))
    rhs = dqmat_mul(conj_transpose(B), conj_transpose(A))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_dqmat_apply(rng):
    A = rng.normal(size=(3, 3, 8))
    v = rng.normal(size=(3, 8))
    direct = dqmat_apply(A, v)
    via_mul = dqmat_mul(A, v[:, None, :])[:, 0, :]
    assert np.allclose(direct, via_mul)


def test_dqinv(rng):
    v = rng.normal(size=(5, 8))
    prod = dqmul(v, dqinv(v))
    expected = np.zeros((5, 8))
    expected[:, 0] = 1.0
    assert np.allclose(prod, expected, atol=1e-12)


def test_scalar_and_array_products_agree(rng):
    p = DualQuaternion.from_array(rng.normal(size=8))
    q = DualQuaternion.from_array(rng.normal(size=8))
    assert np.array_equal(dqmul(p.to_array(), q.to_array()), (p * q).to_array())


# ---------------------------------------------------------------------------
# the structure-table kernels against the written-out products
# ---------------------------------------------------------------------------

def test_structure_tables():
    T, T8 = linalg._PRODUCT, linalg._DQ_PRODUCT
    basis = [Quaternion.from_array(e) for e in np.eye(4)]
    assert np.array_equal(T, [[(p * q).to_array() for q in basis] for p in basis])
    one, i, j, k = np.eye(4)
    for c, d, product in [(1, 1, -one), (2, 2, -one), (3, 3, -one),
                          (1, 2, k), (2, 3, i), (3, 1, j), (2, 1, -k), (3, 2, -i), (1, 3, -j)]:
        assert np.array_equal(T[c, d], product)
    # Each basis product is one signed basis element, and each (c, r) meets
    # one d: the term of (a b)_r from a_c is one signed product a_c b_d.
    for axis in (1, 2):
        assert np.array_equal(np.count_nonzero(T, axis=axis), np.ones((4, 4)))
    assert np.array_equal(np.abs(T[T != 0]), np.ones(16))
    dual_basis = [DualQuaternion.from_array(e) for e in np.eye(8)]
    assert np.array_equal(T8, [[(p * q).to_array() for q in dual_basis] for p in dual_basis])
    assert not T8[4:, 4:].any()                 # eps * eps = 0
    blocks = np.zeros((8, 8, 8))
    blocks[:4, :4, :4] = blocks[:4, 4:, 4:] = blocks[4:, :4, 4:] = T
    assert np.array_equal(T8, blocks)
    for terms in (linalg._Q_TERMS, linalg._DQ_TERMS):
        assert not terms.left.flags.writeable and not terms.right.flags.writeable
    assert not T.flags.writeable and not T8.flags.writeable


@pytest.mark.parametrize("terms, table, outputs", [
    (linalg._Q_TERMS, linalg._PRODUCT, [range(4)]),
    (linalg._DQ_TERMS, linalg._DQ_PRODUCT, [range(4), range(4, 8), range(4, 8)]),
])
def test_kernel_terms_are_the_table(terms, table, outputs):
    # Every nonzero of the table is one term, with its sign.
    width = table.shape[1]
    rebuilt = np.zeros_like(table)
    for k, rs in enumerate(outputs):
        for c, left in enumerate(terms.left[k]):
            for r, right in zip(rs, terms.right[k, c]):
                rebuilt[left, right % width, r] += -1.0 if right >= width else 1.0
    assert np.array_equal(rebuilt, table)


def test_entrywise_products_check_the_trailing_axis():
    with pytest.raises(ShapeMismatchError):
        linalg.qmul(np.ones((3, 8)), np.ones((3, 8)))
    with pytest.raises(ShapeMismatchError):
        dqmul(np.ones((3, 4)), np.ones(4))


def same_bits(x, y):
    """Equal shapes and bit patterns: signed zeros and NaN payloads included."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _operand(rng, shape, zero_frac):
    """Normal entries, each row scaled by 10^U(-150, 150), some exactly zero."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-150, 150, size=shape[:-1] + (1,))
    x[rng.random(shape) < zero_frac] = 0.0
    return x


@st.composite
def operand_pairs(draw, width):
    """Two operands with trailing axis ``width`` in a broadcast the call sites use."""
    rows = draw(st.one_of(st.sampled_from([0, 1, 5000]), st.integers(0, 5000)))
    layout = draw(st.sampled_from(["rows", "rows by one", "one by rows", "outer"]))
    if layout == "outer":
        rows = min(rows, 70)
        cols = draw(st.integers(0, 70))
        shapes = (rows, 1, width), (1, cols, width)
    else:
        shapes = {"rows": ((rows, width), (rows, width)),
                  "rows by one": ((rows, width), (width,)),
                  "one by rows": ((width,), (rows, width))}[layout]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero_frac = draw(st.sampled_from([0.0, 0.3]))
    return tuple(_operand(rng, shape, zero_frac) for shape in shapes)


@settings(max_examples=60, deadline=None, database=None)
@given(operand_pairs(4))
def test_qmul_is_bit_identical_to_the_written_out_product(pair):
    assert same_bits(linalg.qmul(*pair), reference_qmul(*pair))


@settings(max_examples=60, deadline=None, database=None)
@given(operand_pairs(8))
def test_dqmul_is_bit_identical_to_the_written_out_product(pair):
    assert same_bits(dqmul(*pair), reference_dqmul(*pair))


@settings(max_examples=40, deadline=None, database=None)
@given(rows=st.one_of(st.sampled_from([0, 1, 5000]), st.integers(0, 5000)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dqinv_is_bit_identical_to_the_written_out_products(rows, seed):
    # Standard parts from 1e-10 up, so that every entry is appreciable.
    rng = np.random.default_rng(seed)
    a = _operand(rng, (rows, 8), 0.0)
    s = a[:, :4] / np.linalg.norm(a[:, :4], axis=1, keepdims=True)
    a[:, :4] = s * 10.0 ** rng.uniform(-10, 150, size=(rows, 1))
    with reference_kernels():
        expected = dqinv(a)
    assert same_bits(dqinv(a), expected)


def test_non_finite_components_follow_the_written_out_product():
    # No term multiplies a table zero, so an infinity is never turned into
    # NaN.  A NaN stays a NaN; its sign bit, which carries no meaning, may not.
    rng = np.random.default_rng(3)
    for value in (np.inf, -np.inf, np.nan):
        a, b = rng.normal(size=(2, 6, 8))
        a[1, 2] = b[2, 5] = b[3, 0] = a[4, 7] = value
        with np.errstate(invalid="ignore"):
            pairs = [(dqmul(a, b), reference_dqmul(a, b)),
                     (linalg.qmul(a[:, 4:], b[:, :4]), reference_qmul(a[:, 4:], b[:, :4]))]
        for out, expected in pairs:
            if np.isnan(value):
                assert np.array_equal(out, expected, equal_nan=True)
            else:
                assert same_bits(out, expected)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_fr_norm_examples():
    assert fr_norm(np.zeros((3, 3, 8))) == 0.0
    assert fr_norm(ONE.to_array()) == 1.0
    assert fr_norm(DualQuaternion(I.s, J.s).to_array()) == pytest.approx(np.sqrt(2))
