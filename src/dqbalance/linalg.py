"""Dense linear algebra over quaternions and dual quaternions.

Array conventions (float64 throughout):

* quaternion matrix  -- shape ``(m, n, 4)``, components ordered (w, x, y, z)
* quaternion vector  -- shape ``(n, 4)``
* dual quaternion matrix -- shape ``(m, n, 8)``: standard part in ``[..., :4]``,
  dual part in ``[..., 4:]``
* dual quaternion vector -- shape ``(n, 8)``

A quaternion matrix ``A`` expands to the real matrix ``real_expand(A)`` of
shape ``(4m, 4n)`` and to its complex adjoint ``complex_adjoint(A)`` of shape
``(2m, 2n)``.  Both are ring homomorphisms that map the conjugate transpose
to the (Hermitian) transpose, which is what lets ordinary real or complex
solvers handle quaternion linear systems.  The least-squares solver uses
the complex adjoint: it has the same singular values (each twice instead of
four times) at half the dimension.  `qsolve`, for small square systems,
solves the real expansion.

The Hamilton product is written once, in `Quaternion.__mul__`.  Its
structure table ``T[c, d] = e_c e_d`` on the basis quaternions, taken from
that product, gives ``(a b)_r = sum_cd a_c b_d T[c, d, r]``; `qmat_mul` and
`real_expand` are contractions with it.  The entrywise kernels `qmul` and
`dqmul` read their terms from it and from the dual quaternion table taken
from `DualQuaternion.__mul__`: each ``T[c, :, r]`` holds one ±1, so the term
of ``(a b)_r`` from ``a_c`` is a signed gather of one ``b_d`` times ``a_c``.
Each component then adds its four terms in the order of ``c``, as the
written-out product does, starting from the first term.  So the kernels
agree with the scalar types bit for bit, signed zeros and infinities
included; a NaN stays a NaN, though its sign bit may differ.  The rank
cutoff (`RANK_TOL`, relative to the largest singular value) lives in
`QuatLeastSquares` alone, and `rank` reads it there.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .algebra import APPRECIABLE_TOL, DualQuaternion, NotAppreciableError, Quaternion

# Relative cutoff for singular values when ranking / solving.
RANK_TOL = 1e-10

# A linear system counts as consistent when the least-squares residual is
# below SOLVE_TOL * (1 + |b|).
SOLVE_TOL = 1e-8


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


def _check_qmat(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 3 or A.shape[2] != 4:
        raise ShapeMismatchError(f"{name}: expected shape (m, n, 4), got {A.shape}")
    return A


def _check_dqmat(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 3 or A.shape[2] != 8:
        raise ShapeMismatchError(f"{name}: expected shape (m, n, 8), got {A.shape}")
    return A


# ---------------------------------------------------------------------------
# Quaternion arrays
# ---------------------------------------------------------------------------

def qconj(a: np.ndarray) -> np.ndarray:
    """Entrywise quaternion conjugate of an array with trailing axis 4."""
    out = np.array(a, dtype=np.float64, copy=True)
    out[..., 1:] *= -1.0
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _structure_table(basis) -> np.ndarray:
    """``T[c, d] = basis[c] * basis[d]`` as arrays, from the scalar product."""
    return _read_only(np.array([[(p * q).to_array() for q in basis] for p in basis]))


# Structure tables, (a b)_r = sum_cd a_c b_d T[c, d, r]: T[c, d] is the
# product of the basis elements e_c e_d.  The dual quaternion basis is
# (1, i, j, k, eps, eps i, eps j, eps k).
_PRODUCT = _structure_table([Quaternion.from_array(e) for e in np.eye(4)])
_DQ_PRODUCT = _structure_table([DualQuaternion.from_array(e) for e in np.eye(8)])


class _Terms(NamedTuple):
    """Terms of an entrywise product ``a b``, in blocks of four sums.

    Term ``(k, c, r)`` is ``a[left[k, c]] * ab[right[k, c, r]]``, where ``ab``
    lists the ``width`` components of ``b`` and then those of ``-b``; block
    k sums its terms of each output component r in the order of c.
    """

    width: int
    left: np.ndarray    # (blocks, 4)
    right: np.ndarray   # (blocks, 4, 4)


def _terms(table: np.ndarray, blocks) -> _Terms:
    """The terms of ``table`` in each block ``(cs, rs)`` of left and output components.

    Every ``table[c, :, r]`` holds one ±1, at the right component d of the
    term ``±a_c b_d`` of ``(a b)_r``; a -1 selects d in the negated copy.
    """
    width = table.shape[1]
    left, right = [], []
    for cs, rs in blocks:
        block = table[cs, :, rs]                        # (4 c, d, 4 r)
        d = np.argmax(block != 0, axis=1)
        negative = np.take_along_axis(block, d[:, None, :], axis=1)[:, 0, :] < 0
        left.append(np.arange(len(table))[cs])
        right.append(d + width * negative)
    return _Terms(width, *(_read_only(np.array(x)) for x in (left, right)))


_STANDARD, _DUAL = slice(0, 4), slice(4, 8)
_Q_TERMS = _terms(_PRODUCT, [(_STANDARD, _STANDARD)])
# a_s b_s, then the dual part's a_s b_d and a_d b_s; eps * eps adds nothing.
_DQ_TERMS = _terms(_DQ_PRODUCT, [(_STANDARD, _STANDARD), (_STANDARD, _DUAL), (_DUAL, _DUAL)])

# Terms per pass of the entrywise kernels, which keeps their temporaries in cache.
_CHUNK = 48 * 512


def _entrywise(a, b, terms: _Terms, combine) -> np.ndarray:
    """An entrywise product of broadcast arrays from its terms.

    ``combine`` maps the block sums, shape (blocks, 4, rows), to the output
    components, shape (width, rows).  A negated factor negates a product
    exactly, and every sum starts from its first term (``-0.0 + t`` is
    ``t`` for every ``t``), so each component is the written-out sum.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    width = terms.width
    if a.shape[-1:] != (width,):
        raise ShapeMismatchError(f"expected a trailing axis of {width}, got {a.shape}")
    a_rows, b_rows = a.reshape(-1, width), b.reshape(-1, width)
    out = np.empty(a.shape)
    out_rows = out.reshape(-1, width)
    chunk = _CHUNK // terms.right.size
    for i in range(0, len(out_rows), chunk):
        rows = slice(i, i + chunk)
        b_T = b_rows[rows].T
        ab = np.empty((2 * width, b_T.shape[1]))
        ab[:width] = b_T
        np.negative(ab[:width], out=ab[width:])
        products = ab[terms.right]
        products *= a_rows[rows].T[terms.left][:, :, None, :]
        out_rows[rows] = combine(np.add.reduce(products, axis=1, initial=-0.0)).T
    return out


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasted entrywise Hamilton product of arrays with trailing axis 4.

    Bit-identical to ``Quaternion.__mul__`` on every entry (see the module
    docstring).  Non-finite components give what the written-out product
    gives, up to the sign bit of a NaN; decide inputs are finite, as
    `graphs.build` rejects weights whose 8-component norm overflows.
    """
    return _entrywise(a, b, _Q_TERMS, operator.itemgetter(0))


def qmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Quaternion matrix product, (m,n,4) @ (n,k,4) -> (m,k,4)."""
    A = _check_qmat(A)
    B = _check_qmat(B, "B")
    if A.shape[1] != B.shape[0]:
        raise ShapeMismatchError(f"inner dimensions differ: {A.shape} vs {B.shape}")
    m, (n, k) = len(A), B.shape[:2]
    # Row (s, c) of the right factor: the components of e_c B_sk, for every k.
    right = np.einsum("skd,cdr->sckr", B, _PRODUCT).reshape(4 * n, 4 * k)
    return (A.reshape(m, 4 * n) @ right).reshape(m, k, 4)


def qmat_conj_transpose(A: np.ndarray) -> np.ndarray:
    A = _check_qmat(A)
    return qconj(A).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Real expansion
# ---------------------------------------------------------------------------

def real_expand(A: np.ndarray) -> np.ndarray:
    """Real representation of a quaternion matrix, shape (4m, 4n).

    Block layout (A_c the component matrices):

        [ A0 -A1 -A2 -A3 ]
        [ A1  A0 -A3  A2 ]
        [ A2  A3  A0 -A1 ]
        [ A3 -A2  A1  A0 ]

    Satisfies real_expand(A @ B) == real_expand(A) @ real_expand(B) and
    real_expand(A*) == real_expand(A).T.
    """
    A = _check_qmat(A)
    m, n = A.shape[:2]
    return np.einsum("ijc,cdr->ridj", A, _PRODUCT).reshape(4 * m, 4 * n)


# ---------------------------------------------------------------------------
# Complex adjoint
# ---------------------------------------------------------------------------

def complex_adjoint(A: np.ndarray) -> np.ndarray:
    """Complex adjoint of a quaternion matrix, shape (2m, 2n) complex.

    Writing each entry as ``q = z1 + z2 j`` with ``z1 = w + x i`` and
    ``z2 = y + z i``, the layout is (F. Zhang, Lin. Alg. Appl. 251, 1997):

        [  Z1        Z2      ]
        [ -conj(Z2)  conj(Z1) ]

    Satisfies complex_adjoint(A @ B) == complex_adjoint(A) @ complex_adjoint(B)
    and complex_adjoint(A*) == complex_adjoint(A).conj().T.  Its singular
    values are those of ``real_expand(A)``, each appearing twice instead of
    four times.
    """
    A = _check_qmat(A)
    m, n = A.shape[:2]
    z1 = A[:, :, 0] + 1j * A[:, :, 1]
    z2 = A[:, :, 2] + 1j * A[:, :, 3]
    out = np.empty((2 * m, 2 * n), dtype=complex)
    out[:m, :n], out[:m, n:], out[m:, :n], out[m:, n:] = z1, z2, -z2.conj(), z1.conj()
    return out


def _adjoint_column(b: np.ndarray) -> np.ndarray:
    """First column of the complex adjoint of a quaternion vector: (m,4) -> (2m,)."""
    return np.concatenate([b[:, 0] + 1j * b[:, 1], -b[:, 2] + 1j * b[:, 3]])


def _from_adjoint_column(v: np.ndarray) -> np.ndarray:
    """Inverse of `_adjoint_column`: (2n,) -> (n, 4)."""
    n = v.shape[0] // 2
    z1, z2 = v[:n], -v[n:].conj()
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=1)


class QuatLeastSquares:
    """Factored minimum-norm least-squares solver for one quaternion matrix.

    Computes the SVD of the complex adjoint once so that several right-hand
    sides can be solved cheaply (the two-stage Laplacian solves reuse it).
    The adjoint maps the pseudo-inverse of ``A`` to its own, so the first
    column of its minimum-norm solution is the adjoint of the quaternion one.
    """

    def __init__(self, A: np.ndarray):
        A = _check_qmat(A)
        self.m, self.n = A.shape[:2]
        u, s, vh = np.linalg.svd(complex_adjoint(A), full_matrices=False)
        keep = s > RANK_TOL * s.max(initial=0.0)
        self._u = u[:, keep]
        self._s = s[keep]
        self._vh = vh[keep]
        # Each singular value of the adjoint is two of the real expansion's,
        # so `rank` stays the rank of the real expansion.
        self.rank = 2 * int(np.count_nonzero(keep))

    @property
    def full_column_rank(self) -> bool:
        return self.rank == 4 * self.n

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """Minimum-norm least-squares solution of A x = b.

        Args:
            b: right-hand side, shape (m, 4).

        Returns:
            (x, residual) with x of shape (n, 4) and residual = |A x - b|
            over all real components.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.m, 4):
            raise ShapeMismatchError(f"b has shape {b.shape}, expected ({self.m}, 4)")
        rv = _adjoint_column(b)
        # u^H rv and vh^H coeff without copying the conjugated factors.
        coeff = (self._u.T @ rv.conj()).conj() / self._s
        x = (self._vh.T @ coeff.conj()).conj()
        residual = float(np.linalg.norm(rv - self._u @ (coeff * self._s)))
        return _from_adjoint_column(x), residual


def qsolve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution of the square quaternion system A x = b, (n,n,4) and (n,4) -> (n,4).

    Solves the real expansion; a singular ``A`` raises `numpy.linalg.LinAlgError`.
    """
    A = _check_qmat(A)
    b = np.asarray(b, dtype=np.float64)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0], 4):
        raise ShapeMismatchError(f"need a square matrix and a matching vector: {A.shape}, {b.shape}")
    # real_expand orders a vector component-major: every w, then every x, y and z.
    return np.linalg.solve(real_expand(A), b.T.reshape(-1)).reshape(4, len(b)).T


def is_consistent(residual: float, b: np.ndarray) -> bool:
    return residual <= SOLVE_TOL * (1.0 + float(np.linalg.norm(b)))


def rank(A: np.ndarray) -> int:
    """Quaternion rank: the rank `QuatLeastSquares` keeps, in quaternion columns."""
    return QuatLeastSquares(A).rank // 4


# ---------------------------------------------------------------------------
# Dual quaternion arrays
# ---------------------------------------------------------------------------

def dq_standard(M: np.ndarray) -> np.ndarray:
    return np.asarray(M, dtype=np.float64)[..., :4]


def dq_dual(M: np.ndarray) -> np.ndarray:
    return np.asarray(M, dtype=np.float64)[..., 4:]


def dq_join(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.concatenate([s, d], axis=-1)


def dqconj(a: np.ndarray) -> np.ndarray:
    """Entrywise conjugate of an array with trailing axis 8."""
    out = np.array(a, dtype=np.float64, copy=True)
    out[..., 1:4] *= -1.0
    out[..., 5:] *= -1.0
    return out


def _standard_and_dual(sums: np.ndarray) -> np.ndarray:
    sums[1] += sums[2]              # (a_s b_d) + (a_d b_s)
    return sums[:2].reshape(8, -1)


def dqmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasted entrywise dual quaternion product of arrays with trailing axis 8.

    The standard part is ``a_s b_s`` and the dual part ``(a_s b_d) + (a_d b_s)``,
    each product summed as in `qmul`, so the result is bit-identical to
    ``DualQuaternion.__mul__``, non-finite components as in `qmul`.
    """
    return _entrywise(a, b, _DQ_TERMS, _standard_and_dual)


def dqinv(a: np.ndarray) -> np.ndarray:
    """Entrywise inverse; every entry must be appreciable (``APPRECIABLE_TOL``)."""
    a = np.asarray(a, dtype=np.float64)
    s, d = a[..., :4], a[..., 4:]
    n2 = np.sum(s * s, axis=-1, keepdims=True)
    if np.any(n2 <= APPRECIABLE_TOL ** 2):
        raise NotAppreciableError("entrywise inverse requires appreciable entries")
    si = qconj(s) / n2
    return np.concatenate([si, -qmul(qmul(si, d), si)], axis=-1)


def dqmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dual quaternion matrix product, (m,n,8) @ (n,k,8) -> (m,k,8)."""
    A = _check_dqmat(A)
    B = _check_dqmat(B, "B")
    if A.shape[1] != B.shape[0]:
        raise ShapeMismatchError(f"inner dimensions differ: {A.shape} vs {B.shape}")
    s = qmat_mul(A[..., :4], B[..., :4])
    d = qmat_mul(A[..., :4], B[..., 4:]) + qmat_mul(A[..., 4:], B[..., :4])
    return np.concatenate([s, d], axis=-1)


def dqmat_apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product, (m,n,8) @ (n,8) -> (m,8)."""
    A = _check_dqmat(A)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (A.shape[1], 8):
        raise ShapeMismatchError(f"vector has shape {v.shape}, expected ({A.shape[1]}, 8)")
    return dqmat_mul(A, v[:, None, :])[:, 0, :]


def dqvec_to_scalars(v: np.ndarray) -> list[DualQuaternion]:
    return [DualQuaternion(Quaternion(*row[:4]), Quaternion(*row[4:]))
            for row in np.asarray(v, dtype=np.float64).tolist()]


def fr_norm(M: np.ndarray) -> float:
    """Frobenius norm over every real component (works for any of the array kinds)."""
    return float(np.linalg.norm(np.asarray(M, dtype=np.float64)))


__all__ = [
    "RANK_TOL", "SOLVE_TOL", "ShapeMismatchError",
    "qconj", "qmul", "qmat_mul", "qmat_conj_transpose",
    "real_expand", "complex_adjoint",
    "QuatLeastSquares", "qsolve", "is_consistent", "rank",
    "dq_standard", "dq_dual", "dq_join", "dqconj", "dqmul", "dqinv",
    "dqmat_mul", "dqmat_apply",
    "dqvec_to_scalars", "fr_norm",
]
