"""Balance / feasibility checking for weighted digraphs.

Four decision procedures are provided:

* `direct_method` -- takes the spanning-tree potential as the null vector of
  the weighted Laplacian; only when the potential fails on some arc does it
  solve the null system in two least-squares stages (standard part, then
  dual part) to name the stage that fails; a failing arc excludes a balanced
  verdict.  The stages run in the frame switched by the potential, where
  the Laplacian is the real unweighted one less a correction on the arcs K
  that do not factor through the potential: one real factorization of a
  reduced unweighted Laplacian and one of its transpose, and a Woodbury
  system in |K| quaternion unknowns (`_switched_solves`).  Each stage's
  least-squares residual is the component of its right-hand side along the
  left null vector ``ell`` of the reduced standard matrix, and the solution
  solves the right-hand side projected off ``ell``.  Without a vertex that
  every vertex reaches, or with a rank-deficient capacitance matrix (or a K
  too large for the Woodbury system to pay), the stages take one SVD of the
  dense Laplacian's standard part instead (`_null_space_pipeline`).
* `gain_graph_method` -- the same on the symmetrization of the digraph, a
  gain graph with a Hermitian Laplacian.
* `cycle_oracle` -- brute force: enumerates every simple cycle and tests
  that its oriented weight product is neutral (`_cycle_defects`).  The
  enumeration extends all start vertices' paths one vertex per level over
  arrays, each path within one biconnected block, and yields the cycles
  already canonical and sorted (`graphs.enumerate_cycles`).  The cycles stay flat arrays
  (`graphs.CycleView`) from the enumeration through the products; only the
  witness becomes an `OrientedCycle`.  Intended as a desk-scale reference,
  not a production path.
* `wdg_similarity_method` -- propagates a potential over a spanning tree
  by pointer doubling and checks every arc against it (`_tree_potential`).

Balance is equivalent to the weights factoring as
``theta(i)^-1 theta(j) c_ij`` with positive real ``c_ij`` (``c_ij = 1`` and
``theta = f`` with ``weight(i,j) == conj(f_i) f_j`` for unit weights).  Every
balanced verdict, whichever method reached it, is certified the same way:
its potential must conjugate the weighted Laplacian of the input graph onto
the magnitude Laplacian (`wdg_similarity_check`, `potential_certified`).

All checkers are pure functions of an immutable graph; distinct graphs may
be checked concurrently.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import APPRECIABLE_TOL, DualQuaternion
from . import linalg
from .graphs import (
    CycleView,
    OrientedCycle,
    WeightedDigraph,
    arc_positions,
    build,
    cycle_products,
    enumerate_cycles,
    has_directed_spanning_tree,
    laplacian,
    laplacian_entries,
    mother_vertex,
    spanning_forest,
    step_weights,
    unweighted_laplacian,
)

# Residual threshold below which a similarity / neutrality certificate is
# accepted as balanced.
BALANCE_TOL = 1e-8

# Tolerances for the intermediate checks of the pipeline, the symmetry and
# orthogonality ones relative to the 8-component norm of their weight or entry.
SYMMETRY_TOL = 1e-8
UNIT_CHECK_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-8


class NotConnectedError(ValueError):
    """The method requires a weakly connected graph."""


class NotUnitWeightTypeError(ValueError):
    """The method applies to unit weight types only."""


class NonInvertibleThetaError(ValueError):
    """A potential value is not appreciable, hence not invertible."""


class Verdict(str, Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"
    INDETERMINATE = "indeterminate"


class Method(str, Enum):
    DIRECT = "direct"
    GAIN_GRAPH = "gain_graph"
    CYCLE_ORACLE = "cycle_oracle"
    WDG_SIMILARITY = "wdg_similarity"


class FailureStage(str, Enum):
    SYMMETRY_CHECK = "symmetry_check"
    STANDARD_SOLVE = "standard_solve"
    UNIT_CHECK = "unit_check"
    DUAL_SOLVE = "dual_solve"
    ORTHOGONALITY_CHECK = "orthogonality_check"
    SIMILARITY_CHECK = "similarity_check"
    ASSUMPTION_RANK = "assumption_rank"
    CYCLE_FOUND = "cycle_found"


class FormationView(Sequence):
    """Read-only ``Sequence[DualQuaternion]`` view of an (n, 8) array; item
    ``v - 1`` is vertex v's value, built on access.

    ``np.asarray`` gives the read-only array itself, without a copy.  Views
    compare and hash by value.
    """

    def __init__(self, array: np.ndarray):
        self._array = np.asarray(array, dtype=np.float64).reshape(-1, 8)     # a new view
        self._array.setflags(write=False)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return FormationView(self._array[k])
        return DualQuaternion.from_array(self._array[operator.index(k)])

    def __len__(self) -> int:
        return len(self._array)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._array, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if not isinstance(other, FormationView):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __hash__(self):
        return hash(tuple(self._array.ravel().tolist()))

    def __repr__(self) -> str:
        return f"FormationView({self._array.tolist()!r})"


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of a balance check.

    ``formation`` is present on balanced verdicts, a `FormationView` of an
    (n, 8) array, row v - 1 for vertex v.  Every method reports the same kind
    per weight type: for unit weight types the formation vector (satisfying
    ``weight(i,j) == conj(f_i) * f_j`` on every arc), for general weights the
    inverse-potential vector.  ``err`` is the similarity residual of the
    potential certificate (`wdg_similarity_check`); ``witness`` carries a
    non-neutral cycle when one is known.
    """

    verdict: Verdict
    method: Method
    formation: FormationView | None = None
    err: float | None = None
    failure_stage: FailureStage | None = None
    witness: OrientedCycle | None = None
    seconds: float | None = None


@dataclass(frozen=True)
class PotentialAssignment:
    """Vertex potential ``theta`` and positive arc scalars ``c``.

    Valid when ``weight(i,j) == theta(i)^-1 * theta(j) * c[(i,j)]`` on every
    arc within tolerance.
    """

    theta: dict[int, DualQuaternion]
    c: dict[tuple[int, int], float]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The potentials as an (n, 8) array, row v - 1 for vertex v."""
        return np.array([self.theta[v] for v in sorted(self.theta)], dtype=dtype)


@dataclass(frozen=True)
class StandardSolveResult:
    x: np.ndarray                 # (n, 4); first entry pinned to 1
    consistent: bool
    unit: bool
    reduced_full_rank: bool
    solver: linalg.QuatLeastSquares | None    # None in the switched frame, always full rank


@dataclass(frozen=True)
class DualSolveResult:
    x: np.ndarray                 # (n, 4); first entry pinned to 0
    consistent: bool
    orthogonal: bool


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

def check_symmetry_pairs(g: WeightedDigraph) -> tuple[int, int] | None:
    """First antiparallel pair with ``|w_ij - conj(w_ji)| > SYMMETRY_TOL * |w_ij|``, if any."""
    tails, heads, W = g.graph.tails, g.graph.heads, g.weight_array
    reverse = arc_positions(g.graph, heads + 1, tails + 1)
    pairs = np.flatnonzero((tails < heads) & (reverse >= 0))
    defect = np.linalg.norm(W[pairs] - linalg.dqconj(W[reverse[pairs]]), axis=1)
    bad = pairs[defect > SYMMETRY_TOL * np.linalg.norm(W[pairs], axis=1)]
    return g.arcs[bad[0]] if len(bad) else None


def solve_standard_part(L: np.ndarray) -> StandardSolveResult:
    """Stage one: pin the first entry to 1 and solve the reduced standard system.

    Splitting the standard part into its first column ``c1`` and remainder
    ``C``, solves ``C x2 = -c1`` by minimum-norm least squares; the full
    vector is ``[1; x2]``.  ``unit`` records whether every entry has unit
    magnitude (a non-unit entry cannot be repaired by the residual
    right-multiplication freedom of the null space).
    """
    Ls = linalg.dq_standard(L)
    c1 = Ls[:, 0, :]
    solver = linalg.QuatLeastSquares(Ls[:, 1:, :])
    x2, residual = solver.solve(-c1)
    consistent = linalg.is_consistent(residual, c1)
    x = np.vstack([np.array([[1.0, 0.0, 0.0, 0.0]]), x2])
    return StandardSolveResult(x, consistent, _unit(x), solver.full_column_rank, solver)


def _unit(x: np.ndarray) -> bool:
    """Whether every entry of a quaternion vector has magnitude 1 within ``UNIT_CHECK_TOL``."""
    return bool(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= UNIT_CHECK_TOL)


def _orthogonal(x_s: np.ndarray, x_d: np.ndarray) -> bool:
    """Whether ``2 Re(x_sj * conj(x_dj)) == 0`` for every entry, within
    ``ORTHOGONALITY_TOL`` times the entry's 8-component norm."""
    defect = np.abs(2.0 * np.sum(x_s * x_d, axis=1))
    return bool(np.all(defect <= ORTHOGONALITY_TOL * np.linalg.norm(np.hstack([x_s, x_d]), axis=1)))


def solve_dual_part(L: np.ndarray, x_s: np.ndarray,
                    solver: linalg.QuatLeastSquares) -> DualSolveResult:
    """Stage two: pin the first dual entry to 0 and solve for the dual part.

    The right-hand side is ``-(dual part of L) @ x_s``; the coefficient
    matrix is the same reduced standard block as in stage one, so ``solver``
    is stage one's factorization of it.  ``orthogonal`` is `_orthogonal`.
    """
    rhs = -linalg.qmat_mul(linalg.dq_dual(L), x_s[:, None, :])[:, 0, :]
    x2, residual = solver.solve(rhs)
    x = np.vstack([np.zeros((1, 4)), x2])
    return DualSolveResult(x, linalg.is_consistent(residual, rhs), _orthogonal(x_s, x))


def _conjugation_residual(rows: np.ndarray, target: np.ndarray, left: np.ndarray,
                          products: np.ndarray) -> float:
    """Frobenius norm of ``diag(left) M diag(right) - T`` from M's and T's nonzeros.

    ``products`` (shape (k, 8)) and ``target`` (shape (k,)) hold ``M diag(right)``
    and the real matrix T at the 0-based positions ``(rows, cols)``, which must
    cover every nonzero entry of M and T.  Every other entry of the difference
    is an exact zero for finite ``left`` and ``right``, so this is the norm over
    all n x n x 8 real components.
    """
    prod = linalg.dqmul(left[rows], products)
    prod[:, 0] -= target
    return linalg.fr_norm(prod)


def similarity_residual(L_hat: np.ndarray, x: np.ndarray, L: np.ndarray) -> float:
    """Residual of conjugating the weighted Laplacian onto a real one.

    ``x`` is the null-system solution with unit entries; the diagonal
    conjugation uses its entrywise conjugate:
    ``err = | diag(conj(x)) L_hat diag(x) - L |`` over all real components.
    Only the entries where ``L_hat`` or ``L`` is nonzero (the diagonal and
    the arcs) are multiplied out.
    """
    x = np.asarray(x, dtype=np.float64)
    L_hat = np.asarray(L_hat, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    rows, cols = np.nonzero(np.any(L_hat != 0.0, axis=2) | (L != 0.0))
    return _conjugation_residual(rows, L[rows, cols], linalg.dqconj(x),
                                 linalg.dqmul(L_hat[rows, cols], x[cols]))


def _staged_report(g: WeightedDigraph, std: StandardSolveResult,
                   dual_part: Callable[[np.ndarray], DualSolveResult],
                   method: Method) -> BalanceReport:
    """The verdict of the staged solves of ``L_hat x = 0``: the first stage that
    fails, else the potential certificate of ``conj(x)`` on the arcs of ``g``.

    ``dual_part`` solves the dual stage for the standard solution.
    """
    # rank([c1 C]) = rank(C) + 1 exactly when C x2 = -c1 is inconsistent, so a
    # deficient C leaves rank n - 1 only if one short and inconsistent.
    if not std.reduced_full_rank and (std.consistent or std.solver.rank != 4 * (g.n - 2)):
        return BalanceReport(Verdict.INDETERMINATE, method,
                             failure_stage=FailureStage.ASSUMPTION_RANK)
    if not std.consistent:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.STANDARD_SOLVE)
    if not std.unit:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.UNIT_CHECK)
    dual = dual_part(std.x)
    if not dual.consistent:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.DUAL_SOLVE)
    if not dual.orthogonal:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.ORTHOGONALITY_CHECK)
    return _potential_report(g, linalg.dqconj(linalg.dq_join(std.x, dual.x)), method)


def _null_space_pipeline(g: WeightedDigraph, L_hat: np.ndarray,
                         method: Method) -> BalanceReport:
    """`_staged_report` for a dense Laplacian ``L_hat`` of ``g``: both stages
    solve with one SVD of the reduced standard block (`QuatLeastSquares`)."""
    std = solve_standard_part(L_hat)
    return _staged_report(g, std, lambda x_s: solve_dual_part(L_hat, x_s, std.solver), method)


def _capacitance(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The quaternion matrix ``I - diag(S) H``, ``H`` real."""
    A = -S[:, None, :] * H[:, :, None]
    A[np.arange(len(S)), np.arange(len(S)), 0] += 1.0
    return A


def _switched_solves(s: WeightedDigraph, theta: np.ndarray):
    """The staged solves of ``L_hat x = 0``, ``L_hat`` the Laplacian of the unit
    graph ``s``, in the frame switched by the potential ``theta`` (row v - 1
    for vertex v, ``theta_1 = 1``).

    Returns the standard stage and the dual stage's function, as
    `_staged_report` takes them, or None where the dense pipeline runs: ``s``
    has no `mother_vertex`, the real expansion of the capacitance system
    below (4|K| rows) would outgrow the complex adjoint that the dense
    pipeline factors (2n rows), or a capacitance matrix is rank-deficient to
    its `QuatLeastSquares`, which otherwise solves every system in it.

    With ``z = theta x`` entrywise, ``L_hat x = 0`` holds exactly when
    ``L' z = 0``, where L' has the switched weights
    ``u_e = theta_t w_e conj(theta_h)``, and ``z_1 = x_1``.  Arcs that factor
    through the potential have ``u_e = 1``; K holds the rest
    (``|u_e - 1| > RANK_TOL |w_e|``), so that
    ``L' = L0 - sum_K e_t (u_e - 1) e_h^T`` with L0 the real unweighted
    Laplacian.  Pinning column 1 and dropping the row of a vertex r that
    every vertex reaches leaves a real matrix M of L0 that is nonsingular:
    its cofactor counts the spanning trees directed to r.  M and M^T are
    factored once each, and the quaternion work is a Woodbury (1950) system
    in the |K| unknowns ``(u_e - 1) z_h``, with capacitance
    ``I - diag(S) H``: ``S_e`` is the standard part of ``u_e - 1`` and H
    holds the entries of M^-1 at the heads (rows) and tails (columns) of K.

    The least-squares semantics of `_null_space_pipeline` are kept.  The
    switching is unitary on the standard part, so residuals and magnitudes
    carry over.  The left null vector ``ell`` of the reduced n x (n - 1)
    standard matrix, with ``ell_r = 1``, comes from the Woodbury solve with
    M^T.  A stage's least-squares residual is ``|ell* b| / |ell|``; less its
    component along ``ell``, ``b`` is consistent, and the square system of
    the rows other than r solves it.  The dual stage's right-hand side,
    ``-L'_d z - p (L'_s z)`` with ``p = theta_s conj(theta_d)``, lies in the
    span of the tail columns of K and of ``ell`` and ``p ell``, which M
    solves with the rest; its consistency is judged against the norm of the
    unswitched right-hand side, as in the dense pipeline.
    """
    n, tails, heads, W = s.n, s.graph.tails, s.graph.heads, s.weight_array
    u = linalg.dqmul(linalg.dqmul(theta[tails], W), linalg.dqconj(theta[heads]))
    u[:, 0] -= 1.0
    K = np.flatnonzero(np.linalg.norm(u, axis=1) > linalg.RANK_TOL * np.linalg.norm(W, axis=1))
    root = mother_vertex(s.graph) if 2 * len(K) <= n else None
    if root is None:
        return None
    r, t, h, S = root - 1, tails[K], heads[K], u[K, :4]

    def unit_columns(ends: np.ndarray) -> np.ndarray:
        out = np.zeros((n, len(K)))
        out[ends, np.arange(len(K))] = 1.0
        return out

    L0 = unweighted_laplacian(s.graph)
    rows = np.delete(np.arange(n), r)
    M = L0[rows, 1:]
    # Solutions are held at full length: row r of ``left`` is ell_r (1 in
    # column 0, 0 elsewhere) and row 0 of ``right`` the pinned entry, 0.
    left = np.zeros((n, 1 + len(K)))
    left[rows] = np.linalg.solve(M.T, np.column_stack([-L0[r, 1:], unit_columns(h)[1:]]))
    left[r, 0] = 1.0
    # ell = left[:, 0] + left[:, 1:] c with c_e = conj(S_e) ell_{t_e}, and H^T = left[t, 1:].
    A_left = linalg.QuatLeastSquares(_capacitance(linalg.qconj(S), left[t, 1:]))
    A_right = linalg.QuatLeastSquares(_capacitance(S, left[t, 1:].T))
    if not (A_left.full_column_rank and A_right.full_column_rank):
        return None
    ell = left[:, 1:] @ A_left.solve(linalg.qconj(S) * left[t, :1])[0]
    ell[:, 0] += left[:, 0]
    ell_sq = float(np.sum(ell * ell))
    f_s, f_d = theta[:, :4], theta[:, 4:]
    p_ell = linalg.qmul(linalg.qmul(f_s, linalg.qconj(f_d)), ell)
    right = np.zeros((n, len(K) + 9))
    right[1:] = np.linalg.solve(M, np.column_stack([unit_columns(t)[rows], -L0[rows, 0],
                                                    ell[rows], p_ell[rows]]))
    G, M_ell, M_p_ell = right[:, :len(K)], right[:, -8:-4], right[:, -4:]

    def project(b: np.ndarray) -> tuple[np.ndarray, float]:
        """``ell* b / |ell|^2`` and the least-squares residual ``|ell* b| / |ell|``."""
        q = np.sum(linalg.qmul(linalg.qconj(ell), b), axis=0) / ell_sq
        return q, float(np.linalg.norm(q) * np.sqrt(ell_sq))

    def woodbury(y: np.ndarray) -> np.ndarray:
        """``z = y + G sigma`` with ``sigma = diag(S) z_h``, G the M^-1 tail columns."""
        return y + G @ A_right.solve(linalg.qmul(S, y[h]))[0]

    b = np.zeros((n, 4))      # minus the first column of L'_s
    b[:, 0] = -L0[:, 0]
    np.add.at(b, t[h == 0], S[h == 0])
    q, residual = project(b)
    y = -linalg.qmul(M_ell, q)
    y[:, 0] += right[:, len(K)]
    y[0, 0] = 1.0
    z = woodbury(y)           # L'_s z = -ell q
    x_s = linalg.qmul(linalg.qconj(f_s), z)
    std = StandardSolveResult(x_s, linalg.is_consistent(residual, b), _unit(x_s), True, None)

    def dual_part(x_s: np.ndarray) -> DualSolveResult:
        delta = linalg.qmul(u[K, 4:], z[h])   # -L'_d z, arc by arc
        rhs = linalg.qmul(p_ell, q)
        np.add.at(rhs, t, delta)
        q_d, residual = project(rhs)
        z_d = woodbury(G @ delta + linalg.qmul(M_p_ell, q) - linalg.qmul(M_ell, q_d))
        x_d = linalg.qmul(linalg.qconj(f_s), z_d) + linalg.qmul(linalg.qconj(f_d), z)
        unswitched = np.zeros((n, 4))     # -L_hat_d x_s
        np.add.at(unswitched, tails, linalg.qmul(W[:, 4:], x_s[heads]))
        return DualSolveResult(x_d, linalg.is_consistent(residual, unswitched),
                               _orthogonal(x_s, x_d))

    return std, dual_part


# ---------------------------------------------------------------------------
# The decision methods
# ---------------------------------------------------------------------------

def _seeded_decide(g: WeightedDigraph, method: Method) -> BalanceReport:
    """`direct_method` on ``g``, or `gain_graph_method` on its symmetrization.

    Only a graph whose spanning-tree potential has a bad arc runs the staged
    solves, in the frame switched by that potential (`_switched_solves`) or,
    where that frame does not apply, on the dense Laplacian.  The bad arc
    closes a cycle in the spanning forest; it is the witness of every
    unbalanced verdict there, and a verdict of the staged solves that would
    be balanced becomes ``cycle_found``, as in `wdg_similarity_method`.
    """
    name, symmetrize = f"{method.value}_method", method is Method.GAIN_GRAPH
    if not g.weight_type.is_unit:
        raise NotUnitWeightTypeError(f"{name} requires a unit weight type")
    tp = _tree_potential(g)
    if not tp.connected:
        raise NotConnectedError(f"{name} requires a weakly connected graph")
    violation = check_symmetry_pairs(g)
    if violation is not None:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.SYMMETRY_CHECK,
                             witness=OrientedCycle(violation, (True, True)))
    if tp.bad is None:
        # The symmetrization of a connected graph is strongly connected; the
        # digraph itself has rank n - 1 exactly with a directed spanning tree.
        if symmetrize or has_directed_spanning_tree(g.graph):
            return _potential_report(g, tp.theta, method)
        return BalanceReport(Verdict.INDETERMINATE, method,
                             failure_stage=FailureStage.ASSUMPTION_RANK)
    solved = symmetrized_gain_graph(g) if symmetrize else g
    switched = _switched_solves(solved, tp.theta)
    report = (_staged_report(g, *switched, method) if switched is not None
              else _null_space_pipeline(g, laplacian(solved), method))
    if report.verdict is Verdict.BALANCED:
        # The bad arc closes a cycle that is not neutral, whatever the
        # certificate of the staged solution says.
        report = BalanceReport(Verdict.UNBALANCED, method, failure_stage=FailureStage.CYCLE_FOUND)
    if report.verdict is Verdict.UNBALANCED:
        report = replace(report, witness=_closing_cycle(g, *tp.forest, tp.bad))
    return report


def direct_method(g: WeightedDigraph) -> BalanceReport:
    """Decide balance of a unit-weighted connected digraph via its Laplacian.

    Steps: (1) antiparallel weights must be mutual conjugates; (2) the
    spanning-tree potential f (`_tree_potential`, f_1 = 1) is the null
    vector: balance means ``weight(i,j) == conj(f_i) f_j`` on every arc, and
    then ``x = conj(f)`` solves ``L x = 0`` with ``x_1 = 1``.  Without a bad
    arc f is certified (`wdg_similarity_check`): it must conjugate L onto
    the magnitude Laplacian, which for unit weights is the unweighted one.
    (3) Otherwise the reduced standard and dual systems of ``L x = 0`` are
    solved with the first entry pinned, to name the stage that fails.  They
    are solved in the frame switched by f (`_switched_solves`), where
    ``L' = diag(f) L diag(conj f)`` is the real unweighted Laplacian L0 less
    a correction on the arcs K that do not factor through f.  L0 with column
    1 and the row of a vertex r that every vertex reaches removed is
    nonsingular and factored once; a Woodbury system in |K| quaternion
    unknowns does the rest.  Each stage's least-squares residual is the
    component of its right-hand side along the left null vector ``ell`` of
    the reduced standard matrix (``ell_r = 1``), and the solution solves the
    right-hand side projected off ``ell``, as the dense least squares would.
    Two cases fall back to one SVD of the dense Laplacian's standard part
    (`_null_space_pipeline`): no vertex is reached by every vertex (no
    directed spanning tree), or a capacitance matrix is rank-deficient to
    `QuatLeastSquares`; so does a K too large for the Woodbury system to
    be the cheaper (2|K| > n).  A standard part of rank below n-1, as on
    every graph without a directed spanning tree, leaves the null space
    structure unknown and yields an indeterminate verdict.  A bad arc of f
    excludes a balanced verdict: the staged solves then end in
    ``cycle_found`` with the closing cycle as the witness.
    """
    return _seeded_decide(g, Method.DIRECT)


def symmetrized_gain_graph(g: WeightedDigraph) -> WeightedDigraph:
    """Both-orientation closure: every arc gains its reverse with the inverse weight.

    For unit weight types the reverse weight is the conjugate, which makes
    the resulting Laplacian exactly Hermitian.  Call only after the
    antiparallel symmetry check has passed; existing reverse arcs keep their
    own weights.
    """
    lonely = np.flatnonzero(arc_positions(g.graph, g.graph.heads + 1, g.graph.tails + 1) < 0)
    arcs = g.arcs + tuple((g.arcs[k][1], g.arcs[k][0]) for k in lonely)
    rows = np.concatenate([g.weight_array, step_weights(g, lonely, np.zeros(lonely.shape, bool))])
    return build(g.n, arcs, rows, g.weight_type)


def gain_graph_method(g: WeightedDigraph) -> BalanceReport:
    """Decide balance by passing to the symmetrized (Hermitian) gain graph.

    A potential function transfers between the digraph and its
    symmetrization, so the verdict there is the verdict here.  The steps are
    those of `direct_method`, with the staged solves on the symmetrization,
    switched by the same potential (K then holds both orientations of each
    arc that does not factor); the potential is certified on the input
    graph's own arcs.
    """
    return _seeded_decide(g, Method.GAIN_GRAPH)


def is_neutral(w: DualQuaternion, tol: float = BALANCE_TOL) -> bool:
    """True when ``w`` is a positive real with zero dual part, within tolerance."""
    vec = np.array([w.s.x, w.s.y, w.s.z])
    return (w.s.w > 0.0
            and float(np.linalg.norm(vec)) <= tol
            and w.d.norm() <= tol)


def _cycle_defects(g: WeightedDigraph, cycles: Sequence[OrientedCycle]) -> np.ndarray:
    """Each cycle's distance from neutrality, relative to the size of its steps.

    The distance is ``|product - 1|`` over all components, divided by the
    largest 8-component norm among the cycle's steps, whose rounding it
    carries.  For general weight types every step is first divided by its
    standard magnitude, a positive real per arc, which cannot change balance.
    The product then has unit standard magnitude, it is neutral exactly when
    it is 1, and the distance depends neither on the scale of the weights nor
    on the translations of unit ones.  ``cycles`` is a `CycleView` or any
    sequence of `OrientedCycle`.
    """
    W = g.weight_array
    if not g.weight_type.is_unit:
        W = W / np.linalg.norm(W[:, :4], axis=1, keepdims=True)
        g = replace(g, weight_array=W)
    view = CycleView.of(cycles)
    prod = cycle_products(g, view)
    prod[:, 0] -= 1.0
    # A step and its inverse have the same norm once |w_s| = 1.
    norms = np.linalg.norm(W, axis=1)[arc_positions(g.graph, *view.arcs())]
    return np.linalg.norm(prod, axis=1) / np.maximum.reduceat(norms, view.starts)


def cycle_deviation(g: WeightedDigraph, cycle: OrientedCycle) -> float:
    """How far the oriented cycle product is from neutrality, relative to its
    largest step (see `_cycle_defects`)."""
    return float(_cycle_defects(g, [cycle])[0])


def cycle_oracle(g: WeightedDigraph, max_cycles: int = 10 ** 6) -> BalanceReport:
    """Brute-force verdict: every simple cycle's oriented product must be neutral.

    Each cycle's `_cycle_defects` distance, relative to its largest step,
    must be at most ``BALANCE_TOL``:
    unit weight types require the product to equal 1, general weights a
    positive real dual number.  The cycles of `enumerate_cycles` are tested
    as its flat arrays, all at once; the first offending cycle, in its
    order, is the one built as an `OrientedCycle` and returned as the
    witness.  If enumeration hits ``max_cycles``, a non-negative integer
    (anything else raises ``ValueError``), the verdict is indeterminate.  A
    balanced verdict must also pass the spanning-tree potential's
    certificate, as in `wdg_similarity_method`.
    """
    enum = enumerate_cycles(g.graph, max_cycles)
    if enum.truncated:
        return BalanceReport(Verdict.INDETERMINATE, Method.CYCLE_ORACLE)
    off = ~(_cycle_defects(g, enum.cycles) <= BALANCE_TOL)
    if np.any(off):
        return BalanceReport(Verdict.UNBALANCED, Method.CYCLE_ORACLE,
                             failure_stage=FailureStage.CYCLE_FOUND,
                             witness=enum.cycles[int(np.argmax(off))])
    return _potential_report(g, _tree_potential(g).theta, Method.CYCLE_ORACLE)


# ---------------------------------------------------------------------------
# Potential functions (general weight groups)
# ---------------------------------------------------------------------------

class _TreePotential(NamedTuple):
    """The BFS spanning-forest potential of a graph and what it shows."""

    theta: np.ndarray               # (n, 8), row v - 1 for vertex v; unit standard magnitude
    connected: bool                 # one root: the graph is weakly connected
    bad: int | None                 # first arc that fails to factor through theta
    c: np.ndarray                   # (m,) positive arc scalars, |w_s|
    forest: tuple[np.ndarray, np.ndarray]   # the `spanning_forest` it was propagated over


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=1)``, with finite rows whose squares overflow
    divided by their largest component before the sum and multiplied back."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
        big = np.flatnonzero(np.isinf(norms))
        big = big[np.all(np.isfinite(a[big]), axis=1)]
        if len(big):
            scale = np.max(np.abs(a[big]), axis=1)
            norms[big] = scale * np.linalg.norm(a[big] / scale[:, None], axis=1)
    return norms


def _tree_potential(g: WeightedDigraph) -> _TreePotential:
    """Vertex potentials propagated over the BFS spanning forest (see `spanning_forest`).

    Roots get potential 1 and every other vertex the product of the steps on
    its tree path from the root: the weight along forward tree arcs, its
    inverse along backward ones.  The products are formed by pointer doubling
    (Wyllie's list ranking): each vertex starts with its own step and its
    parent as ancestor, and each round left-multiplies a vertex's product by
    its ancestor's and jumps to the ancestor's ancestor, until every ancestor
    is a root.  That is ceil(log2 depth) rounds over whole arrays.  Every
    product is divided by its standard magnitude (a positive real, which the
    arc scalars absorb).  Every arc is then checked against
    ``theta(i)^-1 theta(j) c_ij`` within ``BALANCE_TOL * |w|``, relative to
    its weight at every scale, with the scalar its magnitude forces,
    ``c_ij = |w_s(i,j)|`` as every potential has unit standard magnitude.
    """
    parent_arc, _ = forest = spanning_forest(g.graph)
    child = np.flatnonzero(parent_arc >= 0)
    tree = parent_arc[child]
    forward = g.graph.heads[tree] == child
    steps = step_weights(g, tree, forward)
    theta = np.tile(np.eye(1, 8), (g.n, 1))     # roots keep potential 1
    theta[child] = steps / np.linalg.norm(steps[:, :4], axis=1, keepdims=True)
    ancestor = np.arange(g.n)
    ancestor[child] = np.where(forward, g.graph.tails[tree], g.graph.heads[tree])
    live = child[parent_arc[ancestor[child]] >= 0]      # ancestor not yet a root
    while len(live):
        up = ancestor[live]
        rows = linalg.dqmul(theta[up], theta[live])
        theta[live] = rows / np.linalg.norm(rows[:, :4], axis=1, keepdims=True)
        ancestor[live] = ancestor[up]
        live = live[parent_arc[ancestor[live]] >= 0]
    tails, heads, W = g.graph.tails, g.graph.heads, g.weight_array
    c = np.linalg.norm(W[:, :4], axis=1)
    predicted = linalg.dqmul(linalg.dqinv(theta[tails]), theta[heads]) * c[:, None]
    bad = np.flatnonzero(_row_norms(W - predicted) > BALANCE_TOL * np.linalg.norm(W, axis=1))
    connected = int(np.count_nonzero(parent_arc < 0)) == 1     # one root per weak component
    return _TreePotential(theta, connected, int(bad[0]) if len(bad) else None, c, forest)


def build_potential(g: WeightedDigraph) -> PotentialAssignment | None:
    """Construct and verify a potential function, or report that none exists.

    The potential is seeded over a BFS spanning tree rooted at vertex 1 and
    normalised to unit standard magnitude at every vertex; every arc is then
    checked against the factorization with its magnitude-forced scalar.
    Absence of a potential is equivalent to some cycle being non-neutral.
    """
    tp = _tree_potential(g)
    if not tp.connected:
        raise NotConnectedError("build_potential requires a weakly connected graph")
    if tp.bad is not None:
        return None
    return PotentialAssignment({v: DualQuaternion.from_array(row)
                                for v, row in enumerate(tp.theta, start=1)},
                               dict(zip(g.arcs, tp.c.tolist())))


def _inverse_potential(theta: np.ndarray) -> np.ndarray:
    """Rows ``theta^-1 * |theta_s|`` (unit standard magnitude by construction)."""
    return linalg.dqinv(theta / np.linalg.norm(theta[:, :4], axis=1, keepdims=True))


def wdg_similarity_check(g: WeightedDigraph, assignment) -> tuple[float, float]:
    """Certify a potential: conjugation onto the magnitude Laplacian and null residual.

    Returns ``(err, null_residual)`` where ``err`` is the deviation of
    ``diag(y)^-1 L_hat diag(y)`` from the real Laplacian with entries
    ``|standard part|``, and ``null_residual = |L_hat y|``, for the
    inverse-potential vector ``y``.  Both are small exactly when the
    assignment is a genuine potential (see `potential_certified`).  Both are
    evaluated on the diagonal and the arcs only, where the Laplacians can be
    nonzero.  ``assignment`` is a `PotentialAssignment` or its potentials as
    an (n, 8) array, row v - 1 for vertex v: anything that converts to that
    array.
    """
    theta = np.asarray(assignment, dtype=np.float64).reshape(g.n, 8)
    appreciable = np.linalg.norm(theta[:, :4], axis=1) > APPRECIABLE_TOL
    if not appreciable.all():
        raise NonInvertibleThetaError(f"theta({int(np.argmin(appreciable)) + 1}) "
                                      "is not appreciable")
    y = _inverse_potential(theta)
    y_inv = theta / np.linalg.norm(theta[:, :4], axis=1, keepdims=True)  # = y^-1, no second dqinv
    rows, cols, L_hat, magnitudes = laplacian_entries(g)
    L_hat_diag_y = linalg.dqmul(L_hat, y[cols])     # both residuals start from these products
    err = _conjugation_residual(rows, magnitudes, y_inv, L_hat_diag_y)
    L_hat_y = np.zeros_like(y)
    np.add.at(L_hat_y, rows, L_hat_diag_y)
    return err, linalg.fr_norm(L_hat_y)


def potential_certified(g: WeightedDigraph, err: float, null_residual: float) -> bool:
    """Whether a `wdg_similarity_check` certificate passes.

    Both residuals must be at most ``BALANCE_TOL * max_k |w_k|``, the
    per-arc tolerance of the potential check at the largest weight, so the
    gate scales with the weights.  NaN residuals fail.
    """
    tol = BALANCE_TOL * float(np.max(np.linalg.norm(g.weight_array, axis=1), initial=0.0))
    return err <= tol and null_residual <= tol


def _potential_report(g: WeightedDigraph, theta: np.ndarray, method: Method) -> BalanceReport:
    """Verdict of the potential certificate, with the formation the potential gives.

    The formation is ``f`` with ``weight(i,j) == conj(f_i) * f_j`` for unit
    weight types, which is the potential itself, and the inverse potential
    otherwise.
    """
    err, null_residual = wdg_similarity_check(g, theta)
    if not potential_certified(g, err, null_residual):
        return BalanceReport(Verdict.UNBALANCED, method, err=err,
                             failure_stage=FailureStage.SIMILARITY_CHECK)
    formation = theta if g.weight_type.is_unit else _inverse_potential(theta)
    return BalanceReport(Verdict.BALANCED, method, err=err, formation=FormationView(formation))


def wdg_similarity_method(g: WeightedDigraph) -> BalanceReport:
    """Balance verdict for arbitrary weight groups via the potential route.

    Builds the spanning-tree potential; a failing arc closes a non-neutral
    cycle with its tree path, which is returned as the witness.  On success
    the similarity certificate provides the residual.
    """
    tp = _tree_potential(g)
    if not tp.connected:
        raise NotConnectedError("wdg_similarity_method requires a weakly connected graph")
    if tp.bad is not None:
        return BalanceReport(Verdict.UNBALANCED, Method.WDG_SIMILARITY,
                             failure_stage=FailureStage.CYCLE_FOUND,
                             witness=_closing_cycle(g, *tp.forest, tp.bad))
    return _potential_report(g, tp.theta, Method.WDG_SIMILARITY)


def _closing_cycle(g: WeightedDigraph, parent_arc: np.ndarray, depth: np.ndarray,
                   k: int) -> OrientedCycle:
    """The simple cycle formed by arc ``k`` plus its ends' path in the `spanning_forest`.

    Each tree step runs along the arc the spanning tree used, so the cycle's
    product is the one the potential was propagated over, also between two
    vertices joined by arcs both ways.
    """
    u, v = g.arcs[k]
    up_u, up_v = [u], [v]     # both ends climb to their lowest common ancestor
    while up_u[-1] != up_v[-1]:
        deeper = up_u if depth[up_u[-1] - 1] >= depth[up_v[-1] - 1] else up_v
        tail, head = g.arcs[parent_arc[deeper[-1] - 1]]
        deeper.append(tail if head == deeper[-1] else head)
    # u -> v along the arc, v up to the meeting vertex, then down to u.
    vertices = [u] + up_v[:-1] + up_u[:0:-1]
    forward = ([True] + [g.arcs[parent_arc[x - 1]][0] == x for x in up_v[:-1]]
               + [g.arcs[parent_arc[x - 1]][1] == x for x in up_u[-2::-1]])
    return OrientedCycle(tuple(vertices), tuple(forward))


def relative_configuration_residual(g: WeightedDigraph, formation) -> float:
    """Worst-arc deviation of ``weight(i,j)`` from ``conj(f_i) * f_j``."""
    f = np.array(formation, dtype=np.float64).reshape(g.n, 8)
    predicted = linalg.dqmul(linalg.dqconj(f[g.graph.tails]), f[g.graph.heads])
    return float(np.max(np.linalg.norm(g.weight_array - predicted, axis=1), initial=0.0))


def check_balance(g: WeightedDigraph, method: Method | str) -> BalanceReport:
    """Dispatch to one of the balance methods, recording wall time."""
    method = Method(method)
    dispatch = {
        Method.DIRECT: direct_method,
        Method.GAIN_GRAPH: gain_graph_method,
        Method.CYCLE_ORACLE: cycle_oracle,
        Method.WDG_SIMILARITY: wdg_similarity_method,
    }
    start = time.perf_counter()
    report = dispatch[method](g)
    return replace(report, seconds=time.perf_counter() - start)
