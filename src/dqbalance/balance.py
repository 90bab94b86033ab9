"""Balance / feasibility checking for weighted digraphs.

Four decision procedures are provided:

* `direct_method` -- solves the weighted Laplacian null system in two
  least-squares stages (standard part, then dual part).
* `gain_graph_method` -- symmetrizes the digraph into a gain graph with a
  Hermitian Laplacian and runs the same staged solves there.
* `cycle_oracle` -- brute force: enumerates every simple cycle and tests
  that its oriented weight product is neutral (`_cycle_defects`).  Intended
  as a desk-scale reference, not a production path.
* `wdg_similarity_method` -- propagates a potential over a spanning tree
  and checks every arc against it (`_tree_potential`).

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

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import APPRECIABLE_TOL, DualQuaternion
from . import linalg
from .graphs import (
    OrientedCycle,
    WeightedDigraph,
    arc_positions,
    build,
    cycle_products,
    enumerate_cycles,
    is_weakly_connected,
    laplacian,
    laplacian_entries,
    spanning_forest,
    step_weights,
)

# Residual threshold below which a similarity / neutrality certificate is
# accepted as balanced.
BALANCE_TOL = 1e-8

# Componentwise tolerances for the intermediate checks of the pipeline.
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


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of a balance check.

    ``formation`` is present on balanced verdicts.  Every method reports the
    same kind per weight type: for unit weight types the formation vector
    (satisfying ``weight(i,j) == conj(f_i) * f_j`` on every arc), for general
    weights the inverse-potential vector.  ``err`` is the similarity residual
    of the potential certificate (`wdg_similarity_check`); ``witness``
    carries a non-neutral cycle when one is known.
    """

    verdict: Verdict
    method: Method
    formation: tuple[DualQuaternion, ...] | None = None
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
    solver: linalg.QuatLeastSquares


@dataclass(frozen=True)
class DualSolveResult:
    x: np.ndarray                 # (n, 4); first entry pinned to 0
    consistent: bool
    orthogonal: bool


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

def check_symmetry_pairs(g: WeightedDigraph,
                         tol: float = SYMMETRY_TOL) -> tuple[int, int] | None:
    """First antiparallel pair whose weights are not mutual conjugates, if any."""
    tails, heads, W = g.graph.tails, g.graph.heads, g.weight_array
    reverse = arc_positions(g.graph, heads + 1, tails + 1)
    pairs = np.flatnonzero((tails < heads) & (reverse >= 0))
    defect = np.linalg.norm(W[pairs] - linalg.dqconj(W[reverse[pairs]]), axis=1)
    bad = pairs[defect > tol]
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
    mags = np.linalg.norm(x, axis=1)
    unit = bool(np.max(np.abs(mags - 1.0)) <= UNIT_CHECK_TOL)
    return StandardSolveResult(x, consistent, unit, solver.full_column_rank, solver)


def solve_dual_part(L: np.ndarray, x_s: np.ndarray,
                    solver: linalg.QuatLeastSquares) -> DualSolveResult:
    """Stage two: pin the first dual entry to 0 and solve for the dual part.

    The right-hand side is ``-(dual part of L) @ x_s``; the coefficient
    matrix is the same reduced standard block as in stage one, so ``solver``
    is stage one's factorization of it.  ``orthogonal`` records whether
    ``2 Re(x_sj * conj(x_dj)) == 0`` for every entry.
    """
    rhs = -linalg.qmat_mul(linalg.dq_dual(L), x_s[:, None, :])[:, 0, :]
    x2, residual = solver.solve(rhs)
    consistent = linalg.is_consistent(residual, rhs)
    x = np.vstack([np.zeros((1, 4)), x2])
    ortho = bool(np.max(np.abs(2.0 * np.sum(x_s * x, axis=1))) <= ORTHOGONALITY_TOL)
    return DualSolveResult(x, consistent, ortho)


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


def _require_unit_connected(g: WeightedDigraph, method: str) -> None:
    if not g.weight_type.is_unit:
        raise NotUnitWeightTypeError(f"{method} requires a unit weight type")
    if not is_weakly_connected(g.graph):
        raise NotConnectedError(f"{method} requires a weakly connected graph")


def _null_space_pipeline(g: WeightedDigraph, L_hat: np.ndarray,
                         method: Method) -> BalanceReport:
    """Shared stages 2-3 for a Laplacian ``L_hat`` of ``g``: reduced solves of
    ``L_hat x = 0``, unit/orthogonality gates, then the potential certificate
    of ``conj(x)`` on the arcs of ``g``."""
    std = solve_standard_part(L_hat)
    if not std.reduced_full_rank:
        if linalg.rank(linalg.dq_standard(L_hat)) < g.n - 1:
            return BalanceReport(Verdict.INDETERMINATE, method,
                                 failure_stage=FailureStage.ASSUMPTION_RANK)
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.STANDARD_SOLVE)
    if not std.consistent:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.STANDARD_SOLVE)
    if not std.unit:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.UNIT_CHECK)
    dual = solve_dual_part(L_hat, std.x, std.solver)
    if not dual.consistent:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.DUAL_SOLVE)
    if not dual.orthogonal:
        return BalanceReport(Verdict.UNBALANCED, method,
                             failure_stage=FailureStage.ORTHOGONALITY_CHECK)
    return _potential_report(g, linalg.dqconj(linalg.dq_join(std.x, dual.x)), method)


# ---------------------------------------------------------------------------
# The decision methods
# ---------------------------------------------------------------------------

def direct_method(g: WeightedDigraph) -> BalanceReport:
    """Decide balance of a unit-weighted connected digraph via its Laplacian.

    Steps: (1) antiparallel weights must be mutual conjugates; (2) solve the
    reduced standard and dual systems of ``L x = 0`` with the first entry
    pinned; (3) certify ``conj(x)`` as a potential (`wdg_similarity_check`):
    it must conjugate L onto the magnitude Laplacian, which for unit weights
    is the unweighted one.  A rank-deficient standard part (below n-1) leaves
    the null space structure unknown and yields an indeterminate verdict.
    """
    _require_unit_connected(g, "direct_method")
    violation = check_symmetry_pairs(g)
    if violation is not None:
        return BalanceReport(Verdict.UNBALANCED, Method.DIRECT,
                             failure_stage=FailureStage.SYMMETRY_CHECK,
                             witness=OrientedCycle(violation, (True, True)))
    return _null_space_pipeline(g, laplacian(g), Method.DIRECT)


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
    return build(g.n, arcs, dict(zip(arcs, rows)), g.weight_type)


def gain_graph_method(g: WeightedDigraph) -> BalanceReport:
    """Decide balance by passing to the symmetrized (Hermitian) gain graph.

    A potential function transfers between the digraph and its
    symmetrization, so the verdict there is the verdict here.  The null
    vector solved for there is certified as a potential of the input graph.
    """
    _require_unit_connected(g, "gain_graph_method")
    violation = check_symmetry_pairs(g)
    if violation is not None:
        return BalanceReport(Verdict.UNBALANCED, Method.GAIN_GRAPH,
                             failure_stage=FailureStage.SYMMETRY_CHECK,
                             witness=OrientedCycle(violation, (True, True)))
    return _null_space_pipeline(g, laplacian(symmetrized_gain_graph(g)), Method.GAIN_GRAPH)


def is_neutral(w: DualQuaternion, tol: float = BALANCE_TOL) -> bool:
    """True when ``w`` is a positive real with zero dual part, within tolerance."""
    vec = np.array([w.s.x, w.s.y, w.s.z])
    return (w.s.w > 0.0
            and float(np.linalg.norm(vec)) <= tol
            and w.d.norm() <= tol)


def _cycle_defects(g: WeightedDigraph, cycles: Sequence[OrientedCycle]) -> np.ndarray:
    """Each cycle's distance from neutrality: ``|product - 1|`` over all components.

    For general weight types every step is first divided by its standard
    magnitude, a positive real per arc, which cannot change balance.  The
    product then has unit standard magnitude, it is neutral exactly when it
    is 1, and the distance does not depend on the scale of the weights.
    """
    if not g.weight_type.is_unit:
        W = g.weight_array
        g = replace(g, weight_array=W / np.linalg.norm(W[:, :4], axis=1, keepdims=True))
    prod = cycle_products(g, cycles)
    prod[:, 0] -= 1.0
    return np.linalg.norm(prod, axis=1)


def cycle_deviation(g: WeightedDigraph, cycle: OrientedCycle) -> float:
    """How far the oriented cycle product is from neutrality (see `_cycle_defects`)."""
    return float(_cycle_defects(g, [cycle])[0])


def cycle_oracle(g: WeightedDigraph, max_cycles: int = 10 ** 6) -> BalanceReport:
    """Brute-force verdict: every simple cycle's oriented product must be neutral.

    Each cycle's `_cycle_defects` distance must be at most ``BALANCE_TOL``:
    unit weight types require the product to equal 1, general weights a
    positive real dual number.  Returns the first offending cycle as a
    witness.  If enumeration hits ``max_cycles`` the verdict is
    indeterminate.  A balanced verdict must also pass the spanning-tree
    potential's certificate, as in `wdg_similarity_method`.
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


def _tree_potential(g: WeightedDigraph) -> _TreePotential:
    """Vertex potentials propagated over the BFS spanning forest (see `spanning_forest`).

    Roots get potential 1, children ``theta(parent) * weight`` along forward
    tree arcs and ``theta(parent) * weight^-1`` along backward ones, one BFS
    level at a time, each divided by its standard magnitude (a positive real,
    which the arc scalars absorb).  Every arc is then checked against
    ``theta(i)^-1 theta(j) c_ij`` within ``BALANCE_TOL * |w|``, relative to
    its weight at every scale, with the scalar its magnitude forces,
    ``c_ij = |w_s(i,j)|`` as every potential has unit standard magnitude.
    """
    parent_arc, depth = forest = spanning_forest(g.graph)
    child = np.flatnonzero(parent_arc >= 0)
    tree = parent_arc[child]
    forward = g.graph.heads[tree] == child
    parent = np.where(forward, g.graph.tails[tree], g.graph.heads[tree])
    steps = step_weights(g, tree, forward)
    theta = np.tile(np.eye(1, 8), (g.n, 1))     # roots keep potential 1
    for level in range(1, int(depth.max()) + 1):
        at = depth[child] == level
        rows = linalg.dqmul(theta[parent[at]], steps[at])
        theta[child[at]] = rows / np.linalg.norm(rows[:, :4], axis=1, keepdims=True)
    tails, heads, W = g.graph.tails, g.graph.heads, g.weight_array
    c = np.linalg.norm(W[:, :4], axis=1)
    predicted = linalg.dqmul(linalg.dqinv(theta[tails]), theta[heads]) * c[:, None]
    bad = np.flatnonzero(np.linalg.norm(W - predicted, axis=1)
                         > BALANCE_TOL * np.linalg.norm(W, axis=1))
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
    return PotentialAssignment(dict(enumerate(linalg.dqvec_to_scalars(tp.theta), start=1)),
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
    return BalanceReport(Verdict.BALANCED, method, err=err,
                         formation=tuple(linalg.dqvec_to_scalars(formation)))


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
