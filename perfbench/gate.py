"""Verification gate, run on every decide after the clock stops.

A decide fails when it raises, when its verdict differs from the label the
generator gave the instance, when a balanced unit verdict's formation does
not reproduce every arc, or when an unbalanced verdict's witness is not a
non-neutral cycle of the graph.  `indeterminate` from `direct` is accepted
only on graphs without a directed spanning tree; any other indeterminate
verdict (such as a truncated cycle oracle) fails.

Failures are never excused: each one counts.  `known_defect` names the
recorded program defect a failure matches, if any, so that a run can tell
a new failure from an old one.
"""

from __future__ import annotations

from dataclasses import dataclass

from dqbalance.balance import (
    BalanceReport,
    Method,
    Verdict,
    cycle_deviation,
    relative_configuration_residual,
)
from dqbalance.graphs import has_directed_spanning_tree
from dqbalance.serialize import loads_graph

from workloads import Instance, decide

FORMATION_TOL = 1e-8
NEUTRAL_WITNESS = "witness cycle is neutral"


@dataclass(frozen=True)
class Failure:
    stage: str                  # decide, verdict, formation or witness
    exc_type: str | None
    detail: str


def check(g, balanced: bool, outcome: BalanceReport | Exception) -> Failure | None:
    """The first way a decide's outcome fails verification, or None."""
    if isinstance(outcome, Exception):
        return Failure("decide", type(outcome).__name__, str(outcome))
    report = outcome
    expected = Verdict.BALANCED if balanced else Verdict.UNBALANCED
    if report.verdict is not expected:
        if (report.verdict is Verdict.INDETERMINATE and report.method is Method.DIRECT
                and not has_directed_spanning_tree(g.graph)):
            return None
        return Failure("verdict", None,
                       f"{report.verdict.value} ({report.failure_stage and report.failure_stage.value}),"
                       f" expected {expected.value}")
    if report.verdict is Verdict.BALANCED and g.weight_type.is_unit:
        if report.formation is None:
            return Failure("formation", None, "no formation")
        residual = relative_configuration_residual(g, report.formation)
        if not residual <= FORMATION_TOL:
            return Failure("formation", None, f"residual {residual:.3g}")
    if report.verdict is Verdict.UNBALANCED and report.witness is not None:
        missing = [a for a in report.witness.arcs() if a not in g.weights]
        if missing:
            return Failure("witness", None, f"arcs {missing} not in the graph")
        deviation = cycle_deviation(g, report.witness)
        if not deviation > 0.0:
            return Failure("witness", None, NEUTRAL_WITNESS)
    return None


def signature(outcome: BalanceReport | Exception) -> tuple:
    """What must repeat exactly when the same decide runs again."""
    if isinstance(outcome, Exception):
        return ("raise", type(outcome).__name__, str(outcome))
    return (outcome.verdict.value,
            outcome.failure_stage and outcome.failure_stage.value,
            outcome.err, outcome.witness)


def known_defect(inst: Instance, method: str, g, outcome, failure: Failure) -> str | None:
    """The recorded defect a failure matches, or None for a new failure.

    * ``rescaling``: the same decide passes on the graph before positive
      rescaling.  Neutrality and certificate tests use absolute tolerances
      on products whose magnitude grows with the scale.
    * ``antiparallel_witness``: a neutral witness that steps between two
      vertices joined by arcs both ways.  The tree path is closed with
      `orient_cycle`, which prefers the forward arc of such a pair, so the
      witness can take the other arc than the spanning tree did.
    """
    if inst.unscaled_doc is not None:
        twin = loads_graph(inst.unscaled_doc)
        if check(twin, inst.balanced, decide(inst.unscaled_doc, method)) is None:
            return "rescaling"
    if failure.stage == "witness" and failure.detail == NEUTRAL_WITNESS:
        if any((b, a) in g.weights for a, b in outcome.witness.arcs()):
            return "antiparallel_witness"
    return None
