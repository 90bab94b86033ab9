"""JSON formats for graphs and balance reports.

Graph files look like::

    {
      "n": 3,
      "weight_type": "unit_dual_quaternion",
      "arcs": [
        {"tail": 2, "head": 1, "w": {"s": [w, x, y, z], "d": [w, x, y, z]}},
        ...
      ]
    }

``n``, ``tail`` and ``head`` are integers.  Weights are eight numbers
(standard then dual quaternion part); floats round-trip bit-exactly through
``json``.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .balance import BalanceReport
from .graphs import OrientedCycle, WeightedDigraph, WeightType, build


class GraphFormatError(ValueError):
    """The JSON document does not describe a valid weighted digraph."""


def graph_to_obj(g: WeightedDigraph) -> dict:
    return {
        "n": g.n,
        "weight_type": g.weight_type.value,
        "arcs": [{"tail": i, "head": j, "w": {"s": row[:4], "d": row[4:]}}
                 for (i, j), row in zip(g.arcs, g.weight_array.tolist())],
    }


def _integer(value):
    """A JSON integer as is; anything else (a bool, float or string) raises."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def graph_from_obj(obj) -> WeightedDigraph:
    try:
        n = _integer(obj["n"])
        weight_type = WeightType(obj["weight_type"])
        arcs = [(_integer(entry["tail"]), _integer(entry["head"])) for entry in obj["arcs"]]
        parts = [(entry["w"]["s"], entry["w"]["d"]) for entry in obj["arcs"]]
        # No dtype, so that numpy keeps a string or null component as such
        # instead of converting it to a float.  A boolean beside numbers it
        # would read as 0 or 1, so the component types are taken in one pass.
        rows = np.array(parts)
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(parts))))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph document: {exc!r}") from None
    if arcs and rows.shape[1:] != (2, 4):
        raise GraphFormatError("weight parts must have four components each")
    if arcs and (rows.dtype.kind not in "iuf" or bool in kinds):
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise GraphFormatError(f"weight components must be numbers, got {names}")
    return build(n, arcs, dict(zip(arcs, rows.reshape(len(arcs), 8))), weight_type)


def dumps_graph(g: WeightedDigraph, indent: int | None = 2) -> str:
    return json.dumps(graph_to_obj(g), indent=indent)


def loads_graph(text: str) -> WeightedDigraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    return graph_from_obj(obj)


def save_graph(g: WeightedDigraph, path) -> None:
    with open(path, "w") as f:
        f.write(dumps_graph(g))
        f.write("\n")


def load_graph(path) -> WeightedDigraph:
    with open(path) as f:
        return loads_graph(f.read())


def cycle_to_obj(cycle: OrientedCycle) -> dict:
    return {"vertices": list(cycle.vertices),
            "forward": list(cycle.forward)}


def report_to_obj(report: BalanceReport) -> dict:
    """JSON-ready view of a balance report (formation as 8-float rows)."""
    return {
        "verdict": report.verdict.value,
        "method": report.method.value,
        "err": report.err,
        "failure_stage": report.failure_stage.value if report.failure_stage else None,
        "formation": ([list(f.to_array()) for f in report.formation]
                      if report.formation is not None else None),
        "witness": cycle_to_obj(report.witness) if report.witness else None,
        "seconds": report.seconds,
    }
