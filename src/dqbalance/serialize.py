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

import gc
import json
from itertools import chain
from operator import itemgetter

import numpy as np

from .balance import BalanceReport
from .graphs import MAX_VERTICES, OrientedCycle, WeightedDigraph, WeightType, build


class GraphFormatError(ValueError):
    """The JSON document does not describe a valid weighted digraph."""


def graph_to_obj(g: WeightedDigraph) -> dict:
    return {
        "n": g.n,
        "weight_type": g.weight_type.value,
        "arcs": [{"tail": i, "head": j, "w": {"s": row[:4], "d": row[4:]}}
                 for (i, j), row in zip(g.arcs, g.weight_array.tolist())],
    }


def _check_integers(values: list) -> None:
    """Raise for the first value that is not a JSON integer (a bool, float or string)."""
    if not set(map(type, values)) <= {int}:
        raise TypeError(f"{next(v for v in values if type(v) is not int)!r} is not an integer")


def _is_number_type(kind: type) -> bool:
    """A Python or NumPy integer or float type, not bool."""
    return issubclass(kind, (int, float, np.integer, np.floating)) and kind is not bool


def _component_error(parts: list) -> GraphFormatError:
    """The error for weight parts that are not four numbers each, as numpy reads them."""
    try:
        rows = np.array(parts)
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(parts))))
    except (TypeError, ValueError) as exc:
        return GraphFormatError(f"malformed graph document: {exc!r}")
    if rows.shape[1:] != (2, 4):
        return GraphFormatError("weight parts must have four components each")
    names = ", ".join(sorted(kind.__name__ for kind in kinds))
    return GraphFormatError(f"weight components must be numbers, got {names}")


def graph_from_obj(obj) -> WeightedDigraph:
    """Graph from a parsed document: the arcs' ends are read into one list and
    their weights into one flat (m, 8) array, each checked as a whole.

    Integer weight components are read as floats; one beyond the float range
    is rejected.
    """
    try:
        n = obj["n"]
        _check_integers([n])
        if n > MAX_VERTICES:
            raise ValueError(f"{n} vertices, more than the {MAX_VERTICES} an arc key can index")
        weight_type = WeightType(obj["weight_type"])
        ends = list(map(itemgetter("tail", "head"), obj["arcs"]))
        _check_integers(list(chain.from_iterable(ends)))
        parts = list(map(itemgetter("s", "d"), map(itemgetter("w"), obj["arcs"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph document: {exc!r}") from None
    try:
        lengths = set(map(len, chain.from_iterable(parts)))
        flat = list(chain.from_iterable(chain.from_iterable(parts)))
    except TypeError:
        raise _component_error(parts) from None
    if not (lengths <= {4} and all(map(_is_number_type, set(map(type, flat))))):
        raise _component_error(parts)
    try:
        W = np.fromiter(flat, dtype=np.float64, count=len(flat)).reshape(len(ends), 8)
    except OverflowError:
        raise GraphFormatError("weight components must be numbers in the float range") from None
    return build(n, ends, W, weight_type)


def dumps_graph(g: WeightedDigraph, indent: int | None = 2) -> str:
    return json.dumps(graph_to_obj(g), indent=indent)


def loads_graph(text: str) -> WeightedDigraph:
    """Graph from a JSON document (see `graph_from_obj`).

    The cyclic garbage collector rests while the document is parsed and
    decoded, and the caller's setting is restored on return.  The tree that
    `json.loads` builds holds no reference cycles, so reference counting frees
    all of it; a collection during the parse would only traverse it, and
    promote it to the older generations that full collections traverse again.
    The setting is process-wide: parses on other threads may overlap, which
    costs collection time, never a result.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from None
        return graph_from_obj(obj)
    finally:
        if enabled:
            gc.enable()


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
        "formation": (np.asarray(report.formation).tolist()
                      if report.formation is not None else None),
        "witness": cycle_to_obj(report.witness) if report.witness else None,
        "seconds": report.seconds,
    }
