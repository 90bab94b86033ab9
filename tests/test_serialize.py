import gc
import json

import pytest

from dqbalance.balance import cycle_oracle, direct_method
from dqbalance.generate import gen_cycle, gen_random_balanced
from dqbalance.graphs import NonFiniteWeightError, WeightType
from dqbalance.serialize import (
    GraphFormatError,
    dumps_graph,
    graph_from_obj,
    graph_to_obj,
    load_graph,
    loads_graph,
    report_to_obj,
    save_graph,
)


def test_roundtrip_bit_exact():
    g = gen_random_balanced(7, 0.2, WeightType.UNIT_DUAL_QUATERNION, seed=1)
    g2 = loads_graph(dumps_graph(g))
    assert g2.n == g.n
    assert g2.arcs == g.arcs
    assert g2.weight_type == g.weight_type
    for arc in g.arcs:
        assert g2.weights[arc] == g.weights[arc]  # exact float equality


def test_roundtrip_all_types(tmp_path):
    for k, wt in enumerate(WeightType):
        g = gen_cycle(5, wt, seed=k)
        path = tmp_path / f"{wt.value}.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.weights == g.weights


def test_graph_file_layout():
    g = gen_cycle(3, WeightType.UNIT_COMPLEX, seed=2)
    obj = graph_to_obj(g)
    assert set(obj) == {"n", "weight_type", "arcs"}
    assert obj["weight_type"] == "unit_complex"
    entry = obj["arcs"][0]
    assert set(entry) == {"tail", "head", "w"}
    assert set(entry["w"]) == {"s", "d"}
    assert len(entry["w"]["s"]) == 4 and len(entry["w"]["d"]) == 4


def one_arc_document(**changes):
    """A valid one-arc real graph, with top-level, arc or weight entries replaced."""
    arc = {"tail": 1, "head": 2, "w": {"s": [1.0, 0.0, 0.0, 0.0], "d": [0.0] * 4}}
    obj = {"n": 3, "weight_type": "real", "arcs": [arc]}
    for key, value in changes.items():
        (obj if key in obj else arc if key in arc else arc["w"])[key] = value
    return obj


def test_malformed_documents():
    with pytest.raises(GraphFormatError):
        loads_graph("{not json")
    with pytest.raises(GraphFormatError):
        graph_from_obj({"n": 2, "arcs": [{"tail": 1}]})
    graph_from_obj(one_arc_document())
    for bad in [{"s": [1.0], "d": [0.0]},
                {"n": 3.9}, {"n": "3"}, {"n": True}, {"tail": 1.7}, {"head": True},
                {"head": "2"}, {"s": ["1", 0, 0, 0]}, {"d": [None, 0, 0, 0]},
                {"s": [True, 0, 0, 0]}, {"s": [1.0, False, 0, 0]},
                {"weight_type": "octonion"}]:
        with pytest.raises(GraphFormatError):
            graph_from_obj(one_arc_document(**bad))



ARC = one_arc_document()["arcs"][0]
MESSAGES = [
    # (document, message), the messages of the decoder that read the weights
    # through one nested numpy array.
    (one_arc_document(s=[1.0, 0.0, 0.0]),
     "malformed graph document: ValueError('setting an array element with a sequence. "
     "The requested array has an inhomogeneous shape after 2 dimensions. "
     "The detected shape was (1, 2) + inhomogeneous part.')"),
    (one_arc_document(s=[1.0, 0.0, 0.0], d=[0.0] * 3),
     "weight parts must have four components each"),
    (one_arc_document(s=[[1.0], [0.0], [0.0], [0.0]]),
     "malformed graph document: ValueError('setting an array element with a sequence. "
     "The requested array has an inhomogeneous shape after 3 dimensions. "
     "The detected shape was (1, 2, 4) + inhomogeneous part.')"),
    (one_arc_document(s=[[1.0, 0.0, 0.0, 0.0]], d=[[0.0] * 4]),
     "weight parts must have four components each"),
    (one_arc_document(s="1000"),
     "malformed graph document: ValueError('setting an array element with a sequence. "
     "The requested array has an inhomogeneous shape after 2 dimensions. "
     "The detected shape was (1, 2) + inhomogeneous part.')"),
    (one_arc_document(w=[[1.0, 0.0, 0.0, 0.0], [0.0] * 4]),
     "malformed graph document: TypeError('list indices must be integers or slices, not str')"),
    (one_arc_document(arcs={"0": ARC}),
     "malformed graph document: TypeError(\"string indices must be integers, not 'str'\")"),
    ([one_arc_document()],
     "malformed graph document: TypeError('list indices must be integers or slices, not str')"),
    (one_arc_document(s=[True, 0, 0, 0]), "weight components must be numbers, got bool, float, int"),
    (one_arc_document(head=True), "malformed graph document: TypeError('True is not an integer')"),
]


@pytest.mark.parametrize("obj,message", MESSAGES)
def test_malformed_documents_keep_their_messages(obj, message):
    with pytest.raises(GraphFormatError) as raised:
        loads_graph(json.dumps(obj))
    assert str(raised.value) == message


def test_integer_weight_components_are_read_as_floats():
    g = loads_graph(json.dumps(one_arc_document(s=[100000000000000000000000000000, 0, 0, 0])))
    assert g.weight_array[0].tolist() == [1e29] + [0.0] * 7
    with pytest.raises(GraphFormatError, match="float range"):
        loads_graph(json.dumps(one_arc_document(s=[10 ** 400, 0, 0, 0])))


def test_a_vertex_count_beyond_the_arc_keys_is_a_format_error():
    # Only loaded: a graph on 2**32 vertices is never decided here.
    with pytest.raises(GraphFormatError, match="4294967296 vertices"):
        loads_graph(json.dumps(one_arc_document(n=2 ** 32)))


@pytest.mark.parametrize("enabled", [True, False])
def test_loads_graph_restores_the_collector_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        loads_graph(json.dumps(one_arc_document()))
        assert gc.isenabled() is enabled
        for text in ["{not json", json.dumps(one_arc_document(s=[1.0]))]:
            with pytest.raises(GraphFormatError):
                loads_graph(text)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()

def test_loaded_graph_checks_like_original():
    g = gen_cycle(6, WeightType.DUAL_QUATERNION, seed=3)
    g2 = loads_graph(dumps_graph(g))
    assert cycle_oracle(g2).verdict == cycle_oracle(g).verdict


def test_report_serialization():
    g = gen_cycle(4, WeightType.UNIT_DUAL_QUATERNION, seed=4)
    obj = report_to_obj(direct_method(g))
    assert obj["verdict"] == "balanced"
    assert obj["method"] == "direct"
    assert obj["err"] <= 1e-8
    assert len(obj["formation"]) == 4
    assert all(len(row) == 8 for row in obj["formation"])
    assert obj["witness"] is None
    json.dumps(obj)  # JSON-ready


def test_report_witness_serialization():
    from dqbalance.generate import perturb
    g = perturb(gen_cycle(4, WeightType.UNIT_DUAL_QUATERNION, seed=5), (1, 2), 6)
    obj = report_to_obj(cycle_oracle(g))
    assert obj["verdict"] == "unbalanced"
    assert obj["failure_stage"] == "cycle_found"
    assert sorted(obj["witness"]["vertices"]) == [1, 2, 3, 4]
    assert len(obj["witness"]["forward"]) == 4


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_loads_rejects_a_non_finite_dual_part(bad):
    obj = graph_to_obj(gen_cycle(3, WeightType.DUAL_QUATERNION, seed=5))
    obj["arcs"][1]["w"]["d"][2] = bad
    with pytest.raises(NonFiniteWeightError, match=r"^arc \(2, 3\)"):
        loads_graph(json.dumps(obj))


def test_loads_rejects_a_weight_whose_magnitude_overflows():
    text = json.dumps({"n": 2, "weight_type": "real",
                       "arcs": [{"tail": 1, "head": 2,
                                 "w": {"s": [1e160, 0.0, 0.0, 0.0], "d": [0.0] * 4}}]})
    with pytest.raises(NonFiniteWeightError, match=r"^arc \(1, 2\)"):
        loads_graph(text)
