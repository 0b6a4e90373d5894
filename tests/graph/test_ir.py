"""Tests for the dataflow IR."""

import pytest

from repro.graph.ir import ModelGraph, Node, OpCategory


def chain_graph():
    g = ModelGraph("chain")
    g.add_node(Node("input", OpCategory.INPUT))
    g.add_node(Node("a", OpCategory.CONV, flops_share=0.5, output_width=8))
    g.add_node(Node("b", OpCategory.CONV, flops_share=0.5, output_width=8))
    g.add_node(Node("output", OpCategory.OUTPUT))
    g.add_edge("input", "a")
    g.add_edge("a", "b")
    g.add_edge("b", "output")
    return g


def test_duplicate_node_rejected():
    g = ModelGraph("g")
    g.add_node(Node("x", OpCategory.CONV))
    with pytest.raises(ValueError):
        g.add_node(Node("x", OpCategory.CONV))


def test_edge_with_unknown_node_rejected():
    g = ModelGraph("g")
    g.add_node(Node("x", OpCategory.CONV))
    with pytest.raises(KeyError):
        g.add_edge("x", "missing")


def test_cycle_rejected():
    g = ModelGraph("g")
    g.add_node(Node("a", OpCategory.CONV))
    g.add_node(Node("b", OpCategory.CONV))
    g.add_edge("a", "b")
    with pytest.raises(ValueError):
        g.add_edge("b", "a")
    assert g.edges() == [("a", "b")]

    with pytest.raises(ValueError):
        g.add_edge("a", "a")
    assert g.edges() == [("a", "b")]

    # A back-edge from the end of a long chain to its start.
    names = [f"n{i}" for i in range(20)]
    for name in names:
        g.add_node(Node(name, OpCategory.CONV))
    g.add_edge("b", names[0])
    for src, dst in zip(names, names[1:]):
        g.add_edge(src, dst)
    before = g.edges()
    for src in (names[-1], names[5]):
        with pytest.raises(ValueError, match="cycle"):
            g.add_edge(src, "a")
        assert g.edges() == before
    g.add_edge("a", names[-1])  # a forward shortcut is still legal
    assert sorted(g.edges()) == sorted(before + [("a", names[-1])])


def test_topological_order_respects_edges():
    g = chain_graph()
    order = [n.name for n in g.topological_order()]
    assert order.index("input") < order.index("a") < order.index("b") < order.index("output")


def test_input_and_output_nodes():
    g = chain_graph()
    assert [n.name for n in g.input_nodes()] == ["input"]
    assert [n.name for n in g.output_nodes()] == ["output"]


def test_validate_accepts_wellformed_graph():
    chain_graph().validate()


def test_validate_rejects_empty_graph():
    with pytest.raises(ValueError):
        ModelGraph("empty").validate()


def test_validate_rejects_multiple_outputs():
    g = ModelGraph("g")
    g.add_node(Node("input", OpCategory.INPUT))
    g.add_node(Node("a", OpCategory.CONV))
    g.add_node(Node("b", OpCategory.CONV))
    g.add_edge("input", "a")
    g.add_edge("input", "b")
    with pytest.raises(ValueError):
        g.validate()


def test_depth_fraction_monotone_along_chain():
    g = chain_graph()
    assert g.depth_fraction("a") < g.depth_fraction("b")
    assert g.depth_fraction("output") == pytest.approx(1.0)


def test_depth_fraction_unknown_node():
    with pytest.raises(KeyError):
        chain_graph().depth_fraction("missing")


def test_blocks_in_order():
    g = ModelGraph("g")
    g.add_node(Node("input", OpCategory.INPUT))
    g.add_node(Node("a", OpCategory.CONV, block="block1"))
    g.add_node(Node("b", OpCategory.CONV, block="block2"))
    g.add_node(Node("output", OpCategory.OUTPUT))
    g.add_edge("input", "a")
    g.add_edge("a", "b")
    g.add_edge("b", "output")
    assert g.blocks() == ["block1", "block2"]


def test_total_params_sums_nodes():
    g = ModelGraph("g")
    g.add_node(Node("a", OpCategory.CONV, params=10))
    g.add_node(Node("b", OpCategory.CONV, params=32))
    assert g.total_params() == 42


def test_successors_predecessors():
    g = chain_graph()
    assert g.successors("a") == ["b"]
    assert g.predecessors("b") == ["a"]
