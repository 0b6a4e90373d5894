"""A lightweight ONNX-like dataflow IR.

The IR represents a model as a directed acyclic graph of operator nodes.  It
carries just enough structure for Apparate's model-preparation phase:

* topology (edges between operators) — used to find cut vertices, i.e. legal
  ramp positions;
* per-node metadata (operator category, parameter count, FLOPs share, output
  width) — used to size ramps and to split the model's latency profile across
  layers;
* block annotations (e.g. which residual/encoder block a node belongs to) —
  used to report human-readable ramp locations.

The graph is deliberately framework-agnostic: builders in
:mod:`repro.graph.builders` synthesize graphs with the same block structure as
the real ResNet / VGG / BERT / GPT-2 / T5 / Llama2 models the paper evaluates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

__all__ = ["OpCategory", "Node", "ModelGraph"]


class OpCategory(str, enum.Enum):
    """Coarse operator categories (sufficient for ramp placement decisions)."""

    INPUT = "input"
    CONV = "conv"
    POOL = "pool"
    NORM = "norm"
    ACTIVATION = "activation"
    ADD = "add"
    ATTENTION = "attention"
    FEEDFORWARD = "feedforward"
    EMBEDDING = "embedding"
    LINEAR = "linear"
    OUTPUT = "output"


@dataclass
class Node:
    """One operator in the dataflow graph.

    Attributes
    ----------
    name:
        Unique node identifier, e.g. ``"layer2.block1.conv2"``.
    op:
        Operator category.
    block:
        Name of the coarse block the node belongs to (residual block, encoder
        layer, ...) or ``None`` for top-level nodes.
    params:
        Number of trainable parameters attributed to this node.
    flops_share:
        Fraction of whole-model FLOPs attributed to this node (sums to ~1).
    output_width:
        Width (channel / hidden dimension) of the node's output tensor, used
        to size the fully-connected layer of a ramp attached here.
    """

    name: str
    op: OpCategory
    block: Optional[str] = None
    params: int = 0
    flops_share: float = 0.0
    output_width: int = 0


class ModelGraph:
    """Directed acyclic dataflow graph of :class:`Node` objects."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._g = nx.DiGraph()
        self._nodes: Dict[str, Node] = {}

    # ------------------------------------------------------------------ build
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        self._nodes[node.name] = node
        self._g.add_node(node.name)
        return node

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"unknown node in edge {src!r} -> {dst!r}")
        # The graph is acyclic before the insert, so the edge closes a cycle
        # exactly when ``dst`` already reaches ``src`` (or they coincide).
        if nx.has_path(self._g, dst, src):
            raise ValueError(f"edge {src!r} -> {dst!r} would create a cycle")
        self._g.add_edge(src, dst)

    # ------------------------------------------------------------ inspection
    @property
    def nx_graph(self) -> nx.DiGraph:
        return self._g

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def nodes(self) -> List[Node]:
        return [self._nodes[n] for n in self._g.nodes]

    def num_nodes(self) -> int:
        return len(self._nodes)

    def edges(self) -> List[Tuple[str, str]]:
        return list(self._g.edges)

    def successors(self, name: str) -> List[str]:
        return list(self._g.successors(name))

    def predecessors(self, name: str) -> List[str]:
        return list(self._g.predecessors(name))

    def topological_order(self) -> List[Node]:
        """Nodes in a deterministic topological order."""
        order = list(nx.lexicographical_topological_sort(self._g))
        return [self._nodes[n] for n in order]

    def input_nodes(self) -> List[Node]:
        return [self._nodes[n] for n in self._g.nodes if self._g.in_degree(n) == 0]

    def output_nodes(self) -> List[Node]:
        return [self._nodes[n] for n in self._g.nodes if self._g.out_degree(n) == 0]

    def blocks(self) -> List[str]:
        """Distinct block names in topological order of first appearance."""
        seen: Set[str] = set()
        ordered: List[str] = []
        for node in self.topological_order():
            if node.block and node.block not in seen:
                seen.add(node.block)
                ordered.append(node.block)
        return ordered

    def total_params(self) -> int:
        return sum(n.params for n in self._nodes.values())

    def total_flops_share(self) -> float:
        return sum(n.flops_share for n in self._nodes.values())

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is not a well-formed model graph."""
        if self.num_nodes() == 0:
            raise ValueError("empty graph")
        if not nx.is_directed_acyclic_graph(self._g):
            raise ValueError("graph contains a cycle")
        inputs = self.input_nodes()
        outputs = self.output_nodes()
        if len(inputs) != 1:
            raise ValueError(f"expected exactly one input node, found {len(inputs)}")
        if len(outputs) != 1:
            raise ValueError(f"expected exactly one output node, found {len(outputs)}")
        undirected = self._g.to_undirected()
        if not nx.is_connected(undirected):
            raise ValueError("graph is not connected")

    def depth_fraction(self, name: str) -> float:
        """Fraction of model FLOPs executed once ``name`` has been computed.

        This is the "depth" used to reason about how much of the model a ramp
        placed after ``name`` gets to observe, and hence how much latency an
        exit at that ramp saves.
        """
        order = self.topological_order()
        total = sum(n.flops_share for n in order) or 1.0
        running = 0.0
        for node in order:
            running += node.flops_share
            if node.name == name:
                return running / total
        raise KeyError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelGraph(name={self.name!r}, nodes={self.num_nodes()}, edges={len(self.edges())})"
