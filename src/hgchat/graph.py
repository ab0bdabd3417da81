"""Typed dialogue graph construction.

Node blocks are laid out as [utterances, faces, audios, emotions,
speakers] so the feature matrix fed to the graph convolution can be
assembled by stacking the per-type blocks in the same order. Emotion
nodes are instanced per utterance; speaker nodes once per distinct
speaker, in order of first appearance.

A graph stores one matrix, the 0/1 adjacency with a self-loop on every
node, plus the type of every node. Each of the eleven pairing rules
joins exactly one unordered pair of node types, so the rule behind an
edge, the typed adjacencies and the node list are all derived from
those two arrays on demand (``edge_rules``, ``type_adjacency``,
``nodes``); only ``format_graph``, ``inspect-graph`` and the tests read
them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import DialogueRecord, distinct_speakers


class NodeType(Enum):
    UTTERANCE = "u"
    FACE = "f"
    AUDIO = "a"
    EMOTION = "e"
    SPEAKER = "s"


NODE_TYPES = tuple(NodeType)
ABLATABLE = {"face": NodeType.FACE, "audio": NodeType.AUDIO,
             "emotion": NodeType.EMOTION, "speaker": NodeType.SPEAKER}

_U, _F, _A, _E, _S = NODE_TYPES
# (rule number, type, type, relation between the two blocks' sources):
# "turns" links two turns that are adjacent or share a speaker, "same"
# links the nodes of one turn, "speaker" links a turn to its speaker.
RULES = ((1, _U, _U, "turns"), (2, _U, _F, "same"), (3, _U, _A, "same"),
         (4, _U, _E, "same"), (5, _U, _S, "speaker"), (6, _F, _F, "turns"),
         (7, _A, _A, "turns"), (8, _F, _S, "speaker"), (9, _A, _S, "speaker"),
         (10, _F, _E, "same"), (11, _A, _E, "same"))
_TYPE_INDEX = {kind: t for t, kind in enumerate(NODE_TYPES)}


def _rule_of_pair() -> np.ndarray:
    """Type x type table of the rule joining that pair, 0 for none."""
    table = np.zeros((len(NODE_TYPES), len(NODE_TYPES)), dtype=np.int64)
    for rule, a, b, _ in RULES:
        table[_TYPE_INDEX[a], _TYPE_INDEX[b]] = table[_TYPE_INDEX[b], _TYPE_INDEX[a]] = rule
    return table


_RULE_OF_PAIR = _rule_of_pair()


@dataclass(frozen=True)
class Node:
    idx: int
    kind: NodeType
    source: int  # utterance index, or first-appearance rank for speakers


@dataclass
class HeteroGraph:
    adjacency: np.ndarray   # |V| x |V|, entries 0/1
    node_type: np.ndarray   # |V| indices into NODE_TYPES, in contiguous blocks

    @property
    def n_nodes(self) -> int:
        return len(self.node_type)

    @property
    def nodes(self) -> list[Node]:
        """Every node; a node's source is its position within its type block."""
        starts: dict[int, int] = {}
        return [Node(i, NODE_TYPES[t], i - starts.setdefault(t, i))
                for i, t in enumerate(self.node_type.tolist())]

    @property
    def type_adjacency(self) -> dict[NodeType, np.ndarray]:
        """The adjacency kept to the columns (senders) of each type; the
        five matrices sum to the adjacency."""
        typed = {}
        for t, kind in enumerate(NODE_TYPES):
            mask = self.node_type == t
            typed[kind] = self.adjacency * mask[np.newaxis, :]
        return typed

    @property
    def edge_rules(self) -> dict[tuple[int, int], int]:
        """Every edge (i, j), i < j, in row-major order, mapped to the one
        rule that joins the types of its two nodes; self-loops are not
        edges."""
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        rules = _RULE_OF_PAIR[self.node_type[rows], self.node_type[cols]]
        return dict(zip(zip(rows.tolist(), cols.tolist()), rules.tolist()))


def _resolve_ablations(ablate) -> set[NodeType]:
    dropped = set()
    for name in ablate or ():
        kind = ABLATABLE.get(name)
        if kind is None:
            raise ValueError(f"unknown ablation {name!r}; choose from {sorted(ABLATABLE)}")
        dropped.add(kind)
    return dropped


def build_hetero_graph(record: DialogueRecord,
                       ablate: tuple[str, ...] = ()) -> HeteroGraph:
    """Build the typed graph for one dialogue.

    An edge exists iff at least one of the eleven pairing rules holds;
    rules touching absent node types (missing modalities or ablated
    types) are skipped along with the nodes themselves. Each rule fills
    one block of the adjacency and its mirror, and every node gets a
    self-loop.
    """
    n = record.n_turns
    dropped = _resolve_ablations(ablate)
    missing = {NodeType.FACE: record.faces is None, NodeType.AUDIO: record.audios is None}
    kinds = [kind for kind in NODE_TYPES if kind not in dropped and not missing.get(kind)]

    speaker_ids = distinct_speakers(record)
    position = {name: k for k, name in enumerate(speaker_ids)}
    spk_of = np.array([position[name] for name in record.speakers])
    sizes = [len(speaker_ids) if kind is NodeType.SPEAKER else n for kind in kinds]
    block, start = {}, 0
    for kind, size in zip(kinds, sizes):
        block[kind] = slice(start, start + size)
        start += size

    turn = np.arange(n)
    turns = (spk_of[:, np.newaxis] == spk_of) | (np.abs(turn[:, np.newaxis] - turn) == 1)
    np.fill_diagonal(turns, False)
    relation = {"turns": turns, "same": np.eye(n, dtype=bool),
                "speaker": spk_of[:, np.newaxis] == np.arange(len(speaker_ids))}

    adjacency = np.zeros((start, start), dtype=np.int64)
    for _, a, b, rel in RULES:
        if a in block and b in block:
            adjacency[block[a], block[b]] = relation[rel]
            adjacency[block[b], block[a]] = relation[rel].T
    np.fill_diagonal(adjacency, 1)

    node_type = np.repeat([_TYPE_INDEX[kind] for kind in kinds], sizes)
    return HeteroGraph(adjacency, node_type)


def format_graph(graph: HeteroGraph) -> str:
    """Human-readable dump: nodes, edges with rule numbers, 0/1 grids."""
    edge_rules = graph.edge_rules
    typed = graph.type_adjacency
    lines = [f"nodes: {graph.n_nodes}"]
    for node in graph.nodes:
        lines.append(f"  [{node.idx:3d}] {node.kind.name.lower():9s} source={node.source}")
    lines.append(f"edges: {len(edge_rules)}")
    for (a, b), rule in edge_rules.items():
        lines.append(f"  ({a},{b}) rules {rule}")
    lines.append("adjacency:")
    lines.extend("  " + " ".join(str(v) for v in row) for row in graph.adjacency)
    for kind in NODE_TYPES:
        lines.append(f"adjacency[{kind.name.lower()}]:")
        lines.extend("  " + " ".join(str(v) for v in row) for row in typed[kind])
    return "\n".join(lines)
