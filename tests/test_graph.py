from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgchat import corpus as cp
from hgchat.graph import NODE_TYPES, NodeType, build_hetero_graph, format_graph


def record_for(speakers, emotions=None, with_modalities=True):
    n = len(speakers)
    emotions = emotions or ["neutral"] * n
    return cp.DialogueRecord(
        utterances=[f"turn number {i}" for i in range(n)],
        emotions=list(emotions),
        speakers=list(speakers),
        next_speaker=speakers[0],
        response="ok",
        response_emotion="neutral",
        faces=np.arange(n * 2, dtype=float).reshape(n, 2) if with_modalities else None,
        audios=np.ones((n, 2)) if with_modalities else None,
    )


# --- independent brute-force oracle -------------------------------------
# Re-derives the edge set by evaluating every pairing rule over plain node
# descriptors, sharing no code with the package's builder.

def oracle_nodes(speakers, with_modalities=True):
    n = len(speakers)
    nodes = [("u", i) for i in range(n)]
    if with_modalities:
        nodes += [("f", i) for i in range(n)]
        nodes += [("a", i) for i in range(n)]
    nodes += [("e", i) for i in range(n)]
    seen = []
    for s in speakers:
        if s not in seen:
            seen.append(s)
    nodes += [("s", k) for k in range(len(seen))]
    return nodes, seen


def oracle_edges(speakers, with_modalities=True):
    nodes, distinct = oracle_nodes(speakers, with_modalities)
    spk_of = [distinct.index(s) for s in speakers]

    def pair_connected(x, y):
        (ta, ia), (tb, ib) = x, y
        if ta > tb:
            (ta, ia), (tb, ib) = (tb, ib), (ta, ia)
        both_turns = lambda: abs(ia - ib) == 1 or spk_of[ia] == spk_of[ib]
        if (ta, tb) == ("u", "u"):
            return both_turns()
        if (ta, tb) == ("f", "f") or (ta, tb) == ("a", "a"):
            return both_turns()
        if (ta, tb) in (("f", "u"), ("a", "u"), ("e", "u")):
            return ia == ib
        if (ta, tb) == ("s", "u"):
            return spk_of[ib] == ia
        if (ta, tb) in (("f", "s"), ("a", "s")):
            return spk_of[ia] == ib
        if (ta, tb) in (("e", "f"), ("a", "e")):
            return ia == ib
        return False

    edges = set()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if pair_connected(nodes[i], nodes[j]):
                edges.add((i, j))
    return nodes, edges


def assert_matches_oracle(speakers, emotions, with_modalities=True):
    rec = record_for(speakers, emotions, with_modalities)
    graph = build_hetero_graph(rec)
    nodes, want = oracle_edges(speakers, with_modalities)
    assert [(n.kind.value, n.source) for n in graph.nodes] == nodes
    assert set(graph.edge_rules) == want
    # oracle for the five masks as well: the edges plus a self-loop on
    # every node, kept to the columns (senders) of each type
    kinds = [n[0] for n in nodes]
    for kind in NODE_TYPES:
        mask = np.array([k == kind.value for k in kinds])
        dense = np.eye(len(nodes), dtype=np.int64)
        for i, j in want:
            dense[i, j] = dense[j, i] = 1
        expect = dense * mask[np.newaxis, :]
        assert np.array_equal(graph.type_adjacency[kind], expect), kind


# --- pinned examples -----------------------------------------------------

def test_single_turn_graph_five_nodes_eight_edges():
    rec = record_for(["s1"])
    graph = build_hetero_graph(rec)
    assert graph.n_nodes == 5
    assert len(graph.edge_rules) == 8
    assert sorted(graph.edge_rules.values()) == [2, 3, 4, 5, 8, 9, 10, 11]


def test_duplicate_firing_rules_yield_single_binary_edge():
    # both "adjacent" and "same speaker" fire for the one utterance pair
    rec = record_for(["s1", "s1"])
    graph = build_hetero_graph(rec)
    u0, u1 = 0, 1
    assert graph.adjacency[u0, u1] == 1
    assert np.all((graph.adjacency == 0) | (graph.adjacency == 1))


def test_three_turn_same_speaker_links():
    rec = record_for(["s1", "s2", "s1"])
    graph = build_hetero_graph(rec)
    by_desc = {(n.kind.value, n.source): n.idx for n in graph.nodes}
    e = graph.edge_rules
    u13 = tuple(sorted((by_desc[("u", 0)], by_desc[("u", 2)])))
    f13 = tuple(sorted((by_desc[("f", 0)], by_desc[("f", 2)])))
    a12 = tuple(sorted((by_desc[("a", 0)], by_desc[("a", 1)])))
    assert e[u13] == 1
    assert e[f13] == 6
    assert e[a12] == 7


def test_speaker_column_carries_rules_5_8_9():
    rec = record_for(["s1"])
    graph = build_hetero_graph(rec)
    a_s = graph.type_adjacency[NodeType.SPEAKER]
    s_idx = next(n.idx for n in graph.nodes if n.kind is NodeType.SPEAKER)
    assert a_s[:, s_idx].sum() == 4  # rules 5, 8 and 9, and the self-loop
    assert a_s[s_idx, s_idx] == 1
    assert a_s.sum() == 4  # only that column is populated


def test_empty_type_gives_zero_matrix():
    rec = record_for(["s1"], with_modalities=False)
    graph = build_hetero_graph(rec)
    assert np.array_equal(graph.type_adjacency[NodeType.FACE],
                          np.zeros((graph.n_nodes, graph.n_nodes), dtype=np.int64))


def test_node_count_formula():
    rec = record_for(["s1", "s2", "s1"])
    graph = build_hetero_graph(rec)
    n, k = 3, 2
    assert graph.n_nodes == 3 * n + n + k


# --- exhaustive oracle (speaker patterns for N <= 4, sampled emotions) ----

def canonical_speaker_patterns(n, max_speakers=3):
    pats = set()
    for combo in product(range(min(n, max_speakers)), repeat=n):
        relabel, mapping = [], {}
        for c in combo:
            mapping.setdefault(c, len(mapping))
            relabel.append(mapping[c])
        if max(relabel) < max_speakers:
            pats.add(tuple(relabel))
    return sorted(pats)


def test_exhaustive_adjacency_oracle_small_dialogues():
    rng = np.random.default_rng(2024)
    labels = ["anger", "joy", "neutral"]  # three fixed labels
    checked = 0
    for n in range(1, 5):
        for pattern in canonical_speaker_patterns(n):
            speakers = [f"s{p + 1}" for p in pattern]
            for _ in range(5):
                emotions = [labels[rng.integers(3)] for _ in range(n)]
                assert_matches_oracle(speakers, emotions)
                checked += 1
    assert checked >= 100


def test_oracle_without_modalities():
    for speakers in (["s1"], ["s1", "s2"], ["s1", "s2", "s2"]):
        assert_matches_oracle(speakers, None, with_modalities=False)


# --- invariants ------------------------------------------------------------

@st.composite
def random_record(draw):
    n = draw(st.integers(1, 4))
    speakers = [f"s{draw(st.integers(1, 3))}" for _ in range(n)]
    with_mod = draw(st.booleans())
    return record_for(speakers, None, with_mod)


@settings(max_examples=60, deadline=None)
@given(random_record())
def test_symmetry_and_partition(rec):
    graph = build_hetero_graph(rec)
    a = graph.adjacency
    assert np.array_equal(a, a.T)
    assert set(np.unique(a)) <= {0, 1}
    total = sum(graph.type_adjacency[k] for k in NODE_TYPES)
    assert np.array_equal(total, a)
    assert np.all(np.diag(a) == 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=4))
def test_monotone_under_appending_a_turn(pattern):
    speakers = [f"s{p + 1}" for p in pattern]
    before = build_hetero_graph(record_for(speakers[:-1]))
    after = build_hetero_graph(record_for(speakers))

    def descriptor_edges(graph):
        desc = {n.idx: (n.kind.value, n.source) for n in graph.nodes}
        return {frozenset((desc[a], desc[b])) for a, b in graph.edge_rules}

    assert descriptor_edges(before) <= descriptor_edges(after)


def test_unknown_ablation_rejected():
    with pytest.raises(ValueError, match="unknown ablation"):
        build_hetero_graph(record_for(["s1"]), ablate=("faces",))


def test_ablation_removes_nodes_and_rules():
    rec = record_for(["s1", "s2"])
    graph = build_hetero_graph(rec, ablate=("face", "audio"))
    kinds = {n.kind for n in graph.nodes}
    assert NodeType.FACE not in kinds and NodeType.AUDIO not in kinds
    assert set(graph.edge_rules.values()) <= {1, 4, 5}


def test_format_graph_contains_rule_annotations():
    text = format_graph(build_hetero_graph(record_for(["s1"])))
    assert "nodes: 5" in text and "edges: 8" in text
    assert "rules" in text and "adjacency[speaker]" in text


def test_format_graph_text_is_pinned():
    # three turns, two speakers, every node type: all eleven rules fire
    graph = build_hetero_graph(record_for(["s1", "s2", "s1"]))
    pinned = Path(__file__).parent / "data" / "format_graph_3turn_sender.txt"
    assert format_graph(graph) + "\n" == pinned.read_text()
