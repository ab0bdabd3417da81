"""Graph-side model: node feature initialization, typed graph convolution,
and the response-emotion predictor.

Utterances are encoded by an LSTM whose last hidden state, concatenated
with a learned position embedding (indexed from the latest turn backwards),
feeds a multi-head self-attention over the dialogue history. Face and
audio vectors are projected into the shared width by per-modality
feed-forward nets; emotion and speaker features come from learned tables.
"""
from __future__ import annotations

import numpy as np

from .config import TrainConfig
from .corpus import (EMOTION_INDEX, PAD, DialogueRecord, SpeakerRoster, Vocab,
                     distinct_speakers, tokenize)
from .diffcore import (Tensor, add, affine, concat_cols, concat_rows, elem_mul,
                       matmul, mean_rows, relu, row_lookup, sigmoid,
                       softmax_rows, tanh)
from .graph import HeteroGraph, NODE_TYPES, NodeType
from .layers import Drop, ffn, multihead, project_kv
from .params import ModelParams


def utterance_token_ids(record: DialogueRecord, vocab: Vocab, max_len: int) -> list[list[int]]:
    rows = []
    for utt in record.utterances:
        ids = vocab.encode(tokenize(utt)[:max_len])
        rows.append(ids if ids else [PAD])
    return rows


def _lstm_pre(params: ModelParams, gate: str, x: Tensor, h: Tensor | None) -> Tensor:
    """One gate's pre-activation ``h U + (x W + b)``, with ``x W + b`` as the
    per-row bias of one affine; no ``h U`` from the zero state."""
    pre = affine(x, params[f"enc.lstm.w{gate}"], params[f"enc.lstm.b{gate}"])
    return pre if h is None else affine(h, params[f"enc.lstm.u{gate}"], pre)


def lstm_last_hidden(params: ModelParams, token_rows: list[list[int]]) -> Tensor:
    """Run the recurrence over all utterances at once and gather each
    utterance's state at its own final token.

    Short utterances are padded at the tail; the padded steps never feed
    the gathered states because state at step t only depends on tokens
    up to t. The recurrence starts from the zero state, so step 0 skips
    the ``h U`` products and the forget path, which would add zeros.
    """
    n = len(token_rows)
    lengths = [len(row) for row in token_rows]
    width = max(lengths)
    h = c = None  # the zero state: step 0 has no recurrent terms
    per_step = []
    for step in range(width):
        ids = [row[step] if step < len(row) else PAD for row in token_rows]
        x = row_lookup(params["enc.word_emb"], ids)
        gate_in = sigmoid(_lstm_pre(params, "i", x, h))
        gate_out = sigmoid(_lstm_pre(params, "o", x, h))
        candidate = tanh(_lstm_pre(params, "c", x, h))
        if c is None:
            c = elem_mul(gate_in, candidate)
        else:
            gate_forget = sigmoid(_lstm_pre(params, "f", x, h))
            c = add(elem_mul(gate_forget, c), elem_mul(gate_in, candidate))
        h = elem_mul(gate_out, tanh(c))
        per_step.append(h)
    stacked = concat_rows(*per_step)  # [width*n, d_hidden]
    gather = [(length - 1) * n + i for i, length in enumerate(lengths)]
    return row_lookup(stacked, gather)


def encode_utterances(record: DialogueRecord, params: ModelParams, vocab: Vocab,
                      cfg: TrainConfig, drop: Drop | None = None) -> Tensor:
    """Contextual utterance features: attention over [state; position] rows.

    Position indices run from N for the first history turn down to 1 for
    the latest, so the most recent turn always gets the same embedding row.
    """
    token_rows = utterance_token_ids(record, vocab, cfg.max_len)
    n = len(token_rows)
    last_hidden = lstm_last_hidden(params, token_rows)
    pe = row_lookup(params["enc.pe"], [n - 1 - i for i in range(n)])
    h_u = concat_cols(last_hidden, pe)
    kv = project_kv(params, "enc.ctx_attn", h_u, cfg.heads)
    return multihead(params, "enc.ctx_attn", h_u, kv, cfg.heads, drop=drop)


def project_modality(vectors: np.ndarray, which: str, params: ModelParams,
                     drop: Drop | None = None) -> Tensor:
    """The ``face`` or ``audio`` vectors in the model width, through that
    modality's FFN; ``DialogueRecord.validate`` has checked their width."""
    return ffn(params, f"enc.{which}_ffn", Tensor(vectors), drop)


def lookup_node_embeddings(record: DialogueRecord, params: ModelParams,
                           roster: SpeakerRoster) -> tuple[Tensor, Tensor]:
    """Per-utterance emotion rows and per-distinct-speaker personality rows."""
    x_e = row_lookup(params["enc.emotion_emb"],
                     [EMOTION_INDEX[e] for e in record.emotions])
    x_s = row_lookup(params["enc.speaker_emb"],
                     [roster.id_of(s) for s in distinct_speakers(record)])
    return x_e, x_s


def hgnn_forward(graph: HeteroGraph, h0: Tensor, params: ModelParams,
                 cfg: TrainConfig, drop: Drop | None = None) -> Tensor:
    """Stacked graph convolution over the typed adjacency, ReLU after
    each layer.

    hetero mode is relational message passing (R-GCN, Schlichtkrull et
    al., 2018): one weight matrix per node type and the five typed
    contributions summed, ``Σ_τ A_τ H W_τ + b_τ``. It runs as one product
    with the adjacency A. The layer's stored ``w`` stacks the five type
    weights W_τ as row blocks and its ``b`` stacks the five b_τ as rows.
    The mask M keeps node j's type block of the columns of ``[H; …; H]``,
    five copies of H side by side, so ``([H; …; H] ⊙ M)·w`` is row j of H
    times W_τ(j). A_τ keeps the columns (senders) of type τ, so the layer
    is ``A·(([H; …; H] ⊙ M)·w) + Σ_τ b_τ``. homo mode applies a single
    matrix over the plain adjacency.
    """
    if h0.shape[0] != graph.n_nodes:
        raise ValueError(f"feature matrix has {h0.shape[0]} rows for "
                         f"{graph.n_nodes} graph nodes")
    h = h0
    hetero = cfg.gnn_mode == "hetero"
    a = Tensor(graph.adjacency.astype(np.float64))
    if not hetero:
        for layer in range(cfg.gnn_layers):
            h = relu(affine(matmul(a, h), params[f"enc.gnn.l{layer}.w"],
                            params[f"enc.gnn.l{layer}.b"]))
    else:
        n_types = len(NODE_TYPES)
        one_hot = graph.node_type[:, np.newaxis] == np.arange(n_types)
        mask = Tensor(np.repeat(one_hot.astype(np.float64), cfg.d_model, axis=1))
        ones = Tensor(np.ones((1, n_types)))
        for layer in range(cfg.gnn_layers):
            w = params[f"enc.gnn.l{layer}.w"]
            b_sum = matmul(ones, params[f"enc.gnn.l{layer}.b"])
            messages = matmul(elem_mul(concat_cols(*[h] * n_types), mask), w)
            h = relu(affine(a, messages, b_sum))
    return ffn(params, "enc.out_ffn", h, drop)


def predict_emotion(h_enc: Tensor, params: ModelParams) -> Tensor:
    """Mean-pool the node features and map to the 7-way distribution."""
    pooled = mean_rows(h_enc)
    logits = matmul(pooled, params["enc.emotion_head.w"])
    return softmax_rows(logits)


def assemble_node_features(record: DialogueRecord, graph: HeteroGraph,
                           params: ModelParams, vocab: Vocab, roster: SpeakerRoster,
                           cfg: TrainConfig, drop: Drop | None = None) -> Tensor:
    """Stack the per-type feature blocks in graph node order."""
    present = {NODE_TYPES[t] for t in set(graph.node_type.tolist())}
    blocks = [encode_utterances(record, params, vocab, cfg, drop)]
    if NodeType.FACE in present:
        blocks.append(project_modality(record.faces, "face", params, drop))
    if NodeType.AUDIO in present:
        blocks.append(project_modality(record.audios, "audio", params, drop))
    if NodeType.EMOTION in present or NodeType.SPEAKER in present:
        x_e, x_s = lookup_node_embeddings(record, params, roster)
        if NodeType.EMOTION in present:
            blocks.append(x_e)
        if NodeType.SPEAKER in present:
            blocks.append(x_s)
    return concat_rows(*blocks)
