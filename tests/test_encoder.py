from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgchat import corpus as cp
from hgchat import diffcore as dc
from hgchat import encoder as enc
from hgchat.config import TrainConfig
from hgchat.graph import build_hetero_graph
from hgchat.model import Model
from hgchat.params import init_model_params

from oracles import (ffn_two_layer, lstm_final_states, single_head_attention,
                     typed_graph_conv)


def tiny_cfg(**kw):
    base = dict(d_word=4, d_hidden=6, d_model=8, heads=2, gnn_layers=2,
                face_dim=3, audio_dim=3, z_speakers=4, max_turns=6,
                dropout=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def record_for(n=2, speakers=None, with_modalities=True, cfg=None):
    cfg = cfg or tiny_cfg()
    speakers = speakers or [f"s{i % 2 + 1}" for i in range(n)]
    rng = np.random.default_rng(n)
    return cp.DialogueRecord(
        utterances=[f"token{i} other word" for i in range(n)],
        emotions=[cp.EMOTIONS[i % 7] for i in range(n)],
        speakers=speakers,
        next_speaker=speakers[0],
        response="sure thing",
        response_emotion="joy",
        faces=rng.standard_normal((n, cfg.face_dim)) if with_modalities else None,
        audios=rng.standard_normal((n, cfg.audio_dim)) if with_modalities else None,
    )


def build_everything(n=2, cfg=None, **rec_kw):
    cfg = cfg or tiny_cfg()
    rec = record_for(n, cfg=cfg, **rec_kw)
    corpus = [rec]
    vocab = cp.build_vocab(corpus)
    roster = cp.build_roster(corpus, cfg.z_speakers)
    params = init_model_params(cfg, vocab.size, roster.size)
    return rec, cfg, vocab, roster, params


# --- utterance encoding ---------------------------------------------------

def test_single_utterance_attention_is_projected_value():
    rec, cfg, vocab, roster, params = build_everything(n=1)
    x_u = enc.encode_utterances(rec, params, vocab, cfg).values
    # with one row, each head's softmax weight is exactly 1 over itself
    h = enc.lstm_last_hidden(params, enc.utterance_token_ids(rec, vocab, cfg.max_len)).values
    pe = params["enc.pe"].values[[0]]
    hu = np.concatenate([h, pe], axis=1)
    heads = [hu @ wv for wv in np.split(params["enc.ctx_attn.wv"].values, cfg.heads, axis=1)]
    want = np.concatenate(heads, axis=1) @ params["enc.ctx_attn.wo"].values
    assert np.allclose(x_u, want, atol=1e-12)


def test_permuting_history_changes_features():
    rec, cfg, vocab, roster, params = build_everything(n=2)
    swapped = cp.DialogueRecord(
        utterances=rec.utterances[::-1], emotions=rec.emotions[::-1],
        speakers=rec.speakers[::-1], next_speaker=rec.next_speaker,
        response=rec.response, response_emotion=rec.response_emotion,
        faces=rec.faces[::-1].copy(), audios=rec.audios[::-1].copy(),
    )
    a = enc.encode_utterances(rec, params, vocab, cfg).values
    b = enc.encode_utterances(swapped, params, vocab, cfg).values
    assert not np.allclose(a[0], b[1])  # same utterance, different position


def test_two_turn_attention_matches_hand_oracle():
    # one head, which owns every column of the projections; independent
    # numpy attention oracle
    cfg = tiny_cfg(heads=1, d_model=4, d_hidden=3, d_pe=3)
    rec, cfg, vocab, roster, params = build_everything(n=2, cfg=cfg)
    token_rows = enc.utterance_token_ids(rec, vocab, cfg.max_len)
    h = enc.lstm_last_hidden(params, token_rows).values
    pe = params["enc.pe"].values[[1, 0]]
    hu = np.concatenate([h, pe], axis=1)
    want = single_head_attention(
        hu, hu, hu,
        params["enc.ctx_attn.wq"].values,
        params["enc.ctx_attn.wk"].values,
        params["enc.ctx_attn.wv"].values,
        params["enc.ctx_attn.wo"].values,
    )
    got = enc.encode_utterances(rec, params, vocab, cfg).values
    assert np.allclose(got, want, atol=1e-12)


def test_empty_utterance_becomes_pad_token():
    rec, cfg, vocab, roster, params = build_everything(n=2)
    rec.utterances[1] = "   "
    rows = enc.utterance_token_ids(rec, vocab, cfg.max_len)
    assert rows[1] == [cp.PAD]


def test_long_utterance_truncated():
    # the CLI reports truncated records once, as it loads them
    rec, cfg, vocab, roster, params = build_everything(n=1)
    rec.utterances[0] = " ".join(["word"] * (cfg.max_len + 5))
    rows = enc.utterance_token_ids(rec, vocab, cfg.max_len)
    assert len(rows[0]) == cfg.max_len


def test_lstm_gather_ignores_padding():
    # an utterance's final state must not depend on longer neighbors
    cfg = tiny_cfg()
    vocab = cp.Vocab(list(cp.RESERVED_TOKENS) + ["a", "b", "c"])
    params = init_model_params(cfg, vocab.size, 3)
    short = enc.lstm_last_hidden(params, [[4, 5]]).values
    batched = enc.lstm_last_hidden(params, [[4, 5], [4, 5, 6, 6]]).values
    assert np.allclose(short[0], batched[0], rtol=0, atol=1e-14)


def test_lstm_matches_zero_state_recurrence():
    cfg = tiny_cfg()
    vocab = cp.Vocab(list(cp.RESERVED_TOKENS) + ["a", "b", "c"])
    params = init_model_params(cfg, vocab.size, 3)
    rng = np.random.default_rng(4)
    for name, t in params.items():
        if name.startswith("enc.lstm."):  # biases too, so no gate input is trivial
            t.values[:] = rng.standard_normal(t.shape)
    rows = [[4, 5, 6], [6], [5, 4, 4, 6, 5]]
    weights = [params[f"enc.lstm.{kind}{gate}"].values
               for gate in "ifoc" for kind in "wub"]
    want = lstm_final_states(params["enc.word_emb"].values, rows, *weights)
    got = enc.lstm_last_hidden(params, rows).values
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_lstm_records_one_affine_per_gate_and_step():
    # step 0 skips the recurrent terms: a lookup, three affines, two sigmoids,
    # a tanh and a product for c, a tanh and a product for h (10); a later
    # step is a lookup, two affines per gate (x W + b, then h U on top of
    # it as a per-row bias), three sigmoids, a tanh, c = f*c + i*g and
    # h = o*tanh(c) (18); then one concat_rows and one row_lookup
    cfg = tiny_cfg()
    params = init_model_params(cfg, 7, 3)
    rows = [[4, 5], [4, 5, 6, 6], [6]]  # ragged: 4 steps
    with dc.recording() as tape:
        enc.lstm_last_hidden(params, rows)
        kinds = Counter(kind for kind, *_ in tape)
    assert sum(kinds.values()) == 10 + 3 * 18 + 2
    assert kinds == {"row_lookup": 5, "affine": 3 + 3 * 8, "sigmoid": 2 + 3 * 3,
                     "tanh": 2 * 4, "elem_mul": 2 + 3 * 3, "add": 3, "concat_rows": 1}


# --- modality projection ----------------------------------------------------

def test_project_modality_zero_input_zero_biases():
    rec, cfg, vocab, roster, params = build_everything()
    out = enc.project_modality(np.zeros((3, cfg.face_dim)), "face", params)
    assert np.array_equal(out.values, np.zeros((3, cfg.d_model)))


def test_project_modality_shape_contract():
    rec, cfg, vocab, roster, params = build_everything()
    for n in (1, 2, 5):
        out = enc.project_modality(np.ones((n, cfg.audio_dim)), "audio", params)
        assert out.shape == (n, cfg.d_model)


def test_project_modality_hand_weights():
    rec, cfg, vocab, roster, params = build_everything()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, cfg.face_dim))
    got = enc.project_modality(x, "face", params).values
    want = ffn_two_layer(x, params["enc.face_ffn.w1"].values,
                         params["enc.face_ffn.b1"].values,
                         params["enc.face_ffn.w2"].values,
                         params["enc.face_ffn.b2"].values)
    assert np.allclose(got, want, atol=1e-12)


def test_encode_refuses_a_record_of_another_face_width():
    rec, cfg, vocab, roster, params = build_everything()
    rec.faces = np.ones((rec.n_turns, 7))
    with pytest.raises(cp.RecordError, match=f"face vectors: expected dim {cfg.face_dim}, got 7"):
        Model(cfg, params, vocab, roster).encode(rec)


# --- node embeddings --------------------------------------------------------

def test_equal_emotion_labels_share_rows():
    rec, cfg, vocab, roster, params = build_everything(n=2)
    rec.emotions = ["joy", "joy"]
    x_e, _ = enc.lookup_node_embeddings(rec, params, roster)
    assert np.array_equal(x_e.values[0], x_e.values[1])


def test_unknown_speaker_uses_unk_row():
    rec, cfg, vocab, roster, params = build_everything(n=1)
    rec.speakers = ["some-stranger"]
    _, x_s = enc.lookup_node_embeddings(rec, params, roster)
    assert np.array_equal(x_s.values[0], params["enc.speaker_emb"].values[0])


def test_speaker_table_rows_match_config():
    cfg = tiny_cfg(z_speakers=13)
    params = init_model_params(cfg, 10, cfg.z_speakers)
    assert params["enc.speaker_emb"].shape == (13, cfg.d_model)
    assert params["enc.emotion_emb"].shape == (7, cfg.d_model)


# --- graph convolution -------------------------------------------------------

def encoded_features(rec, cfg, vocab, roster, params):
    graph = build_hetero_graph(rec, cfg.ablate)
    h0 = enc.assemble_node_features(rec, graph, params, vocab, roster, cfg)
    return graph, h0


def type_blocks(params, layer):
    """Each node type's (w, b) in a hetero layer, as views into the stored
    tensors: row block τ of ``w`` and row τ of ``b``, types in u, f, a,
    e, s order."""
    w = np.split(params[f"enc.gnn.l{layer}.w"].values, 5)
    b = np.split(params[f"enc.gnn.l{layer}.b"].values, 5)
    return dict(zip("ufaes", zip(w, b)))


def test_zero_weights_give_ffn_of_zero():
    rec, cfg, vocab, roster, params = build_everything()
    graph, h0 = encoded_features(rec, cfg, vocab, roster, params)
    for layer in range(cfg.gnn_layers):
        params[f"enc.gnn.l{layer}.w"].values[:] = 0.0
        params[f"enc.gnn.l{layer}.b"].values[:] = 0.0
    got = enc.hgnn_forward(graph, h0, params, cfg).values
    zero = np.zeros((graph.n_nodes, cfg.d_model))
    want = ffn_two_layer(zero, params["enc.out_ffn.w1"].values,
                         params["enc.out_ffn.b1"].values,
                         params["enc.out_ffn.w2"].values,
                         params["enc.out_ffn.b2"].values)
    assert np.allclose(got, want, atol=1e-12)


def tie_hetero_to_homo(cfg, hetero_params, homo_params):
    # equal type weights plus a five-way bias split reproduce the plain
    # convolution exactly, because the five masks partition the adjacency
    for layer in range(cfg.gnn_layers):
        w = homo_params[f"enc.gnn.l{layer}.w"].values
        b = homo_params[f"enc.gnn.l{layer}.b"].values
        for w_t, b_t in type_blocks(hetero_params, layer).values():
            w_t[:] = w
            b_t[:] = b / 5.0


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_tied_hetero_equals_homo(n, seed):
    cfg_het = tiny_cfg(gnn_mode="hetero")
    cfg_hom = tiny_cfg(gnn_mode="homo")
    rec = cp.synthesize_corpus(1, seed=seed, min_turns=n, max_turns=n,
                               face_dim=cfg_het.face_dim, audio_dim=cfg_het.audio_dim)[0]
    vocab = cp.build_vocab([rec])
    roster = cp.build_roster([rec], cfg_het.z_speakers)
    het = init_model_params(cfg_het, vocab.size, roster.size)
    hom = init_model_params(cfg_hom, vocab.size, roster.size)
    for name, t in hom.items():
        if not name.startswith("enc.gnn."):  # the layers share names, not shapes
            het[name].values[:] = t.values
    tie_hetero_to_homo(cfg_het, het, hom)
    graph, h0 = encoded_features(rec, cfg_het, vocab, roster, het)
    got = enc.hgnn_forward(graph, h0, het, cfg_het).values
    want = enc.hgnn_forward(graph, h0, hom, cfg_hom).values
    assert np.allclose(got, want, atol=1e-12)


def test_two_node_graph_hand_convolution():
    # one utterance + its emotion node, modalities ablated, one layer
    cfg = tiny_cfg(gnn_layers=1, d_model=2, d_hidden=2, d_pe=2, d_word=2,
                   heads=1, ablate=("speaker",))
    rec, cfg, vocab, roster, params = build_everything(n=1, cfg=cfg,
                                                       with_modalities=False)
    graph, h0 = encoded_features(rec, cfg, vocab, roster, params)
    assert graph.n_nodes == 2
    adj = graph.adjacency.astype(float)
    masks = {code: np.array([k == code for k in ("u", "e")], dtype=float)
             for code in ("u", "e")}
    h = h0.values
    pre = np.zeros_like(h)
    for code, (w, b) in type_blocks(params, 0).items():
        a_t = adj * masks.get(code, np.zeros(2))[np.newaxis, :]
        pre += a_t @ h @ w + b
    want = ffn_two_layer(np.maximum(pre, 0.0),
                         params["enc.out_ffn.w1"].values,
                         params["enc.out_ffn.b1"].values,
                         params["enc.out_ffn.w2"].values,
                         params["enc.out_ffn.b2"].values)
    got = enc.hgnn_forward(graph, h0, params, cfg).values
    assert np.allclose(got, want, atol=1e-12)


def randomize_gnn(params, seed):
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        if name.startswith("enc.gnn."):
            t.values[:] = rng.uniform(-0.5, 0.5, size=t.shape)


@pytest.mark.parametrize("ablate", [(), ("face",), ("speaker", "emotion")])
def test_hgnn_matches_five_matrix_oracle(ablate):
    cfg = tiny_cfg(ablate=ablate)
    rec = cp.synthesize_corpus(1, seed=7, min_turns=5, max_turns=5, n_speakers=3,
                               face_dim=cfg.face_dim, audio_dim=cfg.audio_dim)[0]
    vocab = cp.build_vocab([rec])
    roster = cp.build_roster([rec], cfg.z_speakers)
    params = init_model_params(cfg, vocab.size, roster.size)
    randomize_gnn(params, seed=3)
    graph, h0 = encoded_features(rec, cfg, vocab, roster, params)
    layers = [type_blocks(params, layer) for layer in range(cfg.gnn_layers)]
    h = typed_graph_conv(graph.adjacency, [n.kind.value for n in graph.nodes], h0.values,
                         layers)
    want = ffn_two_layer(h, params["enc.out_ffn.w1"].values, params["enc.out_ffn.b1"].values,
                         params["enc.out_ffn.w2"].values, params["enc.out_ffn.b2"].values)
    got = enc.hgnn_forward(graph, h0, params, cfg).values
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_row_count_contract():
    rec, cfg, vocab, roster, params = build_everything()
    graph, h0 = encoded_features(rec, cfg, vocab, roster, params)
    with pytest.raises(ValueError, match="rows"):
        enc.hgnn_forward(graph, dc.Tensor(np.zeros((graph.n_nodes + 1, cfg.d_model))),
                         params, cfg)


def test_node_order_equivariance():
    rec, cfg, vocab, roster, params = build_everything(n=3)
    graph, h0 = encoded_features(rec, cfg, vocab, roster, params)
    out = enc.hgnn_forward(graph, h0, params, cfg)
    p = enc.predict_emotion(out, params)

    rng = np.random.default_rng(0)
    perm = rng.permutation(graph.n_nodes)
    permuted = build_hetero_graph(rec, cfg.ablate)
    permuted.adjacency = graph.adjacency[np.ix_(perm, perm)]
    permuted.node_type = graph.node_type[perm]
    h0_perm = dc.Tensor(h0.values[perm])
    out_perm = enc.hgnn_forward(permuted, h0_perm, params, cfg)
    p_perm = enc.predict_emotion(out_perm, params)
    assert np.allclose(out_perm.values, out.values[perm], atol=1e-12)
    assert np.allclose(p_perm.values, p.values, atol=1e-12)


@pytest.mark.parametrize("call", ["generate", "predict_label"])
def test_encode_rejects_record_over_max_turns(call):
    rec, cfg, vocab, roster, params = build_everything(n=5, cfg=tiny_cfg(max_turns=4))
    model = Model(cfg, params, vocab, roster)
    with pytest.raises(cp.RecordError, match="5 turns exceeds max_turns=4"):
        getattr(model, call)(rec)


# --- emotion predictor -------------------------------------------------------

def test_zero_head_gives_uniform_distribution():
    rec, cfg, vocab, roster, params = build_everything()
    params["enc.emotion_head.w"].values[:] = 0.0
    graph, h0 = encoded_features(rec, cfg, vocab, roster, params)
    p = enc.predict_emotion(enc.hgnn_forward(graph, h0, params, cfg), params).values
    assert np.allclose(p, np.full((1, 7), 1 / 7), atol=1e-15)


def test_meanpool_of_identical_rows_is_that_row():
    row = np.arange(5.0)
    pooled = dc.mean_rows(dc.Tensor(np.tile(row, (4, 1)))).values
    assert np.allclose(pooled, row, atol=1e-15)


def test_distribution_sums_to_one_positive():
    rec, cfg, vocab, roster, params = build_everything(n=3)
    graph, h0 = encoded_features(rec, cfg, vocab, roster, params)
    p = enc.predict_emotion(enc.hgnn_forward(graph, h0, params, cfg), params).values
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p > 0)


# --- gradient coverage -------------------------------------------------------

def test_every_encoder_parameter_group_gets_gradient():
    cfg = tiny_cfg(d_model=8, lam=0.5)
    rec = cp.synthesize_corpus(1, seed=3, min_turns=3, max_turns=3,
                               face_dim=cfg.face_dim, audio_dim=cfg.audio_dim)[0]
    vocab = cp.build_vocab([rec])
    roster = cp.build_roster([rec], cfg.z_speakers)
    params = init_model_params(cfg, vocab.size, roster.size)
    model = Model(cfg, params, vocab, roster)
    with dc.recording():
        out = model.losses(rec)
        dc.backward(out.joint)
    dead = [name for name, t in params.items()
            if name.startswith("enc.") and not np.any(t.grad)]
    assert dead == []
