import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgchat import corpus as cp
from hgchat import decoder as dec
from hgchat import diffcore as dc
from hgchat.config import TrainConfig
from hgchat.model import Encoded, Model
from hgchat.params import init_model_params

from oracles import beam_search, decoder_distributions


def tiny_cfg(**kw):
    base = dict(d_word=4, d_hidden=6, d_model=8, heads=2, gnn_layers=1,
                face_dim=3, audio_dim=3, z_speakers=3, max_turns=4,
                dropout=0.0, seed=0, max_len=12)
    base.update(kw)
    return TrainConfig(**base)


def setup(vocab_size=9, seed=0, cfg=None):
    cfg = cfg or tiny_cfg()
    rng = np.random.default_rng(seed)
    params = init_model_params(dataclasses.replace(cfg, seed=seed), vocab_size, cfg.z_speakers)
    h_enc = dc.Tensor(rng.standard_normal((5, cfg.d_model)))
    e_p = dc.Tensor(rng.standard_normal((1, cfg.d_model)))
    s_p = dc.Tensor(rng.standard_normal((1, cfg.d_model)))
    return cfg, params, h_enc, e_p, s_p


def stack(row, n):
    """``n`` copies of a 1 x d row: ``fold_gate`` takes one row per decoder row."""
    return dc.Tensor(np.repeat(row.values, n, axis=0))


def oracle(tokens, h_enc, e_p, s_p, params, cfg):
    """The unfused numpy decoder's distributions after each prefix of ``tokens``,
    its weights in the oracle's layout: the gate's two blocks joined in one
    3d x d ``dec.gate.w`` and the output projection V x d."""
    weights = {name: t.values for name, t in params.items()}
    weights["dec.gate.w"] = np.vstack([weights.pop("dec.gate.wo"), weights.pop("dec.gate.wes")])
    weights["dec.out_proj.w"] = weights["dec.out_proj.w"].T
    return decoder_distributions(tokens, h_enc.values, e_p.values, s_p.values, weights,
                                 cfg.heads)


# --- emotion mixing ---------------------------------------------------------

def mixed_row(p, golden=False):
    """The emotion row ``Model.mix_inputs`` gives for the predicted
    distribution ``p`` of a record whose gold emotion is ``EMOTIONS[4]``,
    and the emotion table."""
    cfg = tiny_cfg(golden_emotion=golden)
    rec = cp.synthesize_corpus(1, seed=5, face_dim=cfg.face_dim, audio_dim=cfg.audio_dim)[0]
    rec.response_emotion = cp.EMOTIONS[4]
    vocab, roster = cp.build_vocab([rec]), cp.build_roster([rec], cfg.z_speakers)
    model = Model(cfg, init_model_params(cfg, vocab.size, roster.size), vocab, roster)
    e_p, _ = model.mix_inputs(Encoded(None, dc.Tensor(p)), rec)
    return e_p.values[0], model.params["enc.emotion_emb"].values


def test_one_hot_mixture_is_table_row():
    # golden-emotion mode mixes by the one-hot gold label, not by p
    row, table = mixed_row(np.full((1, 7), 1 / 7), golden=True)
    assert np.array_equal(row, table[4])


def test_uniform_mixture_is_column_mean():
    row, table = mixed_row(np.full((1, 7), 1 / 7))
    assert np.allclose(row, table.mean(axis=0), atol=1e-15)


def test_half_half_mixture():
    p = np.zeros((1, 7))
    p[0, 0] = p[0, 1] = 0.5
    row, table = mixed_row(p)
    assert np.allclose(row, (table[0] + table[1]) / 2, atol=1e-15)


# --- gate fusion -------------------------------------------------------------

def test_gate_equal_vectors_add_exactly():
    cfg, params, h_enc, e_p, s_p = setup()
    o = dc.Tensor(np.random.default_rng(3).standard_normal((3, cfg.d_model)))
    fused = dec.gate_fuse(o, dec.fold_gate(stack(e_p, 3), stack(e_p, 3), params))
    want = o.values + e_p.values
    assert np.allclose(fused.values, want, atol=1e-12)


def test_gate_zero_weights_half_half():
    cfg, params, h_enc, e_p, s_p = setup()
    params["dec.gate.wo"].values[:] = 0.0
    params["dec.gate.wes"].values[:] = 0.0
    params["dec.gate.b"].values[:] = 0.0
    o = dc.Tensor(np.zeros((2, cfg.d_model)))
    fused = dec.gate_fuse(o, dec.fold_gate(stack(e_p, 2), stack(s_p, 2), params))
    # e_p and s_p differ in every coordinate, so this pins the gate at 1/2
    assert np.allclose(fused.values, (e_p.values + s_p.values) / 2, atol=1e-14)


def test_gate_hand_evaluation_d2():
    cfg = tiny_cfg(d_model=2, heads=1, d_hidden=2, d_pe=2, d_word=2)
    params = init_model_params(dataclasses.replace(cfg, seed=1), 6, cfg.z_speakers)
    w = np.arange(12.0).reshape(6, 2) / 10.0
    params["dec.gate.wo"].values[:] = w[:2]
    params["dec.gate.wes"].values[:] = w[2:]
    params["dec.gate.b"].values[:] = [[0.1, -0.2]]
    o = np.array([[0.5, -1.0]])
    e = np.array([[1.0, 2.0]])
    s = np.array([[-0.5, 0.25]])
    fused = dec.gate_fuse(dc.Tensor(o), dec.fold_gate(dc.Tensor(e), dc.Tensor(s), params))
    z = np.concatenate([o, e, s], axis=1) @ w + np.array([[0.1, -0.2]])
    gval = 1 / (1 + np.exp(-z))
    want = o + gval * e + (1 - gval) * s
    # e - s is nonzero in both coordinates, so fused pins the gate values
    assert np.allclose(fused.values, want, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_gate_range_and_convexity(seed, rows):
    cfg, params, h_enc, e_p, s_p = setup(seed=seed)
    rng = np.random.default_rng(seed)
    o = dc.Tensor(rng.standard_normal((rows, cfg.d_model)))
    fused = dec.gate_fuse(o, dec.fold_gate(stack(e_p, rows), stack(s_p, rows), params))
    # the shift lies between e_p and s_p exactly when the gate lies in [0, 1]
    shift = fused.values - o.values
    lo = np.minimum(e_p.values, s_p.values)
    hi = np.maximum(e_p.values, s_p.values)
    assert np.all(shift >= lo - 1e-12) and np.all(shift <= hi + 1e-12)


# --- step distributions -------------------------------------------------------

@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_distributions_match_unfused_oracle(seed, heads):
    cfg, params, h_enc, e_p, s_p = setup(seed=seed, cfg=tiny_cfg(heads=heads))
    rng = np.random.default_rng(seed)
    tokens = [cp.BOS] + [int(rng.integers(4, 9)) for _ in range(7)]
    got = dec.step_distributions(tokens, h_enc, e_p, s_p, params, cfg).values
    assert np.max(np.abs(got - oracle(tokens, h_enc, e_p, s_p, params, cfg))) <= 1e-12


def test_distribution_rows_sum_to_one():
    cfg, params, h_enc, e_p, s_p = setup()
    probs = dec.step_distributions([cp.BOS, 5, 6, 7], h_enc, e_p, s_p, params, cfg)
    assert np.allclose(probs.values.sum(axis=1), 1.0, atol=1e-12)


def test_empty_prefix_contract_error():
    cfg, params, h_enc, e_p, s_p = setup()
    with pytest.raises(dc.ContractError, match="prefix"):
        dec.step_distributions([], h_enc, e_p, s_p, params, cfg)


def test_causality_future_mutation_bit_identical():
    cfg, params, h_enc, e_p, s_p = setup()
    rng = np.random.default_rng(0)
    base = [cp.BOS] + [int(rng.integers(4, 9)) for _ in range(6)]
    for t in range(len(base) - 1):
        ref = dec.step_distributions(base, h_enc, e_p, s_p, params, cfg).values[t]
        mutated = list(base)
        for pos in range(t + 1, len(base)):
            mutated[pos] = int(rng.integers(4, 9))
        got = dec.step_distributions(mutated, h_enc, e_p, s_p, params, cfg).values[t]
        assert np.array_equal(ref, got)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cached_step_matches_step_distributions(seed):
    cfg, params, h_enc, e_p, s_p = setup(seed=seed)
    rng = np.random.default_rng(seed)
    tokens = [cp.BOS] + [int(rng.integers(4, 9)) for _ in range(9)]
    state = dec.DecodeState(h_enc, e_p, s_p, params, cfg)
    full = oracle(tokens, h_enc, e_p, s_p, params, cfg)
    for t, tok in enumerate(tokens):
        dist = state.run([tok]).values
        assert dist.shape == (1, params["dec.out_proj.w"].shape[1])
        prefix = oracle(tokens[:t + 1], h_enc, e_p, s_p, params, cfg)
        assert np.max(np.abs(dist[0] - prefix[-1])) <= 1e-12
        assert np.max(np.abs(dist[0] - full[t])) <= 1e-12
        assert state.cache[0].shape == (t + 1, cfg.d_model)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_step_matches_step_distributions_per_hypothesis(seed):
    """Four hypotheses stepped together, reordered with a repeated parent,
    then narrowed to two: every row is the last row of its own prefix's
    teacher-forced distributions under the unfused oracle."""
    cfg, params, h_enc, e_p, s_p = setup(seed=seed)
    rng = np.random.default_rng(seed)
    state = dec.DecodeState(h_enc, e_p, s_p, params, cfg)

    def distinct_tokens(n):
        return [int(t) for t in rng.choice(np.arange(4, 9), n, replace=False)]

    def check(dists, prefixes):
        assert dists.shape[0] == len(prefixes)
        for prefix, row in zip(prefixes, dists):
            want = oracle(prefix, h_enc, e_p, s_p, params, cfg)[-1]
            assert np.max(np.abs(row - want)) <= 1e-12

    prefixes = [[cp.BOS, a, b] for a, b in zip(distinct_tokens(4), distinct_tokens(4))]
    state.keep([0] * 4)
    for t in range(3):
        check(state.run([p[t] for p in prefixes]).values, [p[:t + 1] for p in prefixes])
    for parents in ([3, 1, 1, 0], [2, 0]):  # a repeated parent, then 4 -> 2
        state.keep(parents)
        prefixes = [list(prefixes[j]) for j in parents]
        for _ in range(3):
            for prefix, tok in zip(prefixes, distinct_tokens(len(prefixes))):
                prefix.append(tok)
            check(state.run([p[-1] for p in prefixes]).values, prefixes)
            assert state.cache[0].shape == (len(prefixes[0]) * len(prefixes), cfg.d_model)


def test_run_and_keep_reject_rows_they_do_not_have():
    cfg, params, h_enc, e_p, s_p = setup()
    state = dec.DecodeState(h_enc, e_p, s_p, params, cfg)
    state.keep([0, 0, 0])
    with pytest.raises(dc.ContractError, match="run: 2 tokens for 3 rows"):
        state.run([cp.BOS, cp.BOS])
    state.run([cp.BOS] * 3)
    for parent in (3, -1):
        with pytest.raises(dc.ContractError, match=f"keep: parent {parent} outside the 3 rows"):
            state.keep([0, parent])
    assert state.rows == [0, 0, 0] and state.cache[0].shape == (3, cfg.d_model)


def test_hypothesis_mask_is_built_once_and_read_only():
    mask = dec._hypothesis_mask(3, 2, 2)
    assert mask is dec._hypothesis_mask(3, 2, 2)
    assert not any(a.flags.writeable for a in (mask.index, mask.counts, mask.starts))
    assert np.array_equal(mask.index, np.flatnonzero(np.tile(np.eye(3, dtype=bool), (2, 2))))


# --- sequence NLL --------------------------------------------------------------

def test_uniform_model_single_token_nll():
    cfg, params, h_enc, e_p, s_p = setup(vocab_size=50)
    params["dec.out_proj.w"].values[:] = 0.0  # uniform distribution over 50
    nll = dec.sequence_nll([cp.EOS], h_enc, e_p, s_p, params, cfg)
    assert nll.item() == pytest.approx(math.log(50), abs=1e-12)


def test_nll_requires_eos():
    cfg, params, h_enc, e_p, s_p = setup()
    with pytest.raises(dc.ContractError, match="EOS"):
        dec.sequence_nll([4, 5], h_enc, e_p, s_p, params, cfg)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(4, 8), min_size=0, max_size=5), st.integers(0, 9999))
def test_nll_nonnegative(tokens, seed):
    cfg, params, h_enc, e_p, s_p = setup(seed=seed)
    nll = dec.sequence_nll(tokens + [cp.EOS], h_enc, e_p, s_p, params, cfg)
    assert nll.item() >= 0.0


def test_two_token_nll_hand_computed():
    cfg, params, h_enc, e_p, s_p = setup(vocab_size=7)  # 3 words + reserved
    target = [4, cp.EOS]
    probs = dec.step_distributions([cp.BOS, 4], h_enc, e_p, s_p, params, cfg).values
    want = -math.log(probs[0, 4]) - math.log(probs[1, cp.EOS])
    got = dec.sequence_nll(target, h_enc, e_p, s_p, params, cfg).item()
    assert got == pytest.approx(want, abs=1e-12)


# --- generation ------------------------------------------------------------------

def test_immediate_eos_gives_empty_response():
    cfg, params, h_enc, e_p, s_p = setup()
    w = params["dec.out_proj.w"].values
    w[:] = 0.0
    w[:, cp.EOS] = 5.0  # every step's argmax is EOS
    ids, truncated = dec.greedy_many([(h_enc, e_p, s_p)], params, cfg)[0]
    assert ids == [] and truncated is False


def test_beam_width_one_equals_greedy():
    for seed in range(5):
        cfg, params, h_enc, e_p, s_p = setup(seed=seed)
        greedy = dec.greedy_many([(h_enc, e_p, s_p)], params, cfg)[0]
        beam = dec.beam_decode(h_enc, e_p, s_p, params, cfg, width=1)
        assert greedy[0] == beam[0]


def test_cap_reached_flags_truncation():
    cfg, params, h_enc, e_p, s_p = setup()
    w = params["dec.out_proj.w"].values
    w[:] = 0.0
    w[:, 4] = 5.0  # argmax is always token 4, never EOS
    ids, truncated = dec.greedy_many([(h_enc, e_p, s_p)], params, cfg)[0]
    assert truncated is True and len(ids) == cfg.max_len


def lockstep_setup(seed, n_dialogues=5):
    """Dialogues ``(h_enc, e_p, s_p)`` of 3, 5, 7, ... encoder rows, and
    parameters for them. A token reaches the next step only through
    attention, so scaled-up token embeddings, a softened self-attention
    query and a sharpened cross-attention query make each step's choice of
    encoder rows depend on the prefix, and rows' histories differ; the EOS
    column points along the gate inputs, scaled so that some responses end
    early, at different steps, and others reach the cap."""
    cfg = tiny_cfg()
    rng = np.random.default_rng(seed)
    params = init_model_params(dataclasses.replace(cfg, seed=seed), 20, cfg.z_speakers)
    params["dec.tok_emb"].values[:] *= 5.0
    params["dec.self_attn.wq"].values[:] *= 0.5
    params["dec.cross_attn.wq"].values[:] *= 10.0
    dialogues = [(dc.Tensor(rng.standard_normal((3 + 2 * j, cfg.d_model))),
                  dc.Tensor(0.5 * rng.standard_normal((1, cfg.d_model))),
                  dc.Tensor(0.5 * rng.standard_normal((1, cfg.d_model))))
                 for j in range(n_dialogues)]
    params["dec.out_proj.w"].values[:, cp.EOS] = 0.3 * sum(e.values[0] + s.values[0]
                                                        for _, e, s in dialogues)
    return cfg, params, dialogues


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_dialogues", [1, 2, 5])
def test_lockstep_greedy_equals_per_dialogue_greedy(n_dialogues, seed):
    cfg, params, dialogues = lockstep_setup(seed)
    got = dec.greedy_many(dialogues[:n_dialogues], params, cfg)
    assert got == [dec.greedy_many([d], params, cfg)[0] for d in dialogues[:n_dialogues]]
    if n_dialogues == 5:
        assert {truncated for _, truncated in got} == {False, True}
        assert len({len(ids) for ids, truncated in got if not truncated}) >= 2


def test_lockstep_group_that_ends_at_the_first_step(monkeypatch):
    """Every dialogue's first argmax is EOS: every response is empty and
    not truncated, and the one ``keep([])`` leaves no row and no cache."""
    cfg, params, dialogues = lockstep_setup(1, 3)
    w = params["dec.out_proj.w"].values
    w[:] = 0.0
    w[:, cp.EOS] = 5.0
    kept = []

    class Spy(dec.DecodeState):
        def keep(self, parents):
            super().keep(parents)
            kept.append((list(parents), self.rows, self.cache))

    monkeypatch.setattr(dec, "DecodeState", Spy)
    assert dec.greedy_many(dialogues, params, cfg) == [([], False)] * 3
    assert kept == [([], [], None)]


def test_lockstep_rows_match_their_own_dialogue():
    """Three dialogues step together, then one leaves: every row is the last
    row of its own dialogue's teacher-forced distributions under the
    unfused oracle, and perturbing one dialogue's encoder rows leaves the
    other dialogues' rows bit-identical."""
    cfg, params, dialogues = lockstep_setup(0, 3)
    rng = np.random.default_rng(7)
    prefixes = [[cp.BOS] + [int(t) for t in rng.integers(4, 9, 5)] for _ in dialogues]

    def run(dialogues):
        h_enc, e_p, s_p = (dc.concat_rows(*parts) for parts in zip(*dialogues))
        state = dec.DecodeState(h_enc, e_p, s_p, params, cfg, [h.shape[0] for h, _, _ in dialogues])
        out = []
        for t in range(len(prefixes[0])):
            if t == 3:  # dialogue 1 leaves the batch
                state.keep([0, 2])
            dists = state.run([prefixes[j][t] for j in state.rows]).values
            out.append(dict(zip(state.rows, dists)))
        return out

    base = run(dialogues)
    for t, rows in enumerate(base):
        for j, row in rows.items():
            h_enc, e_p, s_p = dialogues[j]
            want = oracle(prefixes[j][:t + 1], h_enc, e_p, s_p, params, cfg)[-1]
            assert np.max(np.abs(row - want)) <= 1e-12
    for j in range(3):
        h_enc, e_p, s_p = dialogues[j]
        perturbed = list(dialogues)
        perturbed[j] = (dc.Tensor(h_enc.values + 0.5), e_p, s_p)
        for rows, moved in zip(base, run(perturbed)):
            for other, row in rows.items():
                assert np.array_equal(row, moved[other]) == (other != j)


def reference_beam(h_enc, e_p, s_p, params, cfg, max_tokens, width):
    """Beam search over the uncached unfused oracle, hypothesis by hypothesis."""
    live = [([cp.BOS], 0.0)]
    done = []
    for _ in range(max_tokens):
        pool = []
        for ids, score in live:
            logp = np.log(oracle(ids, h_enc, e_p, s_p, params, cfg)[-1])
            for tok in np.argsort(-logp, kind="stable")[:width]:
                pool.append((ids + [int(tok)], score + float(logp[tok])))
        pool.sort(key=lambda item: (-item[1], item[0]))
        live = []
        for ids, score in pool[:width]:
            if ids[-1] == cp.EOS:
                done.append((ids[1:-1], score / max(1, len(ids) - 1)))
            else:
                live.append((ids, score))
        if not live or len(done) >= width:
            break
    if done:
        done.sort(key=lambda item: (-item[1], item[0]))
        return done[0][0], False
    best = max(live, key=lambda item: item[1] / max(1, len(item[0]) - 1))
    return best[0][1:], True


@pytest.mark.parametrize("width", [2, 3, 4])
def test_cached_beam_matches_uncached_reference(width):
    flags = set()
    for seed in range(6):
        cfg, params, h_enc, e_p, s_p = setup(seed=seed)
        # point EOS along the gate's inputs, so that some beams end early
        params["dec.out_proj.w"].values[:, cp.EOS] = 0.1 * (e_p.values[0] + s_p.values[0])
        got = dec.beam_decode(h_enc, e_p, s_p, params, cfg, width)
        assert got == reference_beam(h_enc, e_p, s_p, params, cfg, cfg.max_len, width)
        flags.add(got[1])
    assert flags == {False, True}  # both finished and truncated searches compared


def tie(params, how):
    """Force equal scores: ``uniform`` makes every token of every step tie,
    ``twins`` makes tokens 5 and 6, and 7 and 8, tie as siblings."""
    w = params["dec.out_proj.w"].values
    if how == "uniform":
        w[:] = 0.0
    elif how == "twins":
        w[:, 6], w[:, 8] = w[:, 5], w[:, 7]
        w[:, 5] *= 4.0
        w[:, 6] *= 4.0


@pytest.mark.parametrize("how", [None, "uniform", "twins"])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_beam_search_equals_the_list_search_it_replaced(width, how):
    flags = set()
    for seed in range(6):
        cfg, params, h_enc, e_p, s_p = setup(seed=seed)
        params["dec.out_proj.w"].values[:, cp.EOS] = 0.1 * (e_p.values[0] + s_p.values[0])
        tie(params, how)
        got = dec.beam_decode(h_enc, e_p, s_p, params, cfg, width)
        state = dec.DecodeState(h_enc, e_p, s_p, params, cfg)
        assert got == beam_search(state, width, cfg.max_len)
        flags.add(got[1])
    if how is None and width > 1:
        assert flags == {False, True}


class ScriptedState:
    """Stands in for a ``DecodeState``: row i's next-token distribution is
    row ``tokens[i]`` of ``table``, and there is no cache."""

    def __init__(self, table):
        self.table = table

    def run(self, tokens):
        return dc.Tensor(self.table[tokens])

    def keep(self, parents):
        pass


def test_beam_ties_across_parents_rank_by_ids_not_by_parent_position(monkeypatch):
    # BOS proposes 5 (p .4) above 4 (p .3); 5 then proposes 7 (p .3) and 4
    # proposes 6 (p .4): [5, 7] and [4, 6] score log .4 + log .3 exactly
    # alike, and [4, 6] ranks first by its ids though its parent ranks second
    table = np.full((8, 8), 0.1)
    table[cp.BOS] = [0.05, 0.05, 0.05, 0.05, 0.3, 0.4, 0.05, 0.05]
    table[5, 7], table[4, 6] = 0.3, 0.4  # the search reads only their logs
    cfg, params, h_enc, e_p, s_p = setup(cfg=tiny_cfg(max_len=2))
    monkeypatch.setattr(dec, "DecodeState", lambda *args: ScriptedState(table))
    got = dec.beam_decode(h_enc, e_p, s_p, params, cfg, 2)
    assert got == beam_search(ScriptedState(table), 2, cfg.max_len) == ([4, 6], True)


@pytest.mark.parametrize("width", [0, -1])
def test_beam_width_below_one_rejected(width, caplog):
    cfg, params, h_enc, e_p, s_p = setup()
    with caplog.at_level("WARNING"), pytest.raises(ValueError, match="beam width"):
        dec.beam_decode(h_enc, e_p, s_p, params, cfg, width)
    assert not caplog.records


# --- golden-emotion boundary ----------------------------------------------------

def test_golden_substitution_changes_only_emotion_mix():
    cfg = tiny_cfg()
    recs = cp.synthesize_corpus(3, seed=5, face_dim=cfg.face_dim,
                                audio_dim=cfg.audio_dim)
    vocab = cp.build_vocab(recs)
    roster = cp.build_roster(recs, cfg.z_speakers)
    params = init_model_params(cfg, vocab.size, roster.size)
    base = Model(cfg, params, vocab, roster)
    golden = Model(TrainConfig(**{**cfg.to_dict(), "golden_emotion": True,
                                  "ablate": tuple(cfg.ablate)}),
                   params, vocab, roster)
    rec = recs[0]
    enc_base = base.encode(rec)
    enc_gold = golden.encode(rec)
    assert np.array_equal(enc_base.h_enc.values, enc_gold.h_enc.values)
    e_b, s_b = base.mix_inputs(enc_base, rec)
    e_g, s_g = golden.mix_inputs(enc_gold, rec)
    assert np.array_equal(s_b.values, s_g.values)  # personality untouched
    gold_row = params["enc.emotion_emb"].values[cp.EMOTION_INDEX[rec.response_emotion]]
    assert np.array_equal(e_g.values[0], gold_row)  # exact table row


# --- decoder gradients -----------------------------------------------------------

def test_decoder_parameter_gradients_match_fd():
    cfg, params, h_enc, e_p, s_p = setup(vocab_size=7)
    target = [4, 5, cp.EOS]
    # fold_gate carries gradients to the emotion and personality rows through c, e_p − s_p and s_p
    leaves = {"e_p": dc.Tensor(e_p.values, requires_grad=True),
              "s_p": dc.Tensor(s_p.values, requires_grad=True)}

    def build():
        return dec.sequence_nll(target, h_enc, leaves["e_p"], leaves["s_p"], params, cfg)

    for name in ("dec.gate.wo", "dec.gate.wes", "dec.gate.b", "dec.out_proj.w", "dec.tok_emb",
                 "dec.self_attn.wq", "dec.cross_attn.wk", "dec.self_attn.wo"):
        err = dc.grad_check(build, {name: params[name]}, eps=1e-5)
        assert err <= 1e-4, (name, err)
    for name, leaf in leaves.items():
        err = dc.grad_check(build, {name: leaf}, eps=1e-5)
        assert err <= 1e-4, (name, err)
