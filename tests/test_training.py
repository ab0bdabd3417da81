import numpy as np
import pytest

from hgchat import corpus as cp
from hgchat import diffcore as dc
from hgchat import training as tr
from hgchat.config import TrainConfig
from hgchat.model import Model
from hgchat.params import init_model_params


def tiny_cfg(**kw):
    base = dict(d_word=4, d_hidden=6, d_model=8, heads=2, gnn_layers=1,
                face_dim=3, audio_dim=3, z_speakers=3, max_turns=4,
                dropout=0.0, seed=0, epochs=2, batch_size=4)
    base.update(kw)
    return TrainConfig(**base)


def tiny_corpus(n=4, seed=0, cfg=None):
    cfg = cfg or tiny_cfg()
    return cp.synthesize_corpus(n, seed=seed, face_dim=cfg.face_dim,
                                audio_dim=cfg.audio_dim, max_turns=2)


def fresh_model(records, cfg):
    vocab = cp.build_vocab(records, cfg.min_count)
    roster = cp.build_roster(records, cfg.z_speakers)
    return Model(cfg, init_model_params(cfg, vocab.size, roster.size), vocab, roster)


# --- xavier ----------------------------------------------------------------

def test_xavier_bound_four_by_four():
    t = tr.xavier_init((4, 4), seed=0)
    bound = np.sqrt(6 / 8)
    assert bound == pytest.approx(0.866, abs=1e-3)
    assert np.all(np.abs(t.values) <= bound)


def test_xavier_deterministic():
    a = tr.xavier_init((5, 7), seed=123)
    b = tr.xavier_init((5, 7), seed=123)
    assert np.array_equal(a.values, b.values)


def test_xavier_empirical_mean_near_zero():
    t = tr.xavier_init((100, 100), seed=5)
    assert abs(t.values.mean()) < 0.02


def test_xavier_rejects_non_2d():
    with pytest.raises(ValueError):
        tr.xavier_init((3,), seed=0)


# --- adam -------------------------------------------------------------------

def test_adam_zero_gradient_leaves_fresh_params_unchanged():
    cfg = tiny_cfg()
    params = init_model_params(cfg, 8, 3)
    before = {n: t.values.copy() for n, t in params.items()}
    grads = {n: np.zeros_like(t.values) for n, t in params.items()}
    tr.adam_step(params, grads, cfg, t=1)
    assert all(np.array_equal(before[n], t.values) for n, t in params.items())
    assert all(np.all(m == 0) for m in params.adam_m.values())


def test_adam_scalar_first_step_hand_value():
    cfg = tiny_cfg(learning_rate=0.1)
    params = init_model_params(cfg, 8, 3)
    name = "enc.emotion_head.w"
    params[name].values[:] = 1.0
    grads = {name: np.ones_like(params[name].values)}
    tr.adam_step(params, grads, cfg, t=1)
    # bias correction makes the first step lr * g/(|g| + eps)
    want = 1.0 - 0.1 * 1.0 / (1.0 + cfg.adam_eps)
    assert np.allclose(params[name].values, want, atol=1e-15)


def test_adam_aborts_on_nonfinite_gradient_with_name():
    cfg = tiny_cfg()
    params = init_model_params(cfg, 8, 3)
    grads = {"dec.gate.w": np.full_like(params["dec.gate.w"].values, np.nan)}
    with pytest.raises(dc.NumericalError, match="dec.gate.w"):
        tr.adam_step(params, grads, cfg, t=1)


def test_adam_requires_positive_step_index():
    cfg = tiny_cfg()
    params = init_model_params(cfg, 8, 3)
    with pytest.raises(ValueError):
        tr.adam_step(params, {}, cfg, t=0)


# --- joint loss ----------------------------------------------------------------

def loss_parts(model, rec):
    out = model.losses(rec)
    return out.joint.item(), out.mll.item(), out.cls.item()


def test_joint_loss_decomposition_machine_precision():
    for lam in (0.0, 0.3, 0.5, 1.0):
        cfg = tiny_cfg(lam=lam)
        records = tiny_corpus(cfg=cfg)
        model = fresh_model(records, cfg)
        joint, mll, cls = loss_parts(model, records[0])
        assert joint == (1 - lam) * mll + lam * cls


def test_joint_loss_hand_arithmetic():
    # 0.5 * 4.0 + 0.5 * 1.2 == 2.6, the same combination rule the model uses
    lam = 0.5
    assert (1 - lam) * 4.0 + lam * 1.2 == pytest.approx(2.6, abs=1e-15)


def test_lambda_zero_detached_zeroes_predictor_gradient():
    cfg = tiny_cfg(lam=0.0, detach_predicted_emotion=True)
    records = tiny_corpus(cfg=cfg)
    model = fresh_model(records, cfg)
    with dc.recording():
        out = model.losses(records[0])
        dc.backward(out.joint)
    assert np.all(model.params["enc.emotion_head.w"].grad == 0.0)


def test_lambda_one_zeroes_generation_head_gradient():
    cfg = tiny_cfg(lam=1.0, detach_predicted_emotion=True)
    records = tiny_corpus(cfg=cfg)
    model = fresh_model(records, cfg)
    with dc.recording():
        out = model.losses(records[0])
        dc.backward(out.joint)
    assert np.all(model.params["dec.out_proj.w"].grad == 0.0)


def test_without_detach_predictor_receives_mll_gradient():
    cfg = tiny_cfg(lam=0.0, detach_predicted_emotion=False)
    records = tiny_corpus(cfg=cfg)
    model = fresh_model(records, cfg)
    with dc.recording():
        out = model.losses(records[0])
        dc.backward(out.joint)
    assert np.any(model.params["enc.emotion_head.w"].grad != 0.0)


# --- training loop ---------------------------------------------------------------

def test_training_runs_and_logs():
    cfg = tiny_cfg(epochs=3)
    records = tiny_corpus(6, cfg=cfg)
    res = tr.train(records, cfg)
    assert len(res.log) == 3
    assert all(np.isfinite(s.joint) for s in res.log)
    assert res.log[0].epoch == 1 and res.log[-1].epoch == 3


def test_training_deterministic_across_runs():
    cfg = tiny_cfg(epochs=2, dropout=0.1)
    records = tiny_corpus(5, cfg=cfg)
    r1 = tr.train(records, cfg)
    r2 = tr.train(records, cfg)
    assert [s.joint for s in r1.log] == [s.joint for s in r2.log]
    for name, t in r1.model.params.items():
        assert np.array_equal(t.values, r2.model.params[name].values), name


def test_invalid_record_skipped_and_counted():
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(4, cfg=cfg)
    records[2].emotions = records[2].emotions[:-1] + ["not-a-feeling"]
    res = tr.train(records, cfg)
    assert res.log[0].skipped == 1


def test_invalid_record_warned_once_and_skipped_every_epoch(caplog):
    cfg = tiny_cfg(epochs=3)
    records = tiny_corpus(4, cfg=cfg)
    records[1].speakers = records[1].speakers[:-1]
    with caplog.at_level("WARNING", logger="hgchat.training"):
        res = tr.train(records, cfg)
    warnings = [r for r in caplog.records if "skipping record 1" in r.getMessage()]
    assert len(warnings) == 1
    assert [s.skipped for s in res.log] == [1, 1, 1]


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        tr.train([], tiny_cfg())


def test_continue_training_resumes():
    cfg = tiny_cfg(epochs=2)
    records = tiny_corpus(4, cfg=cfg)
    first = tr.train(records, cfg)
    t_after = first.model.params.adam_t
    second = tr.train(records, cfg, model=first.model)
    assert second.model.params.adam_t > t_after


# --- checkpoints ------------------------------------------------------------------

def test_checkpoint_round_trip_exact(tmp_path):
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(3, cfg=cfg)
    res = tr.train(records, cfg)
    path = tmp_path / "model.ckpt"
    res.model.save(path)

    header = path.read_text()[:40]
    assert tr.CHECKPOINT_MAGIC in header

    loaded = Model.load(path)
    assert loaded.cfg == res.model.cfg
    assert loaded.vocab.tokens == res.model.vocab.tokens
    assert loaded.roster.names == res.model.roster.names
    for name, t in res.model.params.items():
        assert np.array_equal(t.values, loaded.params[name].values), name


def test_checkpoint_magic_checked(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text('{"magic": "other"}')
    with pytest.raises(ValueError, match=tr.CHECKPOINT_MAGIC):
        Model.load(path)


# --- full-model gradient coverage --------------------------------------------------

def jitter_params(params, seed, scale=0.05):
    # move every entry (biases included) off exact zeros so no ReLU input
    # sits precisely on its kink during the finite differences
    rng = np.random.default_rng(seed)
    for t in params.values():
        t.values += rng.uniform(-scale, scale, size=t.values.shape)


def test_full_model_gradients_match_fd_small():
    # two-turn dialogue at width 4: every named group, tight FD tolerance
    cfg = tiny_cfg(d_model=4, d_word=3, d_hidden=4, heads=2, gnn_layers=1, lam=0.4)
    records = tiny_corpus(1, seed=2, cfg=cfg)
    model = fresh_model(records, cfg)
    jitter_params(model.params, seed=9)

    def build():
        return model.losses(records[0]).joint

    err = dc.grad_check(build, dict(model.params.items()), eps=1e-5)
    assert err <= 1e-6, err
