import dataclasses
import hashlib
import io
import json
import mmap
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from hgchat import corpus as cp
from hgchat import diffcore as dc
from hgchat import training as tr
from hgchat.config import TrainConfig
from hgchat.model import Model
from hgchat.params import CHECKPOINT_MAGIC, ModelParams, init_model_params, xavier_init
from oracles import epoch_order, per_tensor_adam, reference_backward, rewrite_checkpoint


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


PROCESS_COUNTS = (1, 2, 3)


def pin_processes(monkeypatch, n):
    """Make ``train`` see ``n`` usable CPUs, and so train in ``n`` processes
    when a batch holds that many valid dialogues."""
    monkeypatch.setattr(tr, "usable_cpus", lambda: n)


def in_shared_memory(array):
    """Whether ``array`` is, or is a view into, a memory mapping."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(getattr(array, "obj", array), mmap.mmap)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


# --- xavier ----------------------------------------------------------------

def test_xavier_bound_four_by_four():
    t = xavier_init((4, 4), np.random.default_rng(0))
    bound = np.sqrt(6 / 8)
    assert bound == pytest.approx(0.866, abs=1e-3)
    assert np.all(np.abs(t.values) <= bound)


def test_xavier_deterministic():
    a = xavier_init((5, 7), np.random.default_rng(123))
    b = xavier_init((5, 7), np.random.default_rng(123))
    assert np.array_equal(a.values, b.values)


def test_xavier_empirical_mean_near_zero():
    t = xavier_init((100, 100), np.random.default_rng(5))
    assert abs(t.values.mean()) < 0.02


def test_xavier_rejects_non_2d():
    with pytest.raises(ValueError):
        xavier_init((3,), np.random.default_rng(0))


def per_head_init(cfg, vocab_size, roster_size, seed):
    """Initial matrices of the per-head, per-type layout: one Xavier draw per
    matrix from a single generator, in declaration order; biases are zero
    and take no draws."""
    rng = np.random.default_rng(seed)
    out = {}

    def mat(name, rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        out[name] = rng.uniform(-bound, bound, size=(rows, cols))

    d, head_dim = cfg.d_model, cfg.d_model // cfg.heads

    def attention(prefix, d_in):
        for k in range(cfg.heads):
            for proj in ("wq", "wk", "wv"):
                mat(f"{prefix}.h{k}.{proj}", d_in, head_dim)
        mat(f"{prefix}.wo", d, d)

    mat("enc.word_emb", vocab_size, cfg.d_word)
    mat("enc.pe", cfg.max_turns, cfg.d_pe)
    for gate in "ifoc":
        mat(f"enc.lstm.w{gate}", cfg.d_word, cfg.d_hidden)
        mat(f"enc.lstm.u{gate}", cfg.d_hidden, cfg.d_hidden)
    attention("enc.ctx_attn", cfg.d_hidden + cfg.d_pe)
    for which, raw in (("face", cfg.face_dim), ("audio", cfg.audio_dim)):
        mat(f"enc.{which}_ffn.w1", raw, d)
        mat(f"enc.{which}_ffn.w2", d, d)
    mat("enc.emotion_emb", 7, d)
    mat("enc.speaker_emb", roster_size, d)
    for layer in range(cfg.gnn_layers):
        for code in "ufaes":
            mat(f"enc.gnn.l{layer}.{code}.w", d, d)
    for name in ("enc.out_ffn.w1", "enc.out_ffn.w2"):
        mat(name, d, d)
    mat("enc.emotion_head.w", 7, d)
    mat("dec.tok_emb", vocab_size, d)
    attention("dec.self_attn", d)
    attention("dec.cross_attn", d)
    for name in ("dec.ffn.w1", "dec.ffn.w2"):
        mat(name, d, d)
    mat("dec.gate.w", 3 * d, d)
    mat("dec.out_proj.w", vocab_size, d)
    return out


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_joined_init_equals_per_head_and_per_type_draws(heads):
    cfg = tiny_cfg(heads=heads, gnn_layers=2)
    params = init_model_params(dataclasses.replace(cfg, seed=5), 11, 3)
    oracle = per_head_init(cfg, 11, 3, seed=5)
    want = {}
    for prefix in ("enc.ctx_attn", "dec.self_attn", "dec.cross_attn"):
        for proj in ("wq", "wk", "wv"):
            # head h in columns h*d/H .. (h+1)*d/H
            want[f"{prefix}.{proj}"] = np.hstack(
                [oracle.pop(f"{prefix}.h{k}.{proj}") for k in range(heads)])
    for layer in range(cfg.gnn_layers):
        # node type τ in row block τ, and in row τ of the bias
        want[f"enc.gnn.l{layer}.w"] = np.vstack(
            [oracle.pop(f"enc.gnn.l{layer}.{code}.w") for code in "ufaes"])
        want[f"enc.gnn.l{layer}.b"] = np.zeros((5, cfg.d_model))
    # the gate's output rows, then its emotion and personality rows
    want["dec.gate.wo"], want["dec.gate.wes"] = np.split(oracle.pop("dec.gate.w"),
                                                         [cfg.d_model])
    # stored as the forward pass reads them: d x 7 and d x V
    for name in ("enc.emotion_head.w", "dec.out_proj.w"):
        want[name] = oracle.pop(name).T
    want.update(oracle)
    for name, values in want.items():
        assert np.array_equal(params[name].values, values), name
    biases = set(params.names()) - set(want)
    assert all(not params[name].values.any() for name in biases), biases


# --- adam -------------------------------------------------------------------

def test_adam_zero_gradient_leaves_fresh_params_unchanged():
    cfg = tiny_cfg()
    params = init_model_params(cfg, 8, 3)
    before = params.flat.copy()
    tr.adam_step(params, cfg, t=1)
    assert np.array_equal(before, params.flat)
    assert not params.adam_m.any() and not params.adam_v.any()


def test_adam_scalar_first_step_hand_value():
    cfg = tiny_cfg(learning_rate=0.1)
    params = init_model_params(cfg, 8, 3)
    name = "enc.emotion_head.w"
    params[name].values[:] = 1.0
    params[name].grad[:] = 1.0
    tr.adam_step(params, cfg, t=1)
    # bias correction makes the first step lr * g/(|g| + eps)
    want = 1.0 - 0.1 * 1.0 / (1.0 + cfg.adam_eps)
    assert np.allclose(params[name].values, want, atol=1e-15)


def test_adam_aborts_on_nonfinite_gradient_with_name():
    cfg = tiny_cfg()
    params = init_model_params(cfg, 8, 3)
    params["dec.gate.wes"].grad[1:, 2] = np.nan
    params["dec.gate.b"].grad[:] = np.inf
    params["enc.pe"].grad[:] = 1.0
    before = params.flat.copy()
    with pytest.raises(dc.NumericalError, match="^non-finite gradient for dec.gate.wes;"):
        tr.adam_step(params, cfg, t=1)
    # the step is aborted before it changes anything
    assert np.array_equal(params.flat, before) and not params.adam_m.any()


def test_adam_step_equals_the_per_tensor_update_bit_for_bit():
    cfg = tiny_cfg(learning_rate=0.01)
    params = init_model_params(cfg, 8, 3)
    values = {name: t.values.copy() for name, t in params.items()}
    m = {name: np.zeros(t.shape) for name, t in params.items()}
    v = {name: np.zeros(t.shape) for name, t in params.items()}
    rng = np.random.default_rng(0)
    for step in range(1, 6):
        grads = {name: rng.standard_normal(t.shape) for name, t in params.items()}
        for name, t in params.items():
            t.grad[...] = grads[name]
        tr.adam_step(params, cfg, step)
        per_tensor_adam(values, grads, m, v, cfg, step)
    for want, got in ((values, params.flat), (m, params.adam_m), (v, params.adam_v)):
        assert np.array_equal(np.concatenate([a.ravel() for a in want.values()]), got)


def test_a_refused_step_leaves_the_step_count_and_the_buffers_as_they_were(monkeypatch):
    pin_processes(monkeypatch, 1)
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(6, cfg=cfg)
    params = (model := tr.train(records, cfg).model).params  # steps taken, moments non-zero
    before = (params.adam_t, params.flat.copy(), params.adam_m.copy(), params.adam_v.copy())
    real = tr._dialogue

    def poisoned(model, records, idx, key):
        result = real(model, records, idx, key)
        model.params.flat_grad[0] = np.nan
        return result

    monkeypatch.setattr(tr, "_dialogue", poisoned)
    with pytest.raises(dc.NumericalError, match="step aborted"):
        tr.train(records, cfg, model=model)
    assert params.adam_t == before[0] == 2
    for want, got in zip(before[1:], (params.flat, params.adam_m, params.adam_v)):
        assert np.array_equal(want, got)


def test_adam_requires_positive_step_index():
    cfg = tiny_cfg()
    params = init_model_params(cfg, 8, 3)
    with pytest.raises(ValueError):
        tr.adam_step(params, cfg, t=0)


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


def test_lambda_zero_golden_emotion_zeroes_predictor_gradient():
    # the decoder mixes with the gold label, so only the weightless
    # classification term could reach the predictor
    cfg = tiny_cfg(lam=0.0, golden_emotion=True)
    records = tiny_corpus(cfg=cfg)
    model = fresh_model(records, cfg)
    with dc.recording():
        out = model.losses(records[0])
        dc.backward(out.joint)
    assert np.all(model.params["enc.emotion_head.w"].grad == 0.0)


def test_lambda_one_zeroes_generation_head_gradient():
    cfg = tiny_cfg(lam=1.0)
    records = tiny_corpus(cfg=cfg)
    model = fresh_model(records, cfg)
    with dc.recording():
        out = model.losses(records[0])
        dc.backward(out.joint)
    assert np.all(model.params["dec.out_proj.w"].grad == 0.0)


def test_without_detach_predictor_receives_mll_gradient():
    cfg = tiny_cfg(lam=0.0)
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


def test_training_deterministic_across_runs(monkeypatch):
    cfg = tiny_cfg(epochs=2, dropout=0.1)
    records = tiny_corpus(5, cfg=cfg)
    for procs in PROCESS_COUNTS:
        pin_processes(monkeypatch, procs)
        r1 = tr.train(records, cfg)
        r2 = tr.train(records, cfg)
        assert [s.joint for s in r1.log] == [s.joint for s in r2.log]
        for name, t in r1.model.params.items():
            assert np.array_equal(t.values, r2.model.params[name].values), (procs, name)


def test_invalid_record_skipped_and_counted():
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(4, cfg=cfg)
    records[2].emotions = records[2].emotions[:-1] + ["not-a-feeling"]
    res = tr.train(records, cfg)
    assert res.log[0].skipped == 1


@pytest.mark.parametrize("which", ["faces", "audios"])
def test_record_of_another_modality_width_skipped_and_counted(caplog, which):
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(4, cfg=cfg)
    setattr(records[3], which, np.ones((records[3].n_turns, cfg.face_dim + 2)))
    with caplog.at_level("WARNING", logger="hgchat.training"):
        res = tr.train(records, cfg)
    assert res.log[0].skipped == 1
    assert any(f"skipping record 3: {which[:-1]} vectors: expected dim 3, got 5" in r.getMessage()
               for r in caplog.records)


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


# --- the flat buffers ---------------------------------------------------------------

def assert_tensors_are_views_of_the_buffers(params):
    for name, t in params.items():
        assert np.shares_memory(t.values, params.flat), name
        assert np.shares_memory(t.grad, params.flat_grad), name
    params.flat_grad[:] = np.arange(params.flat_grad.size)  # each entry tells its place
    for flat, arrays in ((params.flat, [t.values for t in params.values()]),
                         (params.flat_grad, [t.grad for t in params.values()])):
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), flat)


@pytest.mark.parametrize("case", ["init", "load", "trained-in-two-processes"])
def test_every_tensor_is_a_view_of_the_buffers(tmp_path, monkeypatch, case):
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(4, cfg=cfg)
    model = fresh_model(records, cfg)
    if case == "load":
        model.save(tmp_path / "model.ckpt")
        model = Model.load(tmp_path / "model.ckpt")
    if case == "trained-in-two-processes":
        pin_processes(monkeypatch, 2)
        shared = []
        tr.train(records, cfg, model=model,
                 log_fn=lambda stats: shared.append(in_shared_memory(model.params.flat)))
        # the workers ran on the shared buffer, and it is private again
        assert shared == [True] and not in_shared_memory(model.params.flat)
    assert_tensors_are_views_of_the_buffers(model.params)


def test_params_built_by_add_are_packed_once_and_train_as_init_builds_them(monkeypatch):
    pin_processes(monkeypatch, 2)
    cfg = tiny_cfg(epochs=2, dropout=0.1)
    records = tiny_corpus(5, cfg=cfg)
    model = fresh_model(records, cfg)
    added = ModelParams()
    for name, t in model.params.items():
        added.add(name, t.values.copy())
    tr.train(records, cfg, model=Model(cfg, added, model.vocab, model.roster))
    tr.train(records, cfg, model=model)
    assert state_digest(added) == state_digest(model.params)
    assert_tensors_are_views_of_the_buffers(added)
    with pytest.raises(ValueError, match="cannot add 'stray': the parameters are packed"):
        added.add("stray", np.zeros((1, 1)))


# --- checkpoints ------------------------------------------------------------------

def test_checkpoint_round_trip_exact(tmp_path):
    cfg = tiny_cfg(epochs=1, dropout=0.1)
    records = tiny_corpus(3, cfg=cfg)
    res = tr.train(records, cfg)
    path = tmp_path / "model.ckpt"
    res.model.save(path)

    header = path.read_bytes()[:256]  # the header is the archive's first member
    assert CHECKPOINT_MAGIC.encode() in header

    loaded = Model.load(path)
    assert loaded.cfg == res.model.cfg
    assert loaded.vocab.tokens == res.model.vocab.tokens
    assert loaded.roster.names == res.model.roster.names
    saved, back = res.model.params, loaded.params
    assert list(back.names()) == list(saved.names())
    for buffer in ("flat", "adam_m", "adam_v"):
        assert np.array_equal(getattr(saved, buffer), getattr(back, buffer)), buffer
    assert back.adam_t == saved.adam_t > 0


def test_moments_are_stored_once_the_model_has_taken_a_step(tmp_path):
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(3, cfg=cfg)
    model = fresh_model(records, cfg)
    for trained in (False, True):
        if trained:
            tr.train(records, cfg, model=model)
        model.save(tmp_path / "model.ckpt")
        with zipfile.ZipFile(tmp_path / "model.ckpt") as archive:
            assert archive.namelist() == ["header.npy", "param.npy"] + trained * [
                "adam_m.npy", "adam_v.npy"]
        with np.load(tmp_path / "model.ckpt") as archive:
            header = json.loads(archive["header"].tobytes())
        assert list(header) == ["magic", "config", "vocab", "roster", "adam_t"]
        loaded = Model.load(tmp_path / "model.ckpt").params
        assert loaded.adam_t == model.params.adam_t == trained
        assert np.array_equal(loaded.adam_m, model.params.adam_m)
        assert loaded.adam_m.any() == trained


def test_checkpoint_magic_checked(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text('{"magic": "other"}')
    with pytest.raises(ValueError, match=CHECKPOINT_MAGIC):
        Model.load(path)


def test_format_one_checkpoint_rejected_by_name(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "old.ckpt"
    fresh_model(tiny_corpus(2, cfg=cfg), cfg).save(path)
    rewrite_checkpoint(path, lambda header, members: header.update(magic="HGNN-CKPT-1"))
    with pytest.raises(ValueError, match="not a HGNN-CKPT-6 checkpoint; HGNN-CKPT-1"):
        Model.load(path)


@pytest.mark.parametrize("edit, named", [
    (lambda header, members: members.pop("adam_v"), "'adam_t' 1 is missing 'adam_v'"),
    (lambda header, members: members.update(adam_m=members["adam_m"][:1]),
     "member 'adam_m' is float64 of shape [1]"),
    (lambda header, members: header.update(adam_t=-1), "'adam_t'"),
    # a step counted, but no moments: resuming from zeroed moments would not be exact
    (lambda header, members: (members.pop("adam_m"), members.pop("adam_v")),
     "'adam_t' 1 is missing 'adam_m', 'adam_v'"),
    # moments, but no step counted
    (lambda header, members: header.update(adam_t=0),
     "member 'adam_m' is not part of a HGNN-CKPT-6 checkpoint with 'adam_t' 0"),
], ids=["missing-moment", "moment-shape", "adam-t", "steps-without-moments",
        "moments-without-steps"])
def test_bad_training_state_rejected_by_name(tmp_path, edit, named):
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(3, cfg=cfg)
    path = tmp_path / "model.ckpt"
    tr.train(records, cfg).model.save(path)
    rewrite_checkpoint(path, edit)
    with pytest.raises(ValueError, match=re.escape(named)):
        Model.load(path)


def npy_bytes(values, **kwargs) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, values, **kwargs)
    return buffer.getvalue()


@pytest.mark.parametrize("content", [
    b"not an array", b"\x93NUMPY\x01\x00cut short", npy_bytes(np.zeros((2, 2)))[:-8],
    npy_bytes(np.zeros((2, 2))) + bytes(8),
    npy_bytes(np.array([{"code": "run"}], dtype=object), allow_pickle=True),
    npy_bytes(np.asfortranarray(np.zeros((2, 3)))),
], ids=["raw-bytes", "truncated-header", "truncated-values", "trailing-bytes", "pickle",
        "fortran-order"])
def test_member_that_is_not_an_array_rejected_by_name(tmp_path, content):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    fresh_model(tiny_corpus(2, cfg=cfg), cfg).save(path)
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("param/stray.npy", content)
    with pytest.raises(ValueError, match="member 'param/stray' is not a readable array"):
        Model.load(path)


def test_compressed_member_rejected_by_name(tmp_path):
    # a deflated member could inflate far beyond the file's size in memory
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    fresh_model(tiny_corpus(2, cfg=cfg), cfg).save(path)
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("param/stray.npy", npy_bytes(np.zeros((64, 64))),
                         compress_type=zipfile.ZIP_DEFLATED)
    with pytest.raises(ValueError, match="member 'param/stray' is compressed"):
        Model.load(path)


def test_damaged_member_rejected_by_name(tmp_path):
    cfg = tiny_cfg()
    model = fresh_model(tiny_corpus(2, cfg=cfg), cfg)
    path = tmp_path / "model.ckpt"
    model.save(path)
    data = bytearray(path.read_bytes())
    at = data.index(model.params["dec.gate.wes"].values.tobytes())
    data[at + 3] ^= 0x10  # one bit of the stored values, caught by the zip CRC
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="member 'param' is not a readable array"):
        Model.load(path)


def test_failed_save_leaves_the_old_checkpoint(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    model = fresh_model(tiny_corpus(2, cfg=cfg), cfg)
    path = tmp_path / "model.ckpt"
    model.save(path)
    saved = {name: t.values.copy() for name, t in model.params.items()}
    for t in model.params.values():
        t.values += 1.0

    def crash_mid_write(fh, **members):
        fh.write(b"PK\x03\x04")
        raise OSError("disk full")

    def crash_at_flush(fd):
        raise OSError("disk full")

    # inside np.savez, and after the temporary file is written
    for owner, attr, crash in ((np, "savez", crash_mid_write), (os, "fsync", crash_at_flush)):
        monkeypatch.setattr(owner, attr, crash)
        with pytest.raises(OSError, match="disk full"):
            model.save(path)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left
        loaded = Model.load(path)
        assert list(loaded.params.names()) == list(saved)
        for name, values in saved.items():
            assert np.array_equal(loaded.params[name].values, values), name


def epoch_losses(log):
    return [(s.joint, s.mll, s.cls, s.emotion_acc, s.skipped) for s in log]


@pytest.mark.parametrize("via_checkpoint", [True, False], ids=["saved", "in-memory"])
@pytest.mark.parametrize("first", [1, 2])
@pytest.mark.parametrize("gnn_mode", ["hetero", "homo"])
@pytest.mark.parametrize("seed", [0, 1])
def test_resumed_training_equals_uninterrupted_training(tmp_path, monkeypatch, seed, gnn_mode,
                                                        first, via_checkpoint):
    # train(E) == train(E1) -> save -> load -> train(E - E1), bit for bit, in
    # batches as wide as the process count, so that every process takes part
    for procs in PROCESS_COUNTS:
        pin_processes(monkeypatch, procs)
        cfg = tiny_cfg(epochs=3, dropout=0.1, batch_size=max(2, procs), gnn_mode=gnn_mode,
                       seed=seed)
        records = tiny_corpus(5, seed=seed, cfg=cfg)
        whole = tr.train(records, cfg)
        part = tr.train(records, dataclasses.replace(cfg, epochs=first))
        model = part.model
        if via_checkpoint:
            model.save(tmp_path / "part.ckpt")
            model = Model.load(tmp_path / "part.ckpt")
        rest = tr.train(records, dataclasses.replace(cfg, epochs=cfg.epochs - first),
                        model=model)
        assert epoch_losses(part.log) + epoch_losses(rest.log) == epoch_losses(whole.log)
        want, got = whole.model.params, rest.model.params
        assert got.adam_t == want.adam_t
        for buffer in ("flat", "adam_m", "adam_v"):
            assert np.array_equal(getattr(want, buffer), getattr(got, buffer)), (procs, buffer)


def trained_state(result):
    params = result.model.params
    return (epoch_losses(result.log), params.adam_t, params.flat, params.adam_m, params.adam_v)


def assert_same_state(a, b):
    assert a[:2] == b[:2]
    assert all(np.array_equal(x, y) for x, y in zip(a[2:], b[2:]))


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_training_is_bit_identical_for_any_process_count(monkeypatch, dropout):
    # 7 records in batches of 4, one invalid: the batches hold 3 and 3, or
    # 4 and 2, valid dialogues, so a worker sits out a batch's last deal
    cfg = tiny_cfg(epochs=3, batch_size=4, dropout=dropout)
    records = tiny_corpus(7, seed=3, cfg=cfg)
    records[4].speakers = records[4].speakers[:-1]
    results = {}
    for n in PROCESS_COUNTS:
        pin_processes(monkeypatch, n)
        model = fresh_model(records, cfg)
        shared = []
        results[n] = tr.train(records, cfg, model=model, log_fn=lambda stats: shared.append(
            all(in_shared_memory(t.values) for t in model.params.values())))
        assert shared == [n > 1] * cfg.epochs
        assert_no_child_left()
        # private arrays again, not views into the mapping the workers shared
        assert not any(in_shared_memory(t.values) for t in results[n].model.params.values())
    assert [s.skipped for s in results[1].log] == [1, 1, 1]
    for n in PROCESS_COUNTS[1:]:
        assert_same_state(trained_state(results[1]), trained_state(results[n]))


def test_each_epoch_visits_the_records_in_the_order_its_step_count_keys(monkeypatch):
    pin_processes(monkeypatch, 1)
    cfg = tiny_cfg(epochs=2, batch_size=2, seed=3)
    records = tiny_corpus(5, cfg=cfg)
    visited = []
    dialogue = tr._dialogue

    def spy(model, records, idx, key):
        visited.append(idx)
        return dialogue(model, records, idx, key)

    monkeypatch.setattr(tr, "_dialogue", spy)
    tr.train(records, cfg)
    assert visited == [*epoch_order(3, 0, 5), *epoch_order(3, 3, 5)]  # 3 steps an epoch
    # numpy reads the key (seed, t) as (seed, t, 0), the dropout key of step t's first dialogue
    assert not np.array_equal(epoch_order(3, 3, 1000),
                              np.random.default_rng((3, 3, 0)).permutation(1000))


@pytest.mark.parametrize("changes", [{"learning_rate": 0.01}, {"dropout": 0.2, "max_turns": 5}])
def test_train_refuses_a_model_built_under_other_settings(changes):
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(3, cfg=cfg)
    model = fresh_model(records, cfg)
    with pytest.raises(ValueError, match=f"other settings: {', '.join(changes)}$"):
        tr.train(records, dataclasses.replace(cfg, **changes), model=model)
    assert model.params.adam_t == 0
    tr.train(records, dataclasses.replace(cfg, epochs=2), model=model)  # the one it may change
    assert model.params.adam_t == 2


def test_process_count_is_one_per_usable_cpu_within_a_batch(monkeypatch):
    monkeypatch.setattr(tr, "usable_cpus", lambda: 8)
    assert tr.process_count(16, 100) == 8
    assert tr.process_count(3, 100) == 3
    assert tr.process_count(16, 5) == 5
    assert tr.process_count(16, 0) == 1
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:  # a fork would copy the other thread's locks mid-step
        assert tr.process_count(16, 100) == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_usable_cpus_is_one_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert tr.usable_cpus() == 1


def test_one_dialogue_trains_without_forking_or_loading_multiprocessing():
    # perfbench warms up on one dialogue, and its set-up time must not pay
    # for the import
    script = ("import sys\n"
              "from hgchat import corpus, training\n"
              "from hgchat.config import TrainConfig\n"
              "training.usable_cpus = lambda: 4\n"
              "records = corpus.synthesize_corpus(1, seed=0, max_turns=2)\n"
              "training.train(records, TrainConfig(epochs=1))\n"
              "assert 'multiprocessing' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=120)


def record_dealt_to_a_worker(records, cfg, position=1):
    """Index of the record at ``position`` of the first batch in epoch 1:
    with two processes, positions 1 and 3 are the second process's first
    and second dialogues."""
    return int(epoch_order(cfg.seed, 0, len(records))[position])


def diverge(record):
    record.faces[0, :] = 1e308  # finite, but the face FFN overflows


def test_non_finite_loss_in_a_worker_is_raised_in_the_parent(monkeypatch):
    pin_processes(monkeypatch, 2)
    cfg = tiny_cfg(epochs=1, batch_size=4)
    records = tiny_corpus(4, seed=1, cfg=cfg)
    bad = record_dealt_to_a_worker(records, cfg)
    diverge(records[bad])
    model = fresh_model(records, cfg)
    with pytest.raises(dc.NumericalError, match=f"^non-finite loss on record {bad}$"):
        tr.train(records, cfg, model=model)
    assert_no_child_left()
    assert not any(in_shared_memory(t.values) for t in model.params.values())


def test_error_in_a_workers_second_dialogue_is_raised_in_the_parent(monkeypatch):
    # the worker fails while the parent still runs its first dialogue, so
    # the parent frees the worker's slot after the worker has given up
    pin_processes(monkeypatch, 2)
    cfg = tiny_cfg(epochs=1, batch_size=4)
    records = tiny_corpus(4, seed=1, cfg=cfg)
    bad = record_dealt_to_a_worker(records, cfg, position=3)
    diverge(records[bad])
    parent_pid = os.getpid()
    dialogue = tr._dialogue

    def slow_in_parent(*args):
        if os.getpid() == parent_pid:
            time.sleep(0.3)
        return dialogue(*args)

    monkeypatch.setattr(tr, "_dialogue", slow_in_parent)
    model = fresh_model(records, cfg)
    with pytest.raises(dc.NumericalError, match=f"^non-finite loss on record {bad}$"):
        tr.train(records, cfg, model=model)
    assert_no_child_left()


def test_interrupted_training_leaves_no_worker(monkeypatch):
    pin_processes(monkeypatch, 3)

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(tr, "adam_step", interrupt)
    cfg = tiny_cfg(epochs=1)
    records = tiny_corpus(4, cfg=cfg)
    model = fresh_model(records, cfg)
    with pytest.raises(KeyboardInterrupt):
        tr.train(records, cfg, model=model)
    assert_no_child_left()
    assert not any(in_shared_memory(t.values) for t in model.params.values())


def test_a_worker_that_dies_is_reported(monkeypatch):
    pin_processes(monkeypatch, 2)
    parent_pid = os.getpid()
    dialogue = tr._dialogue

    def die_in_worker(*args):
        if os.getpid() != parent_pid:
            os._exit(3)
        return dialogue(*args)

    monkeypatch.setattr(tr, "_dialogue", die_in_worker)
    cfg = tiny_cfg(epochs=1, batch_size=4)
    records = tiny_corpus(4, cfg=cfg)
    model = fresh_model(records, cfg)
    with pytest.raises(RuntimeError, match=r"^training worker 1 ended \(exit code 3\)"):
        tr.train(records, cfg, model=model)
    assert_no_child_left()
    assert not any(in_shared_memory(t.values) for t in model.params.values())


def test_blas_runs_one_thread_per_process_while_workers_live(monkeypatch, tmp_path):
    threads = [4]

    def set_threads(count):
        if count is None:
            return None
        old, threads[0] = threads[0], count
        return old

    monkeypatch.setattr(tr, "_set_blas_threads", set_threads)
    dialogue = tr._dialogue

    def mark(*args):  # each process leaves its thread count in a file named by its pid
        (tmp_path / str(os.getpid())).write_text(str(threads[0]))
        return dialogue(*args)

    monkeypatch.setattr(tr, "_dialogue", mark)
    cfg = tiny_cfg(epochs=2, batch_size=4)
    records = tiny_corpus(4, cfg=cfg)
    seen, counts = [], {}
    for n in (1, 2):
        pin_processes(monkeypatch, n)
        for path in tmp_path.iterdir():
            path.unlink()
        tr.train(records, cfg, log_fn=lambda stats: seen.append(threads[0]))
        assert threads == [4]  # restored
        counts[n] = sorted(path.read_text() for path in tmp_path.iterdir())
    assert seen == [4, 4, 1, 1]
    assert counts == {1: ["4"], 2: ["1", "1"]}


def test_the_bundled_openblas_thread_count_is_set_and_restored():
    bundled = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    old = tr._set_blas_threads(3)
    try:
        assert (old is not None) == bool(bundled)
    finally:
        assert tr._set_blas_threads(old) == (3 if bundled else None)


def test_two_forked_lifetimes_open_the_bundled_openblas_at_most_once(monkeypatch):
    import ctypes

    opened = []
    cdll = ctypes.CDLL

    def counting_cdll(*args, **kwargs):
        opened.append(args[0])
        return cdll(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
    tr._blas_thread_functions.cache_clear()
    try:
        for _ in range(2):
            tr.Forked("idle process", lambda conn: None, [()]).close()
            assert_no_child_left()
    finally:
        tr._blas_thread_functions.cache_clear()
    assert len(opened) <= 1


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


@pytest.mark.parametrize("overrides", [
    {}, {"d_pe": 2, "dropout": 0.2}, {"gnn_mode": "homo"}],
    ids=["default", "dropout-narrow-pe", "homo"])
def test_every_product_operand_is_c_or_f_ordered(monkeypatch, overrides):
    # diffcore's products call ndarray.dot, which equals @ bit for bit on C-
    # and F-ordered operands; on a strided view, such as the column slice a
    # concat_cols backward passes on, the two may pick different BLAS kernels
    cfg = tiny_cfg(**overrides)
    records = tiny_corpus(2, seed=4, cfg=cfg)
    model = fresh_model(records, cfg)
    strided = []

    def watch(kind, fn):
        def watched(arrays, meta, *rest):
            for a in [*arrays, *rest[1:]]:  # the inputs and the backward's g
                if not (a.flags.c_contiguous or a.flags.f_contiguous):
                    strided.append((kind, a.shape, a.strides))
            return fn(arrays, meta, *rest)
        return watched

    for kind in ("matmul", "affine"):
        prim = dc._PRIMS[kind]
        monkeypatch.setattr(prim, "forward", watch(kind, prim.forward))
        monkeypatch.setattr(prim, "backward", watch(kind, prim.backward))
    for record in records:
        with dc.recording():
            dc.backward(model.losses(record, np.random.default_rng(1)).joint)
        model.generate(record, strategy="beam", beam_width=3)
    model.generate_many(records)
    assert strided == []


# --- the freeing reverse sweep against the keep-everything one ---------------------

def sweep_grads(model, record, sweep):
    for t in model.params.values():
        t.zero_grad()
    with dc.recording():
        sweep(model.losses(record, np.random.default_rng(5)).joint)
    return {name: t.grad.copy() for name, t in model.params.items()}


@pytest.mark.parametrize("turns", [1, 35])
@pytest.mark.parametrize("overrides", [{}, {"gnn_mode": "homo"}, {"golden_emotion": True}],
                         ids=["hetero", "homo", "golden-emotion"])
def test_the_sweep_gives_the_keep_everything_sweeps_gradients_bit_for_bit(turns, overrides):
    cfg = TrainConfig(**overrides)
    assert cfg.dropout > 0.0
    records = cp.synthesize_corpus(1, seed=turns, min_turns=turns, max_turns=turns)
    model = fresh_model(records, cfg)
    want = sweep_grads(model, records[0], reference_backward)
    got = sweep_grads(model, records[0], dc.backward)
    assert any(np.any(g != 0.0) for g in want.values())
    for name, grad in want.items():
        assert np.array_equal(got[name], grad), name


def state_digest(params):
    digest = hashlib.sha256(str(params.adam_t).encode())
    for array in (params.flat, params.adam_m, params.adam_v):
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("procs", [1, 2])
def test_training_with_the_sweep_equals_training_with_the_keep_everything_sweep(
        monkeypatch, procs):
    pin_processes(monkeypatch, procs)
    cfg = TrainConfig(epochs=2)
    records = cp.synthesize_corpus(40, seed=3)
    digests = []
    for sweep in (reference_backward, dc.backward):
        monkeypatch.setattr(tr, "backward", sweep)
        digests.append(state_digest(tr.train(records, cfg).model.params))
    assert digests[0] == digests[1]


def test_the_sweep_peaks_near_the_forward_tape_on_a_long_dialogue():
    # a sweep that kept every activation and intermediate gradient until
    # its end peaked at about twice the forward tape
    records = cp.synthesize_corpus(1, seed=1, min_turns=35, max_turns=35)
    model = fresh_model(records, TrainConfig())
    tracemalloc.start()
    try:
        with dc.recording():
            out = model.losses(records[0], np.random.default_rng(1))
            tape_bytes, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            dc.backward(out.joint)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * tape_bytes, (peak, tape_bytes)
