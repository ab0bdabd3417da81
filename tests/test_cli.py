import json
import re
from pathlib import Path

import numpy as np
import pytest

from hgchat import cli
from hgchat import corpus as cp
from hgchat import training
from hgchat.cli import run_command
from hgchat.config import TrainConfig
from hgchat.diffcore import NumericalError
from hgchat.model import Model
from hgchat.params import init_model_params
from oracles import epoch_order, rewrite_checkpoint


@pytest.fixture
def ckpt_and_corpus(tmp_path):
    cfg = TrainConfig(d_word=4, d_hidden=6, d_model=8, heads=2, gnn_layers=1,
                      z_speakers=3, max_turns=4, max_len=6, dropout=0.0)
    records = cp.synthesize_corpus(2, seed=1, max_turns=2)
    vocab = cp.build_vocab(records)
    roster = cp.build_roster(records, cfg.z_speakers)
    params = init_model_params(cfg, vocab.size, roster.size)
    params["dec.out_proj.w"].values[:] = 0.0  # argmax is always <pad>: never EOS
    Model(cfg, params, vocab, roster).save(tmp_path / "model.json")
    cp.save_corpus(records, tmp_path / "corpus.jsonl")
    return str(tmp_path / "model.json"), str(tmp_path / "corpus.jsonl")


@pytest.mark.parametrize("beam", ["0", "-2"])
def test_generate_beam_below_one_is_a_usage_error(ckpt_and_corpus, beam, capsys):
    ckpt, corpus = ckpt_and_corpus
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus, "--beam", beam]) == 1
    assert "--beam must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("beam", [[], ["--beam", "2"]])
def test_generate_warns_once_per_truncated_response(ckpt_and_corpus, beam, capsys, caplog):
    ckpt, corpus = ckpt_and_corpus
    with caplog.at_level("WARNING"):
        assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus, *beam]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["truncated 2 response(s) at max_len=6 tokens without EOS"]
    assert not caplog.records  # one line that counts them, and no warning per response


def test_synth_exits_zero(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert run_command(["synth", "--out", str(out), "--dialogues", "2", "--seed", "3"]) == 0
    assert len(cp.load_corpus_verbose(out)[0]) == 2


@pytest.mark.parametrize("flag, value", [("--dialogues", "-3"), ("--dialogues", "0"),
                                         ("--speakers", "0"), ("--speakers", "-1")])
def test_synth_count_below_one_is_a_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus.jsonl"
    argv = {"--dialogues": "2", "--speakers": "3", flag: value}
    assert run_command(["synth", "--out", str(out), *(x for kv in argv.items() for x in kv)]) == 1
    assert f"error: {flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag_seed, env_seed, want", [
    (["--seed", "3"], "9", 3),  # the flag beats HGNN_SEED
    ([], "9", 9),               # HGNN_SEED without the flag
    ([], None, 0),              # the default
])
def test_synth_seed_precedence(tmp_path, monkeypatch, capsys, flag_seed, env_seed, want):
    if env_seed:
        monkeypatch.setenv("HGNN_SEED", env_seed)
    else:
        monkeypatch.delenv("HGNN_SEED", raising=False)
    out = tmp_path / "corpus.jsonl"
    assert run_command(["synth", "--out", str(out), "--dialogues", "2", *flag_seed]) == 0
    assert f"(seed {want})" in capsys.readouterr().out
    expected = cp.synthesize_corpus(2, n_speakers=3, seed=want)
    assert [r.utterances for r in cp.load_corpus_verbose(out)[0]] == [r.utterances
                                                                      for r in expected]


def test_gradcheck_command_passes_on_a_tiny_model(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text("d_model = 4\nheads = 2\ngnn_layers = 1\n")
    assert run_command(["gradcheck", "--config", str(config)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_command_passes_at_its_defaults(monkeypatch, capsys):
    # the full-model check the command exists for; about 11 s
    monkeypatch.delenv("HGNN_SEED", raising=False)
    assert run_command(["gradcheck"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_generate_on_a_format_one_checkpoint_is_a_data_error(ckpt_and_corpus, capsys):
    ckpt, corpus = ckpt_and_corpus
    rewrite_checkpoint(ckpt, lambda header, members: header.update(magic="HGNN-CKPT-1"))
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus]) == 2
    assert "not a HGNN-CKPT-6 checkpoint; HGNN-CKPT-1" in capsys.readouterr().err


def as_format_four(ckpt):
    """The edit that makes the checkpoint ``ckpt`` as format 4 wrote it: a
    member per tensor, each in its shape, and a setting format 5 no longer
    has at the one value the model kept."""
    params = Model.load(ckpt).params

    def edit(header, members):
        header.update(magic="HGNN-CKPT-4")
        header["config"].update(self_loops=True)
        members.pop("param")
        members.update((f"param/{name}", t.values) for name, t in params.items())
    return edit


def as_format_three(ckpt):
    """The edit that makes ``ckpt`` as format 3 wrote it: format 4's members,
    but the gate weight in one 3d x d tensor, the hetero layers' type blocks
    side by side, and the emotion head and the output projection transposed."""
    four = as_format_four(ckpt)

    def edit(header, members):
        four(header, members)
        header.update(magic="HGNN-CKPT-3")
        members["param/dec.gate.w"] = np.vstack(
            [members.pop("param/dec.gate.wo"), members.pop("param/dec.gate.wes")])
        members["param/enc.gnn.l0.w"] = np.hstack(np.split(members["param/enc.gnn.l0.w"], 5))
        for name in ("param/enc.emotion_head.w", "param/dec.out_proj.w"):
            members[name] = np.ascontiguousarray(members[name].T)
    return edit


def test_generate_on_a_format_three_checkpoint_is_a_data_error(ckpt_and_corpus, capsys):
    ckpt, corpus = ckpt_and_corpus
    rewrite_checkpoint(ckpt, as_format_three(ckpt))
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "not a HGNN-CKPT-6 checkpoint; HGNN-CKPT-3" in err


def test_generate_on_a_format_four_checkpoint_is_a_data_error(ckpt_and_corpus, capsys):
    ckpt, corpus = ckpt_and_corpus
    rewrite_checkpoint(ckpt, as_format_four(ckpt))
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "not a HGNN-CKPT-6 checkpoint; HGNN-CKPT-4" in err


def test_generate_on_a_format_five_checkpoint_is_a_data_error(ckpt_and_corpus, capsys):
    # format 5 stored the shuffle generator's state and the epoch order
    ckpt, corpus = ckpt_and_corpus
    rewrite_checkpoint(ckpt, lambda header, members: (
        header.update(magic="HGNN-CKPT-5", rng_state=np.random.default_rng(0).bit_generator.state),
        members.update(order=np.arange(2))))
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "HGNN-CKPT-5 is an older format" in err


def test_config_file_naming_a_removed_setting_is_a_usage_error(ckpt_and_corpus, tmp_path,
                                                               capsys):
    _, corpus = ckpt_and_corpus
    config = tmp_path / "run.cfg"
    config.write_text("self_loops = true\n")
    assert run_command(["train", "--corpus", corpus, "--config", str(config),
                        "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "unknown key 'self_loops'" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


FORMAT_TWO = {"magic": "HGNN-CKPT-2", "config": {}, "vocab": ["<pad>"], "roster": ["<unk>"],
              "params": {"dec.gate.b": {"shape": [1, 1], "values": [0.0]}}}


@pytest.mark.parametrize("content", [
    json.dumps(FORMAT_TWO).encode(),
    b"\x00\x01 neither an archive nor JSON\n",
    None,  # the first 100 bytes of the checkpoint: a zip cut short
], ids=["format-2-json", "not-a-zip", "truncated-zip"])
def test_generate_on_a_file_that_is_not_format_four_is_a_data_error(ckpt_and_corpus, capsys,
                                                                    content):
    ckpt, corpus = ckpt_and_corpus
    Path(ckpt).write_bytes(Path(ckpt).read_bytes()[:100] if content is None else content)
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "not a HGNN-CKPT-6 checkpoint" in err
    assert not any(word in err for word in ("Traceback", "BadZipFile", "pickle"))


@pytest.mark.parametrize("edit, named", [
    (lambda header, members: header.pop("vocab"), "missing 'vocab'"),
    # a member per tensor, as format 4 stored them
    (lambda header, members: members.update({"param/enc.word_emb": members.pop("param")}),
     "member 'param/enc.word_emb' is not part of a HGNN-CKPT-6"),
    (lambda header, members: members.pop("param"), "missing 'param'"),
    (lambda header, members: members.update({"param/stray": np.zeros((1, 1))}),
     "'param/stray'"),
    # one entry short of the layout
    (lambda header, members: members.update(param=members["param"][:-1]),
     "member 'param' is float64 of shape"),
    (lambda header, members: members.update(param=np.zeros(0)),
     "member 'param' is float64 of shape [0]"),
    (lambda header, members: header.update(vocab=5), "'vocab'"),
    (lambda header, members: header.update(roster=5), "'roster'"),
    (lambda header, members: members.update(param=members["param"].astype(np.float32)),
     "member 'param' is float32"),
    (lambda header, members: header["config"].update(bogus=1), "'config'"),
    # one word in every entry: the reserved ids 0-3 and the unknown speaker's row 0 are lost
    (lambda header, members: header.update(vocab=["a"] * len(header["vocab"])),
     "checkpoint 'vocab' must start with ['<pad>', '<unk>', '<bos>', '<eos>']"),
    (lambda header, members: header.update(roster=["s1"] * len(header["roster"])),
     "checkpoint 'roster' must start with ['<unk>']"),
], ids=["vocab", "params-not-a-map", "missing-tensor", "extra-tensor", "wrong-shape", "missing-values",
        "vocab-not-a-list", "roster-not-a-list", "float32-tensor", "unknown-config-key",
        "vocab-without-reserved-tokens", "roster-without-unknown-speaker"])
def test_generate_on_a_checkpoint_without_a_vocab_is_a_data_error(ckpt_and_corpus, capsys,
                                                                  edit, named):
    ckpt, corpus = ckpt_and_corpus
    rewrite_checkpoint(ckpt, edit)
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", corpus]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and named in err


def test_unknown_flag_is_a_usage_error(ckpt_and_corpus):
    _, corpus = ckpt_and_corpus
    assert run_command(["eval", "--corpus", corpus, "--no-such-flag"]) == 1


def test_train_on_missing_corpus_is_a_data_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.jsonl")
    assert run_command(["train", "--corpus", missing, "--out", str(tmp_path / "m.json")]) == 2
    assert "corpus file not found" in capsys.readouterr().err


@pytest.fixture
def tiny_config(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text("d_model = 8\nheads = 2\ngnn_layers = 1\nmax_len = 4\nbatch_size = 1\n")
    return str(config)


def test_train_resume_equals_one_uninterrupted_run(ckpt_and_corpus, tiny_config, tmp_path):
    _, corpus = ckpt_and_corpus
    out = {name: str(tmp_path / f"{name}.ckpt") for name in ("whole", "part", "resumed")}
    train = ["train", "--corpus", corpus, "--config", tiny_config]
    assert run_command([*train, "--epochs", "3", "--out", out["whole"]]) == 0
    assert run_command([*train, "--epochs", "1", "--out", out["part"]]) == 0
    assert run_command(["train", "--corpus", corpus, "--resume", out["part"], "--epochs", "2",
                        "--out", out["resumed"]]) == 0
    whole, resumed = Model.load(out["whole"]).params, Model.load(out["resumed"]).params
    assert resumed.adam_t == whole.adam_t
    for buffer in ("flat", "adam_m", "adam_v"):
        assert np.array_equal(getattr(whole, buffer), getattr(resumed, buffer)), buffer


@pytest.mark.parametrize("content", [None, b"not a checkpoint\n"], ids=["missing", "unreadable"])
def test_train_resume_from_a_missing_or_unreadable_checkpoint_is_a_data_error(
        ckpt_and_corpus, tmp_path, capsys, content):
    _, corpus = ckpt_and_corpus
    ckpt = tmp_path / "part.ckpt"
    if content is not None:
        ckpt.write_bytes(content)
    assert run_command(["train", "--corpus", corpus, "--resume", str(ckpt),
                        "--out", str(tmp_path / "m.ckpt")]) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_resume_on_a_corpus_of_another_size_trains(ckpt_and_corpus, tiny_config,
                                                         tmp_path):
    # each epoch's order is keyed by the step count, not stored for one corpus
    _, corpus = ckpt_and_corpus
    part, out = str(tmp_path / "part.ckpt"), str(tmp_path / "m.ckpt")
    assert run_command(["train", "--corpus", corpus, "--config", tiny_config,
                        "--epochs", "1", "--out", part]) == 0
    bigger = tmp_path / "bigger.jsonl"
    cp.save_corpus(cp.synthesize_corpus(3, seed=1, max_turns=2), bigger)
    assert run_command(["train", "--corpus", str(bigger), "--resume", part, "--epochs", "1",
                        "--out", out]) == 0
    assert Model.load(out).params.adam_t == 2 + 3  # batch_size 1


@pytest.mark.parametrize("flag", [["--homo"], ["--lambda", "0.2"], ["--seed", "3"],
                                  ["--seed", "0"], ["--lambda", "0"], ["--lambda", "0.0"]])
def test_train_resume_with_a_setting_of_its_own_is_a_usage_error(ckpt_and_corpus, tmp_path,
                                                                 capsys, flag):
    ckpt, corpus = ckpt_and_corpus
    assert run_command(["train", "--corpus", corpus, "--resume", ckpt, *flag,
                        "--out", str(tmp_path / "m.ckpt")]) == 1
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("setting, flags, named", [
    ("beta2 = 1.0\n", ["--epochs", "1"], "beta2 must be in [0, 1)"),
    ("adam_eps = 0\n", ["--epochs", "1"], "adam_eps must be positive"),
    ("", ["--epochs", "-3"], "epochs must be at least 0")],
    ids=["beta2-one", "adam-eps-zero", "negative-epochs"])
def test_train_with_an_optimizer_setting_that_cannot_train_is_a_usage_error(
        ckpt_and_corpus, tiny_config, tmp_path, capsys, setting, flags, named):
    _, corpus = ckpt_and_corpus
    config = Path(tiny_config)
    config.write_text(config.read_text() + setting)
    assert run_command(["train", "--corpus", corpus, "--config", tiny_config, *flags,
                        "--out", str(tmp_path / "m.ckpt")]) == 1
    assert f"error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_resume_with_negative_epochs_is_a_usage_error(ckpt_and_corpus, tmp_path, capsys):
    ckpt, corpus = ckpt_and_corpus
    assert run_command(["train", "--corpus", corpus, "--resume", ckpt, "--epochs", "-3",
                        "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "epochs must be at least 0, got -3" in capsys.readouterr().err


def test_numerical_failure_in_training_exits_three(ckpt_and_corpus, tmp_path, monkeypatch):
    _, corpus = ckpt_and_corpus

    def diverging(*args, **kwargs):
        raise NumericalError("non-finite loss on record 0")

    monkeypatch.setattr(cli, "train", diverging)
    assert run_command(["train", "--corpus", corpus, "--out", str(tmp_path / "m.json")]) == 3


def test_non_finite_loss_in_a_training_worker_exits_three(ckpt_and_corpus, tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    records, _ = cp.load_corpus_verbose(ckpt_and_corpus[1])
    # the second record of the first batch goes to the worker
    order = epoch_order(seed=0, adam_t=0, n=len(records))
    records[order[1]].faces[0, :] = 1e308  # finite, but the face FFN overflows
    corpus = tmp_path / "diverging.jsonl"
    cp.save_corpus(records, corpus)
    assert run_command(["train", "--corpus", str(corpus), "--seed", "0", "--epochs", "1",
                        "--out", str(tmp_path / "m.ckpt")]) == 3
    assert f"numerical failure: non-finite loss on record {order[1]}" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_generate_on_a_corpus_of_other_face_width_is_a_data_error(ckpt_and_corpus, tmp_path,
                                                                   capsys):
    ckpt, _ = ckpt_and_corpus
    other = tmp_path / "face5.jsonl"
    cp.save_corpus(cp.synthesize_corpus(2, seed=1, max_turns=2, face_dim=5), other)
    assert run_command(["generate", "--ckpt", ckpt, "--corpus", str(other)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "face vectors: expected dim 8, got 5" in err


def test_train_and_eval_skip_a_record_of_other_face_width(tiny_config, tmp_path, capsys):
    corpus = tmp_path / "mixed.jsonl"
    cp.save_corpus(cp.synthesize_corpus(6, seed=1)
                   + cp.synthesize_corpus(1, seed=1, face_dim=5), corpus)
    ckpt, report = str(tmp_path / "m.ckpt"), str(tmp_path / "r.txt")
    assert run_command(["train", "--corpus", str(corpus), "--config", tiny_config,
                        "--epochs", "1", "--out", ckpt]) == 0
    assert run_command(["eval", "--ckpt", ckpt, "--corpus", str(corpus), "--report", report]) == 0
    err = capsys.readouterr().err
    skipped = "skipped 1 malformed record(s); first: line 7: face vectors: expected dim 8, got 5"
    assert err.count(skipped) == 2


def test_an_over_long_utterance_is_reported_once_per_command(tmp_path, capsys, caplog):
    # the model reads its first max_len tokens on every pass, without a warning each time
    records = cp.synthesize_corpus(4, seed=1)
    records[2].utterances[0] = " ".join(["word"] * 60)
    corpus, ckpt, config = tmp_path / "long.jsonl", str(tmp_path / "m.ckpt"), tmp_path / "run.cfg"
    cp.save_corpus(records, corpus)
    config.write_text("d_model = 8\nheads = 2\ngnn_layers = 1\n")
    line = "truncated 1 record(s): an utterance over max_len=50 tokens, or a response over 49"
    with caplog.at_level("WARNING"):
        for command in (["train", "--config", str(config), "--epochs", "3", "--out", ckpt],
                        ["eval", "--ckpt", ckpt, "--report", str(tmp_path / "r.txt")]):
            assert run_command([*command, "--corpus", str(corpus)]) == 0
            assert capsys.readouterr().err.count(line) == 1, command[0]
    assert not [r for r in caplog.records if "utterance truncated" in r.getMessage()]


def test_train_skips_lines_with_malformed_fields(tiny_config, tmp_path, capsys, caplog):
    good = [cp._record_to_obj(rec) for rec in cp.synthesize_corpus(3, seed=1)]
    lines = [good[0], {**good[0], "utterances": 5}, good[1],
             {**good[0], "faces": [[1.0], [1.0, 2.0]]}, good[2]]
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    with caplog.at_level("WARNING"):
        assert run_command(["train", "--corpus", str(corpus), "--config", tiny_config,
                            "--epochs", "1", "--out", str(tmp_path / "m.ckpt")]) == 0
    assert ("skipped 2 malformed record(s); first: line 2: utterances: expected a list, got int"
            in capsys.readouterr().err)
    assert not caplog.records  # the one line above counts them, and no warning per line


@pytest.mark.parametrize("command", [
    ["train", "--epochs", "1", "--out", "OUT"],
    ["eval", "--ckpt", "CKPT", "--report", "OUT"],
], ids=["train", "eval"])
def test_a_corpus_with_no_valid_record_is_a_data_error(ckpt_and_corpus, tmp_path, capsys,
                                                       caplog, command):
    ckpt, _ = ckpt_and_corpus
    corpus, out = tmp_path / "bad.jsonl", tmp_path / "out.file"
    corpus.write_text('{"utterances": 5}\nnot json\n')
    argv = [{"CKPT": ckpt, "OUT": str(out)}.get(arg, arg) for arg in command]
    with caplog.at_level("DEBUG"):
        assert run_command([*argv, "--corpus", str(corpus)]) == 2
    assert f"data error: no valid records in {corpus}" in capsys.readouterr().err
    assert not caplog.records  # the error line alone: no warning per line, none for the file
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["train", "--corpus", "CORPUS", "--epochs", "3", "--out"],
    ["train", "--corpus", "CORPUS", "--resume", "CKPT", "--out"],
    ["eval", "--corpus", "CORPUS", "--ckpt", "CKPT", "--report"],
    ["synth", "--dialogues", "2", "--out"],
], ids=["train", "train-resume", "eval", "synth"])
def test_output_in_a_missing_directory_is_refused_before_any_work(ckpt_and_corpus, tmp_path,
                                                                  capsys, command):
    ckpt, corpus = ckpt_and_corpus
    out = str(tmp_path / "absent" / "out.file")
    argv = [{"CKPT": ckpt, "CORPUS": corpus}.get(arg, arg) for arg in command]
    assert run_command([*argv, out]) == 2
    captured = capsys.readouterr()
    assert f"data error: cannot write {out}: directory" in captured.err
    assert captured.out == ""  # no configuration, epoch or result line


@pytest.mark.parametrize("command", [
    ["train", "--corpus", "CORPUS", "--out", "OUT", "--seed", "-1"],
    ["synth", "--out", "OUT", "--dialogues", "2", "--seed", "-5"],
    ["gradcheck", "--seed", "-2"],
], ids=["train", "synth", "gradcheck"])
def test_negative_seed_is_a_usage_error(ckpt_and_corpus, tmp_path, capsys, command):
    _, corpus = ckpt_and_corpus
    out = tmp_path / "out.file"
    argv = [{"CORPUS": corpus, "OUT": str(out)}.get(arg, arg) for arg in command]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and command[-1] in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_hgnn_seed_that_is_not_a_non_negative_integer_is_a_usage_error(
        ckpt_and_corpus, tmp_path, monkeypatch, capsys, value):
    _, corpus = ckpt_and_corpus
    monkeypatch.setenv("HGNN_SEED", value)
    out = tmp_path / "synth.jsonl"
    assert run_command(["synth", "--out", str(out), "--dialogues", "2"]) == 1
    assert run_command(["inspect-graph", "--corpus", corpus]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error: HGNN_SEED must be a non-negative integer, got {value!r}") == 2
    assert not out.exists()


@pytest.mark.parametrize("index, code, message", [
    ("-1", 1, "error: --index must be at least 0, got -1"),
    ("2", 2, "data error: --index 2 outside corpus of 2"),
], ids=["negative", "past-the-end"])
def test_inspect_graph_index_outside_the_corpus(ckpt_and_corpus, capsys, index, code, message):
    _, corpus = ckpt_and_corpus
    assert run_command(["inspect-graph", "--corpus", corpus, "--index", index]) == code
    assert message in capsys.readouterr().err


def resolved_seed(out: str) -> int:
    return int(re.search(r"^seed = (-?\d+)$", out, re.MULTILINE).group(1))


@pytest.mark.parametrize("file_seed, env_seed, want", [
    ("7", "9", 7),    # the config file beats HGNN_SEED
    (None, "9", 9),   # HGNN_SEED when the file sets none
    (None, None, 0),  # the default
])
def test_inspect_graph_seed_precedence(ckpt_and_corpus, tmp_path, monkeypatch, capsys,
                                       file_seed, env_seed, want):
    _, corpus = ckpt_and_corpus
    config = tmp_path / "run.cfg"
    config.write_text(f"seed = {file_seed}\n" if file_seed else "# no seed\n")
    if env_seed:
        monkeypatch.setenv("HGNN_SEED", env_seed)
    else:
        monkeypatch.delenv("HGNN_SEED", raising=False)
    assert run_command(["inspect-graph", "--corpus", corpus, "--config", str(config)]) == 0
    assert resolved_seed(capsys.readouterr().out) == want


def test_seed_flag_beats_config_file_and_environment(ckpt_and_corpus, tmp_path, monkeypatch,
                                                     capsys):
    # inspect-graph takes no --seed flag; train resolves its configuration the same way
    _, corpus = ckpt_and_corpus
    config = tmp_path / "run.cfg"
    config.write_text("seed = 7\nd_model = 8\nheads = 2\nmax_len = 4\n")
    monkeypatch.setenv("HGNN_SEED", "9")
    argv = ["train", "--corpus", corpus, "--config", str(config), "--epochs", "1",
            "--out", str(tmp_path / "m.json"), "--seed", "5"]
    assert run_command(argv) == 0
    assert resolved_seed(capsys.readouterr().out) == 5
