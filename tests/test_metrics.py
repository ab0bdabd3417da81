import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgchat import corpus as cp
from hgchat import decoder as dec
from hgchat import metrics as mx
from hgchat import model as md
from hgchat import training as tr
from hgchat.config import TrainConfig
from hgchat.model import Model
from hgchat.params import init_model_params


# --- distinct-n -------------------------------------------------------------

def test_dist1_hand_count():
    assert mx.distinct_n([["a", "a", "b"]], 1) == pytest.approx(2 / 3, abs=1e-15)


def test_dist1_identical_single_tokens():
    for r in (1, 3, 10):
        responses = [["hi"]] * r
        assert mx.distinct_n(responses, 1) == pytest.approx(1 / r, abs=1e-15)


def test_dist1_all_unique():
    responses = [["a"], ["b"], ["c"]]
    assert mx.distinct_n(responses, 1) == 1.0


def test_dist_empty_is_zero():
    assert mx.distinct_n([], 1) == 0.0
    assert mx.distinct_n([[]], 2) == 0.0
    assert mx.distinct_n([["one"]], 2) == 0.0  # no bigrams in a 1-token response


def test_dist_rejects_other_orders():
    with pytest.raises(ValueError):
        mx.distinct_n([["a"]], 3)


token_lists = st.lists(st.lists(st.sampled_from("abcde"), max_size=6), max_size=8)


@settings(max_examples=50, deadline=None)
@given(token_lists, st.sampled_from([1, 2]))
def test_dist_bounded_and_duplicates_never_increase(responses, n):
    base = mx.distinct_n(responses, n)
    assert 0.0 <= base <= 1.0
    if responses and responses[0]:
        with_dup = responses + [responses[0]]
        assert mx.distinct_n(with_dup, n) <= base + 1e-15


# --- BLEU ----------------------------------------------------------------------

def test_bleu_exact_matches_is_one():
    pairs = [["the", "cat", "sat"], ["on", "the", "mat", "today"]]
    assert mx.corpus_bleu(pairs, [list(p) for p in pairs]) == pytest.approx(1.0, abs=1e-9)


def test_bleu_no_overlap_near_zero():
    cands = [["x", "y"], ["z"]]
    refs = [["a", "b"], ["c"]]
    assert mx.corpus_bleu(cands, refs) < 0.05


def test_bleu_hand_value_brevity_case():
    # "the cat" vs "the cat sat": p1 = 1, higher orders smooth to 1,
    # so BLEU is exactly the brevity penalty exp(1 - 3/2)
    got = mx.corpus_bleu([["the", "cat"]], [["the", "cat", "sat"]])
    assert got == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_bleu_empty_candidate_counts_as_zero_match():
    cands = [[], ["the", "cat"]]
    refs = [["hello"], ["the", "cat"]]
    got = mx.corpus_bleu(cands, refs)
    assert 0.0 < got < 1.0  # penalized but not dropped


def test_bleu_all_empty_candidates():
    assert mx.corpus_bleu([[], []], [["a"], ["b"]]) == 0.0


def test_bleu_permutation_symmetric():
    cands = [["a", "b"], ["c", "d", "e"], ["f"]]
    refs = [["a", "x"], ["c", "d"], ["f", "g"]]
    base = mx.corpus_bleu(cands, refs)
    perm = mx.corpus_bleu(cands[::-1], refs[::-1])
    assert base == pytest.approx(perm, abs=1e-15)


def test_bleu_misaligned_lists_rejected():
    with pytest.raises(ValueError):
        mx.corpus_bleu([["a"]], [])


# --- weighted F1 -----------------------------------------------------------------

def test_weighted_f1_perfect_predictor():
    golds = list(cp.EMOTIONS) * 3
    score, per_class = mx.emotion_weighted_f1(list(golds), golds)
    assert score == pytest.approx(1.0, abs=1e-9)
    assert all(cs.f1 == 1.0 for cs in per_class if cs.support)


def test_weighted_f1_single_class_prediction_uniform_golds():
    golds = list(cp.EMOTIONS) * 4
    preds = ["anger"] * len(golds)
    score, _ = mx.emotion_weighted_f1(preds, golds)
    assert score == pytest.approx(1 / 28, abs=1e-12)


def test_weighted_f1_single_correct_sample():
    score, _ = mx.emotion_weighted_f1(["joy"], ["joy"])
    assert score == 1.0


def test_weighted_f1_absent_classes_excluded():
    golds = ["joy", "joy", "anger"]
    preds = ["joy", "anger", "anger"]
    score, per_class = mx.emotion_weighted_f1(preds, golds)
    by_label = {cs.label: cs for cs in per_class}
    f1_joy = by_label["joy"].f1
    f1_anger = by_label["anger"].f1
    assert score == pytest.approx((2 * f1_joy + 1 * f1_anger) / 3, abs=1e-12)


def test_weighted_equals_macro_when_balanced():
    golds = list(cp.EMOTIONS) * 2
    rng = np.random.default_rng(0)
    preds = [cp.EMOTIONS[rng.integers(7)] for _ in golds]
    weighted, per_class = mx.emotion_weighted_f1(preds, golds)
    macro = sum(cs.f1 for cs in per_class) / 7
    assert weighted == pytest.approx(macro, abs=1e-12)


# --- perplexity -------------------------------------------------------------------

def uniform_model(vocab_size=50):
    cfg = TrainConfig(d_word=4, d_hidden=6, d_model=8, heads=2, gnn_layers=1,
                      face_dim=3, audio_dim=3, z_speakers=3, max_turns=4,
                      dropout=0.0, seed=0)
    records = cp.synthesize_corpus(4, seed=1, face_dim=3, audio_dim=3, max_turns=2)
    tokens = sorted({t for r in records for t in cp.tokenize(r.response)})
    fillers = [f"w{i}" for i in range(vocab_size - 4 - len(tokens))]
    vocab = cp.Vocab(list(cp.RESERVED_TOKENS) + tokens + fillers)
    assert vocab.size == vocab_size
    roster = cp.build_roster(records, cfg.z_speakers)
    params = init_model_params(cfg, vocab.size, roster.size)
    params["dec.out_proj.w"].values[:] = 0.0  # uniform output distribution
    return Model(cfg, params, vocab, roster), records


def test_uniform_model_ppl_equals_vocab_size():
    model, records = uniform_model(50)
    assert mx.perplexity(model, records) == pytest.approx(50.0, rel=1e-9)


def test_ppl_at_least_one_and_order_invariant():
    model, records = uniform_model(50)
    ppl = mx.perplexity(model, records)
    assert ppl >= 1.0
    assert mx.perplexity(model, records[::-1]) == pytest.approx(ppl, rel=1e-12)


# --- report -----------------------------------------------------------------------

def test_evaluate_report_roundtrip():
    model, records = uniform_model(50)
    report = mx.evaluate(model, records)
    text = report.to_text()
    assert "ppl:" in text and "per_class:" in text
    lines = report.to_json_lines().strip().splitlines()
    assert len(lines) == 1 + 7  # header plus one row per emotion class


def test_evaluate_counts_truncated_generations():
    model, records = uniform_model(50)  # argmax is always <pad>, never EOS
    report = mx.evaluate(model, records)
    assert report.counts["truncated"] == len(records)
    assert report.counts["generated_tokens"] == len(records) * model.cfg.max_len
    assert f"count_truncated: {len(records)}" in report.to_text()


def test_evaluate_reports_truncation_rate_and_response_lengths(monkeypatch):
    model, records = uniform_model(50)
    capped = mx.evaluate(model, records).counts  # every response runs to the cap
    assert capped["truncation_rate"] == 1.0
    assert (capped["response_len_min"] == capped["response_len_median"]
            == capped["response_len_max"] == model.cfg.max_len)
    empty = mx.evaluate(model, []).counts
    assert [empty[k] for k in ("truncation_rate", "response_len_min", "response_len_median",
                               "response_len_max")] == [0.0, 0, 0, 0]

    outputs = [(["a"] * 3, False), ([], False), (["b"] * 7, True), (["c"] * 4, False)]
    monkeypatch.setattr(Model, "generate_many", lambda self, recs: outputs)
    report = mx.evaluate(model, records)
    want = {"truncated": 1, "truncation_rate": 0.25, "response_len_min": 0,
            "response_len_median": 3.5, "response_len_max": 7}
    assert {k: report.counts[k] for k in want} == want
    lines = report.to_text().splitlines()
    assert all(f"count_{k}: {v}" in lines for k, v in want.items())
    head = json.loads(report.to_json_lines().splitlines()[0])
    assert {k: head["counts"][k] for k in want} == want


def eos_model(seed, n_records):
    """A tiny model whose EOS column points along the mean speaker embedding,
    and ``n_records`` dialogues for it: some responses end, others reach the cap."""
    cfg = TrainConfig(d_word=4, d_hidden=6, d_model=8, heads=2, gnn_layers=1,
                      face_dim=3, audio_dim=3, z_speakers=3, max_turns=4,
                      dropout=0.0, seed=0, max_len=12)
    records = cp.synthesize_corpus(n_records, seed=seed, max_turns=cfg.max_turns,
                                   face_dim=cfg.face_dim, audio_dim=cfg.audio_dim)
    vocab = cp.build_vocab(records)
    roster = cp.build_roster(records, cfg.z_speakers)
    params = init_model_params(dataclasses.replace(cfg, seed=seed), vocab.size, roster.size)
    mean_speaker = params["enc.speaker_emb"].values[1:].mean(axis=0)
    params["dec.out_proj.w"].values[:, cp.EOS] = 2.0 * mean_speaker
    return Model(cfg, params, vocab, roster), records


def test_generate_many_equals_generate_over_several_groups():
    model, records = eos_model(2, 2 * dec.GREEDY_GROUP + 3)
    got = model.generate_many(records)
    assert got == [model.generate(rec) for rec in records]
    assert {truncated for _, truncated in got} == {False, True}


def test_generate_many_decodes_near_equal_lockstep_groups(monkeypatch):
    model, records = eos_model(2, 12)
    sizes = []
    greedy_many = md.greedy_many

    def sized(group, *args):
        sizes.append(len(group))
        return greedy_many(group, *args)

    monkeypatch.setattr(md, "greedy_many", sized)
    assert model.generate_many(records) == [model.generate(rec) for rec in records]
    assert sizes == [6, 6]


def test_evaluate_report_equals_one_from_per_record_generate(monkeypatch):
    model, records = eos_model(2, dec.GREEDY_GROUP + 3)
    batched = mx.evaluate(model, records)
    monkeypatch.setattr(Model, "generate_many",
                        lambda self, recs: [self.generate(rec) for rec in recs])
    assert mx.evaluate(model, records) == batched
    assert 0 < batched.counts["truncated"] < len(records)


# --- per-class perplexity ----------------------------------------------------------

def test_per_class_perplexity_pools_the_records_of_each_gold_emotion(monkeypatch):
    model, records = uniform_model(50)
    for rec, label in zip(records, ["joy", "anger", "joy", "joy"]):
        rec.response_emotion = label
    stats = dict(zip(map(id, records), [(2.0, 1), (4.0, 3), (3.0, 2), (6.0, 2)]))
    monkeypatch.setattr(Model, "sequence_stats", lambda self, rec: stats[id(rec)])
    report = mx.evaluate(model, records)
    assert report.ppl == mx.perplexity(model, records) == math.exp(15.0 / 8)
    ppl = {cs.label: cs.ppl for cs in report.per_class}
    assert ppl == {**dict.fromkeys(cp.EMOTIONS), "joy": math.exp(11.0 / 5),
                   "anger": math.exp(4.0 / 3)}
    rows = [json.loads(line) for line in report.to_json_lines().splitlines()[1:]]
    assert {row["class"]: row["ppl"] for row in rows} == ppl
    lines = report.to_text().splitlines()
    assert "per_class: label precision recall f1 support ppl" in lines
    assert sum(line.endswith(" null") for line in lines) == len(cp.EMOTIONS) - 2
    assert math.isnan(mx.pooled_perplexity([]))


# --- evaluate in several processes -------------------------------------------------

PROCESS_COUNTS = (1, 2, 3)


def pin_processes(monkeypatch, n):
    """Make ``evaluate`` see ``n`` usable CPUs, and so score in ``n``
    processes when the records make that many lockstep groups."""
    monkeypatch.setattr(tr, "usable_cpus", lambda: n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


def count_scoring_processes(monkeypatch, tmp_path):
    """Leave a file named by its pid in ``tmp_path`` from each process that
    scores a group; returns a function that counts the pids."""
    score_group = mx._score_group

    def marked(model, group):
        (tmp_path / str(os.getpid())).touch()
        return score_group(model, group)

    monkeypatch.setattr(mx, "_score_group", marked)

    def count():
        n = len(list(tmp_path.iterdir()))
        for path in tmp_path.iterdir():
            path.unlink()
        return n
    return count


def test_evaluate_report_is_the_same_for_any_process_count(monkeypatch, tmp_path):
    model, records = eos_model(2, 2 * dec.GREEDY_GROUP + 3)  # three groups
    processes = count_scoring_processes(monkeypatch, tmp_path)
    reports = {}
    for n in PROCESS_COUNTS:
        pin_processes(monkeypatch, n)
        reports[n] = mx.evaluate(model, records)
        assert processes() == n
        assert_no_child_left()
    assert reports[2] == reports[1] and reports[3] == reports[1]
    assert 0 < reports[1].counts["truncated"] < len(records)


def test_one_group_evaluates_in_one_process(monkeypatch, tmp_path):
    model, records = eos_model(2, dec.GREEDY_GROUP)
    processes = count_scoring_processes(monkeypatch, tmp_path)
    pin_processes(monkeypatch, 4)
    mx.evaluate(model, records)
    assert processes() == 1


def test_groups_are_the_fewest_consecutive_and_near_equal():
    sizes = {0: [], 1: [1], 7: [7], 8: [8], 9: [4, 5], 12: [6, 6], 16: [8, 8],
             17: [5, 6, 6], 25: [6, 6, 6, 7]}
    for n, want in sizes.items():
        records = list(range(n))
        groups = dec.lockstep_groups(records)
        assert [len(group) for group in groups] == want
        assert [r for group in groups for r in group] == records


@pytest.mark.parametrize("n_records", [1, 7, 12, 17])
def test_balanced_groups_report_as_one_process_does(monkeypatch, tmp_path, n_records):
    model, records = eos_model(3, n_records)
    processes = count_scoring_processes(monkeypatch, tmp_path)
    pin_processes(monkeypatch, 1)
    want = mx.evaluate(model, records)
    assert processes() == 1
    for n in (2, 3):
        pin_processes(monkeypatch, n)
        assert mx.evaluate(model, records) == want
        assert processes() == min(n, len(dec.lockstep_groups(records)))
        assert_no_child_left()


def test_one_group_evaluates_without_loading_multiprocessing():
    # perfbench warms up on one record, and its set-up time must not pay
    # for the import
    script = ("import sys\n"
              "from hgchat import corpus, metrics, training\n"
              "from hgchat.config import TrainConfig\n"
              "from hgchat.model import Model\n"
              "from hgchat.params import init_model_params\n"
              "training.usable_cpus = lambda: 4\n"
              "cfg = TrainConfig(max_len=4)\n"
              "records = corpus.synthesize_corpus(8, seed=0, max_turns=2)\n"
              "vocab = corpus.build_vocab(records)\n"
              "roster = corpus.build_roster(records, cfg.z_speakers)\n"
              "params = init_model_params(cfg, vocab.size, roster.size)\n"
              "metrics.evaluate(Model(cfg, params, vocab, roster), records)\n"
              "assert 'multiprocessing' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=120)


def test_error_in_a_child_is_raised_in_the_parent_as_in_one_process(monkeypatch):
    model, records = eos_model(2, 3 * dec.GREEDY_GROUP)
    # the first fault in record order sits in group 1, which a second
    # process scores; group 2's comes later
    child = records[dec.GREEDY_GROUP + 1]
    child.speakers = child.speakers[:-1]
    later = records[2 * dec.GREEDY_GROUP]
    later.emotions = later.emotions[:-1]
    raised = {}
    for n in (1, 2):
        pin_processes(monkeypatch, n)
        with pytest.raises(Exception) as info:
            mx.evaluate(model, records)
        raised[n] = (info.type, str(info.value))
        assert_no_child_left()
    assert raised[1][0] is cp.RecordError and raised[1][1].startswith("speakers:")
    assert raised[2] == raised[1]


def turn_sorted(seed, n_records):
    """``eos_model``'s model and records, the records sorted by turn count,
    so that each lockstep group costs more than the one before."""
    model, records = eos_model(seed, n_records)
    records.sort(key=lambda rec: rec.n_turns)
    costs = [sum(rec.n_turns for rec in group) for group in dec.lockstep_groups(records)]
    assert costs == sorted(set(costs))
    return model, records


def mark_groups(monkeypatch, tmp_path, records):
    """Leave a file named ``<group>.<pid>`` from each process that scores a
    lockstep group of ``records``; returns a function that maps each marked
    group to its pid."""
    group_of = {id(group[0]): j for j, group in enumerate(dec.lockstep_groups(records))}
    score_group = mx._score_group

    def marked(model, group):
        (tmp_path / f"{group_of[id(group[0])]}.{os.getpid()}").touch()
        return score_group(model, group)

    monkeypatch.setattr(mx, "_score_group", marked)

    def scorers():
        marks = {}
        for path in tmp_path.iterdir():
            group, pid = path.name.split(".")
            marks[int(group)] = int(pid)
            path.unlink()
        return marks
    return scorers


def test_the_parent_scores_the_heaviest_group(monkeypatch, tmp_path):
    model, records = turn_sorted(2, 3 * dec.GREEDY_GROUP)
    scorers = mark_groups(monkeypatch, tmp_path, records)
    pin_processes(monkeypatch, 1)
    want = mx.evaluate(model, records)
    assert scorers() == {0: os.getpid(), 1: os.getpid(), 2: os.getpid()}
    for n in (2, 3):
        pin_processes(monkeypatch, n)
        assert mx.evaluate(model, records) == want
        marks = scorers()
        assert_no_child_left()
        assert marks[2] == os.getpid() and len(set(marks.values())) == n
        if n == 2:  # the two lighter groups together cost less than the heaviest
            assert marks[0] == marks[1] != os.getpid()


@pytest.mark.parametrize("child_fault", [True, False], ids=["child_first", "parent_only"])
def test_the_first_error_in_record_order_is_raised_whoever_scores_it(monkeypatch,
                                                                      child_fault):
    model, records = turn_sorted(2, 3 * dec.GREEDY_GROUP)
    # the parent scores group 2, the heaviest, and a child groups 0 and 1
    heavy = records[2 * dec.GREEDY_GROUP + 1]
    heavy.emotions = heavy.emotions[:-1]
    if child_fault:
        light = records[dec.GREEDY_GROUP + 1]
        light.speakers = light.speakers[:-1]
    raised = {}
    for n in (1, 2):
        pin_processes(monkeypatch, n)
        with pytest.raises(cp.RecordError) as info:
            mx.evaluate(model, records)
        raised[n] = str(info.value)
        assert_no_child_left()
    assert raised[1].startswith("speakers:" if child_fault else "emotions:")
    assert raised[2] == raised[1]


@pytest.mark.parametrize("n_procs", PROCESS_COUNTS)
def test_a_record_the_model_cannot_take_is_refused_before_any_scoring(monkeypatch, n_procs):
    model, records = turn_sorted(2, 3 * dec.GREEDY_GROUP)
    # in the heaviest group, which the parent scores
    heavy = records[2 * dec.GREEDY_GROUP + 1]
    heavy.emotions = heavy.emotions[:-1]
    scored = []
    monkeypatch.setattr(mx, "_score_group", lambda model, group: scored.append(group))

    def no_fork(*args):
        raise AssertionError("forked before the records were checked")

    monkeypatch.setattr(tr, "Forked", no_fork)
    pin_processes(monkeypatch, n_procs)
    with pytest.raises(cp.RecordError, match="^emotions: "):
        mx.evaluate(model, records)
    assert scored == []
    assert_no_child_left()


def test_deal_gives_the_heaviest_group_to_the_least_loaded_process():
    assert mx._deal([9, 18, 29], 2) == [1, 1, 0]
    assert mx._deal([9, 18, 29], 3) == [2, 1, 0]
    assert mx._deal([5, 5, 5, 5], 2) == [0, 1, 0, 1]  # equals in record order
    assert mx._deal([1, 7, 2, 2, 3], 2) == [0, 0, 1, 1, 1]


def test_a_child_that_dies_is_reported(monkeypatch):
    model, records = eos_model(2, 2 * dec.GREEDY_GROUP)
    parent_pid = os.getpid()
    score_group = mx._score_group

    def die_in_child(model, group):
        if os.getpid() != parent_pid:
            os._exit(3)
        return score_group(model, group)

    monkeypatch.setattr(mx, "_score_group", die_in_child)
    pin_processes(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"^evaluation process 1 ended \(exit code 3\)"):
        mx.evaluate(model, records)
    assert_no_child_left()


def test_interrupted_evaluation_leaves_no_child(monkeypatch):
    model, records = eos_model(2, 3 * dec.GREEDY_GROUP)
    parent_pid = os.getpid()
    score_group = mx._score_group

    def interrupt_parent(model, group):
        if os.getpid() == parent_pid:
            raise KeyboardInterrupt
        return score_group(model, group)

    monkeypatch.setattr(mx, "_score_group", interrupt_parent)
    pin_processes(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        mx.evaluate(model, records)
    assert_no_child_left()


def test_nothing_forks_while_another_thread_runs(monkeypatch, tmp_path):
    model, records = eos_model(2, 3 * dec.GREEDY_GROUP)
    processes = count_scoring_processes(monkeypatch, tmp_path)
    pin_processes(monkeypatch, 3)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:  # a fork would copy the other thread's locks mid-step
        mx.evaluate(model, records)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert processes() == 1
