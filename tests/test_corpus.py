import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgchat import corpus as cp


def make_record(n=2, with_modalities=True):
    return cp.DialogueRecord(
        utterances=[f"hello there {i}" for i in range(n)],
        emotions=["joy"] * n,
        speakers=["s1"] * n,
        next_speaker="s2",
        response="fine thanks",
        response_emotion="neutral",
        faces=np.ones((n, 4)) if with_modalities else None,
        audios=np.zeros((n, 3)) if with_modalities else None,
    )


def test_tokenize_lowercase_whitespace_idempotent():
    toks = cp.tokenize("Hello   THERE\tfriend")
    assert toks == ["hello", "there", "friend"]
    assert cp.tokenize(" ".join(toks)) == toks


def test_empty_file_gives_empty_corpus(tmp_path, caplog):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with caplog.at_level("WARNING"):
        records, errors = cp.load_corpus_verbose(path)
    assert records == [] and errors == []
    assert any("no valid records" in r.message for r in caplog.records)


def test_length_mismatch_rejected_with_field_name(tmp_path):
    rec = make_record(2)
    rec.emotions = ["joy"]  # 2 utterances, 1 emotion
    path = tmp_path / "bad.jsonl"
    obj = {
        "utterances": rec.utterances, "emotions": rec.emotions,
        "speakers": rec.speakers, "next_speaker": rec.next_speaker,
        "response": rec.response, "response_emotion": rec.response_emotion,
    }
    path.write_text(json.dumps(obj) + "\n")
    records, errors = cp.load_corpus_verbose(path)
    assert records == []
    assert len(errors) == 1
    lineno, msg = errors[0]
    assert lineno == 1 and "emotions" in msg


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({
        "utterances": ["hi"], "emotions": ["joy"], "speakers": ["s1"],
        "next_speaker": "s1", "response": "ok", "response_emotion": "joy",
    })
    path.write_text(good + "\n{broken\n" + good + "\n")
    records, errors = cp.load_corpus_verbose(path)
    assert len(records) == 2
    assert errors[0][0] == 2


def test_unknown_emotion_rejected():
    rec = make_record()
    rec.emotions[0] = "melancholy"
    with pytest.raises(cp.RecordError, match="melancholy"):
        rec.validate()


def test_max_turns_enforced():
    rec = make_record(n=5)
    with pytest.raises(cp.RecordError, match="max_turns"):
        rec.validate(max_turns=4)


def test_nan_rejected(tmp_path):
    path = tmp_path / "nan.jsonl"
    path.write_text('{"utterances": ["hi"], "emotions": ["joy"], "speakers": ["s1"], '
                    '"next_speaker": "s1", "response": "ok", "response_emotion": "joy", '
                    '"faces": [[NaN, 1.0]]}\n')
    records, errors = cp.load_corpus_verbose(path)
    assert records == [] and len(errors) == 1


def test_round_trip_structural_equality(tmp_path):
    records = cp.synthesize_corpus(25, seed=3)
    path = tmp_path / "corpus.jsonl"
    cp.save_corpus(records, path)
    loaded = cp.load_corpus(path)
    assert len(loaded) == len(records)
    assert all(cp.records_equal(a, b) for a, b in zip(records, loaded))


# --- vocab ----------------------------------------------------------------

def corpus_of_text(text: str):
    return [cp.DialogueRecord(
        utterances=[text], emotions=["joy"], speakers=["s1"],
        next_speaker="s1", response="", response_emotion="joy",
    )]


def test_vocab_min_count_threshold():
    vocab = cp.build_vocab(corpus_of_text("a a b"), min_count=2)
    assert vocab.tokens == list(cp.RESERVED_TOKENS) + ["a"]
    assert vocab.encode(["b"]) == [cp.UNK]


def test_vocab_min_count_one_keeps_everything():
    vocab = cp.build_vocab(corpus_of_text("a a b"), min_count=1)
    assert set(vocab.tokens) == set(cp.RESERVED_TOKENS) | {"a", "b"}


def test_vocab_deterministic_assignment():
    recs = cp.synthesize_corpus(30, seed=9)
    v1 = cp.build_vocab(recs)
    v2 = cp.build_vocab(cp.synthesize_corpus(30, seed=9))
    assert v1.tokens == v2.tokens


def test_vocab_reserved_ids():
    vocab = cp.build_vocab(corpus_of_text("x"))
    assert vocab.encode(["<pad>", "<unk>", "<bos>", "<eos>"]) == [0, 1, 2, 3]
    assert (cp.PAD, cp.UNK, cp.BOS, cp.EOS) == (0, 1, 2, 3)


# --- roster ----------------------------------------------------------------

def test_roster_unknown_maps_to_slot_zero():
    roster = cp.build_roster(cp.synthesize_corpus(10, n_speakers=2, seed=1))
    assert roster.names[0] == cp.UNK_SPEAKER
    assert roster.id_of("nobody-seen") == 0
    assert roster.id_of(roster.names[1]) == 1


def test_roster_caps_at_max_speakers():
    recs = cp.synthesize_corpus(50, n_speakers=6, seed=2)
    roster = cp.build_roster(recs, max_speakers=4)
    assert roster.size == 4


# --- synthesis --------------------------------------------------------------

def test_synthesis_deterministic():
    a = cp.synthesize_corpus(12, seed=5)
    b = cp.synthesize_corpus(12, seed=5)
    assert all(cp.records_equal(x, y) for x, y in zip(a, b))


def test_label_depends_only_on_modalities():
    # same text, different vectors -> labels differ whenever projections do
    rng = np.random.default_rng(0)
    f1, a1 = rng.standard_normal(8), rng.standard_normal(8)
    f2, a2 = rng.standard_normal(8), rng.standard_normal(8)
    l1, l2 = cp.planted_label(f1, a1), cp.planted_label(f2, a2)
    assert l1 == cp.planted_label(f1, a1)  # function of the vectors alone
    assert {l1, l2} <= set(cp.EMOTIONS)
    found_diff = any(
        cp.planted_label(rng.standard_normal(8), rng.standard_normal(8)) != l1
        for _ in range(20)
    )
    assert found_diff


def test_label_balance_within_ten_percent_of_uniform():
    records = cp.synthesize_corpus(1000, seed=7)
    counts = Counter(r.response_emotion for r in records)
    lo, hi = 0.9 * 1000 / 7, 1.1 * 1000 / 7
    assert all(lo <= counts[e] <= hi for e in cp.EMOTIONS), counts


def test_templates_fixed_per_emotion_speaker_pair():
    records = cp.synthesize_corpus(200, seed=11)
    seen: dict[tuple[str, str], str] = {}
    for rec in records:
        key = (rec.response_emotion, rec.next_speaker)
        assert seen.setdefault(key, rec.response) == rec.response


def corpus_digest(records):
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps([r.utterances, r.emotions, r.speakers, r.next_speaker,
                                  r.response, r.response_emotion]).encode())
        digest.update(r.faces.tobytes())
        digest.update(r.audios.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kwargs, digest", [
    (dict(n_dialogues=6, seed=0),
     "f765081b5bad036e2c89d0899669f8b2238c5994834be2889a88caa8aaa9cc0a"),
    (dict(n_dialogues=3, seed=7, min_turns=24, max_turns=35),
     "9e0bff44e66ff46b8031a8f094d4a178557aacf91e7c40f0ee01501998e52240"),
    (dict(n_dialogues=5, seed=123, n_speakers=5, min_turns=1, max_turns=12,
          face_dim=3, audio_dim=5),
     "aa3f946cd82f744f2dad4f149a670654620bf1175da026a5470b6f48840e28c9"),
])
def test_synthesized_corpus_keeps_its_random_stream(kwargs, digest):
    # a seed names the same corpus in every version: benchmark inputs and
    # the seeded tests stay what they were
    assert corpus_digest(cp.synthesize_corpus(**kwargs)) == digest


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_synthesized_records_validate(seed):
    for rec in cp.synthesize_corpus(3, seed=seed):
        rec.validate()
