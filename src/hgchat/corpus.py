"""Dialogue records, vocabularies, and the synthetic corpus generator.

Corpus files are UTF-8 with one JSON object per line. Face and audio
vectors are optional per corpus; a text-plus-emotion corpus simply leaves
those keys out and the graph builder skips the corresponding node types.
"""
from __future__ import annotations

import functools
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

EMOTIONS = ("anger", "disgust", "fear", "joy", "sadness", "surprise", "neutral")
EMOTION_INDEX = {name: i for i, name in enumerate(EMOTIONS)}

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")
UNK_SPEAKER = "<unk>"


class RecordError(ValueError):
    """A dialogue record violates the format or an invariant."""


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization; idempotent."""
    return text.lower().split()


@dataclass(eq=False)
class DialogueRecord:
    """One dialogue: N history turns plus the gold next response."""

    utterances: list[str]
    emotions: list[str]
    speakers: list[str]
    next_speaker: str
    response: str
    response_emotion: str
    faces: np.ndarray | None = None   # [N x face_dim]
    audios: np.ndarray | None = None  # [N x audio_dim]

    @property
    def n_turns(self) -> int:
        return len(self.utterances)

    def validate(self, max_turns: int = 35) -> None:
        n = self.n_turns
        if n < 1:
            raise RecordError("utterances: need at least one history turn")
        if n > max_turns:
            raise RecordError(f"utterances: {n} turns exceeds max_turns={max_turns}")
        for name, seq in (("emotions", self.emotions), ("speakers", self.speakers)):
            if len(seq) != n:
                raise RecordError(f"{name}: length {len(seq)} != {n} utterances")
        for name, mat in (("faces", self.faces), ("audios", self.audios)):
            if mat is not None and mat.shape[0] != n:
                raise RecordError(f"{name}: {mat.shape[0]} vectors != {n} utterances")
        for label in list(self.emotions) + [self.response_emotion]:
            if label not in EMOTION_INDEX:
                raise RecordError(f"emotions: unknown category {label!r}")


def distinct_speakers(record: DialogueRecord) -> list[str]:
    """Distinct history speakers in order of first appearance."""
    seen: list[str] = []
    for name in record.speakers:
        if name not in seen:
            seen.append(name)
    return seen


def records_equal(a: DialogueRecord, b: DialogueRecord) -> bool:
    def same(x, y):
        if (x is None) != (y is None):
            return False
        return x is None or np.array_equal(x, y)

    return (
        a.utterances == b.utterances
        and a.emotions == b.emotions
        and a.speakers == b.speakers
        and a.next_speaker == b.next_speaker
        and a.response == b.response
        and a.response_emotion == b.response_emotion
        and same(a.faces, b.faces)
        and same(a.audios, b.audios)
    )


def _record_to_obj(rec: DialogueRecord) -> dict:
    obj = {
        "utterances": rec.utterances,
        "emotions": rec.emotions,
        "speakers": rec.speakers,
        "next_speaker": rec.next_speaker,
        "response": rec.response,
        "response_emotion": rec.response_emotion,
    }
    if rec.faces is not None:
        obj["faces"] = rec.faces.tolist()
    if rec.audios is not None:
        obj["audios"] = rec.audios.tolist()
    return obj


def _vectors_from_obj(obj: dict, key: str) -> np.ndarray | None:
    if key not in obj:
        return None
    mat = np.asarray(obj[key], dtype=np.float64)
    if mat.ndim != 2:
        raise RecordError(f"{key}: expected a list of equal-length vectors")
    if not np.all(np.isfinite(mat)):
        raise RecordError(f"{key}: non-finite values are not permitted")
    return mat


def _record_from_obj(obj: dict) -> DialogueRecord:
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    try:
        rec = DialogueRecord(
            utterances=[str(u) for u in obj["utterances"]],
            emotions=[str(e) for e in obj["emotions"]],
            speakers=[str(s) for s in obj["speakers"]],
            next_speaker=str(obj["next_speaker"]),
            response=str(obj["response"]),
            response_emotion=str(obj["response_emotion"]),
            faces=_vectors_from_obj(obj, "faces"),
            audios=_vectors_from_obj(obj, "audios"),
        )
    except KeyError as exc:
        raise RecordError(f"missing key {exc.args[0]!r}") from exc
    return rec


def save_corpus(records: list[DialogueRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(_record_to_obj(rec), allow_nan=False) + "\n")


def load_corpus_verbose(path: str | Path, max_turns: int = 35
                        ) -> tuple[list[DialogueRecord], list[tuple[int, str]]]:
    """Load records; returns (valid records, (line number, reason) rejects)."""
    records: list[DialogueRecord] = []
    errors: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line, parse_constant=_reject_constant)
                rec = _record_from_obj(obj)
                rec.validate(max_turns=max_turns)
            except (json.JSONDecodeError, RecordError, ValueError) as exc:
                errors.append((lineno, str(exc)))
                log.warning("%s line %d: %s", path, lineno, exc)
                continue
            records.append(rec)
    if not records:
        log.warning("%s: no valid records loaded", path)
    return records, errors


def _reject_constant(name: str):
    raise RecordError(f"non-finite literal {name} is not permitted")


def load_corpus(path: str | Path, max_turns: int = 35) -> list[DialogueRecord]:
    return load_corpus_verbose(path, max_turns=max_turns)[0]


@dataclass
class Vocab:
    tokens: list[str]  # index == id; starts with the reserved entries
    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.token_to_id:
            self.token_to_id = {t: i for i, t in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: list[str]) -> list[int]:
        ids = []
        for tok in tokens:
            tid = self.token_to_id.get(tok, UNK)
            if tid == UNK and tok != RESERVED_TOKENS[UNK]:
                log.debug("token %r outside vocab, mapped to UNK", tok)
            ids.append(tid)
        return ids

    def decode(self, ids: list[int]) -> list[str]:
        return [self.tokens[i] for i in ids]


def build_vocab(records: list[DialogueRecord], min_count: int = 1) -> Vocab:
    """Frequency-thresholded vocabulary with a deterministic order."""
    counts: Counter[str] = Counter()
    for rec in records:
        for utt in rec.utterances:
            counts.update(tokenize(utt))
        counts.update(tokenize(rec.response))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(list(RESERVED_TOKENS) + kept)


@dataclass
class SpeakerRoster:
    """Known speaker names; index 0 is the unknown-speaker slot."""

    names: list[str]

    @property
    def size(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            return 0


def build_roster(records: list[DialogueRecord], max_speakers: int = 13) -> SpeakerRoster:
    """Keep the most frequent speakers, up to max_speakers including UNK."""
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(rec.speakers)
        counts[rec.next_speaker] += 1
    kept = sorted(counts, key=lambda s: (-counts[s], s))[: max_speakers - 1]
    return SpeakerRoster([UNK_SPEAKER] + kept)


# --- synthetic corpora ---------------------------------------------------

# The planted label function is fixed across corpora so that train and
# test splits generated with different seeds agree on it.
_SIGNAL_SEED = 7_000_003
_HISTORY_SIGNAL_SCALE = 0.35  # of earlier turns' modality vectors
_MIN_MARGIN = 0.4             # between a last turn's top two label scores

# an array, so that ``rng.choice`` does not convert a list on every draw
_WORD_POOL = np.array((
    "well so anyway look listen right okay maybe today tonight really "
    "still just about there here again never always once keep talk walk "
    "come stay go think know feel time thing place story plan idea"
).split())

_RESPONSE_TEMPLATES = {
    "anger": "calm down {s} it is fine",
    "disgust": "that sounds awful {s} honestly",
    "fear": "do not panic {s} we are safe",
    "joy": "wonderful news {s} so happy",
    "sadness": "sorry to hear that {s}",
    "surprise": "no way {s} tell me everything",
    "neutral": "alright {s} let us continue",
}


@functools.lru_cache(maxsize=16)
def _signal_projections(face_dim: int, audio_dim: int) -> np.ndarray:
    # Orthonormal rows make the seven scores independent for gaussian
    # inputs, so the argmax label is uniform by symmetry. Read-only, as
    # calls share it.
    rng = np.random.default_rng(_SIGNAL_SEED)
    raw = rng.standard_normal((face_dim + audio_dim, len(EMOTIONS)))
    q, _ = np.linalg.qr(raw)
    proj = q.T
    proj.flags.writeable = False
    return proj


def planted_label(face: np.ndarray, audio: np.ndarray) -> str:
    """Deterministic emotion label from one face/audio vector pair."""
    z = np.concatenate([face, audio])
    proj = _signal_projections(face.shape[0], audio.shape[0])
    return EMOTIONS[int(np.argmax(proj @ z))]


def _draw_label_bearing_pair(rng: np.random.Generator, face_dim: int,
                             audio_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample a face/audio pair whose top-two projection scores are at
    least ``_MIN_MARGIN`` apart, so labels are not dominated by boundary
    noise. The filter is class-symmetric and keeps labels uniform."""
    proj = _signal_projections(face_dim, audio_dim)
    while True:
        face = rng.standard_normal(face_dim)
        audio = rng.standard_normal(audio_dim)
        top2 = np.sort(proj @ np.concatenate([face, audio]))[-2:]
        if top2[1] - top2[0] >= _MIN_MARGIN:
            return face, audio


def synthesize_corpus(n_dialogues: int, n_speakers: int = 3, seed: int = 0,
                      min_turns: int = 1, max_turns: int = 3,
                      face_dim: int = 8, audio_dim: int = 8) -> list[DialogueRecord]:
    """Generate dialogues whose next emotion is planted in the last turn's
    face and audio vectors only.

    Utterance text is drawn independently of the label, history emotions
    are uniform noise, and the gold response is a fixed template keyed by
    (emotion, responding speaker). Earlier turns' modality vectors are
    scaled down so the label-bearing last turn dominates the graph signal.
    """
    rng = np.random.default_rng(seed)
    speakers = [f"s{k + 1}" for k in range(n_speakers)]
    records = []
    for _ in range(n_dialogues):
        n = int(rng.integers(min_turns, max_turns + 1))
        faces = rng.standard_normal((n, face_dim))
        audios = rng.standard_normal((n, audio_dim))
        faces[:-1] *= _HISTORY_SIGNAL_SCALE
        audios[:-1] *= _HISTORY_SIGNAL_SCALE
        faces[-1], audios[-1] = _draw_label_bearing_pair(rng, face_dim, audio_dim)
        label = planted_label(faces[-1], audios[-1])
        # one integers() call of size n draws what n scalar calls would
        who = [speakers[i] for i in rng.integers(n_speakers, size=n)]
        next_speaker = speakers[int(rng.integers(n_speakers))]
        records.append(DialogueRecord(
            utterances=[" ".join(_WORD_POOL[rng.integers(len(_WORD_POOL),
                                                         size=rng.integers(3, 7))])
                        for _ in range(n)],
            emotions=[EMOTIONS[i] for i in rng.integers(len(EMOTIONS), size=n)],
            speakers=who,
            next_speaker=next_speaker,
            response=_RESPONSE_TEMPLATES[label].format(s=next_speaker),
            response_emotion=label,
            faces=faces,
            audios=audios,
        ))
    return records
