"""End-to-end wiring of one dialogue through encoder, predictor, and decoder."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .corpus import (EMOTION_INDEX, EMOTIONS, EOS, DialogueRecord,
                     SpeakerRoster, Vocab, tokenize)
from .decoder import generate_ids, greedy_many, lockstep_groups, sequence_nll
from .diffcore import Tensor, add, dropout, matmul, neg_pick, row_lookup, scale
from .encoder import assemble_node_features, hgnn_forward, predict_emotion
from .graph import build_hetero_graph
from .layers import Drop
from .params import ModelParams, load_checkpoint, save_checkpoint


@dataclass
class Encoded:
    h_enc: Tensor
    p: Tensor  # 1x7 emotion distribution


@dataclass
class LossOut:
    joint: Tensor
    mll: Tensor
    cls: Tensor
    predicted_emotion: str


@dataclass
class Model:
    cfg: TrainConfig
    params: ModelParams
    vocab: Vocab
    roster: SpeakerRoster

    def encode(self, record: DialogueRecord, drop: Drop | None = None) -> Encoded:
        """Encoder node states and emotion distribution of one dialogue;
        raises ``RecordError`` for a record this model cannot take."""
        record.validate(self.cfg.max_turns, self.cfg.face_dim, self.cfg.audio_dim)
        graph = build_hetero_graph(record, ablate=self.cfg.ablate)
        h0 = assemble_node_features(record, graph, self.params, self.vocab,
                                    self.roster, self.cfg, drop)
        h_enc = hgnn_forward(graph, h0, self.params, self.cfg, drop)
        return Encoded(h_enc, predict_emotion(h_enc, self.params))

    def decoder_emotion(self, encoded: Encoded, record: DialogueRecord) -> Tensor:
        """The distribution the decoder mixes with: the predicted one, through
        which the generation loss reaches the predictor, or the one-hot gold
        label in golden-emotion mode."""
        if self.cfg.golden_emotion:
            one_hot = np.zeros((1, len(EMOTIONS)))
            one_hot[0, EMOTION_INDEX[record.response_emotion]] = 1.0
            return Tensor(one_hot)
        return encoded.p

    def mix_inputs(self, encoded: Encoded, record: DialogueRecord,
                   next_speaker: str | None = None) -> tuple[Tensor, Tensor]:
        """The decoder's emotion row, the emotion table's rows mixed by
        ``decoder_emotion`` (1x7 @ 7xd), and the responding speaker's row."""
        e_p = matmul(self.decoder_emotion(encoded, record), self.params["enc.emotion_emb"])
        speaker = next_speaker if next_speaker is not None else record.next_speaker
        s_p = row_lookup(self.params["enc.speaker_emb"], [self.roster.id_of(speaker)])
        return e_p, s_p

    def response_target_ids(self, record: DialogueRecord) -> list[int]:
        return self.vocab.encode(tokenize(record.response)[:self.cfg.max_len - 1]) + [EOS]

    def losses(self, record: DialogueRecord, rng: np.random.Generator | None = None) -> LossOut:
        """The joint, generation and classification losses of one dialogue,
        and its predicted emotion. Given ``rng`` the pass trains: dropout at
        ``cfg.dropout`` draws its masks from ``rng``. Without it, the pass
        runs no dropout."""
        drop = None if rng is None else functools.partial(dropout, rate=self.cfg.dropout, rng=rng)
        encoded = self.encode(record, drop)
        e_p, s_p = self.mix_inputs(encoded, record)
        mll = sequence_nll(self.response_target_ids(record), encoded.h_enc,
                           e_p, s_p, self.params, self.cfg, drop)
        cls = neg_pick(encoded.p, [EMOTION_INDEX[record.response_emotion]])
        joint = add(scale(mll, 1.0 - self.cfg.lam), scale(cls, self.cfg.lam))
        predicted = EMOTIONS[int(np.argmax(encoded.p.values))]
        return LossOut(joint, mll, cls, predicted)

    def sequence_stats(self, record: DialogueRecord) -> tuple[float, int]:
        """Teacher-forced NLL of the gold response and its token count
        (EOS included); used by perplexity."""
        encoded = self.encode(record)
        e_p, s_p = self.mix_inputs(encoded, record)
        target = self.response_target_ids(record)
        nll = sequence_nll(target, encoded.h_enc, e_p, s_p, self.params, self.cfg)
        return nll.item(), len(target)

    def predict_label(self, record: DialogueRecord) -> str:
        encoded = self.encode(record)
        return EMOTIONS[int(np.argmax(encoded.p.values))]

    def generate(self, record: DialogueRecord, strategy: str = "greedy",
                 beam_width: int = 1, next_speaker: str | None = None
                 ) -> tuple[list[str], bool]:
        """Decode a response; returns (tokens, hit-length-cap flag)."""
        encoded = self.encode(record)
        e_p, s_p = self.mix_inputs(encoded, record, next_speaker)
        ids, truncated = generate_ids(encoded.h_enc, e_p, s_p, self.params,
                                      self.cfg, strategy, beam_width)
        return self.vocab.decode(ids), truncated

    def generate_many(self, records: list[DialogueRecord], next_speaker: str | None = None
                      ) -> list[tuple[list[str], bool]]:
        """Greedy responses of ``records``, in order, as ``generate`` makes
        them; each of their ``lockstep_groups`` decodes in one search."""
        out = []
        for members in lockstep_groups(records):
            group = []
            for record in members:
                encoded = self.encode(record)
                group.append((encoded.h_enc, *self.mix_inputs(encoded, record, next_speaker)))
            out += [(self.vocab.decode(ids), truncated)
                    for ids, truncated in greedy_many(group, self.params, self.cfg)]
        return out

    def save(self, path) -> None:
        save_checkpoint(path, self.params, self.cfg, self.vocab, self.roster)

    @classmethod
    def load(cls, path) -> "Model":
        params, cfg, vocab, roster = load_checkpoint(path)
        return cls(cfg, params, vocab, roster)
