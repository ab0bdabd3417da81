"""Joint optimization of the generation and classification losses."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .corpus import DialogueRecord, RecordError, build_roster, build_vocab
from .diffcore import NumericalError, backward, recording
from .model import Model
from .params import ModelParams, init_model_params

__all__ = ["EpochStats", "TrainResult", "adam_step", "train"]

log = logging.getLogger(__name__)


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              cfg: TrainConfig, t: int) -> None:
    """Bias-corrected Adam update, in place on the parameter value buffers."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.learning_rate
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.values)
        elif not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name}; step aborted")
        m = params.adam_m.setdefault(name, np.zeros_like(tensor.values))
        v = params.adam_v.setdefault(name, np.zeros_like(tensor.values))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        tensor.values -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class EpochStats:
    epoch: int
    joint: float
    mll: float
    cls: float
    emotion_acc: float
    skipped: int

    def line(self) -> str:
        return (f"epoch {self.epoch:4d}  joint {self.joint:.4f}  "
                f"gen {self.mll:.4f}  cls {self.cls:.4f}  "
                f"emo-acc {self.emotion_acc:.3f}  skipped {self.skipped}")


@dataclass
class TrainResult:
    model: Model
    log: list[EpochStats]


def train(records: list[DialogueRecord], cfg: TrainConfig,
          model: Model | None = None, log_fn=None,
          checkpoint_path=None) -> TrainResult:
    """Minibatch training loop; dialogues are processed one graph at a
    time and the batch gradient is the per-dialogue average.

    Pass a previous result's model, or one read back from its checkpoint,
    to continue training on the same records: it goes on from the stored
    generator state and epoch order, so the run equals one uninterrupted
    run of all the epochs. A model without that state seeds its generator
    with ``cfg.seed + adam_t`` and starts from the records in file order.
    The epoch count always comes from ``cfg.epochs``. Records that fail
    validation are logged once, before epoch 1, and skipped in every epoch.
    """
    if not records:
        raise ValueError("training corpus is empty")
    if model is None:
        vocab = build_vocab(records, cfg.min_count)
        roster = build_roster(records, cfg.z_speakers)
        params = init_model_params(cfg, vocab.size, roster.size)
        model = Model(cfg, params, vocab, roster)
    params = model.params
    rng = np.random.default_rng(cfg.seed + params.adam_t)
    order = np.arange(len(records))
    if params.order is not None:
        if len(params.order) != len(records):
            raise ValueError(f"the model's stored epoch order covers {len(params.order)} "
                             f"records, but the corpus has {len(records)}")
        rng.bit_generator.state = params.rng_state
        order = params.order.copy()
    history: list[EpochStats] = []
    bad: set[int] = set()
    for idx, rec in enumerate(records):
        try:
            rec.validate(cfg.max_turns)
        except RecordError as exc:
            bad.add(idx)
            log.warning("skipping record %d: %s", idx, exc)

    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        totals = np.zeros(3)
        hits = 0
        seen = 0
        skipped = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            params.zero_grads()
            n_ok = 0
            for idx in batch:
                if idx in bad:
                    skipped += 1
                    continue
                rec = records[idx]
                with recording():
                    out = model.losses(rec, training=True, rng=rng)
                    value = out.joint.item()
                    if not np.isfinite(value):
                        raise NumericalError(f"non-finite loss on record {idx}")
                    backward(out.joint)
                totals += (value, out.mll.item(), out.cls.item())
                hits += out.predicted_emotion == rec.response_emotion
                seen += 1
                n_ok += 1
            if n_ok == 0:
                continue
            grads = {name: t.grad / n_ok for name, t in params.items()}
            params.adam_t += 1
            adam_step(params, grads, cfg, params.adam_t)
        if seen == 0:
            raise ValueError("no valid records in the training corpus")
        params.rng_state, params.order = rng.bit_generator.state, order.copy()
        stats = EpochStats(epoch, *(totals / seen), hits / seen, skipped)
        history.append(stats)
        if log_fn is not None:
            log_fn(stats)
    if checkpoint_path:
        model.save(checkpoint_path)
    return TrainResult(model, history)
