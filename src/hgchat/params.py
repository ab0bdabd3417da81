"""Named parameter registry, initialization, and checkpoint files."""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .corpus import EMOTIONS, SpeakerRoster, Vocab
from .diffcore import Tensor
from .graph import NODE_TYPES

CHECKPOINT_MAGIC = "HGNN-CKPT-2"


def xavier_init(shape, seed) -> Tensor:
    """Uniform Xavier/Glorot init over a 2-D shape; seeded and repeatable."""
    if len(shape) != 2:
        raise ValueError(f"xavier_init needs a 2-D shape, got {shape}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-bound, bound, size=shape))


class ModelParams:
    """Flat name -> tensor map, plus per-entry Adam moment buffers."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_t: int = 0

    def add(self, name: str, values) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = values if isinstance(values, Tensor) else Tensor(values)
        t.requires_grad = True
        if t.grad is None:
            t.grad = np.zeros_like(t.values)
        t.name = name
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self):
        return self._tensors.keys()

    def items(self):
        return self._tensors.items()

    def values(self):
        return self._tensors.values()

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()

    def n_entries(self) -> int:
        return sum(t.values.size for t in self._tensors.values())


def init_model_params(cfg: TrainConfig, vocab_size: int, roster_size: int,
                      seed: int | None = None) -> ModelParams:
    """Create every trainable tensor: Xavier for matrices, zeros for biases.

    Attention ``wq``/``wk``/``wv`` are d_in x d, head h in columns
    h*d/H .. (h+1)*d/H; a hetero HGNN layer's ``w`` is d x 5d, type τ of
    ``NODE_TYPES`` in column block τ, and its ``b`` has a row per type.
    Each block is its own Xavier draw, per head wq, wk, wv, then per type.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    params = ModelParams()

    def mat(name, rows, cols):
        params.add(name, xavier_init((rows, cols), rng))

    def bias(name, cols):
        params.add(name, np.zeros((1, cols)))

    d = cfg.d_model
    head_dim = d // cfg.heads

    def attention(prefix, d_in):
        draws = [xavier_init((d_in, head_dim), rng).values for _ in range(3 * cfg.heads)]
        for p, proj in enumerate(("wq", "wk", "wv")):
            params.add(f"{prefix}.{proj}", np.concatenate(draws[p::3], axis=1))
        mat(f"{prefix}.wo", d, d)

    mat("enc.word_emb", vocab_size, cfg.d_word)
    mat("enc.pe", cfg.max_turns, cfg.d_pe)
    for gate in ("i", "f", "o", "c"):
        mat(f"enc.lstm.w{gate}", cfg.d_word, cfg.d_hidden)
        mat(f"enc.lstm.u{gate}", cfg.d_hidden, cfg.d_hidden)
        bias(f"enc.lstm.b{gate}", cfg.d_hidden)
    attention("enc.ctx_attn", cfg.d_hidden + cfg.d_pe)
    for which, raw in (("face", cfg.face_dim), ("audio", cfg.audio_dim)):
        mat(f"enc.{which}_ffn.w1", raw, d)
        bias(f"enc.{which}_ffn.b1", d)
        mat(f"enc.{which}_ffn.w2", d, d)
        bias(f"enc.{which}_ffn.b2", d)
    mat("enc.emotion_emb", len(EMOTIONS), d)
    mat("enc.speaker_emb", roster_size, d)
    for layer in range(cfg.gnn_layers):
        if cfg.gnn_mode == "hetero":
            params.add(f"enc.gnn.l{layer}.w", np.concatenate(
                [xavier_init((d, d), rng).values for _ in NODE_TYPES], axis=1))
            # five bias rows, summed in the forward pass: one row would get
            # their summed gradient, which Adam rescales, so its steps differ
            params.add(f"enc.gnn.l{layer}.b", np.zeros((len(NODE_TYPES), d)))
        else:
            mat(f"enc.gnn.l{layer}.w", d, d)
            bias(f"enc.gnn.l{layer}.b", d)
    mat("enc.out_ffn.w1", d, d)
    bias("enc.out_ffn.b1", d)
    mat("enc.out_ffn.w2", d, d)
    bias("enc.out_ffn.b2", d)
    mat("enc.emotion_head.w", len(EMOTIONS), d)

    mat("dec.tok_emb", vocab_size, d)
    attention("dec.self_attn", d)
    attention("dec.cross_attn", d)
    mat("dec.ffn.w1", d, d)
    bias("dec.ffn.b1", d)
    mat("dec.ffn.w2", d, d)
    bias("dec.ffn.b2", d)
    mat("dec.gate.w", 3 * d, d)
    bias("dec.gate.b", d)
    mat("dec.out_proj.w", vocab_size, d)
    return params


def save_checkpoint(path: str | Path, params: ModelParams, cfg: TrainConfig,
                    vocab: Vocab, roster: SpeakerRoster) -> None:
    """Write beside ``path``, then rename: a failed save leaves the old file."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "config": cfg.to_dict(),
        "vocab": vocab.tokens,
        "roster": roster.names,
        "params": {
            name: {"shape": list(t.values.shape), "values": t.values.reshape(-1).tolist()}
            for name, t in params.items()
        },
    }
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[ModelParams, TrainConfig, Vocab, SpeakerRoster]:
    """Read a checkpoint; ``ValueError`` names any tensor whose name or
    shape differs from what ``init_model_params`` makes for its config."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    missing = [key for key in ("config", "vocab", "roster", "params") if key not in payload]
    if missing:
        raise ValueError(f"{path}: checkpoint is missing {', '.join(map(repr, missing))}")
    for key in ("vocab", "roster"):
        if not (isinstance(payload[key], list) and all(isinstance(s, str) for s in payload[key])):
            raise ValueError(f"{path}: checkpoint {key!r} must be a list of strings")
    cfg = TrainConfig.from_dict(payload["config"])
    vocab = Vocab(payload["vocab"])
    roster = SpeakerRoster(payload["roster"])
    stored = payload["params"]
    if not isinstance(stored, dict):
        raise ValueError(f"{path}: checkpoint 'params' must map names to tensors")
    layout = init_model_params(cfg, vocab.size, roster.size)
    for name in stored:
        if name not in layout:
            raise ValueError(f"{path}: tensor {name!r} is not a parameter of its config")
    params = ModelParams()
    for name, want in layout.items():
        entry = stored.get(name)
        if entry is None:
            raise ValueError(f"{path}: checkpoint is missing tensor {name!r}")
        if not isinstance(entry, dict) or not {"shape", "values"} <= entry.keys():
            raise ValueError(f"{path}: tensor {name!r} needs 'shape' and 'values'")
        values = np.array(entry["values"], dtype=np.float64)
        if entry["shape"] != list(want.shape) or values.shape != (want.values.size,):
            raise ValueError(f"{path}: tensor {name!r} has shape {entry['shape']} and "
                             f"{values.size} values; its config needs {list(want.shape)}")
        params.add(name, values.reshape(want.shape))
    return params, cfg, vocab, roster
