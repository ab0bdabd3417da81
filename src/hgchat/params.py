"""Named parameter registry, initialization, and checkpoint files.

A checkpoint (format ``HGNN-CKPT-4``) is one uncompressed ``.npz`` archive,
whatever the suffix of its path, with the members

- ``header``: UTF-8 JSON bytes (uint8) with ``magic``, ``config``,
  ``vocab``, ``roster``, ``adam_t`` and ``rng_state``, the
  ``bit_generator.state`` of the generator that shuffles the training
  corpus each epoch (null until the model has trained); dropout draws
  from generators keyed by the Adam step and batch position instead;
- ``param/<name>``: every tensor ``init_model_params`` makes for the
  config, float64, in its shape, laid out as the forward pass reads it;
- ``adam_m/<name>`` and ``adam_v/<name>``: Adam's moments of every tensor,
  float64, once the model has taken a step; before that, none;
- ``order``: the epoch order of the training corpus, once the model has
  trained.

Together they resume training exactly where it stopped. Every member is
stored uncompressed, as ``np.savez`` writes it. A checkpoint is untrusted
input: the reader refuses compressed members and object arrays (pickles).

Format 4 differs from format 3 only in the layout of four tensors, each
now stored as its reader takes it: the gate weight is ``dec.gate.wo``
(d x d) and ``dec.gate.wes`` (2d x d) where format 3 stacked them in one
3d x d ``dec.gate.w``; a hetero ``enc.gnn.l{L}.w`` is 5d x d, type τ in
row block τ, where it was d x 5d; ``enc.emotion_head.w`` is d x 7 and
``dec.out_proj.w`` d x V, where both were stored transposed.

Older format-4 configs also hold five settings that have since been
removed (``_REMOVED_SETTINGS``); the reader drops each one that holds the
value the model now always has, and refuses any other value.
"""
from __future__ import annotations

import io
import json
import math
import os
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .corpus import EMOTIONS, SpeakerRoster, Vocab
from .diffcore import Tensor
from .graph import NODE_TYPES

CHECKPOINT_MAGIC = "HGNN-CKPT-4"
_HEADER_KEYS = ("config", "vocab", "roster", "adam_t", "rng_state")
# removed config settings, each with the one reading the model kept
_REMOVED_SETTINGS = {"self_loops": True, "mask_orientation": "sender",
                     "normalize_adjacency": False, "detach_predicted_emotion": False,
                     "attention_residual": False}


def xavier_init(shape, rng: np.random.Generator) -> Tensor:
    """Uniform Xavier/Glorot init over a 2-D shape, drawn from ``rng``:
    ``init_model_params`` draws every matrix from one generator, seeded
    with ``cfg.seed``."""
    if len(shape) != 2:
        raise ValueError(f"xavier_init needs a 2-D shape, got {shape}")
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-bound, bound, size=shape))


class ModelParams:
    """Flat name -> tensor map, plus what resuming training needs: the Adam
    moment buffers and step count, the state of the generator that
    shuffles the epochs and the epoch order (None until the model has
    trained)."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_t: int = 0
        self.rng_state: dict | None = None
        self.order: np.ndarray | None = None

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = self._tensors[name] = Tensor(values, requires_grad=True, name=name)
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


def init_model_params(cfg: TrainConfig, vocab_size: int, roster_size: int) -> ModelParams:
    """Create every trainable tensor: Xavier for matrices, zeros for biases,
    every matrix drawn from one generator seeded with ``cfg.seed`` (another
    seed is another config: ``dataclasses.replace(cfg, seed=s)``).

    Every tensor is stored as the forward pass reads it. Attention
    ``wq``/``wk``/``wv`` are d_in x d, head h in columns h*d/H .. (h+1)*d/H;
    a hetero HGNN layer's ``w`` is 5d x d, type τ of ``NODE_TYPES`` in row
    block τ, and its ``b`` has a row per type. Each block is its own Xavier
    draw, per head wq, wk, wv, then per type. The gate's ``wo`` and ``wes``
    are the first d and the last 2d rows of one 3d x d draw, and
    ``enc.emotion_head.w`` (d x 7) and ``dec.out_proj.w`` (d x V) are the
    transposes of 7 x d and V x d draws.
    """
    rng = np.random.default_rng(cfg.seed)
    return _build_params(cfg, vocab_size, roster_size,
                         lambda rows, cols: xavier_init((rows, cols), rng).values)


def _build_params(cfg: TrainConfig, vocab_size: int, roster_size: int, draw) -> ModelParams:
    """The tensors of ``init_model_params``, each matrix block taken from
    ``draw(rows, cols)`` in draw order; the one layout of the parameters."""
    params = ModelParams()

    def mat(name, rows, cols):
        params.add(name, draw(rows, cols))

    def mat_t(name, rows, cols):  # a rows x cols draw, stored transposed
        params.add(name, draw(rows, cols).T)

    def bias(name, cols):
        params.add(name, np.zeros((1, cols)))

    d = cfg.d_model
    head_dim = d // cfg.heads

    def attention(prefix, d_in):
        draws = [draw(d_in, head_dim) for _ in range(3 * cfg.heads)]
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
                [draw(d, d) for _ in NODE_TYPES], axis=0))
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
    mat_t("enc.emotion_head.w", len(EMOTIONS), d)

    mat("dec.tok_emb", vocab_size, d)
    attention("dec.self_attn", d)
    attention("dec.cross_attn", d)
    mat("dec.ffn.w1", d, d)
    bias("dec.ffn.b1", d)
    mat("dec.ffn.w2", d, d)
    bias("dec.ffn.b2", d)
    w_o, w_es = np.split(draw(3 * d, d), [d])
    params.add("dec.gate.wo", w_o)
    params.add("dec.gate.wes", w_es)
    bias("dec.gate.b", d)
    mat_t("dec.out_proj.w", vocab_size, d)
    return params


def save_checkpoint(path: str | Path, params: ModelParams, cfg: TrainConfig,
                    vocab: Vocab, roster: SpeakerRoster) -> None:
    """Write beside ``path``, flush to disk, then rename: a failed or
    interrupted save leaves the old file."""
    header = {"magic": CHECKPOINT_MAGIC, "config": cfg.to_dict(), "vocab": vocab.tokens,
              "roster": roster.names, "adam_t": params.adam_t, "rng_state": params.rng_state}
    members = {"header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    members.update((f"param/{name}", t.values) for name, t in params.items())
    members.update((f"adam_m/{name}", m) for name, m in params.adam_m.items())
    members.update((f"adam_v/{name}", v) for name, v in params.adam_v.items())
    if params.order is not None:
        members["order"] = params.order
    archive = io.BytesIO()  # built in memory, written with one call
    np.savez(archive, **members)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(archive.getbuffer())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# a zip member's local header: signature, then at byte 26 its name and extra lengths
_LOCAL_HEADER = struct.Struct("<4s22xHH")


def _read_members(path) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at ``path``, pickles refused.

    ``np.savez`` stores its members uncompressed, so each is read as a slice
    of the file, and each distinct ``.npy`` header is parsed once.
    ``np.load`` opens every member twice and parses every header anew, five
    times as long for a trained model's 159 tensors. A compressed member is
    refused, so a small file cannot inflate to a large one in memory."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            infos = archive.infolist()
    except (zipfile.BadZipFile, ValueError, EOFError, NotImplementedError):
        # NotImplementedError: a zip version or feature zipfile does not read
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint") from None
    headers: dict[bytes, tuple] = {}
    members = {}
    for info in infos:
        name = info.filename.removesuffix(".npy")
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"{path}: checkpoint member {name!r} is compressed; "
                             f"{CHECKPOINT_MAGIC} stores every member as it is")
        try:
            value = _stored_array(data, info, headers)
        except (ValueError, struct.error):
            value = None
        if value is None:
            raise ValueError(f"{path}: checkpoint member {name!r} is not a readable array")
        members[name] = value
    return members


def _stored_array(data: bytes, info: zipfile.ZipInfo, headers: dict) -> np.ndarray | None:
    """The ``.npy`` array of the stored member ``info`` of the archive
    ``data``, copied out; None if the bytes are not one."""
    signature, name_len, extra_len = _LOCAL_HEADER.unpack_from(data, info.header_offset)
    start = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
    raw = memoryview(data)[start:start + info.file_size]
    if (signature != b"PK\x03\x04" or len(raw) != info.file_size
            or zlib.crc32(raw) != info.CRC or bytes(raw[:8]) != b"\x93NUMPY\x01\x00"):
        return None  # not a member, damaged, or not a version 1.0 .npy as np.savez writes
    offset = 10 + int.from_bytes(raw[8:10], "little")
    key = bytes(raw[:offset])
    if key not in headers:
        fp = io.BytesIO(key)
        np.lib.format.read_magic(fp)
        headers[key] = np.lib.format.read_array_header_1_0(fp)
    shape, fortran_order, dtype = headers[key]
    count = math.prod(shape)
    if dtype.hasobject or len(raw) != offset + count * dtype.itemsize:
        return None  # a pickle, or the wrong number of bytes
    values = np.frombuffer(raw, dtype, count, offset)
    return values.reshape(shape, order="F" if fortran_order else "C").copy()


def _read_header(path, header: np.ndarray | None) -> dict:
    fields = None
    if header is not None and header.dtype == np.uint8 and header.ndim == 1:
        try:
            fields = json.loads(header.tobytes().decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            pass
    if not isinstance(fields, dict) or fields.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    missing = [key for key in _HEADER_KEYS if key not in fields]
    if missing:
        raise ValueError(f"{path}: checkpoint is missing {', '.join(map(repr, missing))}")
    if not isinstance(fields["config"], dict):
        raise ValueError(f"{path}: checkpoint 'config' must map settings to values")
    for key in ("vocab", "roster"):
        if not (isinstance(fields[key], list) and all(isinstance(s, str) for s in fields[key])):
            raise ValueError(f"{path}: checkpoint {key!r} must be a list of strings")
    adam_t = fields["adam_t"]
    if not (isinstance(adam_t, int) and not isinstance(adam_t, bool) and adam_t >= 0):
        raise ValueError(f"{path}: checkpoint 'adam_t' must be a non-negative integer")
    if fields["rng_state"] is not None:
        try:
            np.random.default_rng(0).bit_generator.state = fields["rng_state"]
        except (TypeError, ValueError, KeyError, OverflowError):
            raise ValueError(f"{path}: checkpoint 'rng_state' is not a generator state "
                             f"of numpy's default_rng") from None
    return fields


def load_checkpoint(path: str | Path) -> tuple[ModelParams, TrainConfig, Vocab, SpeakerRoster]:
    """Read a checkpoint; ``ValueError`` names any header field, member or
    tensor that differs from what ``save_checkpoint`` writes: tensors by
    name, shape and dtype against what ``init_model_params`` makes for
    the stored config."""
    members = _read_members(path)
    fields = _read_header(path, members.pop("header", None))
    config = dict(fields["config"])
    for key, kept in _REMOVED_SETTINGS.items():
        value = config.pop(key, kept)
        if value != kept or type(value) is not type(kept):
            raise ValueError(f"{path}: checkpoint setting {key!r} is {value!r}, but the "
                             f"model now always has {key} = {kept!r}")
    try:
        cfg = TrainConfig.from_dict(config)
    except (ValueError, TypeError) as exc:  # a ConfigError would read as a usage error
        raise ValueError(f"{path}: checkpoint 'config' is not a valid configuration: "
                         f"{exc}") from None
    vocab = Vocab(fields["vocab"])
    roster = SpeakerRoster(fields["roster"])
    # zeros for values: the stored values replace them, so a draw would be wasted
    layout = _build_params(cfg, vocab.size, roster.size, lambda rows, cols: np.zeros((rows, cols)))
    order = members.pop("order", None)
    stored: dict[str, dict[str, np.ndarray]] = {"param": {}, "adam_m": {}, "adam_v": {}}
    for member, values in members.items():
        group, _, name = member.partition("/")
        if group not in stored:
            raise ValueError(f"{path}: member {member!r} is not part of a "
                             f"{CHECKPOINT_MAGIC} checkpoint")
        if name not in layout:
            raise ValueError(f"{path}: tensor {name!r} is not a parameter of its config")
        stored[group][name] = values
    # Adam's moments come as a pair, for every tensor or for none
    groups = ("param", "adam_m", "adam_v") if stored["adam_m"] or stored["adam_v"] else ("param",)
    for group in groups:
        for name, want in layout.items():
            values = stored[group].get(name)
            if values is not None and values.dtype == np.float64 and values.shape == want.shape:
                continue
            what = f"tensor {name!r}" if group == "param" else f"{group} of tensor {name!r}"
            if values is None:
                raise ValueError(f"{path}: checkpoint is missing {what}")
            raise ValueError(f"{path}: {what} is {values.dtype} of shape "
                             f"{list(values.shape)}; its config needs float64 of shape "
                             f"{list(want.shape)}")
    if order is not None and not (order.ndim == 1 and order.dtype.kind == "i" and np.array_equal(
            np.sort(order), np.arange(order.size))):
        raise ValueError(f"{path}: checkpoint 'order' must be a permutation of 0 .. n-1")
    if (order is None) != (fields["rng_state"] is None):
        raise ValueError(f"{path}: checkpoint 'rng_state' and 'order' are stored together "
                         f"or not at all")
    params = layout  # its initial values give way to the stored ones
    for name, t in params.items():
        t.values = stored["param"][name]
    params.adam_m, params.adam_v = stored["adam_m"], stored["adam_v"]
    params.adam_t, params.rng_state, params.order = fields["adam_t"], fields["rng_state"], order
    return params, cfg, vocab, roster
