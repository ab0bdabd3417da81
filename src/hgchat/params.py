"""Named parameter registry, initialization, and checkpoint files.

A checkpoint (format ``HGNN-CKPT-6``) is one uncompressed ``.npz`` archive,
whatever the suffix of its path, with the members

- ``header``: UTF-8 JSON bytes (uint8) with ``magic``, ``config``,
  ``vocab``, ``roster`` and ``adam_t``, the Adam step count;
- ``param``: the values of every tensor in one 1-D float64 buffer, in the
  layout that ``_layout`` gives the stored config, each tensor's entries
  in the row-major order of the shape the forward pass reads;
- ``adam_m`` and ``adam_v``: Adam's moments in the same layout, once the
  model has taken a step (``adam_t`` > 0); before that, none.

Together they resume training exactly where it stopped: ``training.train``
keys each epoch's shuffle and every dropout mask by the seed and the step
count, so no generator state is stored. Every member is
stored uncompressed, as ``np.savez`` writes it. A checkpoint is untrusted
input: the reader refuses compressed members and object arrays (pickles),
and checks each buffer's length against the layout of its config. Formats
1-5 are refused by their magic: 1-4 stored a member per tensor, and 5 the
shuffle generator's state and epoch order.
"""
from __future__ import annotations

import io
import json
import math
import os
import zipfile
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .corpus import EMOTIONS, RESERVED_TOKENS, UNK_SPEAKER, SpeakerRoster, Vocab
from .diffcore import Tensor
from .graph import NODE_TYPES

CHECKPOINT_MAGIC = "HGNN-CKPT-6"
_HEADER_KEYS = ("config", "vocab", "roster", "adam_t")
# the buffers of a packed ModelParams, each in its layout
_BUFFERS = ("flat", "flat_grad", "adam_m", "adam_v")


def xavier_init(shape, rng: np.random.Generator) -> Tensor:
    """Uniform Xavier/Glorot init over a 2-D shape, drawn from ``rng``:
    ``init_model_params`` draws every matrix from one generator, seeded
    with ``cfg.seed``."""
    if len(shape) != 2:
        raise ValueError(f"xavier_init needs a 2-D shape, got {shape}")
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-bound, bound, size=shape))


class ModelParams:
    """Name -> tensor map over flat float64 buffers, plus the Adam step
    count, which is all that resuming training needs beside them.

    The buffers ``flat`` (values), ``flat_grad``, ``adam_m`` and ``adam_v``
    each hold every tensor's entries, tensor by tensor in the order they
    were added, and every tensor's ``values`` and ``grad`` are views of its
    slices of ``flat`` and ``flat_grad``. Tensors may be added one by one
    with ``add``: the first read of a buffer packs them into the buffers,
    with zero gradients and moments, and ``add`` is refused from then on.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.adam_t: int = 0

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if "flat" in vars(self):
            raise ValueError(f"cannot add {name!r}: the parameters are packed")
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = self._tensors[name] = Tensor(values, requires_grad=True, name=name)
        return t

    def __getattr__(self, name: str):
        # only before the first read of a buffer: pack the tensors added so far
        if name not in _BUFFERS:
            raise AttributeError(name)
        self._pack(np.concatenate([t.values.ravel() for t in self._tensors.values()]))
        return vars(self)[name]

    def _pack(self, flat: np.ndarray, adam_m=None, adam_v=None) -> None:
        """Take ``flat`` as the tensors' values, in order, with zero gradients
        and the moments ``adam_m`` and ``adam_v``, zeros where None."""
        self.flat_grad = np.zeros(flat.size)
        self.adam_m = np.zeros(flat.size) if adam_m is None else adam_m
        self.adam_v = np.zeros(flat.size) if adam_v is None else adam_v
        self._ends = np.cumsum([t.values.size for t in self._tensors.values()])
        for t, grad in zip(self._tensors.values(), np.split(self.flat_grad, self._ends[:-1])):
            t.grad = grad.reshape(t.shape)
        self._place(flat)

    def _place(self, flat: np.ndarray) -> None:
        """Make ``flat`` the values buffer: each tensor's values become a
        view of its slice."""
        for t, values in zip(self._tensors.values(), np.split(flat, self._ends[:-1])):
            t.values = values.reshape(t.shape)
        self.flat = flat

    def name_at(self, index: int) -> str:
        """The name of the tensor that holds entry ``index`` of the buffers."""
        return list(self._tensors)[int(np.searchsorted(self._ends, index, side="right"))]

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self):
        return self._tensors.keys()

    def items(self):
        return self._tensors.items()

    def values(self):
        return self._tensors.values()

    def zero_grads(self) -> None:
        self.flat_grad.fill(0.0)


def _layout(cfg: TrainConfig, vocab_size: int, roster_size: int) -> list[tuple[str, tuple]]:
    """Every tensor's name and shape, in buffer order, each shaped as the
    forward pass reads it: the one layout of the parameters. Attention
    ``wq``/``wk``/``wv`` are d_in x d, head h in columns h*d/H .. (h+1)*d/H;
    a hetero HGNN layer's ``w`` is 5d x d, type τ of ``NODE_TYPES`` in row
    block τ, and its ``b`` has a row per type: one row would get their summed
    gradient, which Adam rescales, so its steps would differ."""
    d, hidden = cfg.d_model, cfg.d_hidden
    layout = [("enc.word_emb", (vocab_size, cfg.d_word)), ("enc.pe", (cfg.max_turns, cfg.d_pe))]

    def attention(prefix, d_in):
        layout.extend([(f"{prefix}.wq", (d_in, d)), (f"{prefix}.wk", (d_in, d)),
                       (f"{prefix}.wv", (d_in, d)), (f"{prefix}.wo", (d, d))])

    def ffn(prefix, d_in):
        layout.extend([(f"{prefix}.w1", (d_in, d)), (f"{prefix}.b1", (1, d)),
                       (f"{prefix}.w2", (d, d)), (f"{prefix}.b2", (1, d))])

    for gate in "ifoc":
        layout.extend([(f"enc.lstm.w{gate}", (cfg.d_word, hidden)),
                       (f"enc.lstm.u{gate}", (hidden, hidden)), (f"enc.lstm.b{gate}", (1, hidden))])
    attention("enc.ctx_attn", hidden + cfg.d_pe)
    ffn("enc.face_ffn", cfg.face_dim)
    ffn("enc.audio_ffn", cfg.audio_dim)
    layout.extend([("enc.emotion_emb", (len(EMOTIONS), d)), ("enc.speaker_emb", (roster_size, d))])
    types = len(NODE_TYPES) if cfg.gnn_mode == "hetero" else 1
    for layer in range(cfg.gnn_layers):
        layout.extend([(f"enc.gnn.l{layer}.w", (types * d, d)),
                       (f"enc.gnn.l{layer}.b", (types, d))])
    ffn("enc.out_ffn", d)
    layout.extend([("enc.emotion_head.w", (d, len(EMOTIONS))), ("dec.tok_emb", (vocab_size, d))])
    attention("dec.self_attn", d)
    attention("dec.cross_attn", d)
    ffn("dec.ffn", d)
    layout.extend([("dec.gate.wo", (d, d)), ("dec.gate.wes", (2 * d, d)), ("dec.gate.b", (1, d)),
                   ("dec.out_proj.w", (d, vocab_size))])
    return layout


def _packed(layout: list[tuple[str, tuple]], flat: np.ndarray,
            adam_m=None, adam_v=None) -> ModelParams:
    """The tensors of ``layout`` over the values buffer ``flat``, with the
    moments ``adam_m`` and ``adam_v`` (zeros where None)."""
    params = ModelParams()
    for name, shape in layout:
        params._tensors[name] = Tensor(np.empty(shape), name=name)  # placed on flat by _pack
    params._pack(flat, adam_m, adam_v)
    return params


def init_model_params(cfg: TrainConfig, vocab_size: int, roster_size: int) -> ModelParams:
    """Create every trainable tensor of ``_layout``: Xavier for matrices,
    zeros for biases, every matrix drawn from one generator seeded with
    ``cfg.seed`` (another seed is another config: ``dataclasses.replace``).
    Each head's wq, wk and wv block is its own draw, head by head, as is each
    type's block of a hetero HGNN weight. The gate's ``wo`` and ``wes`` are
    the first d and the last 2d rows of one 3d x d draw, and
    ``enc.emotion_head.w`` and ``dec.out_proj.w`` the transposes of 7 x d and
    V x d draws."""
    rng = np.random.default_rng(cfg.seed)
    layout = _layout(cfg, vocab_size, roster_size)
    params = _packed(layout, np.zeros(sum(math.prod(shape) for _, shape in layout)))
    w = {name: t.values for name, t in params.items()}
    d, head_dim = cfg.d_model, cfg.d_model // cfg.heads

    def draw(rows, cols):
        return xavier_init((rows, cols), rng).values

    def mat(*names):
        for name in names:
            w[name][...] = draw(*w[name].shape)

    def attention(prefix):
        projections = [w[f"{prefix}.{proj}"] for proj in ("wq", "wk", "wv")]
        for head in range(cfg.heads):
            for proj in projections:
                proj[:, head * head_dim:(head + 1) * head_dim] = draw(len(proj), head_dim)
        mat(f"{prefix}.wo")

    mat("enc.word_emb", "enc.pe")
    for gate in "ifoc":
        mat(f"enc.lstm.w{gate}", f"enc.lstm.u{gate}")
    attention("enc.ctx_attn")
    for which in ("face", "audio"):
        mat(f"enc.{which}_ffn.w1", f"enc.{which}_ffn.w2")
    mat("enc.emotion_emb", "enc.speaker_emb")
    for layer in range(cfg.gnn_layers):  # a d x d block per node type, a bias row each
        for block in np.split(w[f"enc.gnn.l{layer}.w"], len(w[f"enc.gnn.l{layer}.b"])):
            block[...] = draw(d, d)
    mat("enc.out_ffn.w1", "enc.out_ffn.w2")
    w["enc.emotion_head.w"][...] = draw(len(EMOTIONS), d).T
    mat("dec.tok_emb")
    attention("dec.self_attn")
    attention("dec.cross_attn")
    mat("dec.ffn.w1", "dec.ffn.w2")
    w["dec.gate.wo"][...], w["dec.gate.wes"][...] = np.split(draw(3 * d, d), [d])
    w["dec.out_proj.w"][...] = draw(vocab_size, d).T
    return params


def save_checkpoint(path: str | Path, params: ModelParams, cfg: TrainConfig,
                    vocab: Vocab, roster: SpeakerRoster) -> None:
    """Write beside ``path``, flush to disk, then rename: a failed or
    interrupted save leaves the old file."""
    header = {"magic": CHECKPOINT_MAGIC, "config": cfg.to_dict(), "vocab": vocab.tokens,
              "roster": roster.names, "adam_t": params.adam_t}
    members = {"header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
               "param": params.flat}
    if params.adam_t:
        members.update(adam_m=params.adam_m, adam_v=params.adam_v)
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


def _read_members(path) -> dict[str, np.ndarray]:
    """Every member of the ``.npz`` archive at ``path``, each read whole and
    copied out once. A compressed member is refused, so a small file cannot
    inflate to a large one in memory, and so is one whose bytes fail the
    zip CRC or are not a ``.npy`` array of plain values."""
    try:
        archive = zipfile.ZipFile(path)
    except (zipfile.BadZipFile, ValueError, EOFError, NotImplementedError):
        # NotImplementedError: a zip version or feature zipfile does not read
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint") from None
    members = {}
    with archive:
        for info in archive.infolist():
            name = info.filename.removesuffix(".npy")
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{path}: checkpoint member {name!r} is compressed; "
                                 f"{CHECKPOINT_MAGIC} stores every member as it is")
            try:
                value = _stored_array(archive.read(info))
            except (zipfile.BadZipFile, ValueError, EOFError, RuntimeError, NotImplementedError):
                value = None  # RuntimeError: an encrypted member
            if value is None:
                raise ValueError(f"{path}: checkpoint member {name!r} is not a readable array")
            members[name] = value
    return members


def _stored_array(raw: bytes) -> np.ndarray | None:
    """The array of the ``.npy`` bytes ``raw``, copied out; None if they are
    not a C-ordered version 1.0 ``.npy`` of exactly their length, as
    ``np.savez`` writes it, or hold a pickle."""
    fp = io.BytesIO(raw)
    if np.lib.format.read_magic(fp) != (1, 0):
        return None
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fp)
    count = math.prod(shape)
    if fortran_order or dtype.hasobject or len(raw) != fp.tell() + count * dtype.itemsize:
        return None
    return np.frombuffer(raw, dtype, count, fp.tell()).reshape(shape).copy()


def _read_header(path, header: np.ndarray | None) -> dict:
    fields = None
    if header is not None and header.dtype == np.uint8 and header.ndim == 1:
        try:
            fields = json.loads(header.tobytes().decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            pass
    magic = fields.get("magic") if isinstance(fields, dict) else None
    if magic != CHECKPOINT_MAGIC:
        older = f"; {magic} is an older format" if str(magic).startswith("HGNN-CKPT-") else ""
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint{older}")
    missing = [key for key in _HEADER_KEYS if key not in fields]
    if missing:
        raise ValueError(f"{path}: checkpoint is missing {', '.join(map(repr, missing))}")
    if not isinstance(fields["config"], dict):
        raise ValueError(f"{path}: checkpoint 'config' must map settings to values")
    for key, reserved in (("vocab", RESERVED_TOKENS), ("roster", (UNK_SPEAKER,))):
        if not (isinstance(fields[key], list) and all(isinstance(s, str) for s in fields[key])):
            raise ValueError(f"{path}: checkpoint {key!r} must be a list of strings")
        if tuple(fields[key][:len(reserved)]) != reserved:
            raise ValueError(f"{path}: checkpoint {key!r} must start with {list(reserved)}")
    adam_t = fields["adam_t"]
    if not (isinstance(adam_t, int) and not isinstance(adam_t, bool) and adam_t >= 0):
        raise ValueError(f"{path}: checkpoint 'adam_t' must be a non-negative integer")
    return fields


def load_checkpoint(path: str | Path) -> tuple[ModelParams, TrainConfig, Vocab, SpeakerRoster]:
    """Read a checkpoint; ``ValueError`` names any header field or member
    that differs from what ``save_checkpoint`` writes: each buffer is
    checked for float64 and the length of its config's layout, and Adam's
    moments must be stored exactly when ``adam_t`` counts a step. The stored
    buffers become the model's, with no other copy."""
    members = _read_members(path)
    fields = _read_header(path, members.pop("header", None))
    try:
        cfg = TrainConfig.from_dict(fields["config"])
    except (ValueError, TypeError) as exc:  # a ConfigError would read as a usage error
        raise ValueError(f"{path}: checkpoint 'config' is not a valid configuration: "
                         f"{exc}") from None
    vocab = Vocab(fields["vocab"])
    roster = SpeakerRoster(fields["roster"])
    layout = _layout(cfg, vocab.size, roster.size)
    size = sum(math.prod(shape) for _, shape in layout)
    adam_t = fields["adam_t"]
    # Adam's moments come as a pair, stored once the model has taken a step
    stored = ("param", "adam_m", "adam_v") if adam_t else ("param",)
    for name in members:
        if name not in stored:
            raise ValueError(f"{path}: member {name!r} is not part of a {CHECKPOINT_MAGIC} "
                             f"checkpoint with 'adam_t' {adam_t}")
    missing = [name for name in stored if name not in members]
    if missing:
        raise ValueError(f"{path}: checkpoint with 'adam_t' {adam_t} is missing "
                         f"{', '.join(map(repr, missing))}")
    for name, values in members.items():
        if values.dtype != np.float64 or values.shape != (size,):
            raise ValueError(f"{path}: member {name!r} is {values.dtype} of shape "
                             f"{list(values.shape)}; its config needs float64 of shape [{size}]")
    params = _packed(layout, members["param"], members.get("adam_m"), members.get("adam_v"))
    params.adam_t = adam_t
    return params, cfg, vocab, roster
