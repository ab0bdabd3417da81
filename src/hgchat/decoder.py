"""Response generation: one decoder block (``DecodeState.run``) of
future-masked self-attention over the prefix, cross-attention into the
encoded graph, and a learned gate that blends the emotion mixture with the
responding speaker's personality, shared by teacher forcing and search."""
from __future__ import annotations

import functools
import logging

import numpy as np

from .config import TrainConfig
from .corpus import BOS, EOS
from .diffcore import (ContractError, Tensor, add, affine, concat_cols,
                       concat_rows, elem_mul, matmul, neg_pick, row_lookup,
                       scale, sigmoid, softmax_rows, transpose)
from .layers import (MASK_OFF, Dropouter, broadcast_row, causal_mask, ffn,
                     multihead, project_kv)
from .params import ModelParams

log = logging.getLogger(__name__)


def emotion_mix(p: Tensor, emotion_emb: Tensor) -> Tensor:
    """Mix the emotion table rows by the predicted distribution (1x7 @ 7xd)."""
    return matmul(p, emotion_emb)


def fold_gate(e_p: Tensor, s_p: Tensor, params: ModelParams) -> tuple[Tensor, ...]:
    """The gate's per-dialogue terms ``(W_o, c, diag(e_p − s_p), s_p)``.

    The gate sees ``[o; e_p; s_p]``, whose emotion and personality columns
    are the same on every row, so ``[o; e_p; s_p]·W_g + b = o·W_o + c``
    with ``W_o`` the first d rows of ``W_g`` and ``c = [0; e_p; s_p]·W_g + b``.
    """
    d = e_p.shape[1]
    gate_w = params["dec.gate.w"]
    w_o = row_lookup(gate_w, np.arange(d))
    c = affine(concat_cols(Tensor(np.zeros((1, d))), e_p, s_p), gate_w, params["dec.gate.b"])
    spread = broadcast_row(add(e_p, scale(s_p, -1.0)), d)
    return w_o, c, elem_mul(Tensor(np.eye(d)), spread), s_p


def gate_fuse(o: Tensor, fold: tuple[Tensor, ...]) -> Tensor:
    """Blend the decoder states with the emotion and personality rows.

    The gate ``g = σ([o; e_p; s_p]·W_g + b)`` decides, per coordinate, how
    much of each additive term to let through: the fused state
    ``o + g ⊙ e_p + (1 − g) ⊙ s_p`` is ``o + s_p + g ⊙ (e_p − s_p)``,
    computed from ``fold_gate``'s terms as ``o + (g·diag(e_p − s_p) + s_p)``
    with ``g = σ(o·W_o + c)``, the bias row ``s_p`` broadcast over the rows.
    """
    w_o, c, spread, s_p = fold
    g = sigmoid(affine(o, w_o, c))
    return add(o, affine(g, spread, s_p))


def step_distributions(prefix_ids: list[int], h_enc: Tensor, e_p: Tensor,
                       s_p: Tensor, params: ModelParams, cfg: TrainConfig,
                       drop: Dropouter | None = None) -> Tensor:
    """Next-token distributions for every prefix position (teacher-forced).

    Row t is the distribution over token t+1 given tokens up to t: the
    decoder block runs on the whole prefix from an empty cache, and the
    causal mask keeps each row independent of everything after it.
    """
    if not prefix_ids:
        raise ContractError("decoder prefix must not be empty (start with BOS)")
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    probs, _ = state.run(None, prefix_ids, causal_mask(len(prefix_ids)), drop)
    return probs


def sequence_nll(target_ids: list[int], h_enc: Tensor, e_p: Tensor, s_p: Tensor,
                 params: ModelParams, cfg: TrainConfig,
                 drop: Dropouter | None = None) -> Tensor:
    """Teacher-forced negative log-likelihood of a response ending in EOS."""
    if not target_ids or target_ids[-1] != EOS:
        raise ContractError("target sequence must end with EOS")
    inputs = [BOS] + list(target_ids[:-1])
    probs = step_distributions(inputs, h_enc, e_p, s_p, params, cfg, drop)
    return neg_pick(probs, target_ids)


class DecodeState:
    """The decoder block with one dialogue's constants: the cross-attention
    keys and values of ``h_enc``, the transposed output projection and the
    gate's folded terms.

    ``run`` decodes new token rows against the self-attention cache
    ``(K, V)`` of the tokens before them, as in incremental decoding
    (Shazeer 2019, arXiv:1911.02150). Teacher forcing is one ``run`` over
    the whole prefix from an empty cache under a causal mask. ``step``
    decodes the newest token of each of W live hypotheses of equal length
    in one ``run``. Its cache is step-major: row ``s*W + i`` holds
    hypothesis i's token s, so a step appends its W rows with one
    ``concat_rows``. With W > 1 the scores get a block mask that lets
    query i see only the rows ``≡ i (mod W)``; greedy decoding is W = 1 and
    needs none, and without later rows no causal mask is needed either.
    ``reorder`` picks the cache rows of the hypotheses that survive a beam
    step. Caches are extended into new tensors, never written in place.
    """

    def __init__(self, h_enc: Tensor, e_p: Tensor, s_p: Tensor,
                 params: ModelParams, cfg: TrainConfig):
        self.params, self.heads, self.residual = params, cfg.heads, cfg.attention_residual
        self.cross_kv = project_kv(params, "dec.cross_attn", h_enc)
        self.out_t = transpose(params["dec.out_proj.w"])
        self.fold = fold_gate(e_p, s_p, params)

    def run(self, cache: tuple[Tensor, Tensor] | None, tokens: list[int],
            mask: Tensor | None, drop: Dropouter | None = None
            ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Next-token distributions (n x V) for the n rows ``tokens``, given
        the ``cache`` before them and an additive self-attention ``mask``
        (n x cached + n rows, or None), and the extended cache."""
        params = self.params
        x = row_lookup(params["dec.tok_emb"], tokens)
        k, v = project_kv(params, "dec.self_attn", x)
        if cache is not None:
            k, v = concat_rows(cache[0], k), concat_rows(cache[1], v)
        h_r = multihead(params, "dec.self_attn", x, (k, v), self.heads, mask, drop, self.residual)
        attended = multihead(params, "dec.cross_attn", h_r, self.cross_kv, self.heads,
                             drop=drop, residual=self.residual)
        o = ffn(params, "dec.ffn", attended, drop)
        return softmax_rows(matmul(gate_fuse(o, self.fold), self.out_t)), (k, v)

    def step(self, cache: tuple[Tensor, Tensor] | None, tokens: list[int]
             ) -> tuple[np.ndarray, tuple[Tensor, Tensor]]:
        """Next-token distributions (W x V) after the last token of each of
        W hypotheses, ``tokens[i]`` being hypothesis i's, given the
        step-major self-attention ``cache`` of the tokens before them (None
        at BOS), and the cache extended by ``tokens``."""
        width = len(tokens)
        steps = 1 + (0 if cache is None else cache[0].shape[0] // width)
        mask = Tensor(_hypothesis_mask(width, steps)) if width > 1 else None
        probs, cache = self.run(cache, tokens, mask)
        return probs.values, cache

    @staticmethod
    def reorder(cache: tuple[Tensor, Tensor], width: int, parents: list[int]
                ) -> tuple[Tensor, Tensor]:
        """The step-major cache of new hypotheses, given the cache of
        ``width`` old ones: hypothesis j continues old hypothesis
        ``parents[j]``, so row ``s*W_new + j`` is old row
        ``s*width + parents[j]``. Parents may repeat, and there may be
        fewer new hypotheses than old. Keeping every hypothesis in place
        returns ``cache`` itself."""
        if parents == list(range(width)):
            return cache
        steps = cache[0].shape[0] // width
        rows = (np.arange(steps)[:, None] * width + np.asarray(parents)).ravel()
        return row_lookup(cache[0], rows), row_lookup(cache[1], rows)


@functools.lru_cache(maxsize=256)
def _hypothesis_mask(width: int, steps: int) -> np.ndarray:
    """Additive (W x steps*W) mask: query i sees only the cache rows
    ``≡ i (mod W)``, its own hypothesis's tokens; read-only, as calls share it."""
    mask = np.tile(np.where(np.eye(width, dtype=bool), 0.0, MASK_OFF), (1, steps))
    mask.flags.writeable = False
    return mask


def greedy_decode(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                  cfg: TrainConfig, max_tokens: int) -> tuple[list[int], bool]:
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    ids, cache = [BOS], None
    for _ in range(max_tokens):
        dist, cache = state.step(cache, [ids[-1]])
        nxt = int(np.argmax(dist[0]))
        if nxt == EOS:
            return ids[1:], False
        ids.append(nxt)
    log.warning("generation hit the %d-token cap without EOS; truncated", max_tokens)
    return ids[1:], True


def beam_decode(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                cfg: TrainConfig, max_tokens: int, width: int
                ) -> tuple[list[int], bool]:
    """Length-normalized beam search; width 1 reproduces greedy decoding.

    A hypothesis is (ids, log-probability). All live hypotheses step in one
    ``DecodeState.step`` call, their caches held step-major. Each of the
    W_old hypotheses proposes its ``width`` best tokens; the best ``width``
    children overall survive or finish on EOS, and ``DecodeState.reorder``
    gathers each survivor's parent's cache rows, ``s*W_old + parent``. This
    covers siblings of one parent and a beam that narrows as hypotheses
    finish.
    """
    if width < 1:
        raise ValueError(f"beam width must be at least 1, got {width}")
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    live, cache = [([BOS], 0.0)], None
    done: list[tuple[list[int], float]] = []
    for _ in range(max_tokens):
        dists, cache = state.step(cache, [ids[-1] for ids, _ in live])
        logp = np.log(dists)
        pool = []
        for parent, (ids, score) in enumerate(live):
            for tok in np.argsort(-logp[parent], kind="stable")[:width]:
                pool.append((ids + [int(tok)], score + float(logp[parent, tok]), parent))
        pool.sort(key=lambda item: (-item[1], item[0]))
        live, parents = [], []
        for ids, score, parent in pool[:width]:
            if ids[-1] == EOS:
                done.append((ids[1:-1], score / max(1, len(ids) - 1)))
            else:
                live.append((ids, score))
                parents.append(parent)
        if not live or len(done) >= width:
            break
        cache = state.reorder(cache, len(dists), parents)
    if done:
        done.sort(key=lambda item: (-item[1], item[0]))
        return done[0][0], False
    log.warning("beam search hit the %d-token cap without EOS; truncated", max_tokens)
    best = max(live, key=lambda item: item[1] / max(1, len(item[0]) - 1))
    return best[0][1:], True


def generate_ids(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                 cfg: TrainConfig, strategy: str = "greedy", beam_width: int = 1
                 ) -> tuple[list[int], bool]:
    if strategy == "greedy":
        return greedy_decode(h_enc, e_p, s_p, params, cfg, cfg.max_len)
    if strategy == "beam":
        return beam_decode(h_enc, e_p, s_p, params, cfg, cfg.max_len, beam_width)
    raise ValueError(f"unknown decoding strategy {strategy!r}")
