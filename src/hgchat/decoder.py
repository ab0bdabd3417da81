"""Response generation: future-masked self-attention over the prefix,
cross-attention into the encoded graph, and a learned gate that blends the
emotion mixture with the responding speaker's personality."""
from __future__ import annotations

import logging

import numpy as np

from .config import TrainConfig
from .corpus import BOS, EOS
from .diffcore import (ContractError, Tensor, add, affine, concat_cols,
                       concat_rows, elem_mul, matmul, neg_pick, row_lookup,
                       sigmoid, softmax_rows, transpose)
from .layers import (Dropouter, attend, broadcast_row, causal_mask, ffn,
                     head_weights, multihead, one_minus)
from .params import ModelParams

log = logging.getLogger(__name__)


def emotion_mix(p: Tensor, emotion_emb: Tensor) -> Tensor:
    """Mix the emotion table rows by the predicted distribution (1x7 @ 7xd)."""
    return matmul(p, emotion_emb)


def gate_fuse(o: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams
              ) -> tuple[Tensor, Tensor]:
    """Blend the decoder states with the emotion and personality rows.

    The gate sees [states; emotion; personality] and decides, per
    coordinate, how much of each additive term to let through.
    """
    rows = o.shape[0]
    e_g = broadcast_row(e_p, rows)
    s_g = broadcast_row(s_p, rows)
    g = sigmoid(affine(concat_cols(o, e_g, s_g), params["dec.gate.w"], params["dec.gate.b"]))
    fused = add(add(o, elem_mul(g, e_g)), elem_mul(one_minus(g), s_g))
    return fused, g


def step_distributions(prefix_ids: list[int], h_enc: Tensor, e_p: Tensor,
                       s_p: Tensor, params: ModelParams, cfg: TrainConfig,
                       drop: Dropouter | None = None) -> Tensor:
    """Next-token distributions for every prefix position (teacher-forced).

    Row t is the distribution over token t+1 given tokens up to t; the
    causal mask keeps each row independent of everything after it.
    """
    if not prefix_ids:
        raise ContractError("decoder prefix must not be empty (start with BOS)")
    r = row_lookup(params["dec.tok_emb"], prefix_ids)
    res = cfg.attention_residual
    h_r = multihead(params, "dec.self_attn", r, r, r, cfg.heads,
                    mask=causal_mask(len(prefix_ids)), drop=drop, residual=res)
    attended = multihead(params, "dec.cross_attn", h_r, h_enc, h_enc, cfg.heads,
                         drop=drop, residual=res)
    o = ffn(params, "dec.ffn", attended, drop)
    fused, _ = gate_fuse(o, e_p, s_p, params)
    return softmax_rows(matmul(fused, transpose(params["dec.out_proj.w"])))


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
    """One dialogue's constants for incremental decoding (Shazeer 2019,
    arXiv:1911.02150).

    The joined self-attention weights, the cross-attention keys and values
    of ``h_enc`` and the transposed output projection are computed once;
    ``step`` then runs the decoder on the newest token's row only. Its
    self-attention cache holds the key and value rows of every earlier
    token, and without later rows no causal mask is needed. Caches are
    extended into new tensors, never written in place, so beam hypotheses
    can share their parent's. ``step_distributions`` stays the
    teacher-forced reference that this path must reproduce.
    """

    def __init__(self, h_enc: Tensor, e_p: Tensor, s_p: Tensor,
                 params: ModelParams, cfg: TrainConfig):
        self.params, self.heads, self.residual = params, cfg.heads, cfg.attention_residual
        self.e_p, self.s_p = e_p, s_p
        self.self_w = head_weights(params, "dec.self_attn", cfg.heads)
        wq, wk, wv = head_weights(params, "dec.cross_attn", cfg.heads)
        self.cross_wq, self.cross_k, self.cross_v = wq, matmul(h_enc, wk), matmul(h_enc, wv)
        self.out_t = transpose(params["dec.out_proj.w"])

    def _attend(self, prefix: str, x: Tensor, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        out = matmul(attend(q, k, v, self.heads), self.params[f"{prefix}.wo"])
        return add(out, x) if self.residual else out

    def step(self, cache: tuple[Tensor, Tensor] | None, token: int
             ) -> tuple[np.ndarray, tuple[Tensor, Tensor]]:
        """Next-token distribution after ``token``, given the self-attention
        ``cache`` of the tokens before it (None at BOS), and the cache
        extended by ``token``."""
        x = row_lookup(self.params["dec.tok_emb"], [token])
        wq, wk, wv = self.self_w
        k, v = matmul(x, wk), matmul(x, wv)
        if cache is not None:
            k, v = concat_rows(cache[0], k), concat_rows(cache[1], v)
        h_r = self._attend("dec.self_attn", x, matmul(x, wq), k, v)
        attended = self._attend("dec.cross_attn", h_r, matmul(h_r, self.cross_wq),
                                self.cross_k, self.cross_v)
        o = ffn(self.params, "dec.ffn", attended)
        fused, _ = gate_fuse(o, self.e_p, self.s_p, self.params)
        return softmax_rows(matmul(fused, self.out_t)).values[0], (k, v)


def greedy_decode(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                  cfg: TrainConfig, max_tokens: int) -> tuple[list[int], bool]:
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    ids, cache = [BOS], None
    for _ in range(max_tokens):
        dist, cache = state.step(cache, ids[-1])
        nxt = int(np.argmax(dist))
        if nxt == EOS:
            return ids[1:], False
        ids.append(nxt)
    log.warning("generation hit the %d-token cap without EOS; truncated", max_tokens)
    return ids[1:], True


def beam_decode(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                cfg: TrainConfig, max_tokens: int, width: int
                ) -> tuple[list[int], bool]:
    """Length-normalized beam search; width 1 reproduces greedy decoding.

    A hypothesis is (ids, log-probability, self-attention cache of every
    token but its last); children share the cache their parent's step
    returned.
    """
    if width < 1:
        raise ValueError(f"beam width must be at least 1, got {width}")
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    live = [([BOS], 0.0, None)]
    done: list[tuple[list[int], float]] = []
    for _ in range(max_tokens):
        pool = []
        for ids, score, cache in live:
            dist, cache = state.step(cache, ids[-1])
            logp = np.log(dist)
            best = np.argsort(-logp, kind="stable")[:width]
            for tok in best:
                pool.append((ids + [int(tok)], score + float(logp[tok]), cache))
        pool.sort(key=lambda item: (-item[1], item[0]))
        live = []
        for ids, score, cache in pool[:width]:
            if ids[-1] == EOS:
                done.append((ids[1:-1], score / max(1, len(ids) - 1)))
            else:
                live.append((ids, score, cache))
        if not live or len(done) >= width:
            break
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
