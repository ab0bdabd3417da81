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
from .layers import Dropouter, causal_mask, ffn, key_weight, multihead, project_kv
from .params import ModelParams

log = logging.getLogger(__name__)

# Most dialogues one greedy search decodes in lockstep. Every row's
# cross-attention scores span the whole group's encoder rows, so that part
# of a step grows with the group size times its summed node count: at desk
# scale, 12 dialogues of 24-35 turns took twice as long in one group as in
# groups of 4-8, while 12 short ones took about as long in groups of 6-12.
GREEDY_GROUP = 8


def lockstep_groups(records: list) -> list[list]:
    """``records`` in the fewest consecutive lockstep groups of at most
    ``GREEDY_GROUP``, their sizes differing by at most one, so that the
    groups take about as long: 12 records make two groups of 6, not 8
    and 4."""
    n = len(records)
    count = -(-n // GREEDY_GROUP)
    return [records[n * j // count:n * (j + 1) // count] for j in range(count)]


def emotion_mix(p: Tensor, emotion_emb: Tensor) -> Tensor:
    """Mix the emotion table rows by the predicted distribution (1x7 @ 7xd)."""
    return matmul(p, emotion_emb)


def fold_gate(e_p: Tensor, s_p: Tensor, params: ModelParams) -> tuple[Tensor, ...]:
    """The gate's per-dialogue terms ``(W_o, c, e_p − s_p, s_p)``: ``W_o``
    and one row of each other term per row of ``e_p`` and ``s_p``.

    The gate sees ``[o; e_p; s_p]``, whose emotion and personality columns
    are fixed for a dialogue, so with the gate weight stored as ``W_o``
    (``dec.gate.wo``) over ``W_es`` (``dec.gate.wes``) its pre-activation
    is ``o·W_o + c``, ``c = [e_p; s_p]·W_es + b``.
    """
    c = affine(concat_cols(e_p, s_p), params["dec.gate.wes"], params["dec.gate.b"])
    return params["dec.gate.wo"], c, add(e_p, scale(s_p, -1.0)), s_p


def gate_fuse(o: Tensor, fold: tuple[Tensor, ...]) -> Tensor:
    """Blend the decoder states with the emotion and personality rows.

    The gate ``g = σ([o; e_p; s_p]·[W_o; W_es] + b)`` decides, per
    coordinate, how much of each additive term to let through: the fused state
    ``o + g ⊙ e_p + (1 − g) ⊙ s_p`` is ``o + (g ⊙ (e_p − s_p) + s_p)``,
    computed from ``fold_gate``'s terms, which hold a row per row of ``o``,
    with ``g = σ(o·W_o + c)``.
    """
    w_o, c, spread, s_p = fold
    g = sigmoid(affine(o, w_o, c))
    return add(o, add(elem_mul(g, spread), s_p))


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
    probs, _ = state.run(None, prefix_ids, causal_mask(len(prefix_ids), cfg.heads), drop)
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
    """The decoder block with the constants of D dialogues: the
    cross-attention keys and values of their encoder rows and the gate's
    folded terms.

    ``run`` decodes new token rows against the self-attention cache
    ``(K, V)`` of the tokens before them, as in incremental decoding
    (Shazeer 2019, arXiv:1911.02150); each row decodes the dialogue that
    ``dialogues`` names. Teacher forcing is one ``run`` over the whole
    prefix of one dialogue from an empty cache under a causal mask.
    ``step`` decodes the newest token of each of W rows of equal length in
    one ``run``: the live hypotheses of one dialogue's beam, or a row per
    unfinished dialogue of a greedy search (iteration-level batching, as in
    Orca, Yu et al., OSDI 2022). Its cache is step-major: row ``s*W + i``
    holds row i's token s, so a step appends its W rows with one
    ``concat_rows``. With W > 1 the self-attention scores get a block mask
    that lets query i see only the cache rows ``≡ i (mod W)``; with D > 1
    the cross-attention scores get one that lets it see only its own
    dialogue's encoder rows. Greedy decoding of one dialogue needs neither,
    and without later rows no causal mask is needed either. ``reorder``
    picks the cache rows of the rows that go on. Caches are extended into
    new tensors, never written in place.
    """

    def __init__(self, h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                 cfg: TrainConfig, nodes: list[int] | None = None):
        """``h_enc`` stacks the dialogues' encoder rows, ``nodes[j]`` of them
        for dialogue j (None: all of one dialogue's), and row j of ``e_p``
        and ``s_p`` belongs to dialogue j."""
        self.params, self.heads, self.residual = params, cfg.heads, cfg.attention_residual
        self.self_wk = key_weight(params, "dec.self_attn", cfg.heads)
        self.cross_kv = project_kv(params, "dec.cross_attn", h_enc, cfg.heads)
        self.node_dialogue = (None if nodes is None or len(nodes) == 1
                              else np.repeat(np.arange(len(nodes)), nodes))
        self.fold = fold_gate(e_p, s_p, params)
        self._layout: tuple = (None, None, None)

    def _rows(self, dialogues: tuple[int, ...]) -> tuple:
        """The gate terms and the head-tiled cross-attention mask of rows
        that decode ``dialogues``, rebuilt only when the layout changes."""
        if dialogues != self._layout[0]:
            rows = np.asarray(dialogues)
            fold = self.fold
            if dialogues != tuple(range(fold[1].shape[0])):
                fold = (fold[0], *(row_lookup(t, rows) for t in fold[1:]))
            mask = None
            if self.node_dialogue is not None:
                mask = np.tile(rows[:, None] == self.node_dialogue, (self.heads, 1))
                mask.flags.writeable = False
            self._layout = (dialogues, fold, mask)
        return self._layout[1:]

    def run(self, cache: tuple[Tensor, Tensor] | None, tokens: list[int],
            mask: np.ndarray | None, drop: Dropouter | None = None,
            dialogues: tuple[int, ...] | None = None
            ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Next-token distributions (n x V) for the n rows ``tokens``, given
        the ``cache`` before them, a boolean self-attention keep ``mask``
        (head-tiled, H*n x cached + n rows, or None) and the dialogue each
        row decodes (None: dialogue 0 for every row), and the extended cache."""
        params = self.params
        fold, cross_mask = self._rows(dialogues or (0,) * len(tokens))
        x = row_lookup(params["dec.tok_emb"], tokens)
        k, v = matmul(x, self.self_wk), matmul(x, params["dec.self_attn.wv"])
        if cache is not None:
            k, v = concat_rows(cache[0], k), concat_rows(cache[1], v)
        h_r = multihead(params, "dec.self_attn", x, (transpose(k), v), self.heads, mask, drop,
                        self.residual)
        attended = multihead(params, "dec.cross_attn", h_r, self.cross_kv, self.heads,
                             cross_mask, drop, self.residual)
        o = ffn(params, "dec.ffn", attended, drop)
        return softmax_rows(matmul(gate_fuse(o, fold), params["dec.out_proj.w"])), (k, v)

    def step(self, cache: tuple[Tensor, Tensor] | None, tokens: list[int],
             dialogues: tuple[int, ...] | None = None
             ) -> tuple[np.ndarray, tuple[Tensor, Tensor]]:
        """Next-token distributions (W x V) after the last token of each of
        W rows, ``tokens[i]`` being row i's, given the step-major
        self-attention ``cache`` of the tokens before them (None at BOS),
        and the cache extended by ``tokens``; ``dialogues`` as for ``run``."""
        width = len(tokens)
        steps = 1 + (0 if cache is None else cache[0].shape[0] // width)
        mask = _hypothesis_mask(width, steps, self.heads) if width > 1 else None
        probs, cache = self.run(cache, tokens, mask, dialogues=dialogues)
        return probs.values, cache

    @staticmethod
    def reorder(cache: tuple[Tensor, Tensor], width: int, parents: list[int]
                ) -> tuple[Tensor, Tensor]:
        """The step-major cache of new rows, given the cache of ``width``
        old ones: row j continues old row ``parents[j]``, so cache row
        ``s*W_new + j`` is old row ``s*width + parents[j]``. Parents may
        repeat, and there may be fewer new rows than old. Keeping every
        row in place returns ``cache`` itself."""
        if parents == list(range(width)):
            return cache
        steps = cache[0].shape[0] // width
        rows = (np.arange(steps)[:, None] * width + np.asarray(parents)).ravel()
        return row_lookup(cache[0], rows), row_lookup(cache[1], rows)


@functools.lru_cache(maxsize=256)
def _hypothesis_mask(width: int, steps: int, heads: int) -> np.ndarray:
    """Boolean (H*W x steps*W) keep mask, one row block per head: query i
    sees only the cache rows ``≡ i (mod W)``, its own row's tokens;
    read-only, as calls share it."""
    keep = np.tile(np.eye(width, dtype=bool), (heads, steps))
    keep.flags.writeable = False
    return keep


def greedy_many(dialogues: list[tuple[Tensor, Tensor, Tensor]], params: ModelParams,
                cfg: TrainConfig) -> list[tuple[list[int], bool]]:
    """Greedy responses of the dialogues ``(h_enc, e_p, s_p)``, in order,
    each with a flag for reaching ``cfg.max_len`` tokens without EOS.

    All of them decode in lockstep in one ``DecodeState``: each step takes
    the argmax of every unfinished dialogue's row, and a dialogue that
    emits EOS leaves the batch, ``reorder`` dropping its cache rows.
    """
    h_enc, e_p, s_p = (concat_rows(*parts) for parts in zip(*dialogues))
    state = DecodeState(h_enc, e_p, s_p, params, cfg, [h.shape[0] for h, _, _ in dialogues])
    responses: list[list[int]] = [[] for _ in dialogues]
    live, tokens, cache = tuple(range(len(dialogues))), [BOS] * len(dialogues), None
    for _ in range(cfg.max_len):
        dists, cache = state.step(cache, tokens, live)
        picks = np.argmax(dists, axis=1)
        going = [row for row, tok in enumerate(picks) if tok != EOS]
        if not going:
            live = ()
            break
        if len(going) < len(live):
            cache = state.reorder(cache, len(live), going)
            live = tuple(live[row] for row in going)
        tokens = [int(picks[row]) for row in going]
        for dialogue, tok in zip(live, tokens):
            responses[dialogue].append(tok)
    for _ in live:
        log.warning("generation hit the %d-token cap without EOS; truncated", cfg.max_len)
    return [(ids, dialogue in live) for dialogue, ids in enumerate(responses)]


def beam_decode(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                cfg: TrainConfig, width: int) -> tuple[list[int], bool]:
    """Length-normalized beam search of up to ``cfg.max_len`` tokens;
    width 1 reproduces greedy decoding.

    A hypothesis is its ids and its log-probability. All live hypotheses
    step in one ``DecodeState.step`` call, their caches held step-major.
    Each of the W_old hypotheses proposes its ``width`` best tokens; the
    best ``width`` children overall survive or finish on EOS, and
    ``DecodeState.reorder`` gathers each survivor's parent's cache rows,
    ``s*W_old + parent``. This covers siblings of one parent and a beam
    that narrows as hypotheses finish. Children rank by score, descending,
    then by ids. Their scores are added in numpy, and only the survivors'
    ids are built.
    """
    if width < 1:
        raise ValueError(f"beam width must be at least 1, got {width}")
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    live, scores, cache = [[BOS]], [0.0], None
    done: list[tuple[list[int], float]] = []
    for _ in range(cfg.max_len):
        dists, cache = state.step(cache, [ids[-1] for ids in live])
        logp = np.log(dists)
        best = np.argsort(-logp, axis=1, kind="stable")[:, :width]
        pool = np.array(scores)[:, None] + logp[np.arange(len(live))[:, None], best]
        # live ids are distinct and of one length, so a child's ids rank as
        # its parent's ids among the live ones, then as its token
        rank = [0] * len(live)
        for r, parent in enumerate(sorted(range(len(live)), key=live.__getitem__)):
            rank[parent] = r
        ranked = sorted((-score, rank[parent], tok, parent)
                        for parent, (row, toks) in enumerate(zip(pool.tolist(), best.tolist()))
                        for score, tok in zip(row, toks))
        kept, parents, scores = [], [], []
        for neg_score, _, tok, parent in ranked[:width]:
            if tok == EOS:
                done.append((live[parent][1:], -neg_score / len(live[parent])))
            else:
                kept.append(live[parent] + [tok])
                parents.append(parent)
                scores.append(-neg_score)
        if not kept or len(done) >= width:
            break
        live = kept
        cache = state.reorder(cache, len(dists), parents)
    if done:
        done.sort(key=lambda item: (-item[1], item[0]))
        return done[0][0], False
    log.warning("beam search hit the %d-token cap without EOS; truncated", cfg.max_len)
    best = max(zip(live, scores), key=lambda item: item[1] / max(1, len(item[0]) - 1))
    return best[0][1:], True


def generate_ids(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                 cfg: TrainConfig, strategy: str = "greedy", beam_width: int = 1
                 ) -> tuple[list[int], bool]:
    if strategy == "greedy":
        return greedy_many([(h_enc, e_p, s_p)], params, cfg)[0]
    if strategy == "beam":
        return beam_decode(h_enc, e_p, s_p, params, cfg, beam_width)
    raise ValueError(f"unknown decoding strategy {strategy!r}")
