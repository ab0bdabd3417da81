"""Response generation: one decoder block (``DecodeState.run``) of
future-masked self-attention over the prefix, cross-attention into the
encoded graph, and a learned gate that blends the emotion mixture with the
responding speaker's personality, shared by teacher forcing and search."""
from __future__ import annotations

import functools

import numpy as np

from .config import TrainConfig
from .corpus import BOS, EOS
from .diffcore import (ContractError, Keep, Tensor, add, affine, concat_cols,
                       concat_rows, elem_mul, matmul, neg_pick, row_lookup,
                       scale, sigmoid, softmax_rows, transpose)
from .layers import Drop, causal_mask, ffn, key_weight, multihead, project_kv
from .params import ModelParams

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
                       drop: Drop | None = None) -> Tensor:
    """Next-token distributions for every prefix position (teacher-forced).

    Row t is the distribution over token t+1 given tokens up to t: every
    prefix token is a row of dialogue 0 (``keep([0] * n)``), the decoder
    block runs on them all from an empty cache in one ``run``, and the
    causal mask keeps each row independent of everything after it.
    """
    if not prefix_ids:
        raise ContractError("decoder prefix must not be empty (start with BOS)")
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    state.keep([0] * len(prefix_ids))
    return state.run(prefix_ids, causal_mask(len(prefix_ids), cfg.heads), drop)


def sequence_nll(target_ids: list[int], h_enc: Tensor, e_p: Tensor, s_p: Tensor,
                 params: ModelParams, cfg: TrainConfig,
                 drop: Drop | None = None) -> Tensor:
    """Teacher-forced negative log-likelihood of a response ending in EOS."""
    if not target_ids or target_ids[-1] != EOS:
        raise ContractError("target sequence must end with EOS")
    inputs = [BOS] + list(target_ids[:-1])
    probs = step_distributions(inputs, h_enc, e_p, s_p, params, cfg, drop)
    return neg_pick(probs, target_ids)


class DecodeState:
    """The decoder block with the constants of D dialogues (the
    cross-attention keys and values of their encoder rows and the gate's
    folded terms), its W rows and their self-attention cache.

    ``rows[j]`` is the dialogue that row j decodes; at first row j decodes
    dialogue j. ``run`` decodes one new token per row against ``cache``,
    the keys and values ``(K, V)`` of the tokens before it, as in
    incremental decoding (Shazeer 2019, arXiv:1911.02150), and appends its
    tokens to the cache. The cache is step-major: row ``s*W + i`` holds row
    i's token s, so a run appends its W rows with one ``concat_rows``. With
    W > 1 the self-attention scores get a block mask, a ``Keep`` that lets
    row i see only the cache rows ``≡ i (mod W)``; with D > 1 the
    cross-attention scores get a ``Keep`` that lets it see only its own
    dialogue's encoder rows. ``keep`` makes row j continue row
    ``parents[j]``: the live hypotheses of one dialogue's beam, or a row
    per unfinished dialogue of a greedy search (iteration-level batching,
    as in Orca, Yu et al., OSDI 2022). Teacher forcing is ``keep([0] * n)``
    and one ``run`` over the whole prefix under a causal mask. Greedy
    decoding of one dialogue needs no mask at all. Caches are extended into
    new tensors, never written in place.
    """

    def __init__(self, h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                 cfg: TrainConfig, nodes: list[int] | None = None):
        """``h_enc`` stacks the dialogues' encoder rows, ``nodes[j]`` of them
        for dialogue j (None: all of one dialogue's), and row j of ``e_p``
        and ``s_p`` belongs to dialogue j."""
        self._params, self._heads = params, cfg.heads
        self._self_wk = key_weight(params, "dec.self_attn", cfg.heads)
        self._cross_kv = project_kv(params, "dec.cross_attn", h_enc, cfg.heads)
        self._node_dialogue = (None if nodes is None or len(nodes) == 1
                               else np.repeat(np.arange(len(nodes)), nodes))
        self._dialogue_fold = fold_gate(e_p, s_p, params)
        self.rows: list[int] = list(range(e_p.shape[0]))
        self.cache: tuple[Tensor, Tensor] | None = None
        self._row_terms()

    def _row_terms(self) -> None:
        """The gate terms and the head-tiled cross-attention mask of
        ``rows``."""
        rows, fold = np.asarray(self.rows), self._dialogue_fold
        if self.rows != list(range(fold[1].shape[0])):
            fold = (fold[0], *(row_lookup(t, rows) for t in fold[1:]))
        self._fold, self._cross_mask = fold, None
        if self._node_dialogue is not None:
            self._cross_mask = Keep(np.tile(rows[:, None] == self._node_dialogue,
                                            (self._heads, 1)))

    def run(self, tokens: list[int], mask: Keep | None = None,
            drop: Drop | None = None) -> Tensor:
        """Next-token distributions (W x V) after ``tokens[j]``, row j's
        newest token, and the cache extended by them. ``mask`` is the
        ``Keep`` of the self-attention scores (head-tiled, H*W x cached + W
        rows); None keeps each row to its own tokens."""
        width, params, heads = len(self.rows), self._params, self._heads
        if len(tokens) != width:
            raise ContractError(f"run: {len(tokens)} tokens for {width} rows")
        x = row_lookup(params["dec.tok_emb"], tokens)
        k, v = matmul(x, self._self_wk), matmul(x, params["dec.self_attn.wv"])
        if self.cache is not None:
            k, v = concat_rows(self.cache[0], k), concat_rows(self.cache[1], v)
        if mask is None and width > 1:
            mask = _hypothesis_mask(width, k.shape[0] // width, heads)
        h_r = multihead(params, "dec.self_attn", x, (transpose(k), v), heads, mask, drop)
        attended = multihead(params, "dec.cross_attn", h_r, self._cross_kv, heads,
                             self._cross_mask, drop)
        o = ffn(params, "dec.ffn", attended, drop)
        self.cache = k, v
        return softmax_rows(matmul(gate_fuse(o, self._fold), params["dec.out_proj.w"]))

    def keep(self, parents: list[int]) -> None:
        """Make row j continue row ``parents[j]``: cache row ``s*W_new + j``
        becomes old row ``s*W + parents[j]``. Parents may repeat, and there
        may be fewer rows than before, or none. Keeping every row in place
        changes nothing."""
        width = len(self.rows)
        bad = [p for p in parents if not 0 <= p < width]
        if bad:
            raise ContractError(f"keep: parent {bad[0]} outside the {width} rows")
        if parents == list(range(width)):
            return
        rows = [self.rows[p] for p in parents]
        if not rows:
            self.rows, self.cache = rows, None
            return
        if self.cache is not None:
            steps = self.cache[0].shape[0] // width
            index = (np.arange(steps)[:, None] * width + np.asarray(parents)).ravel()
            self.cache = row_lookup(self.cache[0], index), row_lookup(self.cache[1], index)
        if rows != self.rows:
            self.rows = rows
            self._row_terms()


@functools.lru_cache(maxsize=256)
def _hypothesis_mask(width: int, steps: int, heads: int) -> Keep:
    """The ``Keep`` of (H*W x steps*W) scores, one row block per head:
    query i sees only the cache rows ``≡ i (mod W)``, its own row's tokens."""
    return Keep(np.tile(np.eye(width, dtype=bool), (heads, steps)))


def greedy_many(dialogues: list[tuple[Tensor, Tensor, Tensor]], params: ModelParams,
                cfg: TrainConfig) -> list[tuple[list[int], bool]]:
    """Greedy responses of the dialogues ``(h_enc, e_p, s_p)``, in order,
    each with a flag for reaching ``cfg.max_len`` tokens without EOS.

    All of them decode in lockstep in one ``DecodeState``, a row per
    unfinished dialogue: each ``run`` takes the argmax of every row, and
    ``keep`` drops the rows that emitted EOS.
    """
    h_enc, e_p, s_p = (concat_rows(*parts) for parts in zip(*dialogues))
    state = DecodeState(h_enc, e_p, s_p, params, cfg, [h.shape[0] for h, _, _ in dialogues])
    responses: list[list[int]] = [[] for _ in dialogues]
    tokens = [BOS] * len(dialogues)
    for _ in range(cfg.max_len):
        picks = np.argmax(state.run(tokens).values, axis=1)
        going = [row for row, tok in enumerate(picks) if tok != EOS]
        if len(going) < len(picks):
            state.keep(going)
        tokens = [int(picks[row]) for row in going]
        for dialogue, tok in zip(state.rows, tokens):
            responses[dialogue].append(tok)
        if not tokens:
            break
    return [(ids, dialogue in state.rows) for dialogue, ids in enumerate(responses)]


def beam_decode(h_enc: Tensor, e_p: Tensor, s_p: Tensor, params: ModelParams,
                cfg: TrainConfig, width: int) -> tuple[list[int], bool]:
    """Length-normalized beam search of up to ``cfg.max_len`` tokens;
    width 1 reproduces greedy decoding.

    A hypothesis is its ids and its log-probability, and a row of one
    ``DecodeState``: all live hypotheses decode in one ``run``. Each of the
    W_old hypotheses proposes its ``width`` best tokens; the best ``width``
    children overall survive or finish on EOS, and ``keep`` makes each
    survivor a row that continues its parent's. This covers siblings of
    one parent and a beam that narrows as hypotheses finish. Children rank
    by score, descending, then by ids. Their scores are added in numpy, and
    only the survivors' ids are built.
    """
    if width < 1:
        raise ValueError(f"beam width must be at least 1, got {width}")
    state = DecodeState(h_enc, e_p, s_p, params, cfg)
    live, scores = [[BOS]], [0.0]
    done: list[tuple[list[int], float]] = []
    for _ in range(cfg.max_len):
        logp = np.log(state.run([ids[-1] for ids in live]).values)
        best = np.argsort(-logp, axis=1, kind="stable")[:, :width]
        pool = np.array(scores)[:, None] + logp[np.arange(len(live))[:, None], best]
        # live ids are distinct and of one length, so a child's ids rank as
        # its parent's ids, then as its token; the parent never breaks a tie
        ranked = sorted((-score, live[parent], tok, parent)
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
        state.keep(parents)
    if done:
        done.sort(key=lambda item: (-item[1], item[0]))
        return done[0][0], False
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
