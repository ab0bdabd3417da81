"""Attention and feed-forward blocks shared by encoder and decoder."""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .diffcore import (Keep, Tensor, affine, concat_rows, elem_mul, matmul, relu,
                       scale, softmax_rows, transpose)

# Training-mode dropout: ``functools.partial(diffcore.dropout, rate=...,
# rng=...)``, which draws each mask from its generator and passes a tensor
# through at rate 0. A ``drop`` of None means eval: no dropout.
Drop = Callable[[Tensor], Tensor]


def maybe_drop(t: Tensor, drop: Drop | None) -> Tensor:
    return drop(t) if drop is not None else t


@functools.lru_cache(maxsize=64)
def causal_mask(n: int, heads: int) -> Keep:
    """The ``Keep`` of (H*n x n) scores that lets query i see the keys up
    to i, tiled once per head as ``attend`` lays heads out."""
    return Keep(np.tile(np.tri(n, dtype=bool), (heads, 1)))


@functools.lru_cache(maxsize=256)
def _head_layout(heads: int, n: int, d: int) -> tuple[Tensor, Tensor]:
    """The constants of ``attend``: the (H*n x d) head-column mask B and
    the (n x H*n) fold Sᵀ; read-only, since calls share them."""
    blocks = np.kron(np.eye(heads), np.ones((n, d // heads)))
    fold = np.tile(np.eye(n), (1, heads))
    blocks.flags.writeable = fold.flags.writeable = False
    return Tensor(blocks), Tensor(fold)


def attend(q: Tensor, kt: Tensor, v: Tensor, heads: int,
           mask: Keep | None = None) -> Tensor:
    """Every head's scaled dot-product attention in one pass.

    ``q`` (n x d) and ``v`` (m x d) hold all heads side by side, head h in
    columns h*d/H .. (h+1)*d/H, as the stored projections make them; ``kt``
    (d x m) holds the keys transposed and already scaled by 1/√(d/H).
    The n query rows are stacked H times, ``S q`` with S = [I_n; ...; I_n],
    and masked by B, which keeps only head h's d/H columns in row block h.
    Row block h of ``(S q ⊙ B) kᵀ`` is then head h's score matrix, a row
    softmax over all H*n rows is exactly the per-head softmax, and
    ``Sᵀ ((P v) ⊙ B)`` puts each head's context back in its own columns,
    which is the column-wise concatenation of the heads' contexts. A
    ``mask`` is a ``Keep`` of (H*n x m) scores, one row block per head.
    """
    n, d = q.shape
    blocks, fold = _head_layout(heads, n, d)
    scores = matmul(elem_mul(concat_rows(*([q] * heads)), blocks), kt)
    return matmul(fold, elem_mul(matmul(softmax_rows(scores, mask), v), blocks))


def key_weight(params, prefix: str, heads: int) -> Tensor:
    """``{prefix}.wk`` times 1/√(d/H): keys it projects carry the score scale."""
    wk = params[f"{prefix}.wk"]
    return scale(wk, 1.0 / math.sqrt(wk.shape[1] // heads))


def project_kv(params, prefix: str, src: Tensor, heads: int) -> tuple[Tensor, Tensor]:
    """``src``'s keys under ``key_weight``, transposed, and its values under
    ``{prefix}.wv``: the ``kv`` that ``multihead`` takes."""
    return (transpose(matmul(src, key_weight(params, prefix, heads))),
            matmul(src, params[f"{prefix}.wv"]))


def multihead(params, prefix: str, x: Tensor, kv: tuple[Tensor, Tensor], heads: int,
              mask: Keep | None = None, drop: Drop | None = None) -> Tensor:
    """Multi-head scaled dot-product attention of the rows ``x`` over the
    transposed, scaled keys and the values ``kv`` that ``project_kv``
    made, all heads in one pass.

    The projections ``{prefix}.wq/wk/wv`` (d_in x d) hold every head,
    head h in columns h*d/H .. (h+1)*d/H, and ``{prefix}.wo`` is the shared
    output projection. The heads are laid out as row blocks (``attend``),
    and a ``mask`` is a ``Keep`` already tiled over them. The result is
    the projected context after dropout, with no residual of ``x``.
    """
    context = attend(matmul(x, params[f"{prefix}.wq"]), *kv, heads, mask)
    return maybe_drop(matmul(context, params[f"{prefix}.wo"]), drop)


def ffn(params, prefix: str, x: Tensor, drop: Drop | None = None) -> Tensor:
    """Two affine layers with a ReLU in between (position-wise)."""
    inner = relu(affine(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    inner = maybe_drop(inner, drop)
    return affine(inner, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
