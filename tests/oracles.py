"""Independent reference computations used as test oracles.

Everything here is written directly against numpy, on purpose: these
functions must not share code with the package paths they check.
"""
from __future__ import annotations

import numpy as np


def central_diff(f, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function over a flat buffer."""
    flat = theta.reshape(-1)
    out = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        up = f()
        flat[k] = orig - eps
        down = f()
        flat[k] = orig
        out[k] = (up - down) / (2.0 * eps)
    return out.reshape(theta.shape)


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def single_head_attention(q, k, v, wq, wk, wv, wo):
    """One-head scaled dot-product attention with an output projection."""
    qh, kh, vh = q @ wq, k @ wk, v @ wv
    weights = softmax(qh @ kh.T / np.sqrt(wq.shape[1]))
    return (weights @ vh) @ wo


def ffn_two_layer(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def multi_head_attention(q, k, v, wqs, wks, wvs, wo, causal=False):
    """Per-head attention, one head at a time, contexts joined column-wise
    and projected by ``wo``; ``causal`` hides key j from query i when j > i."""
    contexts = []
    for wq, wk, wv in zip(wqs, wks, wvs):
        scores = (q @ wq) @ (k @ wk).T / np.sqrt(wq.shape[1])
        if causal:
            scores = np.where(np.triu(np.ones(scores.shape, dtype=bool), k=1),
                              -np.inf, scores)
        contexts.append(softmax(scores) @ (v @ wv))
    return np.concatenate(contexts, axis=1) @ wo
