"""Independent reference computations used as test oracles.

Everything here is written directly against numpy, on purpose: these
functions must not share code with the package paths they check.
"""
from __future__ import annotations

import json

import numpy as np

from hgchat.corpus import BOS, EOS
from hgchat.diffcore import _PRIMS, ContractError, _tapes


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


def typed_graph_conv(adjacency, kinds, h, layers, act=lambda x: np.maximum(x, 0.0)):
    """Heterogeneous graph convolution as five typed matrices per layer.

    ``kinds`` gives each node's type code; each layer of ``layers`` maps a
    code to its ``(w, b)``. A_τ keeps the adjacency's columns (senders) of
    type τ. A layer is ``act(Σ_τ A_τ h w_τ + b_τ)``.
    """
    adj = np.asarray(adjacency, dtype=np.float64)
    kinds = np.asarray(kinds)
    for weights in layers:
        pre = 0.0
        for code, (w, b) in weights.items():
            keep = (kinds == code).astype(np.float64)
            a_t = adj * keep[np.newaxis, :]
            pre = pre + a_t @ h @ w + b
        h = act(pre)
    return h


def lstm_final_states(emb, token_rows, wi, ui, bi, wf, uf, bf, wo, uo, bo, wc, uc, bc):
    """Each token row's LSTM state after its last token, from h = c = 0."""
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    out = []
    for row in token_rows:
        h = np.zeros((1, ui.shape[0]))
        c = np.zeros((1, ui.shape[0]))
        for tok in row:
            x = emb[[tok]]
            i = sig(x @ wi + h @ ui + bi)
            f = sig(x @ wf + h @ uf + bf)
            o = sig(x @ wo + h @ uo + bo)
            c = f * c + i * np.tanh(x @ wc + h @ uc + bc)
            h = o * np.tanh(c)
        out.append(h[0])
    return np.array(out)


def decoder_distributions(tokens, h_enc, e_p, s_p, weights, heads):
    """Teacher-forced next-token distributions of the unfused decoder.

    Row t is the distribution after ``tokens[:t + 1]``. ``weights`` maps the
    ``dec.*`` parameter names to arrays, with the gate weight as one 3d x d
    ``dec.gate.w`` and the output projection ``dec.out_proj.w`` as V x d.
    Causal self-attention over the
    token rows, cross-attention into ``h_enc``, each without a residual
    connection, the two-layer FFN, then the
    gate ``g = σ([o; e_p; s_p]·W_g + b)`` on the full concatenated input and
    ``o + g ⊙ e_p + (1 − g) ⊙ s_p``, projected onto the vocabulary.
    """
    def attention(prefix, q, kv, causal):
        split = lambda proj: np.split(weights[f"{prefix}.{proj}"], heads, axis=1)
        return multi_head_attention(q, kv, kv, split("wq"), split("wk"), split("wv"),
                                    weights[f"{prefix}.wo"], causal=causal)

    x = weights["dec.tok_emb"][list(tokens)]
    h_r = attention("dec.self_attn", x, x, True)
    attended = attention("dec.cross_attn", h_r, h_enc, False)
    o = ffn_two_layer(attended, *(weights[f"dec.ffn.{name}"] for name in ("w1", "b1", "w2", "b2")))
    e = np.repeat(e_p, len(o), axis=0)
    s = np.repeat(s_p, len(o), axis=0)
    z = np.concatenate([o, e, s], axis=1) @ weights["dec.gate.w"] + weights["dec.gate.b"]
    g = 1.0 / (1.0 + np.exp(-z))
    return softmax((o + g * e + (1.0 - g) * s) @ weights["dec.out_proj.w"].T)


def beam_search(state, width: int, max_len: int) -> tuple[list[int], bool]:
    """Length-normalized beam search over ``state``'s ``run`` and ``keep``
    (a ``DecodeState``), its candidates held as Python lists and sorted by
    (score descending, ids): ``decoder.beam_decode`` as it read before it
    ranked them in numpy."""
    live = [([BOS], 0.0)]
    done = []
    for _ in range(max_len):
        logp = np.log(state.run([ids[-1] for ids, _ in live]).values)
        best = np.argsort(-logp, axis=1, kind="stable")[:, :width]
        pool = [(ids + [int(tok)], score + float(logp[parent, tok]), parent)
                for parent, (ids, score) in enumerate(live) for tok in best[parent]]
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
        state.keep(parents)
    if done:
        done.sort(key=lambda item: (-item[1], item[0]))
        return done[0][0], False
    best = max(live, key=lambda item: item[1] / max(1, len(item[0]) - 1))
    return best[0][1:], True


# The diffcore kernels that call numpy's direct entry points, in the
# operator and method forms they replaced, with diffcore's signatures
# ``forward(arrays, meta)`` and ``backward(arrays, meta, out, g)``: each
# must equal its rewrite bit for bit. The operator form of a masked
# softmax adds −1e30 to the entries that its ``Keep`` masks.

def _ref_softmax_rows(arrays, meta):
    x, keep = arrays[0], meta.get("keep")
    if keep is not None:
        additive = np.full(keep.shape, -1e30)
        additive.flat[keep.index] = 0.0
        x = x + additive
    ex = np.exp(x - x.max(axis=1, keepdims=True))
    return ex / ex.sum(axis=1, keepdims=True)


def _ref_row_lookup_grad(arrays, meta, out, g):
    gx = np.zeros_like(arrays[0])
    np.add.at(gx, meta["indices"], g)
    return (gx,)


def _ref_neg_pick(arrays, meta):
    p, idx = arrays[0], meta["indices"]
    return np.array([[-np.log(p[np.arange(p.shape[0]), idx]).sum()]])


def _ref_neg_pick_grad(arrays, meta, out, g):
    p, idx = arrays[0], meta["indices"]
    gx = np.zeros_like(p)
    rows = np.arange(p.shape[0])
    gx[rows, idx] = -g[0, 0] / p[rows, idx]
    return (gx,)


def _ref_sigmoid(arrays, meta):
    x = arrays[0]
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _ref_concat_grads(axis):
    def backward(arrays, meta, out, g):
        cuts = np.cumsum([a.shape[axis] for a in arrays])[:-1]
        return tuple(np.split(g, cuts, axis=axis))
    return backward


def kernel_references() -> dict:
    """Kind -> (forward, backward) of every rewritten diffcore kernel."""
    return {
        "matmul": (lambda arrays, meta: arrays[0] @ arrays[1],
                   lambda arrays, meta, out, g: (g @ arrays[1].T, arrays[0].T @ g)),
        "affine": (lambda arrays, meta: arrays[0] @ arrays[1] + arrays[2],
                   lambda arrays, meta, out, g: (
                       g @ arrays[1].T, arrays[0].T @ g,
                       g.sum(axis=0, keepdims=True) if arrays[2].shape[0] == 1 else g)),
        "concat_cols": (lambda arrays, meta: np.concatenate(arrays, axis=1),
                        _ref_concat_grads(1)),
        "concat_rows": (lambda arrays, meta: np.concatenate(arrays, axis=0),
                        _ref_concat_grads(0)),
        "transpose": (lambda arrays, meta: np.ascontiguousarray(arrays[0].T),
                      lambda arrays, meta, out, g: (g.T,)),
        "sigmoid": (_ref_sigmoid,
                    lambda arrays, meta, out, g: (g * out * (1.0 - out),)),
        "tanh": (lambda arrays, meta: np.tanh(arrays[0]),
                 lambda arrays, meta, out, g: (g * (1.0 - out * out),)),
        "softmax_rows": (_ref_softmax_rows,
                         lambda arrays, meta, out, g: (
                             out * (g - (g * out).sum(axis=1, keepdims=True)),)),
        "mean_rows": (lambda arrays, meta: arrays[0].mean(axis=0, keepdims=True),
                      lambda arrays, meta, out, g: (
                          np.repeat(g / arrays[0].shape[0], arrays[0].shape[0], axis=0),)),
        "row_lookup": (lambda arrays, meta: arrays[0][meta["indices"]], _ref_row_lookup_grad),
        "neg_pick": (_ref_neg_pick, _ref_neg_pick_grad),
    }


def rewrite_checkpoint(path, edit) -> None:
    """Apply ``edit(header, members)`` to the checkpoint file at ``path``,
    in place: ``header`` is its decoded JSON header and ``members`` maps
    every other member's name to its array."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    header = json.loads(members.pop("header").tobytes().decode("utf-8"))
    edit(header, members)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8),
                 **members)


def epoch_order(seed: int, adam_t: int, n: int) -> np.ndarray:
    """The order in which ``training.train`` visits ``n`` records in an
    epoch that starts after ``adam_t`` steps."""
    return np.random.default_rng((seed, adam_t, 0, 1)).permutation(n)


def per_tensor_adam(values, grads, m, v, cfg, t) -> None:
    """Bias-corrected Adam one tensor at a time, in place on the dicts
    ``values``, ``m`` and ``v``, with the temporaries numpy makes: the
    update that ``training.adam_step`` replaced with one over flat buffers,
    kept to check it bit for bit."""
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.learning_rate
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1 ** t)
        v_hat = v[name] / (1.0 - b2 ** t)
        values[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def reference_backward(loss) -> None:
    """The keep-everything reverse sweep that ``diffcore.backward`` replaced:
    it holds every tape entry and every intermediate gradient until the
    sweep ends, and stores a delta for every input it reaches. It runs the
    package's own kernels over the package's tape; only the sweep loop is
    the old one, kept to check the new one bit for bit."""
    if not _tapes:
        raise ContractError("backward requires an active tape")
    tape = _tapes[-1]
    if loss.values.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if not any(entry[2] is loss for entry in reversed(tape)):
        raise ContractError("loss was not produced on the active tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    owned: set[int] = {id(loss)}
    leaves = []
    for kind, inputs, output, meta in reversed(tape):
        g = grads.get(id(output))
        if g is None:
            continue
        deltas = _PRIMS[kind].backward([t.values for t in inputs], meta, output.values, g)
        for tensor, delta in zip(inputs, deltas):
            key = id(tensor)
            cur = grads.get(key)
            if cur is None:
                grads[key] = delta  # maybe a shared/view array: copy before mutating
                if tensor.grad is not None:
                    leaves.append(tensor)
            else:
                if key not in owned:
                    cur = cur.copy()
                    grads[key] = cur
                    owned.add(key)
                cur += delta

    for tensor in leaves:
        tensor.grad += grads[id(tensor)]
    tape.clear()
