import numpy as np
import pytest

from hgchat import diffcore as dc
from hgchat.layers import causal_mask, multihead, project_kv
from hgchat.params import ModelParams

from oracles import multi_head_attention


def attention_params(rng, d_in, d):
    params = ModelParams()
    for proj in ("wq", "wk", "wv"):
        params.add(f"att.{proj}", rng.standard_normal((d_in, d)))
    params.add("att.wo", rng.standard_normal((d, d)))
    return params


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("causal", [False, True])
def test_multihead_matches_per_head_oracle(heads, causal):
    rng = np.random.default_rng(heads)
    d_in, d, n = 6, 8, 5
    m = n if causal else 7
    params = attention_params(rng, d_in, d)
    q = rng.standard_normal((n, d_in))
    kv = q if causal else rng.standard_normal((m, d_in))
    got = multihead(params, "att", dc.Tensor(q), project_kv(params, "att", dc.Tensor(kv), heads),
                    heads, mask=causal_mask(n, heads) if causal else None).values
    # head h owns columns h*d/H .. (h+1)*d/H of each stored projection
    want = multi_head_attention(
        q, kv, kv,
        *(np.split(params[f"att.{proj}"].values, heads, axis=1) for proj in ("wq", "wk", "wv")),
        params["att.wo"].values, causal=causal)
    assert np.max(np.abs(got - want)) <= 1e-12
