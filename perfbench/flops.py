"""Analytic (computed, not measured) FLOP counts for encoder and decoder.

A matmul of (m, k) @ (k, n) costs 2*m*k*n.  Attention over the visible
(query, key) pairs costs 4*pairs*d: 2*pairs*d for Q.K^T and 2*pairs*d for
the weighted sum of V.  Layer norms, softmax, GELU and the bilinear crop are
not counted.
"""

from __future__ import annotations

import numpy as np


def encoder_flops(encodes: int, enc, grid: int) -> int:
    """Patch-projection FLOPs of ``encodes`` square encoder inputs."""
    fan_in = enc.patch_side * enc.patch_side * enc.channels
    return encodes * 2 * grid * grid * fan_in * enc.dim


def forward_flops(n: int, pairs: int, injected: int, params) -> int:
    """One decoder forward over n rows with ``pairs`` visible pairs."""
    d = params.dim
    per_layer = 4 * 2 * n * d * d  # q, k, v, o projections
    per_layer += 4 * pairs * d  # Q.K^T and A.V over visible pairs
    per_layer += 2 * 2 * n * d * 4 * d  # MLP up and down
    total = params.layers * per_layer
    total += 2 * n * d * len(params.vocab)  # output head
    total += 2 * injected * params.enc_dim * d  # feature adapter
    return total


def decode_flops(bits: np.ndarray, spans, steps, injected: int, params) -> int:
    """FLOPs of round-robin greedy decoding, one full forward per step.

    ``bits`` is the cascade mask of the fully allocated layout, ``spans``
    the (start, stop) slot range of each output chunk and ``steps`` the
    number of tokens each object decoded.  Before every step the slots not
    yet filled are dead rows and columns, as in ``decode_objects``.
    """
    n = bits.shape[0]
    row_sum = bits.sum(axis=1)
    col_sum = bits.sum(axis=0)
    total_pairs = int(row_sum.sum())
    fill = [0] * len(spans)
    total = 0
    for _ in range(max(steps, default=0)):
        for i in range(len(spans)):
            if fill[i] >= steps[i]:
                continue
            dead = np.concatenate(
                [np.arange(s + fill[j], e) for j, (s, e) in enumerate(spans)]
            )
            pairs = total_pairs - int(row_sum[dead].sum()) - int(col_sum[dead].sum())
            pairs += int(bits[np.ix_(dead, dead)].sum())
            total += forward_flops(n, pairs, injected, params)
            fill[i] += 1
    return total
