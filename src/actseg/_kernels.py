"""Numeric kernels shared by the batch, streaming and enhancement paths.

Callers look each kernel up as ``_kernels.<name>`` at call time, so a
profiler can wrap one by patching the module attribute.
"""

import numpy as np


def resize_nearest(src, out_h, out_w):
    """Nearest-neighbor resize of a (t, c, h, w) array: out[i,j] = src[i*h//out_h, j*w//out_w]."""
    h, w = src.shape[2], src.shape[3]
    rows = (np.arange(out_h) * h) // out_h
    cols = (np.arange(out_w) * w) // out_w
    return np.ascontiguousarray(src[:, :, rows[:, None], cols[None, :]])


def mix_1x1(m, weight, bias):
    """Per-pixel channel mixing: out[t,o,i,j] = sum_c weight[o,c]*m[t,c,i,j] + bias[o]."""
    out = np.einsum("oc,tchw->tohw", weight, m)
    out += bias.reshape(1, -1, 1, 1)
    return out


def bn_residual(base, enh, scale, shift, mean, var):
    """Residual add followed by fixed-statistics batchnorm, per channel."""
    x = base + enh
    c = base.shape[1]
    sc = (scale / np.sqrt(var)).reshape(1, c, 1, 1)
    return (x - mean.reshape(1, c, 1, 1)) * sc + shift.reshape(1, c, 1, 1)


def levenshtein(a, b):
    """Edit distance between two integer sequences (vectorized row recurrence)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0:
        return int(b.size)
    if b.size == 0:
        return int(a.size)
    prev = np.arange(b.size + 1, dtype=np.int64)
    js = np.arange(1, b.size + 1, dtype=np.int64)
    for i in range(1, a.size + 1):
        sub = prev[:-1] + (b != a[i - 1])
        cand = np.minimum(prev[1:] + 1, sub)
        # curr[j] = min(cand[j], curr[j-1]+1) unrolled: curr[j] = j + min(i, min_{k<=j}(cand[k]-k))
        run = np.minimum.accumulate(cand - js)
        curr = np.empty_like(prev)
        curr[0] = i
        curr[1:] = js + np.minimum(run, i)
        prev = curr
    return int(prev[-1])


def gather_mean(table, idx):
    """Row means of table gathered at idx: out[r] = mean_j table[idx[r, j]].

    Accumulates over j sequentially, so a row adds its window in the same
    order whether it arrives alone (the (1, T) streaming call) or inside an
    (n, T) batch; that is what keeps stream and batch labels byte-identical.
    """
    acc = table[idx[:, 0]].astype(np.float64, copy=True)
    for j in range(1, idx.shape[1]):
        acc += table[idx[:, j]]
    acc /= idx.shape[1]
    return acc
