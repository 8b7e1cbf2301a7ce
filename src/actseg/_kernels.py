"""Numeric kernels shared by the batch, streaming and enhancement paths.

Callers look each kernel up as ``_kernels.<name>`` at call time, so a
profiler can wrap one by patching the module attribute.
"""

import numpy as np


def nearest_index(n_in, n_out, lo=0, hi=None):
    """Source cells of output cells lo..hi-1 when n_in cells resize to n_out: i*n_in//n_out."""
    return (np.arange(lo, n_out if hi is None else hi) * n_in) // n_out


def gather_cells(src, rows, cols):
    """out[..., i, j] = src[..., rows[i], cols[j]] over the last two axes, C-contiguous.

    One take per axis: fancy indexing both axes at once yields a transposed
    memory layout, and copying or adding that into a C-ordered array costs
    several times the gather itself.
    """
    return np.take(np.take(src, rows, axis=-2), cols, axis=-1)


def resize_nearest(src, out_h, out_w):
    """Nearest-neighbor resize of a (t, c, h, w) array: out[i,j] = src[i*h//out_h, j*w//out_w]."""
    return gather_cells(src, nearest_index(src.shape[2], out_h), nearest_index(src.shape[3], out_w))


def mix_1x1(m, weight, bias, out):
    """Per-pixel channel mixing of one frame: out[o,i,j] = sum_c weight[o,c]*m[c,i,j] + bias[o].

    m is a (c, h, w) frame whose (c, h*w) pixel columns reshape as a view, so
    nothing is copied. The product lands in out, a C-contiguous (c_out, h, w)
    frame the caller owns, by one BLAS matrix product; the bias is added while
    the frame is still in cache, and bias None adds nothing.
    """
    if not out.flags.c_contiguous:
        raise ValueError("mix_1x1 writes into a C-contiguous frame")
    cols = out.reshape(out.shape[0], -1)
    np.matmul(weight, m.reshape(m.shape[0], -1), out=cols)
    if bias is not None:
        cols += bias[:, None]
    return out


def bn_residual(base, enh, scale, shift, mean, var):
    """Residual add followed by fixed-statistics batchnorm, per channel."""
    x = base + enh
    c = base.shape[1]
    sc = (scale / np.sqrt(var)).reshape(1, c, 1, 1)
    return (x - mean.reshape(1, c, 1, 1)) * sc + shift.reshape(1, c, 1, 1)


def levenshtein(a, b):
    """Edit distance between two integer sequences.

    Bit-parallel recurrence of Myers (1999) in Hyyrö's (2001) form for
    Levenshtein distance: the DP matrix's vertical and horizontal +1/-1
    deltas for one column are bit vectors over the longer sequence, held
    in Python ints, so a column costs a few big-int operations instead of
    a loop over its cells, and the loop runs over the shorter sequence's
    columns.
    """
    a = np.asarray(a, dtype=np.int64).tolist()
    b = np.asarray(b, dtype=np.int64).tolist()
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    if m == 0:
        return len(b)
    peq = {}                       # symbol -> bit i set where a[i] is that symbol
    for i, sym in enumerate(a):
        peq[sym] = peq.get(sym, 0) | (1 << i)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    vp, vn, dist = full, 0, m      # column 0: D[i][0] = i, all vertical deltas +1
    for sym in b:
        eq = peq.get(sym, 0)
        xv = eq | vn
        xh = ((((eq & vp) + vp) ^ vp) | eq) & full
        hp = vn | (full ^ (xh | vp))
        hn = vp & xh
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        hp = ((hp << 1) | 1) & full    # row 0: D[0][j] = j, a +1 shifts in
        hn = (hn << 1) & full
        vp = hn | (full ^ (xv | hp))
        vn = hp & xv
    return dist


def fold_mean(slabs, out):
    """Mean of T slabs, the left fold ((s0 + s1) + ...) / T, into out, a buffer the caller owns.

    slabs is a sequence of T (m, C) slabs; their mean is (m, C). Every window
    mean of the offline path comes from here, so a row adds its window in the
    same order whether its slab is sliced or gathered and whatever its block.
    A StreamSession sums its one (T, C) window with np.add.accumulate, which is
    defined as the same fold (the same IEEE adds in the same order): that is
    what keeps stream and batch labels byte-identical. Here slabs are added one
    by one into out, because accumulate over 1,024 rows takes 8-9 times as
    long. np.add.reduce and sum do not document their summation order, so they
    are not used.
    """
    out[...] = slabs[0]
    for slab in slabs[1:]:
        out += slab
    out /= len(slabs)
    return out
