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

    One take of the flat cell indices rows[i] * w + cols[j] from the last two
    axes seen as one: the taken cells come out in C order.
    """
    *lead, h, w = src.shape
    flat = (rows[:, None] * w + cols).ravel()
    return np.take(src.reshape(*lead, h * w), flat, axis=-1).reshape(*lead, rows.size, cols.size)


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
    columns. The distance is read once, after the loop: D[m][n] is
    D[0][n] = n plus the last column's vertical deltas, the set bits of vp
    less those of vn. An empty shorter side leaves column 0, all +1, so m.

    The columns look up only the shorter sequence's symbols, so a match mask
    is built per symbol of it: np.packbits of a == symbol, read as one
    little-endian int. That costs symbols x m byte comparisons, cheap for a
    small alphabet such as a class set; past a few hundred distinct symbols
    the masks dominate.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size < b.size:
        a, b = b, a
    syms, cols = np.unique(b, return_inverse=True)
    # bit i: a[i] is the symbol; packbits pads the last byte with zeros
    peq = [int.from_bytes(np.packbits(a == s, bitorder="little").tobytes(), "little")
           for s in syms.tolist()]
    full = (1 << a.size) - 1
    vp, vn = full, 0               # column 0: D[i][0] = i, all vertical deltas +1
    for col in cols.tolist():
        eq = peq[col]
        xv = eq | vn
        xh = ((((eq & vp) + vp) ^ vp) | eq) & full
        hp = vn | (full ^ (xh | vp))
        hn = vp & xh
        hp = ((hp << 1) | 1) & full    # row 0: D[0][j] = j, a +1 shifts in
        hn = (hn << 1) & full
        vp = hn | (full ^ (xv | hp))
        vn = hp & xv
    return b.size + vp.bit_count() - vn.bit_count()


def fold_mean(slabs, out):
    """Mean of T slabs, the left fold ((s0 + s1) + ...) / T, into out, a buffer the caller owns.

    slabs is a sequence of T (m, C) slabs; their mean is (m, C). Every window
    mean of run_file and every clamped one of a StreamSession comes from here, so
    a row adds its window in one order whether its slab is sliced or gathered.
    A push of a full window sums its (T, C) rows with np.add.accumulate, which is
    defined as the same fold (the same IEEE adds in the same order): that is
    what keeps stream and batch labels byte-identical. Here slabs are added one
    by one into out, because accumulate over 1,024 rows takes 8-9 times as
    long; the first add writes s0 + s1 straight into out, and only a single
    slab is copied. np.add.reduce and sum do not document their summation
    order, so they are not used.
    """
    if len(slabs) == 1:
        out[...] = slabs[0]
    else:
        np.add(slabs[0], slabs[1], out=out)
    for slab in slabs[2:]:
        out += slab
    out /= len(slabs)
    return out
