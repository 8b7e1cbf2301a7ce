"""Kernels against direct numpy reductions and the brute-force DP oracle."""

import numpy as np
import pytest

from actseg import _kernels
from oracles import gather_mean_ref, levenshtein_ref


def test_levenshtein_matches_dp_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        a = rng.integers(0, 5, size=int(rng.integers(0, 15)))
        b = rng.integers(0, 5, size=int(rng.integers(0, 15)))
        assert _kernels.levenshtein(a, b) == levenshtein_ref(a, b)


def test_levenshtein_edges():
    empty = np.array([], dtype=np.int64)
    seq = np.array([1, 2, 3], dtype=np.int64)
    assert _kernels.levenshtein(empty, empty) == 0
    assert _kernels.levenshtein(seq, empty) == 3
    assert _kernels.levenshtein(empty, seq) == 3
    assert _kernels.levenshtein(seq, seq) == 0
    # an empty side against one longer than a 64-bit word
    long_seq = np.arange(70) % 4
    assert _kernels.levenshtein(empty, long_seq) == 70
    assert _kernels.levenshtein(long_seq, empty) == 70


def lcg_symbols(n, k, seed):
    """n symbols in [0, k) from a fixed linear congruential generator, so the
    sequence does not depend on the numpy version."""
    out, x = [], seed
    for _ in range(n):
        x = (1103515245 * x + 12345) % 2**31
        out.append((x >> 16) % k)
    return out


@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 1000])
def test_levenshtein_word_boundaries(m):
    # the bit vectors span the longer side: m frames at and around one byte (a mask
    # is packed to whole bytes) and one 64-bit word, and one of many words, against
    # a shorter side, then a longer one
    for seed in range(3 if m < 1000 else 1):
        a = lcg_symbols(m, 5, seed)
        for other in (m // 2, m + 37):
            b = lcg_symbols(other, 5, seed + 100)
            want = levenshtein_ref(a, b)
            assert _kernels.levenshtein(a, b) == want
            assert _kernels.levenshtein(b, a) == want


def test_levenshtein_symbols_on_one_side_only():
    # symbols of b absent from a, and of a absent from b; masks are built only for
    # the shorter side's symbols, over a longer side of more than one 64-bit word:
    # none shared, some shared, and many symbols with few shared
    cases = [([0, 1, 2, 0, 1, 2, 0], [7, 1, 8, 9, 2, 7]),
             (lcg_symbols(130, 5, 6), [7, 8, 9] * 10),
             (lcg_symbols(130, 5, 7), [s + 3 for s in lcg_symbols(50, 5, 8)]),
             (lcg_symbols(130, 300, 9), lcg_symbols(90, 600, 10))]
    # negative labels, with a shorter-side symbol (-9) the longer side lacks, over a
    # longer side just under, at and just over two whole bytes
    cases += [([s - 3 for s in lcg_symbols(m, 5, m)], [-9] + [s - 3 for s in lcg_symbols(7, 5, 1)])
              for m in (15, 16, 17)]
    for a, b in cases:
        want = levenshtein_ref(a, b)
        assert _kernels.levenshtein(a, b) == want
        assert _kernels.levenshtein(b, a) == want
    assert _kernels.levenshtein([5] * 65, [6] * 3) == 65


def test_levenshtein_long_sequences_match_row_recurrence():
    # 8787 is what the former vectorized row recurrence gives on these inputs
    a = lcg_symbols(10_000, 24, 1)
    b = lcg_symbols(1_700, 24, 2)
    assert _kernels.levenshtein(a, b) == 8787
    assert _kernels.levenshtein(b, a) == 8787


def gather_mean(table, idx):
    """Row means at idx through fold_mean, over the T (n, C) slabs one gather builds."""
    return _kernels.fold_mean(list(table[idx.T]), np.empty((idx.shape[0], table.shape[1])))


def test_gather_mean_is_row_mean():
    rng = np.random.default_rng(6)
    table = rng.normal(size=(20, 5))
    idx = rng.integers(0, 20, size=(8, 4))
    out = gather_mean(table, idx)
    assert np.allclose(out, table[idx].mean(axis=1), rtol=1e-12, atol=1e-15)


def test_gather_mean_row_independent_of_batch():
    # a streaming one-row block must give the bytes its row gets in an n-row batch:
    # fold_mean adds the first's slabs as the second's, one by one
    rng = np.random.default_rng(7)
    table = rng.normal(size=(60, 25))
    idx = rng.integers(0, 60, size=(40, 8))
    batch = gather_mean(table, idx)
    for r in range(idx.shape[0]):
        assert gather_mean(table, idx[r:r + 1]).tobytes() == batch[r].tobytes()


@pytest.mark.parametrize("t", [1, 2, 8, 13])
@pytest.mark.parametrize("n", [1, 7, 1024])
def test_gather_mean_adds_each_window_oldest_first(t, n):
    # the bytes of an explicit left fold ((t[i0] + t[i1]) + ...) / T: a kernel that
    # sums pairwise or in reverse on every row would still pass the test above
    rng = np.random.default_rng(100 * t + n)
    table = rng.normal(size=(50, 25)) * 10.0 ** rng.integers(-8, 9, size=(50, 1))
    idx = rng.integers(0, 50, size=(n, t))
    assert gather_mean(table, idx).tobytes() == gather_mean_ref(table, idx).tobytes()


@pytest.mark.parametrize("t", [3, 8, 13])
def test_fold_mean_branches_equal_left_fold_where_order_matters(t):
    # 1e16 + 1 rounds back to 1e16, so a window's sum depends on the order its
    # rows are added in: a batch of rows and one row's slabs must both give the
    # oldest-first fold's bytes. A stream's own window fold is held to the same
    # bytes in test_pipeline.py::TestStreamViewPath
    rng = np.random.default_rng(t)
    table = rng.choice([1e16, 1.0, -1e16], size=(40, 6))
    idx = rng.integers(0, 40, size=(64, t))
    want = gather_mean_ref(table, idx)
    assert np.any(gather_mean_ref(table, idx[:, ::-1]) != want)
    block = table[idx.T]
    out = np.empty((64, 6))
    assert _kernels.fold_mean(list(block), out) is out
    assert out.tobytes() == want.tobytes()
    for r in range(64):
        one = np.empty((1, 6))  # one row's T slabs, as a block of one row gives
        assert _kernels.fold_mean(list(block[:, r:r + 1]), one) is one
        assert one.tobytes() == want[r:r + 1].tobytes()


@pytest.mark.parametrize("t, c_out, c_in, h, w", [
    (1, 4, 4, 5, 7),       # single frame
    (3, 2, 6, 4, 4),       # fewer outputs than inputs
    (2, 7, 3, 3, 5),       # more outputs than inputs
    (4, 3, 5, 1, 1),       # 1x1 grid
    (8, 64, 192, 56, 56),  # deployment shape
])
def test_mix_1x1_matches_einsum(t, c_out, c_in, h, w):
    rng = np.random.default_rng(c_out * c_in + h)
    m = rng.normal(size=(t, c_in, h, w))
    weight = rng.normal(size=(c_out, c_in))
    bias = rng.normal(size=c_out)
    out = np.empty((t, c_out, h, w))
    for k in range(t):  # the kernel mixes one frame into a frame the caller owns
        _kernels.mix_1x1(m[k], weight, bias, out[k])
    ref = np.einsum("oc,tchw->tohw", weight, m) + bias.reshape(1, -1, 1, 1)
    # relative to the sum of |terms|, which bounds any summation order's rounding
    scale = np.einsum("oc,tchw->tohw", np.abs(weight), np.abs(m)) + np.abs(bias).reshape(1, -1, 1, 1)
    assert np.all(np.abs(out - ref) <= 1e-12 * scale)


def test_mix_1x1_row_range_and_no_bias():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(5, 9, 7))
    weight = rng.normal(size=(3, 5))
    out = np.empty((3, 4, 7))
    assert _kernels.mix_1x1(m[:, 2:6], weight, None, out) is out  # a strided row range of m
    assert np.allclose(out, np.einsum("oc,chw->ohw", weight, m[:, 2:6]), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="C-contiguous"):
        _kernels.mix_1x1(m, weight, None, np.empty((3, 9, 8))[:, :, :7])
