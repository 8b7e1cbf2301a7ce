"""Kernels against direct numpy reductions and the brute-force DP oracle."""

import numpy as np
import pytest

from actseg import _kernels
from oracles import levenshtein_ref


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


@pytest.mark.parametrize("m", [1, 63, 64, 65, 1000])
def test_levenshtein_word_boundaries(m):
    # the bit vectors span the shorter side: lengths at and around one
    # 64-bit word, and one of many words
    for seed in range(3 if m < 1000 else 1):
        a = lcg_symbols(m, 5, seed)
        b = lcg_symbols(m + 37, 5, seed + 100)
        want = levenshtein_ref(a, b)
        assert _kernels.levenshtein(a, b) == want
        assert _kernels.levenshtein(b, a) == want


def test_levenshtein_symbols_on_one_side_only():
    # symbols of b absent from a, and of a absent from b
    a = [0, 1, 2, 0, 1, 2, 0]
    b = [7, 1, 8, 9, 2, 7]
    assert _kernels.levenshtein(a, b) == levenshtein_ref(a, b)
    assert _kernels.levenshtein(b, a) == levenshtein_ref(a, b)
    assert _kernels.levenshtein([5] * 65, [6] * 3) == 65


def test_levenshtein_long_sequences_match_row_recurrence():
    # 8787 is what the former vectorized row recurrence gives on these inputs
    a = lcg_symbols(10_000, 24, 1)
    b = lcg_symbols(1_700, 24, 2)
    assert _kernels.levenshtein(a, b) == 8787
    assert _kernels.levenshtein(b, a) == 8787


def test_gather_mean_is_row_mean():
    rng = np.random.default_rng(6)
    table = rng.normal(size=(20, 5))
    idx = rng.integers(0, 20, size=(8, 4))
    out = _kernels.gather_mean(table, idx)
    assert np.allclose(out, table[idx].mean(axis=1), rtol=1e-12, atol=1e-15)


def test_gather_mean_row_independent_of_batch():
    # a streaming (1, T) call must give the bytes its row gets in an (n, T) batch
    rng = np.random.default_rng(7)
    table = rng.normal(size=(60, 25))
    idx = rng.integers(0, 60, size=(40, 8))
    batch = _kernels.gather_mean(table, idx)
    for r in range(idx.shape[0]):
        assert _kernels.gather_mean(table, idx[r:r + 1]).tobytes() == batch[r].tobytes()


@pytest.mark.parametrize("t", [1, 2, 8, 13])
@pytest.mark.parametrize("n", [1, 7, 1024])
def test_gather_mean_adds_each_window_oldest_first(t, n):
    # the bytes of an explicit left fold ((t[i0] + t[i1]) + ...) / T: a kernel that
    # sums pairwise or in reverse on every row would still pass the test above
    rng = np.random.default_rng(100 * t + n)
    table = rng.normal(size=(50, 25)) * 10.0 ** rng.integers(-8, 9, size=(50, 1))
    idx = rng.integers(0, 50, size=(n, t))
    want = np.empty((n, 25))
    for r in range(n):
        for c in range(25):
            acc = float(table[idx[r, 0], c])
            for j in range(1, t):
                acc = acc + float(table[idx[r, j], c])
            want[r, c] = acc / t
    assert _kernels.gather_mean(table, idx).tobytes() == want.tobytes()


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
    out = _kernels.mix_1x1(m, weight, bias)
    ref = np.einsum("oc,tchw->tohw", weight, m) + bias.reshape(1, -1, 1, 1)
    # relative to the sum of |terms|, which bounds any summation order's rounding
    scale = np.einsum("oc,tchw->tohw", np.abs(weight), np.abs(m)) + np.abs(bias).reshape(1, -1, 1, 1)
    assert out.shape == (t, c_out, h, w)
    assert np.all(np.abs(out - ref) <= 1e-12 * scale)
