"""Kernels against direct numpy reductions and the brute-force DP oracle."""

import numpy as np

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
