"""Truncated-SVD micro checks against naive references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uscqed.errors import NumericError
from uscqed.tensors import split_matrix, truncation_rank, truncation_ranks


def rand_tensor(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def reconstruct(u, s, vh):
    return (u * s) @ vh


class TestSvdSplit:
    """The truncation rules of the truncated SVD split, `split_matrix`."""

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(12)
        u = rand_tensor(rng, (5,))
        v = rand_tensor(rng, (4,))
        left, s, right, discarded = split_matrix(np.outer(u, v), max_rank=4,
                                                 cutoff=0.0)
        assert s.size == 1
        assert discarded == pytest.approx(0.0, abs=1e-16)
        np.testing.assert_allclose(reconstruct(left, s, right), np.outer(u, v),
                                   atol=1e-12)

    def test_identity_hard_cap_splits_multiplet(self):
        _, s, _, discarded = split_matrix(np.eye(2), max_rank=1, cutoff=0.0)
        assert s.size == 1
        assert discarded == pytest.approx(0.5, abs=1e-15)

    def test_reconstruction_error_matches_eigendecomposition(self):
        rng = np.random.default_rng(13)
        t = rand_tensor(rng, (6, 6))
        u, s, vh, discarded = split_matrix(t, max_rank=3, cutoff=0.0)
        err2 = np.linalg.norm(t - reconstruct(u, s, vh)) ** 2
        lam = np.linalg.eigvalsh(t.conj().T @ t)[::-1]  # descending
        assert err2 == pytest.approx(np.sum(lam[3:]), rel=1e-10)
        assert err2 / np.sum(lam) == pytest.approx(discarded, abs=1e-10)

    def test_cutoff_is_strict_and_relative(self):
        def rank(m, cutoff):
            return split_matrix(m, max_rank=10, cutoff=cutoff)[1].size

        t = np.diag([1.0, 0.1])
        rel = 0.1 ** 2 / (1 + 0.1 ** 2)
        # strictly-above semantics, probed just off the boundary
        assert rank(t, rel * (1 + 1e-9)) == 1
        assert rank(t, rel * (1 - 1e-9)) == 2
        # the cutoff compares relative weights, so rescaling changes nothing
        assert rank(1e-7 * t, 0.05) == 1
        assert rank(1e7 * t, 0.05) == 1
        assert rank(t, 0.05) == 1

    def test_degenerate_multiplet_kept_whole(self):
        rng = np.random.default_rng(14)
        q1, _ = np.linalg.qr(rand_tensor(rng, (3, 3)))
        q2, _ = np.linalg.qr(rand_tensor(rng, (3, 3)))
        t = q1 @ np.diag([1.0, 1.0, 1e-8]) @ q2
        # the cutoff falls on the degenerate pair: keep the larger count
        _, s, _, _ = split_matrix(t, max_rank=8, cutoff=0.5)
        assert s.size == 2

    def test_degeneracy_tolerance_boundary(self):
        assert truncation_rank(np.array([1.0, 1.0 - 1e-13, 0.5]), 8, 0.9) == 2
        assert truncation_rank(np.array([1.0, 1.0 - 1e-9, 0.5]), 8, 0.9) == 1

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            split_matrix(np.eye(2), max_rank=0, cutoff=0.0)
        with pytest.raises(ValueError):
            split_matrix(np.eye(2), max_rank=2, cutoff=-1e-3)

    def test_non_finite_rejected(self):
        t = np.eye(3)
        t[1, 1] = np.nan
        with pytest.raises(NumericError):
            split_matrix(t, max_rank=2, cutoff=0.0)

    def test_falls_back_to_gesvd_when_gesdd_fails(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = rand_tensor(rng, (4, 6))
        calls = []

        def failing_svd(*args, **kwargs):
            calls.append(args[0].shape)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        u, s, vh, discarded = split_matrix(m, max_rank=4, cutoff=0.0)
        assert calls == [(4, 6)]
        np.testing.assert_allclose((u * s) @ vh, m, atol=1e-12)
        assert discarded == 0.0

    @given(dl=st.integers(1, 8), dr=st.integers(1, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_isometry_and_full_rank_reconstruction(self, dl, dr, seed):
        rng = np.random.default_rng(seed)
        t = rand_tensor(rng, (dl, dr))
        u, s, vh, discarded = split_matrix(t, max_rank=min(dl, dr), cutoff=0.0)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(s.size), atol=1e-10)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(s.size), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-14)
        rel_err2 = (np.linalg.norm(t - reconstruct(u, s, vh))
                    / np.linalg.norm(t)) ** 2
        assert rel_err2 == pytest.approx(discarded, abs=1e-10)


# rows as wide as a stage's (up to 20 values at max_rank 10), where np.sum
# adds pairwise rather than in order
@given(rows=st.integers(6, 20).flatmap(lambda r: st.lists(
           st.lists(st.sampled_from([0.0, 1e-15, 1e-6, 0.3, 0.5, 0.5 - 1e-13,
                                     1.0]), min_size=r, max_size=r),
           min_size=1, max_size=5)),
       max_rank=st.integers(1, 21),
       cutoff=st.sampled_from([0.0, 1e-12, 1e-3, 0.1, 0.3]))
@settings(max_examples=200, deadline=None)
def test_truncation_ranks_match_the_loop_rule(rows, max_rank, cutoff):
    s = -np.sort(-np.array(rows), axis=1)
    want = [truncation_rank(row, max_rank, cutoff) for row in s]
    keep, kept = truncation_ranks(s, max_rank, cutoff)
    assert keep.tolist() == want
    # the kept fraction of each row's squared weight, 1 for a zero row
    total = np.sum(s * s, axis=1)
    head = [np.sum(row[:k] ** 2) for row, k in zip(s, want)]
    np.testing.assert_allclose(kept, np.where(total > 0, head, 1.0)
                               / np.where(total > 0, total, 1.0), rtol=1e-14)


def test_truncation_ranks_match_the_loop_rule_at_cutoff_ties():
    # a cutoff at s_i^2 / sum(s^2) (and one ulp either side) decides on the
    # last bits of the total, so both rules must add it alike
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = -np.sort(-rng.random((1, 12)), axis=1)
        total = np.sum(s[0] ** 2)
        for i in range(1, 12):
            c = s[0, i] ** 2 / total
            for cutoff in (np.nextafter(c, 0), c, np.nextafter(c, 1)):
                keep, _ = truncation_ranks(s, 12, cutoff)
                assert keep[0] == truncation_rank(s[0], 12, cutoff)

