"""Truncated-SVD micro checks against naive references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uscqed.errors import NumericError
from uscqed.tensors import (split_matrix, svd_split, truncation_rank,
                            truncation_ranks)


def rand_tensor(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestContract:
    """The axis-list contract that every split enforces on its caller."""

    def test_repeated_axis_rejected(self):
        with pytest.raises(ValueError, match="repeated axis"):
            svd_split(np.ones((2, 2, 2)), [0, 0], max_rank=2)

    def test_out_of_range_axis_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            svd_split(np.eye(2), [2], max_rank=2)


def reconstruct(res):
    left = res.left_isometry * res.singular_values
    return np.tensordot(left, res.right_isometry, axes=(left.ndim - 1, 0))


class TestSvdSplit:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(12)
        u = rand_tensor(rng, (5,))
        v = rand_tensor(rng, (4,))
        res = svd_split(np.outer(u, v), [0], max_rank=4)
        assert res.rank == 1
        assert res.discarded_weight == pytest.approx(0.0, abs=1e-16)
        np.testing.assert_allclose(reconstruct(res), np.outer(u, v), atol=1e-12)

    def test_identity_hard_cap_splits_multiplet(self):
        res = svd_split(np.eye(2), [0], max_rank=1)
        assert res.rank == 1
        assert res.discarded_weight == pytest.approx(0.5, abs=1e-15)

    def test_reconstruction_error_matches_eigendecomposition(self):
        rng = np.random.default_rng(13)
        t = rand_tensor(rng, (6, 6))
        res = svd_split(t, [0], max_rank=3)
        err2 = np.linalg.norm(t - reconstruct(res)) ** 2
        lam = np.linalg.eigvalsh(t.conj().T @ t)[::-1]  # descending
        assert err2 == pytest.approx(np.sum(lam[3:]), rel=1e-10)
        assert err2 / np.sum(lam) == pytest.approx(res.discarded_weight, abs=1e-10)

    def test_cutoff_is_strict_and_relative(self):
        t = np.diag([1.0, 0.1])
        rel = 0.1 ** 2 / (1 + 0.1 ** 2)
        # strictly-above semantics, probed just off the boundary
        assert svd_split(t, [0], max_rank=10, cutoff=rel * (1 + 1e-9)).rank == 1
        assert svd_split(t, [0], max_rank=10, cutoff=rel * (1 - 1e-9)).rank == 2
        # the cutoff compares relative weights, so rescaling changes nothing
        assert svd_split(1e-7 * t, [0], max_rank=10, cutoff=0.05).rank == 1
        assert svd_split(1e7 * t, [0], max_rank=10, cutoff=0.05).rank == 1
        assert svd_split(t, [0], max_rank=10, cutoff=0.05).rank == 1

    def test_degenerate_multiplet_kept_whole(self):
        rng = np.random.default_rng(14)
        q1, _ = np.linalg.qr(rand_tensor(rng, (3, 3)))
        q2, _ = np.linalg.qr(rand_tensor(rng, (3, 3)))
        t = q1 @ np.diag([1.0, 1.0, 1e-8]) @ q2
        # the cutoff falls on the degenerate pair: keep the larger count
        res = svd_split(t, [0], max_rank=8, cutoff=0.5)
        assert res.rank == 2

    def test_degeneracy_tolerance_boundary(self):
        assert truncation_rank(np.array([1.0, 1.0 - 1e-13, 0.5]), 8, 0.9) == 2
        assert truncation_rank(np.array([1.0, 1.0 - 1e-9, 0.5]), 8, 0.9) == 1

    def test_multi_axis_grouping(self):
        rng = np.random.default_rng(15)
        t = rand_tensor(rng, (2, 3, 4, 2))
        res = svd_split(t, [0, 2], max_rank=100)
        assert res.left_isometry.shape[:2] == (2, 4)
        assert res.right_isometry.shape[1:] == (3, 2)
        back = np.tensordot(res.left_isometry * res.singular_values,
                            res.right_isometry, axes=(2, 0))
        np.testing.assert_allclose(back, t.transpose(0, 2, 1, 3), atol=1e-12)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            svd_split(np.eye(2), [0], max_rank=0)
        with pytest.raises(ValueError):
            svd_split(np.eye(2), [], max_rank=2)
        with pytest.raises(ValueError):
            svd_split(np.eye(2), [0, 1], max_rank=2)
        with pytest.raises(ValueError):
            svd_split(np.eye(2), [0], max_rank=2, cutoff=-1e-3)

    def test_non_finite_rejected(self):
        t = np.eye(3)
        t[1, 1] = np.nan
        with pytest.raises(NumericError):
            svd_split(t, [0], max_rank=2)

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
        res = svd_split(t, [0], max_rank=min(dl, dr))
        u = res.left_isometry
        np.testing.assert_allclose(u.conj().T @ u, np.eye(res.rank), atol=1e-10)
        vh = res.right_isometry
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(res.rank), atol=1e-10)
        assert np.all(np.diff(res.singular_values) <= 1e-14)
        rel_err2 = (np.linalg.norm(t - reconstruct(res)) / np.linalg.norm(t)) ** 2
        assert rel_err2 == pytest.approx(res.discarded_weight, abs=1e-10)


@given(rows=st.lists(st.lists(st.sampled_from([0.0, 1e-15, 1e-6, 0.3, 0.5,
                                               0.5 - 1e-13, 1.0]),
                              min_size=6, max_size=6),
                     min_size=1, max_size=5),
       max_rank=st.integers(1, 7),
       cutoff=st.sampled_from([0.0, 1e-12, 1e-3, 0.1, 0.3]))
@settings(max_examples=200, deadline=None)
def test_truncation_ranks_match_the_loop_rule(rows, max_rank, cutoff):
    s = -np.sort(-np.array(rows), axis=1)
    want = [truncation_rank(row, max_rank, cutoff) for row in s]
    assert truncation_ranks(s, max_rank, cutoff).tolist() == want

