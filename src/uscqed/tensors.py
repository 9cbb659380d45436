"""Dense complex tensor algebra: the truncated SVD split.

Conventions used throughout the package:

* tensors are numpy ``complex128`` arrays in row-major (C) order,
* axis lists refer to positions in ``tensor.shape``,
* SVD truncation uses a cutoff on the relative squared singular-value
  weight, never on absolute values, so it is scale invariant.

`split_matrix` is the kernel every sequential truncating sweep calls: the
caller reshapes its tensor into a matrix itself, so the kernel is one
finiteness check, one ``np.linalg.svd`` (gesdd, with a gesvd fallback) and
`truncation_rank`.  The TEBD stage kernel splits a stack of equal-shape
matrices at once through the same `svd` and `truncation_ranks`.
`svd_split` is the general form on axis groups, with validated axis lists,
for callers that hold a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericError

# Singular values closer than this (relatively) count as one degenerate
# multiplet; the cutoff never splits such a group.
DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD of a tensor split into a left and a right axis group."""

    left_isometry: np.ndarray    # left extents + (rank,)
    singular_values: np.ndarray  # descending, >= 0
    right_isometry: np.ndarray   # (rank,) + right extents
    discarded_weight: float      # dropped squared weight / total squared weight

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)


def _check_axes(axes, ndim: int, name: str) -> list[int]:
    axes = [int(ax) for ax in axes]
    norm = [ax % ndim if -ndim <= ax < ndim else ax for ax in axes]
    for ax in norm:
        if not 0 <= ax < ndim:
            raise ValueError(f"{name}: axis {ax} out of range for rank-{ndim} tensor")
    if len(set(norm)) != len(norm):
        raise ValueError(f"{name}: repeated axis in {axes}")
    return norm


def _gesvd(m: np.ndarray):
    return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")


def svd(m: np.ndarray):
    """Thin SVD of a matrix, or of a stack of equal-shape matrices in one
    launch.

    gesdd (numpy's driver, with less call overhead than scipy's wrapper) is
    fast but occasionally fails on ill-conditioned input; the slower, more
    robust gesvd then takes over, matrix by matrix for a stack.
    """
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        if m.ndim == 2:
            return _gesvd(m)
        return tuple(np.stack(f) for f in zip(*map(_gesvd, m)))


def truncation_ranks(s: np.ndarray, max_rank: int, cutoff: float) -> np.ndarray:
    """`truncation_rank` of every row of ``s``, shape ``(n, r)``, in a few
    array operations; for one row the loop of `truncation_rank` is faster."""
    n, r = s.shape
    if r == 0:
        return np.zeros(n, dtype=int)
    sq = s * s
    total = np.sum(sq, axis=1)
    nonzero = np.maximum(np.sum(s > s[:, :1] * 1e-14, axis=1), 1)
    keep = np.maximum(np.sum(sq > cutoff * total[:, None], axis=1), 1)
    # grow keep to the first j >= keep that ends its multiplet: s[j] is
    # split from s[j-1], j reaches the nonzero count, or j == r
    j = np.arange(1, r + 1)
    ends = np.ones((n, r), dtype=bool)
    ends[:, :-1] = s[:, 1:] < s[:, :-1] * (1.0 - DEGENERACY_RTOL)
    ends |= j >= nonzero[:, None]
    keep = j[np.argmax(ends & (j >= keep[:, None]), axis=1)]
    return np.minimum(np.minimum(keep, nonzero), max_rank)


def truncation_rank(s: np.ndarray, max_rank: int, cutoff: float) -> int:
    """Kept rank under the relative squared-weight cutoff.

    Keeps every value with ``s_i^2 / sum(s^2)`` strictly above ``cutoff``
    (at least one), extends the kept set so a degenerate multiplet is never
    split by the cutoff, then caps at ``max_rank``.  The cap is hard: it may
    split a multiplet, and the discarded weight accounts for that honestly.

    Values below ``s[0] * 1e-14`` are numerical noise and are never kept,
    regardless of cutoff; their relative weight is below 1e-28.
    """
    total = float(np.sum(s * s))
    if total == 0.0:
        return min(1, max_rank, s.size) if s.size else 0
    nonzero = max(int(np.sum(s > s[0] * 1e-14)), 1)
    keep = int(np.sum(s * s > cutoff * total))
    keep = max(keep, 1)
    while keep < nonzero and s[keep] >= s[keep - 1] * (1.0 - DEGENERACY_RTOL):
        keep += 1
    return min(keep, nonzero, max_rank)


def split_matrix(m: np.ndarray, max_rank: int, cutoff: float):
    """Truncated SVD of a matrix; returns ``(u, s, vh, discarded_weight)``."""
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    if cutoff < 0.0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if not np.all(np.isfinite(m)):
        raise NumericError("input to SVD contains non-finite entries")
    u, s, vh = svd(m)
    keep = truncation_rank(s, max_rank, cutoff)
    total = float(np.sum(s * s))
    discarded = float(np.sum(s[keep:] ** 2)) / total if total > 0.0 else 0.0
    return u[:, :keep], s[:keep], vh[:keep], discarded


def svd_split(t: np.ndarray, left_axes, max_rank: int, cutoff: float = 0.0) -> SvdResult:
    """Split ``t`` across the bipartition selected by ``left_axes``.

    ``left_axes`` must be a nonempty strict subset of the axes of ``t``.
    The returned isometries carry the original extents of their axis group
    plus the kept-rank bond.
    """
    t = np.asarray(t, dtype=complex)
    left_axes = _check_axes(left_axes, t.ndim, "left_axes")
    if not left_axes or len(left_axes) >= t.ndim:
        raise ValueError("left_axes must be a nonempty strict subset of the tensor axes")
    right_axes = [ax for ax in range(t.ndim) if ax not in left_axes]
    lshape = tuple(t.shape[ax] for ax in left_axes)
    rshape = tuple(t.shape[ax] for ax in right_axes)
    m = t.transpose(left_axes + right_axes).reshape(
        int(np.prod(lshape)), int(np.prod(rshape)))
    u, s, vh, discarded = split_matrix(m, max_rank, cutoff)
    keep = s.size
    return SvdResult(
        left_isometry=np.ascontiguousarray(u.reshape(lshape + (keep,))),
        singular_values=s,
        right_isometry=np.ascontiguousarray(vh.reshape((keep,) + rshape)),
        discarded_weight=discarded,
    )
