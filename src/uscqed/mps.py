"""Matrix product states and operators on an open chain.

Site tensors are rank 3 with axes ``(left bond, physical, right bond)``;
MPO tensors are rank 4 with axes ``(left bond, phys out, phys in, right
bond)``.  Boundary bonds have extent 1.

All public functions treat states as immutable and return new objects;
tensors of unchanged sites are shared, not copied.

Measurements sweep environments, one or a stack, by `_transfer` (Schollwoeck,
Ann. Phys. 326, 96 (2011)).  With the center at site 0 every site right of y
is right-canonical, so that chain contracts with its conjugate to the
identity, and one pass reads ``<op_y>`` and ``<adag_x a_y>`` off traces.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ResourceError, ShapeError
from .tensors import split_matrix

# Hard ceiling on one product site during MPO application (bytes).
APPLY_BYTE_BUDGET = 512 * 2**20


class MPS:
    """Open-chain matrix product state."""

    __slots__ = ("sites", "ortho_center")

    def __init__(self, sites: Sequence[np.ndarray], ortho_center=None):
        sites = [np.asarray(a, dtype=complex) for a in sites]
        if not sites:
            raise ValueError("an MPS needs at least one site")
        if sites[0].shape[0] != 1 or sites[-1].shape[2] != 1:
            raise ShapeError("boundary bonds must have extent 1")
        for i, a in enumerate(sites):
            if a.ndim != 3:
                raise ShapeError(f"site {i} is rank {a.ndim}, expected 3")
            if i and sites[i - 1].shape[2] != a.shape[0]:
                raise ShapeError(
                    f"bond mismatch between sites {i - 1} and {i}: "
                    f"{sites[i - 1].shape[2]} vs {a.shape[0]}")
        if ortho_center is not None and not 0 <= ortho_center < len(sites):
            raise ValueError(f"ortho_center {ortho_center} out of range")
        self.sites = sites
        self.ortho_center = ortho_center

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def local_dims(self) -> list[int]:
        return [a.shape[1] for a in self.sites]

    @property
    def bond_dims(self) -> list[int]:
        return [a.shape[2] for a in self.sites[:-1]]

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims, default=1)


class MPO:
    """Open-chain matrix product operator."""

    __slots__ = ("sites",)

    def __init__(self, sites: Sequence[np.ndarray]):
        sites = [np.asarray(w, dtype=complex) for w in sites]
        if sites[0].shape[0] != 1 or sites[-1].shape[3] != 1:
            raise ShapeError("boundary bonds must have extent 1")
        for i, w in enumerate(sites):
            if w.ndim != 4:
                raise ShapeError(f"MPO site {i} is rank {w.ndim}, expected 4")
            if w.shape[1] != w.shape[2]:
                raise ShapeError(f"MPO site {i} is not square in its physical axes")
            if i and sites[i - 1].shape[3] != w.shape[0]:
                raise ShapeError(f"MPO bond mismatch at sites {i - 1}/{i}")
        self.sites = sites

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def local_dims(self) -> list[int]:
        return [w.shape[1] for w in self.sites]

    @property
    def max_bond(self) -> int:
        return max((w.shape[3] for w in self.sites[:-1]), default=1)


# ---------------------------------------------------------------------------
# construction

def product_state(local_dims: Sequence[int], occupations: Sequence[int]) -> MPS:
    """Bond-1 basis state with the given occupation index per site."""
    if len(local_dims) != len(occupations):
        raise ValueError("local_dims and occupations differ in length")
    sites = []
    for d, n in zip(local_dims, occupations):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} out of range for local dimension {d}")
        a = np.zeros((1, d, 1), dtype=complex)
        a[0, n, 0] = 1.0
        sites.append(a)
    return MPS(sites, ortho_center=0)


def wavepacket_mpo(phi: np.ndarray, creation_ops: Sequence[np.ndarray]) -> MPO:
    """Bond-2 MPO for the packet creation operator ``sum_x phi_x adag_x``.

    ``creation_ops[x]`` is the creation matrix of site x, which also fixes
    that site's local dimension.  Every site is sliced from one bulk
    finite-state-machine tensor, as in `model.hamiltonian_mpo`: the first
    site keeps row 1 (nothing created yet), the last column 0 (done).
    """
    phi = np.asarray(phi, dtype=complex)
    L = len(creation_ops)
    if phi.shape != (L,):
        raise ShapeError(f"phi has shape {phi.shape}, expected ({L},)")
    total = float(np.sum(np.abs(phi) ** 2))
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"packet coefficients not normalized: sum |phi|^2 = {total}")
    sites = []
    for x, ad in enumerate(creation_ops):
        d = len(ad)
        eye = np.eye(d, dtype=complex)
        w = np.zeros((2, d, d, 2), dtype=complex)
        w[0, :, :, 0] = eye
        w[1, :, :, 0] = phi[x] * ad
        w[1, :, :, 1] = eye
        if x == 0:
            w = w[1:]
        if x == L - 1:
            w = w[:, :, :, :1]
        sites.append(w)
    return MPO(sites)


# ---------------------------------------------------------------------------
# canonical form

def _qr_step(sites, i):
    """Left-orthogonalize site i, absorbing the remainder into site i+1."""
    l, d, r = sites[i].shape
    q, rm = np.linalg.qr(sites[i].reshape(l * d, r))
    sites[i] = q.reshape(l, d, -1)
    nl, nd, nr = sites[i + 1].shape
    sites[i + 1] = (rm @ sites[i + 1].reshape(nl, nd * nr)).reshape(-1, nd, nr)


def _rq_step(sites, i):
    """Right-orthogonalize site i, absorbing the remainder into site i-1.

    The RQ factors come from the QR of the conjugate transpose:
    M^H = Q R gives M = R^H Q^H with orthonormal rows in Q^H.
    """
    l, d, r = sites[i].shape
    q, rm = np.linalg.qr(sites[i].reshape(l, d * r).conj().T)
    sites[i] = q.conj().T.reshape(-1, d, r)
    pl, pd, pr = sites[i - 1].shape
    sites[i - 1] = (sites[i - 1].reshape(pl * pd, pr) @ rm.conj().T).reshape(
        pl, pd, -1)


def canonicalize(state: MPS, center: int) -> MPS:
    """Move the orthogonality center to ``center`` without truncation."""
    L = state.L
    if not 0 <= center < L:
        raise ValueError(f"center {center} out of range for L={L}")
    sites = list(state.sites)
    c0 = state.ortho_center
    left_from = 0 if (c0 is None or c0 > center) else c0
    right_from = L - 1 if (c0 is None or c0 < center) else c0
    for i in range(left_from, center):
        _qr_step(sites, i)
    for i in range(right_from, center, -1):
        _rq_step(sites, i)
    return MPS(sites, ortho_center=center)


def norm(state: MPS) -> float:
    """Norm of the state."""
    if state.ortho_center is not None:
        return float(np.linalg.norm(state.sites[state.ortho_center]))
    return math.sqrt(max(overlap(state, state).real, 0.0))


def normalize(state: MPS, center: int = None) -> MPS:
    """Unit-norm copy with its center at ``center``."""
    if center is None:
        center = state.ortho_center if state.ortho_center is not None else 0
    out = canonicalize(state, center)
    sites = list(out.sites)
    raw = np.linalg.norm(sites[center])
    if raw == 0.0:
        raise ValueError("cannot normalize a zero state")
    sites[center] = sites[center] / raw
    return MPS(sites, ortho_center=center)


# ---------------------------------------------------------------------------
# expectation values and overlaps

def _transfer(env, bra_site, ket_site, op=None):
    """env (..., bl, kl) -> (..., br, kr), ``op`` acting on the ket site."""
    if op is not None:
        ket_site = op @ ket_site                           # kl d' kr
    kl, d, kr = ket_site.shape
    bl, _, br = bra_site.shape
    t = env @ ket_site.reshape(kl, d * kr)                 # ... bl (d kr)
    t = t.reshape(*env.shape[:-2], bl * d, kr)
    return bra_site.reshape(bl * d, br).conj().T @ t


def overlap(a: MPS, b: MPS) -> complex:
    """<a|b>."""
    if a.L != b.L:
        raise ShapeError("states have different lengths")
    if a.local_dims != b.local_dims:
        raise ShapeError("states have different local dimensions")
    env = np.ones((1, 1), dtype=complex)
    for sa, sb in zip(a.sites, b.sites):
        env = _transfer(env, sa, sb)
    return complex(env[0, 0])


def expectation_local(state: MPS, op: np.ndarray, site: int) -> complex:
    """Normalized single-site expectation value."""
    op = np.asarray(op)
    d = state.local_dims[site]
    if op.shape != (d, d):
        raise ShapeError(f"operator shape {op.shape} does not match local dim {d}")
    s = canonicalize(state, site)
    c = s.sites[site]
    num = np.tensordot(np.tensordot(c.conj(), op, axes=(1, 0)),
                       c, axes=((0, 2, 1), (0, 1, 2)))
    den = np.vdot(c, c)
    return complex(num / den)


def site_expectations(state: MPS, ops: Sequence[np.ndarray],
                      extra: Sequence = ()) -> np.ndarray:
    """Normalized ``<op_x>`` for one operator per site, in one O(L D^3) sweep.

    ``extra`` holds further ``(site, op)`` pairs read off the same sweep;
    their values follow the L per-site ones in the returned array.
    """
    L = state.L
    if len(ops) != L:
        raise ShapeError("need exactly one operator per site")
    extra = list(extra)
    if any(not 0 <= site < L for site, _ in extra):
        raise ValueError("extra operator site out of range")
    env = np.ones((1, 1), dtype=complex)
    out = np.empty(L + len(extra), dtype=complex)
    for x, (a, op) in enumerate(zip(normalize(state, 0).sites, ops)):
        out[x] = np.trace(_transfer(env, a, a, op))
        for j, (site, op_j) in enumerate(extra):
            if site == x:
                out[L + j] = np.trace(_transfer(env, a, a, op_j))
        env = _transfer(env, a, a)
    return out


def product_expectation(state: MPS, ops: Sequence[np.ndarray]) -> complex:
    """Normalized expectation of a product operator (one factor per site)."""
    if len(ops) != state.L:
        raise ShapeError("need exactly one operator per site")
    env = np.ones((1, 1), dtype=complex)
    for a, op in zip(state.sites, ops):
        env = _transfer(env, a, a, op)
    return complex(env[0, 0] / norm(state) ** 2)


def correlator_matrix(state: MPS, a_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Hermitian ``C[x, y] = <adag_x a_y>``; the sweep carries the left
    environment and, stacked, the open rows ``<adag_x ...`` of all x < y."""
    L = state.L
    C = np.zeros((L, L), dtype=complex)
    env = np.ones((1, 1), dtype=complex)
    rows = np.zeros((0, 1, 1), dtype=complex)
    for y, (a, a_y) in enumerate(zip(normalize(state, 0).sites, a_ops)):
        adag_y = np.conj(a_y).T
        C[:y, y] = np.trace(_transfer(rows, a, a, a_y), axis1=1, axis2=2)
        C[y, y] = np.trace(_transfer(env, a, a, adag_y @ a_y))
        rows = np.concatenate([_transfer(rows, a, a),
                               _transfer(env, a, a, adag_y)[None]])
        env = _transfer(env, a, a)
    return C + np.triu(C, 1).conj().T


def local_matrix_elements(bra: MPS, ket: MPS, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Unnormalized ``<bra| op_x |ket>`` for each site x."""
    L = bra.L
    if ket.L != L or bra.local_dims != ket.local_dims:
        raise ShapeError("bra and ket are incompatible")
    lefts = [np.ones((1, 1), dtype=complex)]
    for i in range(L - 1):
        lefts.append(_transfer(lefts[-1], bra.sites[i], ket.sites[i]))
    right = np.ones((1, 1), dtype=complex)
    out = np.empty(L, dtype=complex)
    for i in range(L - 1, -1, -1):
        mid = _transfer(lefts[i], bra.sites[i], ket.sites[i], ops[i])
        out[i] = np.tensordot(mid, right, axes=((0, 1), (0, 1)))
        # a right environment is a left one of the mirrored sites
        right = _transfer(right, bra.sites[i].transpose(2, 1, 0),
                          ket.sites[i].transpose(2, 1, 0))
    return out


# ---------------------------------------------------------------------------
# compression and MPO application

def compress(state: MPS, max_rank: int, cutoff: float):
    """Truncate every bond to ``max_rank`` under the relative cutoff.

    The center goes to the last site, then one right-to-left sweep of
    `split_matrix` (which rejects non-finite entries) cuts each bond,
    leaving every site but the first right-canonical.  Returns ``(state,
    truncation_error)``, the state canonical at site 0 and the error the
    total lost squared weight, ``1 - prod(1 - w_bond)``.
    """
    sites = list(canonicalize(state, state.L - 1).sites)
    kept = 1.0
    for x in range(state.L - 1, 0, -1):
        l, d, r = sites[x].shape
        u, s, vh, w = split_matrix(sites[x].reshape(l, d * r), max_rank, cutoff)
        kept *= 1.0 - w
        sites[x] = vh.reshape(-1, d, r)
        pl, pd, _ = sites[x - 1].shape
        sites[x - 1] = (sites[x - 1].reshape(pl * pd, l)
                        @ (u * s)).reshape(pl, pd, -1)
    return MPS(sites, ortho_center=0), 1.0 - kept


def _mpo_transfer(env, site, w):
    """env (bl, wl, kl) -> (br, wr, kr), bra = ket = ``site``.

    The index order is (bra, mpo, ket) on both sides; ``site`` is
    ``(kl, d, kr)`` and ``w`` is ``(wl, d out, d in, wr)``.  A right
    environment is a left one of the mirrored chain: pass
    ``site.transpose(2, 1, 0)`` and ``w.transpose(3, 1, 2, 0)``.
    """
    bl, wl, kl = env.shape
    _, d, kr = site.shape
    wr = w.shape[3]
    t = (env.reshape(bl * wl, kl) @ site.reshape(kl, d * kr)).reshape(
        bl, wl * d, kr)                                    # bl (wl d) kr
    t = w.transpose(1, 3, 0, 2).reshape(d * wr, wl * d) @ t  # bl (o wr) kr
    return (site.reshape(bl * d, -1).conj().T
            @ t.reshape(bl * d, wr * kr)).reshape(-1, wr, kr)


def mpo_expectation(state: MPS, op: MPO) -> complex:
    """Normalized ``<psi|O|psi>``."""
    if op.local_dims != state.local_dims:
        raise ShapeError("operator and state local dimensions differ")
    env = np.ones((1, 1, 1), dtype=complex)    # (bra, mpo, ket)
    for a, w in zip(state.sites, op.sites):
        env = _mpo_transfer(env, a, w)
    return complex(env[0, 0, 0] / norm(state) ** 2)


def apply_mpo(state: MPS, op: MPO, max_rank: int, cutoff: float):
    """Apply an MPO exactly, then `compress`; returns ``(state, truncation_error)``.

    Each product site ``W A`` carries the bonds ``(al wl, ar wr)``; one
    compression sweep truncates them, so the reported error is the squared
    weight lost against the exact product (Schollwoeck, Ann. Phys. 326, 96
    (2011), sec. 4.5).
    """
    if op.local_dims != state.local_dims:
        raise ShapeError("operator and state local dimensions differ")
    sites = []
    for i, (a, w) in enumerate(zip(state.sites, op.sites)):
        (al, d, ar), wl, wr = a.shape, w.shape[0], w.shape[3]
        need = al * wl * d * ar * wr * 16
        if need > APPLY_BYTE_BUDGET:
            raise ResourceError(
                f"MPO application explodes at bond {i}: "
                f"product site of {need} bytes exceeds the budget")
        t = np.tensordot(w, a, axes=(2, 1))              # wl o wr al ar
        sites.append(t.transpose(3, 0, 1, 4, 2).reshape(al * wl, d, ar * wr))
    return compress(MPS(sites), max_rank, cutoff)
