"""Coupled-cavity chain with an embedded scatterer at site j0.

H = sum_x n_x + J sum_x (adag_{x+1} a_x + h.c.) + Delta * n_sc
    + g * coupling, with the on-site photon energy as the unit of
frequency.  The scatterer (a two-level system, or a bosonic mode for the
linear variant) is fused with cavity j0 into one site of dimension
``d_sc * (n_max + 1)``, scatterer-major: local index s = m_sc*(n_max+1) + n.
This keeps the Hamiltonian strictly nearest-neighbor, the prerequisite for
even/odd bond Trotterization.

``coupling_mode="full"`` couples g*(b + bdag)(a + adag); ``"rwa"`` keeps
only the excitation-conserving half g*(bdag a + b adag).

`trotter_gates` stores each bond gate of a `Stage` as a ``(dl*dr, dl*dr)``
matrix acting on the fused two-site index ``i*dr + j``, the form the TEBD
kernel multiplies into theta.  It also records which bonds have a term
that annihilates the two-site vacuum |00> (column 0 exactly zero): all
bonds in rwa mode, all but the two at j0 in full coupling, whose
counter-rotating term creates pairs from the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError
from .mps import (MPO, MPS, product_expectation, site_expectations,
                  wavepacket_mpo)


@dataclass(frozen=True)
class ModelParams:
    L: int
    g: float
    j0: int
    n_max: int = 4
    J: float = -1.0 / math.pi
    Delta: float = 1.0
    coupling_mode: str = "full"
    scatterer: str = "qubit"
    boundary: str = "open"
    mirror_dx: int = 20

    def __post_init__(self):
        if not 0 <= self.j0 < self.L:
            raise ConfigError(f"j0={self.j0} outside the chain of L={self.L}")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.g < 0:
            raise ConfigError("g must be >= 0")
        if self.coupling_mode not in ("full", "rwa"):
            raise ConfigError(f"unknown coupling_mode {self.coupling_mode!r}")
        if self.scatterer not in ("qubit", "boson"):
            raise ConfigError(f"unknown scatterer {self.scatterer!r}")
        if self.boundary not in ("open", "mirror"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        if self.boundary == "mirror":
            if self.mirror_dx < 1:
                raise ConfigError("mirror_dx must be >= 1")
            # the wall sits mirror_dx sites past the scatterer
            if self.L != self.j0 + self.mirror_dx + 1:
                raise ConfigError(
                    f"mirror boundary requires L = j0 + mirror_dx + 1, got "
                    f"L={self.L}, j0={self.j0}, mirror_dx={self.mirror_dx}")

    @property
    def scatterer_dim(self) -> int:
        return 2 if self.scatterer == "qubit" else self.n_max + 1

    @property
    def photon_dim(self) -> int:
        return self.n_max + 1

    def local_dims(self) -> list[int]:
        dims = [self.photon_dim] * self.L
        dims[self.j0] = self.scatterer_dim * self.photon_dim
        return dims


# ---------------------------------------------------------------------------
# local operators

def _fock_lowering(d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    return a


def photon_annihilator(params: ModelParams, x: int) -> np.ndarray:
    a = _fock_lowering(params.photon_dim)
    if x == params.j0:
        return np.kron(np.eye(params.scatterer_dim), a)
    return a


def photon_annihilators(params: ModelParams) -> list[np.ndarray]:
    return [photon_annihilator(params, x) for x in range(params.L)]


def photon_number_ops(params: ModelParams) -> list[np.ndarray]:
    ops = []
    for x in range(params.L):
        a = photon_annihilator(params, x)
        ops.append(a.conj().T @ a)
    return ops


def scatterer_lowering(params: ModelParams) -> np.ndarray:
    """Lowering operator of the bare scatterer, embedded in the fused site."""
    if params.scatterer == "qubit":
        b = np.array([[0, 1], [0, 0]], dtype=complex)  # |down>=0, |up>=1
    else:
        b = _fock_lowering(params.scatterer_dim)
    return np.kron(b, np.eye(params.photon_dim))


def scatterer_number(params: ModelParams) -> np.ndarray:
    b = scatterer_lowering(params)
    return b.conj().T @ b


def parity_factors(params: ModelParams) -> list[np.ndarray]:
    """Local factors of the parity operator (-1)^{N_exc}, one per site."""
    par_ph = np.diag([(-1.0) ** n for n in range(params.photon_dim)]).astype(complex)
    par_sc = np.diag([(-1.0) ** n for n in range(params.scatterer_dim)]).astype(complex)
    ops = [par_ph.copy() for _ in range(params.L)]
    ops[params.j0] = np.kron(par_sc, par_ph)
    return ops


def onsite_terms(params: ModelParams) -> list[np.ndarray]:
    """Per-site diagonal-plus-coupling terms (photon energy, gap, coupling)."""
    out = []
    for x in range(params.L):
        a = photon_annihilator(params, x)
        h = a.conj().T @ a
        if x == params.j0:
            b = scatterer_lowering(params)
            h = h + params.Delta * (b.conj().T @ b)
            if params.coupling_mode == "full":
                h = h + params.g * ((b + b.conj().T) @ (a + a.conj().T))
            else:
                h = h + params.g * (b.conj().T @ a + b @ a.conj().T)
        out.append(h)
    return out


def packet_creation_mpo(params: ModelParams, phi: np.ndarray) -> MPO:
    """Bond-2 MPO for ``sum_x phi_x adag_x`` with the fused-site creation op."""
    adag_fused = photon_annihilator(params, params.j0).conj().T
    return wavepacket_mpo(phi, params.local_dims(), {params.j0: adag_fused})


# ---------------------------------------------------------------------------
# band structure

def dispersion(k, params: ModelParams):
    """omega_k = 1 + 2 J cos k."""
    return 1.0 + 2.0 * params.J * np.cos(k)


def group_velocity(k, params: ModelParams):
    """d omega / d k = -2 J sin k."""
    return -2.0 * params.J * np.sin(k)


def band_edges(params: ModelParams):
    lo = 1.0 - 2.0 * abs(params.J)
    return lo, 2.0 - lo


def momentum_from_frequency(omega, params: ModelParams):
    """Positive-branch momentum with dispersion(k) = omega; NaN outside the band."""
    arg = (np.asarray(omega, dtype=float) - 1.0) / (2.0 * params.J)
    arg = np.where(np.abs(arg) <= 1.0, arg, np.nan)
    return np.arccos(arg)


# ---------------------------------------------------------------------------
# Hamiltonian as an MPO

def hamiltonian_mpo(params: ModelParams) -> MPO:
    """Bond-4 finite-state-machine MPO of the nearest-neighbor Hamiltonian."""
    dims = params.local_dims()
    onsite = onsite_terms(params)
    sites = []
    for x in range(params.L):
        d = dims[x]
        a = photon_annihilator(params, x)
        eye = np.eye(d, dtype=complex)
        w = np.zeros((4, d, d, 4), dtype=complex)
        w[0, :, :, 0] = eye
        w[0, :, :, 1] = a
        w[0, :, :, 2] = a.conj().T
        w[0, :, :, 3] = onsite[x]
        w[1, :, :, 3] = params.J * a.conj().T
        w[2, :, :, 3] = params.J * a
        w[3, :, :, 3] = eye
        if x == 0:
            w = w[:1]
        if x == params.L - 1:
            w = w[:, :, :, 3:]
        sites.append(w)
    return MPO(sites)


def bond_terms(params: ModelParams) -> list[np.ndarray]:
    """Two-site terms h_(x,x+1) with on-site parts split half-half.

    A site adjacent to only one bond (the chain ends) contributes its full
    on-site term to that bond, so the bond terms sum exactly to H.
    """
    dims = params.local_dims()
    onsite = onsite_terms(params)
    terms = []
    for x in range(params.L - 1):
        dl, dr = dims[x], dims[x + 1]
        al = photon_annihilator(params, x)
        ar = photon_annihilator(params, x + 1)
        hop = params.J * (np.kron(al.conj().T, ar) + np.kron(al, ar.conj().T))
        wl = 1.0 if x == 0 else 0.5
        wr = 1.0 if x + 1 == params.L - 1 else 0.5
        h = hop + wl * np.kron(onsite[x], np.eye(dr)) \
                + wr * np.kron(np.eye(dl), onsite[x + 1])
        terms.append(h)
    return terms


# ---------------------------------------------------------------------------
# Trotter gates

# Complex coefficient of the third-order product formula S2(p dt) S2(pbar dt):
# p + pbar = 1 and p^3 + pbar^3 = 0 kill the O(dt^3) error term.
P3 = 0.5 + 1j * math.sqrt(3.0) / 6.0


@dataclass(frozen=True, eq=False)
class Stage:
    parity: int            # 0: bonds (0,1),(2,3),... ; 1: bonds (1,2),(3,4),...
    gates: tuple           # per-bond gate matrices (dl*dr, dl*dr); None if inactive


@dataclass(frozen=True, eq=False)
class TrotterGates:
    stages: tuple = field(repr=False)
    local_dims: tuple = ()
    # bonds whose term annihilates the two-site vacuum |00>, so that every
    # gate on them leaves |00> unchanged
    vacuum_bonds: frozenset = frozenset()


# (parity, coefficient) per stage.  The first and last stage of both orders
# act on the even bonds, and their coefficients add to a real 1/2:
# `evolution.evolve` relies on that to merge a step's last stage with the
# next step's first into one unitary seam stage.
def stage_coefficients(order: int):
    if order == 2:
        return [(0, 0.5), (1, 1.0), (0, 0.5)]
    if order == 3:
        pb = P3.conjugate()
        return [(0, P3 / 2), (1, P3), (0, 0.5), (1, pb), (0, pb / 2)]
    raise ValueError(f"unsupported Trotter order {order}; choose 2 or 3")


def trotter_gates(params: ModelParams, dt: float,
                  order: int = 3) -> TrotterGates:
    """Even/odd bond gates realizing exp(-i H dt) to the requested order."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    terms = bond_terms(params)
    dims = params.local_dims()
    cache: dict = {}

    def gate(x, coeff):
        key = (x, coeff) if _is_special(params, x) else (None, dims[x], coeff)
        if key not in cache:
            cache[key] = scipy.linalg.expm(-1j * dt * coeff * terms[x])
        return cache[key]

    stages = []
    for parity, coeff in stage_coefficients(order):
        gates = tuple(gate(x, coeff) if x % 2 == parity else None
                      for x in range(params.L - 1))
        stages.append(Stage(parity, gates))
    vacuum = frozenset(x for x, h in enumerate(terms) if not np.any(h[:, 0]))
    return TrotterGates(stages=tuple(stages), local_dims=tuple(dims),
                        vacuum_bonds=vacuum)


def _is_special(params: ModelParams, x: int) -> bool:
    """Bonds whose term differs from the bulk pattern (ends and around j0)."""
    return x in (0, params.L - 2) or x in (params.j0 - 1, params.j0)


# ---------------------------------------------------------------------------
# observables

def parity_expectation(state: MPS, params: ModelParams) -> float:
    """<(-1)^{N_exc}>, evaluated as a bond-1 product operator."""
    val = product_expectation(state, parity_factors(params))
    return float(val.real)


def total_excitations(state: MPS, params: ModelParams) -> float:
    """<N_exc> = sum_x <n_x> + <n_sc>; conserved in rwa mode only."""
    vals = site_expectations(state, photon_number_ops(params),
                             [(params.j0, scatterer_number(params))])
    return float(np.sum(vals.real))
