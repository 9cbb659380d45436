"""Reference results computed without tensor networks.

Everything here is meant to cross-check the MPS pipeline: sparse
diagonalization in parity sectors for small chains, closed-form elastic
amplitudes for the excitation-conserving coupling, the two-polariton
impurity formula for the full coupling at moderate g, and the Bogoliubov
analysis of the linear (boson-scatterer) variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BandEdgeError, ConvergenceError, DegenerateError,
                     NumericError, ResourceError)
from .model import (ModelParams, band_edges, momentum_from_frequency,
                    onsite_terms, parity_factors, photon_annihilator,
                    photon_number_ops)

# Sparse diagonalization refuses Hilbert spaces above this size.
ED_DIM_LIMIT = 2_000_000


# ---------------------------------------------------------------------------
# exact diagonalization in parity sectors

@dataclass
class EDResult:
    """Low-lying spectrum split by parity, plus bound-state labels."""

    energies: np.ndarray        # ascending union of the requested sectors
    parities: np.ndarray        # +1 / -1 per energy
    bound: dict                 # 'gs'/'e1'/'e2' (and 'e3' when localized)
    residual: float             # max |H v - E v| over all returned pairs
    vectors: np.ndarray = None  # full-space columns, when requested


def _embed_sparse(dims, ops):
    """kron chain of sparse local operators (dict site -> matrix)."""
    out = sp.identity(1, format="csr", dtype=complex)
    for x, d in enumerate(dims):
        m = ops.get(x)
        block = sp.identity(d, format="csr", dtype=complex) if m is None \
            else sp.csr_matrix(m)
        out = sp.kron(out, block, format="csr")
    return out


def _diag_kron(vectors):
    out = np.ones(1)
    for v in vectors:
        out = np.kron(out, v)
    return out


def sparse_hamiltonian(params: ModelParams):
    """CSR Hamiltonian assembled directly from local terms."""
    dims = params.local_dims()
    dim = 1
    for d in dims:
        dim *= d
        if dim > ED_DIM_LIMIT:
            raise ResourceError(
                f"Hilbert space of {'x'.join(map(str, dims))} exceeds "
                f"the diagonalization limit {ED_DIM_LIMIT}")
    h = sp.csr_matrix((dim, dim), dtype=complex)
    for x, term in enumerate(onsite_terms(params)):
        h = h + _embed_sparse(dims, {x: term})
    for x in range(params.L - 1):
        hop = _embed_sparse(dims, {x: photon_annihilator(params, x).conj().T,
                                   x + 1: photon_annihilator(params, x + 1)})
        h = h + params.J * (hop + hop.conj().T)
    return h


def _participation_ratio(density):
    total = float(np.sum(density))
    if total < 1e-9:
        return 0.0
    rho = density / total
    return 1.0 / float(np.sum(rho * rho))


def _sector_lowest(hs, k: int):
    """Lowest ``k`` eigenpairs of a sector block.

    A basis state without off-diagonal entries (the rwa vacuum) is an exact
    eigenvector on its own, and Lanczos can miss such a decoupled level, so
    those states are taken as they are and Lanczos runs on the coupled rest.
    Lanczos starts from a fixed seeded vector, so repeated solves agree bit
    for bit.
    """
    def lanczos(m):
        v0 = np.random.default_rng(0).standard_normal(m.shape[0])
        return spla.eigsh(m, k=k, which="SA", v0=v0)

    n = hs.shape[0]
    diag = hs.diagonal().real
    off = np.asarray(abs(hs - sp.diags(hs.diagonal())).sum(axis=1)).ravel()
    loose = np.flatnonzero(off == 0)
    if loose.size == 0:
        return lanczos(hs)
    loose = loose[np.argsort(diag[loose], kind="stable")[:k]]
    vals = [diag[loose]]
    vecs = np.zeros((n, loose.size), dtype=complex)
    vecs[loose, np.arange(loose.size)] = 1.0
    coupled = np.flatnonzero(off)
    if coupled.size:
        hc = hs[coupled][:, coupled]
        if coupled.size <= k + 1:
            cvals, cvecs = np.linalg.eigh(hc.toarray())
        else:
            cvals, cvecs = lanczos(hc)
        vals.append(cvals)
        vecs = np.hstack([vecs, np.zeros((n, cvals.size), dtype=complex)])
        vecs[coupled, loose.size:] = cvecs
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")[:k]
    return vals[order], vecs[:, order]


def exact_diagonalize(params: ModelParams, k_per_sector: int = 4,
                      return_vectors: bool = False) -> EDResult:
    """Lowest eigenpairs of each parity sector, verified by residuals.

    Restricting to a sector is free because parity is diagonal in the
    occupation basis; every returned pair is checked against the full
    Hamiltonian, which also verifies that the sectors do not mix.  Bound
    states are labeled gs/e1/e2 by sector ordering; a second odd level is
    labeled e3 only if its photon cloud is localized (participation ratio
    below L/2), since otherwise it is just the bottom of the continuum.
    """
    if k_per_sector < 2:
        raise ValueError("need at least two states per sector")
    h = sparse_hamiltonian(params)
    dims = params.local_dims()
    parity_diag = _diag_kron(
        [np.real(np.diag(m)) for m in parity_factors(params)])
    number_ops = photon_number_ops(params)
    number_diags = []
    for x in range(params.L):
        factors = [np.ones(d) for d in dims]
        factors[x] = np.real(np.diag(number_ops[x]))
        number_diags.append(_diag_kron(factors))

    energies, parities, residual, vectors = [], [], 0.0, []
    pr_by_sector = {1.0: [], -1.0: []}
    for sector in (1.0, -1.0):
        idx = np.where(parity_diag == sector)[0]
        vals, vecs = _sector_lowest(h[idx][:, idx],
                                    min(k_per_sector, idx.size - 1))
        order = np.argsort(vals)
        for j in order:
            full = np.zeros(h.shape[0], dtype=complex)
            full[idx] = vecs[:, j]
            residual = max(residual,
                           float(np.linalg.norm(h @ full - vals[j] * full)))
            energies.append(float(vals[j]))
            parities.append(sector)
            vectors.append(full)
            density = np.array([np.sum(np.abs(full) ** 2 * nd)
                                for nd in number_diags])
            pr_by_sector[sector].append(_participation_ratio(density))
    if residual > 1e-10:
        raise NumericError(f"eigenpair residual {residual:.3e} exceeds 1e-10")

    order = np.argsort(energies)
    energies = np.array(energies)[order]
    parities = np.array(parities)[order]
    vectors = np.array(vectors).T[:, order] if return_vectors else None

    even = np.sort([e for e, p in zip(energies, parities) if p > 0])
    odd = np.sort([e for e, p in zip(energies, parities) if p < 0])
    bound = {"gs": even[0], "e1": odd[0], "e2": even[1]}
    # pr_by_sector entries are already in ascending energy order
    if len(odd) > 1 and pr_by_sector[-1.0][1] < params.L / 2:
        bound["e3"] = odd[1]
    return EDResult(energies=energies, parities=parities, bound=bound,
                    residual=residual, vectors=vectors)


# ---------------------------------------------------------------------------
# excitation-conserving coupling: closed-form elastic amplitudes

def rwa_single_excitation_scattering(params: ModelParams, omega):
    """Exact (t, r) for one photon on the rwa-coupled qubit.

    In the single-excitation sector the qubit acts as an energy-dependent
    potential g^2/(omega - Delta); matching plane waves across j0 gives
        t = 2iJ sin k (omega - Delta) / (2iJ sin k (omega - Delta) + g^2).
    Undefined at the band edges, where the group velocity vanishes.
    """
    if params.coupling_mode != "rwa":
        raise ValueError("closed form only holds for coupling_mode='rwa'")
    omega = np.asarray(omega, dtype=float)
    k = momentum_from_frequency(omega, params)
    if np.any(np.isnan(k)):
        raise ValueError("requested frequency lies outside the band")
    sink = np.sin(k)
    if np.any(np.abs(sink) < 1e-12):
        raise BandEdgeError("amplitudes are singular at a band edge")
    z = 2j * params.J * sink * (omega - params.Delta)
    t = z / (z + params.g ** 2)
    return t, t - 1.0


# ---------------------------------------------------------------------------
# full coupling at moderate g: two-polariton impurity formula

@dataclass
class PolaritonData:
    """Lowest odd excitations of the isolated scatterer-cavity (Rabi) block."""

    gaps: tuple          # (lower, upper) excitation energies above its GS
    alphas: tuple        # |<pm| adag |GS>| photon creation amplitudes
    cutoff: int


def polariton_data(params: ModelParams, cutoff: int = 24) -> PolaritonData:
    """Diagonalize the isolated impurity block; fails if ``cutoff`` is short.

    The block is the j0 cavity plus the qubit with the full coupling; its two
    lowest odd levels are the polaritons that scatter a single photon.  The
    Fock cutoff is validated by recomputing at ``cutoff + 4`` and requiring
    every gap and amplitude to move by less than 1e-8.
    """
    if params.scatterer != "qubit" or params.coupling_mode != "full":
        raise ValueError("polariton formula describes the full-coupling qubit")
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")

    def solve(nc):
        a = np.diag(np.sqrt(np.arange(1.0, nc)), 1)
        h = np.kron(np.eye(2), a.T @ a) \
            + params.Delta * np.kron(np.diag([0.0, 1.0]), np.eye(nc)) \
            + params.g * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 a + a.T)
        par = np.kron(np.diag([1.0, -1.0]),
                      np.diag([(-1.0) ** n for n in range(nc)]))
        vals, vecs = np.linalg.eigh(h)
        sector = np.einsum("ij,jk,ki->i", vecs.T, par, vecs).real
        even = np.where(sector > 0.5)[0]
        odd = np.where(sector < -0.5)[0]
        ground = vecs[:, even[0]]
        adag_full = np.kron(np.eye(2), a.T)
        gaps, alphas = [], []
        for m in odd[:2]:
            gaps.append(float(vals[m] - vals[even[0]]))
            alphas.append(float(abs(vecs[:, m] @ adag_full @ ground)))
        return tuple(gaps), tuple(alphas)

    gaps, alphas = solve(cutoff)
    gaps2, alphas2 = solve(cutoff + 4)
    drift = max(max(abs(np.subtract(gaps, gaps2))),
                max(abs(np.subtract(alphas, alphas2))))
    if drift > 1e-8:
        raise ConvergenceError(
            f"impurity Fock cutoff {cutoff} not converged (drift {drift:.2e})",
            trace={"gaps": gaps, "gaps_refined": gaps2})
    return PolaritonData(gaps=gaps, alphas=alphas, cutoff=cutoff)


def resonance_frequency(params: ModelParams, data: PolaritonData = None) -> float:
    """Frequency where the polariton response crosses zero (perfect dip).

    Between the two polariton poles the impurity response G(omega) changes
    sign; the root is the weighted mean of each gap with the other level's
    weight.  Degenerate gaps or vanishing amplitudes leave it undefined.
    """
    data = data or polariton_data(params)
    (d_lo, d_hi), (a_lo, a_hi) = data.gaps, data.alphas
    wsum = a_lo ** 2 + a_hi ** 2
    if abs(d_hi - d_lo) < 1e-10 or wsum < 1e-12:
        raise DegenerateError("polariton levels degenerate or dark")
    return (a_lo ** 2 * d_hi + a_hi ** 2 * d_lo) / wsum


def polariton_transmission(params: ModelParams, omega,
                           data: PolaritonData = None):
    """t(omega) of the two-polariton impurity embedded in the chain.

    G(omega) = J sum_pm |alpha_pm|^2 / (omega - gap_pm), J times the
    block's photon Green's function, feeds the standard single-impurity
    result t = 2iG sin k / (2 e^{ik} G - 1), which gives t = 1 for a bare
    cavity site; exactly at a pole the limit t = i sin k e^{-ik} is used.
    """
    data = data or polariton_data(params)
    omega = np.asarray(omega, dtype=float)
    k = momentum_from_frequency(omega, params)
    if np.any(np.isnan(k)):
        raise ValueError("requested frequency lies outside the band")
    sink = np.sin(k)
    t = np.empty(omega.shape, dtype=complex)
    at_pole = np.zeros(omega.shape, dtype=bool)
    for gap in data.gaps:
        at_pole |= np.abs(omega - gap) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        g_of = params.J * (data.alphas[0] ** 2 / (omega - data.gaps[0])
                           + data.alphas[1] ** 2 / (omega - data.gaps[1]))
        t = np.where(at_pole, 1j * sink * np.exp(-1j * k),
                     2j * g_of * sink / (2.0 * np.exp(1j * k) * g_of - 1.0))
    return t


# ---------------------------------------------------------------------------
# linear variant: Bogoliubov modes and channel bookkeeping

@dataclass
class BogoliubovModes:
    """Quasiparticle frequencies of the boson-scatterer (quadratic) model."""

    frequencies: np.ndarray   # positive real parts, ascending
    stable: bool              # all dynamical eigenvalues real
    min_frequency: float


def bogoliubov(params: ModelParams) -> BogoliubovModes:
    """Diagonalize the quadratic model's dynamical matrix Sigma M.

    Modes are the L+1 coupled oscillators (cavities plus the boson
    scatterer).  The counter-rotating part of the coupling enters the pair
    block; the model is stable only while every eigenvalue of Sigma M stays
    real, which fails beyond a critical g.
    """
    if params.scatterer != "boson":
        raise ValueError("Bogoliubov analysis applies to scatterer='boson'")
    n = params.L + 1              # chain sites, then the scatterer mode
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    for x in range(params.L):
        A[x, x] = 1.0
    A[params.L, params.L] = params.Delta
    for x in range(params.L - 1):
        A[x, x + 1] = A[x + 1, x] = params.J
    A[params.L, params.j0] = A[params.j0, params.L] = params.g
    if params.coupling_mode == "full":   # counter-rotating part pairs modes
        B[params.L, params.j0] = B[params.j0, params.L] = params.g
    dyn = np.block([[A, B], [-B, -A]])
    evals = np.linalg.eigvals(dyn)
    scale = max(1.0, float(np.max(np.abs(evals))))
    stable = bool(np.max(np.abs(evals.imag)) < 1e-9 * scale)
    pos = np.sort(evals.real[evals.real > 1e-12])
    return BogoliubovModes(frequencies=pos, stable=stable,
                           min_frequency=float(pos[0]) if len(pos) else 0.0)


@dataclass
class LinearChannelReport:
    stable: bool
    deposit_max: float     # energy the packet could leave behind
    channel_closed: bool   # no pair-creation channel is energetically open


def linear_no_raman_check(params: ModelParams,
                          omega_in: float) -> LinearChannelReport:
    """Why a stable linear scatterer cannot shift the photon frequency.

    Inelastic output requires creating quasiparticle pairs, costing at least
    twice the lowest mode; the most a packet at ``omega_in`` can deposit and
    still emit into the band is ``omega_in`` minus the band bottom.  When
    that is smaller, only the elastic channel is open.
    """
    modes = bogoliubov(params)
    deposit = omega_in - band_edges(params)[0]
    closed = modes.stable and deposit < 2.0 * modes.min_frequency
    return LinearChannelReport(stable=modes.stable, deposit_max=deposit,
                               channel_closed=closed)
