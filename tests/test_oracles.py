"""Reference-side checks: sparse ED, closed-form amplitudes, Bogoliubov."""

import math

import numpy as np
import pytest

from denseref import DenseModel
from uscqed import model as M
from uscqed import oracles as O
from uscqed import scattering as sc
from uscqed.evolution import bound_states, embedded_ground_state
from uscqed.errors import (BandEdgeError, ConvergenceError, DegenerateError,
                           ResourceError)


def dense_levels(params):
    dm = DenseModel(params.L, params.g, params.j0, params.n_max, J=params.J,
                    Delta=params.Delta, coupling=params.coupling_mode,
                    scatterer=params.scatterer)
    vals, vecs = dm.eig()
    par = np.real(np.einsum("ij,ji->i", vecs.conj().T @ dm.parity, vecs))
    return vals, par


# ---------------------------------------------------------------------------
# exact diagonalization

@pytest.mark.parametrize("g", [0.2, 0.8])
def test_ed_matches_dense_spectrum(g):
    p = M.ModelParams(L=5, g=g, j0=2, n_max=2)
    res = O.exact_diagonalize(p, k_per_sector=4)
    vals, par = dense_levels(p)
    assert np.allclose(res.energies[:6], vals[:6], atol=1e-10)
    assert np.allclose(res.parities[:6], np.sign(par[:6]), atol=1e-8)
    assert res.residual <= 1e-10
    even = vals[par > 0.5]
    odd = vals[par < -0.5]
    assert res.bound["gs"] == pytest.approx(even[0], abs=1e-10)
    assert res.bound["e1"] == pytest.approx(odd[0], abs=1e-10)
    assert res.bound["e2"] == pytest.approx(even[1], abs=1e-10)


def test_ed_sector_union_is_complete():
    # interleaved sector lists must reproduce the unrestricted spectrum
    p = M.ModelParams(L=4, g=0.6, j0=1, n_max=2)
    res = O.exact_diagonalize(p, k_per_sector=5)
    vals, _ = dense_levels(p)
    assert np.allclose(res.energies[:8], vals[:8], atol=1e-10)


def test_ed_vectors_are_eigenvectors():
    p = M.ModelParams(L=4, g=0.5, j0=2, n_max=1)
    res = O.exact_diagonalize(p, k_per_sector=3, return_vectors=True)
    h = O.sparse_hamiltonian(p).toarray()
    for j, e in enumerate(res.energies):
        v = res.vectors[:, j]
        assert np.linalg.norm(h @ v - e * v) < 1e-10


def test_ed_second_odd_level_is_labeled_only_when_localized():
    weak = O.exact_diagonalize(M.ModelParams(L=7, g=0.1, j0=3, n_max=2))
    assert "e3" not in weak.bound
    deep = O.exact_diagonalize(M.ModelParams(L=7, g=1.3, j0=3, n_max=3),
                               k_per_sector=3)
    assert "e3" in deep.bound
    assert deep.bound["e3"] > deep.bound["e1"]


def test_ed_keeps_the_decoupled_rwa_vacuum():
    # the vacuum row of the rwa Hamiltonian is exactly zero: a level that
    # Lanczos on the even sector missed, reporting 0.784 as the ground state
    p = M.ModelParams(L=6, g=0.6, j0=2, n_max=1, coupling_mode="rwa")
    res = O.exact_diagonalize(p, k_per_sector=4)
    vals, par = dense_levels(p)
    even = vals[par > 0.5]
    odd = vals[par < -0.5]
    assert np.allclose(res.energies[res.parities > 0], even[:4], atol=1e-10)
    assert np.allclose(res.energies[res.parities < 0], odd[:4], atol=1e-10)
    assert res.residual <= 1e-10
    assert res.bound["gs"] == pytest.approx(0.0, abs=1e-10)
    assert res.bound["e2"] == pytest.approx(even[1], abs=1e-10)
    bs = bound_states(p)
    assert bs.energies[0] == pytest.approx(res.bound["gs"], abs=1e-10)


def test_ed_repeats_bit_for_bit():
    # a random ARPACK start would move the levels at the 1e-15 level
    p = M.ModelParams(L=6, g=0.6, j0=3, n_max=1)
    a, b = O.exact_diagonalize(p), O.exact_diagonalize(p)
    assert np.array_equal(a.energies, b.energies)
    assert a.bound == b.bound


def test_ed_refuses_oversized_hilbert_space():
    p = M.ModelParams(L=40, g=0.5, j0=20, n_max=4)
    with pytest.raises(ResourceError):
        O.exact_diagonalize(p)


def test_ed_argument_validation():
    p = M.ModelParams(L=4, g=0.5, j0=2, n_max=1)
    with pytest.raises(ValueError):
        O.exact_diagonalize(p, k_per_sector=1)


# ---------------------------------------------------------------------------
# excitation-conserving amplitudes

def test_rwa_amplitudes_unitary_and_consistent():
    p = M.ModelParams(L=10, g=0.2, j0=5, coupling_mode="rwa")
    lo, hi = M.band_edges(p)
    om = np.linspace(lo + 0.01, hi - 0.01, 501)
    t, r = O.rwa_single_excitation_scattering(p, om)
    assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)) < 1e-13
    assert np.allclose(r, t - 1.0)
    # perfect reflection exactly on the qubit frequency
    t0, _ = O.rwa_single_excitation_scattering(p, p.Delta)
    assert abs(t0) < 1e-14


def test_rwa_amplitudes_reject_band_edge_and_outside():
    p = M.ModelParams(L=10, g=0.2, j0=5, coupling_mode="rwa")
    lo, hi = M.band_edges(p)
    with pytest.raises(BandEdgeError):
        O.rwa_single_excitation_scattering(p, lo)
    with pytest.raises(ValueError):
        O.rwa_single_excitation_scattering(p, lo - 0.05)
    full = M.ModelParams(L=10, g=0.2, j0=5)
    with pytest.raises(ValueError):
        O.rwa_single_excitation_scattering(full, 1.0)


def test_rwa_formula_against_wavepacket_transport():
    # independent check: evolve a single-excitation packet on the lattice
    L, j0, g, delta, J = 600, 300, 0.3, 1.0, -1.0 / math.pi
    h = np.zeros((L + 1, L + 1))
    for x in range(L):
        h[x, x] = 1.0
    h[L, L] = delta
    for x in range(L - 1):
        h[x, x + 1] = h[x + 1, x] = J
    h[j0, L] = h[L, j0] = g
    vals, vecs = np.linalg.eigh(h)

    p = M.ModelParams(L=L, g=g, j0=j0, coupling_mode="rwa")
    x = np.arange(L)
    for k0 in (1.2, math.pi / 2):
        sigma, x0 = 25.0, 150
        psi = np.zeros(L + 1, dtype=complex)
        psi[:L] = np.exp(-((x - x0) ** 2) / (4 * sigma ** 2) + 1j * k0 * x)
        psi /= np.linalg.norm(psi)
        t_f = 300.0 / abs(2 * J * math.sin(k0))
        out = vecs @ (np.exp(-1j * vals * t_f) * (vecs.T @ psi))
        got = float(np.sum(np.abs(out[j0 + 50:L]) ** 2))
        # packet-weighted prediction from the closed form
        ks = np.linspace(k0 - 6 / sigma, k0 + 6 / sigma, 801)
        amp = np.exp(-((ks - k0) ** 2) * sigma ** 2)
        w = amp ** 2 / np.sum(amp ** 2)
        t_amp, _ = O.rwa_single_excitation_scattering(
            p, 1.0 + 2 * J * np.cos(ks))
        want = float(np.sum(w * np.abs(t_amp) ** 2))
        assert got == pytest.approx(want, abs=2e-3)


# ---------------------------------------------------------------------------
# polariton formula

def test_resonance_frequency_values():
    for g, wr in ((0.1, 1.004987), (0.2, 1.019761), (0.3, 1.043519)):
        p = M.ModelParams(L=5, g=g, j0=2)
        assert O.resonance_frequency(p) == pytest.approx(wr, abs=2e-6)


def test_resonance_blueshift_grows_with_coupling():
    values = [O.resonance_frequency(M.ModelParams(L=5, g=g, j0=2))
              for g in (0.05, 0.15, 0.25, 0.35)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] > 1.0


def test_polariton_data_validation_and_cutoff():
    with pytest.raises(ValueError):
        O.polariton_data(M.ModelParams(L=5, g=0.2, j0=2, coupling_mode="rwa"))
    with pytest.raises(ValueError):
        O.polariton_data(M.ModelParams(L=5, g=0.2, j0=2, scatterer="boson"))
    with pytest.raises(ConvergenceError):
        O.polariton_data(M.ModelParams(L=5, g=0.5, j0=2), cutoff=4)
    data = O.polariton_data(M.ModelParams(L=5, g=0.3, j0=2))
    assert data.gaps[0] < 1.0 < data.gaps[1]    # polaritons straddle the gap


def test_degenerate_resonance_rejected():
    # g=0 at Delta=1: both levels sit exactly at the cavity frequency
    p = M.ModelParams(L=5, g=0.0, j0=2)
    with pytest.raises(DegenerateError):
        O.resonance_frequency(p)


def test_polariton_transmission_bounded_with_exact_dip():
    p = M.ModelParams(L=41, g=0.3, j0=20)
    data = O.polariton_data(p)
    lo, hi = M.band_edges(p)
    om = np.linspace(lo + 1e-3, hi - 1e-3, 1501)
    t = O.polariton_transmission(p, om, data)
    assert np.all(np.isfinite(t))
    assert np.max(np.abs(t)) <= 1.0 + 1e-9
    wr = O.resonance_frequency(p, data)
    assert abs(O.polariton_transmission(p, wr, data)) < 1e-12
    # finite limit exactly on a pole
    at_pole = O.polariton_transmission(p, np.array([data.gaps[0]]), data)
    k = float(M.momentum_from_frequency(data.gaps[0], p))
    assert abs(at_pole[0]) == pytest.approx(abs(math.sin(k)), abs=1e-12)
    with pytest.raises(ValueError):
        O.polariton_transmission(p, lo - 0.1, data)


def test_polariton_transmission_follows_the_weak_coupling_limits():
    # away from the dip: a nearly bare site transmits everything, and at
    # small g the counter-rotating terms barely move the rwa closed form
    def band_off_dip(p):
        lo, hi = M.band_edges(p)
        om = np.linspace(lo + 1e-3, hi - 1e-3, 401)
        return om[np.abs(om - O.resonance_frequency(p)) > 0.05]

    p = M.ModelParams(L=52, g=1e-3, j0=26, n_max=2)
    t = O.polariton_transmission(p, band_off_dip(p))
    assert np.max(np.abs(np.abs(t) ** 2 - 1.0)) <= 1e-6
    p = M.ModelParams(L=52, g=0.05, j0=26, n_max=2)
    om = band_off_dip(p)
    t_rwa, _ = O.rwa_single_excitation_scattering(
        M.ModelParams(L=52, g=0.05, j0=26, n_max=2, coupling_mode="rwa"), om)
    t = O.polariton_transmission(p, om)
    assert np.max(np.abs(np.abs(t) ** 2 - np.abs(t_rwa) ** 2)) <= 2e-2


def test_polariton_transmission_judges_a_full_coupling_run():
    # one broadband MPS run at moderate coupling, analyzed once the packet
    # centre is 26 sites past the scatterer; measured: median |T - T_pol|
    # 0.0072 over the bins of packet weight > 0.3, min of T at 1.0429
    # against the resonance at 1.0435, blueshifted from Delta = 1
    p = M.ModelParams(L=80, g=0.3, j0=40, n_max=2)
    spec = sc.WavepacketSpec(omega=1.0, sigma=2.5, x0=p.j0 - 14.0)
    k0 = spec.carrier_momentum(p)
    v = float(M.group_velocity(k0, p))
    e_gs, gs, _ = embedded_ground_state(p)
    res = sc.run_scattering(p, spec, (p.j0 + 26 - spec.x0) / v, dt=0.25,
                            order=3, max_rank=10, cutoff=1e-10,
                            n_snapshots=20, gs=gs, gs_energy=e_gs,
                            exclude_radius=5)
    assert res.flags == []
    ts = sc.transmission_spectrum(res, window=4, taper=4)
    band = np.exp(-(spec.sigma * (ts.k - k0)) ** 2) > 0.3
    om, T = ts.omega[band], ts.T[band]
    T_pol = np.abs(O.polariton_transmission(p, om)) ** 2
    assert np.median(np.abs(T - T_pol)) <= 0.02
    w_min = om[np.argmin(T)]
    assert abs(w_min - O.resonance_frequency(p)) <= 0.01
    assert w_min - p.Delta > 0.03


# ---------------------------------------------------------------------------
# linear variant

def test_bogoliubov_decoupled_modes():
    p = M.ModelParams(L=8, g=0.0, j0=4, n_max=2, scatterer="boson")
    b = O.bogoliubov(p)
    want = sorted([1.0 + 2 * p.J * math.cos(m * math.pi / (p.L + 1))
                   for m in range(1, p.L + 1)] + [p.Delta])
    assert b.stable
    assert np.allclose(b.frequencies, want, atol=1e-10)


def test_bogoliubov_instability_threshold():
    def modes(g):
        return O.bogoliubov(M.ModelParams(L=41, g=g, j0=20, n_max=2,
                                          scatterer="boson"))
    assert modes(0.3).stable
    assert modes(0.43).stable
    assert not modes(0.44).stable
    assert not modes(0.7).stable
    assert modes(0.43).min_frequency < modes(0.3).min_frequency
    with pytest.raises(ValueError):
        O.bogoliubov(M.ModelParams(L=5, g=0.3, j0=2))


def test_linear_channel_report():
    p = M.ModelParams(L=41, g=0.3, j0=20, n_max=2, scatterer="boson")
    rep = O.linear_no_raman_check(p, 0.85)
    assert rep.stable and rep.channel_closed
    assert rep.deposit_max == pytest.approx(0.85 - M.band_edges(p)[0])
    # near the instability the soft mode opens a pair channel
    soft = M.ModelParams(L=41, g=0.42, j0=20, n_max=2, scatterer="boson")
    assert not O.linear_no_raman_check(soft, 0.85).channel_closed
    # enough energy opens it even far from criticality
    assert not O.linear_no_raman_check(p, 1.3).channel_closed
