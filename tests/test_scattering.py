"""Packet preparation, scattering runs, and spectral analysis."""

import math
import warnings

import numpy as np
import pytest

from uscqed import model as M
from uscqed import scattering as sc
from uscqed.errors import DependencyError
from uscqed.evolution import evolve
from uscqed.mps import (apply_mpo, expectation_local, normalize, product_state,
                        site_expectations)
from uscqed.oracles import rwa_single_excitation_scattering


def vacuum(params):
    return product_state(params.local_dims(), [0] * params.L)


def single_particle_h(params):
    h = np.diag(np.ones(params.L))
    h += params.J * (np.diag(np.ones(params.L - 1), 1)
                     + np.diag(np.ones(params.L - 1), -1))
    return h


P_FREE = M.ModelParams(L=72, g=0.0, j0=32, n_max=1)
SPEC_FREE = sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=10.0)


# ---------------------------------------------------------------------------
# packet profile and input preparation

def test_packet_profile_normalized_and_centered_in_k():
    phi = sc.packet_profile(P_FREE, SPEC_FREE)
    assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)
    # amplitude envelope falls as exp(-(x-x0)^2 / 2 sigma^2)
    assert abs(phi[14] / phi[10]) == pytest.approx(math.exp(-0.5), rel=1e-12)
    k0 = float(M.momentum_from_frequency(1.0, P_FREE))
    f = np.fft.fft(phi, 1024)
    k = 2 * math.pi * np.fft.fftfreq(1024)
    assert abs(k[np.argmax(np.abs(f))] - k0) < 2 * math.pi / 1024 + 1e-9


def test_packet_profile_rejects_bad_carrier_and_center():
    with pytest.raises(ValueError, match="outside the band"):
        sc.packet_profile(P_FREE, sc.WavepacketSpec(omega=0.2, sigma=4.0, x0=10.0))
    with pytest.raises(ValueError, match="outside the chain"):
        sc.packet_profile(P_FREE, sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=99.0))


def test_wavepacket_spec_momentum_route():
    s = sc.WavepacketSpec(sigma=4.0, x0=10.0,
                          omega=float(M.dispersion(1.2, P_FREE)), direction=-1)
    assert s.carrier_momentum(P_FREE) == pytest.approx(-1.2, abs=1e-12)
    with pytest.raises(ValueError, match="direction"):
        sc.WavepacketSpec(sigma=4.0, x0=10.0, omega=1.0, direction=0)


def test_prepare_input_flips_parity_and_normalizes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, info = sc.prepare_input(vacuum(P_FREE), P_FREE, SPEC_FREE,
                                       max_rank=8)
    assert M.parity_expectation(state, P_FREE) == pytest.approx(-1.0, abs=1e-10)
    assert info.momentum > 0
    assert info.omega == pytest.approx(1.0)
    assert info.velocity == pytest.approx(
        abs(M.group_velocity(info.momentum, P_FREE)))
    left = sc.prepare_input(
        vacuum(P_FREE), P_FREE,
        sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=10.0, direction=-1),
        max_rank=8)[1]
    assert left.momentum < 0


def test_prepare_input_rejects_packet_on_scatterer():
    spec = sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=float(P_FREE.j0))
    with pytest.raises(ValueError, match="scatterer site"):
        sc.prepare_input(vacuum(P_FREE), P_FREE, spec, max_rank=8)


def test_prepare_input_warns_on_marginal_cloud_overlap():
    spec = sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=P_FREE.j0 - 12.0)
    with pytest.warns(UserWarning, match="scatterer site"):
        _, info = sc.prepare_input(vacuum(P_FREE), P_FREE, spec, max_rank=8)
    assert info.messages


# ---------------------------------------------------------------------------
# free reference and momentum occupations

def test_free_reference_matches_dense_propagation_with_bounce():
    p = M.ModelParams(L=60, g=0.0, j0=30, n_max=1)
    spec = sc.WavepacketSpec(omega=1.0, sigma=5.0, x0=15.0)
    w, v = np.linalg.eigh(single_particle_h(p))
    phi0 = sc.packet_profile(p, spec)
    for t in (0.0, 25.0, 120.0):   # 120 is well past the wall bounce
        want = v @ (np.exp(-1j * w * t) * (v.conj().T @ phi0))
        assert np.linalg.norm(sc.free_reference(p, spec, t) - want) < 1e-10


def test_momentum_occupations_sign_and_parseval():
    p = M.ModelParams(L=40, g=0.0, j0=20, n_max=1)
    k0 = float(M.momentum_from_frequency(0.8, p))
    for direction in (+1, -1):
        spec = sc.WavepacketSpec(omega=0.8, sigma=4.0, x0=20.0,
                                 direction=direction)
        op = M.packet_creation_mpo(p, sc.packet_profile(p, spec))
        state = normalize(apply_mpo(vacuum(p), op, 8, 0.0)[0])
        k, n_k = sc.momentum_occupations(state, p)
        assert np.sum(n_k) == pytest.approx(1.0, abs=1e-10)
        k_peak = k[np.argmax(n_k)]
        assert abs(k_peak - direction * k0) < 0.02
        assert np.sum(n_k[np.sign(k) == direction]) > 0.999


def test_analysis_window_excludes_cloud():
    p = M.ModelParams(L=10, g=0.1, j0=4, n_max=1)
    assert list(sc.analysis_window(p, 3)) == [0, 8, 9]


# ---------------------------------------------------------------------------
# end-to-end runs

def test_decoupled_scatterer_transmits_everything():
    res = sc.run_scattering(P_FREE, SPEC_FREE, t_final=60.0, dt=0.1, order=3,
                            max_rank=8, cutoff=1e-12, n_snapshots=4,
                            gs=vacuum(P_FREE), gs_energy=0.0,
                            exclude_radius=2)
    assert res.flags == []
    s = res.snapshots[-1]
    # with g=0 the run and the free reference are the same field
    assert np.max(np.abs(s.phi_x - sc.free_reference(P_FREE, SPEC_FREE, s.t))) < 1e-3
    # complex stage coefficients leave an O(dt^4) non-unitarity per step
    assert abs(s.norm - 1.0) < 1e-7
    assert s.parity == pytest.approx(-1.0, abs=1e-10)
    ts = sc.transmission_spectrum(res, window=2, taper=4)
    assert np.max(np.abs(ts.T - 1.0)) < 0.01
    assert np.max(ts.R) < 1e-4
    assert ts.carrier == pytest.approx(1.0, abs=1e-3)


@pytest.fixture(scope="module")
def rwa_run():
    p = M.ModelParams(L=100, g=0.5, j0=50, n_max=1, coupling_mode="rwa")
    spec = sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=30.0)
    # the rwa ground state is the exact vacuum at zero energy
    res = sc.run_scattering(p, spec, t_final=78.0, dt=0.1, order=3,
                            max_rank=8, cutoff=1e-12, n_snapshots=6,
                            gs=vacuum(p), gs_energy=0.0)
    return p, res


def test_rwa_transmission_matches_formula(rwa_run):
    p, res = rwa_run
    assert res.flags == []
    ts = sc.transmission_spectrum(res, window=6, taper=8)
    t_dev, r_dev = [], []
    for i, om in enumerate(ts.omega):
        t_ref, r_ref = rwa_single_excitation_scattering(p, float(om))
        t_dev.append(ts.T[i] - abs(t_ref) ** 2)
        r_dev.append(ts.R[i] - abs(r_ref) ** 2)
    assert np.max(np.abs(t_dev)) < 0.06
    assert np.median(np.abs(t_dev)) < 0.01
    assert np.max(np.abs(r_dev)) < 0.08
    assert np.median(np.abs(r_dev)) < 0.02
    # the single-excitation S-matrix is unitary
    assert np.median(np.abs(ts.T + ts.R - 1.0)) < 0.02
    # full reflection at the bare resonance
    assert ts.T[np.argmin(np.abs(ts.omega - 1.0))] < 0.01
    assert ts.R[np.argmin(np.abs(ts.omega - 1.0))] > 0.95


def test_rwa_run_has_no_frequency_conversion(rwa_run):
    p, res = rwa_run
    ine = sc.inelastic_spectrum(res, gap=0.45)
    assert ine.p_inelastic < 0.02
    assert ine.p_elastic > 0.98
    assert ine.p_inelastic_t + ine.p_inelastic_r <= ine.p_inelastic + 1e-9
    assert ine.p_other <= ine.p_inelastic + 1e-9
    # conversion is kinematically open yet nothing converts without
    # counter-rotating terms
    assert ine.raman_open


def test_rwa_scatterer_excites_and_relaxes(rwa_run):
    _, res = rwa_run
    t, dp = sc.qubit_dynamics(res)
    assert len(t) == len(res.snapshots)
    assert dp[0] < 1e-10
    assert np.max(dp) > 0.02           # packet drives the qubit in passing
    assert dp[-1] < 0.01               # and it re-emits completely
    par = np.array([s.parity for s in res.snapshots])
    assert np.max(np.abs(par + 1.0)) < 1e-8


def test_nk_series_supplies_the_initial_and_final_occupations(monkeypatch):
    p = M.ModelParams(L=24, g=0.5, j0=12, n_max=1, coupling_mode="rwa")
    spec = sc.WavepacketSpec(omega=1.0, sigma=2.0, x0=4.0)
    kw = dict(t_final=6.0, dt=0.25, order=2, max_rank=4, cutoff=1e-12,
              n_snapshots=3, gs=vacuum(p), gs_energy=0.0, exclude_radius=2)
    plain = sc.run_scattering(p, spec, **kw)
    calls = []
    correlator = sc.correlator_matrix
    monkeypatch.setattr(sc, "correlator_matrix",
                        lambda *a: calls.append(1) or correlator(*a))
    series = sc.run_scattering(p, spec, measure_nk=True, **kw)
    # one correlator per snapshot, plus the ground-state background
    assert len(calls) == len(series.snapshots) + 1
    assert np.array_equal(series.n_k_initial, plain.n_k_initial)
    assert np.array_equal(series.n_k_final, plain.n_k_final)
    assert np.array_equal(series.snapshots[0].n_k, series.n_k_initial)
    assert np.array_equal(series.snapshots[-1].n_k, series.n_k_final)


def test_snapshots_split_the_steps_into_the_requested_chunks(monkeypatch):
    # 2 n_snapshots - 1 steps: n_snapshots chunks of one or two steps
    p = M.ModelParams(L=24, g=0.5, j0=12, n_max=1, coupling_mode="rwa")
    spec = sc.WavepacketSpec(omega=1.0, sigma=2.0, x0=4.0)
    n_snapshots, dt = 4, 0.25
    n_steps = 2 * n_snapshots - 1
    chunks = []
    run = sc.evolve

    def counted(state, gates, n, *args, **kwargs):
        chunks.append(n)
        return run(state, gates, n, *args, **kwargs)

    monkeypatch.setattr(sc, "evolve", counted)
    res = sc.run_scattering(p, spec, t_final=n_steps * dt, dt=dt, order=2,
                            max_rank=4, cutoff=1e-12, n_snapshots=n_snapshots,
                            gs=vacuum(p), gs_energy=0.0, exclude_radius=2)
    assert len(res.snapshots) == n_snapshots + 1
    assert res.snapshots[-1].t == pytest.approx(n_steps * dt)
    assert sum(chunks) == n_steps
    assert max(chunks) - min(chunks) <= 1


def test_scatterer_population_comes_off_the_density_sweep():
    # a truncated full-coupling state: the population read off the n_x
    # sweep equals the one expectation_local reads at the center
    p = M.ModelParams(L=10, g=0.9, j0=5, n_max=2)
    state = product_state(p.local_dims(), [1] + [0] * (p.L - 1))
    state, trace = evolve(state, M.trotter_gates(p, dt=0.25, order=3), 8,
                          max_rank=4, cutoff=1e-10)
    assert trace.total_discarded > 1e-8
    n_sc = M.scatterer_number(p)
    number_ops = M.photon_number_ops(p)
    got = site_expectations(state, number_ops, [(p.j0, n_sc)])
    assert got[-1] == pytest.approx(expectation_local(state, n_sc, p.j0),
                                    abs=1e-12)
    np.testing.assert_allclose(got[:-1], site_expectations(state, number_ops),
                               atol=1e-15)
    with pytest.raises(ValueError, match="out of range"):
        site_expectations(state, number_ops, [(p.L, n_sc)])


def test_run_scattering_rejects_bad_time():
    with pytest.raises(ValueError, match="t_final"):
        sc.run_scattering(P_FREE, SPEC_FREE, t_final=0.0)


# ---------------------------------------------------------------------------
# inelastic bookkeeping on synthetic occupations

def fake_result(params, spec, k, n0, n1, gs_n_k=None):
    kc = float(M.momentum_from_frequency(spec.omega, params))
    v = abs(float(M.group_velocity(kc, params)))
    info = sc.PacketInfo(omega=spec.omega, momentum=kc, velocity=v,
                         bandwidth=v / spec.sigma, messages=[])
    return sc.ScatteringResult(params=params, spec=spec, info=info,
                               snapshots=[], gs_energy=0.0, gs_n_x=None,
                               k_grid=k, n_k_initial=n0, n_k_final=n1,
                               gs_n_k=gs_n_k)


def synthetic_grid():
    return np.sort(2 * math.pi * np.fft.fftfreq(1024))


def test_inelastic_split_classifies_synthetic_peaks():
    p = M.ModelParams(L=64, g=0.7, j0=32, n_max=1)
    spec = sc.WavepacketSpec(omega=1.0, sigma=8.0, x0=16.0)
    gap = 0.5
    k = synthetic_grid()
    i_el = np.argmin(np.abs(k - float(M.momentum_from_frequency(1.0, p))))
    k_out = float(M.momentum_from_frequency(1.0 - gap, p))
    i_t = np.argmin(np.abs(k - k_out))
    i_r = np.argmin(np.abs(k + k_out))
    # a second conversion line outside the expected Raman window
    i_x = np.argmin(np.abs(k - float(M.momentum_from_frequency(1.45, p))))
    n1 = np.zeros_like(k)
    n1[i_el], n1[i_t], n1[i_r], n1[i_x] = 0.60, 0.15, 0.15, 0.10
    res = fake_result(p, spec, k, np.zeros_like(k), n1)
    ine = sc.inelastic_spectrum(res, gap=gap)
    assert ine.p_elastic == pytest.approx(0.60)
    assert ine.p_inelastic == pytest.approx(0.40)
    assert ine.p_inelastic_t == pytest.approx(0.15)
    assert ine.p_inelastic_r == pytest.approx(0.15)
    assert ine.p_other == pytest.approx(0.10)
    assert ine.raman_open
    om = [float(M.dispersion(abs(k[i]), p)) for i in (i_t, i_r, i_x)]
    want = (0.15 * om[0] + 0.15 * om[1] + 0.10 * om[2]) / 0.40
    assert ine.omega_out == pytest.approx(want, abs=1e-9)
    assert ine.omega_out_expected == pytest.approx(0.5)


def test_inelastic_split_subtracts_cloud_background():
    p = M.ModelParams(L=64, g=0.7, j0=32, n_max=1)
    spec = sc.WavepacketSpec(omega=1.0, sigma=8.0, x0=16.0)
    k = synthetic_grid()
    i_el = np.argmin(np.abs(k - float(M.momentum_from_frequency(1.0, p))))
    n1 = np.zeros_like(k)
    n1[i_el] = 0.7
    # static cloud sits near k = 0, right inside the Raman window
    cloud = 0.2 * np.exp(-(k / 0.2) ** 2)
    bare = sc.inelastic_spectrum(fake_result(p, spec, k, None, n1), gap=0.5)
    subtracted = sc.inelastic_spectrum(
        fake_result(p, spec, k, None, n1 + cloud, gs_n_k=cloud), gap=0.5)
    assert subtracted.p_elastic == pytest.approx(bare.p_elastic, abs=1e-12)
    assert subtracted.p_inelastic_t == pytest.approx(0.0, abs=1e-12)
    polluted = sc.inelastic_spectrum(
        fake_result(p, spec, k, None, n1 + cloud), gap=0.5)
    assert polluted.p_inelastic > 0.1   # without subtraction the cloud leaks in


def test_inelastic_requires_bound_state_gap():
    p = M.ModelParams(L=64, g=0.7, j0=32, n_max=1)
    spec = sc.WavepacketSpec(omega=1.0, sigma=8.0, x0=16.0)
    res = fake_result(p, spec, synthetic_grid(), None, np.ones(1024))
    with pytest.raises(DependencyError, match="bound-state gap"):
        sc.inelastic_spectrum(res)


def test_broadband_density_method_recovers_injected_ratio():
    p = M.ModelParams(L=64, g=0.7, j0=32, n_max=1)
    spec = sc.WavepacketSpec(omega=1.0, sigma=8.0, x0=16.0)
    gap = 0.5
    k = synthetic_grid()
    k_in = float(M.momentum_from_frequency(1.0, p))
    k_out = float(M.momentum_from_frequency(1.0 - gap, p))
    v_in = abs(float(M.group_velocity(k_in, p)))
    v_out = abs(float(M.group_velocity(k_out, p)))
    i_in = np.argmin(np.abs(k - k_in))
    n0 = np.zeros_like(k)
    n0[i_in] = 1.0
    n1 = np.zeros_like(k)
    h = 0.05                        # plateaus so interpolation is exact
    n1[np.abs(np.abs(k) - k_out) < 0.05] = h
    omega_in, p_ine = sc.broadband_inelastic(fake_result(p, spec, k, n0, n1),
                                             gap)
    j = np.argmin(np.abs(omega_in - 1.0))
    assert p_ine[j] == pytest.approx(2 * h * v_in / v_out, rel=1e-9)
    assert np.isnan(p_ine[j + 30])  # thin incoming density gives no estimate


def test_broadband_density_method_nan_when_kinematically_closed():
    p = M.ModelParams(L=64, g=0.7, j0=32, n_max=1)
    spec = sc.WavepacketSpec(omega=0.5, sigma=8.0, x0=16.0)
    k = synthetic_grid()
    i_in = np.argmin(np.abs(k - float(M.momentum_from_frequency(0.5, p))))
    n0 = np.zeros_like(k)
    n0[i_in] = 1.0
    # converting from 0.5 would land below the band for any positive gap
    _, p_ine = sc.broadband_inelastic(fake_result(p, spec, k, n0, n0), 0.4)
    assert np.all(np.isnan(p_ine))


def test_broadband_conversion_is_nan_where_the_line_meets_the_packet_band():
    # a broad incoming plateau, all of it scattered elastically: with a small
    # gap, omega - gap falls inside the packet's own band, whose elastic
    # weight must not be counted as converted
    p = M.ModelParams(L=64, g=0.7, j0=32, n_max=1)
    spec = sc.WavepacketSpec(omega=1.0, sigma=1.0, x0=16.0)
    k = synthetic_grid()

    def plateau(q):
        return ((q > 0.8) & (q < 2.3)).astype(float)

    res = fake_result(p, spec, k, plateau(k),
                      0.9 * plateau(k) + 0.1 * plateau(-k))
    support = sc.dispersion(k[(k > 0.8) & (k < 2.3)], p)
    for gap in (0.15, 0.3):
        omega_in, p_ine = sc.broadband_inelastic(res, gap)
        _, _, p_mirror = sc.mirror_reflection_spectrum(res, gap)
        om_out = omega_in - gap
        overlap = (om_out >= support.min()) & (om_out <= support.max())
        assert overlap.any()
        assert np.all(np.isnan(p_ine[overlap]))
        assert np.all(np.isnan(p_mirror[overlap]))
        finite = np.isfinite(p_ine)
        assert finite.any()
        assert np.all((p_ine[finite] >= 0) & (p_ine[finite] <= 1))
        # the mirror bookkeeping zeroes only the kinematically closed bins
        closed = (omega_in >= support.min()) & (om_out <= M.band_edges(p)[0])
        assert np.array_equal(np.flatnonzero(p_mirror == 0.0),
                              np.flatnonzero(closed | (p_ine == 0.0)))
        assert closed.any() == (gap == 0.3)   # only the larger gap closes bins


def test_raman_threshold_is_gap_above_band_bottom():
    p = M.ModelParams(L=64, g=0.7, j0=32, n_max=1)
    assert sc.raman_threshold(0.44, p) == pytest.approx(1.44 - 2.0 / math.pi)


# ---------------------------------------------------------------------------
# mirror geometry

def test_mirror_experiment_bounces_packet_off_wall():
    res, ine = sc.mirror_experiment(
        g=0.0, omega=1.0, j0=20, mirror_dx=10, sigma=2.2, x0=7.0,
        n_max=1, t_final=55.0, dt=0.1, order=3, max_rank=8,
        cutoff=1e-12, n_snapshots=5, exclude_radius=6)
    assert ine is None
    p = res.params
    assert (p.boundary, p.L) == ("mirror", 31)
    s = res.snapshots[-1]
    # the standing-wave reference includes the wall bounce exactly
    assert np.max(np.abs(s.phi_x - sc.free_reference(p, res.spec, s.t))) < 2e-3
    assert s.parity == pytest.approx(-1.0, abs=1e-8)
    cent = [float(np.sum(np.arange(p.L) * (x.n_x - res.gs_n_x)))
            for x in res.snapshots]
    assert max(cent) > cent[0] + 10    # went out
    assert cent[-1] < max(cent) - 5    # and came back


def test_mirror_reflection_spectrum_on_synthetic_return():
    p = M.ModelParams(L=81, g=0.7, j0=60, n_max=1, boundary="mirror",
                      mirror_dx=20)
    spec = sc.WavepacketSpec(omega=1.0, sigma=8.0, x0=30.0)
    gap = 0.5
    k = synthetic_grid()
    k_in = float(M.momentum_from_frequency(1.0, p))
    k_out = float(M.momentum_from_frequency(1.0 - gap, p))
    v_in = abs(float(M.group_velocity(k_in, p)))
    v_out = abs(float(M.group_velocity(k_out, p)))
    n0 = np.zeros_like(k)
    n0[np.abs(k - k_in) < 0.05] = 1.0
    n1 = np.zeros_like(k)
    n1[np.abs(k + k_in) < 0.05] = 0.6       # elastic return
    n1[np.abs(k + k_out) < 0.05] = 0.4      # converted return
    omega_in, r_el, p_ine = sc.mirror_reflection_spectrum(
        fake_result(p, spec, k, n0, n1), gap)
    j = np.argmin(np.abs(omega_in - 1.0))
    assert r_el[j] == pytest.approx(0.6, rel=1e-9)
    assert p_ine[j] == pytest.approx(0.4 * v_in / v_out, rel=1e-9)
    assert np.isnan(r_el[j + 40])           # thin incoming density
