"""Single-photon scattering runs and their frequency-space analysis.

A run prepares ``sum_x phi_x adag_x |GS>`` (a Gaussian packet on top of the
interacting ground state), propagates it with TEBD, and records per-snapshot
densities and scalar diagnostics, and the elastic amplitude profile
``<GS| a_x |Psi(t)>`` once, on the last clean snapshot.  Spectra come from
two complementary reductions:

* elastic: windowed Fourier ratios of the amplitude profile against a
  free-chain reference packet, transmitted side for t(omega) and launch side
  for r(omega), covering the packet's whole bandwidth in one run;
* inelastic: momentum occupations n_k from the one-body correlator
  ``<adag_x a_x'>``, which also counts photons that left the scatterer in an
  excited bound state, split into elastic and frequency-converted parts
  after subtracting the static cloud background.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import BandEdgeError, ConfigError, NumericError
from .evolution import evolve
from .model import (ModelParams, band_edges, dispersion, group_velocity,
                    hamiltonian_mpo, momentum_from_frequency,
                    packet_creation_mpo, parity_expectation,
                    photon_annihilators, photon_number_ops, scatterer_number,
                    trotter_gates)
from .mps import (MPS, apply_mpo, correlator_matrix, local_matrix_elements,
                  mpo_expectation, norm, normalize, site_expectations)

# Packet weight tolerated on top of the scatterer cloud before erroring.
CLOUD_OVERLAP_LIMIT = 1e-3
# Warn when a run, launch included, truncates away more squared weight.
TRUNCATION_BUDGET = 0.05
# Photon weight growth at a chain end that marks later snapshots as
# contaminated; 1e-3 sits well below spectral tolerances without demanding
# more than ~3 sigma of Gaussian clearance from the walls.
EDGE_WEIGHT_LIMIT = 1e-3
# FFT lengths of the n_k and t(omega) grids, per power-of-two chain length.
NK_PAD_FACTOR = 4
SPECTRUM_PAD_FACTOR = 8
# Share of the free packet's squared weight that must sit on the tapered
# transmitted window before its transform is divided by.
FREE_REACH = 0.5
# Half-width of the elastic line and of the Raman window, in packet
# bandwidths v_g / sigma.
LINE_WIDTH = 3.0


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian single-photon packet: width, launch site, and carrier.

    The packet is a right-mover: the carrier is the band frequency
    ``omega``, and the dispersion fixes its central momentum k > 0.
    Site amplitudes follow ``phi_x ~ exp[-(x - x0)^2 / 2 sigma^2 + i k x]``.
    """

    sigma: float
    x0: float
    omega: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def carrier_momentum(self, params: ModelParams) -> float:
        """Central momentum k > 0 against the model's dispersion."""
        k = momentum_from_frequency(self.omega, params)
        if np.isnan(k):
            raise BandEdgeError(f"carrier {self.omega} lies outside the band")
        return float(k)


def packet_profile(params: ModelParams, spec: WavepacketSpec) -> np.ndarray:
    """Normalized complex site amplitudes of the packet."""
    k = spec.carrier_momentum(params)
    if not 0 <= spec.x0 <= params.L - 1:
        raise ValueError("packet center outside the chain")
    x = np.arange(params.L)
    phi = np.exp(-((x - spec.x0) ** 2) / (2.0 * spec.sigma ** 2) + 1j * k * x)
    return phi / np.linalg.norm(phi)


def check_packet(params: ModelParams, spec: WavepacketSpec) -> np.ndarray:
    """Profile of a packet the chain can launch; raises for one it cannot.

    Rejects a carrier outside the band (`BandEdgeError`), a centre off the
    chain (`ValueError`), packet weight above `CLOUD_OVERLAP_LIMIT` on the
    scatterer site and a centre not left of it (`ConfigError`): the
    right-moving packet must meet the scatterer.  No state is needed, so
    configs run the same checks at parse time.
    """
    phi = packet_profile(params, spec)
    cloud = abs(phi[params.j0]) ** 2
    if cloud > CLOUD_OVERLAP_LIMIT:
        raise ConfigError(
            f"packet weight {cloud:.2e} on the scatterer site; move x0 away")
    if spec.x0 >= params.j0:
        raise ConfigError(f"packet launched at x0={spec.x0:g}, not left of "
                          f"the scatterer at j0={params.j0}")
    return phi


@dataclass
class PacketInfo:
    omega: float
    momentum: float
    velocity: float
    bandwidth: float          # frequency half-width v_g / sigma


def prepare_input(gs: MPS, params: ModelParams, spec: WavepacketSpec,
                  max_rank: int, cutoff: float):
    """Create the packet on the ground state.

    Returns ``(state, info, discarded)``, ``discarded`` the squared weight
    the truncated creation dropped before ``state`` was renormalized.

    The creation operator is parity-odd, so the input parity is minus the
    ground state's; that flip is asserted here.  Packets that
    `check_packet` rejects are rejected here too, and marginal overlaps or
    tails touching the chain ends are reported as warnings.
    """
    phi = check_packet(params, spec)
    cloud = abs(phi[params.j0]) ** 2
    if cloud > 1e-6:
        warnings.warn(f"packet tail {cloud:.1e} on the scatterer site",
                      stacklevel=2)
    tails = abs(phi[0]) ** 2 + abs(phi[-1]) ** 2
    if tails > 1e-2:
        warnings.warn(f"packet weight {tails:.1e} clipped at the chain ends",
                      stacklevel=2)

    state, discarded = apply_mpo(gs, packet_creation_mpo(params, phi),
                                 max_rank, cutoff)
    state = normalize(state)
    p_gs = parity_expectation(gs, params)
    p_in = parity_expectation(state, params)
    if abs(p_in + p_gs) > 1e-6:
        raise NumericError(
            f"creation operator failed to flip parity: {p_gs:+.6f} -> {p_in:+.6f}")
    k = spec.carrier_momentum(params)
    v = abs(float(group_velocity(k, params)))
    info = PacketInfo(omega=float(spec.omega), momentum=k,
                      velocity=v, bandwidth=v / spec.sigma)
    return state, info, discarded


# ---------------------------------------------------------------------------
# free propagation reference

def free_reference(params: ModelParams, spec: WavepacketSpec,
                   t: float) -> np.ndarray:
    """Packet amplitudes after time ``t`` on the bare chain (no scatterer).

    Expanded in the open-chain standing waves via a type-I sine transform,
    so reflections off the chain ends (the mirror geometry) are exact.
    """
    phi0 = packet_profile(params, spec)
    modes = np.arange(1, params.L + 1)
    omegas = 1.0 + 2.0 * params.J * np.cos(modes * math.pi / (params.L + 1))
    c = scipy.fft.dst(phi0, type=1, norm="ortho")
    return scipy.fft.idst(c * np.exp(-1j * omegas * t), type=1, norm="ortho")


# ---------------------------------------------------------------------------
# photon amplitude and momentum occupations

def photon_amplitude(gs: MPS, psi: MPS, params: ModelParams) -> np.ndarray:
    """``<GS| a_x |Psi>`` per site, norm factors of both states included."""
    return local_matrix_elements(gs, psi, photon_annihilators(params))


def momentum_occupations(state: MPS, params: ModelParams, sites):
    """Signed-k photon occupations over the selected ``sites``.

    Builds C_{xx'} = <adag_x a_x'> on the window and resolves it on a
    zero-padded momentum grid; the occupations sum exactly to the windowed
    photon number, and the sign of k keeps left- and right-movers apart.
    Returns ``(k, n_k)`` with k ascending in (-pi, pi].
    """
    sites = np.asarray(sites, dtype=int)
    if sites.size == 0:
        raise ValueError("empty site window")
    c_full = correlator_matrix(state, photon_annihilators(params))
    c = c_full[np.ix_(sites, sites)]
    n_fft = NK_PAD_FACTOR * int(2 ** math.ceil(math.log2(max(params.L, 2))))
    k = 2.0 * math.pi * np.fft.fftfreq(n_fft)
    phases = np.exp(1j * np.outer(k, sites))          # e^{ikx} per mode
    n_k = np.einsum("kx,kx->k", phases @ c, phases.conj()).real / n_fft
    order = np.argsort(k)
    return k[order], n_k[order]


# ---------------------------------------------------------------------------
# the run loop

@dataclass
class Snapshot:
    t: float
    n_x: np.ndarray            # photon density, scatterer cloud included
    scatterer_population: float
    norm: float
    discarded: float           # accumulated over the whole run so far
    max_bond: int
    energy: float = None       # <H>, recorded when measure_energy is set
    n_k: np.ndarray = None     # windowed occupations, when measure_nk is set
    phi_x: np.ndarray = None   # <GS| a_x |Psi>, set on last_clean only


@dataclass
class ScatteringResult:
    params: ModelParams
    spec: WavepacketSpec
    info: PacketInfo
    snapshots: list
    gs_energy: float
    gs_n_x: np.ndarray
    k_grid: np.ndarray
    n_k_initial: np.ndarray    # occupations on the analysis window
    n_k_final: np.ndarray
    gs_n_k: np.ndarray         # static cloud background on the same window
    gs_scatterer_population: float = 0.0
    flags: list = field(default_factory=list)
    edge_time: float = None    # first snapshot time with edge contamination
    last_clean: Snapshot = None  # latest snapshot before edge contamination

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def analysis_window(params: ModelParams, exclude_radius: int) -> np.ndarray:
    """Sites outside the scatterer's cloud region."""
    x = np.arange(params.L)
    return x[np.abs(x - params.j0) > exclude_radius]


def run_scattering(params: ModelParams, spec: WavepacketSpec, t_final: float,
                   dt: float, order: int, max_rank: int, cutoff: float,
                   n_snapshots: int, gs: MPS, gs_energy: float,
                   exclude_radius: int = 10, measure_energy: bool = False,
                   measure_nk: bool = False) -> ScatteringResult:
    """Propagate one packet and collect everything the analyses need.

    The stepper settings ``dt`` to ``n_snapshots`` have no defaults here:
    callers pass them, most as ``**EvolutionParams.run_kwargs()``, so
    `evolution.EvolutionParams` stays their one home.  A run solves
    nothing: callers solve ``gs`` and its energy ``gs_energy`` once per
    coupling and share them across runs.  Edge contamination is watched on
    both chain ends for open boundaries but only on the far-from-wall end
    for the mirror geometry, where bouncing off the wall is the point of
    the experiment.  The steps run as ``min(n_snapshots, n_steps)``
    `evolve` calls whose sizes differ by at most one step, each followed by
    a snapshot, after the one at t = 0.  ``measure_nk`` stores windowed momentum occupations on every
    snapshot, the first and last serving as the run's initial and final
    ones; each costs a one-body correlator.  The elastic amplitude
    ``phi_x`` is taken once per run, on `ScatteringResult.last_clean`, the
    one snapshot the spectra read; the other snapshots leave it ``None``.
    A snapshot's ``discarded`` counts the launch truncation and every step
    before it, and the run warns once if its total passes
    `TRUNCATION_BUDGET`, however it is split into calls.  A run is flagged
    when, at `last_clean`, the outgoing packet's centre (the transmitted one,
    or the mirror's return) has not cleared the analysis window by 3 sigma.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    state, info, launch_discarded = prepare_input(gs, params, spec,
                                                  max_rank, cutoff)

    number_ops = photon_number_ops(params)
    n_sc = scatterer_number(params)
    ham = hamiltonian_mpo(params) if measure_energy else None
    sc_pop = [(params.j0, n_sc)]      # read off the n_x sweep
    vals = site_expectations(gs, number_ops, sc_pop).real
    gs_n_x, gs_pop = vals[:-1], float(vals[-1])
    window = analysis_window(params, exclude_radius)
    k_grid, gs_n_k = momentum_occupations(gs, params, window)

    def snap(t, st, discarded):
        vals = site_expectations(st, number_ops, sc_pop).real
        return Snapshot(
            t=t,
            n_x=vals[:-1],
            scatterer_population=float(vals[-1]),
            norm=norm(st),
            discarded=discarded,
            max_bond=st.max_bond,
            energy=float(mpo_expectation(st, ham).real)
            if ham is not None else None,
            n_k=momentum_occupations(st, params, window)[1]
            if measure_nk else None)

    edge_w = 5
    regions = [(0, edge_w)]
    if params.boundary != "mirror":
        regions.append((params.L - edge_w, params.L))

    def edge_weights(n_x):
        return [float(np.sum((n_x - gs_n_x)[lo:hi])) for lo, hi in regions]

    gates = trotter_gates(params, dt, order=order)
    n_steps = max(1, round(t_final / dt))
    n_chunks = min(max(1, n_snapshots), n_steps)
    snapshots = [snap(0.0, state, launch_discarded)]
    clean, clean_state = snapshots[0], state
    n_k0 = snapshots[0].n_k if measure_nk else \
        momentum_occupations(state, params, window)[1]
    # a clipped launch tail may sit at an edge from the start; per-edge
    # growth beyond that baseline signals the scattered packet arriving
    edge_base = edge_weights(snapshots[0].n_x)
    flags = []
    edge_time = None
    kept = 1.0 - launch_discarded         # one ledger, launch included
    done = 0
    for c in range(1, n_chunks + 1):
        # n_chunks chunks whose sizes differ by at most one step
        end = n_steps * c // n_chunks
        state, tr = evolve(state, gates, end - done, max_rank, cutoff)
        for w in tr.discarded:
            kept *= 1.0 - w
        done = end
        s = snap(done * dt, state, 1.0 - kept)
        snapshots.append(s)
        ew = max(w - b for w, b in zip(edge_weights(s.n_x), edge_base))
        if ew > EDGE_WEIGHT_LIMIT:
            flags.append(f"edge weight {ew:.1e} at t={s.t:g}")
            if edge_time is None:
                edge_time = s.t
        elif edge_time is None:
            clean, clean_state = s, state
    clean.phi_x = photon_amplitude(gs, clean_state, params)
    if 1.0 - kept > TRUNCATION_BUDGET:
        warnings.warn(f"accumulated truncation weight {1.0 - kept:.3e} "
                      f"exceeds the budget {TRUNCATION_BUDGET:.0e}; "
                      "raise max_rank", stacklevel=2)

    n_k1 = snapshots[-1].n_k if measure_nk else \
        momentum_occupations(state, params, window)[1]
    result = ScatteringResult(params=params, spec=spec, info=info,
                              snapshots=snapshots, gs_energy=gs_energy,
                              gs_n_x=gs_n_x, k_grid=k_grid,
                              n_k_initial=n_k0, n_k_final=n_k1,
                              gs_n_k=gs_n_k, gs_scatterer_population=gs_pop,
                              flags=flags, edge_time=edge_time,
                              last_clean=clean)
    if params.boundary == "open":
        side, reach = "transmitted", spec.x0 + info.velocity * clean.t
        short = reach < params.j0 + exclude_radius + 3.0 * spec.sigma
    else:
        # the return, unfolded about the wall at site L - 1
        side = "returned"
        reach = 2.0 * (params.L - 1) - spec.x0 - info.velocity * clean.t
        short = reach > params.j0 - exclude_radius - 3.0 * spec.sigma
    if short:
        result.flags.append(
            f"{side} packet near x={reach:.0f} at the analysis snapshot; "
            f"extend t_final past the window")
    return result


def qubit_dynamics(result: ScatteringResult):
    """Scatterer excitation relative to the ground state, per snapshot.

    Returns ``(times, delta_p)`` with delta_p = P(t) - P_GS; a packet that
    leaves the scatterer de-excited brings delta_p back to zero.
    """
    t = result.times
    pop = np.array([s.scatterer_population for s in result.snapshots])
    return t, pop - result.gs_scatterer_population


# ---------------------------------------------------------------------------
# elastic spectrum

def _tapered_window(length: int, start: int, stop: int,
                    taper: int) -> np.ndarray:
    """Indicator on [start, stop) with cosine ramps pulled inside the edges."""
    w = np.zeros(length)
    start, stop = max(0, start), min(length, stop)
    if stop <= start:
        return w
    w[start:stop] = 1.0
    n = min(taper, (stop - start) // 2)
    if n > 0:
        ramp = 0.5 * (1.0 - np.cos(math.pi * (np.arange(n) + 1) / (n + 1)))
        w[start:start + n] = ramp
        w[stop - n:stop] = ramp[::-1]
    return w


@dataclass
class TransmissionSpectrum:
    omega: np.ndarray
    T: np.ndarray              # |t|^2 on the valid grid points
    R: np.ndarray              # |r|^2, reflected side at mirrored momenta
    k: np.ndarray


def transmission_spectrum(result: ScatteringResult, window: int = 10,
                          taper: int = 8,
                          mask_frac: float = 0.05) -> TransmissionSpectrum:
    """t(omega) and r(omega) from the amplitude profile vs the free packet.

    The ``<GS| a_x |Psi>`` profile of the run's last clean snapshot, the
    only one that carries it, is restricted to sites past
    ``j0 + window`` (transmitted) and before ``j0 - window`` (reflected),
    the freely propagated packet to the transmitted side, and all three are
    Fourier transformed on a zero-padded grid.  t_k divides the transmitted
    by the free transform; r_k divides the reflected transform at -k by the
    free one at +k.  The ratio is kept where the free packet has at least
    ``mask_frac`` of its peak amplitude, so one broadband packet yields the
    spectrum over its whole bandwidth.  Window edges are cosine-tapered over
    ``taper`` sites: a hard cut leaks power across the whole grid and
    corrupts the ratio in the weak tails.  Resonance-delayed components
    trail the free packet, so the run must be long enough for them to clear
    ``j0 + window + taper``.  No k is kept when the free packet holds less
    than `FREE_REACH` of its squared weight on the tapered transmitted
    window: the spectrum is then empty, not a ratio of leakage.
    """
    p = result.params
    snap = result.last_clean
    phi_free = free_reference(p, result.spec, snap.t)
    w_t = _tapered_window(p.L, p.j0 + window, p.L, taper)
    w_r = _tapered_window(p.L, 0, p.j0 - window, taper)
    n_fft = SPECTRUM_PAD_FACTOR * int(2 ** math.ceil(math.log2(p.L)))
    f_run = np.fft.fft(snap.phi_x * w_t, n_fft)
    f_ref = np.fft.fft(snap.phi_x * w_r, n_fft)
    f_free = np.fft.fft(phi_free * w_t, n_fft)
    k = 2.0 * math.pi * np.fft.fftfreq(n_fft)
    idx = np.nonzero(np.abs(f_free) >= mask_frac * np.max(np.abs(f_free)))[0]
    if np.sum(np.abs(phi_free * w_t) ** 2) < FREE_REACH:
        idx = idx[:0]            # the free transform would be leakage
    idx = idx[np.argsort(k[idx])]
    t_amp = f_run[idx] / f_free[idx]
    r_amp = f_ref[-idx % n_fft] / f_free[idx]
    return TransmissionSpectrum(omega=dispersion(np.abs(k[idx]), p),
                                T=np.abs(t_amp) ** 2, R=np.abs(r_amp) ** 2,
                                k=k[idx])


# ---------------------------------------------------------------------------
# inelastic spectrum

@dataclass
class InelasticResult:
    p_elastic: float
    p_inelastic: float         # everything off the carrier line
    p_inelastic_t: float       # Raman window around the carrier - gap, k > 0
    p_inelastic_r: float
    omega_out: float           # centroid of the off-carrier weight (nan if none)
    omega_out_expected: float  # carrier minus the bound-state gap


def _cloud_subtracted(result: ScatteringResult, n_k: np.ndarray) -> np.ndarray:
    """Occupations with the static cloud background removed and clipped."""
    # Parseval noise can dip below zero
    return np.clip(n_k - result.gs_n_k, 0.0, None)


def inelastic_spectrum(result: ScatteringResult,
                       gap: float) -> InelasticResult:
    """Split the outgoing occupations into elastic and converted parts.

    ``gap`` is the bound-state excitation energy E2 - E_GS; the Raman line
    is expected at the carrier minus that gap.  The static cloud is
    subtracted first, occupations are normalized by the remaining photon
    number in the window, and the converted part is reported per direction
    from bins within `LINE_WIDTH` bandwidths of the expected line (carrier
    bins win when the two windows overlap at small gap).
    """
    p = result.params
    k = result.k_grid
    n_k = _cloud_subtracted(result, result.n_k_final)
    total = float(np.sum(n_k))
    if total <= 0:
        raise ValueError("no photon weight in the analysis window")
    om_in = result.info.omega
    d_om = result.info.bandwidth
    om_k = dispersion(np.abs(k), p)
    el = np.abs(om_k - om_in) <= LINE_WIDTH * d_om
    om_out = om_in - gap
    ram = ~el & (np.abs(om_k - om_out) <= LINE_WIDTH * d_om)
    ine = ~el
    w_ine = float(np.sum(n_k[ine]))
    centroid = float(np.sum(n_k[ine] * om_k[ine]) / w_ine) \
        if w_ine > 1e-12 else float("nan")
    return InelasticResult(
        p_elastic=float(np.sum(n_k[el])) / total,
        p_inelastic=w_ine / total,
        p_inelastic_t=float(np.sum(n_k[ram & (k > 0)])) / total,
        p_inelastic_r=float(np.sum(n_k[ram & (k < 0)])) / total,
        omega_out=centroid, omega_out_expected=om_out)


def raman_threshold(gap: float, params: ModelParams) -> float:
    """Carrier frequency above which frequency conversion is open.

    The converted photon must fit in the band, so the carrier needs at
    least the bound-state gap above the band bottom.
    """
    return gap + band_edges(params)[0]


def _density_at(k: np.ndarray, n: np.ndarray, k_query: float) -> float:
    """Interpolate an occupation density on its own sign branch."""
    side = k > 0 if k_query >= 0 else k < 0
    return float(np.interp(k_query, k[side], n[side]))


def broadband_spectrum(result: ScatteringResult, gap: float):
    """Return and conversion fractions versus carrier from one broadband run.

    One density pass over the forward bins of the incoming packet serves
    both boundaries; both occupations are cloud-subtracted.  A bin is solid
    where its incoming density ``dn`` is at least 1% of its peak; on solid
    bins ``r_back`` is the outgoing density at ``-k`` over ``dn`` (a mirror
    run's elastic return), and ``p_conv`` the converted weight
    ``n_out v_in / (dn v_out)`` at ``omega - gap``, where ``n_out`` counts
    both signs of ``k_out`` and the group velocities turn densities into
    fluxes.
    Returns ``(omega_in, r_back, p_conv)``, both NaN on thin bins.
    ``p_conv`` is 0 on the solid bins where ``omega - gap`` leaves the band,
    the closed channel, and NaN where ``omega - gap`` falls inside the
    solid support: the outgoing density there also holds elastic weight,
    which this bookkeeping cannot tell from converted weight.
    """
    p = result.params
    k = result.k_grid
    n0 = _cloud_subtracted(result, result.n_k_initial)
    n1 = _cloud_subtracted(result, result.n_k_final)
    fwd = k > 0
    k_in = k[fwd]
    dens_in = n0[fwd]
    omega_in = dispersion(k_in, p)
    solid = dens_in >= 0.01 * np.max(dens_in)
    lo, hi = band_edges(p)
    om_out = omega_in - gap
    fits = (lo < om_out) & (om_out < hi)
    support = omega_in[solid]
    elastic = (support.min() <= om_out) & (om_out <= support.max())
    r_back = np.full(k_in.shape, np.nan)
    p_conv = np.full(k_in.shape, np.nan)
    for i in np.flatnonzero(solid):
        dn = dens_in[i]
        r_back[i] = _density_at(k, n1, -float(k_in[i])) / dn
        if not fits[i]:
            p_conv[i] = 0.0
        elif not elastic[i]:
            k_out = float(momentum_from_frequency(om_out[i], p))
            n_out = _density_at(k, n1, k_out) + _density_at(k, n1, -k_out)
            v_in = abs(group_velocity(float(k_in[i]), p))
            v_out = abs(group_velocity(k_out, p))
            p_conv[i] = n_out * v_in / (dn * v_out)
    return omega_in, r_back, p_conv
