"""Single-photon scattering runs and their frequency-space analysis.

A run prepares ``sum_x phi_x adag_x |GS>`` (a Gaussian packet on top of the
interacting ground state), propagates it with TEBD, and records per-snapshot
densities, the elastic amplitude profile ``<GS| a_x |Psi(t)>``, and scalar
diagnostics.  Spectra come from two complementary reductions:

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

from .errors import (BandEdgeError, ConfigError, DependencyError,
                     NumericError)
from .evolution import embedded_ground_state, evolve
from .model import (ModelParams, band_edges, dispersion, group_velocity,
                    hamiltonian_mpo, momentum_from_frequency,
                    packet_creation_mpo, parity_expectation,
                    photon_annihilators, photon_number_ops, scatterer_number,
                    trotter_gates)
from .mps import (MPS, apply_mpo, correlator_matrix, local_matrix_elements,
                  mpo_expectation, norm, normalize, site_expectations)

# Packet weight tolerated on top of the scatterer cloud before erroring.
CLOUD_OVERLAP_LIMIT = 1e-3
# Photon weight growth at a chain end that marks later snapshots as
# contaminated; 1e-3 sits well below spectral tolerances without demanding
# more than ~3 sigma of Gaussian clearance from the walls.
EDGE_WEIGHT_LIMIT = 1e-3
# FFT lengths of the n_k and t(omega) grids, per power-of-two chain length.
NK_PAD_FACTOR = 4
SPECTRUM_PAD_FACTOR = 8
# Half-width of the elastic line and of the Raman window, in packet
# bandwidths v_g / sigma.
LINE_WIDTH = 3.0


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian single-photon packet: width, launch site, and carrier.

    The carrier is the band frequency ``omega``; the dispersion fixes the
    central momentum and ``direction`` its sign, +1 for a right-mover.
    Site amplitudes follow ``phi_x ~ exp[-(x - x0)^2 / 2 sigma^2 + i k x]``.
    """

    sigma: float
    x0: float
    omega: float
    direction: int = +1

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")

    def carrier_momentum(self, params: ModelParams) -> float:
        """Signed central momentum against the model's dispersion."""
        k = momentum_from_frequency(self.omega, params)
        if np.isnan(k):
            raise BandEdgeError(f"carrier {self.omega} lies outside the band")
        return self.direction * float(k)


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
    chain (`ValueError`) and packet weight above `CLOUD_OVERLAP_LIMIT` on the
    scatterer site (`ConfigError`).  No state is needed, so configs run the
    same checks at parse time.
    """
    phi = packet_profile(params, spec)
    cloud = abs(phi[params.j0]) ** 2
    if cloud > CLOUD_OVERLAP_LIMIT:
        raise ConfigError(
            f"packet weight {cloud:.2e} on the scatterer site; move x0 away")
    return phi


@dataclass
class PacketInfo:
    omega: float
    momentum: float
    velocity: float
    bandwidth: float          # frequency half-width v_g / sigma
    messages: list


def prepare_input(gs: MPS, params: ModelParams, spec: WavepacketSpec,
                  max_rank: int, cutoff: float = 1e-12):
    """Create the packet on the ground state; returns ``(state, info)``.

    The creation operator is parity-odd, so the input parity is minus the
    ground state's; that flip is asserted here.  Packets that
    `check_packet` rejects are rejected here too, and marginal overlaps or
    tails touching the chain ends are reported as warnings.
    """
    phi = check_packet(params, spec)
    messages = []
    cloud = abs(phi[params.j0]) ** 2
    if cloud > 1e-6:
        messages.append(f"packet tail {cloud:.1e} on the scatterer site")
    tails = abs(phi[0]) ** 2 + abs(phi[-1]) ** 2
    if tails > 1e-2:
        messages.append(f"packet weight {tails:.1e} clipped at the chain ends")
    for msg in messages:
        warnings.warn(msg, stacklevel=2)

    state, _ = apply_mpo(gs, packet_creation_mpo(params, phi), max_rank, cutoff)
    state = normalize(state)
    p_gs = parity_expectation(gs, params)
    p_in = parity_expectation(state, params)
    if abs(p_in + p_gs) > 1e-6:
        raise NumericError(
            f"creation operator failed to flip parity: {p_gs:+.6f} -> {p_in:+.6f}")
    k = spec.carrier_momentum(params)
    v = abs(float(group_velocity(k, params)))
    info = PacketInfo(omega=float(spec.omega), momentum=k,
                      velocity=v, bandwidth=v / spec.sigma,
                      messages=messages)
    return state, info


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


def momentum_occupations(state: MPS, params: ModelParams, sites=None):
    """Signed-k photon occupations over the selected ``sites``.

    Builds C_{xx'} = <adag_x a_x'> on the window and resolves it on a
    zero-padded momentum grid; the occupations sum exactly to the windowed
    photon number, and the sign of k keeps left- and right-movers apart.
    Returns ``(k, n_k)`` with k ascending in (-pi, pi].
    """
    if sites is None:
        sites = np.arange(params.L)
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
    phi_x: np.ndarray          # <GS| a_x |Psi>, the elastic amplitude profile
    scatterer_population: float
    parity: float
    norm: float
    discarded: float           # accumulated over the whole run so far
    max_bond: int
    energy: float = None       # <H>, recorded when measure_energy is set
    n_k: np.ndarray = None     # windowed occupations, when measure_nk is set


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
    gs_n_k: np.ndarray = None  # static cloud background on the same window
    gs_scatterer_population: float = 0.0
    flags: list = field(default_factory=list)
    edge_time: float = None    # first snapshot time with edge contamination

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def last_clean(self) -> Snapshot:
        """Latest snapshot before photon weight reached a watched edge."""
        if self.edge_time is None:
            return self.snapshots[-1]
        clean = self.snapshots[0]
        for s in self.snapshots:
            if s.t >= self.edge_time:
                break
            clean = s
        return clean


def analysis_window(params: ModelParams, exclude_radius: int) -> np.ndarray:
    """Sites outside the scatterer's cloud region."""
    x = np.arange(params.L)
    return x[np.abs(x - params.j0) > exclude_radius]


def run_scattering(params: ModelParams, spec: WavepacketSpec, t_final: float,
                   dt: float = 0.05, order: int = 3, max_rank: int = 10,
                   cutoff: float = 1e-10, n_snapshots: int = 40,
                   gs: MPS = None, gs_energy: float = None,
                   exclude_radius: int = 10, measure_energy: bool = False,
                   measure_nk: bool = False, progress=None) -> ScatteringResult:
    """Propagate one packet and collect everything the analyses need.

    The ground state is computed here, with the solver's defaults, unless
    both ``gs`` and ``gs_energy`` are supplied (pass them when scanning
    carriers at fixed coupling).  Edge contamination is watched on both
    chain ends for open boundaries but only on the far-from-wall end for
    the mirror geometry, where bouncing off the wall is the point of the
    experiment.  The steps run as
    ``min(n_snapshots, n_steps)`` `evolve` calls whose sizes differ by at
    most one step, each followed by a snapshot, after the one at t = 0.
    ``measure_nk`` stores windowed momentum occupations on every snapshot,
    the first and last serving as the run's initial and final ones; each
    costs a one-body correlator.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    say = progress or (lambda s: None)
    if gs is None or gs_energy is None:
        say("solving ground state")
        gs_energy, gs, _ = embedded_ground_state(params)
    state, info = prepare_input(gs, params, spec, max_rank, cutoff)
    say(f"packet at k={info.momentum:+.4f}, v={info.velocity:.4f}")

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
            phi_x=photon_amplitude(gs, st, params),
            scatterer_population=float(vals[-1]),
            parity=parity_expectation(st, params),
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
    snapshots = [snap(0.0, state, 0.0)]
    n_k0 = snapshots[0].n_k if measure_nk else \
        momentum_occupations(state, params, window)[1]
    # a clipped launch tail may sit at an edge from the start; per-edge
    # growth beyond that baseline signals the scattered packet arriving
    edge_base = edge_weights(snapshots[0].n_x)
    flags = []
    edge_time = None
    kept = 1.0
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
        say(f"t={s.t:7.1f}  bond={s.max_bond}  discarded={s.discarded:.2e}")

    n_k1 = snapshots[-1].n_k if measure_nk else \
        momentum_occupations(state, params, window)[1]
    result = ScatteringResult(params=params, spec=spec, info=info,
                              snapshots=snapshots, gs_energy=gs_energy,
                              gs_n_x=gs_n_x, k_grid=k_grid,
                              n_k_initial=n_k0, n_k_final=n_k1,
                              gs_n_k=gs_n_k, gs_scatterer_population=gs_pop,
                              flags=flags, edge_time=edge_time)
    if params.boundary == "open" and info.momentum > 0:
        reach = spec.x0 + info.velocity * result.last_clean.t
        if reach < params.j0 + exclude_radius + 3.0 * spec.sigma:
            result.flags.append(
                f"transmitted packet near x={reach:.0f} at the analysis "
                f"snapshot; extend t_final past the window")
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
    carrier: float             # windowed power ratio at the carrier


def transmission_spectrum(result: ScatteringResult, window: int = 10,
                          taper: int = 8,
                          mask_frac: float = 0.05) -> TransmissionSpectrum:
    """t(omega) and r(omega) from the amplitude profile vs the free packet.

    The run's ``<GS| a_x |Psi>`` profile is restricted to sites past
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
    ``j0 + window + taper``.
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
    idx = idx[np.argsort(k[idx])]
    t_amp = f_run[idx] / f_free[idx]
    r_amp = f_ref[-idx % n_fft] / f_free[idx]
    power_run = float(np.sum(np.abs(snap.phi_x * w_t) ** 2))
    power_free = float(np.sum(np.abs(phi_free * w_t) ** 2))
    carrier = power_run / power_free if power_free > 0 else float("nan")
    return TransmissionSpectrum(omega=dispersion(np.abs(k[idx]), p),
                                T=np.abs(t_amp) ** 2, R=np.abs(r_amp) ** 2,
                                k=k[idx], carrier=carrier)


# ---------------------------------------------------------------------------
# inelastic spectrum

def elastic_mask(k: np.ndarray, params: ModelParams, omega_in: float,
                 delta_omega: float) -> np.ndarray:
    """True where a mode is within `LINE_WIDTH` bandwidths of the carrier."""
    return np.abs(dispersion(np.abs(k), params) - omega_in) \
        <= LINE_WIDTH * delta_omega


@dataclass
class InelasticResult:
    omega_in: float
    p_elastic: float
    p_inelastic: float         # everything off the carrier line
    p_inelastic_t: float       # Raman window around omega_in - gap, k > 0
    p_inelastic_r: float
    p_other: float             # off-carrier weight outside the Raman window
    omega_out: float           # centroid of the off-carrier weight (nan if none)
    omega_out_expected: float  # carrier minus the bound-state gap
    bandwidth: float
    raman_open: bool           # carrier above the conversion threshold
    k: np.ndarray
    n_k: np.ndarray            # cloud-subtracted occupations used here


def _cloud_subtracted(result: ScatteringResult, n_k: np.ndarray) -> np.ndarray:
    """Occupations with the static cloud background removed and clipped."""
    if result.gs_n_k is not None:
        n_k = n_k - result.gs_n_k
    return np.clip(n_k, 0.0, None)   # Parseval noise can dip below zero


def inelastic_spectrum(result: ScatteringResult,
                       gap: float = None) -> InelasticResult:
    """Split the outgoing occupations into elastic and converted parts.

    ``gap`` is the bound-state excitation energy E2 - E_GS; the Raman line
    is expected at the carrier minus that gap, and without it the split
    cannot be labeled, hence the hard dependency.  The static cloud is
    subtracted first, occupations are normalized by the remaining photon
    number in the window, and the converted part is reported per direction
    from bins within `LINE_WIDTH` bandwidths of the expected line (carrier
    bins win when the two windows overlap at small gap).
    """
    if gap is None:
        raise DependencyError(
            "inelastic analysis needs the bound-state gap (E2 - E_GS); "
            "compute bound states first")
    p = result.params
    k = result.k_grid
    n_k = _cloud_subtracted(result, result.n_k_final)
    total = float(np.sum(n_k))
    if total <= 0:
        raise ValueError("no photon weight in the analysis window")
    om_in = result.info.omega
    d_om = result.info.bandwidth
    om_k = dispersion(np.abs(k), p)
    el = elastic_mask(k, p, om_in, d_om)
    om_out = om_in - gap
    ram = ~el & (np.abs(om_k - om_out) <= LINE_WIDTH * d_om)
    ine = ~el
    w_ine = float(np.sum(n_k[ine]))
    centroid = float(np.sum(n_k[ine] * om_k[ine]) / w_ine) \
        if w_ine > 1e-12 else float("nan")
    return InelasticResult(
        omega_in=om_in,
        p_elastic=float(np.sum(n_k[el])) / total,
        p_inelastic=w_ine / total,
        p_inelastic_t=float(np.sum(n_k[ram & (k > 0)])) / total,
        p_inelastic_r=float(np.sum(n_k[ram & (k < 0)])) / total,
        p_other=float(np.sum(n_k[ine & ~ram])) / total,
        omega_out=centroid, omega_out_expected=om_out, bandwidth=d_om,
        raman_open=bool(om_in > raman_threshold(gap, p)),
        k=k, n_k=n_k)


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


def _density_ratios(result: ScatteringResult, gap: float):
    """Density-ratio bookkeeping per forward bin of the incoming packet.

    Both occupations are cloud-subtracted.  Returns ``(omega_in, closed,
    r_back, p_conv)``.  A bin is solid where its incoming density ``dn`` is
    at least 1% of its peak; on solid bins ``r_back`` is the outgoing
    density at ``-k`` over ``dn``, and ``p_conv`` the converted weight
    ``n_out v_in / (dn v_out)`` at ``omega - gap``, where ``n_out`` counts
    both signs of ``k_out``.  Both are NaN elsewhere.  ``p_conv`` is also
    NaN on the solid bins that ``closed`` marks, where ``omega - gap``
    falls outside the band, and where ``omega - gap`` falls inside the
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
    closed = solid & ~((lo < om_out) & (om_out < hi))
    support = omega_in[solid]
    elastic = (support.min() <= om_out) & (om_out <= support.max())
    r_back = np.full(k_in.shape, np.nan)
    p_conv = np.full(k_in.shape, np.nan)
    for i in np.flatnonzero(solid):
        dn = dens_in[i]
        r_back[i] = _density_at(k, n1, -float(k_in[i])) / dn
        if closed[i] or elastic[i]:
            continue
        k_out = float(momentum_from_frequency(om_out[i], p))
        n_out = _density_at(k, n1, k_out) + _density_at(k, n1, -k_out)
        v_in = abs(group_velocity(float(k_in[i]), p))
        v_out = abs(group_velocity(k_out, p))
        p_conv[i] = n_out * v_in / (dn * v_out)
    return omega_in, closed, r_back, p_conv


def broadband_inelastic(result: ScatteringResult, gap: float):
    """Conversion probability versus carrier from one broadband run.

    For each incoming frequency, the converted outgoing weight sits at
    ``omega - gap``; dividing the outgoing momentum density there by the
    incoming density at ``omega`` (both flux-corrected by their group
    velocities, both cloud-subtracted) gives P_ine(omega) across the
    packet's whole bandwidth.  Returns ``(omega_grid, p_ine)`` with NaN
    where kinematically closed, where the incoming density is too thin, and
    where ``omega - gap`` lies inside the packet's own band, whose elastic
    weight would be counted as converted.
    """
    if gap is None:
        raise DependencyError("broadband analysis needs the bound-state gap")
    omega_in, _, _, p_ine = _density_ratios(result, gap)
    return omega_in, p_ine


# ---------------------------------------------------------------------------
# mirror geometry

def mirror_experiment(g: float, omega: float, j0: int = 60,
                      mirror_dx: int = 20, sigma: float = 8.0,
                      x0: float = None, n_max: int = 4, t_final: float = None,
                      gap: float = None, **run_kw):
    """Send a packet against the scatterer-plus-wall and analyze the return.

    The chain ends ``mirror_dx`` sites past the scatterer, so everything
    comes back; the reflected signal is analyzed on the launch side.
    Returns ``(result, inelastic)``; the inelastic split needs ``gap``.
    """
    params = ModelParams(L=j0 + mirror_dx + 1, g=g, j0=j0, n_max=n_max,
                         boundary="mirror", mirror_dx=mirror_dx)
    if x0 is None:
        x0 = j0 / 2
    spec = WavepacketSpec(omega=omega, sigma=sigma, x0=x0, direction=+1)
    if t_final is None:
        v = abs(group_velocity(
            float(momentum_from_frequency(omega, params)), params))
        t_final = 2.4 * (j0 - x0 + mirror_dx) / v
    result = run_scattering(params, spec, t_final, **run_kw)
    ine = inelastic_spectrum(result, gap) if gap is not None else None
    return result, ine


def mirror_reflection_spectrum(result: ScatteringResult, gap: float):
    """Elastic and converted return fractions versus carrier, mirror runs.

    Same density-ratio bookkeeping as ``broadband_inelastic``; the wall
    sends everything back, so wherever the incoming density is solid the
    elastic and converted fractions should sum to one up to analysis error.
    Returns ``(omega_grid, r_elastic, p_inelastic)``: both NaN where the
    incoming density is too thin, ``p_inelastic`` 0 where kinematically
    closed and NaN where ``omega - gap`` lies inside the packet's own band.
    """
    if gap is None:
        raise DependencyError("mirror analysis needs the bound-state gap")
    omega_in, closed, r_el, p_ine = _density_ratios(result, gap)
    p_ine[closed] = 0.0
    return omega_in, r_el, p_ine
