"""The benchmark workloads: seeded inputs, the timed job and its check.

Each workload turns a seed into a sequence of physical points (coupling,
carrier, launch-site jitter) inside fixed ranges, builds the run config for
a point as a plain dict and parses it with ``uscqed.config.from_dict``, runs
the job through the package's public functions, and checks the result
against a reference that does not use tensor networks: the closed-form rwa
amplitudes, exact diagonalization, or conservation laws.

Points are drawn stratified: every block of ``STRATA`` consecutive points
covers each third of the coupling range and each third of the carrier range
once, in a seeded order, so the few jobs of one run sample the whole range.
"""

from __future__ import annotations

import math
import random

import numpy as np

# Points per stratified block; a run measures a few blocks at most.
STRATA = 3


def draw_points(seed: int, g_range, omega_range, count: int) -> list:
    """``count`` points ``{"g", "omega", "x0_jitter"}``, stratified."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        g_order = rng.sample(range(STRATA), STRATA)
        w_order = rng.sample(range(STRATA), STRATA)
        for gs, ws in zip(g_order, w_order):
            points.append({
                "g": _in_stratum(rng, g_range, gs),
                "omega": _in_stratum(rng, omega_range, ws)
                if omega_range else None,
                "x0_jitter": rng.uniform(-1.0, 1.0),
            })
    return points[:count]


def _in_stratum(rng, bounds, stratum):
    lo, hi = bounds
    return lo + (hi - lo) * (stratum + rng.random()) / STRATA


def _t_final(model: dict, packet: dict, dt: float, past: float) -> float:
    """Run time that carries the packet centre ``past`` sites beyond j0.

    Uses the carrier's group velocity, so every carrier ends its run at the
    same place: clear of the scatterer and of both chain ends.
    """
    J = -1.0 / math.pi                 # ModelParams' default hopping
    k = math.acos((packet["omega"] - 1.0) / (2.0 * J))
    v = abs(2.0 * J * math.sin(k))
    steps = math.ceil((model["j0"] - packet["x0"] + past) / (v * dt))
    return steps * dt


class Workload:
    """One named workload; subclasses fill in the config, job and check."""

    name = ""
    why = ""
    g_range = (0.0, 0.0)
    omega_range = None
    units: dict = {}                  # of the accuracy figures

    def points(self, seed: int, count: int) -> list:
        return draw_points(seed, self.g_range, self.omega_range, count)

    def config_dict(self, point: dict) -> dict:
        raise NotImplementedError

    def setup(self, usc, point: dict):
        """Parse the config of ``point`` and build inputs every job reuses."""
        return usc.config.from_dict(self.config_dict(point))

    def job(self, usc, static, point: dict):
        raise NotImplementedError

    def check(self, usc, point: dict, out) -> tuple:
        """``(accuracy metrics, list of failed conditions)`` for one job."""
        raise NotImplementedError


class RwaScan(Workload):
    """Excitation-conserving coupling on the exact vacuum; real time only."""

    name = "rwa-scan"
    why = ("real-time TEBD at bond dimension 2: per-gate overhead in "
           "evolution/tensors is the work; checked against the closed-form "
           "rwa amplitudes")
    g_range = (0.3, 0.6)
    omega_range = (0.8, 1.2)
    units = {"T_err": "abs", "R_err": "abs"}
    L, J0, SIGMA, DT = 68, 34, 3.0, 0.25
    LAUNCH, PAST = 12.0, 19.0         # sites before / after j0
    WINDOW, TAPER, MASK = 4, 4, 0.2   # transmission_spectrum arguments
    EXCLUDE = 5
    T_TOL = R_TOL = 0.08              # on the median over the packet band

    def config_dict(self, point):
        model = {"L": self.L, "g": point["g"], "j0": self.J0, "n_max": 1,
                 "coupling_mode": "rwa"}
        packet = {"sigma": self.SIGMA, "omega": point["omega"],
                  "x0": self.J0 - self.LAUNCH + point["x0_jitter"]}
        return {"model": model, "packet": packet, "evolution": {
            "dt": self.DT, "order": 3, "max_rank": 8, "cutoff": 1e-12,
            "n_snapshots": 6,
            "t_final": _t_final(model, packet, self.DT, self.PAST)}}

    def setup(self, usc, point):
        cfg = super().setup(usc, point)
        # the rwa ground state is the exact vacuum at zero energy
        return {"vacuum": usc.evolution.vacuum_state(cfg.model)}

    def job(self, usc, static, point):
        cfg = usc.config.from_dict(self.config_dict(point))
        result = usc.scattering.run_scattering(
            cfg.model, cfg.packet, cfg.evolution.t_final,
            gs=static["vacuum"], gs_energy=0.0, exclude_radius=self.EXCLUDE,
            **cfg.evolution.run_kwargs())
        spectrum = usc.scattering.transmission_spectrum(
            result, window=self.WINDOW, taper=self.TAPER,
            mask_frac=self.MASK)
        return result, spectrum

    def check(self, usc, point, out, reference=None):
        result, spectrum = out
        if reference is None:
            reference = usc.oracles.rwa_single_excitation_scattering
        t_ref, r_ref = reference(result.params, spectrum.omega)
        t_err = float(np.median(np.abs(spectrum.T - np.abs(t_ref) ** 2)))
        r_err = float(np.median(np.abs(spectrum.R - np.abs(r_ref) ** 2)))
        failed = [f"flag: {f}" for f in result.flags]
        if not t_err <= self.T_TOL:
            failed.append(f"T_err {t_err:.3g} > {self.T_TOL}")
        if not r_err <= self.R_TOL:
            failed.append(f"R_err {r_err:.3g} > {self.R_TOL}")
        return {"T_err": t_err, "R_err": r_err}, failed


class UscNkSeries(Workload):
    """Ultrastrong full coupling: ground state, run with n_k and <H> series."""

    name = "usc-nk-series"
    why = ("ultrastrong full coupling at saturated bonds: SVD flops, the "
           "n_k correlators beside the gate sweep, and the embedded ground "
           "state; checked by conservation laws")
    g_range = (0.5, 1.0)
    omega_range = (0.8, 1.2)
    units = {"energy_drift": "abs", "norm_err": "abs", "balance_err": "abs",
             "discarded": "weight", "flags": "count"}
    L, J0, SIGMA, DT, D = 52, 26, 2.5, 0.25, 10
    LAUNCH, PAST = 10.0, 13.0
    WINDOW, TAPER = 4, 4
    EXCLUDE = 5
    GS_RADIUS = 4
    # P_ine is the off-carrier weight and does not depend on the gap, which
    # only places the Raman window; any value serves.
    GAP = 1.0
    DRIFT_TOL, NORM_TOL, BALANCE_TOL, DISCARD_TOL = 1e-3, 2e-3, 0.15, 1e-2

    def config_dict(self, point):
        model = {"L": self.L, "g": point["g"], "j0": self.J0, "n_max": 2,
                 "coupling_mode": "full"}
        packet = {"sigma": self.SIGMA, "omega": point["omega"],
                  "x0": self.J0 - self.LAUNCH + point["x0_jitter"]}
        return {"model": model, "packet": packet, "evolution": {
            "dt": self.DT, "order": 3, "max_rank": self.D, "cutoff": 1e-10,
            "n_snapshots": 20,
            "t_final": _t_final(model, packet, self.DT, self.PAST)}}

    def job(self, usc, static, point):
        cfg = usc.config.from_dict(self.config_dict(point))
        evo = cfg.evolution
        e_gs, gs, _ = usc.evolution.embedded_ground_state(
            cfg.model, max_rank=evo.max_rank, cutoff=1e-12,
            radius=self.GS_RADIUS, tol=1e-4)
        result = usc.scattering.run_scattering(
            cfg.model, cfg.packet, evo.t_final, gs=gs, gs_energy=e_gs,
            exclude_radius=self.EXCLUDE, measure_nk=True,
            measure_energy=True, **evo.run_kwargs())
        spectrum = usc.scattering.transmission_spectrum(
            result, window=self.WINDOW, taper=self.TAPER)
        inelastic = usc.scattering.inelastic_spectrum(result, gap=self.GAP)
        return result, spectrum, inelastic

    def check(self, usc, point, out):
        """Conservation checks; run flags are reported, not failed.

        The chain is short for a broadband packet, so a spread tail may
        touch an edge late in the run; the spectra then read the last clean
        snapshot.  P_ine is a fraction of the whole packet, so T and R enter
        the balance averaged over the packet's spectral weight rather than
        read at the carrier.
        """
        result, spectrum, inelastic = out
        energies = np.array([s.energy for s in result.snapshots])
        weight = np.exp(-((spectrum.k - result.info.momentum)
                          * result.spec.sigma) ** 2)
        T = float(np.sum(spectrum.T * weight) / np.sum(weight))
        R = float(np.sum(spectrum.R * weight) / np.sum(weight))
        last = result.snapshots[-1]
        metrics = {
            "energy_drift": float(np.max(np.abs(energies - energies[0]))),
            "norm_err": abs(float(last.norm) - 1.0),
            "balance_err": abs(T + R + inelastic.p_inelastic - 1.0),
            "discarded": float(last.discarded),
            "flags": len(result.flags),
        }
        failed = []
        for key, tol in (("energy_drift", self.DRIFT_TOL),
                         ("norm_err", self.NORM_TOL),
                         ("balance_err", self.BALANCE_TOL),
                         ("discarded", self.DISCARD_TOL)):
            if not metrics[key] <= tol:
                failed.append(f"{key} {metrics[key]:.3g} > {tol}")
        return metrics, failed


class BoundStates(Workload):
    """Per-coupling bound-state preparation, imaginary time only."""

    name = "bound-states"
    why = ("sweep.bound_data per coupling: annealed imaginary-time flows "
           "with parity projection and deflation; checked against exact "
           "diagonalization")
    g_range = (0.3, 1.0)
    units = {"gap_err": "abs", "E_gs_err": "abs"}
    L, J0 = 6, 3
    GAP_TOL, E_GS_TOL = 1e-4, 1e-4      # the flows aim at tol=1e-4

    def config_dict(self, point):
        # a config needs a packet; bound_data never reads it
        return {"model": {"L": self.L, "g": point["g"], "j0": self.J0,
                          "n_max": 1, "coupling_mode": "full"},
                "packet": {"sigma": 1.0, "x0": 0.0, "omega": 1.0}}

    def job(self, usc, static, point):
        cfg = usc.config.from_dict(self.config_dict(point))
        return cfg.model, usc.sweep.bound_data(cfg.model)

    def check(self, usc, point, out, reference=None):
        params, (gap, _, e_gs) = out
        if reference is None:
            reference = usc.oracles.exact_diagonalize
        bound = reference(params).bound
        metrics = {"gap_err": float(abs(gap - (bound["e2"] - bound["gs"]))),
                   "E_gs_err": float(abs(e_gs - bound["gs"]))}
        failed = []
        if not metrics["gap_err"] <= self.GAP_TOL:
            failed.append(f"gap_err {metrics['gap_err']:.3g} > {self.GAP_TOL}")
        if not metrics["E_gs_err"] <= self.E_GS_TOL:
            failed.append(
                f"E_gs_err {metrics['E_gs_err']:.3g} > {self.E_GS_TOL}")
        return metrics, failed


WORKLOADS = {w.name: w for w in (RwaScan(), UscNkSeries(), BoundStates())}
