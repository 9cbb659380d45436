"""Real- and imaginary-time TEBD, plus the scatterer-photon bound states.

Real time: `evolve` runs even/odd gate sweeps at fixed step size and keeps a
per-step trace of discarded weight and norm, the raw material for accuracy
monitoring.  It works on the raw list of site tensors and builds an `MPS`
only for its return value.  One gate is one matrix kernel: the two sites
are contracted by reshape and matmul into theta of shape ``(al, dl*dr,
ar)``, the ``(dl*dr, dl*dr)`` gate matrix multiplies it, and
`tensors.split_matrix` splits it back, the singular values going to the
side the sweep moves to.  Between gates the orthogonality center moves by
QR (right) or by the QR of the conjugate transpose (left).

Vacuum skip: a bond whose term annihilates |00> (`TrotterGates.vacuum_bonds`;
in rwa mode every bond, in full coupling all but the two at j0) has gates
that leave |00> unchanged.  When both of its sites have bond dimension 1
and each has non-vacuum weight at most `VACUUM_RTOL` (1e-24) of its vacuum
weight, the gate is skipped; `EvolutionTrace` counts applied and skipped
gates.  Imaginary time: `imaginary_time_ground_state` anneals the step
size down a halving schedule, detecting stalls from the energy slope, and
`bound_states` drives it three times with orthogonality projections to get
the lowest states of each parity.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericError, SeedCollapseError
from .model import (ModelParams, TrotterGates, hamiltonian_mpo,
                    parity_expectation, parity_factors, trotter_gates)
from .mps import (MPS, _qr_step, _rq_step, add, canonicalize, compress,
                  mpo_expectation, norm, normalize, overlap, product_state)
from .tensors import split_matrix

# Warn once a run has truncated away more than this much squared weight.
TRUNCATION_BUDGET = 0.05

# A bond-1 site counts as vacuum when its non-vacuum squared weight is at
# most this fraction of its vacuum weight: amplitudes of 1e-12, twelve
# orders below a 1e-12 weight cutoff.  Exact zeros would almost never
# occur, since the SVDs leave tails of about 1e-13 in amplitude.
VACUUM_RTOL = 1e-24

FLOW_CHECK_EVERY = 10
FLOW_MAX_STEPS = 200_000

# The photon cloud and the bound states decay exponentially away from the
# scatterer, so they are solved on this many sites either side of j0; a
# sweep's gap from that reduced chain serves the whole chain.
WINDOW_RADIUS = 20


@dataclass(frozen=True)
class EvolutionParams:
    """Time-stepping knobs bundled for configs and sweeps."""

    dt: float = 0.05
    t_final: float = 110.0
    order: int = 3
    max_rank: int = 10
    cutoff: float = 1e-10
    n_snapshots: int = 40

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < self.dt:
            raise ValueError("t_final must cover at least one step")
        if self.order not in (2, 3):
            raise ValueError("order must be 2 or 3")
        if self.max_rank < 2:
            raise ValueError("max_rank must be at least 2")
        if not 0 <= self.cutoff < 1:
            raise ValueError("cutoff must lie in [0, 1)")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be at least 1")

    def run_kwargs(self) -> dict:
        """Keyword arguments for `scattering.run_scattering` (sans t_final)."""
        return {"dt": self.dt, "order": self.order, "max_rank": self.max_rank,
                "cutoff": self.cutoff, "n_snapshots": self.n_snapshots}


def vacuum_state(params: ModelParams) -> MPS:
    return product_state(params.local_dims(), [0] * params.L)


def energy(state: MPS, ham) -> float:
    """Rayleigh quotient <H>/<1|1>; rejects a significant imaginary residue."""
    val = mpo_expectation(state, ham)   # already normalized, log_norm cancels
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise ValueError("cannot take the energy of a zero or non-finite state")
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise NumericError(f"energy has imaginary residue {val.imag:.3e}")
    return float(val.real)


# ---------------------------------------------------------------------------
# gate sweeps

def _move_center(sites, center, target):
    while center < target:
        _qr_step(sites, center)
        center += 1
    while center > target:
        _rq_step(sites, center)
        center -= 1
    return center


def _near_vacuum(a) -> bool:
    """True for a bond-1 site whose non-vacuum weight is at most
    `VACUUM_RTOL` of its vacuum weight; False for any other site and for
    non-finite entries."""
    if a.shape[0] != 1 or a.shape[2] != 1:
        return False
    v = a.ravel()
    rest = v[1:]
    return bool(np.vdot(rest, rest).real <= VACUUM_RTOL * abs(v[0]) ** 2)


def _apply_bond_gate(sites, x, gate, max_rank, cutoff, to_right):
    """Gate matrix into bond (x, x+1); center must be at x or x+1, ends up
    at x+1 (to_right) or x (not).  Returns the discarded squared weight."""
    a, b = sites[x], sites[x + 1]
    al, dl, k = a.shape
    _, dr, ar = b.shape
    th = (a.reshape(al * dl, k) @ b.reshape(k, dr * ar)).reshape(al, dl * dr, ar)
    th = (gate @ th).reshape(al * dl, dr * ar)         # batched over al
    u, s, vh, discarded = split_matrix(th, max_rank, cutoff)
    if to_right:
        sites[x] = u.reshape(al, dl, -1)
        sites[x + 1] = (s[:, None] * vh).reshape(-1, dr, ar)
    else:
        sites[x] = (u * s).reshape(al, dl, -1)
        sites[x + 1] = vh.reshape(-1, dr, ar)
    return discarded


def _sweep_stage(sites, center, stage, vacuum_bonds, max_rank, cutoff):
    """One Trotter stage over its bond sublattice; direction picked so the
    center travels with the gates.  A gate on a `vacuum_bonds` bond whose
    two sites are both near the vacuum (`_near_vacuum`) acts as the
    identity and is skipped; the center then stays put.  Returns
    ``(center, accumulated weight, gates applied, gates skipped)``."""
    active = [x for x, g in enumerate(stage.gates) if g is not None]
    if not active:
        return center, 0.0, 0, 0
    lost = 1.0
    skipped = 0
    to_right = abs(center - active[0]) <= abs(center - active[-1])
    for x in (active if to_right else reversed(active)):
        if (x in vacuum_bonds and _near_vacuum(sites[x])
                and _near_vacuum(sites[x + 1])):
            skipped += 1
            continue
        center = _move_center(sites, center, x if to_right else x + 1)
        lost *= 1.0 - _apply_bond_gate(sites, x, stage.gates[x], max_rank,
                                       cutoff, to_right)
        center = x + 1 if to_right else x
    return center, 1.0 - lost, len(active) - skipped, skipped


@dataclass
class EvolutionTrace:
    """Per-step diagnostics of a TEBD run, with the run's gate totals."""

    times: list = field(default_factory=list)
    norms: list = field(default_factory=list)        # including log_norm factor
    discarded: list = field(default_factory=list)    # per-step squared weight
    max_bonds: list = field(default_factory=list)
    gates_applied: int = 0
    gates_skipped: int = 0                           # identity on a vacuum pair

    @property
    def total_discarded(self) -> float:
        lost = 1.0
        for w in self.discarded:
            lost *= 1.0 - w
        return 1.0 - lost


def evolve(state: MPS, gates: TrotterGates, n_steps: int, max_rank: int,
           cutoff: float = 1e-12, t_offset: float = 0.0,
           warn_budget: float = TRUNCATION_BUDGET):
    """Run ``n_steps`` Trotter steps; returns ``(state, trace)``.

    Norm loss per step is folded into ``log_norm`` only for imaginary-time
    gates; in real time the raw norm decay is the truncation diagnostic and
    is left in the tensors.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if list(gates.local_dims) != state.local_dims:
        raise ValueError("gate set and state local dimensions differ")
    work = canonicalize(state, 0)
    sites = list(work.sites)
    center, log_norm = 0, work.log_norm
    trace = EvolutionTrace()
    warned = False
    for step in range(1, n_steps + 1):
        lost = 1.0
        for stage in gates.stages:
            center, w, applied, skipped = _sweep_stage(
                sites, center, stage, gates.vacuum_bonds, max_rank, cutoff)
            lost *= 1.0 - w
            trace.gates_applied += applied
            trace.gates_skipped += skipped
        if gates.imaginary:
            raw = np.linalg.norm(sites[center])
            if raw == 0.0:
                raise NumericError("state annihilated during imaginary flow")
            sites[center] = sites[center] / raw
            log_norm += math.log(raw)
        trace.times.append(t_offset + step * gates.dt)
        trace.norms.append(float(np.linalg.norm(sites[center]))
                           * math.exp(log_norm))
        trace.discarded.append(1.0 - lost)
        trace.max_bonds.append(max((a.shape[2] for a in sites[:-1]),
                                   default=1))
        if not warned and trace.total_discarded > warn_budget:
            warnings.warn(
                f"accumulated truncation weight {trace.total_discarded:.3e} "
                f"exceeds the budget {warn_budget:.0e}; raise max_rank",
                stacklevel=2)
            warned = True
    return MPS(sites, ortho_center=center, log_norm=log_norm), trace


# ---------------------------------------------------------------------------
# imaginary time

def _deflate(state: MPS, below, max_rank: int, cutoff: float) -> MPS:
    """Remove the components along ``below`` (assumed normalized), renormalize."""
    out = state
    for b in below:
        c = overlap(b, out)
        out = add(out, b, 1.0, -c)
    out, _ = compress(out, max_rank, cutoff)
    if norm(out) < 1e-12 * max(norm(state), 1e-300):
        raise SeedCollapseError(
            "state lies in the span of the projected-out states")
    return normalize(out)


def _parity_project(state: MPS, factors, sign: int, max_rank: int,
                    cutoff: float) -> MPS:
    """Project onto the parity sector ``sign`` with (1 + sign*Pi)/2.

    Truncation does not respect parity, so excited flows pick up leakage
    toward the opposite sector's continuum bottom, which imaginary time then
    amplifies; deflation cannot catch it (a continuum is not a few states).
    Projecting each measurement window removes the leak while it is tiny.
    Pi is diagonal and unitary per site, so the flip keeps the canonical form.
    """
    flip = [a * np.diagonal(f)[None, :, None]
            for a, f in zip(state.sites, factors)]
    flipped = MPS(flip, state.ortho_center, state.log_norm)
    out = add(state, flipped, 0.5, 0.5 * sign)
    out, _ = compress(out, max_rank, cutoff)
    if norm(out) < 1e-12 * max(norm(state), 1e-300):
        raise SeedCollapseError("state has no weight in the target parity sector")
    return normalize(out)


@dataclass
class FlowTrace:
    """Snapshot history of an imaginary-time flow."""

    taus: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    dtaus: list = field(default_factory=list)
    steps: int = 0


def _stall_slope(dtau: float, tol: float) -> float:
    # Stall once the slope drops below the Trotter bias of the current step
    # or below the requested accuracy.  The residual distance to the fixed
    # point at stall is slope / (2 * relaxation gap); the slowest observed
    # relaxation (bound state under a band edge) has gap ~ 0.1, hence the
    # factor 5 margin on tol.
    return max(tol / 5.0, 1e-3 * dtau * dtau)


def imaginary_time_ground_state(params: ModelParams, max_rank: int = 16,
                                cutoff: float = 1e-12, seed: MPS = None,
                                project_out=(), dtau0: float = 0.1,
                                dtau_floor: float = 1e-3,
                                tol: float = 1e-6, parity: int = 0):
    """Lowest state reachable from ``seed`` by exp(-H tau), via annealed TEBD.

    The step size halves whenever the energy slope stalls below the bias of
    the current ``dtau``, and convergence is declared only once stalled at
    ``dtau_floor``.  ``project_out`` states are removed after each
    measurement window (Gram-Schmidt), which turns the flow into an
    excited-state search; ``parity`` (+1 or -1) additionally confines the
    flow to one parity sector.  ``tol`` is the energy accuracy the stall
    detector aims for; states just under a band edge relax slowly, so loose
    tolerances are much cheaper.  Returns ``(energy, state, trace)``.
    """
    if not dtau_floor <= dtau0:
        raise ValueError("need dtau_floor <= dtau0")
    ham = hamiltonian_mpo(params)
    below = [normalize(b) for b in project_out]
    factors = parity_factors(params) if parity else None
    state = normalize(seed if seed is not None else vacuum_state(params))
    if parity:
        state = _parity_project(state, factors, parity, max_rank, cutoff)
    if below:
        state = _deflate(state, below, max_rank, cutoff)
    dtau = dtau0
    gates = trotter_gates(params, dtau, order=2, imaginary=True)
    trace = FlowTrace()
    window: deque = deque(maxlen=10)
    tau = 0.0
    while trace.steps < FLOW_MAX_STEPS:
        state, _t = evolve(state, gates, FLOW_CHECK_EVERY, max_rank, cutoff,
                           warn_budget=np.inf)
        # Once per window is enough for both cleanups: contamination grows
        # from truncation noise by at most exp(dE * FLOW_CHECK_EVERY * dtau)
        # ~ e between applications.
        if parity:
            state = _parity_project(state, factors, parity, max_rank, cutoff)
        if below:
            state = _deflate(state, below, max_rank, cutoff)
        tau += FLOW_CHECK_EVERY * dtau
        trace.steps += FLOW_CHECK_EVERY
        e = energy(state, ham)
        trace.taus.append(tau)
        trace.energies.append(e)
        trace.dtaus.append(dtau)
        window.append((tau, e))
        if len(window) == window.maxlen:
            (t0, e0), (t1, e1) = window[0], window[-1]
            if abs(e1 - e0) / (t1 - t0) < _stall_slope(dtau, tol):
                if dtau <= dtau_floor * (1.0 + 1e-12):
                    return e, normalize(state), trace
                dtau = max(dtau_floor, dtau / 2.0)
                gates = trotter_gates(params, dtau, order=2, imaginary=True)
                window.clear()
    raise ConvergenceError(
        f"imaginary-time flow not stalled after {trace.steps} steps "
        f"(dtau={dtau:.2e})", trace=trace)


# ---------------------------------------------------------------------------
# bound states

@dataclass
class BoundStates:
    """Lowest scatterer-photon bound states: (GS, E1, E2)."""

    energies: list
    states: list
    parities: list
    traces: list

    @property
    def raman_gap(self) -> float:
        """E2 - E_GS, the energy deposited by one Raman conversion."""
        return self.energies[2] - self.energies[0]


def bound_state_seed(params: ModelParams, which: str) -> MPS:
    """Product seeds: vacuum, excited scatterer, excited scatterer + photon."""
    occ = [0] * params.L
    if which == "gs":
        pass
    elif which == "e1":
        occ[params.j0] = params.photon_dim       # scatterer index 1, 0 photons
    elif which == "e2":
        occ[params.j0] = params.photon_dim + 1   # scatterer index 1, 1 photon
    else:
        raise ValueError(f"unknown bound-state label {which!r}")
    return product_state(params.local_dims(), occ)


def bound_states(params: ModelParams, max_rank: int = 16,
                 cutoff: float = 1e-12, **kw) -> BoundStates:
    """Ground state and the two lowest bound excitations, by parity sectors.

    Each flow is confined to its seed's parity sector (+, -, +) and deflated
    against the already-found states, so E1 is the odd-sector minimum and E2
    the first even excitation.  For small couplings the even flow can land
    on a delocalized band state rather than a discrete bound level; callers
    reading E2 - E_GS as a Raman gap should keep that in mind.
    """
    energies, states, traces = [], [], []
    for which, sector in (("gs", +1), ("e1", -1), ("e2", +1)):
        e, psi, tr = imaginary_time_ground_state(
            params, max_rank, cutoff, seed=bound_state_seed(params, which),
            project_out=states, parity=sector, **kw)
        energies.append(e)
        states.append(psi)
        traces.append(tr)
    parities = [parity_expectation(s, params) for s in states]
    return BoundStates(energies, states, parities, traces)


# ---------------------------------------------------------------------------
# large chains: solve small, embed, polish

def embed_state(state: MPS, L: int, offset: int, local_dims) -> MPS:
    """Pad a short-chain state with vacuum sites into a length-L chain."""
    if offset < 0 or offset + state.L > L:
        raise ValueError("embedded window does not fit the chain")
    for x, d in enumerate(state.local_dims):
        if local_dims[offset + x] != d:
            raise ValueError(f"local dimension mismatch at embedded site {x}")
    sites = []
    for x in range(L):
        if offset <= x < offset + state.L:
            sites.append(state.sites[x - offset])
        else:
            a = np.zeros((1, local_dims[x], 1), dtype=complex)
            a[0, 0, 0] = 1.0
            sites.append(a)
    center = state.ortho_center
    if center is not None:
        center += offset
    return MPS(sites, ortho_center=center, log_norm=state.log_norm)


def scatterer_window(params: ModelParams, radius: int = WINDOW_RADIUS):
    """``(offset, window)``: the open chain of sites within ``radius`` of j0.

    ``offset`` is the full-chain index of the window's first site; the
    window keeps every other model parameter.
    """
    lo = max(0, params.j0 - radius)
    hi = min(params.L, params.j0 + radius + 1)
    return lo, dataclasses.replace(params, L=hi - lo, j0=params.j0 - lo,
                                   boundary="open")


def embedded_ground_state(params: ModelParams, max_rank: int = 16,
                          cutoff: float = 1e-12, radius: int = WINDOW_RADIUS,
                          **kw):
    """Ground state of a long chain via its localized photon cloud.

    The cloud around the scatterer decays exponentially, so the state is
    solved on a window of ``2*radius+1`` sites around j0, padded with vacuum,
    and polished by a short flow at the floor step size on the full chain.
    Returns ``(energy, state, trace)`` like the direct solver.
    """
    lo, small = scatterer_window(params, radius)
    if small.L == params.L:
        return imaginary_time_ground_state(params, max_rank, cutoff, **kw)
    _, core, _ = imaginary_time_ground_state(small, max_rank, cutoff, **kw)
    seed = embed_state(core, params.L, lo, params.local_dims())
    polish_kw = dict(kw)
    polish_kw.pop("dtau0", None)
    floor = polish_kw.pop("dtau_floor", 1e-3)
    return imaginary_time_ground_state(
        params, max_rank, cutoff, seed=seed, dtau0=floor, dtau_floor=floor,
        **polish_kw)
