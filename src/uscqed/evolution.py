"""Real-time TEBD, and DMRG for the ground state and the bound states.

Real time: `evolve` runs the Trotter stages at fixed step size and keeps a
trace of the discarded weight and the gate counts.  It works on raw lists
of tensors in Hastings' form (Vidal, PRL 93, 040502 (2004); Hastings,
J. Math. Phys. 50, 095207 (2009)): sites B that are right-canonical, and
the singular values lambda of every bond.

- Entry: the gauge is built exactly, once per call.  The center goes to the
  last site and one right-to-left sweep of `tensors.split_matrix` gives B
  and lambda; a non-finite state raises `NumericError` there.
- Stage: the gates of a stage act on disjoint bonds, so they run at once.
  Theta = lambda B B is formed with the gate multiplied in by batched
  matmuls, one SVD launch splits all thetas of bonds whose sites share
  their shapes, and `tensors.truncation_ranks` picks every kept rank.  The
  right site becomes the kept rows of vh and the left site (gate B B)
  vh^H: no lambda is ever inverted, and no center moves.  The n steps of
  one call run as one stage sequence: a step's last stage and the next
  step's first share their bonds (`model.stage_coefficients`), so they run
  as one seam stage whose gates are the products of theirs.  A call runs
  4n+1 stages at order 3 and 2n+1 at order 2, not 5n and 3n; the operator
  product is the same, with fewer truncations.
- Exit: `canonicalize` rebuilds the returned `MPS` from the B list with its
  center at site 0, so measurements see an exact gauge.

The form is exact up to truncation only while every gate is unitary.  The
order-3 product formula has complex stage coefficients (`model.P3` = 1/2 +
i sqrt(3)/6), so its odd stages and a call's first and last stage are not
unitary (the seam's coefficient is a real 1/2), and the B drift off
right-canonical form: Sum B B^dag = 1 fails by an amount of order dt
(0.24-0.26 at dt = 0.25 and 0.054-0.058 at dt = 0.05 on a random L = 8
state after 1 to 16 steps, with or without the seam: set in the first step
and not growing after it).  Truncation then weighs each bond by slightly
wrong values; rebuilding the gauge on every entry bounds that to one call
(one snapshot chunk in a scattering run).  The state itself stays exact:
at cutoff 0 it matches the dense propagator.

Vacuum skip: a bond whose term annihilates |00> (`TrotterGates.vacuum_bonds`;
in rwa mode every bond, in full coupling all but the two at j0) has gates
that leave |00> unchanged.  When both of its sites have bond dimension 1
and each has non-vacuum weight at most `VACUUM_RTOL` (1e-24) of its vacuum
weight, the gate is skipped; `EvolutionTrace` counts applied and skipped
gates.

Ground and bound states: `ground_state` is a two-site DMRG on the bond-4
`model.hamiltonian_mpo` (White, PRL 69, 2863 (1992); Schollwoeck, Ann.
Phys. 326, 96 (2011), sec. 6).  Parity is a product of diagonal local
factors, so every bond index carries a Z2 label; each two-site problem is
solved on the entries of its target sector only (dense ``eigh`` for small
blocks, Lanczos on a `LinearOperator` for larger ones), and the split runs
per parity block under one `truncation_rank`.  `bound_states` takes the
even and odd minima and the even minimum orthogonal to the ground state.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, NumericError
from .model import (ModelParams, TrotterGates, hamiltonian_mpo,
                    parity_expectation, parity_factors)
from .mps import (MPS, _mpo_transfer, _transfer, canonicalize,
                  mpo_expectation, normalize, product_state)
from .tensors import split_matrix, svd, truncation_rank, truncation_ranks

# Warn once a run has truncated away more than this much squared weight.
TRUNCATION_BUDGET = 0.05

# A bond-1 site counts as vacuum when its non-vacuum squared weight is at
# most this fraction of its vacuum weight: amplitudes of 1e-12, twelve
# orders below a 1e-12 weight cutoff.  Exact zeros would almost never
# occur, since the SVDs leave tails of about 1e-13 in amplitude.
VACUUM_RTOL = 1e-24

# Two-site problems with at most this many sector entries are solved by
# dense eigh; larger ones by Lanczos to this relative residual.
DENSE_MAX = 64
LANCZOS_TOL = 1e-10
DMRG_MAX_SWEEPS = 40
# Energy added to each state a solve must be orthogonal to; it only has to
# exceed the gap to the state sought, and every gap here is below 2.
PENALTY = 10.0

# The photon cloud and the bound states decay exponentially away from the
# scatterer, so they are solved on this many sites either side of j0; a
# sweep's gap from that reduced chain serves the whole chain.
WINDOW_RADIUS = 20
# The one solve policy: rank, weight cutoff and sweep-energy tolerance of
# every ground and bound state.  The gap only places the Raman window.
SOLVE_RANK = 16
SOLVE_CUTOFF = 1e-12
SOLVE_TOL = 1e-4


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
    val = mpo_expectation(state, ham)
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise ValueError("cannot take the energy of a zero or non-finite state")
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise NumericError(f"energy has imaginary residue {val.imag:.3e}")
    return float(val.real)


# ---------------------------------------------------------------------------
# Trotter stages in Hastings form

def _near_vacuum(a) -> bool:
    """True for a bond-1 site whose non-vacuum weight is at most
    `VACUUM_RTOL` of its vacuum weight; False for any other site and for
    non-finite entries."""
    if a.shape[0] != 1 or a.shape[2] != 1:
        return False
    v = a.ravel()
    rest = v[1:]
    return bool(np.vdot(rest, rest).real <= VACUUM_RTOL * abs(v[0]) ** 2)


def _hastings_form(state: MPS):
    """``(sites, lams)``, exact: every site but the first right-canonical,
    ``lams[x]`` the singular values of the bond left of site x.

    The center goes to the last site, and one right-to-left sweep of
    `split_matrix` (which rejects non-finite entries) peels off the right
    sites and their bond values.  Site 0 keeps the norm; ``lams[0]`` is 1.
    """
    sites = list(canonicalize(state, state.L - 1).sites)
    lams = [np.ones(1)] * state.L
    for x in range(state.L - 1, 0, -1):
        l, d, r = sites[x].shape
        m = sites[x].reshape(l, d * r)
        u, lams[x], vh, _ = split_matrix(m, min(m.shape), 0.0)
        sites[x] = vh.reshape(-1, d, r)
        pl, pd, _ = sites[x - 1].shape
        sites[x - 1] = (sites[x - 1].reshape(pl * pd, l)
                        @ (u * lams[x])).reshape(pl, pd, -1)
    return sites, lams


def _run_stage(sites, lams, vac, bonds, gates, max_rank, cutoff):
    """Gates of one stage on the disjoint ``bonds``, all at once.

    Bonds whose sites share their shapes form one group: ``m = gate
    (B_x B_x+1)`` in one batched matmul, the left bond values weight its
    rows into theta, and one SVD launch splits every theta of the group.
    One `truncation_ranks` call over the stage's singular values
    (zero-padded to a common length, which changes no rank) picks the kept
    ranks; per bond, the right site becomes the kept rows of ``vh`` and the
    left site ``m vh^H``, so no bond value is ever inverted.  ``vac`` (per
    site, `_near_vacuum`) is kept current.  Returns ``kept``, the product
    over bonds of the fraction of theta's weight that the truncation keeps.
    """
    groups: dict = {}
    for x in bonds:
        a, b = sites[x], sites[x + 1]
        groups.setdefault((a.shape[0], a.shape[1], b.shape[1], b.shape[2]),
                          []).append(x)
    splits = []
    for (al, dl, dr, ar), xs in groups.items():
        # np.array stacks equal-shape arrays with less overhead than np.stack
        bb = np.array([sites[x].reshape(al * dl, -1)
                       @ sites[x + 1].reshape(-1, dr * ar) for x in xs])
        bb = bb.reshape(len(xs), al, dl * dr, ar)
        m = (np.array([gates[x] for x in xs])[:, None] @ bb).reshape(
            len(xs), al * dl, dr * ar)
        # theta's row weights: the left bond value of each row
        w = np.repeat(np.array([lams[x] for x in xs]), dl, axis=1)
        theta = w[:, :, None] * m
        if not np.all(np.isfinite(theta)):
            raise NumericError("input to SVD contains non-finite entries")
        s, vh = svd(theta)[1:]
        splits.append(((al, dl, dr, ar), xs, m, s, vh))
    n = len(bonds)
    sv = np.zeros((n, max(split[3].shape[1] for split in splits)))
    i = 0
    for split in splits:
        s = split[3]
        sv[i:i + len(s), :s.shape[1]] = s
        i += len(s)
    keep = truncation_ranks(sv, max_rank, cutoff)
    sq = sv * sv
    kept_sq = np.sum(np.where(np.arange(sv.shape[1]) < keep[:, None], sq, 0.0),
                     axis=1)
    total = np.sum(sq, axis=1)
    kept = np.prod(np.divide(kept_sq, total, out=np.ones(n), where=total > 0))
    keep = keep.tolist()
    i = 0
    for (al, dl, dr, ar), xs, m, s, vh in splits:
        ks = keep[i:i + len(xs)]
        i += len(xs)
        # the new sites are views of these arrays; cut to the largest kept
        # rank, they hold no discarded vectors alive
        kmax = max(ks)
        s = np.ascontiguousarray(s[:, :kmax])
        vh = np.ascontiguousarray(vh[:, :kmax])
        left = m @ vh.conj().transpose(0, 2, 1)
        for j, (x, k) in enumerate(zip(xs, ks)):
            sites[x] = left[j, :, :k].reshape(al, dl, k)
            sites[x + 1] = vh[j, :k].reshape(k, dr, ar)
            lams[x + 1] = s[j, :k]
            # a site of inner bond k > 1 is not near the vacuum
            vac[x] = k == 1 and _near_vacuum(sites[x])
            vac[x + 1] = k == 1 and _near_vacuum(sites[x + 1])
    return float(kept)


@dataclass
class EvolutionTrace:
    """Per-step diagnostics of a TEBD run, with the run's gate totals."""

    # one entry per step; the entry of every step but a call's last already
    # includes the seam stage into the next step (see `evolve`)
    discarded: list = field(default_factory=list)    # per-step squared weight
    gates_applied: int = 0
    gates_skipped: int = 0                           # identity on a vacuum pair

    @property
    def total_discarded(self) -> float:
        lost = 1.0
        for w in self.discarded:
            lost *= 1.0 - w
        return 1.0 - lost


def evolve(state: MPS, gates: TrotterGates, n_steps: int, max_rank: int,
           cutoff: float = 1e-12):
    """Run ``n_steps`` Trotter steps; returns ``(state, trace)``.

    The steps run as one stage sequence: the last stage of each step and
    the first of the next merge into one seam stage (see the module
    docstring), so an order-3 call runs 4n+1 stages and an order-2 call
    2n+1.  The trace keeps one entry per step; the entry of step s < n
    already includes the seam into step s+1, so per-call totals are exact
    but a step's discarded weight and gate counts cover its stages up to
    and including the seam that ends it.

    The state is returned with its center at site 0; the norm lost to
    truncation is left in the tensors.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if list(gates.local_dims) != state.local_dims:
        raise ValueError("gate set and state local dimensions differ")
    stages = [(stage.gates, [x for x, g in enumerate(stage.gates)
                             if g is not None]) for stage in gates.stages]
    first, last = stages[0], stages[-1]
    seam = None
    if n_steps > 1:
        if (len(stages) < 2
                or gates.stages[0].parity != gates.stages[-1].parity):
            raise ValueError("steps merge only when the first and last "
                             "stages are two stages of one parity")
        # a step's last stage and the next step's first act on the same
        # bonds back to back: one seam stage runs their product
        seam = (tuple(None if a is None else a @ b
                      for a, b in zip(first[0], last[0])), first[1])
    sites, lams = _hastings_form(state)
    vac = [_near_vacuum(a) for a in sites]
    trace = EvolutionTrace()
    warned = False
    for step in range(1, n_steps + 1):
        lost = 1.0
        for stage_gates, xs in (stages[(step > 1):-1]
                                + [last if step == n_steps else seam]):
            run = [x for x in xs if not (x in gates.vacuum_bonds and vac[x]
                                         and vac[x + 1])]
            if run:
                lost *= _run_stage(sites, lams, vac, run, stage_gates,
                                   max_rank, cutoff)
            trace.gates_applied += len(run)
            trace.gates_skipped += len(xs) - len(run)
        trace.discarded.append(1.0 - lost)
        if not warned and trace.total_discarded > TRUNCATION_BUDGET:
            warnings.warn(
                f"accumulated truncation weight {trace.total_discarded:.3e} "
                f"exceeds the budget {TRUNCATION_BUDGET:.0e}; raise max_rank",
                stacklevel=2)
            warned = True
    return canonicalize(MPS(sites), 0), trace


# ---------------------------------------------------------------------------
# two-site DMRG in parity sectors

def _parities(params: ModelParams) -> list:
    """Per site, 0 or 1 for each local basis state's photon-plus-scatterer
    parity (the local factors of Pi are diagonal)."""
    return [(np.diagonal(f).real < 0).astype(np.int8)
            for f in parity_factors(params)]


def _split_blocked(m, row_labels, col_labels, max_rank, cutoff):
    """Truncated SVD of a matrix that is block diagonal in Z2 labels.

    ``m[r, c]`` vanishes unless ``row_labels[r] == col_labels[c]``.  Each
    block is split on its own and one `truncation_rank` runs over the merged
    singular values, so the kept vectors are parity-definite.  Returns
    ``(u, s, vh, labels, discarded)`` with ``labels`` those of the new bond.
    """
    us, ss, vhs, qs = [], [], [], []
    for q in (0, 1):
        rows = np.flatnonzero(row_labels == q)
        cols = np.flatnonzero(col_labels == q)
        if rows.size and cols.size:
            bu, bs, bvh, _ = split_matrix(m[np.ix_(rows, cols)], max_rank, 0.0)
            us.append(np.zeros((m.shape[0], bs.size), dtype=m.dtype))
            us[-1][rows] = bu
            vhs.append(np.zeros((bs.size, m.shape[1]), dtype=m.dtype))
            vhs[-1][:, cols] = bvh
            ss.append(bs)
            qs.append(np.full(bs.size, q, dtype=np.int8))
    u, vh = np.hstack(us), np.vstack(vhs)
    s, labels = np.concatenate(ss), np.concatenate(qs)
    order = np.argsort(-s, kind="stable")
    keep = order[:truncation_rank(s[order], max_rank, cutoff)]
    total = float(np.vdot(m, m).real)
    discarded = 1.0 - float(np.sum(s[keep] ** 2)) / total if total else 0.0
    return u[:, keep], s[keep], vh[keep], labels[keep], max(discarded, 0.0)


def _parity_blocked(sites, pars, sector):
    """Sites whose every bond index carries a Z2 label, projected on ``sector``.

    Bond labels are the parity of the block left of the bond.  A bond index
    with weight in both parities is split into its two parts, so any state
    becomes blocked; the last bond keeps only the ``sector`` part.  Returns
    ``(sites, labels)`` with ``labels[x]`` those of the bond left of site x.
    """
    labels = [np.zeros(1, dtype=np.int8)]
    out, rows = [], None
    for x, (a, p) in enumerate(zip(sites, pars)):
        if rows is not None:
            a = a[rows]
        odd = (labels[-1][:, None] ^ p[None, :]).astype(bool)[:, :, None]
        a = np.concatenate([np.where(odd, 0, a), np.where(odd, a, 0)], axis=2)
        lab = np.repeat(np.array([0, 1], dtype=np.int8), a.shape[2] // 2)
        if x == len(sites) - 1:
            keep = np.array([sector])
        else:
            keep = np.flatnonzero(np.any(a != 0, axis=(0, 1)))
        rows = np.tile(np.arange(a.shape[2] // 2), 2)[keep]
        a = a[:, :, keep]
        if not np.any(a):
            raise ValueError("seed has no weight in the requested parity "
                             "sector")
        out.append(a)
        labels.append(lab[keep])
    return out, labels


def _lowest(lenv, w1, w2, renv, mask, v0, penalties):
    """Lowest eigenpair of the two-site problem on the entries ``mask``.

    The environments are ``(bra, mpo, ket)``; ``penalties`` are projected
    states (vectors on ``mask``), each raised by `PENALTY`.  Returns
    ``(value, vector, matvecs)``; a dense solve counts one matvec per
    column of the matrix it builds.
    """
    n = v0.size
    if n <= DENSE_MAX:
        x = np.tensordot(lenv, w1, axes=(1, 0))             # b a s' s v
        y = np.tensordot(w2, renv, axes=(3, 1))             # v t' t d c
        h = np.tensordot(x, y, axes=(4, 0)).transpose(0, 2, 4, 6, 1, 3, 5, 7)
        flat = mask.ravel()
        h = h.reshape(mask.size, mask.size)[np.ix_(flat, flat)]
        for phi in penalties:
            h += PENALTY * np.outer(phi, phi.conj())
        vals, vecs = np.linalg.eigh(h)
        return vals[0], vecs[:, 0], n
    count = [0]

    def matvec(x):
        count[0] += 1
        full = np.zeros(mask.shape, dtype=x.dtype)
        full[mask] = x.ravel()
        t = np.tensordot(lenv, full, axes=(2, 0))           # b w s t c
        t = np.tensordot(t, w1, axes=((1, 2), (0, 2)))      # b t c s' v
        t = np.tensordot(t, w2, axes=((1, 4), (2, 0)))      # b c s' t' u
        out = np.tensordot(t, renv, axes=((1, 4), (2, 1)))[mask]
        for phi in penalties:
            out += PENALTY * phi * np.vdot(phi, x)
        return out

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=v0.dtype)
    vals, vecs = spla.eigsh(op, k=1, which="SA", v0=v0, tol=LANCZOS_TOL)
    return vals[0], vecs[:, 0], count[0]


@dataclass
class DmrgTrace:
    """Convergence record of a DMRG solve."""

    energies: list = field(default_factory=list)   # lowest local value per sweep
    sweeps: int = 0
    matvecs: int = 0
    discarded: float = 0.0        # largest weight dropped by one split


def ground_state(params: ModelParams, max_rank: int = SOLVE_RANK,
                 cutoff: float = SOLVE_CUTOFF, parity: int = +1,
                 seed: MPS = None, orthogonal_to=(), tol: float = SOLVE_TOL):
    """Lowest state of one parity sector, by two-site DMRG on the MPO.

    Every bond index carries a Z2 label (the parity of the block to its
    left), so each two-site problem is solved only on its entries of the
    sector ``parity`` (+1 or -1) and the result has exact parity.  States in
    ``orthogonal_to`` (normalized, same sector) are raised by an energy
    penalty through overlap environments, which makes the solve an
    excited-state search.  ``seed`` (default: the vacuum, or the excited
    scatterer for odd parity) is projected on the sector.  Sweeps run until
    the sweep energy changes by at most ``tol``; `DMRG_MAX_SWEEPS` without
    that raises `ConvergenceError`.  Returns ``(energy, state, trace)``,
    the energy being ``<H>`` of the returned state.
    """
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    L = params.L
    if L < 2:
        raise ValueError("DMRG needs at least two sites")
    if seed is None:
        seed = bound_state_seed(params, "gs" if parity > 0 else "e1")
    if seed.local_dims != params.local_dims():
        raise ValueError("seed and model local dimensions differ")
    ham = hamiltonian_mpo(params)
    refs = [normalize(r).sites for r in orthogonal_to]
    arrays = [*ham.sites, *seed.sites, *(a for r in refs for a in r)]
    dtype = complex if any(np.any(a.imag) for a in arrays) else float

    def cast(a):
        return a if dtype is complex else np.ascontiguousarray(a.real)

    ws = [cast(w) for w in ham.sites]
    # a right environment is a left one of the mirrored chain
    ws_mirror = [w.transpose(3, 1, 2, 0) for w in ws]
    refs = [[cast(a) for a in r] for r in refs]
    pars = _parities(params)
    sites, labels = _parity_blocked([cast(a) for a in seed.sites], pars,
                                    0 if parity > 0 else 1)

    def split(i, theta, to_right):
        """Blocked truncated split of bond i; returns the dropped weight."""
        al, dl, dr, ar = theta.shape
        u, s, vh, labels[i + 1], dropped = _split_blocked(
            theta.reshape(al * dl, dr * ar),
            (labels[i][:, None] ^ pars[i][None, :]).ravel(),
            (pars[i + 1][:, None] ^ labels[i + 2][None, :]).ravel(),
            max_rank, cutoff)
        s = s / np.linalg.norm(s)
        if to_right:
            sites[i] = u.reshape(al, dl, -1)
            sites[i + 1] = (s[:, None] * vh).reshape(-1, dr, ar)
        else:
            sites[i] = (u * s).reshape(al, dl, -1)
            sites[i + 1] = vh.reshape(-1, dr, ar)
        return dropped

    # right-canonical sites 1..L-1, the norm at site 0; environments
    # lenvs[i] of the sites left of i and renvs[i] of those right of i
    for i in range(L - 2, -1, -1):
        split(i, np.tensordot(sites[i], sites[i + 1], axes=(2, 0)), False)
    lenvs = [np.ones((1, 1, 1), dtype=dtype)] + [None] * (L - 1)
    renvs = [None] * (L - 1) + [np.ones((1, 1, 1), dtype=dtype)]
    lovl = [[np.ones((1, 1), dtype=dtype)] + [None] * (L - 1) for _ in refs]
    rovl = [[None] * (L - 1) + [np.ones((1, 1), dtype=dtype)] for _ in refs]

    def grow_right(i):
        mirror = sites[i].transpose(2, 1, 0)
        renvs[i - 1] = _mpo_transfer(renvs[i], mirror, ws_mirror[i])
        for r, env in zip(refs, rovl):
            env[i - 1] = _transfer(env[i], r[i].transpose(2, 1, 0), mirror)

    for i in range(L - 1, 0, -1):
        grow_right(i)

    trace = DmrgTrace()
    schedule = ([(i, True) for i in range(L - 2)]
                + [(i, False) for i in range(L - 2, min(0, L - 3), -1)])
    while trace.sweeps < DMRG_MAX_SWEEPS:
        for i, to_right in schedule:
            theta = np.tensordot(sites[i], sites[i + 1], axes=(2, 0))
            mask = ((labels[i][:, None, None, None]
                     ^ pars[i][None, :, None, None]
                     ^ pars[i + 1][None, None, :, None]
                     ^ labels[i + 2][None, None, None, :]) == 0)
            penalties = []
            for r, lo, ro in zip(refs, lovl, rovl):
                t = np.tensordot(lo[i].conj(), r[i], axes=(0, 0))
                t = np.tensordot(t, r[i + 1], axes=(2, 0))
                penalties.append(np.tensordot(t, ro[i + 1].conj(),
                                              axes=(3, 0))[mask])
            try:
                e, vec, n = _lowest(lenvs[i], ws[i], ws[i + 1], renvs[i + 1],
                                    mask, theta[mask], penalties)
            except spla.ArpackNoConvergence as exc:
                raise ConvergenceError(
                    f"Lanczos not converged on bond {i}", trace=trace) from exc
            trace.matvecs += n
            theta = np.zeros(mask.shape, dtype=dtype)
            theta[mask] = vec
            trace.discarded = max(trace.discarded, split(i, theta, to_right))
            if to_right:
                lenvs[i + 1] = _mpo_transfer(lenvs[i], sites[i], ws[i])
                for r, env in zip(refs, lovl):
                    env[i + 1] = _transfer(env[i], r[i], sites[i])
            else:
                grow_right(i + 1)
        trace.sweeps += 1
        trace.energies.append(float(e))
        if (trace.sweeps >= 2
                and abs(trace.energies[-1] - trace.energies[-2]) <= tol):
            state = MPS(sites, ortho_center=schedule[-1][0])
            return energy(state, ham), state, trace
    raise ConvergenceError(
        f"DMRG energy not within {tol:.1e} after {trace.sweeps} sweeps",
        trace=trace)


# The benchmark's tracer looks this name up; its follow-up removes it.
imaginary_time_ground_state = ground_state


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


def bound_states(params: ModelParams, max_rank: int = SOLVE_RANK,
                 cutoff: float = SOLVE_CUTOFF,
                 tol: float = SOLVE_TOL) -> BoundStates:
    """Ground state and the two lowest bound excitations, by parity sectors.

    Three DMRG solves: E_GS is the even minimum, E1 the odd minimum, and E2
    the even minimum orthogonal to the ground state (seeded by the excited
    scatterer with one photon).  For small couplings E2 can be a
    delocalized band state rather than a discrete bound level; callers
    reading E2 - E_GS as a Raman gap should keep that in mind.
    """
    solves = [ground_state(params, max_rank, cutoff, parity=+1, tol=tol)]
    solves.append(ground_state(params, max_rank, cutoff, parity=-1, tol=tol))
    solves.append(ground_state(
        params, max_rank, cutoff, parity=+1,
        seed=bound_state_seed(params, "e2"), orthogonal_to=[solves[0][1]],
        tol=tol))
    energies, states, traces = (list(col) for col in zip(*solves))
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
    return MPS(sites, ortho_center=center)


def scatterer_window(params: ModelParams, radius: int = WINDOW_RADIUS):
    """``(offset, window)``: the open chain of sites within ``radius`` of j0.

    ``offset`` is the full-chain index of the window's first site; the
    window keeps every other model parameter.
    """
    lo = max(0, params.j0 - radius)
    hi = min(params.L, params.j0 + radius + 1)
    return lo, dataclasses.replace(params, L=hi - lo, j0=params.j0 - lo,
                                   boundary="open")


def embedded_ground_state(params: ModelParams, max_rank: int = SOLVE_RANK,
                          cutoff: float = SOLVE_CUTOFF,
                          radius: int = WINDOW_RADIUS, tol: float = SOLVE_TOL,
                          core: MPS = None):
    """Ground state of a long chain via its localized photon cloud.

    The cloud around the scatterer decays exponentially, so the state is
    solved by DMRG on the window of ``2*radius+1`` sites around j0 (or taken
    from ``core``, a ground state of that window solved already), padded
    with vacuum, and polished by DMRG sweeps on the full chain.  When the
    window is the whole chain, a given ``core`` is returned as it is.
    Returns ``(energy, state, trace)`` like `ground_state`.
    """
    lo, small = scatterer_window(params, radius)
    if small.L == params.L:
        if core is None:
            return ground_state(params, max_rank, cutoff, tol=tol)
        return energy(core, hamiltonian_mpo(params)), core, DmrgTrace()
    if core is None:
        _, core, _ = ground_state(small, max_rank, cutoff, tol=tol)
    seed = embed_state(core, params.L, lo, params.local_dims())
    return ground_state(params, max_rank, cutoff, seed=seed, tol=tol)
