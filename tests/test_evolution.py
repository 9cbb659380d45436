"""TEBD evolution and the DMRG ground- and bound-state search."""

import dataclasses
import math

import numpy as np
import pytest

from denseref import DenseModel, mps_to_vec, random_mps
from uscqed import evolution as ev
from uscqed import model as M
from uscqed import scattering as sc
from uscqed.errors import ConvergenceError, NumericError
from uscqed.mps import (MPS, compress, norm, normalize, overlap,
                        product_state)


def dense_h(params):
    return DenseModel(params.L, params.g, params.j0, params.n_max, J=params.J,
                      Delta=params.Delta, coupling=params.coupling_mode,
                      scatterer=params.scatterer)


P_SMALL = M.ModelParams(L=4, g=0.5, j0=1, n_max=1)


def photon_at(params, x, extra=None):
    occ = [0] * params.L
    occ[x] = 1 if x != params.j0 else 1  # bare photon index
    if extra is not None:
        occ[params.j0] = extra
    return product_state(params.local_dims(), occ)


# ---------------------------------------------------------------------------
# real time

def test_evolve_matches_dense_propagator():
    p = P_SMALL
    state = photon_at(p, 0)
    t, dt = 0.5, 0.005
    gates = M.trotter_gates(p, dt=dt, order=3)
    # cutoff 0: rank 16 holds the exact state, leaving pure Trotter error
    out, trace = ev.evolve(state, gates, round(t / dt), max_rank=16, cutoff=0.0)
    got = mps_to_vec(out)
    want = dense_h(p).evolve(mps_to_vec(state), t)
    assert np.linalg.norm(got - want) < 5e-6
    assert len(trace.discarded) == round(t / dt)


def test_order2_norm_and_parity_conserved_without_truncation():
    p = P_SMALL
    state = photon_at(p, 0)
    gates = M.trotter_gates(p, dt=0.05, order=2)
    out, trace = ev.evolve(state, gates, 50, max_rank=16, cutoff=1e-12)
    assert abs(norm(out) - 1.0) < 1e-10
    assert trace.total_discarded < 1e-10   # only cutoff-level noise
    assert M.parity_expectation(out, p) == pytest.approx(-1.0, abs=1e-12)


def test_rwa_conserves_total_excitations():
    p = M.ModelParams(L=4, g=0.5, j0=1, n_max=1, coupling_mode="rwa")
    state = photon_at(p, 0)
    gates = M.trotter_gates(p, dt=0.05, order=2)
    out, _ = ev.evolve(state, gates, 40, max_rank=16, cutoff=1e-12)
    assert M.total_excitations(out, p) == pytest.approx(1.0, abs=1e-10)


def test_full_coupling_does_not_conserve_excitations():
    p = M.ModelParams(L=4, g=0.8, j0=1, n_max=2)
    state = product_state(p.local_dims(), [0, 0, 0, 0])
    gates = M.trotter_gates(p, dt=0.05, order=2)
    out, _ = ev.evolve(state, gates, 40, max_rank=16, cutoff=1e-12)
    assert M.total_excitations(out, p) > 1e-3   # vacuum dresses up
    assert M.parity_expectation(out, p) == pytest.approx(1.0, abs=1e-12)


def test_truncation_accounting_matches_norm_loss():
    # order-2 gates are unitary, so all norm loss is truncation
    p = M.ModelParams(L=6, g=1.0, j0=2, n_max=2)
    state = photon_at(p, 0)
    gates = M.trotter_gates(p, dt=0.1, order=2)
    out, trace = ev.evolve(state, gates, 30, max_rank=3, cutoff=1e-12)
    assert trace.total_discarded > 1e-12
    assert norm(out) ** 2 == pytest.approx(1.0 - trace.total_discarded,
                                           abs=1e-10)


# At bond dimension 2 this run, launch included, truncates away about 9% of
# its weight, past the 5% budget, whatever number of evolve calls it takes.
P_BUDGET = M.ModelParams(L=16, g=1.0, j0=8, n_max=2)


@pytest.fixture(scope="module")
def budget_ground():
    e_gs, gs, _ = ev.embedded_ground_state(P_BUDGET)
    return gs, float(e_gs)


def run_over_budget(ground, n_snapshots):
    """The run and the truncation warnings it raised."""
    gs, e_gs = ground
    spec = sc.WavepacketSpec(omega=1.0, sigma=1.5, x0=3.0)
    with pytest.warns(UserWarning) as rec:     # the packet tail warns too
        res = sc.run_scattering(P_BUDGET, spec, 80.0, dt=0.1, order=3,
                                max_rank=2, cutoff=1e-10,
                                n_snapshots=n_snapshots, exclude_radius=3,
                                gs=gs, gs_energy=e_gs)
    return res, [str(w.message) for w in rec
                 if "truncation" in str(w.message)]


def test_truncation_budget_warning(budget_ground):
    res, warned = run_over_budget(budget_ground, 1)
    assert len(warned) == 1
    total = res.snapshots[-1].discarded
    assert total > sc.TRUNCATION_BUDGET
    assert f"{total:.3e}" in warned[0]


@pytest.mark.parametrize("n_snapshots", [4, 20])
def test_truncation_budget_covers_the_run_however_chunked(budget_ground,
                                                          n_snapshots):
    res, warned = run_over_budget(budget_ground, n_snapshots)
    assert len(warned) == 1
    # the ledger opens with the launch truncation
    assert res.snapshots[0].discarded > 0


def test_full_coupling_vacuum_matches_dense_propagator():
    # the two bonds at j0 create pairs from the vacuum, so they must run
    # even though every site starts in the local vacuum
    p = M.ModelParams(L=6, g=0.8, j0=2, n_max=1)
    state = product_state(p.local_dims(), [0] * p.L)
    t, dt = 0.5, 0.005
    gates = M.trotter_gates(p, dt=dt, order=3)
    assert gates.vacuum_bonds == frozenset({0, 3, 4})
    out, _ = ev.evolve(state, gates, round(t / dt), max_rank=16, cutoff=0.0)
    want = dense_h(p).evolve(mps_to_vec(state), t)
    assert np.linalg.norm(mps_to_vec(out) - want) < 5e-6
    assert M.total_excitations(out, p) > 1e-3


def test_rwa_photon_with_skipped_gates_matches_dense_propagator():
    p = M.ModelParams(L=8, g=0.5, j0=3, n_max=1, coupling_mode="rwa")
    state = photon_at(p, 0)
    t, dt = 0.5, 0.005
    gates = M.trotter_gates(p, dt=dt, order=3)
    assert gates.vacuum_bonds == frozenset(range(p.L - 1))
    out, trace = ev.evolve(state, gates, round(t / dt), max_rank=16,
                           cutoff=0.0)
    want = dense_h(p).evolve(mps_to_vec(state), t)
    assert np.linalg.norm(mps_to_vec(out) - want) < 5e-6
    assert trace.gates_skipped > 0


def test_gate_counts_cover_every_scheduled_gate():
    p = M.ModelParams(L=40, g=0.5, j0=20, n_max=1, coupling_mode="rwa")
    state = photon_at(p, 5)
    gates = M.trotter_gates(p, dt=0.1, order=3)
    scheduled = sum(g is not None for st in gates.stages for g in st.gates)
    steps = 20
    _, trace = ev.evolve(state, gates, steps, max_rank=8, cutoff=1e-12)
    # consecutive steps share one seam stage on the first stage's bonds
    first = sum(g is not None for g in gates.stages[0].gates)
    assert trace.gates_applied + trace.gates_skipped == 1580
    assert 1580 == steps * scheduled - (steps - 1) * first
    assert trace.gates_skipped > 0
    assert trace.gates_applied > 0


# L = 5 through the fused 6-dim j0 site; bond cap 4 gives bonds 3, 4, 4, 3,
# so one stage holds thetas of (3, 12) and (24, 9)
P_FUSED = M.ModelParams(L=5, g=0.8, j0=2, n_max=2)


def test_order3_mixed_bonds_through_fused_site_match_dense_propagator():
    p = P_FUSED
    state = random_mps(np.random.default_rng(3), p.L, p.local_dims(), 4)
    assert state.bond_dims == [3, 4, 4, 3]
    t, dt = 0.5, 0.005
    gates = M.trotter_gates(p, dt=dt, order=3)
    # cutoff 0: rank 9 holds the exact state, leaving pure Trotter error
    out, trace = ev.evolve(state, gates, round(t / dt), max_rank=9,
                           cutoff=0.0)
    want = dense_h(p).evolve(mps_to_vec(state), t)
    assert np.linalg.norm(mps_to_vec(out) - want) < 5e-6
    assert trace.gates_skipped == 0


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("case", ["fused", "rwa"])
def test_one_call_matches_chained_single_steps(case, order, n):
    # the seam stage multiplies the gates of a step's last stage and the
    # next step's first, so at cutoff 0 only rounding may differ
    if case == "fused":
        p = P_FUSED
        state = random_mps(np.random.default_rng(3), p.L, p.local_dims(), 4)
        max_rank = 9
    else:
        p = M.ModelParams(L=8, g=0.5, j0=3, n_max=1, coupling_mode="rwa")
        state = photon_at(p, 0)
        max_rank = 16
    gates = M.trotter_gates(p, dt=0.05, order=order)
    out, trace = ev.evolve(state, gates, n, max_rank=max_rank, cutoff=0.0)
    chained = state
    for _ in range(n):
        chained, _ = ev.evolve(chained, gates, 1, max_rank=max_rank,
                               cutoff=0.0)
    assert np.linalg.norm(mps_to_vec(out) - mps_to_vec(chained)) <= 1e-12
    assert len(trace.discarded) == n
    scheduled = sum(g is not None for st in gates.stages for g in st.gates)
    first = sum(g is not None for g in gates.stages[0].gates)
    assert (trace.gates_applied + trace.gates_skipped
            == n * scheduled - (n - 1) * first)
    assert (trace.gates_skipped > 0) == (case == "rwa")


def counting_svd(monkeypatch):
    """Record the shape of every stacked ``np.linalg.svd`` launch."""
    launches = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if a.ndim == 3:
            launches.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return launches


def test_one_svd_launch_per_theta_shape_and_stage(monkeypatch):
    # L = 10, bond cap 4: one stage holds the same site shapes twice
    p = M.ModelParams(L=10, g=0.8, j0=4, n_max=2)
    state = random_mps(np.random.default_rng(4), p.L, p.local_dims(), 4)
    gates = M.trotter_gates(p, dt=0.05, order=3)
    launches = counting_svd(monkeypatch)
    batched = False
    for stage in gates.stages:
        sites = compress(state, 4, 0.0)[0].sites
        groups = {}
        for x, g in enumerate(stage.gates):
            if g is not None:
                key = sites[x].shape[:2] + sites[x + 1].shape[1:]
                groups[key] = groups.get(key, 0) + 1
        want = sorted((n, al * dl, dr * ar)
                      for (al, dl, dr, ar), n in groups.items())
        del launches[:]
        state, trace = ev.evolve(
            state, dataclasses.replace(gates, stages=(stage,)), 1,
            max_rank=4, cutoff=0.0)
        # one launch per site-shape group, holding exactly its bonds
        assert sorted(launches) == want
        assert sum(shape[0] for shape in launches) == trace.gates_applied
        batched |= any(shape[0] > 1 for shape in launches)
    assert batched


def test_stacked_svd_failure_falls_back_per_matrix(monkeypatch):
    p = M.ModelParams(L=10, g=0.8, j0=4, n_max=2)
    state = random_mps(np.random.default_rng(5), p.L, p.local_dims(), 4)
    gates = M.trotter_gates(p, dt=0.05, order=3)
    want, _ = ev.evolve(state, gates, 3, max_rank=6, cutoff=1e-12)
    svd = np.linalg.svd

    def fails_on_stacks(a, *args, **kwargs):
        if a.ndim > 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_on_stacks)
    got, _ = ev.evolve(state, gates, 3, max_rank=6, cutoff=1e-12)
    assert got.bond_dims == want.bond_dims
    assert np.linalg.norm(mps_to_vec(got) - mps_to_vec(want)) < 1e-10


def random_sites(rng, dims, bonds):
    """Random sites of local dimensions ``dims`` and inner bonds ``bonds``
    (generic, so each bond is also the Schmidt rank there)."""
    edges = [1, *bonds, 1]
    shapes = [(edges[i], d, edges[i + 1]) for i, d in enumerate(dims)]
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s)
            for s in shapes]


def apply_dense_stage(vec, dims, gates):
    """A stage's two-site gates applied to a dense state vector."""
    t = vec.reshape(dims)
    for x, g in enumerate(gates):
        if g is not None:
            g4 = g.reshape(dims[x], dims[x + 1], dims[x], dims[x + 1])
            t = np.moveaxis(np.tensordot(g4, t, axes=([2, 3], [x, x + 1])),
                            [0, 1], [x, x + 1])
    return t.ravel()


def test_one_launch_holds_both_thetas_of_a_shape_with_two_inner_bonds(
        monkeypatch):
    # bonds (2,3) and (4,5) both have sites of shapes (2, 2, k) (k, 2, 2),
    # with inner bond k = 4 and k = 3
    p = M.ModelParams(L=8, g=0.8, j0=6, n_max=1)
    dims = p.local_dims()
    sites = random_sites(np.random.default_rng(11), dims,
                         [2, 2, 4, 2, 3, 2, 2])
    state = normalize(MPS(sites), 0)
    gates = M.trotter_gates(p, dt=0.1, order=2)
    stage = next(st for st in gates.stages if st.parity == 0)
    launches = counting_svd(monkeypatch)
    out, trace = ev.evolve(state, dataclasses.replace(gates, stages=(stage,)),
                           1, max_rank=16, cutoff=0.0)
    # one launch per site-shape group: (1,2,2,2) at bond 0, the two bonds
    # of (2,2,2,2), and (2,4,2,1) at bond 6
    assert sorted(launches) == [(1, 2, 4), (1, 8, 2), (2, 4, 4)]
    assert trace.gates_applied == 4
    want = apply_dense_stage(mps_to_vec(state), dims, stage.gates)
    assert np.linalg.norm(mps_to_vec(out) - want) <= 1e-12


@pytest.mark.parametrize("center", [0, None])
def test_entry_gauge_is_right_canonical_with_the_schmidt_values(center):
    dims = [2, 3, 2, 4, 2, 3, 2, 2]
    sites = random_sites(np.random.default_rng(12), dims,
                         [2, 5, 6, 5, 6, 4, 2])
    raw = MPS(sites)
    sites[3] = sites[3] / norm(raw)
    state = MPS(sites) if center is None else normalize(MPS(sites), 0)
    assert state.ortho_center == center
    gauge, lams = ev._entry_gauge(state)
    for b in gauge:
        m = b.reshape(b.shape[0], -1)
        assert np.abs(m @ m.conj().T - np.eye(b.shape[0])).max() < 1e-12
    vec = mps_to_vec(state)
    assert np.linalg.norm(mps_to_vec(MPS(gauge)) - vec) < 1e-12
    assert lams[0].tolist() == [1.0]
    for x in range(1, len(dims)):
        s = np.linalg.svd(vec.reshape(int(np.prod(dims[:x])), -1),
                          compute_uv=False)
        lam = lams[x]
        assert lam.shape == (gauge[x].shape[0],)
        assert np.abs(lam - s[:lam.size]).max() < 1e-12
        assert np.all(s[lam.size:] < 1e-12)


def test_one_evolve_call_makes_only_the_exit_walk_of_qrs(monkeypatch):
    p = M.ModelParams(L=8, g=0.8, j0=3, n_max=1)
    state = random_mps(np.random.default_rng(13), p.L, p.local_dims(), 4)
    assert state.ortho_center == 0
    gates = M.trotter_gates(p, dt=0.05, order=3)
    qr = np.linalg.qr
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    out, _ = ev.evolve(state, gates, 1, max_rank=8, cutoff=1e-12)
    # the entry gauge of a center-0 state walks no center: every QR is an
    # RQ step of the exit walk back to site 0
    assert len(calls) == p.L - 1
    assert out.ortho_center == 0


def test_returned_state_is_right_canonical_after_order3_truncation():
    p = M.ModelParams(L=8, g=1.0, j0=3, n_max=2)
    state = random_mps(np.random.default_rng(6), p.L, p.local_dims(), 4)
    gates = M.trotter_gates(p, dt=0.1, order=3)
    out, trace = ev.evolve(state, gates, 10, max_rank=4, cutoff=1e-12)
    assert 1e-6 < trace.total_discarded < sc.TRUNCATION_BUDGET
    assert out.ortho_center == 0
    for b in out.sites[1:]:
        m = b.reshape(b.shape[0], -1)
        assert np.abs(m @ m.conj().T - np.eye(b.shape[0])).max() < 1e-12


def test_non_finite_state_raises_numeric_error():
    # inf times a zero would warn and leave nan, so the entry checks first
    p = M.ModelParams(L=6, g=0.5, j0=2, n_max=1, coupling_mode="rwa")
    gates = M.trotter_gates(p, dt=0.05, order=2)
    for value in (np.nan, np.inf):
        for site in (3, 4, 5):
            for center in (0, None):
                sites = list(photon_at(p, 0).sites)
                sites[site] = sites[site].copy()
                sites[site][0, 0, 0] = value
                with pytest.raises(NumericError):
                    ev.evolve(MPS(sites, ortho_center=center), gates, 1,
                              max_rank=8, cutoff=1e-12)


def test_evolve_argument_validation():
    p = P_SMALL
    gates = M.trotter_gates(p, dt=0.05, order=2)
    with pytest.raises(ValueError):
        ev.evolve(photon_at(p, 0), gates, -1, max_rank=8, cutoff=1e-12)
    other = product_state([2, 2, 2, 2], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        ev.evolve(other, gates, 1, max_rank=8, cutoff=1e-12)
    # steps merge through a seam only when first and last share their bonds
    even_odd = dataclasses.replace(gates, stages=gates.stages[:2])
    ev.evolve(photon_at(p, 0), even_odd, 1, max_rank=8, cutoff=1e-12)
    with pytest.raises(ValueError, match="one parity"):
        ev.evolve(photon_at(p, 0), even_odd, 2, max_rank=8, cutoff=1e-12)


def test_energy_matches_dense_quadratic_form():
    p = M.ModelParams(L=4, g=0.7, j0=1, n_max=2)
    state = photon_at(p, 3)
    ham = M.hamiltonian_mpo(p)
    vec = mps_to_vec(state)
    want = (vec.conj() @ dense_h(p).H @ vec).real
    assert ev.energy(state, ham) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# DMRG

def dense_parity_levels(params):
    """Eigenvalues labeled by parity from the dense model."""
    dm = dense_h(params)
    vals, vecs = dm.eig()
    par = np.real(np.einsum("ij,ji->i", vecs.conj().T @ dm.parity, vecs))
    return vals, par


def test_ground_state_matches_dense():
    p = M.ModelParams(L=5, g=0.8, j0=2, n_max=2)
    e, state, _ = ev.ground_state(p, max_rank=12)
    vals, _ = dense_parity_levels(p)
    assert e == pytest.approx(vals[0], abs=1e-5)
    assert M.parity_expectation(state, p) == pytest.approx(1.0, abs=1e-8)
    # a complex seed runs the solve in complex arithmetic, to the same state
    vac = ev.vacuum_state(p)
    seed = MPS([vac.sites[0] * np.exp(0.3j)] + vac.sites[1:], ortho_center=0)
    e_c, state_c, _ = ev.ground_state(p, max_rank=12, seed=seed)
    assert e_c == pytest.approx(e, abs=1e-10)
    assert abs(overlap(state, state_c)) == pytest.approx(1.0, abs=1e-8)


def test_rwa_ground_state_is_vacuum():
    p = M.ModelParams(L=5, g=0.3, j0=2, n_max=2, coupling_mode="rwa")
    e, state, _ = ev.ground_state(p, max_rank=8)
    assert abs(e) < 1e-10
    vac = ev.vacuum_state(p)
    assert abs(overlap(vac, state)) == pytest.approx(1.0, abs=1e-10)


def test_decoupled_chain_single_photon_relaxes_to_band_bottom():
    # g=0: the odd sector's minimum is one photon in the k1 mode, below the
    # excited scatterer (Delta = 1) that seeds the odd solve
    p = M.ModelParams(L=5, g=0.0, j0=2, n_max=2)
    e, _, _ = ev.ground_state(p, max_rank=8, parity=-1)
    want = 1.0 + 2.0 * p.J * math.cos(math.pi / (p.L + 1))
    assert e == pytest.approx(want, abs=1e-4)


def test_bound_states_match_dense_spectrum():
    p = M.ModelParams(L=5, g=0.5, j0=2, n_max=2)
    bs = ev.bound_states(p)
    vals, par = dense_parity_levels(p)
    even = vals[par > 0.5]
    odd = vals[par < -0.5]
    assert bs.energies[0] == pytest.approx(even[0], abs=1e-5)
    assert bs.energies[1] == pytest.approx(odd[0], abs=1e-5)
    assert bs.energies[2] == pytest.approx(even[1], abs=1e-4)
    assert bs.parities == pytest.approx([1.0, -1.0, 1.0], abs=1e-6)
    assert bs.raman_gap == pytest.approx(even[1] - even[0], abs=2e-4)
    # states are mutually orthogonal
    assert abs(overlap(bs.states[0], bs.states[1])) < 1e-6
    assert abs(overlap(bs.states[0], bs.states[2])) < 1e-6


def test_every_returned_state_has_exact_parity():
    # max_rank 6 truncates, and the split keeps every bond index in one
    # sector: the three solves of bound_states, at that rank
    p = M.ModelParams(L=6, g=0.9, j0=2, n_max=2)
    _, ground, _ = ev.ground_state(p, max_rank=6, parity=+1)
    _, odd, _ = ev.ground_state(p, max_rank=6, parity=-1)
    _, excited, _ = ev.ground_state(p, max_rank=6, parity=+1,
                                    seed=ev.bound_state_seed(p, "e2"),
                                    orthogonal_to=[ground])
    long = M.ModelParams(L=10, g=0.9, j0=5, n_max=2)
    _, gs, _ = ev.embedded_ground_state(long, max_rank=6, radius=2)
    got = [M.parity_expectation(s, p) for s in (ground, odd, excited)]
    got.append(M.parity_expectation(gs, long))
    assert got == pytest.approx([1.0, -1.0, 1.0, 1.0], abs=1e-10)


def test_truncated_ground_state_energy_is_variational():
    p = M.ModelParams(L=5, g=1.0, j0=2, n_max=2)
    e, state, trace = ev.ground_state(p, max_rank=2, cutoff=0.0)
    vals, _ = dense_parity_levels(p)
    assert state.max_bond == 2
    assert trace.discarded > 1e-8      # rank 2 is below the exact rank
    assert e >= vals[0] - 1e-12
    assert e == pytest.approx(ev.energy(state, M.hamiltonian_mpo(p)),
                              abs=1e-12)


def test_seed_without_weight_in_the_sector_is_rejected():
    p = M.ModelParams(L=4, g=0.3, j0=1, n_max=1)
    with pytest.raises(ValueError, match="parity sector"):
        ev.ground_state(p, seed=ev.vacuum_state(p), parity=-1)


def test_sweep_cap_raises_convergence_error_with_its_trace(monkeypatch):
    monkeypatch.setattr(ev, "DMRG_MAX_SWEEPS", 1)
    p = M.ModelParams(L=4, g=0.5, j0=1, n_max=1)
    with pytest.raises(ConvergenceError) as exc:
        ev.ground_state(p)
    trace = exc.value.trace
    assert trace.sweeps == 1 and len(trace.energies) == 1
    assert trace.matvecs > 0


def test_embedded_ground_state_agrees_with_direct():
    p = M.ModelParams(L=12, g=0.6, j0=6, n_max=2)
    e_direct, _, _ = ev.ground_state(p, max_rank=10)
    e_embed, state, _ = ev.embedded_ground_state(p, max_rank=10, radius=3)
    assert e_embed == pytest.approx(e_direct, abs=1e-5)
    assert state.L == p.L


def test_embed_state_pads_with_vacuum():
    p = M.ModelParams(L=3, g=0.4, j0=1, n_max=1)
    small = photon_at(p, 0)
    dims_big = [2, 2, 4, 2, 2, 2]
    big = ev.embed_state(small, 6, 1, dims_big)
    assert big.local_dims == dims_big
    assert norm(big) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ev.embed_state(small, 6, 4, dims_big)     # window overflows
    with pytest.raises(ValueError):
        ev.embed_state(small, 6, 0, dims_big)     # fused site misaligned


def test_evolution_params_validation_and_kwargs():
    p = ev.EvolutionParams(dt=0.1, t_final=10.0, order=2, max_rank=8,
                           cutoff=1e-12, n_snapshots=5)
    assert p.run_kwargs() == {"dt": 0.1, "order": 2, "max_rank": 8,
                              "cutoff": 1e-12, "n_snapshots": 5}
    for bad in ({"dt": 0.0}, {"dt": 0.5, "t_final": 0.1}, {"order": 1},
                {"order": 4}, {"max_rank": 1}, {"cutoff": -1e-3},
                {"n_snapshots": 0}):
        with pytest.raises(ValueError):
            ev.EvolutionParams(**bad)


# ---------------------------------------------------------------------------
# kernels of the two-site DMRG step, on random tensors

def hermitian_stack(rng, count, n, dtype):
    a = rng.normal(size=(count, n, n))
    if dtype is complex:
        a = a + 1j * rng.normal(size=(count, n, n))
    return a + a.conj().transpose(0, 2, 1)


def random_two_site_problem(rng, dtype, b=3, d1=2, d2=3, c=4, w=3):
    """(lenv, w1, w2, renv, mask) whose effective matrix is Hermitian: every
    environment slice and MPO element is a Hermitian matrix."""
    lenv = hermitian_stack(rng, w, b, dtype).transpose(1, 0, 2)
    renv = hermitian_stack(rng, w, c, dtype).transpose(1, 0, 2)
    w1 = hermitian_stack(rng, w * w, d1, dtype).reshape(w, w, d1, d1)
    w2 = hermitian_stack(rng, w * w, d2, dtype).reshape(w, w, d2, d2)
    mask = rng.random((b, d1, d2, c)) < 0.5
    return lenv, w1.transpose(0, 2, 3, 1), w2.transpose(0, 2, 3, 1), renv, mask


def two_site_matrix(lenv, w1, w2, renv, mask, penalties=()):
    """The sector matrix by one einsum: rows (bra) and columns (ket)."""
    h = np.einsum("awb,wstv,vpqu,cud->aspcbtqd", lenv, w1, w2, renv)
    flat = mask.ravel()
    h = h.reshape(mask.size, mask.size)[np.ix_(flat, flat)]
    for phi in penalties:
        h = h + ev.PENALTY * np.outer(phi, phi.conj())
    return h


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n_penalties", [0, 2])
def test_dense_lowest_pair_matches_eigh(dtype, n_penalties):
    rng = np.random.default_rng(31 + n_penalties)
    lenv, w1, w2, renv, mask = random_two_site_problem(rng, dtype)
    n = int(mask.sum())
    assert n <= ev.DENSE_MAX
    penalties = []
    for _ in range(n_penalties):
        phi = rng.normal(size=n).astype(dtype)
        penalties.append(phi / np.linalg.norm(phi))
    val, vec, count = ev._lowest(lenv, w1, w2, renv, mask,
                                 np.ones(n, dtype=dtype), penalties)
    h = two_site_matrix(lenv, w1, w2, renv, mask, penalties)
    vals, vecs = np.linalg.eigh(h)
    assert count == n
    assert val == pytest.approx(vals[0], abs=1e-12 * abs(vals).max())
    assert vals[1] - vals[0] > 1e-6      # a non-degenerate lowest level
    assert abs(np.vdot(vecs[:, 0], vec)) == pytest.approx(1.0, abs=1e-10)
    assert vec.dtype == np.dtype(dtype)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_lowest_pair_of_a_degenerate_level_lies_in_its_eigenspace(
        dtype):
    # h = A (x) 1 (x) 1 (x) 1 + 1 (x) 1 (x) B (x) 1: the first site is free,
    # and the mask keeps both of its states, so each level is doubly
    # degenerate
    rng = np.random.default_rng(37)
    b, d1, d2, c = 3, 2, 3, 4
    lenv = np.zeros((b, 2, b), dtype=dtype)
    lenv[:, 0], lenv[:, 1] = hermitian_stack(rng, 1, b, dtype)[0], np.eye(b)
    w1 = np.zeros((2, d1, d1, 2), dtype=dtype)
    w1[0, :, :, 0] = w1[1, :, :, 1] = np.eye(d1)
    w2 = np.zeros((2, d2, d2, 1), dtype=dtype)
    w2[0, :, :, 0] = np.eye(d2)
    w2[1, :, :, 0] = hermitian_stack(rng, 1, d2, dtype)[0]
    renv = np.eye(c, dtype=dtype)[:, None, :]
    mask = np.broadcast_to(rng.random((b, 1, d2, c)) < 0.6, (b, d1, d2, c))
    n = int(mask.sum())
    val, vec, _ = ev._lowest(lenv, w1, w2, renv, mask,
                             np.ones(n, dtype=dtype), [])
    vals, vecs = np.linalg.eigh(two_site_matrix(lenv, w1, w2, renv, mask))
    assert vals[1] - vals[0] < 1e-12 and vals[2] - vals[1] > 1e-6
    assert val == pytest.approx(vals[0], abs=1e-12 * abs(vals).max())
    space = vecs[:, :2]
    assert np.linalg.norm(space.conj().T @ vec) == pytest.approx(1.0,
                                                                 abs=1e-10)


def test_lanczos_matvec_matches_tensordot(monkeypatch):
    rng = np.random.default_rng(41)
    lenv, w1, w2, renv, _ = random_two_site_problem(
        rng, complex, b=5, d1=3, d2=3, c=6, w=4)
    mask = rng.random((5, 3, 3, 6)) < 0.5
    n = int(mask.sum())
    assert n > ev.DENSE_MAX
    phi = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi /= np.linalg.norm(phi)
    ops = []

    def capture(op, k, which, v0, tol):
        ops.append(op)
        return np.zeros(1), v0[:, None]

    monkeypatch.setattr(ev.spla, "eigsh", capture)
    ev._lowest(lenv, w1, w2, renv, mask, np.ones(n, dtype=complex), [phi])
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    full = np.zeros(mask.shape, dtype=complex)
    full[mask] = x
    t = np.tensordot(lenv, full, axes=(2, 0))
    t = np.tensordot(t, w1, axes=((1, 2), (0, 2)))
    t = np.tensordot(t, w2, axes=((1, 4), (2, 0)))
    want = np.tensordot(t, renv, axes=((1, 4), (2, 1)))[mask]
    want += ev.PENALTY * phi * np.vdot(phi, x)
    got = ops[0].matvec(x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    h = two_site_matrix(lenv, w1, w2, renv, mask, [phi])
    assert np.linalg.norm(h @ x - want) <= 1e-12 * np.linalg.norm(want)


def blocked_matrix(rng, values, dtype=complex):
    """A matrix block diagonal in alternating row and column labels, with
    the given singular values per block; returns (m, row_labels,
    col_labels)."""
    row_labels = np.arange(7, dtype=np.int8) % 2
    col_labels = np.arange(8, dtype=np.int8) % 2
    m = np.zeros((7, 8), dtype=dtype)
    for q, s in enumerate(values):
        rows = np.flatnonzero(row_labels == q)
        cols = np.flatnonzero(col_labels == q)
        u = np.linalg.qr(rng.normal(size=(rows.size, len(s)))
                         + 1j * rng.normal(size=(rows.size, len(s))))[0]
        v = np.linalg.qr(rng.normal(size=(cols.size, len(s)))
                         + 1j * rng.normal(size=(cols.size, len(s))))[0]
        m[np.ix_(rows, cols)] = (u * s) @ v.conj().T
    return m, row_labels, col_labels


def test_blocked_split_keeps_a_multiplet_across_blocks_whole():
    rng = np.random.default_rng(43)
    pair = 2.0 * (1 - 1e-13)
    m, rl, cl = blocked_matrix(rng, ([3.0, 2.0, 1.0], [pair, 0.5]))
    total = 9 + 4 + 1 + pair ** 2 + 0.25
    # the cutoff falls between the two members of the pair
    cutoff = 0.5 * (4 + pair ** 2) / total
    u, s, vh, labels, dropped = ev._split_blocked(m, rl, cl, 8, cutoff)
    np.testing.assert_allclose(s, [3.0, 2.0, pair], rtol=1e-12)
    assert labels.tolist() == [0, 0, 1]
    assert dropped == pytest.approx((1 + 0.25) / total, rel=1e-10)
    # each kept vector lives on the rows and columns of its block
    for j, q in enumerate(labels):
        assert not np.any(u[rl != q, j]) and not np.any(vh[j, cl != q])
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(vh @ vh.conj().T, np.eye(3), atol=1e-12)
    # at full rank the split reconstructs the matrix
    u, s, vh, labels, dropped = ev._split_blocked(m, rl, cl, 8, 0.0)
    assert labels.tolist() == [0, 0, 1, 0, 1] and dropped < 1e-14
    np.testing.assert_allclose((u * s) @ vh, m, atol=1e-12)


def test_blocked_split_reports_honest_weight_under_the_hard_cap():
    rng = np.random.default_rng(47)
    m, rl, cl = blocked_matrix(rng, ([3.0, 2.0, 1.0], [2.0, 0.5]))
    total = 9 + 4 + 1 + 4 + 0.25
    # the cap splits the pair at 2: one member kept, one dropped
    u, s, vh, labels, dropped = ev._split_blocked(m, rl, cl, 2, 0.0)
    np.testing.assert_allclose(s, [3.0, 2.0], rtol=1e-12)
    assert labels.tolist() == [0, 0]
    assert dropped == pytest.approx((1 + 4 + 0.25) / total, rel=1e-10)
    kept = (u * s) @ vh
    assert np.linalg.norm(m - kept) ** 2 / total == pytest.approx(dropped,
                                                                  rel=1e-10)


def test_blocked_split_rejects_a_non_finite_matrix():
    m, rl, cl = blocked_matrix(np.random.default_rng(53),
                               ([1.0, 0.5], [0.7]))
    m[2, 4] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        ev._split_blocked(m, rl, cl, 8, 0.0)


def test_ground_state_rejects_a_bad_rank_or_cutoff():
    with pytest.raises(ValueError, match="max_rank must be >= 1"):
        ev.ground_state(P_SMALL, max_rank=0)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        ev.ground_state(P_SMALL, cutoff=-1e-3)
