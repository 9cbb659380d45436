"""TEBD evolution and the DMRG ground- and bound-state search."""

import dataclasses
import math

import numpy as np
import pytest

from denseref import DenseModel, mps_to_vec, random_mps
from uscqed import evolution as ev
from uscqed import model as M
from uscqed.errors import ConvergenceError, NumericError
from uscqed.mps import MPS, norm, overlap, product_state


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
    out, trace = ev.evolve(state, gates, 50, max_rank=16)
    assert abs(norm(out) - 1.0) < 1e-10
    assert trace.total_discarded < 1e-10   # only cutoff-level noise
    assert M.parity_expectation(out, p) == pytest.approx(-1.0, abs=1e-12)


def test_rwa_conserves_total_excitations():
    p = M.ModelParams(L=4, g=0.5, j0=1, n_max=1, coupling_mode="rwa")
    state = photon_at(p, 0)
    gates = M.trotter_gates(p, dt=0.05, order=2)
    out, _ = ev.evolve(state, gates, 40, max_rank=16)
    assert M.total_excitations(out, p) == pytest.approx(1.0, abs=1e-10)


def test_full_coupling_does_not_conserve_excitations():
    p = M.ModelParams(L=4, g=0.8, j0=1, n_max=2)
    state = product_state(p.local_dims(), [0, 0, 0, 0])
    gates = M.trotter_gates(p, dt=0.05, order=2)
    out, _ = ev.evolve(state, gates, 40, max_rank=16)
    assert M.total_excitations(out, p) > 1e-3   # vacuum dresses up
    assert M.parity_expectation(out, p) == pytest.approx(1.0, abs=1e-12)


def test_truncation_accounting_matches_norm_loss():
    # order-2 gates are unitary, so all norm loss is truncation
    p = M.ModelParams(L=6, g=1.0, j0=2, n_max=2)
    state = photon_at(p, 0)
    gates = M.trotter_gates(p, dt=0.1, order=2)
    out, trace = ev.evolve(state, gates, 30, max_rank=3)
    assert trace.total_discarded > 1e-12
    assert norm(out) ** 2 == pytest.approx(1.0 - trace.total_discarded,
                                           abs=1e-10)


def test_truncation_budget_warning():
    p = M.ModelParams(L=6, g=1.2, j0=2, n_max=2)
    gates = M.trotter_gates(p, dt=0.1, order=2)
    with pytest.warns(UserWarning, match="truncation"):
        ev.evolve(photon_at(p, 0), gates, 60, max_rank=1)


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
    _, trace = ev.evolve(state, gates, steps, max_rank=8)
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
    # L = 10, bond cap 4: one stage holds the same theta shape twice
    p = M.ModelParams(L=10, g=0.8, j0=4, n_max=2)
    state = random_mps(np.random.default_rng(4), p.L, p.local_dims(), 4)
    gates = M.trotter_gates(p, dt=0.05, order=3)
    launches = counting_svd(monkeypatch)
    batched = False
    for stage in gates.stages:
        sites, _ = ev._hastings_form(state)
        shapes = {(sites[x].shape[0] * sites[x].shape[1],
                   sites[x + 1].shape[1] * sites[x + 1].shape[2])
                  for x, g in enumerate(stage.gates) if g is not None}
        del launches[:]
        state, trace = ev.evolve(
            state, dataclasses.replace(gates, stages=(stage,)), 1,
            max_rank=4, cutoff=0.0)
        assert len(launches) <= len(shapes)
        assert {shape[1:] for shape in launches} == shapes
        assert sum(shape[0] for shape in launches) == trace.gates_applied
        batched |= any(shape[0] > 1 for shape in launches)
    assert batched


def test_stacked_svd_failure_falls_back_per_matrix(monkeypatch):
    p = M.ModelParams(L=10, g=0.8, j0=4, n_max=2)
    state = random_mps(np.random.default_rng(5), p.L, p.local_dims(), 4)
    gates = M.trotter_gates(p, dt=0.05, order=3)
    want, _ = ev.evolve(state, gates, 3, max_rank=6)
    svd = np.linalg.svd

    def fails_on_stacks(a, *args, **kwargs):
        if a.ndim > 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_on_stacks)
    got, _ = ev.evolve(state, gates, 3, max_rank=6)
    assert got.bond_dims == want.bond_dims
    assert np.linalg.norm(mps_to_vec(got) - mps_to_vec(want)) < 1e-10


def test_returned_state_is_right_canonical_after_order3_truncation():
    p = M.ModelParams(L=8, g=1.0, j0=3, n_max=2)
    state = random_mps(np.random.default_rng(6), p.L, p.local_dims(), 4)
    gates = M.trotter_gates(p, dt=0.1, order=3)
    out, trace = ev.evolve(state, gates, 10, max_rank=4)
    assert 1e-6 < trace.total_discarded < ev.TRUNCATION_BUDGET
    assert out.ortho_center == 0
    for b in out.sites[1:]:
        m = b.reshape(b.shape[0], -1)
        assert np.abs(m @ m.conj().T - np.eye(b.shape[0])).max() < 1e-12


def test_non_finite_state_raises_numeric_error():
    p = M.ModelParams(L=6, g=0.5, j0=2, n_max=1, coupling_mode="rwa")
    state = photon_at(p, 0)
    sites = list(state.sites)
    sites[4] = sites[4].copy()
    sites[4][0, 0, 0] = np.nan
    bad = MPS(sites, ortho_center=0)
    gates = M.trotter_gates(p, dt=0.05, order=2)
    with pytest.raises(NumericError):
        ev.evolve(bad, gates, 1, max_rank=8)


def test_evolve_argument_validation():
    p = P_SMALL
    gates = M.trotter_gates(p, dt=0.05, order=2)
    with pytest.raises(ValueError):
        ev.evolve(photon_at(p, 0), gates, -1, max_rank=8)
    other = product_state([2, 2, 2, 2], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        ev.evolve(other, gates, 1, max_rank=8)
    # steps merge through a seam only when first and last share their bonds
    even_odd = dataclasses.replace(gates, stages=gates.stages[:2])
    ev.evolve(photon_at(p, 0), even_odd, 1, max_rank=8)
    with pytest.raises(ValueError, match="one parity"):
        ev.evolve(photon_at(p, 0), even_odd, 2, max_rank=8)


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
    bs = ev.bound_states(p, max_rank=12)
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
    # max_rank 6 truncates, and the split keeps every bond index in one sector
    p = M.ModelParams(L=6, g=0.9, j0=2, n_max=2)
    bs = ev.bound_states(p, max_rank=6)
    long = M.ModelParams(L=10, g=0.9, j0=5, n_max=2)
    _, gs, _ = ev.embedded_ground_state(long, max_rank=6, radius=2)
    got = bs.parities + [M.parity_expectation(gs, long)]
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
