"""Model layer: parameters, band structure, Hamiltonian MPO, Trotter gates."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denseref import DenseModel, embed_ops, mps_to_vec, mpo_to_mat
from uscqed import model as M
from uscqed.mps import apply_mpo, product_state


def dense_h(params):
    dm = DenseModel(params.L, params.g, params.j0, params.n_max, J=params.J,
                    Delta=params.Delta, coupling=params.coupling_mode,
                    scatterer=params.scatterer)
    return dm


# ---------------------------------------------------------------------------
# parameters

def test_params_validation():
    with pytest.raises(ValueError):
        M.ModelParams(L=5, g=0.2, j0=5)
    with pytest.raises(ValueError):
        M.ModelParams(L=5, g=0.2, j0=-1)
    with pytest.raises(ValueError):
        M.ModelParams(L=5, g=-0.1, j0=2)
    with pytest.raises(ValueError):
        M.ModelParams(L=5, g=0.2, j0=2, n_max=0)
    with pytest.raises(ValueError):
        M.ModelParams(L=5, g=0.2, j0=2, coupling_mode="dipole")
    with pytest.raises(ValueError):
        M.ModelParams(L=5, g=0.2, j0=2, scatterer="spin1")
    with pytest.raises(ValueError):
        M.ModelParams(L=5, g=0.2, j0=2, boundary="periodic")
    # a mirror chain's wall is its last site, which the scatterer must not be
    with pytest.raises(ValueError, match="before the wall at site 15"):
        M.ModelParams(L=16, g=0.2, j0=15, boundary="mirror")
    M.ModelParams(L=16, g=0.2, j0=14, boundary="mirror")
    M.ModelParams(L=16, g=0.2, j0=15)


def test_local_dims():
    p = M.ModelParams(L=5, g=0.3, j0=2, n_max=3)
    assert p.local_dims() == [4, 4, 8, 4, 4]
    p = M.ModelParams(L=4, g=0.3, j0=1, n_max=2, scatterer="boson")
    assert p.local_dims() == [3, 9, 3, 3]


def test_default_hopping_is_negative_inverse_pi():
    p = M.ModelParams(L=5, g=0.0, j0=2)
    assert p.J == pytest.approx(-1.0 / math.pi, abs=0)
    assert p.Delta == 1.0


# ---------------------------------------------------------------------------
# band structure

def test_dispersion_center_and_edges():
    p = M.ModelParams(L=10, g=0.0, j0=5)
    assert M.dispersion(math.pi / 2, p) == pytest.approx(1.0, abs=1e-15)
    lo, hi = M.band_edges(p)
    assert lo == pytest.approx(0.36338, abs=1e-5)
    assert hi == pytest.approx(1.63662, abs=1e-5)
    assert M.dispersion(0.0, p) == pytest.approx(lo)   # J < 0: k=0 is the bottom
    assert M.dispersion(math.pi, p) == pytest.approx(hi)


def test_group_velocity():
    p = M.ModelParams(L=10, g=0.0, j0=5)
    assert M.group_velocity(math.pi / 2, p) == pytest.approx(2.0 / math.pi)
    assert M.group_velocity(0.0, p) == pytest.approx(0.0, abs=1e-15)
    # numerical derivative agreement
    k, dk = 1.1, 1e-6
    num = (M.dispersion(k + dk, p) - M.dispersion(k - dk, p)) / (2 * dk)
    assert M.group_velocity(k, p) == pytest.approx(num, abs=1e-8)


def test_momentum_from_frequency_roundtrip():
    p = M.ModelParams(L=10, g=0.0, j0=5)
    for k in (0.3, 1.0, math.pi / 2, 2.5):
        got = M.momentum_from_frequency(M.dispersion(k, p), p)
        assert got == pytest.approx(k, abs=1e-12)
    assert np.isnan(M.momentum_from_frequency(0.2, p))
    assert np.isnan(M.momentum_from_frequency(1.8, p))


# ---------------------------------------------------------------------------
# Hamiltonian MPO vs explicit kron construction

CASES = [
    dict(L=5, g=0.7, j0=2, n_max=2),
    dict(L=5, g=0.7, j0=2, n_max=2, coupling_mode="rwa"),
    dict(L=5, g=0.3, j0=2, n_max=2, scatterer="boson"),
    dict(L=5, g=0.5, j0=0, n_max=2),
    dict(L=5, g=0.5, j0=4, n_max=2),
    dict(L=2, g=0.4, j0=1, n_max=1),
]


@pytest.mark.parametrize("kw", CASES)
def test_hamiltonian_mpo_matches_dense(kw):
    p = M.ModelParams(**kw)
    got = mpo_to_mat(M.hamiltonian_mpo(p))
    want = dense_h(p).H
    assert np.linalg.norm(got - want) < 1e-12 * max(1.0, np.linalg.norm(want))


def test_hamiltonian_mpo_bond_extent():
    p = M.ModelParams(L=6, g=0.7, j0=3, n_max=2)
    op = M.hamiltonian_mpo(p)
    assert [w.shape[0] for w in op.sites] == [1, 4, 4, 4, 4, 4]
    assert [w.shape[3] for w in op.sites] == [4, 4, 4, 4, 4, 1]


def test_full_minus_rwa_is_counter_rotating():
    kw = dict(L=4, g=0.6, j0=1, n_max=2)
    full = mpo_to_mat(M.hamiltonian_mpo(M.ModelParams(**kw)))
    rwa = mpo_to_mat(M.hamiltonian_mpo(M.ModelParams(coupling_mode="rwa", **kw)))
    p = M.ModelParams(**kw)
    b = M.scatterer_lowering(p)
    a = M.photon_annihilator(p, p.j0)
    cr = kw["g"] * (b.conj().T @ a.conj().T + b @ a)
    want = embed_ops(p.local_dims(), {p.j0: cr})
    assert np.linalg.norm((full - rwa) - want) < 1e-12


@settings(max_examples=25, deadline=None)
@given(g=st.floats(0.0, 1.5), delta=st.floats(0.5, 1.5), j0=st.integers(0, 3),
       coupling=st.sampled_from(["full", "rwa"]))
def test_hamiltonian_mpo_matches_dense_random(g, delta, j0, coupling):
    p = M.ModelParams(L=4, g=g, j0=j0, n_max=1, Delta=delta,
                      coupling_mode=coupling)
    got = mpo_to_mat(M.hamiltonian_mpo(p))
    want = dense_h(p).H
    assert np.linalg.norm(got - want) < 1e-12 * max(1.0, np.linalg.norm(want))
    assert np.linalg.norm(got - got.conj().T) < 1e-12


def test_bond_terms_sum_to_hamiltonian():
    for kw in (dict(L=5, g=0.7, j0=2, n_max=2),
               dict(L=5, g=0.7, j0=0, n_max=2),
               dict(L=4, g=0.4, j0=3, n_max=1, scatterer="boson")):
        p = M.ModelParams(**kw)
        dims = p.local_dims()
        total = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
        for x, h in enumerate(M.bond_terms(p)):
            total += embed_two(dims, x, h)
        assert np.linalg.norm(total - dense_h(p).H) < 1e-12


def embed_two(dims, x, mat):
    """Embed a two-site matrix acting on sites (x, x+1) into the full space."""
    left = int(np.prod(dims[:x], dtype=int))
    right = int(np.prod(dims[x + 2:], dtype=int))
    return np.kron(np.kron(np.eye(left), mat), np.eye(right))


# ---------------------------------------------------------------------------
# Trotter gates

def stage_matrix(stage, dims):
    dim = int(np.prod(dims))
    out = np.eye(dim, dtype=complex)
    for x, gate in enumerate(stage.gates):
        if gate is None:
            continue
        dl, dr = dims[x], dims[x + 1]
        out = embed_two(dims, x, gate.reshape(dl * dr, dl * dr)) @ out
    return out


def step_matrix(gates, dims):
    dim = int(np.prod(dims))
    out = np.eye(dim, dtype=complex)
    for stage in gates.stages:
        out = stage_matrix(stage, dims) @ out
    return out


def test_stage_coefficients_sum_to_one():
    for order in (2, 3):
        coeffs = M.stage_coefficients(order)
        for parity in (0, 1):
            total = sum(c for p, c in coeffs if p == parity)
            assert cmath.isclose(total, 1.0, abs_tol=1e-15)


def test_first_and_last_stages_share_parity():
    assert all(M.stage_coefficients(o)[0][0] == M.stage_coefficients(o)[-1][0]
               for o in (2, 3))


def test_order2_stages_are_unitary():
    p = M.ModelParams(L=5, g=0.7, j0=2, n_max=2)
    gates = M.trotter_gates(p, dt=0.3, order=2)
    for stage in gates.stages:
        for x, gate in enumerate(stage.gates):
            if gate is None:
                continue
            dl = p.local_dims()[x]
            dr = p.local_dims()[x + 1]
            u = gate.reshape(dl * dr, dl * dr)
            assert np.linalg.norm(u.conj().T @ u - np.eye(dl * dr)) < 1e-12


def test_stage_parity_pattern():
    p = M.ModelParams(L=6, g=0.5, j0=2, n_max=1)
    gates = M.trotter_gates(p, dt=0.1, order=2)
    for stage in gates.stages:
        for x, gate in enumerate(stage.gates):
            assert (gate is not None) == (x % 2 == stage.parity)


@pytest.mark.parametrize("order,min_ratio", [(2, 3.5), (3, 7.0)])
def test_step_error_scaling(order, min_ratio):
    # fixed total time, halved dt: global error drops ~2^order
    p = M.ModelParams(L=4, g=0.5, j0=1, n_max=1)
    dims = p.local_dims()
    dm = dense_h(p)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=dm.H.shape[0]) + 1j * rng.normal(size=dm.H.shape[0])
    psi /= np.linalg.norm(psi)
    t_total = 0.5
    errs = []
    for steps in (4, 8):
        dt = t_total / steps
        step = step_matrix(M.trotter_gates(p, dt=dt, order=order), dims)
        approx = np.linalg.matrix_power(step, steps) @ psi
        errs.append(np.linalg.norm(approx - dm.evolve(psi, t_total)))
    assert errs[0] / errs[1] > min_ratio


def test_trotter_gate_cache_shares_bulk_gates():
    p = M.ModelParams(L=12, g=0.7, j0=6, n_max=2)
    gates = M.trotter_gates(p, dt=0.05, order=2)
    stage = gates.stages[1]  # odd bonds, all bulk away from ends/j0
    bulk = [g for x, g in enumerate(stage.gates)
            if g is not None and x not in (0, p.L - 2, p.j0 - 1, p.j0)]
    assert len(bulk) > 1
    assert all(b is bulk[0] for b in bulk[1:])


def test_trotter_rejects_bad_args():
    p = M.ModelParams(L=4, g=0.5, j0=1, n_max=1)
    with pytest.raises(ValueError):
        M.trotter_gates(p, dt=0.0, order=2)
    with pytest.raises(ValueError):
        M.trotter_gates(p, dt=0.1, order=4)


# ---------------------------------------------------------------------------
# observables

def test_parity_factors_match_dense():
    p = M.ModelParams(L=4, g=0.6, j0=1, n_max=2)
    got = embed_ops(p.local_dims(), dict(enumerate(M.parity_factors(p))))
    assert np.linalg.norm(got - dense_h(p).parity) < 1e-12


def test_parity_expectation_on_product_states():
    p = M.ModelParams(L=5, g=0.3, j0=2, n_max=2)
    dims = p.local_dims()
    vac = product_state(dims, [0] * 5)
    assert M.parity_expectation(vac, p) == pytest.approx(1.0)
    one_photon = product_state(dims, [0, 1, 0, 0, 0])
    assert M.parity_expectation(one_photon, p) == pytest.approx(-1.0)
    # fused index q*(n_max+1)+n: qubit up, zero photons
    qubit_up = product_state(dims, [0, 0, p.n_max + 1, 0, 0])
    assert M.parity_expectation(qubit_up, p) == pytest.approx(-1.0)
    both = product_state(dims, [0, 1, p.n_max + 1, 0, 0])
    assert M.parity_expectation(both, p) == pytest.approx(1.0)


def test_total_excitations_counts_photons_and_scatterer():
    p = M.ModelParams(L=5, g=0.3, j0=2, n_max=2)
    dims = p.local_dims()
    state = product_state(dims, [0, 1, p.n_max + 1, 0, 2])
    assert M.total_excitations(state, p) == pytest.approx(4.0)


def test_packet_creation_matches_dense():
    p = M.ModelParams(L=5, g=0.4, j0=2, n_max=2)
    dims = p.local_dims()
    rng = np.random.default_rng(3)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi /= np.linalg.norm(phi)
    vac = product_state(dims, [0] * 5)
    out, err = apply_mpo(vac, M.packet_creation_mpo(p, phi), max_rank=8,
                         cutoff=0.0)
    assert err == pytest.approx(0.0, abs=1e-14)
    dm = dense_h(p)
    want = sum(phi[x] * dm.a_op(x).conj().T for x in range(5)) @ mps_to_vec(vac)
    assert np.linalg.norm(mps_to_vec(out) - want) < 1e-12
