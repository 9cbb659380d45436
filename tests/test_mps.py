"""MPS/MPO engine checked against brute-force dense statevectors."""

import math

import numpy as np
import pytest

import denseref
from denseref import mps_to_vec, mpo_to_mat, random_mps, random_mpo
from uscqed import mps as m
from uscqed.errors import ResourceError, ShapeError


def number_op(d):
    return np.diag(np.arange(d)).astype(complex)


def lowering_op(d):
    a = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    return a


def raw_mps(rng, dims, D):
    """Plain random tensors: no orthogonality center and far from unit norm."""
    bonds = [1] + [D] * (len(dims) - 1) + [1]
    return m.MPS([rng.standard_normal((bonds[i], d, bonds[i + 1]))
                  + 1j * rng.standard_normal((bonds[i], d, bonds[i + 1]))
                  for i, d in enumerate(dims)])


def assert_canonical(state):
    c = state.ortho_center
    assert c is not None
    for i in range(c):
        a = state.sites[i]
        mat = a.reshape(-1, a.shape[2])
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(a.shape[2]),
                                   atol=1e-10)
    for i in range(state.L - 1, c, -1):
        a = state.sites[i]
        mat = a.reshape(a.shape[0], -1)
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(a.shape[0]),
                                   atol=1e-10)


class TestProductState:
    def test_vacuum(self):
        st = m.product_state([3, 3, 3], [0, 0, 0])
        assert m.overlap(st, st) == pytest.approx(1.0)
        for i in range(3):
            assert m.expectation_local(st, number_op(3), i) == pytest.approx(0.0)

    def test_single_occupation(self):
        st = m.product_state([3, 3, 3], [0, 1, 0])
        vals = [m.expectation_local(st, number_op(3), i) for i in range(3)]
        assert vals == pytest.approx([0.0, 1.0, 0.0])

    def test_matches_dense_basis_vector(self):
        st = m.product_state([2, 2, 2], [1, 0, 1])
        vec = mps_to_vec(st)
        want = np.zeros(8)
        want[0b101] = 1.0  # site 0 is the slowest index
        np.testing.assert_allclose(vec, want, atol=1e-15)

    def test_occupation_out_of_range(self):
        with pytest.raises(ValueError):
            m.product_state([2, 2], [0, 2])


class TestCanonicalize:
    def test_product_state_any_center(self):
        st = m.product_state([2, 3, 2], [1, 2, 0])
        for c in range(3):
            out = m.canonicalize(st, c)
            assert out.ortho_center == c
            assert_canonical(out)
            for a, b in zip(st.sites, out.sites):
                np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-12)

    def test_preserves_state_and_norm(self):
        rng = np.random.default_rng(21)
        st = random_mps(rng, 6, 2, 4)
        vec = mps_to_vec(st)
        for c in [0, 3, 5]:
            out = m.canonicalize(st, c)
            assert_canonical(out)
            np.testing.assert_allclose(mps_to_vec(out), vec, atol=1e-10)
            assert abs(m.overlap(out, st)) == pytest.approx(1.0, abs=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        st = m.canonicalize(random_mps(rng, 5, 3, 4), 2)
        out = m.canonicalize(st, 2)
        for a, b in zip(st.sites, out.sites):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_center_out_of_range(self):
        st = m.product_state([2, 2], [0, 0])
        with pytest.raises(ValueError):
            m.canonicalize(st, 2)


class TestExpectations:
    def test_local_matches_dense(self):
        rng = np.random.default_rng(23)
        st = random_mps(rng, 5, 3, 6)
        vec = mps_to_vec(st)
        for site in [0, 2, 4]:
            op = number_op(3)
            want = vec.conj() @ denseref.embed_ops([3] * 5, {site: op}) @ vec
            got = m.expectation_local(st, op, site)
            assert got == pytest.approx(want, abs=1e-10)

    def test_dimension_mismatch(self):
        st = m.product_state([3, 3], [0, 0])
        with pytest.raises(ShapeError):
            m.expectation_local(st, np.eye(2), 0)

    def test_site_expectations_match_individual(self):
        rng = np.random.default_rng(24)
        st = random_mps(rng, 6, 3, 5)
        ops = [number_op(3)] * 6
        got = m.site_expectations(st, ops)
        want = [m.expectation_local(st, number_op(3), i) for i in range(6)]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_correlator_vacuum(self):
        st = m.product_state([3] * 4, [0] * 4)
        a = lowering_op(3)
        C = m.correlator_matrix(st, [a] * 4)
        assert C[0, 2] == pytest.approx(0.0)
        np.testing.assert_allclose(C, 0.0, atol=1e-15)

    def test_correlator_w_state(self):
        # equal-weight one-photon superposition over three sites
        phi = np.full(3, 1.0 / math.sqrt(3.0))
        op = m.wavepacket_mpo(phi, [lowering_op(2).T] * 3)
        vac = m.product_state([2, 2, 2], [0, 0, 0])
        w, _ = m.apply_mpo(vac, op, max_rank=4, cutoff=0.0)
        a = lowering_op(2)
        C = m.correlator_matrix(w, [a] * 3)
        assert C[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_correlator_matches_dense(self):
        rng = np.random.default_rng(25)
        st = random_mps(rng, 5, 3, 6)
        vec = mps_to_vec(st)
        a = lowering_op(3)
        want = (vec.conj() @ denseref.embed_ops([3] * 5, {1: a.conj().T, 3: a}) @ vec) / (vec.conj() @ vec)
        got = m.correlator_matrix(st, [a] * 5)[1, 3]
        assert got == pytest.approx(want, abs=1e-10)

    def test_correlator_matrix_matches_dense(self):
        rng = np.random.default_rng(26)
        L = 5
        st = random_mps(rng, L, 3, 6)
        vec = mps_to_vec(st)
        vec = vec / np.linalg.norm(vec)
        a = lowering_op(3)
        C = m.correlator_matrix(st, [a] * L)
        for x in range(L):
            for y in range(L):
                ops = {x: a.conj().T, y: a} if x != y else {x: a.conj().T @ a}
                want = vec.conj() @ denseref.embed_ops([3] * L, ops) @ vec
                assert C[x, y] == pytest.approx(want, abs=1e-10)

    @staticmethod
    def dense_correlator(vec, dims, a_ops):
        vec = vec / np.linalg.norm(vec)
        L = len(dims)
        C = np.empty((L, L), dtype=complex)
        for x in range(L):
            for y in range(L):
                ad, a = a_ops[x].conj().T, a_ops[y]
                ops = {x: ad, y: a} if x != y else {x: ad @ a}
                C[x, y] = vec.conj() @ denseref.embed_ops(dims, ops) @ vec
        return C

    def test_correlator_matrix_on_ragged_dimensions_matches_dense(self):
        # a fused scatterer site between photon sites
        rng = np.random.default_rng(28)
        dims = [3, 3, 6, 3, 3]
        st = random_mps(rng, 5, dims, 7)
        a_ops = [lowering_op(d) for d in dims]
        np.testing.assert_allclose(
            m.correlator_matrix(st, a_ops),
            self.dense_correlator(mps_to_vec(st), dims, a_ops), atol=1e-10)

    def test_measurements_of_a_state_without_center_match_dense(self):
        rng = np.random.default_rng(29)
        dims = [2, 3, 3, 2, 3]
        st = raw_mps(rng, dims, 4)
        assert st.ortho_center is None
        vec = mps_to_vec(st)
        assert abs(np.linalg.norm(vec) - 1.0) > 0.1
        a_ops = [lowering_op(d) for d in dims]
        np.testing.assert_allclose(
            m.correlator_matrix(st, a_ops),
            self.dense_correlator(vec, dims, a_ops), atol=1e-10)
        unit = vec / np.linalg.norm(vec)
        n_ops = [number_op(d) for d in dims]
        want = [unit.conj() @ denseref.embed_ops(dims, {x: n_ops[x]}) @ unit
                for x in range(5)]
        np.testing.assert_allclose(m.site_expectations(st, n_ops), want,
                                   atol=1e-10)
        par = [np.diag((-1.0) ** np.arange(d)).astype(complex) for d in dims]
        want = (unit.conj() @ denseref.embed_ops(dims, dict(enumerate(par)))
                @ unit)
        assert m.product_expectation(st, par) == pytest.approx(want, abs=1e-10)
        op = random_mpo(rng, 5, dims, 3)
        want = unit.conj() @ mpo_to_mat(op) @ unit
        assert m.mpo_expectation(st, op) == pytest.approx(want, abs=1e-10)

    def test_product_expectation_matches_dense(self):
        rng = np.random.default_rng(27)
        st = random_mps(rng, 4, 2, 4)
        vec = mps_to_vec(st)
        vec /= np.linalg.norm(vec)
        par = np.diag([1.0, -1.0]).astype(complex)
        want = vec.conj() @ np.kron(np.kron(np.kron(par, par), par), par) @ vec
        got = m.product_expectation(st, [par] * 4)
        assert got == pytest.approx(want, abs=1e-10)


class TestOverlap:
    def test_self_overlap(self):
        rng = np.random.default_rng(31)
        st = random_mps(rng, 6, 2, 5)
        assert m.overlap(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_fock_states(self):
        a = m.product_state([3, 3], [1, 0])
        b = m.product_state([3, 3], [0, 1])
        assert m.overlap(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense(self):
        rng = np.random.default_rng(32)
        a = random_mps(rng, 6, 2, 4)
        b = random_mps(rng, 6, 2, 5)
        want = mps_to_vec(a).conj() @ mps_to_vec(b)
        assert m.overlap(a, b) == pytest.approx(want, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            m.overlap(m.product_state([2], [0]), m.product_state([2, 2], [0, 0]))

    def test_local_matrix_elements_match_dense(self):
        rng = np.random.default_rng(34)
        L = 5
        bra = random_mps(rng, L, 3, 4)
        ket = random_mps(rng, L, 3, 5)
        vb, vk = mps_to_vec(bra), mps_to_vec(ket)
        a = lowering_op(3)
        got = m.local_matrix_elements(bra, ket, [a] * L)
        for x in range(L):
            want = vb.conj() @ denseref.embed_ops([3] * L, {x: a}) @ vk
            assert got[x] == pytest.approx(want, abs=1e-10)


class TestWavepacketMpo:
    def test_bond_dimension_exactly_two(self):
        for L in [2, 7, 40]:
            phi = np.zeros(L)
            phi[L // 2] = 1.0
            op = m.wavepacket_mpo(phi, [lowering_op(3).T] * L)
            assert op.max_bond == 2

    def test_concentrated_packet_gives_fock_state(self):
        phi = np.zeros(5)
        phi[2] = 1.0
        op = m.wavepacket_mpo(phi, [lowering_op(3).T] * 5)
        vac = m.product_state([3] * 5, [0] * 5)
        out, err = m.apply_mpo(vac, op, max_rank=4, cutoff=0.0)
        assert err == pytest.approx(0.0, abs=1e-12)
        want = m.product_state([3] * 5, [0, 0, 1, 0, 0])
        assert abs(m.overlap(out, want)) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_on_vacuum_photon_profile(self):
        L = 12
        x = np.arange(L)
        phi = np.exp(-((x - 5.5) ** 2) / 8.0) * np.exp(1j * 1.3 * x)
        phi /= np.linalg.norm(phi)
        op = m.wavepacket_mpo(phi, [lowering_op(2).T] * L)
        vac = m.product_state([2] * L, [0] * L)
        out, _ = m.apply_mpo(vac, op, max_rank=8, cutoff=0.0)
        got = m.site_expectations(out, [number_op(2)] * L).real
        np.testing.assert_allclose(got, np.abs(phi) ** 2, atol=1e-10)

    def test_on_entangled_state_matches_dense(self):
        rng = np.random.default_rng(41)
        L, d = 6, 3
        st = random_mps(rng, L, d, 4)
        phi = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        phi /= np.linalg.norm(phi)
        op = m.wavepacket_mpo(phi, [lowering_op(d).T] * L)
        out, _ = m.apply_mpo(st, op, max_rank=24, cutoff=0.0)
        dense_op = sum(phi[x] * denseref.embed_ops([d] * L, {x: lowering_op(d).conj().T})
                       for x in range(L))
        np.testing.assert_allclose(mps_to_vec(out), dense_op @ mps_to_vec(st),
                                   atol=1e-10)

    def test_unnormalized_packet_rejected(self):
        with pytest.raises(ValueError):
            m.wavepacket_mpo(np.array([1.0, 1.0]), [lowering_op(2).T] * 2)


class TestApplyMpo:
    def test_identity_leaves_state_unchanged(self):
        rng = np.random.default_rng(42)
        st = random_mps(rng, 5, 3, 4)
        ident = m.MPO([np.eye(3, dtype=complex).reshape(1, 3, 3, 1)] * 5)
        out, err = m.apply_mpo(st, ident, max_rank=8, cutoff=0.0)
        assert err == pytest.approx(0.0, abs=1e-12)
        assert m.overlap(out, st) == pytest.approx(1.0, abs=1e-10)

    def test_random_mpo_matches_dense(self):
        rng = np.random.default_rng(43)
        L, d = 5, 2
        st = random_mps(rng, L, d, 4)
        op = random_mpo(rng, L, d, 3)
        out, err = m.apply_mpo(st, op, max_rank=48, cutoff=0.0)
        assert err < 1e-12
        np.testing.assert_allclose(mps_to_vec(out), mpo_to_mat(op) @ mps_to_vec(st),
                                   atol=1e-9)

    def test_result_is_canonical(self):
        rng = np.random.default_rng(44)
        st = random_mps(rng, 5, 2, 4)
        out, _ = m.apply_mpo(st, random_mpo(rng, 5, 2, 3), max_rank=6, cutoff=1e-12)
        assert_canonical(out)
        assert all(b <= 6 for b in out.bond_dims)

    def test_truncated_application_stays_close(self):
        # the reported error is the exact loss against the full product
        rng = np.random.default_rng(45)
        L, d = 6, 2
        st = random_mps(rng, L, d, 6)
        op = random_mpo(rng, L, d, 3)
        exact = mpo_to_mat(op) @ mps_to_vec(st)
        # rank 4 sits below the exact rank 8 of the middle bond
        out, err = m.apply_mpo(st, op, max_rank=4, cutoff=1e-14)
        assert err > 1e-4
        assert_canonical(out)
        got = mps_to_vec(out)
        fidelity = abs(np.vdot(exact, got)) ** 2 / (
            np.vdot(got, got).real * np.vdot(exact, exact).real)
        assert fidelity == pytest.approx(1.0 - err, abs=1e-8)

    def test_bond_explosion_reports_resource_error(self, monkeypatch):
        monkeypatch.setattr(m, "APPLY_BYTE_BUDGET", 64)
        rng = np.random.default_rng(46)
        st = random_mps(rng, 4, 2, 4)
        with pytest.raises(ResourceError, match="bond"):
            m.apply_mpo(st, random_mpo(rng, 4, 2, 3), max_rank=8, cutoff=0.0)

    def test_dimension_mismatch(self):
        st = m.product_state([2, 2], [0, 0])
        with pytest.raises(ShapeError):
            m.apply_mpo(st, m.MPO([np.eye(3).reshape(1, 3, 3, 1)] * 2),
                        max_rank=4, cutoff=0.0)


class TestCompress:
    def test_bond_one_unchanged(self):
        st = m.product_state([2, 2, 2], [0, 1, 0])
        out, err = m.compress(st, max_rank=4, cutoff=0.0)
        assert err == pytest.approx(0.0, abs=1e-15)
        assert abs(m.overlap(out, st)) == pytest.approx(1.0, abs=1e-12)

    def test_same_rank_is_lossless(self):
        rng = np.random.default_rng(51)
        st = random_mps(rng, 6, 2, 8)
        out, err = m.compress(st, max_rank=8, cutoff=0.0)
        assert err == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(mps_to_vec(out), mps_to_vec(st), atol=1e-10)

    def test_fidelity_matches_truncation_error(self):
        rng = np.random.default_rng(52)
        st = random_mps(rng, 6, 2, 8)
        out, err = m.compress(st, max_rank=4, cutoff=0.0)
        fid = abs(m.overlap(out, st)) ** 2 / m.overlap(out, out).real
        assert fid == pytest.approx(1.0 - err, abs=1e-8)

    def test_monotone_in_max_rank(self):
        rng = np.random.default_rng(53)
        st = random_mps(rng, 7, 2, 8)
        errs = [m.compress(st, max_rank=D, cutoff=0.0)[1] for D in [2, 3, 4, 6, 8]]
        assert all(e1 >= e2 - 1e-14 for e1, e2 in zip(errs, errs[1:]))

    def test_all_bonds_capped(self):
        rng = np.random.default_rng(54)
        st = random_mps(rng, 7, 3, 9)
        out, _ = m.compress(st, max_rank=3, cutoff=0.0)
        assert all(b <= 3 for b in out.bond_dims)
        assert_canonical(out)


class TestMpoExpectation:
    def test_matches_dense(self):
        rng = np.random.default_rng(55)
        st = random_mps(rng, 5, 2, 5)
        op = random_mpo(rng, 5, 2, 4)
        vec = mps_to_vec(st)
        want = (vec.conj() @ mpo_to_mat(op) @ vec) / (vec.conj() @ vec)
        assert m.mpo_expectation(st, op) == pytest.approx(want, abs=1e-10)

    def test_transfer_matches_tensordot_left_and_mirrored_right(self):
        rng = np.random.default_rng(57)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        site, w = cplx(5, 3, 6), cplx(4, 3, 3, 2)
        # left: (bra, mpo, ket) of the bond left of the site, to the right
        env = cplx(5, 4, 5)
        t = np.tensordot(env, site, axes=(2, 0))
        t = np.tensordot(w, t, axes=((0, 2), (1, 2)))
        want = np.tensordot(site.conj(), t, axes=((0, 1), (2, 0)))
        got = m._mpo_transfer(env, site, w)
        assert got.shape == (6, 2, 6)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # right: the same step on the mirrored site and MPO tensor
        env = cplx(6, 2, 6)
        want = np.einsum("aob,woiv,kil,bvl->awk", site.conj(), w, site, env)
        got = m._mpo_transfer(env, site.transpose(2, 1, 0),
                              w.transpose(3, 1, 2, 0))
        assert got.shape == (5, 4, 5)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
