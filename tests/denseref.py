"""Brute-force dense statevector reference implementations.

Everything here is written naively (explicit kron embeddings, index loops)
and independently of the package internals, so it can serve as the oracle
the MPS machinery is checked against.  Only small systems are feasible.
"""

import math

import numpy as np
import scipy.linalg


# ---------------------------------------------------------------------------
# MPS / MPO <-> dense conversions (site 0 is the slowest index)

def mps_to_vec(state):
    v = np.ones((1, 1), dtype=complex)  # (flat physical, bond)
    for a in state.sites:
        v = np.tensordot(v, a, axes=(1, 0))          # flat d r
        v = v.reshape(v.shape[0] * v.shape[1], v.shape[2])
    return v[:, 0]


def mpo_to_mat(op):
    m = np.ones((1, 1, 1), dtype=complex)  # (flat out, flat in, bond)
    for w in op.sites:
        t = np.tensordot(m, w, axes=(2, 0))          # O I o i r
        t = t.transpose(0, 2, 1, 3, 4)
        m = t.reshape(t.shape[0] * t.shape[1], t.shape[2] * t.shape[3], t.shape[4])
    return m[:, :, 0]


def random_mps(rng, L, d, D):
    """Random MPS with ragged-safe bond dimensions, loosely normalized."""
    from uscqed.mps import MPS, normalize
    dims = [d] * L if np.isscalar(d) else list(d)
    bonds = [1]
    for i in range(1, L):
        bonds.append(min(D, bonds[-1] * dims[i - 1],
                         int(np.prod(dims[i:]))))
    bonds.append(1)
    sites = []
    for i in range(L):
        shape = (bonds[i], dims[i], bonds[i + 1])
        sites.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return normalize(MPS(sites), 0)


def random_mpo(rng, L, d, Dw):
    from uscqed.mps import MPO
    dims = [d] * L if np.isscalar(d) else list(d)
    bonds = [1] + [Dw] * (L - 1) + [1]
    sites = []
    for i in range(L):
        shape = (bonds[i], dims[i], dims[i], bonds[i + 1])
        sites.append(0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    return MPO(sites)


def embed_ops(dims, ops):
    """kron chain over ``dims`` with per-site matrix replacements."""
    out = np.array([[1.0 + 0.0j]])
    for x, d in enumerate(dims):
        m = ops.get(x)
        if m is None:
            m = np.eye(d, dtype=complex)
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# dense model construction

def fock_ops(n_max):
    d = n_max + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(n_max):
        a[n, n + 1] = math.sqrt(n + 1)
    return a, a.conj().T, a.conj().T @ a, np.eye(d, dtype=complex)


SZ = np.diag([1.0, -1.0]).astype(complex)       # |down>=index 0 convention below
SP = np.array([[0, 0], [1, 0]], dtype=complex)  # raises qubit index 0 -> 1
SM = SP.conj().T
SX = SP + SM
PUP = np.diag([0.0, 1.0]).astype(complex)       # excited-state projector


class DenseModel:
    """Explicit-kron Hamiltonian of the coupled-cavity chain with a scatterer.

    Site j0 fuses the scatterer with its cavity: qubit-major for the qubit
    (index s = q*(n_max+1) + n) and scatterer-major for the boson variant.
    """

    def __init__(self, L, g, j0, n_max, J=-1.0 / math.pi, Delta=1.0,
                 coupling="full", scatterer="qubit"):
        self.L, self.g, self.j0, self.n_max = L, g, j0, n_max
        self.J, self.Delta = J, Delta
        a, ad, n, eye = fock_ops(n_max)
        dph = n_max + 1
        if scatterer == "qubit":
            dsc = 2
            b, bd, nb, eyes = SM, SP, PUP, np.eye(2, dtype=complex)
        else:
            dsc = n_max + 1
            b, bd, nb, eyes = fock_ops(n_max)
        self.dims = [dph] * L
        self.dims[j0] = dsc * dph
        # local operators on the fused site, scatterer-major
        a_f = np.kron(eyes, a)
        n_f = np.kron(eyes, n)
        nb_f = np.kron(nb, eye)
        if coupling == "full":
            h_int = g * np.kron(b + bd, a + ad)
        elif coupling == "rwa":
            h_int = g * (np.kron(bd, a) + np.kron(b, ad))
        else:
            raise ValueError(coupling)
        h_j0 = n_f + Delta * nb_f + h_int
        self.a_site = [a if x != j0 else a_f for x in range(L)]
        self.n_site = [n if x != j0 else n_f for x in range(L)]
        self.nsc = nb_f
        dim = int(np.prod(self.dims))
        H = np.zeros((dim, dim), dtype=complex)
        for x in range(L):
            H += self.embed({x: self.n_site[x] if x != j0 else h_j0})
        for x in range(L - 1):
            hop = self.embed({x: self.a_site[x].conj().T, x + 1: self.a_site[x + 1]})
            H += J * (hop + hop.conj().T)
        self.H = H
        # parity (-1)^{N_exc}
        par_ph = np.diag([(-1.0) ** k for k in range(dph)]).astype(complex)
        par_sc = np.diag([(-1.0) ** k for k in range(dsc)]).astype(complex)
        ops = {x: par_ph for x in range(L)}
        ops[j0] = np.kron(par_sc, par_ph)
        self.parity = self.embed(ops)

    def embed(self, ops):
        """kron chain with the given site -> matrix replacements."""
        out = np.array([[1.0 + 0.0j]])
        for x in range(self.L):
            m = ops.get(x)
            if m is None:
                m = np.eye(self.dims[x], dtype=complex)
            out = np.kron(out, m)
        return out

    def a_op(self, x):
        return self.embed({x: self.a_site[x]})

    def n_op(self, x):
        return self.embed({x: self.n_site[x]})

    def eig(self):
        vals, vecs = scipy.linalg.eigh(self.H)
        return vals, vecs

    def evolve(self, psi0, t):
        return scipy.linalg.expm(-1j * t * self.H) @ psi0
