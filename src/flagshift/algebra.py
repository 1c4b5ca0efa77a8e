"""Compact su(m) Lie algebras with exact structure data.

Generators are the anti-Hermitian traceless matrices e_a = -(i/2) lambda_a,
where lambda_a runs over the generalized Gell-Mann set in its standard
ordering.  For su(2) this reproduces the familiar relations
[e1, e2] = e3 (cyclically).  The invariant pairing is the negative of the
Killing form, assembled from structure constants via tr(ad ad) rather than
from a rescaled trace form, so the Gram matrix is an output of the algebra
and not an input convention.  With this basis it evaluates to m times the
identity.

Ad-invariant polynomials are trace powers of the defining representation,
one per exponent 2 .. m.  On anti-Hermitian matrices an odd matrix power has
purely imaginary trace, so odd-degree generators take the imaginary part and
even-degree generators the real part; either way the value is a real
polynomial in the coordinates and the real/imaginary split only discards
floating-point residue of the other component.

Construction validates the structure constants.  The Jacobi identity
J[i, j, k, l] = sum_m c[j, k, m] c[i, m, l] + c[k, i, m] c[j, m, l]
+ c[i, j, m] c[k, m, l] must vanish to 1e-12.  Each term pairs an entry
(a, b, m) with an entry (p, m, q), so J is accumulated over the pairs of
exactly nonzero constants that share m: a skipped product has an exact-zero
factor and is exactly zero.  About 2 000 of the 250 000 constants of su(8)
are nonzero, and no dim^4 array is formed.  The ad data is then stored once, as
the rows ``_ad_rows`` that ``ads`` multiplies; ``structure`` is a view of them.

The gap gate decides regularity without an SVD.  If rho(x) has eigenvalues
i lam_j, then ad_x, which is normal in this basis, has eigenvalues
i (lam_j - lam_k); its singular values are the gaps |lam_j - lam_k| (j != k)
and m - 1 zeros.  One batched eigvalsh over a stack of elements gives them,
and ``ranks.decide`` judges them as it judges the singular values of an SVD.

The adjoint action's group element comes from one eigh: rho(y) = i H with H
Hermitian, so exp(rho(y)) = V exp(i lambda) V^*, and one Newton-Schulz step
U (3 - U^* U) / 2 puts it back on the unitary group to round-off.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .ranks import DEFAULT_POLICY, RankPolicy, decide

__all__ = ["LieAlgebra", "build_algebra"]


def _su_basis(m: int) -> np.ndarray:
    """Generalized Gell-Mann generators of su(m), shape (m*m - 1, m, m)."""
    out = []
    for col in range(1, m):
        for row in range(col):
            sym = np.zeros((m, m), dtype=complex)
            sym[row, col] = 1.0
            sym[col, row] = 1.0
            out.append(sym)
            asym = np.zeros((m, m), dtype=complex)
            asym[row, col] = -1.0j
            asym[col, row] = 1.0j
            out.append(asym)
        diag = np.zeros((m, m), dtype=complex)
        diag[np.arange(col), np.arange(col)] = 1.0
        diag[col, col] = -col
        out.append(diag * np.sqrt(2.0 / (col * (col + 1))))
    return np.stack(out) * (-0.5j)


class LieAlgebra:
    """A compact simple Lie algebra su(m) realized by explicit matrices.

    Elements are real coordinate vectors of length ``dim`` relative to the
    stored basis.  All derived data (structure constants, ad matrices, Gram
    matrix of the pairing) is computed once at construction and validated:
    antisymmetry and the Jacobi identity hold to 1e-12 and the Gram matrix is
    symmetric positive definite.
    """

    def __init__(self, family: str, m: int):
        if family != "su":
            raise ConfigurationError(f"unsupported algebra family: {family!r}")
        if m < 2:
            raise ConfigurationError(f"su(m) needs m >= 2, got m={m}")
        self.family = family
        self.m = int(m)
        self.dim = m * m - 1
        self.rank = m - 1
        self.name = f"su{m}"
        self.basis = _su_basis(m)

        herm_defect = np.abs(self.basis + np.transpose(self.basis, (0, 2, 1)).conj()).max()
        trace_defect = np.abs(np.einsum("aii->a", self.basis)).max()
        if herm_defect > 1e-14 or trace_defect > 1e-14:
            raise ConfigurationError("basis must be anti-Hermitian and traceless")

        # Trace-form Gram of the basis, used only to expand matrices back
        # into coordinates.  It is diagonal for this basis but kept general.
        self._hs = np.real(np.einsum("aij,bji->ab", self.basis, self.basis))
        self._hs_inv = np.linalg.inv(self._hs)

        # trace_basis[(i, j), a] = basis[a, j, i]: a flattened matrix times
        # it gives tr(mat e_a) for every a.
        self.trace_basis = self.basis.transpose(2, 1, 0).reshape(m * m, self.dim)
        # [e_a, e_b] and its coordinates by GEMMs: on this basis they equal the
        # einsums of _expand_stack bit for bit.
        prods = self.basis.reshape(-1, m) @ self.basis.transpose(1, 0, 2).reshape(m, -1)
        prods = prods.reshape(self.dim, m, self.dim, m)  # e_a e_b at [a, i, b, j]
        comm = (prods.transpose(0, 2, 1, 3) - prods.transpose(2, 0, 1, 3)).reshape(-1, m * m)
        self.structure = np.real(comm @ self.trace_basis).reshape((self.dim,) * 3) @ self._hs_inv.T
        defect = np.abs(self.structure + self.structure.transpose(1, 0, 2)).max()
        if defect > 1e-12:
            raise ConfigurationError("structure constants must be antisymmetric")
        self._validate_jacobi()

        # The ad data, stored once as rows: (ad_a)_{kj} = structure[a, j, k] = _ad_rows[a, k dim + j].
        self._ad_rows = self.structure.transpose(0, 2, 1).reshape(self.dim, -1)  # a copy; structure becomes its view
        self.structure = self._ad_rows.reshape((self.dim,) * 3).transpose(0, 2, 1)
        gram = -np.einsum("aji,bij->ab", self.structure, self.structure)  # tr(ad_a ad_b), read row by row
        self.gram = 0.5 * (gram + gram.T)
        if np.linalg.eigvalsh(self.gram).min() <= 0:
            raise ConfigurationError("pairing must be positive definite")
        self.gram_inv = np.linalg.inv(self.gram)

        for arr in (self.basis, self._ad_rows, self.structure, self.gram, self.gram_inv, self.trace_basis):
            arr.setflags(write=False)

    def _validate_jacobi(self) -> None:
        """The Jacobi identity to 1e-12, summed over exactly nonzero constants (module docstring)."""
        c, d = self.structure, self.dim
        a, b, mid = np.nonzero(c)
        shared, p, q = np.nonzero(c.transpose(1, 0, 2))  # grouped by the shared index
        per_m = np.bincount(shared, minlength=d)
        counts, start = per_m[mid], (np.cumsum(per_m) - per_m)[mid]
        first = np.repeat(np.arange(a.size), counts)
        second = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts - start, counts)
        prod = c[a, b, mid][first] * c[p, shared, q][second]
        ijkl = np.stack([p[second], a[first], b[first], q[second]])  # keys of the c[j, k, m] c[i, m, l] term
        keys = np.ravel_multi_index(np.hstack([ijkl, ijkl[[2, 0, 1, 3]], ijkl[[1, 2, 0, 3]]]), (d,) * 4)
        _, slot = np.unique(keys, return_inverse=True)
        worst = np.abs(np.bincount(slot, weights=np.tile(prod, 3))).max(initial=0.0)
        if worst > 1e-12:
            raise ConfigurationError(f"Jacobi identity violated beyond 1e-12 (max defect {worst:.3e})")

    # -- element arithmetic -------------------------------------------------

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected coordinate vector of shape ({self.dim},), got {x.shape}")
        return x

    def pair(self, x: np.ndarray, y: np.ndarray) -> float:
        """Invariant pairing <x, y>, the negative Killing form."""
        return float(self._check(x) @ self.gram @ self._check(y))

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.pair(x, x), 0.0)))

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad_x = [x, .] acting on coordinates."""
        return self.ads(self._check(x))

    def ads(self, xs: np.ndarray) -> np.ndarray:
        """ad matrices of a stack (..., dim) -> (..., dim, dim): [x, y] = ads(x) @ y, the one bracket kernel.

        Only the two RK4 steppers of ``dynamics`` read ``_ad_rows`` directly, into buffers allocated once per
        flow: a call here would add Python overhead to each of a flow's 40 000 field evaluations."""
        xs = np.asarray(xs, dtype=float)
        return (xs.reshape(-1, self.dim) @ self._ad_rows).reshape(*xs.shape[:-1], self.dim, self.dim)

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        return np.tensordot(self._check(x), self.basis, axes=1)

    def to_matrices(self, xs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(xs, dtype=float), self.basis, axes=([-1], [0]))

    def _expand_stack(self, mats: np.ndarray) -> np.ndarray:
        rhs = np.real(np.einsum("...ij,aji->...a", mats, self.basis))
        return rhs @ self._hs_inv.T

    def _unitary(self, y: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
        """exp(t rho(y)) by the eigh route of the module docstring, one (m, m) per time in ``t``."""
        lam, vecs = np.linalg.eigh(-1j * self.to_matrix(y))
        phases = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), lam))
        u = (vecs * phases[..., None, :]) @ vecs.conj().T
        return u @ (1.5 * np.eye(self.m) - 0.5 * (np.conj(np.swapaxes(u, -1, -2)) @ u))

    def adjoint_action_stack(self, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Ad_{exp(y)} applied to a stack of elements (shape (..., dim))."""
        u = self._unitary(y)
        mats = self.to_matrices(xs)
        conj = np.einsum("pq,...qr,rs->...ps", u, mats, u.conj().T)
        return self._expand_stack(conj)

    # -- invariant polynomials ----------------------------------------------

    def invariant_degree(self, alpha: int) -> int:
        if not 1 <= alpha <= self.rank:
            raise ValueError(f"invariant index must satisfy 1 <= alpha <= {self.rank}")
        return alpha + 1

    def invariant_value(self, alpha: int, x: np.ndarray) -> float:
        """Value of the degree alpha+1 trace-power invariant at x.

        Even degrees take Re tr(rho(x)^deg), odd degrees Im tr(rho(x)^deg);
        the discarded component is identically zero for anti-Hermitian x.
        """
        deg = self.invariant_degree(alpha)
        power = np.linalg.matrix_power(self.to_matrix(x), deg)
        tr = complex(np.trace(power))
        return tr.real if deg % 2 == 0 else tr.imag

    def invariant_gradient(self, alpha: int, x: np.ndarray) -> np.ndarray:
        """Gradient of the invariant with respect to the pairing.

        Satisfies pair(grad, y) = directional derivative along y, and
        [grad, x] = 0 identically since matrix powers of x commute with x.
        """
        deg = self.invariant_degree(alpha)
        power = np.linalg.matrix_power(self.to_matrix(x), deg - 1)
        z = np.einsum("ij,aji->a", power, self.basis)
        w = deg * (z.real if deg % 2 == 0 else z.imag)
        return self.gram_inv @ w

    # -- sampling -----------------------------------------------------------

    def random_element(self, rng, scale: float = 1.0) -> np.ndarray:
        rng = np.random.default_rng(rng)
        return rng.normal(0.0, scale, self.dim)

    def isotropy(self, xs: np.ndarray, policy: RankPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
        """Centralizer dimensions and marginal flags of a stack (..., dim), by the gap gate."""
        lam = np.linalg.eigvalsh(-1j * self.to_matrices(xs))
        gaps = np.abs(lam[..., :, None] - lam[..., None, :])  # j = k adds m more exact zeros
        rank, borderline = decide(gaps.reshape(*lam.shape[:-1], -1), policy)
        return self.dim - rank, borderline

    def isotropy_dim(self, x: np.ndarray) -> int:
        """Dimension of the centralizer ker(ad_x); equals rank for regular x."""
        return int(self.isotropy(self._check(x))[0])

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name}, dim={self.dim}, rank={self.rank})"


def build_algebra(family: str, m: int) -> LieAlgebra:
    """Construct a validated compact algebra; only the 'su' family is supported."""
    return LieAlgebra(family, m)
