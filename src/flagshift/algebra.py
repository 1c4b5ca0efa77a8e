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
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .errors import ConfigurationError
from .ranks import DEFAULT_POLICY, numerical_rank

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

        comm = np.einsum("aik,bkj->abij", self.basis, self.basis)
        comm = comm - comm.transpose(1, 0, 2, 3)
        self.structure = self._expand_stack(comm)
        defect = np.abs(self.structure + self.structure.transpose(1, 0, 2)).max()
        if defect > 1e-12:
            raise ConfigurationError("structure constants must be antisymmetric")
        self._validate_jacobi()

        # ad matrices act on coordinates: (ad_a)_{kj} = structure[a, j, k].
        self.ad_basis = self.structure.transpose(0, 2, 1).copy()
        gram = -np.einsum("aij,bji->ab", self.ad_basis, self.ad_basis)
        self.gram = 0.5 * (gram + gram.T)
        if np.linalg.eigvalsh(self.gram).min() <= 0:
            raise ConfigurationError("pairing must be positive definite")
        self.gram_inv = np.linalg.inv(self.gram)
        # trace_basis[(i, j), a] = basis[a, j, i]: a flattened matrix times
        # it gives tr(mat e_a) for every a.
        self.trace_basis = self.basis.transpose(2, 1, 0).reshape(m * m, self.dim)

        for arr in (self.basis, self.structure, self.ad_basis, self.gram, self.gram_inv, self.trace_basis):
            arr.setflags(write=False)
        self._ad_rows = self.ad_basis.reshape(self.dim, self.dim * self.dim)  # a read-only view

    def _validate_jacobi(self) -> None:
        c = self.structure
        jac = (
            np.einsum("jkm,iml->ijkl", c, c)
            + np.einsum("kim,jml->ijkl", c, c)
            + np.einsum("ijm,kml->ijkl", c, c)
        )
        if np.abs(jac).max() > 1e-12:
            raise ConfigurationError("Jacobi identity violated beyond 1e-12")

    # -- element arithmetic -------------------------------------------------

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected coordinate vector of shape ({self.dim},), got {x.shape}")
        return x

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Lie bracket [x, y] in coordinates."""
        return self.ads(self._check(x)) @ self._check(y)

    def pair(self, x: np.ndarray, y: np.ndarray) -> float:
        """Invariant pairing <x, y>, the negative Killing form."""
        return float(self._check(x) @ self.gram @ self._check(y))

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.pair(x, x), 0.0)))

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad_x = [x, .] acting on coordinates."""
        return self.ads(self._check(x))

    def ads(self, xs: np.ndarray) -> np.ndarray:
        """ad matrices of a stack (..., dim) -> (..., dim, dim): [x, y] = ads(x) @ y."""
        xs = np.asarray(xs, dtype=float)
        return (xs.reshape(-1, self.dim) @ self._ad_rows).reshape(*xs.shape[:-1], self.dim, self.dim)

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        return np.tensordot(self._check(x), self.basis, axes=1)

    def to_matrices(self, xs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(xs, dtype=float), self.basis, axes=([-1], [0]))

    def _expand_stack(self, mats: np.ndarray) -> np.ndarray:
        rhs = np.real(np.einsum("...ij,aji->...a", mats, self.basis))
        return rhs @ self._hs_inv.T

    def from_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of an anti-Hermitian traceless matrix."""
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (self.m, self.m):
            raise ValueError(f"expected matrix of shape ({self.m}, {self.m}), got {mat.shape}")
        return self._expand_stack(mat)

    def adjoint_action(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Ad_{exp(y)} x, computed by conjugating in the defining representation.

        The group element exp(y) is unitary, so conjugation preserves the
        pairing exactly up to round-off.
        """
        u = expm(self.to_matrix(y))
        mat = u @ self.to_matrix(x) @ u.conj().T
        return self.from_matrix(mat)

    def adjoint_action_stack(self, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Ad_{exp(y)} applied to a stack of elements (shape (..., dim))."""
        u = expm(self.to_matrix(y))
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

    def isotropy_dim(self, x: np.ndarray) -> int:
        """Dimension of the centralizer ker(ad_x); equals rank for regular x."""
        return self.dim - numerical_rank(self.ad(x), DEFAULT_POLICY).rank

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name}, dim={self.dim}, rank={self.rank})"


def build_algebra(family: str, m: int) -> LieAlgebra:
    """Construct a validated compact algebra; only the 'su' family is supported."""
    return LieAlgebra(family, m)
