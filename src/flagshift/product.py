"""Products g = k^n with the diagonal subalgebra and its complement.

Elements are arrays of shape (n, dim) whose rows are the factor blocks.
The diagonal subalgebra h consists of points with all blocks equal; its
orthogonal complement v is the zero-block-sum hyperplane.  Both projections
are orthogonal for the product pairing regardless of the factor Gram matrix,
because h and v pair to zero blockwise.
"""

from __future__ import annotations

import numpy as np

from .algebra import LieAlgebra
from .errors import ConfigurationError
from .ranks import DEFAULT_POLICY, numerical_rank

__all__ = ["ProductSpace"]


class ProductSpace:
    """n-fold product of a compact algebra with diagonal/complement structure."""

    def __init__(self, base: LieAlgebra, n: int):
        if n < 2:
            raise ConfigurationError(f"product needs n >= 2 factors, got n={n}")
        self.base = base
        self.n = int(n)

    @property
    def dim(self) -> int:
        return self.n * self.base.dim

    @property
    def dim_h(self) -> int:
        return self.base.dim

    @property
    def dim_v(self) -> int:
        return (self.n - 1) * self.base.dim

    def _check(self, X: np.ndarray, stack: bool = False) -> np.ndarray:
        """X as a float array of shape (n, dim), or (..., n, dim) with ``stack``."""
        X = np.asarray(X, dtype=float)
        if X.shape[-2:] != (self.n, self.base.dim) or (X.ndim != 2 and not stack):
            shape = f"{'..., ' if stack else ''}{self.n}, {self.base.dim}"
            raise ValueError(f"expected product element of shape ({shape}), got {X.shape}")
        return X

    # -- projections and momentum -------------------------------------------

    def proj_factor(self, X: np.ndarray, i: int) -> np.ndarray:
        """Block i of X (0-based factor index)."""
        if not 0 <= i < self.n:
            raise ValueError(f"factor index must satisfy 0 <= i < {self.n}")
        return self._check(X)[i]

    def momentum(self, X: np.ndarray) -> np.ndarray:
        """Sum of the blocks, the conserved quantity of diagonal symmetry."""
        return self._check(X).sum(axis=0)

    def proj_h(self, X: np.ndarray) -> np.ndarray:
        """Diagonal part of an element or of each element of a (..., n, dim) stack."""
        X = self._check(X, stack=True)
        mean = X.sum(axis=-2, keepdims=True) / self.n
        return np.broadcast_to(mean, X.shape).copy()

    def proj_v(self, X: np.ndarray) -> np.ndarray:
        """Zero-block-sum part of an element or of each element of a (..., n, dim) stack."""
        X = self._check(X, stack=True)
        return X - self.proj_h(X)

    def in_v(self, X: np.ndarray, tol: float = 1e-10) -> bool:
        return self.base.norm(self.momentum(X)) <= tol

    # -- pairing --------------------------------------------------------------

    def pair(self, X: np.ndarray, Y: np.ndarray) -> float:
        X, Y = self._check(X), self._check(Y)
        return float(np.einsum("ia,ab,ib->", X, self.base.gram, Y))

    def norm(self, X: np.ndarray) -> float:
        return float(np.sqrt(max(self.pair(X, X), 0.0)))

    def norms(self, X: np.ndarray) -> np.ndarray:
        """Pairing norm of each element of a (..., n, dim) stack."""
        X = self._check(X, stack=True)
        return np.sqrt(np.clip(np.einsum("...ia,ab,...ib->...", X, self.base.gram, X), 0.0, None))

    # -- module directions ------------------------------------------------

    def module_direction(self, j: int) -> np.ndarray:
        """Unit vector (1, .., 1, -j, 0, .., 0)/sqrt(j^2 + j) with j ones.

        The directions j = 1 .. n-1 are orthonormal and span the zero-sum
        hyperplane of weight space, so each one tags a copy of the factor
        algebra inside v.
        """
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"module index must satisfy 1 <= j <= {self.n - 1}")
        nu = np.zeros(self.n)
        nu[:j] = 1.0
        nu[j] = -float(j)
        return nu / np.sqrt(j * j + j)

    def module_directions(self) -> np.ndarray:
        return np.stack([self.module_direction(j) for j in range(1, self.n)])

    def proj_module(self, nu: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the factor copy tagged by unit vector nu."""
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (self.n,):
            raise ValueError(f"direction must have shape ({self.n},)")
        return np.outer(nu, nu @ self._check(X))

    # -- group action -------------------------------------------------------

    def diagonal_adjoint(self, y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Blockwise Ad_{exp(y)}, the diagonal action on the product."""
        return self.base.adjoint_action_stack(y, self._check(X))

    # -- sampling and genericity ----------------------------------------------

    def random_point(self, rng, scale: float = 1.0) -> np.ndarray:
        rng = np.random.default_rng(rng)
        return rng.normal(0.0, scale, (self.n, self.base.dim))

    def random_v_point(self, rng, scale: float = 1.0) -> np.ndarray:
        return self.proj_v(self.random_point(rng, scale))

    def factor_isotropy_dims(self, X: np.ndarray) -> tuple[int, ...]:
        X = self._check(X)
        return tuple(self.base.isotropy_dim(x) for x in X)

    def diag_isotropy_dim(self, X: np.ndarray) -> int:
        """Dimension of the simultaneous centralizer of all blocks; 0 generically."""
        X = self._check(X)
        stacked = np.vstack(self.base.ads(X))
        return self.base.dim - numerical_rank(stacked, DEFAULT_POLICY).rank

    def __repr__(self) -> str:
        return f"ProductSpace({self.base.name}^{self.n})"
