"""The Lie-Poisson bivector on spans of directions, and the invariant tangent span.

The product bracket is {f, g}(x) = -sum_i <x_i, [df_i, dg_i]> with gradients
taken against the invariant pairing; a weighted pencil member scales block i
by w_i.  ``bivector_on_span`` assembles that contraction for a whole stack of
directions at once, and a single bracket is its [0, 1] entry.  Restricting
gradients to the zero-block-sum subspace gives the almost-Poisson bracket of
the reduction; it satisfies the Jacobi identity on functions invariant under
the diagonal action, which is checked by tests rather than assumed.

The invariant tangent span is solved on v's module basis: eta = nu^T xi with
nu the orthonormal ``module_directions``, so the zero-sum condition holds by
construction and the kernel is taken of one (d, (n - 1) d) matrix built from
the module points nu X, not of the stacked (2 d, n d) pair of conditions.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .product import ProductSpace
from .ranks import DEFAULT_POLICY, RankPolicy, nullspace

__all__ = [
    "bivector_on_span",
    "invariant_tangent_span",
    "tangent_span_orthocomplement",
]


def bivector_on_span(
    space: ProductSpace,
    X: np.ndarray,
    generators: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble M[a, b] = -sum_i w_i <x_i, [g_a_i, g_b_i]> for a (count, n, dim) stack of generators.

    With a (P, n, dim) stack of points and a (P, count, n, dim) stack of
    generators, one per point, it gives the (P, count, count) stack of matrices.
    """
    algebra, gens = space.base, np.asarray(generators, dtype=float)
    # <x, [a, b]> = <[x, a], b>: moved[i, a] = [x_i, g_a_i], then one pairing product.
    moved = gens.swapaxes(-3, -2) @ algebra.ads(X).swapaxes(-1, -2)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (space.n,):
            raise ConfigurationError(f"need {space.n} block weights, got shape {weights.shape}")
        moved *= weights[:, None, None]
    # Each point's product is one GEMM of a C-contiguous (count, n dim) operand
    # with the transpose of another, as tensordot forms it for a single point.
    # Each stage's array is dropped before the next one is made.
    rows = moved.swapaxes(-3, -2).reshape(*gens.shape[:-2], space.dim)
    del moved
    matrix = rows @ (gens @ algebra.gram).reshape(rows.shape).swapaxes(-1, -2)
    return np.negative(matrix, out=matrix)


# -- the invariant tangent span -----------------------------------------------


def _span_in_v(space: ProductSpace, X: np.ndarray, policy: RankPolicy, rows) -> tuple[np.ndarray, bool]:
    """Directions eta = nu^T xi in v, as a (dim, n, d) stack, with xi in the kernel of ``hstack(rows(ads(nu X)))``.

    The rows of nu are orthonormal, so an orthonormal basis of xi maps to one of eta.
    """
    nu = space.module_directions()
    basis, marginal = nullspace(np.hstack(rows(space.base.ads(nu @ X))), policy)
    return nu.T @ basis.T.reshape(-1, space.n - 1, space.base.dim), marginal


def invariant_tangent_span(
    space: ProductSpace,
    X: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, bool]:
    """Directions eta in v with [X, eta] again in v, as (dim, n, d) stack.

    Solves sum_i [x_i, eta_i] = 0 on v, where sum_i eta_i = 0 holds by
    construction.  Generic points give dimension (n - 2) dim K.
    """
    return _span_in_v(space, X, policy, lambda ads: ads)


def tangent_span_orthocomplement(
    space: ProductSpace,
    X: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, bool]:
    """Same span computed as (pairing-orthogonal complement of [X, h]) meet v."""
    # eta must pair to zero with every column of the stacked ad matrices.
    return _span_in_v(space, X, policy, lambda ads: (space.base.gram @ ads).transpose(0, 2, 1))
