"""The Lie-Poisson bivector on spans of directions, and the invariant tangent span.

The product bracket is {f, g}(x) = -sum_i <x_i, [df_i, dg_i]> with gradients
taken against the invariant pairing; a weighted pencil member scales block i
by w_i.  ``bivector_on_span`` assembles that contraction for a whole stack of
directions at once, and a single bracket is its [0, 1] entry.  Restricting
gradients to the zero-block-sum subspace gives the almost-Poisson bracket of
the reduction; it satisfies the Jacobi identity on functions invariant under
the diagonal action, which is checked by tests rather than assumed.
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


def _span_in_v(space: ProductSpace, rows: np.ndarray, policy: RankPolicy) -> tuple[np.ndarray, bool]:
    """Directions in v (block sum zero) that ``rows`` annihilate, as a (dim, n, d) stack."""
    d = space.base.dim
    basis, marginal = nullspace(np.vstack([np.tile(np.eye(d), (1, space.n)), rows]), policy)
    return basis.T.reshape(-1, space.n, d), marginal


def invariant_tangent_span(
    space: ProductSpace,
    X: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, bool]:
    """Directions eta in v with [X, eta] again in v, as (dim, n, d) stack.

    Solves the two blockwise linear conditions sum_i eta_i = 0 and
    sum_i [x_i, eta_i] = 0.  Generic points give dimension (n - 2) dim K.
    """
    return _span_in_v(space, np.hstack(space.base.ads(X)), policy)


def tangent_span_orthocomplement(
    space: ProductSpace,
    X: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, bool]:
    """Same span computed as (pairing-orthogonal complement of [X, h]) meet v."""
    # eta must pair to zero with every column of the stacked ad matrices.
    return _span_in_v(space, np.hstack((space.base.gram @ space.base.ads(X)).transpose(0, 2, 1)), policy)
