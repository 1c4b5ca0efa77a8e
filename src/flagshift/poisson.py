"""Lie-Poisson brackets, bivector matrices and restricted kernels.

The product bracket is {f, g}(x) = -sum_i <x_i, [df_i, dg_i]> with gradients
taken against the invariant pairing.  Restricting gradients to the
zero-block-sum subspace gives the almost-Poisson bracket of the reduction;
it satisfies the Jacobi identity on functions invariant under the diagonal
action, which is checked by tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import subspace_angles

from .algebra import LieAlgebra
from .errors import ConfigurationError, GenericityError
from .families import FamilyMember
from .product import ProductSpace
from .ranks import DEFAULT_POLICY, RankPolicy, nullspace, numerical_rank

__all__ = [
    "lp_bracket",
    "v_bracket",
    "pencil_bracket",
    "factor_bracket",
    "bivector_on_span",
    "invariant_tangent_span",
    "tangent_span_orthocomplement",
    "KernelComparison",
    "kernel_of_restricted_bivector",
]


def _bivector(algebra: LieAlgebra, X: np.ndarray, gens: np.ndarray, weights=None) -> np.ndarray:
    """M[a, b] = -sum_i w_i <x_i, [g_a_i, g_b_i]> for a (count, n, dim) stack."""
    # D[i, p, q] = <x_i, [e_p, e_q]>, optionally scaled per block.
    tensor = np.einsum("pqk,ik->ipq", algebra.structure, np.asarray(X, dtype=float) @ algebra.gram)
    if weights is not None:
        tensor = tensor * np.asarray(weights, dtype=float)[:, None, None]
    return -np.einsum("ipq,aip,biq->ab", tensor, gens, gens)


def _member_bracket(algebra: LieAlgebra, f, g, X: np.ndarray, weights=None) -> float:
    # A single-factor point is the one-block case of the product formula.
    X = np.asarray(X, dtype=float)
    blocks = X.reshape(-1, algebra.dim)
    gens = np.stack([f.gradient(X), g.gradient(X)]).reshape(2, *blocks.shape)
    return float(_bivector(algebra, blocks, gens, weights)[0, 1])


def lp_bracket(space: ProductSpace, f: FamilyMember, g: FamilyMember, X: np.ndarray) -> float:
    """Product Lie-Poisson bracket {f, g} at X."""
    return _member_bracket(space.base, f, g, X)


def v_bracket(
    space: ProductSpace,
    f: FamilyMember,
    g: FamilyMember,
    X: np.ndarray,
) -> float:
    """Restricted bracket at a point of the zero-block-sum subspace.

    Gradients of "v" members are already projected; the formula is the same
    contraction as the product bracket.
    """
    if not space.in_v(np.asarray(X, dtype=float)):
        raise ValueError("point is not in the zero-block-sum subspace")
    return _member_bracket(space.base, f, g, X)


def pencil_bracket(
    space: ProductSpace,
    weights: np.ndarray,
    f: FamilyMember,
    g: FamilyMember,
    X: np.ndarray,
) -> float:
    """Bracket of the weighted pencil member: -sum_i a_i <x_i, [df_i, dg_i]>."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (space.n,):
        raise ConfigurationError(f"need {space.n} pencil weights")
    if np.any(weights == 0.0):
        raise ConfigurationError("pencil weights must be nonzero")
    return _member_bracket(space.base, f, g, X, weights)


def factor_bracket(algebra: LieAlgebra, f: FamilyMember, g: FamilyMember, x: np.ndarray) -> float:
    """Lie-Poisson bracket on a single factor, for "k" domain members."""
    return _member_bracket(algebra, f, g, x)


def bivector_on_span(
    space: ProductSpace,
    X: np.ndarray,
    generators: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble M[a, b] = -sum_i w_i <x_i, [g_a_i, g_b_i]> on the given directions."""
    return _bivector(space.base, X, np.asarray(generators, dtype=float), weights)


# -- the invariant tangent span and its bivector kernel -----------------------


def _block_sum_rows(space: ProductSpace) -> np.ndarray:
    d = space.base.dim
    return np.tile(np.eye(d), (1, space.n))


def invariant_tangent_span(
    space: ProductSpace,
    X: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, bool]:
    """Directions eta in v with [X, eta] again in v, as (dim, n, d) stack.

    Solves the two blockwise linear conditions sum_i eta_i = 0 and
    sum_i [x_i, eta_i] = 0.  Generic points give dimension (n - 2) dim K.
    """
    X = np.asarray(X, dtype=float)
    d = space.base.dim
    ads = np.hstack([space.base.ad(x) for x in X])
    system = np.vstack([_block_sum_rows(space), ads])
    basis, marginal = nullspace(system, policy)
    return basis.T.reshape(-1, space.n, d), marginal


def tangent_span_orthocomplement(
    space: ProductSpace,
    X: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, bool]:
    """Same span computed as (pairing-orthogonal complement of [X, h]) meet v."""
    X = np.asarray(X, dtype=float)
    d = space.base.dim
    # eta must pair to zero with every column of the stacked ad matrices.
    rows = np.hstack([(space.base.gram @ space.base.ad(x)).T for x in X])
    system = np.vstack([_block_sum_rows(space), rows])
    basis, marginal = nullspace(system, policy)
    return basis.T.reshape(-1, space.n, d), marginal


def _flatten(stack: np.ndarray) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    return stack.reshape(stack.shape[0], -1).T  # columns are directions


@dataclass(frozen=True)
class KernelComparison:
    """Kernel of the restricted bivector computed along two independent routes."""

    dim: int
    basis: np.ndarray
    centralizer_dim: int
    max_angle: float


def kernel_of_restricted_bivector(
    space: ProductSpace,
    X: np.ndarray,
    policy: RankPolicy = DEFAULT_POLICY,
) -> KernelComparison:
    """Kernel of the bivector restricted to the invariant tangent span.

    Route one: null space of the bivector matrix on that span.  Route two:
    project the blockwise centralizer directions to v.  The two subspaces
    must agree; the maximal principal angle between them is returned.
    """
    X = np.asarray(X, dtype=float)
    span, marginal = invariant_tangent_span(space, X, policy)
    if marginal:
        raise GenericityError("invariant tangent span is rank-marginal; resample the point")
    matrix = bivector_on_span(space, X, span)
    # The matrix can vanish identically, so anchor the cutoff to the point's
    # magnitude instead of trusting a noise-level sigma_max.
    coeffs, marginal = nullspace(matrix, policy, scale=float(np.linalg.norm(X)))
    if marginal:
        raise GenericityError("restricted bivector is rank-marginal; resample the point")
    kernel = np.tensordot(coeffs.T, span, axes=1)

    d = space.base.dim
    directions = []
    for i in range(space.n):
        cols, marginal = nullspace(space.base.ad(X[i]), policy)
        if marginal:
            raise GenericityError("a factor centralizer is rank-marginal; resample the point")
        for col in cols.T:
            direction = np.zeros((space.n, d))
            direction[i] = col
            directions.append(space.proj_v(direction))
    central = np.stack(directions)
    central_dim = numerical_rank(_flatten(central).T, policy).rank

    if kernel.shape[0] and central.shape[0]:
        angles = subspace_angles(_flatten(kernel), _flatten(central))
        max_angle = float(angles.max()) if angles.size else 0.0
    else:
        max_angle = 0.0 if kernel.shape[0] == central.shape[0] else float(np.pi / 2)
    return KernelComparison(kernel.shape[0], kernel, central_dim, max_angle)
