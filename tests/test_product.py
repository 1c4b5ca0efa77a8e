"""Product space: projectors, momentum, module directions, isotropy."""

import numpy as np
import pytest

from flagshift import ProductSpace, build_algebra
from flagshift.certify import _failed_gates
from flagshift.errors import ConfigurationError
from flagshift.ranks import DEFAULT_POLICY, numerical_rank


def test_dimensions(su2n3, su3n3):
    # h and v are the images of proj_h and proj_v: dim and (n - 1) dim
    for space, dim, dim_h, dim_v in ((su2n3, 9, 3, 6), (su3n3, 24, 8, 16)):
        basis = np.eye(space.dim).reshape(space.dim, space.n, space.base.dim)
        assert space.dim == dim == space.n * space.base.dim
        assert np.linalg.matrix_rank(space.proj_h(basis).reshape(space.dim, -1)) == dim_h
        assert np.linalg.matrix_rank(space.proj_v(basis).reshape(space.dim, -1)) == dim_v


def test_needs_at_least_two_factors(su2):
    with pytest.raises(ConfigurationError):
        ProductSpace(su2, 1)


def test_projectors_split_identity(su2n3):
    rng = np.random.default_rng(0)
    X = su2n3.random_point(rng)
    h, v = su2n3.proj_h(X), su2n3.proj_v(X)
    assert np.allclose(h + v, X, atol=1e-14)
    assert np.allclose(su2n3.proj_h(h), h, atol=1e-14)
    assert np.allclose(su2n3.proj_v(v), v, atol=1e-14)
    assert np.allclose(su2n3.proj_v(h), 0.0, atol=1e-14)
    # orthogonal splitting for the product pairing
    assert su2n3.pair(h, v) == pytest.approx(0.0, abs=1e-12)


def test_momentum_and_v_membership(su2n3):
    rng = np.random.default_rng(1)
    X = su2n3.random_point(rng)
    assert np.allclose(su2n3.momentum(X), X.sum(axis=0), atol=1e-14)
    V = su2n3.proj_v(X)
    assert np.abs(su2n3.momentum(V)).max() < 1e-14
    assert su2n3.in_v(V)
    assert not su2n3.in_v(X + 1.0)
    assert su2n3.in_v(su2n3.random_v_point(rng))


def test_module_directions_su2n3(su2n3):
    nus = su2n3.module_directions()
    expect = np.array([[1, -1, 0] / np.sqrt(2), [1, 1, -2] / np.sqrt(6)])
    assert np.allclose(nus, expect, atol=1e-14)
    assert np.allclose(nus @ nus.T, np.eye(2), atol=1e-14)
    assert np.abs(nus.sum(axis=1)).max() < 1e-14


def test_module_directions_span_projector(su2n4):
    # sum of the rank-one projectors is the zero-mean projector on weights
    nus = su2n4.module_directions()
    accum = sum(np.outer(nu, nu) for nu in nus)
    expect = np.eye(4) - np.full((4, 4), 0.25)
    assert np.allclose(accum, expect, atol=1e-13)
    rng = np.random.default_rng(3)
    X = su2n4.random_point(rng)
    # nu nu^T on the block index projects onto the factor copy tagged by nu
    total = sum(np.outer(nu, nu @ X) for nu in nus)
    assert np.allclose(total, su2n4.proj_v(X), atol=1e-12)


def test_module_direction_bounds(su2n3):
    with pytest.raises(ValueError):
        su2n3.module_direction(0)
    with pytest.raises(ValueError):
        su2n3.module_direction(3)


def test_diagonal_adjoint_equivariance(su2n3, su2, adjoint):
    rng = np.random.default_rng(4)
    X = su2n3.random_point(rng)
    y = su2.random_element(rng, 0.7)
    moved = su2n3.diagonal_adjoint(y, X)
    assert np.allclose(
        su2n3.momentum(moved), adjoint(su2, y, su2n3.momentum(X)), atol=1e-12
    )
    assert su2n3.pair(moved, moved) == pytest.approx(su2n3.pair(X, X), abs=1e-11)
    V = su2n3.proj_v(X)
    assert su2n3.in_v(su2n3.diagonal_adjoint(y, V))


def test_isotropy_dimensions(su3n3, su3):
    # the genericity gates: every block regular, no centralizer shared by all
    rng = np.random.default_rng(5)
    X = su3n3.random_point(rng)
    assert [su3.isotropy_dim(x) for x in X] == [2, 2, 2]
    assert _failed_gates(su3n3, X[None], "g", DEFAULT_POLICY) == [None]
    x = su3.random_element(rng)
    tiled = np.tile(x, (3, 1))
    # equal blocks are each regular but share their rank-2 centralizer
    assert su3.isotropy_dim(x) == 2
    assert _failed_gates(su3n3, x[None], "k", DEFAULT_POLICY) == [None]
    assert su3.dim - numerical_rank(np.vstack(su3.ads(tiled))).rank == 2
    # one stack gates each point on its own
    stack = np.stack([X, tiled, np.tile(np.zeros(su3.dim), (3, 1)), X])
    assert _failed_gates(su3n3, stack, "g", DEFAULT_POLICY) == [
        None, "diagonal centralizer", "block regularity", None
    ]


def test_pair_is_blockwise_killing(su2n3, su2):
    rng = np.random.default_rng(6)
    X, Y = su2n3.random_point(rng), su2n3.random_point(rng)
    expect = sum(su2.pair(X[i], Y[i]) for i in range(3))
    assert su2n3.pair(X, Y) == pytest.approx(expect, abs=1e-12)
    assert su2n3.norm(X) == pytest.approx(np.sqrt(su2n3.pair(X, X)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_norms_and_pair_match_the_three_operand_contraction(m):
    space = ProductSpace(build_algebra("su", m), 4)
    rng = np.random.default_rng(m)
    gram = space.base.gram
    for shape in ((space.n, space.base.dim), (7, space.n, space.base.dim), (3, 5, space.n, space.base.dim)):
        X = rng.normal(size=shape)
        oracle = np.sqrt(np.einsum("...ia,ab,...ib->...", X, gram, X))
        assert np.abs(space.norms(X) - oracle).max() <= 1e-14 * oracle.min()
    X, Y = rng.normal(size=(2, space.n, space.base.dim))
    oracle = np.einsum("ia,ab,ib->", X, gram, Y)
    assert abs(space.pair(X, Y) - oracle) <= 1e-14 * space.norm(X) * space.norm(Y)
