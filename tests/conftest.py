import numpy as np
import pytest

from flagshift import ProductSpace, build_algebra


@pytest.fixture(scope="session")
def su2():
    return build_algebra("su", 2)


@pytest.fixture(scope="session")
def su3():
    return build_algebra("su", 3)


@pytest.fixture(scope="session")
def su2n3(su2):
    return ProductSpace(su2, 3)


@pytest.fixture(scope="session")
def su2n4(su2):
    return ProductSpace(su2, 4)


@pytest.fixture(scope="session")
def su3n3(su3):
    return ProductSpace(su3, 3)


@pytest.fixture(scope="session")
def spaces(su2n3, su2n4, su3n3):
    return (su2n3, su2n4, su3n3)


@pytest.fixture(scope="session")
def adjoint():
    """Oracle for Ad_{exp(y)} x: scipy's expm, then conjugation of matrices.

    The basis is trace-orthogonal, tr(e_a e_b) = -delta_ab / 2, so the
    coordinates of the conjugated matrix are -2 Re tr(mat e_a).
    """
    from scipy.linalg import expm

    def act(k, y, x):
        u = expm(k.to_matrix(y))
        mat = u @ k.to_matrix(x) @ u.conj().T
        return -2.0 * np.real(np.einsum("ij,aji->a", mat, k.basis))

    return act


@pytest.fixture(scope="session")
def einstein_by_projections():
    """Oracle for the metric Hamiltonian from its isotypic decomposition.

    X splits into its diagonal part, its copy of the factor tagged by the
    last module direction nu (the projection nu nu^T on the block index)
    and the rest; the three squared norms are weighed by s, q and p.
    """

    def energy(space, p, q, s, X):
        nu = space.module_direction(space.n - 1)
        xh, xnu = space.proj_h(X), np.outer(nu, nu @ X)
        rest = X - xh - xnu
        return 0.5 * (s * space.pair(xh, xh) + p * space.pair(rest, rest) + q * space.pair(xnu, xnu))

    return energy
