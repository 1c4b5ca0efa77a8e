import os

import numpy as np
import pytest

from flagshift import ProductSpace, build_algebra
from flagshift.families import FamilyMember, PolynomialFamily, flag_shift_family


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes this process see k CPUs, which decide whether ``dynamics`` forks a child (two or more)."""

    def set_count(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_count


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


# Members built from their own callables, for controls and spot checks.


class _OneRow:
    """A one-member kernel from the member's own value and gradient callables, called point by point."""

    size = 1

    def __init__(self, domain, value, gradient):
        self.domain, self.value, self.gradient = domain, value, gradient

    def _each(self, fn, X, shape):
        point = X.shape[-1:] if self.domain == "k" else X.shape[-2:]
        out = [fn(x) for x in X.reshape(-1, *point)]
        return np.array(out, dtype=float).reshape(*X.shape[: X.ndim - len(point)], *shape(point))

    def values(self, X):
        return self._each(self.value, X, lambda point: (1,))

    def gradients(self, X):
        return self._each(self.gradient, X, lambda point: (1, *point))


@pytest.fixture(scope="session")
def own_member():
    """A member from its own value and gradient callables: the one row of its own kernel."""

    def build(label, domain, value, gradient):
        return FamilyMember(label, domain, _OneRow(domain, value, gradient), 0)

    return build


@pytest.fixture(scope="session")
def pairing_member(own_member):
    """The quadratic member <x_i, x_j>; Ad-invariant for the diagonal action."""

    def build(space, i, j):
        def gradient(X):
            out = np.zeros_like(X)
            out[i] += X[j]
            out[j] += X[i]
            return out

        return own_member(f"pairing[{i},{j}]", "g", lambda X: space.base.pair(X[i], X[j]), gradient)

    return build


@pytest.fixture(scope="session")
def coordinate_member(own_member):
    """The linear member <x_block, u> (u a vector, or the index of a basis element); not Ad-invariant."""

    def build(space, block, direction):
        u = np.eye(space.base.dim)[direction] if isinstance(direction, int) else np.asarray(direction, float)
        grad = np.outer(np.eye(space.n)[block], u)

        def value(X):
            return space.base.pair(X[block], u)

        return own_member(f"coord[block={block}]", "g", value, lambda X: grad.copy())

    return build


@pytest.fixture(scope="session")
def product_member(own_member):
    """The pointwise product f g with the Leibniz gradient."""

    def build(f, g):
        return own_member(
            f"({f.label})*({g.label})", f.domain, lambda X: f.value(X) * g.value(X),
            lambda X: f.value(X) * g.gradient(X) + g.value(X) * f.gradient(X),
        )

    return build


@pytest.fixture(scope="session")
def casimirs():
    """The blockwise invariants, the members of the flag-shift family labelled casimir[...]."""

    def build(space):
        members = [m for m in flag_shift_family(space) if m.label.startswith("casimir[")]
        assert len(members) == space.n * space.base.rank
        return PolynomialFamily("casimirs", "g", tuple(members))

    return build
