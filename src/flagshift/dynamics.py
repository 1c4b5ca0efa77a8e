"""Quadratic Hamiltonians and fixed-step integration of their Euler flows.

All flows here are of Euler type: dx_i/dt = [x_i, grad_i h].  Every built-in
Hamiltonian is a quadratic form with constant blockwise coefficients, so its
gradient is a coefficient matrix acting on the blocks and the vector field
costs two contractions per evaluation.  The integrator is classical RK4 with
a fixed step; conserved quantities are monitored on recorded states and
reported as relative drifts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .families import PolynomialFamily
from .product import ProductSpace

__all__ = [
    "QuadraticHamiltonian",
    "normal_hamiltonian",
    "novi_hamiltonian",
    "gaudin_hamiltonian",
    "einstein_hamiltonian",
    "einstein_parameters",
    "einstein_hamiltonian_two_ways",
    "euler_field",
    "gaudin_field",
    "FlowSpec",
    "Trajectory",
    "integrate",
    "enr_closed_form",
    "ad_invariance_defect",
    "momentum_drift",
    "momentum_norm_max",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """h(X) = (1/2) sum_ij coeff[i, j] <x_i, x_j> with symmetric coefficients."""

    kind: str
    space: ProductSpace
    coeff: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        coeff = np.asarray(self.coeff, dtype=float)
        n = self.space.n
        if coeff.shape != (n, n):
            raise ConfigurationError(f"coefficient matrix must be ({n}, {n})")
        if np.abs(coeff - coeff.T).max() > 1e-12:
            raise ConfigurationError("coefficient matrix must be symmetric")
        object.__setattr__(self, "coeff", coeff)
        coeff.setflags(write=False)

    def value(self, X: np.ndarray) -> float:
        X = np.asarray(X, dtype=float)
        pairings = X @ self.space.base.gram @ X.T
        return 0.5 * float(np.einsum("ij,ij->", self.coeff, pairings))

    def gradient(self, X: np.ndarray) -> np.ndarray:
        return self.coeff @ np.asarray(X, dtype=float)


def normal_hamiltonian(space: ProductSpace) -> QuadraticHamiltonian:
    """h = (1/2) <X, X>; its Euler field vanishes identically."""
    return QuadraticHamiltonian("normal", space, np.eye(space.n))


def novi_hamiltonian(
    space: ProductSpace,
    s: Sequence[float],
    t: Sequence[float],
    check_positive: bool = True,
) -> QuadraticHamiltonian:
    """Chained-sum Hamiltonian (1/2) sum_i <s_i (x_1 + .. + x_i) + t_i x_{i+1}, same>.

    The coefficient matrix is a sum of n - 1 rank-one terms, hence always
    degenerate on the full product; positivity is therefore gated on the
    zero-block-sum subspace, where generic parameters make it definite.
    """
    s = np.asarray(list(s), dtype=float)
    t = np.asarray(list(t), dtype=float)
    if s.shape != (space.n - 1,) or t.shape != (space.n - 1,):
        raise ConfigurationError(f"need {space.n - 1} chain parameters for each of s and t")
    coeff = np.zeros((space.n, space.n))
    for i in range(space.n - 1):
        w = np.zeros(space.n)
        w[: i + 1] = s[i]
        w[i + 1] += t[i]
        coeff += np.outer(w, w)
    if check_positive:
        basis = space.module_directions().T
        restricted = basis.T @ coeff @ basis
        if np.linalg.eigvalsh(restricted).min() <= 0.0:
            raise ConfigurationError("chain parameters are not positive definite on the reduced space")
    return QuadraticHamiltonian("novi", space, coeff, {"s": tuple(s), "t": tuple(t)})


def gaudin_hamiltonian(space: ProductSpace, weights: Sequence[float]) -> QuadraticHamiltonian:
    """h = (1/2) <sum_i x_i / a_i, sum_j x_j / a_j> for nonzero spectral weights."""
    a = np.asarray(list(weights), dtype=float)
    if a.shape != (space.n,):
        raise ConfigurationError(f"need {space.n} spectral weights")
    if np.any(a == 0.0):
        raise ConfigurationError("spectral weights must be nonzero")
    inv = 1.0 / a
    return QuadraticHamiltonian("gaudin", space, np.outer(inv, inv), {"a": tuple(a)})


def _einstein_couplings(n: int, p: float, q: float, s: float) -> tuple[float, float, float, float]:
    cn = (q * n - p) / (n - 1)
    u = s / n - p / (n - 1) + q / (n * n - n)
    w = (p - q) / (n - 1)
    v = s / n - q / n
    return cn, u, w, v


def einstein_hamiltonian(
    space: ProductSpace,
    p: float,
    q: float,
    s: float | None = None,
) -> QuadraticHamiltonian:
    """Submersion-metric Hamiltonian with weights (s, p, q) on the isotypic pieces.

    The closed form used for the coefficients is
    p/2 sum_{k<n} <x_k, x_k> + (qn - p)/(2(n-1)) <x_n, x_n>
    + u/2 <mu, mu> + w <mu, x_n>, with u and w derived from (p, q, s).
    The parameter s defaults to p; the derived chain couplings u_coef and
    v_coef of the reduced flow are stored in ``params``.
    """
    n = space.n
    if s is None:
        s = p
    if p <= 0 or q <= 0 or s <= 0:
        raise ConfigurationError("metric parameters p, q, s must be positive")
    cn, u, w, v = _einstein_couplings(n, p, q, s)
    coeff = p * np.eye(n)
    coeff[n - 1, n - 1] = cn
    coeff = coeff + u * np.ones((n, n))
    coeff[n - 1, :] += w
    coeff[:, n - 1] += w
    params = {"p": p, "q": q, "s": s, "u_coef": u, "v_coef": v}
    return QuadraticHamiltonian("einstein", space, coeff, params)


def einstein_parameters(n: int) -> tuple[float, float]:
    """The distinguished parameter pair (p, q) = (n^{1/(n-1)}, p^{-(n-2)})."""
    if n < 3:
        raise ConfigurationError("the distinguished metric parameters need n >= 3")
    p = float(n) ** (1.0 / (n - 1))
    return p, p ** (-(n - 2))


def einstein_hamiltonian_two_ways(
    space: ProductSpace,
    p: float,
    q: float,
    s: float | None = None,
    X: np.ndarray | None = None,
) -> tuple[float, float]:
    """Evaluate the metric Hamiltonian via projections and via the closed form.

    The projection route decomposes X into the diagonal part, the last
    module copy and the remainder, and weighs the three squared norms by
    s, q and p.  The closed-form route is the quadratic coefficient matrix.
    Both must agree to round-off; tests assert 1e-12 relative agreement.
    """
    if X is None:
        raise ValueError("a point X is required")
    if s is None:
        s = p
    X = np.asarray(X, dtype=float)
    xh = space.proj_h(X)
    xnu = space.proj_module(space.module_direction(space.n - 1), X)
    rest = X - xh - xnu
    via_proj = 0.5 * (s * space.pair(xh, xh) + p * space.pair(rest, rest) + q * space.pair(xnu, xnu))
    via_form = einstein_hamiltonian(space, p, q, s).value(X)
    return via_proj, via_form


# -- vector fields ------------------------------------------------------------


def euler_field(space: ProductSpace, hamiltonian: QuadraticHamiltonian, X: np.ndarray) -> np.ndarray:
    """dx_i/dt = [x_i, grad_i h] blockwise."""
    return (space.base.ads(X) @ hamiltonian.gradient(X)[:, :, None])[:, :, 0]


def gaudin_field(space: ProductSpace, weights: Sequence[float], X: np.ndarray) -> np.ndarray:
    """Literal spectral field dx_i/dt = sum_j [x_i, x_j] / (a_i a_j)."""
    a = np.asarray(list(weights), dtype=float)
    if a.shape != (space.n,) or np.any(a == 0.0):
        raise ConfigurationError("spectral weights must be nonzero and match the factor count")
    X = np.asarray(X, dtype=float)
    pair_brackets = space.base.ads(X) @ X.T  # [i, :, j] = [x_i, x_j]
    return (pair_brackets @ (1.0 / a)) / a[:, None]


# -- integration ---------------------------------------------------------------


@dataclass(frozen=True)
class FlowSpec:
    """Fixed-step integration request: states recorded every ``stride`` steps."""

    space: ProductSpace
    hamiltonian: QuadraticHamiltonian
    initial: np.ndarray
    t_end: float
    dt: float = 1e-3
    stride: int = 10
    monitors: PolynomialFamily | None = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigurationError("dt and t_end must be positive")
        if self.stride < 1:
            raise ConfigurationError("stride must be at least 1")
        if self.monitors is not None and not isinstance(self.monitors, PolynomialFamily):
            raise ConfigurationError("monitors must be a PolynomialFamily")
        initial = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "initial", initial)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states and monitor series of one integration."""

    times: np.ndarray
    states: np.ndarray
    monitor_labels: tuple[str, ...]
    monitor_series: np.ndarray
    aborted: bool = False

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def drift(self) -> dict[str, float]:
        """Max relative drift |f(t) - f(0)| / (1 + |f(0)|) per monitor."""
        out = {}
        for idx, label in enumerate(self.monitor_labels):
            series = self.monitor_series[:, idx]
            out[label] = float(np.abs(series - series[0]).max() / (1.0 + abs(series[0])))
        return out


def _monitor_row(hamiltonian, monitors, X) -> np.ndarray:
    energy = [hamiltonian.value(X)]
    return np.asarray(energy) if monitors is None else np.concatenate([energy, monitors.values(X)])


def integrate(flow: FlowSpec) -> Trajectory:
    """Classical RK4 with fixed step.

    The energy is always the first monitor, labeled "energy"; the family in
    ``flow.monitors``, if any, is evaluated in one pass per recorded state.
    A non-finite state aborts the run and the trajectory keeps the last
    valid record.
    """
    space, h = flow.space, flow.hamiltonian
    X = flow.initial.copy()
    steps = int(round(flow.t_end / flow.dt))
    dt = flow.dt

    labels = ("energy",) + (flow.monitors.labels if flow.monitors is not None else ())
    times = [0.0]
    states = [X.copy()]
    series = [_monitor_row(h, flow.monitors, X)]
    aborted = False

    for step in range(1, steps + 1):
        k1 = euler_field(space, h, X)
        k2 = euler_field(space, h, X + 0.5 * dt * k1)
        k3 = euler_field(space, h, X + 0.5 * dt * k2)
        k4 = euler_field(space, h, X + dt * k3)
        X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % flow.stride == 0 or step == steps:
            if not np.isfinite(X).all():
                aborted = True
                break
            times.append(step * dt)
            states.append(X.copy())
            series.append(_monitor_row(h, flow.monitors, X))

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        monitor_labels=labels,
        monitor_series=np.asarray(series),
        aborted=aborted,
    )


# -- reduced closed-form flow ---------------------------------------------------


def enr_closed_form(
    space: ProductSpace,
    X0: np.ndarray,
    u_coef: float,
    v_coef: float,
    t: float | np.ndarray,
) -> np.ndarray:
    """Closed-form reduced flow on the zero-block-sum subspace.

    The first n - 1 blocks rotate by Ad_{exp(t xi)} with
    xi = (v_coef - u_coef) (x_1 + .. + x_{n-1}), the last block is constant.
    Degenerate couplings u_coef = v_coef freeze the whole state.  ``t`` is
    one time, giving one (n, dim) state, or an array of times, giving one
    state per time; every rotation comes from one eigendecomposition of the
    anti-Hermitian rho(xi) = i H, as exp(t rho(xi)) = V exp(i t lambda) V^*.
    """
    X0 = np.asarray(X0, dtype=float)
    if not space.in_v(X0):
        raise ValueError("closed-form reduced flow needs an initial state with zero block sum")
    algebra, k = space.base, space.n - 1
    xi = (v_coef - u_coef) * X0[:k].sum(axis=0)
    lam, vecs = np.linalg.eigh(-1j * algebra.to_matrix(xi))
    phases = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), lam))
    u = np.einsum("pj,...j,qj->...pq", vecs, phases, vecs.conj())[..., None, :, :]
    rotated = algebra._expand_stack(u @ algebra.to_matrices(X0[:k]) @ np.conj(np.swapaxes(u, -1, -2)))
    out = np.empty(rotated.shape[:-2] + X0.shape)
    out[..., :k, :] = rotated
    out[..., k, :] = X0[k]
    return out


# -- conservation helpers --------------------------------------------------------


def ad_invariance_defect(space: ProductSpace, hamiltonian: QuadraticHamiltonian, X: np.ndarray) -> float:
    """Norm of sum_i [x_i, grad_i h]; zero iff h is invariant under the diagonal action."""
    X = np.asarray(X, dtype=float)
    return space.base.norm(euler_field(space, hamiltonian, X).sum(axis=0))


def momentum_drift(space: ProductSpace, trajectory: Trajectory) -> float:
    """Max relative drift of the momentum coordinates over recorded states."""
    momenta = trajectory.states.sum(axis=1)
    start = momenta[0]
    drift = np.abs(momenta - start) / (1.0 + np.abs(start))
    return float(drift.max())


def momentum_norm_max(space: ProductSpace, trajectory: Trajectory) -> float:
    """Max pairing norm of the momentum over recorded states."""
    momenta = trajectory.states.sum(axis=1)
    sq = np.einsum("ta,ab,tb->t", momenta, space.base.gram, momenta)
    return float(np.sqrt(np.clip(sq, 0.0, None)).max())


def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write recorded states and monitors with round-trip float formatting.

    Columns: t, then b<i>_<a> for block i and coordinate a (both 1-based),
    then one monitor:<label> column per monitor.
    """
    n_blocks, dim = trajectory.states.shape[1], trajectory.states.shape[2]
    header = ["t"]
    header += [f"b{i + 1}_{a + 1}" for i in range(n_blocks) for a in range(dim)]
    header += [f"monitor:{label}" for label in trajectory.monitor_labels]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for idx in range(trajectory.times.size):
            row = [repr(float(trajectory.times[idx]))]
            row += [repr(float(z)) for z in trajectory.states[idx].ravel()]
            row += [repr(float(z)) for z in trajectory.monitor_series[idx]]
            writer.writerow(row)
