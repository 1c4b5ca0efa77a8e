"""Quadratic Hamiltonians and fixed-step integration of their Euler flows.

All flows here are of Euler type: dx_i/dt = [x_i, grad_i h] = ads(x_i) @ grad_i h
(``euler_field``).  Every built-in Hamiltonian is a quadratic form with constant
blockwise coefficients C, so its gradient is C acting on the blocks.  The
integrator is classical RK4 with a fixed step in Butcher-tableau form.  One eigh
splits C = d I + U S U^T (``_coupling``), and since [y_i, d y_i] = 0 the field
brackets each block with the r rows S U^T Y only.  Up to n r = ``COUPLED_MAX_ROWS``
the tableau carries those rows, and each stage is at most three two-dimensional
BLAS calls.  Larger flows, where the n r terms cost more than the calls they
save, evaluate the Euler field by three BLAS calls per stage, with one GEMV per
stage input; both steppers read the ad rows into buffers allocated once per flow.
The step loop, ``_records``, never evaluates a conserved quantity: it yields
the recorded states ``MONITOR_CHUNK`` at a time.  One chunk consumer,
``_consume``, stores each chunk and evaluates the energy and the monitor
family on it, for the relative drifts, and writes its CSV rows when a CSV is
asked for.  Without a CSV both run in this process, chunk by chunk.  With
one, a forked child runs the step loop while this process consumes the chunks
as they arrive, with the same chunk boundaries, so every output bit is the
same.  Every forked child here comes from one primitive, ``background``: it
runs a generator in a forked child and streams back what it yields, one
pickled record per item on one pipe, or the exception it raised; a child that
fails otherwise gives a RuntimeError naming its pid, exit code and error
text.  ``certify.run_claims`` reads one answer from such a child: the
reports of the last claim it runs.  A child is forked only where it can
overlap this process: where ``os.fork`` exists and at least two CPUs are
ours (``_overlaps``).  On one CPU the two processes would take turns and the
fork would be pure cost, so the generator runs in this process instead,
lazily, with the same bytes.  Python 3.12 and later emit a DeprecationWarning when a
process with more than one thread forks, and BLAS threads count.
"""

from __future__ import annotations

import csv
import os
import pickle
import signal
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .families import PolynomialFamily, spectral_weights
from .product import ProductSpace

__all__ = [
    "QuadraticHamiltonian",
    "normal_hamiltonian",
    "novi_hamiltonian",
    "gaudin_hamiltonian",
    "einstein_hamiltonian",
    "einstein_parameters",
    "euler_field",
    "gaudin_field",
    "FlowSpec",
    "Trajectory",
    "integrate",
    "enr_closed_form",
    "momentum_drift",
    "momentum_norm_max",
    "trajectory_to_csv",
    "atomic_open",
    "background",
]

# Recorded states per monitor evaluation: one batched call per chunk, and a
# working set that stays small however many states a flow records.
MONITOR_CHUNK = 64

# Largest n r that ``integrate`` steps with ``_coupled_steps``, for r the
# rank of the coupling term: past about this many bracket rows its weight
# GEMMs cost more than the Euler kernel's batched products (README).
COUPLED_MAX_ROWS = 90

# Eigenvalues closer than this many n eps max|lambda| are one in
# ``_coupling``; eigh splits a multiple eigenvalue of a built-in
# Hamiltonian by under one such unit.
COUPLING_TOL = 4


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """h(X) = (1/2) sum_ij coeff[i, j] <x_i, x_j> with symmetric coefficients.

    A coefficient matrix within 1e-12 of symmetric is stored as its
    symmetric part (C + C^T) / 2.
    """

    kind: str
    space: ProductSpace
    coeff: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        coeff = np.array(self.coeff, dtype=float)  # a copy: freezing must not reach the caller's array
        n = self.space.n
        if coeff.shape != (n, n):
            raise ConfigurationError(f"coefficient matrix must be ({n}, {n})")
        if not np.isfinite(coeff).all():
            raise ConfigurationError("coefficient matrix must be finite")
        if np.abs(coeff - coeff.T).max() > 1e-12:
            raise ConfigurationError("coefficient matrix must be symmetric")
        # value() reads the symmetric part, so gradient() must use it too;
        # halved before the sum, which could overflow, so no bit changes
        # in a symmetric matrix
        coeff = 0.5 * coeff + 0.5 * coeff.T
        object.__setattr__(self, "coeff", coeff)
        coeff.setflags(write=False)

    def value(self, X: np.ndarray) -> float | np.ndarray:
        """h at a point, or an array of h at each point of a (..., n, dim) stack."""
        X = np.asarray(X, dtype=float)
        pairings = X @ self.space.base.gram @ np.swapaxes(X, -1, -2)
        energy = 0.5 * np.einsum("ij,...ij->...", self.coeff, pairings)
        return float(energy) if X.ndim == 2 else energy

    def gradient(self, X: np.ndarray) -> np.ndarray:
        return self.coeff @ np.asarray(X, dtype=float)


def normal_hamiltonian(space: ProductSpace) -> QuadraticHamiltonian:
    """h = (1/2) <X, X>; its Euler field vanishes identically."""
    return QuadraticHamiltonian("normal", space, np.eye(space.n))


def novi_hamiltonian(
    space: ProductSpace,
    s: Sequence[float],
    t: Sequence[float],
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
    basis = space.module_directions().T
    restricted = basis.T @ coeff @ basis
    if np.linalg.eigvalsh(restricted).min() <= 0.0:
        raise ConfigurationError("chain parameters are not positive definite on the reduced space")
    return QuadraticHamiltonian("novi", space, coeff, {"s": tuple(s), "t": tuple(t)})


def gaudin_hamiltonian(space: ProductSpace, weights: Sequence[float] | None = None) -> QuadraticHamiltonian:
    """h = (1/2) <sum_i x_i / a_i, sum_j x_j / a_j> for the ``spectral_weights`` a."""
    a = spectral_weights(space.n, weights)
    inv = 1.0 / np.array(a)
    return QuadraticHamiltonian("gaudin", space, np.outer(inv, inv), {"a": a})


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


# -- vector fields ------------------------------------------------------------


def euler_field(space: ProductSpace, hamiltonian: QuadraticHamiltonian, X: np.ndarray) -> np.ndarray:
    """dx_i/dt = [x_i, grad_i h] blockwise: ads(x_i) @ grad_i h."""
    return (space.base.ads(X) @ hamiltonian.gradient(X)[:, :, None])[:, :, 0]


def gaudin_field(space: ProductSpace, weights: Sequence[float], X: np.ndarray) -> np.ndarray:
    """Literal spectral field dx_i/dt = sum_j [x_i, x_j] / (a_i a_j), for the ``spectral_weights`` a."""
    a = np.array(spectral_weights(space.n, weights))
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
        if isinstance(self.dt, bool) or isinstance(self.t_end, bool):
            raise ConfigurationError(f"dt and t_end must be numbers, got dt={self.dt!r}, t_end={self.t_end!r}")
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ConfigurationError("dt and t_end must be positive and finite")
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(self.t_end / self.dt - steps) > 1e-9 * steps:
            raise ConfigurationError(f"t_end={self.t_end:g} is not a whole number of dt={self.dt:g} steps")
        if not isinstance(self.stride, int) or isinstance(self.stride, bool) or self.stride < 1:
            raise ConfigurationError(f"stride must be an integer of at least 1, got {self.stride!r}")
        if self.monitors is not None and not isinstance(self.monitors, PolynomialFamily):
            raise ConfigurationError("monitors must be a PolynomialFamily")
        if self.monitors is not None and self.monitors.domain == "k":
            # a stack of single-factor points would be read as product points
            raise ConfigurationError("monitors must be a family on the product, not of domain 'k' (one factor)")
        initial = np.array(self.initial, dtype=float)  # a copy: freezing must not reach the caller's array
        shape = (self.space.n, self.space.base.dim)
        if initial.shape != shape or not np.isfinite(initial).all():
            raise ConfigurationError(f"initial state must be a finite {shape} array, got shape {initial.shape}")
        initial.setflags(write=False)
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


def _kernel_steps(space: ProductSpace, hamiltonian: QuadraticHamiltonian, X0: np.ndarray, dt: float):
    """RK4 steps of ``euler_field``, by three BLAS calls into buffers allocated once: yield each step's state.

    The stages k1..k4 and the state X are the rows of one zeroed (5, n dim)
    tableau.  Each stage input X + sum_j a_ij k_j and the update X + dt (k1
    + 2 k2 + 2 k3 + k4) / 6 is one GEMV of a fixed weight row against it;
    the update goes into the X row of a second tableau, which takes the
    next step.  X is the last row, so the GEMV adds it last, as the
    textbook sum does.
    """
    n, dim = space.n, space.base.dim
    rows, coeff = space.base._ad_rows, hamiltonian.coeff
    ads, grad = np.empty((n, dim * dim)), np.empty((n, dim))
    ads3, grad3 = ads.reshape(n, dim, dim), grad.reshape(n, dim, 1)

    def field(Y: np.ndarray, out: np.ndarray) -> None:
        Y.dot(rows, out=ads)
        coeff.dot(Y, out=grad)
        np.matmul(ads3, grad3, out=out)

    # rows [k1, k2, k3, k4, X], zeroed so the zero weights never meet
    # uninitialised memory (0 * nan is nan)
    tableaux = np.zeros((2, 5, n * dim))
    tableaux[0, 4] = X0.ravel()
    cur, nxt = ((T, T[4], T[4].reshape(n, dim), *T[:4].reshape(4, n, dim, 1)) for T in tableaux)
    y = np.empty(n * dim)
    Y = y.reshape(n, dim)
    a2, a3, a4, b = np.array([
        [0.5 * dt, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.5 * dt, 0.0, 0.0, 1.0],
        [0.0, 0.0, dt, 0.0, 1.0],
        [dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0, 1.0],
    ])
    while True:
        T, _, X, k1, k2, k3, k4 = cur
        field(X, k1)
        a2.dot(T, out=y)
        field(Y, k2)
        a3.dot(T, out=y)
        field(Y, k3)
        a4.dot(T, out=y)
        field(Y, k4)
        b.dot(T, out=nxt[1])
        cur, nxt = nxt, cur
        yield cur[2]


def _coupling(coeff: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Split a symmetric coefficient matrix as C = d I + U diag(s) U^T, by one eigh.

    d is the eigenvalue of largest multiplicity, the first such in ascending
    order on a tie; eigenvalues closer than eigh's own round-off,
    ``COUPLING_TOL`` n eps max|lambda|, count as one.  U (n, r) holds the
    eigenvectors of the other r eigenvalues lambda, and s = lambda - d: r is
    0 for the normal flow, 1 for Gaudin and for Einstein at the distinguished
    parameters, 2 for Einstein at general (p, q, s) and n - 1 for the chained
    sum.  Since [y_i, d y_i] = 0, only U and s enter the Euler field.
    """
    lam, vecs = np.linalg.eigh(coeff)
    tol = COUPLING_TOL * lam.size * np.finfo(float).eps * np.abs(lam).max()
    edges = np.r_[0, np.flatnonzero(np.diff(lam) > tol) + 1, lam.size]
    group = np.argmax(np.diff(edges))
    lo, hi = edges[group], edges[group + 1]
    d = float(lam[lo:hi].mean())
    others = np.r_[0:lo, hi:lam.size]
    return d, vecs[:, others], lam[others] - d


def _coupled_steps(space: ProductSpace, U: np.ndarray, s: np.ndarray, X0: np.ndarray, dt: float):
    """RK4 steps of the Euler flow of C = d I + U diag(s) U^T: yield the state after each step.

    With M = diag(s) U^T Y, the r rows that couple the blocks, the field is
    k_i = [y_i, (C Y)_i] = -sum_k U_ik [M_k, y_i].  Stage j keeps the n r
    brackets Z_j[(i, k)] = [M_k, y_i], and the tableau holds the rows
    [Z4, Z3, Z2, Z1, X, M(X)], (4 n r + n + r, dim).  One weight GEMM gives
    a stage's input Y and its M, with the selection -U_ik and S U^T folded
    into the weights; it reads only the rows from the last stage's Z to X,
    which lie together in this order.  Stage 1 reads X and M(X) as they
    stand.  The ad matrices of M are one GEMM, and ``Y @ ads.reshape(r dim,
    dim).T`` writes Z_j straight into its rows.  The update GEMM writes
    [X'; M(X')] into the second tableau, which takes the next step: 12 BLAS
    calls per step.  The weight GEMMs and the brackets carry n r terms, so
    ``integrate`` takes this route only up to n r = ``COUPLED_MAX_ROWS``.
    """
    n, dim, r = space.n, space.base.dim, s.size
    rows = space.base._ad_rows
    select = -(np.eye(n)[:, :, None] * U).reshape(n, n * r)  # k = select @ Z_j
    couple = s[:, None] * U.T  # M = couple @ Y

    def weights(*a):
        # [Y; M] = [X + sum_j a_j k_j; S U^T (X + sum_j a_j k_j)] over the
        # rows [Z_j, .., Z1, X], with S U^T X taken from the X rows: read
        # from the stored M rows instead, its round-off would build up over
        # the steps
        a = np.array([a[::-1]])
        return np.block([[np.kron(a, select), np.eye(n)], [np.kron(a, couple @ select), couple]])

    w2, w3, w4 = weights(0.5 * dt), weights(0, 0.5 * dt), weights(0, 0, dt)
    b = weights(dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    nr, z = n * r, 4 * n * r
    # every row a GEMM reads is written earlier in the step, so the zero
    # weights never meet uninitialised memory (0 * nan is nan)
    tableaux = np.empty((2, z + n + r, dim))
    tableaux[0, z:z + n] = X0
    tableaux[0, z + n:] = couple @ X0
    cur, nxt = ((
        T[z:z + n], T[z + n:], T[z:],
        T[3 * nr:z + n], T[2 * nr:z + n], T[nr:z + n], T[:z + n],
        *T[:z].reshape(4, n, r * dim)[::-1],
    ) for T in tableaux)
    ym = np.empty((n + r, dim))
    Y, M = ym[:n], ym[n:]
    ads = np.empty((r, dim * dim))
    adst = ads.reshape(r * dim, dim).T
    while True:
        X, MX, _, T2, T3, T4, Tb, z1, z2, z3, z4 = cur
        MX.dot(rows, out=ads)
        X.dot(adst, out=z1)
        w2.dot(T2, out=ym)
        M.dot(rows, out=ads)
        Y.dot(adst, out=z2)
        w3.dot(T3, out=ym)
        M.dot(rows, out=ads)
        Y.dot(adst, out=z3)
        w4.dot(T4, out=ym)
        M.dot(rows, out=ads)
        Y.dot(adst, out=z4)
        b.dot(Tb, out=nxt[2])
        cur, nxt = nxt, cur
        yield cur[0]


def integrate(flow: FlowSpec, csv_path=None) -> Trajectory:
    """Classical RK4 with fixed step, in Butcher-tableau form.

    The energy is always the first monitor, labeled "energy", followed by
    ``flow.monitors``, if any.  The step loop, ``_records``, only advances
    the state and hands on the recorded states, ``MONITOR_CHUNK`` at a time;
    a non-finite record aborts the run, keeping the last valid one.  The
    chunk consumer, ``_consume``, stores each chunk and evaluates the
    monitors on it.  Without a ``csv_path`` both run here, chunk by chunk.
    With one, a forked child runs the step loop (``background``) while this
    process consumes the chunks as they arrive and writes the CSV as
    ``trajectory_to_csv`` would; where no child can overlap this process
    (``_overlaps``) both run here.  A flow whose record table cannot be
    allocated is refused before any process is forked or any step taken.
    """
    steps = int(round(flow.t_end / flow.dt))
    labels = ("energy",) + (flow.monitors.labels if flow.monitors is not None else ())
    times, states = _record_table(steps, flow.stride, flow.dt, (flow.space.n, flow.space.base.dim), len(labels))
    if csv_path is None:
        stream = nullcontext(_records(flow, steps))
    else:
        stream = background("flow stepper", _records, flow, steps)
    with stream as chunks:
        recorded, series = _consume(chunks, flow, labels, times, states, csv_path)
    return Trajectory(
        times=times[:recorded],
        states=states[:recorded],
        monitor_labels=labels,
        monitor_series=series,
        aborted=recorded < len(states),
    )


def _records(flow: FlowSpec, steps: int):
    """The step loop: yield the recorded states, ``MONITOR_CHUNK`` at a time, in one reused buffer.

    The first chunk starts with the initial state; the last may be shorter.
    It stops before the first non-finite record.  The stepper follows from
    one eigh of the coefficient matrix, C = d I + U S U^T with U of r
    columns (``_coupling``).  Up to n r = ``COUPLED_MAX_ROWS`` a step is
    ``_coupled_steps``: 12 two-dimensional BLAS calls, with the r coupling
    rows S U^T X carried in the tableau.  Larger flows step through
    ``_kernel_steps``, three BLAS calls per field evaluation.  The two
    differ by round-off only.
    """
    stride = flow.stride
    _, U, s = _coupling(flow.hamiltonian.coeff)
    if flow.space.n * s.size <= COUPLED_MAX_ROWS:
        stepper = _coupled_steps(flow.space, U, s, flow.initial, flow.dt)
    else:
        stepper = _kernel_steps(flow.space, flow.hamiltonian, flow.initial, flow.dt)
    chunk = np.empty((MONITOR_CHUNK, *flow.initial.shape))
    chunk[0] = flow.initial
    count = 1
    for step, X in zip(range(1, steps + 1), stepper):
        if step % stride == 0 or step == steps:
            if not np.isfinite(X).all():
                break
            chunk[count] = X
            count += 1
            if count == MONITOR_CHUNK:
                yield chunk
                count = 0
    if count:
        yield chunk[:count]


def _record_table(steps: int, stride: int, dt: float, shape: tuple[int, int], monitors: int):
    """The record times of a flow of ``steps`` steps and an empty table of its recorded states.

    A flow whose times, states and series of ``monitors`` monitors need more
    than this machine's memory, or more than can be allocated, is refused
    with a ConfigurationError that names the record count and the bytes needed.
    """
    records = -(-steps // stride) + 1
    need = records * (1 + shape[0] * shape[1] + monitors) * 8
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or it cannot tell
        memory = float("inf")
    try:
        if need > memory:
            raise MemoryError
        states = np.empty((records, *shape))  # untouched, so only the times are written
        return np.r_[0:steps:stride, steps] * dt, states
    except MemoryError:
        raise ConfigurationError(
            f"the flow records {records} states ({steps} steps at stride {stride}), whose times, states and "
            f"monitor series need {need} bytes ({need / 2**30:.1f} GiB), more than can be allocated; "
            "raise stride or lower t_end"
        ) from None


def _consume(chunks, flow: FlowSpec, labels: tuple[str, ...], times: np.ndarray, states: np.ndarray,
             csv_path=None) -> tuple[int, np.ndarray]:
    """The chunk consumer: store each chunk of recorded states in ``states``, in order, and evaluate the monitors on it.

    The energy and the monitor family are evaluated once per chunk.  With a
    ``csv_path``, the header and then each chunk's rows go to a file written
    atomically, which replaces ``csv_path`` once every chunk is consumed.
    Returns the number of states consumed and their monitor series.
    """
    series = np.empty((len(times), len(labels)))
    done = 0
    with atomic_open(csv_path) if csv_path is not None else nullcontext() as handle:
        if handle is not None:
            _write_header(handle, flow.space.n, flow.space.base.dim, labels)
        for chunk in chunks:
            rows = slice(done, done + len(chunk))
            states[rows] = chunk
            series[rows, 0] = flow.hamiltonian.value(states[rows])
            if flow.monitors is not None:
                series[rows, 1:] = flow.monitors.values(states[rows])
            if handle is not None:
                handle.writelines(_csv_rows(times[rows], states[rows], series[rows]))
            done += len(chunk)
    return done, series[:done]


# -- forked children -------------------------------------------------------------


def _overlaps() -> bool:
    """Whether a forked child can run beside this process: ``os.fork`` exists and two or more CPUs are ours.

    On one CPU the two processes take turns, and the fork, the pipe and the
    copy-on-write faults are pure cost.
    """
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


@contextmanager
def background(name: str, produce, *args):
    """An iterator over what ``produce(*args)`` yields, from a forked child where one can overlap this process.

    ``produce`` is a generator function.  Where no child can overlap this
    process (``_overlaps``), the iterator is the generator itself: the work
    runs here, lazily, as the items are read.  Otherwise a forked child runs
    the generator and sends each item down one pipe as one record, the
    pickled (True, item), pickled whole before any of it is written.  An
    exception is sent as (False, exc) and raised here, with its type and
    text, where the next item would be read; one that does not pickle is
    sent as its text.  The child leaves only through ``os._exit``, so no
    cleanup or buffered output of this process runs twice.  The text, or a
    stream cut short, raises a RuntimeError naming the child's pid, exit
    code and text.  A stream read to its end reaps the child; leaving the
    block kills and reaps a child whose stream was not, so no child
    outlives it.  This is the only fork, pipe and reap code in the package.
    """
    if not _overlaps():
        yield produce(*args)
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child
        code = 1
        try:
            os.close(read_end)
            records = os.fdopen(write_end, "wb")
            try:
                for item in produce(*args):
                    records.write(pickle.dumps((True, item), pickle.HIGHEST_PROTOCOL))
                    records.flush()
                code = 0
            except Exception as exc:
                try:
                    records.write(pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL))
                except Exception:  # the exception does not pickle
                    records.write(pickle.dumps((False, f"{type(exc).__name__}: {exc}")))
                records.flush()
        finally:
            os._exit(code)
    os.close(write_end)
    pipe, exit_code = os.fdopen(read_end, "rb"), None

    def reap(kill: bool = False) -> int:
        nonlocal exit_code
        if exit_code is None:
            if kill:
                os.kill(pid, signal.SIGKILL)
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return exit_code

    def received():
        while True:
            try:
                ok, item = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child closed its end, at a record's end or within one
                ok, item = False, "its stream was cut short"
                if reap() == 0:
                    return
            if not ok:
                code = reap()
                if isinstance(item, BaseException):
                    raise item
                raise RuntimeError(f"the {name} process (pid {pid}) exited with code {code}: {item}")
            yield item

    try:
        yield received()
    finally:
        pipe.close()
        reap(kill=True)


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
    state per time; every rotation comes from one eigendecomposition of
    rho(xi), through ``LieAlgebra._unitary``.
    """
    X0 = np.asarray(X0, dtype=float)
    if not space.in_v(X0):
        raise ValueError("closed-form reduced flow needs an initial state with zero block sum")
    algebra, k = space.base, space.n - 1
    xi = (v_coef - u_coef) * X0[:k].sum(axis=0)
    u = algebra._unitary(xi, t)[..., None, :, :]
    rotated = algebra._expand_stack(u @ algebra.to_matrices(X0[:k]) @ np.conj(np.swapaxes(u, -1, -2)))
    out = np.empty(rotated.shape[:-2] + X0.shape)
    out[..., :k, :] = rotated
    out[..., k, :] = X0[k]
    return out


# -- conservation helpers --------------------------------------------------------


def momentum_drift(trajectory: Trajectory) -> float:
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


@contextmanager
def atomic_open(path):
    """A text handle on a temporary file beside ``path``, which replaces ``path`` only if the block completes."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")
    handle = open(tmp, "x", newline="")  # a new file with the mode open() gives; lines as written
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the block or the replace raised
            os.unlink(tmp)


def _write_header(handle, n_blocks: int, dim: int, labels: Sequence[str]) -> None:
    header = ["t"]
    header += [f"b{i + 1}_{a + 1}" for i in range(n_blocks) for a in range(dim)]
    header += [f"monitor:{label}" for label in labels]
    csv.writer(handle).writerow(header)  # monitor labels may need quoting


def _csv_rows(times: np.ndarray, states: np.ndarray, series: np.ndarray):
    """The CSV row formatter: one line per time, with round-trip float formatting."""
    table = np.column_stack([times, states.reshape(len(times), -1), series])
    # row by row: one tolist() of a whole table would hold every value as
    # a Python float at once (2.6 MB for the su3^4 flow of 1001 rows)
    return (",".join(map(repr, row.tolist())) + "\r\n" for row in table)


def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write recorded states and monitors with round-trip float formatting.

    Columns: t, then b<i>_<a> for block i and coordinate a (both 1-based),
    then one monitor:<label> column per monitor.  Written atomically.
    ``integrate`` with a ``csv_path`` writes the same bytes.
    """
    with atomic_open(path) as handle:
        _write_header(handle, *trajectory.states.shape[1:], trajectory.monitor_labels)
        handle.writelines(_csv_rows(trajectory.times, trajectory.states, trajectory.monitor_series))
