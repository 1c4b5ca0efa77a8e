"""Quadratic Hamiltonians and their Euler flows.

Vector fields are checked against literal sum-over-terms oracles written
directly from the defining chains, never through the coefficient-matrix
route that the implementation uses.
"""

import csv

import numpy as np
import pytest

from flagshift import ProductSpace, build_algebra, dynamics
from flagshift.certify import ClaimContext, generic_point
from flagshift.dynamics import (
    COUPLED_MAX_ROWS,
    MONITOR_CHUNK,
    FlowSpec,
    QuadraticHamiltonian,
    Trajectory,
    einstein_hamiltonian,
    einstein_parameters,
    enr_closed_form,
    euler_field,
    gaudin_field,
    gaudin_hamiltonian,
    integrate,
    momentum_drift,
    momentum_norm_max,
    normal_hamiltonian,
    novi_hamiltonian,
    trajectory_to_csv,
)
from flagshift.errors import ConfigurationError
from flagshift.families import flag_shift_family, gaudin_family, mf_shift_family, spectral_weights


def _bracket(k, x, y):
    """[x, y] read off the structure tensor, c[a, b] = [e_a, e_b]."""
    return np.einsum("a,b,abc->c", x, y, k.structure)


def _novi_field_oracle(space, s, t, X):
    # literal chain: h = (1/2) sum_i <y_i, y_i>, y_i = s_i (x_1+..+x_i) + t_i x_{i+1}
    k = space.base
    out = np.zeros_like(X)
    for i0 in range(space.n - 1):
        w = np.zeros(space.n)
        w[: i0 + 1] = s[i0]
        w[i0 + 1] = t[i0]
        y = (w[:, None] * X).sum(axis=0)
        for b in range(space.n):
            if w[b] != 0.0:
                out[b] += w[b] * _bracket(k, X[b], y)
    return out


def _einstein_field_oracle(space, u, v, X):
    # reduced pair of coupled rotations: the first n-1 blocks follow the
    # partial sum, the last block follows the rest
    k, n = space.base, space.n
    sigma = X[: n - 1].sum(axis=0)
    out = np.zeros_like(X)
    for b in range(n - 1):
        out[b] = _bracket(k, X[b], u * sigma + v * X[n - 1])
    out[n - 1] = _bracket(k, X[n - 1], v * sigma)
    return out


def test_quadratic_hamiltonian_value_and_gradient(su2n3):
    rng = np.random.default_rng(0)
    X = su2n3.random_point(rng)
    ham = gaudin_hamiltonian(su2n3, (1.0, 2.0, 3.0))
    inv = np.array([1.0, 0.5, 1.0 / 3.0])
    y = (inv[:, None] * X).sum(axis=0)
    assert ham.value(X) == pytest.approx(0.5 * su2n3.base.pair(y, y), abs=1e-12)

    h = 1e-6
    for i in range(3):
        for b in range(3):
            u = np.zeros_like(X)
            u[i, b] = h
            fd = (ham.value(X + u) - ham.value(X - u)) / (2 * h)
            euclid = (ham.gradient(X) @ su2n3.base.gram)[i, b]
            assert fd == pytest.approx(euclid, abs=1e-7)


def test_quadratic_hamiltonian_value_on_a_stack(su2n3, su3n3):
    # one call on a (S, n, dim) or (2, S, n, dim) stack is bit for bit one call per point
    for space in (su2n3, su3n3):
        rng = np.random.default_rng(1)
        stack = np.stack([space.random_point(rng) for _ in range(6)])
        for ham in (
            normal_hamiltonian(space),
            novi_hamiltonian(space, (1.0, 1.3), (0.5, 0.7)),
            gaudin_hamiltonian(space, (1.0, 2.0, 3.0)),
            einstein_hamiltonian(space, *einstein_parameters(3)),
        ):
            per_point = np.array([ham.value(X) for X in stack])
            assert isinstance(ham.value(stack[0]), float)
            assert np.array_equal(ham.value(stack), per_point), ham.kind
            assert np.array_equal(ham.value(stack.reshape(2, 3, *stack.shape[1:])), per_point.reshape(2, 3))


def test_quadratic_hamiltonian_requires_symmetry(su2n3, su3n3):
    coeff = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ConfigurationError):
        QuadraticHamiltonian("probe", su2n3, coeff, {})
    # NaN fails every comparison, so the symmetry gate alone would pass it
    for value in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            QuadraticHamiltonian("probe", su2n3, np.full((3, 3), value))
    # an asymmetry within the gate is stored as the symmetric part, the one
    # value() reads, so gradient() is the gradient of value(); a symmetric
    # matrix is kept bit for bit
    symmetric = einstein_hamiltonian(su3n3, *einstein_parameters(3)).coeff
    assert np.array_equal(QuadraticHamiltonian("probe", su3n3, symmetric).coeff, symmetric)
    near = symmetric.copy()
    near[0, 1] += 5e-13
    ham = QuadraticHamiltonian("probe", su3n3, near)
    assert np.array_equal(ham.coeff, ham.coeff.T)
    assert np.array_equal(ham.coeff, (near + near.T) / 2)
    X = su3n3.random_point(np.random.default_rng(0))
    literal = 0.5 * sum(
        ham.coeff[i, j] * su3n3.base.pair(X[i], X[j]) for i in range(3) for j in range(3)
    )
    assert abs(ham.value(X) - literal) <= 1e-14 * abs(literal)
    assert np.array_equal(ham.gradient(X), ham.coeff @ X)


def test_coupling_rebuilds_the_coefficient_matrix(su2n3, su3n3, su2n4):
    # C = d I + U diag(s) U^T to a few ulps, with r = len(s) the number of
    # directions the Euler field couples: 0 for the normal flow, 1 for
    # Gaudin and for Einstein at the distinguished parameters, 2 for
    # Einstein at general (p, q, s), n - 1 for the chained sum
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    spaces = (su2n3, su3n3, su2n4, ProductSpace(build_algebra("su", 2), 8), ProductSpace(build_algebra("su", 3), 7))
    for space in spaces:
        n = space.n
        random = rng.standard_normal((n, n))
        cases = (
            (normal_hamiltonian(space).coeff, 0),
            (gaudin_hamiltonian(space, np.arange(1.0, n + 1.0)).coeff, 1),
            (gaudin_hamiltonian(space, np.full(n, 2.5)).coeff, 1),
            (einstein_hamiltonian(space, *einstein_parameters(n)).coeff, 1),
            (einstein_hamiltonian(space, 2.0, 1.0, 1.5).coeff, 2),
            (novi_hamiltonian(space, np.linspace(1.0, 1.5, n - 1), np.linspace(0.5, 0.9, n - 1)).coeff, n - 1),
            (random + random.T, n - 1),
        )
        for coeff, rank in cases:
            d, U, s = dynamics._coupling(coeff)
            assert U.shape == (n, rank) and s.shape == (rank,)
            rebuilt = d * np.eye(n) + (U * s) @ U.T
            assert np.abs(rebuilt - coeff).max() <= 4 * n * eps * np.abs(coeff).max(), (n, rank)


def test_quadratic_hamiltonian_leaves_the_callers_array_writeable(su2n3):
    coeff = np.eye(3)
    ham = QuadraticHamiltonian("probe", su2n3, coeff)
    assert coeff.flags.writeable
    assert not ham.coeff.flags.writeable
    coeff[0, 0] = 5.0
    assert ham.coeff[0, 0] == 1.0


def test_normal_flow_is_stationary(su2n3):
    rng = np.random.default_rng(1)
    X = su2n3.random_point(rng)
    assert np.abs(euler_field(su2n3, normal_hamiltonian(su2n3), X)).max() < 1e-14
    flow = FlowSpec(su2n3, normal_hamiltonian(su2n3), X, t_end=0.5)
    traj = integrate(flow)
    assert np.allclose(traj.states, X, atol=1e-14)
    assert traj.drift()["energy"] == 0.0


def test_novi_field_matches_literal_chain(su2n3, su3n3):
    for space in (su2n3, su3n3):
        rng = np.random.default_rng(2)
        X = space.random_point(rng)
        s, t = (1.0, 0.7), (0.5, 1.3)
        ham = novi_hamiltonian(space, s, t)
        assert np.abs(
            euler_field(space, ham, X) - _novi_field_oracle(space, s, t, X)
        ).max() < 1e-12


def test_novi_positivity_gate(su2n3):
    with pytest.raises(ConfigurationError):
        novi_hamiltonian(su2n3, (1.0, 0.0), (0.0, 0.0))
    with pytest.raises(ConfigurationError):
        novi_hamiltonian(su2n3, (1.0,), (0.5, 0.5))


def test_gaudin_field_identity(su2n3):
    rng = np.random.default_rng(3)
    weights = (1.0, 2.0, 3.0)
    ham = gaudin_hamiltonian(su2n3, weights)
    for _ in range(5):
        X = su2n3.random_point(rng)
        assert np.abs(gaudin_field(su2n3, weights, X) - euler_field(su2n3, ham, X)).max() < 1e-13


def test_gaudin_hamiltonian_validation(su2n3):
    with pytest.raises(ConfigurationError):
        gaudin_hamiltonian(su2n3, (1.0, 0.0, 2.0))
    with pytest.raises(ConfigurationError):
        gaudin_hamiltonian(su2n3, (1.0, 2.0))


@pytest.mark.parametrize(
    "weights",
    [(1.0, np.inf, 2.0), (1.0, np.nan, 2.0), (1.0, 0.0, 2.0), (1.0, 1e-320, 2.0), (1.0, 2.0)],
    ids=["inf", "nan", "zero", "subnormal", "wrong-length"],
)
def test_spectral_weights_are_checked_once(su2n3, weights):
    # the family, the Hamiltonian, the literal field and the claim settings
    # refuse a weight whose residue 1/a_i is not finite with one message
    X = su2n3.random_point(np.random.default_rng(3))
    with pytest.raises(ConfigurationError) as expected:
        spectral_weights(3, weights)
    for build in (
        lambda: gaudin_family(su2n3, weights),
        lambda: gaudin_hamiltonian(su2n3, weights),
        lambda: gaudin_field(su2n3, weights, X),
        lambda: ClaimContext(su2n3, gaudin_weights=weights),
    ):
        with pytest.raises(ConfigurationError) as raised:
            build()
        assert str(raised.value) == str(expected.value)


def test_spectral_weights_default_and_edge(su2n3):
    assert spectral_weights(3) == (1.0, 2.0, 3.0)
    assert ClaimContext(su2n3).weights() == (1.0, 2.0, 3.0)
    assert gaudin_hamiltonian(su2n3).params["a"] == (1.0, 2.0, 3.0)
    # the smallest normal float still has a finite residue; signs are free
    tiny = np.finfo(float).tiny
    assert spectral_weights(3, [1, -2, tiny]) == (1.0, -2.0, tiny)
    assert ClaimContext(su2n3, gaudin_weights=(1, 2, 3)).weights() == (1.0, 2.0, 3.0)


def test_einstein_parameters():
    p3, q3 = einstein_parameters(3)
    assert p3 == pytest.approx(np.sqrt(3.0), abs=1e-15)
    assert q3 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)
    p4, q4 = einstein_parameters(4)
    assert p4 == pytest.approx(4.0 ** (1.0 / 3.0), abs=1e-15)
    assert q4 == pytest.approx(p4 ** (-2.0), abs=1e-15)
    with pytest.raises(ConfigurationError):
        einstein_parameters(2)


def test_einstein_hamiltonian_validation(su2n3):
    with pytest.raises(ConfigurationError):
        einstein_hamiltonian(su2n3, -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        einstein_hamiltonian(su2n3, 1.0, 0.0)


def test_einstein_two_route_agreement(su2n3, su2n4, einstein_by_projections):
    rng = np.random.default_rng(4)
    for space in (su2n3, su2n4):
        for p, q, s in [(1.0, 2.0, None), (0.5, 1.7, 2.2), (3.0, 0.4, None)]:
            X = space.random_point(rng)
            # s defaults to p
            via_proj = einstein_by_projections(space, p, q, p if s is None else s, X)
            via_form = einstein_hamiltonian(space, p, q, s).value(X)
            assert abs(via_proj - via_form) < 1e-12 * (1.0 + abs(via_proj))


def test_einstein_field_matches_reduced_chain(su2n3, su2n4):
    rng = np.random.default_rng(5)
    for space in (su2n3, su2n4):
        ham = einstein_hamiltonian(space, *einstein_parameters(space.n))
        u, v = ham.params["u_coef"], ham.params["v_coef"]
        X = space.random_point(rng)
        assert np.abs(
            euler_field(space, ham, X) - _einstein_field_oracle(space, u, v, X)
        ).max() < 1e-12


def test_momentum_is_conserved_by_quadratic_fields(su2n3):
    rng = np.random.default_rng(6)
    X = su2n3.random_point(rng)
    models = [
        normal_hamiltonian(su2n3),
        novi_hamiltonian(su2n3, (1.0, 1.0), (0.5, 0.5)),
        gaudin_hamiltonian(su2n3, (1.0, 2.0, 3.0)),
        einstein_hamiltonian(su2n3, *einstein_parameters(3)),
    ]
    for ham in models:
        # sum_i [x_i, grad_i h] vanishes iff h is invariant under the diagonal action
        assert su2n3.base.norm(euler_field(su2n3, ham, X).sum(axis=0)) < 1e-13


def test_integrate_records_and_conserves(su2n3):
    ham = novi_hamiltonian(su2n3, (1.0, 1.0), (0.5, 0.5))
    X0 = generic_point(su2n3, [42, 17], "v")
    flow = FlowSpec(su2n3, ham, X0, t_end=2.0, dt=1e-3, stride=10,
                    monitors=flag_shift_family(su2n3))
    traj = integrate(flow)
    assert not traj.aborted
    assert traj.monitor_labels[0] == "energy"
    assert traj.final_time == pytest.approx(2.0)
    assert len(traj.times) == 201
    drifts = traj.drift()
    assert drifts["energy"] < 1e-10
    assert max(drifts.values()) < 1e-10
    assert momentum_drift(traj) < 1e-11
    assert momentum_norm_max(su2n3, traj) < 1e-11


def test_integrate_aborts_on_overflow(su2n3):
    # one coupled flow (su2^3 Gaudin, n r = 3) and one through the Euler
    # kernel (su2^16 chained sum, n r = 240)
    big = ProductSpace(su2n3.base, 16)
    assert 16 * 15 > COUPLED_MAX_ROWS
    for space, ham in (
        (su2n3, gaudin_hamiltonian(su2n3, (1.0, 2.0, 3.0))),
        (big, novi_hamiltonian(big, np.linspace(1.0, 1.5, 15), np.linspace(0.5, 0.9, 15))),
    ):
        X0 = space.random_point(np.random.default_rng(7)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(FlowSpec(space, ham, X0, t_end=1.0))
        assert traj.aborted
        assert np.isfinite(traj.states).all()
        assert traj.final_time < 1.0
        assert len(traj.times) == len(traj.states) == len(traj.monitor_series)


def _per_state_series(flow, trajectory):
    return np.array([[flow.hamiltonian.value(X), *flow.monitors.values(X)] for X in trajectory.states])


def test_monitor_series_is_the_per_state_evaluation(su2n3, su3n3):
    # the monitors run after the step loop, in chunks: the series must be
    # the energy and the family at each recorded state, in that order
    X0 = generic_point(su3n3, [42, 17], "v")
    ham = einstein_hamiltonian(su3n3, *einstein_parameters(3))
    long_run = FlowSpec(su3n3, ham, X0, t_end=10.0, dt=1e-3, stride=10, monitors=flag_shift_family(su3n3))
    odd_stride = FlowSpec(su3n3, ham, X0, t_end=0.1, dt=1e-3, stride=7, monitors=flag_shift_family(su3n3))
    weights = (1.0, 2.0, 3.0)
    blow_up = FlowSpec(
        su2n3, gaudin_hamiltonian(su2n3, weights), su2n3.random_point(np.random.default_rng(7)) * 5e3,
        t_end=1.0, stride=1, monitors=gaudin_family(su2n3, weights),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        runs = [(flow, integrate(flow)) for flow in (long_run, odd_stride, blow_up)]
        expected = [_per_state_series(flow, traj) for flow, traj in runs]
    (_, long_traj), (_, odd_traj), (_, blow_traj) = runs
    # 1001 records: full chunks and a last, partial one
    assert len(long_traj.times) == 1001 and 1001 % MONITOR_CHUNK
    # 100 steps at stride 7: records at 0, 7, .., 98 and the final step 100
    assert np.array_equal(odd_traj.times, np.r_[0:100:7, 100] * 1e-3)
    # a few finite records before the overflow, the last ones past the
    # range of the monitors
    assert blow_traj.aborted and 1 < len(blow_traj.times)
    assert not np.isfinite(blow_traj.monitor_series).all()
    for (flow, traj), series in zip(runs, expected):
        assert traj.monitor_labels == ("energy",) + flow.monitors.labels
        assert traj.monitor_series.shape == series.shape == (len(traj.times), 1 + len(flow.monitors))
        assert np.array_equal(traj.monitor_series, series, equal_nan=True)


def test_integrate_never_monitors_one_state_at_a_time(su3n3, monkeypatch):
    # a guard against a return to one monitor call per recorded sample
    family = flag_shift_family(su3n3)
    kernel, calls = family.members[0].kernel, []

    def spy(name, fn):
        def wrapped(*args):
            calls.append((name, np.shape(args[-1])))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(kernel, "values", spy("family", kernel.values))
    monkeypatch.setattr(QuadraticHamiltonian, "value", spy("energy", QuadraticHamiltonian.value))
    X0 = generic_point(su3n3, [42, 17], "v")
    ham = einstein_hamiltonian(su3n3, *einstein_parameters(3))
    traj = integrate(FlowSpec(su3n3, ham, X0, t_end=2.0, dt=1e-3, stride=10, monitors=family))
    chunks = -(-len(traj.times) // MONITOR_CHUNK)
    assert chunks > 1
    assert [name for name, _ in calls].count("family") == chunks
    assert [name for name, _ in calls].count("energy") == chunks
    assert all(len(shape) == 3 for _, shape in calls), calls


def test_flow_spec_validation(su2n3):
    ham = normal_hamiltonian(su2n3)
    X = np.zeros((3, 3))
    with pytest.raises(ConfigurationError):
        FlowSpec(su2n3, ham, X, t_end=0.0)
    with pytest.raises(ConfigurationError):
        FlowSpec(su2n3, ham, X, t_end=1.0, dt=-1e-3)
    # a bool is not a time: True would run one step of 1, or up to t = 1
    for t_end, dt in ((1.0, True), (True, 1e-3), (True, True)):
        with pytest.raises(ConfigurationError, match="numbers"):
            FlowSpec(su2n3, ham, X, t_end=t_end, dt=dt)
    # stride is an int of at least one: a float or a bool is refused, not
    # silently stepped as some other stride
    for stride in (0, -1, 2.5, 1.0, True, "10", None):
        with pytest.raises(ConfigurationError, match="stride"):
            FlowSpec(su2n3, ham, X, t_end=1.0, stride=stride)
    for stride in (1, 7):
        FlowSpec(su2n3, ham, X, t_end=1.0, stride=stride)
    with pytest.raises(ConfigurationError):
        # monitors are a family, evaluated in one pass, not a tuple of members
        FlowSpec(su2n3, ham, X, t_end=1.0, monitors=tuple(flag_shift_family(su2n3)))
    # a single-factor family takes (dim,) points, not product states: a
    # stack of them would be read as a product point
    with pytest.raises(ConfigurationError, match="domain 'k'"):
        FlowSpec(su2n3, ham, X, t_end=1.0, monitors=mf_shift_family(su2n3.base, np.array([1.0, 0.3, -0.2])))
    # the initial state is one finite (n, dim) point
    for bad in (np.zeros((3, 8)), np.zeros((2, 3)), np.zeros(9), np.zeros((1, 3, 3))):
        with pytest.raises(ConfigurationError, match="initial state"):
            FlowSpec(su2n3, ham, bad, t_end=1.0)
    for value in (np.nan, np.inf):
        start = X.copy()
        start[1, 2] = value
        with pytest.raises(ConfigurationError, match="initial state"):
            FlowSpec(su2n3, ham, start, t_end=1.0)
    # t_end is a whole number, at least one, of dt steps: no silent no-op,
    # no run that stops short of the t_end it reports
    for t_end, dt in ((4e-4, 1e-3), (1.0, 0.3), (0.0105, 1e-3), (np.inf, 1e-3), (1.0, np.nan)):
        with pytest.raises(ConfigurationError):
            FlowSpec(su2n3, ham, X, t_end=t_end, dt=dt)
    for t_end, dt in ((3.0, 1e-3), (0.3, 0.1), (10.0, 1e-3), (1.0 + 1e-12, 1e-3)):
        FlowSpec(su2n3, ham, X, t_end=t_end, dt=dt)
    assert integrate(FlowSpec(su2n3, ham, X, t_end=1e-3, dt=1e-3)).times.tolist() == [0.0, 1e-3]


def _rk4_oracle(space, ham, X, dt, steps, stride):
    # literal RK4 over the structure-constant form of the field
    def field(Y):
        return np.einsum("bp,pqk,bq->bk", Y, space.base.structure, ham.coeff @ Y)

    states = [X]
    for step in range(1, steps + 1):
        k1 = field(X)
        k2 = field(X + 0.5 * dt * k1)
        k3 = field(X + 0.5 * dt * k2)
        k4 = field(X + dt * k3)
        X = X + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0 or step == steps:
            states.append(X)
    return np.array(states)


def test_integrate_matches_literal_rk4(su2n3, monkeypatch):
    su2, su3 = su2n3.base, build_algebra("su", 3)
    # the route follows n r, for r the rank of the coupling term (0 for the
    # normal flow, 1 for Gaudin and Einstein, n - 1 for the chained sum):
    # su2^10's chained sum is the largest coupled flow, n r = 90 =
    # COUPLED_MAX_ROWS, and su2^11's (110) the smallest through the Euler
    # kernel
    su5 = build_algebra("su", 5)
    spaces = [su2n3] + [ProductSpace(k, n) for k, n in ((su3, 4), (su2, 10), (su2, 11), (su2, 16), (su3, 7), (su5, 4))]
    assert 10 * 9 == COUPLED_MAX_ROWS < 11 * 10
    routes = []
    for route in ("coupled", "kernel"):
        steps_of = getattr(dynamics, f"_{route}_steps")
        monkeypatch.setattr(dynamics, f"_{route}_steps", lambda *a, r=route, f=steps_of: routes.append(r) or f(*a))
    # (steps, stride): a stride that divides the steps, and one that does
    # not, so the last record is the final step, at an odd and an even step
    # count, so the final state is read from each of the two tableaux
    runs = ((200, 20), (201, 20), (150, 40))
    seen = set()
    for space in spaces:
        n = space.n
        X0 = generic_point(space, [42, 23], "g")
        kept = X0.copy()
        for ham, rank in (
            (normal_hamiltonian(space), 0),
            (novi_hamiltonian(space, np.linspace(1.0, 1.5, n - 1), np.linspace(0.5, 0.9, n - 1)), n - 1),
            (gaudin_hamiltonian(space, np.arange(1.0, n + 1.0)), 1),
            (einstein_hamiltonian(space, *einstein_parameters(n)), 1),
        ):
            route = "coupled" if n * rank <= COUPLED_MAX_ROWS else "kernel"
            seen.add(route)
            for steps, stride in runs:
                flow = FlowSpec(space, ham, X0, t_end=steps * 1e-3, dt=1e-3, stride=stride)
                traj = integrate(flow)
                assert routes.pop() == route and not routes
                expected = _rk4_oracle(space, ham, X0, 1e-3, steps, stride)
                records = 1 + -(-steps // stride)
                assert traj.states.shape == expected.shape == (records, n, space.base.dim)
                assert traj.times[-1] == steps * 1e-3
                scale = np.abs(expected).max(axis=(1, 2))
                err = np.abs(traj.states - expected).max(axis=(1, 2))
                assert (err <= 1e-12 * scale).all(), (ham.kind, steps, stride)
                # the stepper never writes through to the caller's state,
                # and every record is its own copy
                assert np.array_equal(flow.initial, kept)
                assert np.array_equal(traj.states[0], X0)
                if ham.kind != "normal":
                    assert all(not np.array_equal(a, b) for a, b in zip(traj.states, traj.states[1:]))
    assert seen == {"coupled", "kernel"}


def test_fused_stepper_keeps_its_gradient_rows_on_the_state(su2n3):
    # the coupled tableau's rows [Z4, Z3, Z2, Z1, X, S U^T X] carry the
    # coupling rows S U^T X of the gradient C X = d X + U S U^T X; they are
    # formed from the X rows at every step, so after 10^4 steps they are
    # still S U^T X to a few rounding errors; carried forward on their own
    # they drift by accumulated round-off, and the flow with them
    for space in (su2n3, ProductSpace(build_algebra("su", 3), 4)):
        n = space.n
        X0 = generic_point(space, [42, 23], "g")
        einstein = einstein_hamiltonian(space, *einstein_parameters(n))
        for ham in (einstein, gaudin_hamiltonian(space, np.arange(1.0, n + 1.0))):
            _, U, s = dynamics._coupling(ham.coeff)
            for _, X in zip(range(10_000), dynamics._coupled_steps(space, U, s, X0, 1e-3)):
                pass
            tableau = next(T for T in X.base if np.shares_memory(T, X))
            x = 4 * n * s.size
            assert tableau.shape == (x + n + s.size, space.base.dim)
            assert np.array_equal(tableau[x:x + n], X)
            M = (s[:, None] * U.T) @ X
            assert np.abs(tableau[x + n:] - M).max() <= 8 * np.finfo(float).eps * np.abs(M).max()


def test_closed_form_rotation_matches_integrator(su2n3):
    p, q = einstein_parameters(3)
    ham = einstein_hamiltonian(su2n3, p, q)
    u, v = ham.params["u_coef"], ham.params["v_coef"]
    X0 = generic_point(su2n3, [42, 17], "v")
    flow = FlowSpec(su2n3, ham, X0, t_end=3.0, dt=1e-3, stride=50)
    traj = integrate(flow)
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        closed = enr_closed_form(su2n3, X0, u, v, t)
        worst = max(worst, su2n3.norm(state - closed) / (1.0 + su2n3.norm(closed)))
    assert worst < 1e-9


def test_closed_form_over_an_array_of_times(su3n3, adjoint):
    # reference: one matrix exponential per time, as the rotation is defined
    k = su3n3.base
    X0 = generic_point(su3n3, [42, 19], "v")
    u, v = 0.3, 1.1
    times = np.array([0.0, 0.25, 1.0, 4.5, 10.0])
    batch = enr_closed_form(su3n3, X0, u, v, times)
    assert batch.shape == (times.size, 3, k.dim)
    xi = (v - u) * X0[:2].sum(axis=0)
    for t, state in zip(times, batch):
        expect = [adjoint(k, t * xi, x) for x in X0[:2]] + [X0[2]]
        assert np.abs(state - np.array(expect)).max() < 1e-12 * (1.0 + np.abs(X0).max())
        assert np.array_equal(enr_closed_form(su3n3, X0, u, v, t), state)


def test_closed_form_requires_slice(su2n3):
    rng = np.random.default_rng(8)
    X = su2n3.random_point(rng)
    with pytest.raises(ValueError):
        enr_closed_form(su2n3, X, 0.1, 0.2, 1.0)


def test_degenerate_parameters_freeze_the_flow(su2n3):
    ham = einstein_hamiltonian(su2n3, 2.0, 2.0, 2.0)
    X0 = generic_point(su2n3, [42, 17], "v")
    flow = FlowSpec(su2n3, ham, X0, t_end=5.0, dt=1e-3, stride=100)
    traj = integrate(flow)
    assert max(su2n3.norm(state - X0) for state in traj.states) < 1e-12


def test_momentum_drift_control(su2n3):
    rng = np.random.default_rng(9)
    X = su2n3.random_point(rng)
    shifted = X + np.tile(np.array([0.3, 0.0, 0.0]), (3, 1))
    fake = Trajectory(
        times=np.array([0.0, 1.0]),
        states=np.stack([X, shifted]),
        monitor_labels=("energy",),
        monitor_series=np.zeros((2, 1)),
    )
    assert momentum_drift(fake) > 0.1


def test_trajectory_drift_formula():
    fake = Trajectory(
        times=np.array([0.0, 1.0]),
        states=np.zeros((2, 2, 3)),
        monitor_labels=("energy",),
        monitor_series=np.array([[1.0], [1.5]]),
    )
    assert fake.drift()["energy"] == pytest.approx(0.25)


def test_flow_spec_keeps_its_own_initial_state(su2n3):
    X = su2n3.random_point(np.random.default_rng(5))
    flow = FlowSpec(su2n3, normal_hamiltonian(su2n3), X, t_end=0.01)
    X[0, 0] = 99.0
    assert flow.initial[0, 0] != 99.0
    assert not flow.initial.flags.writeable
    assert X.flags.writeable


class _Unprintable(float):
    def __repr__(self):
        raise RuntimeError("cannot format this value")


def test_csv_write_is_atomic(tmp_path):
    # a writer that raises after the header leaves the old file as it was
    path = tmp_path / "traj.csv"
    path.write_bytes(b"t,old\r\n0.0,1.0\r\n")
    broken = Trajectory(
        times=np.array([0.0, 1.0]),
        states=np.zeros((2, 1, 1)),
        monitor_labels=("energy",),
        monitor_series=np.array([[1.0], [_Unprintable(2.0)]], dtype=object),
    )
    with pytest.raises(RuntimeError, match="cannot format"):
        trajectory_to_csv(broken, path)
    assert path.read_bytes() == b"t,old\r\n0.0,1.0\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]

    # a completed write gets the mode a plain open() gives a new file
    with dynamics.atomic_open(tmp_path / "new.txt") as handle:
        handle.write("a\r\nb\n")
    with open(tmp_path / "plain.txt", "w") as handle:
        handle.write("x")
    assert (tmp_path / "new.txt").read_bytes() == b"a\r\nb\n"
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_csv_round_trip(tmp_path, su2n3):
    ham = novi_hamiltonian(su2n3, (1.0, 1.0), (0.5, 0.5))
    X0 = generic_point(su2n3, [42, 17], "v")
    flow = FlowSpec(su2n3, ham, X0, t_end=0.05, dt=1e-3, stride=10,
                    monitors=flag_shift_family(su2n3))
    traj = integrate(flow)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    assert header[0] == "t"
    assert header[1:10] == [f"b{i}_{a}" for i in (1, 2, 3) for a in (1, 2, 3)]
    assert header[10] == "monitor:energy"
    assert len(data) == len(traj.times)
    for idx, row in enumerate(data):
        assert float(row[0]) == traj.times[idx]
        values = np.array([float(z) for z in row[1:10]]).reshape(3, 3)
        assert np.array_equal(values, traj.states[idx])
        monitors = np.array([float(z) for z in row[10:]])
        assert np.array_equal(monitors, traj.monitor_series[idx])


def test_csv_bytes_match_a_literal_csv_writer(tmp_path):
    # labels that need quoting and values at the edges of repr formatting
    values = np.array([0.0, -0.0, 1e-300, 1e16, -2.5, 1.0 / 3.0, 1e-5, 123456789.125])
    traj = Trajectory(
        times=np.array([0.0, 0.5]),
        states=np.stack([values.reshape(2, 4), values[::-1].reshape(2, 4)]),
        monitor_labels=("energy", "I[1,2]", 'say "x"'),
        monitor_series=np.array([[1e16, -0.0, 1e-300], [2.0, 1e100, -7.25]]),
    )
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)

    literal = tmp_path / "literal.csv"
    with open(literal, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"b{i}_{a}" for i in (1, 2) for a in (1, 2, 3, 4)]
                        + ["monitor:energy", "monitor:I[1,2]", 'monitor:say "x"'])
        for idx in range(2):
            writer.writerow([repr(float(z)) for z in (
                [traj.times[idx]] + list(traj.states[idx].ravel()) + list(traj.monitor_series[idx]))])
    assert path.read_bytes() == literal.read_bytes()
    assert b'"monitor:I[1,2]"' in path.read_bytes()
    assert b"-0.0,1e-300,1e+16" in path.read_bytes()
