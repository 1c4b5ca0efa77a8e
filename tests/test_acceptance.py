"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Each test measures the advertised quantity at the stated tolerance and
prints ``criterion NN: PASS/FAIL (detail)`` before asserting, so a plain
pytest run shows the verdict table.
"""

import numpy as np

from flagshift import dynamics
from flagshift.certify import (
    ClaimContext,
    check_involutive,
    completeness_target,
    flag_rank_target,
    generic_point,
    restricted_rank_target,
    verify_completeness,
    verify_lemma1,
)
from flagshift.cli import main as cli_main
from flagshift.families import (
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    restrict_family,
)


def _verdict(capsys, index: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {index:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _tag(space) -> str:
    return f"{space.base.name} n={space.n}"


def test_criterion_01_invariant_span_dimensions(spaces, capsys):
    expected = {("su2", 3): (3, 3), ("su2", 4): (6, 4), ("su3", 3): (8, 6)}
    ok, parts = True, []
    for space in spaces:
        report_ddim, report_dind = verify_lemma1(ClaimContext(space, seed=42, trials=7))
        pair = (report_ddim.measured_value, report_dind.measured_value)
        ok &= report_ddim.passed and report_dind.passed
        ok &= pair == expected[(space.base.name, space.n)]
        parts.append(f"{_tag(space)}: {pair}")
    _verdict(capsys, 1, ok, "; ".join(parts))


def test_criterion_02_flag_family_commutes(spaces, capsys):
    ok, worst = True, 0.0
    for space in spaces:
        report = check_involutive(
            ClaimContext(space, seed=42, trials=10, tol_bracket=1e-9), flag_shift_family(space)
        )
        ok &= report.passed
        worst = max(worst, report.measured_value)
    _verdict(capsys, 2, ok, f"max bracket residual {worst:.2e} <= 1e-9")


def test_criterion_03_completeness_sum(spaces, capsys):
    expected = {("su2", 3): 12, ("su2", 4): 16, ("su3", 3): 30}
    ok, parts = True, []
    for space in spaces:
        shift = generic_point(space.base, [42, 104729], "k")
        family = flag_momentum_family(space, shift, flag_shift_family(space))
        report = verify_completeness(
            ClaimContext(space, seed=42, trials=7), family, completeness_target(space), mode="sum"
        )
        ok &= report.passed
        ok &= report.measured_value == expected[(space.base.name, space.n)]
        parts.append(f"{_tag(space)}: {report.measured_value}")
    _verdict(capsys, 3, ok, "; ".join(parts))


def test_criterion_04_restricted_family_rank_and_commutation(spaces, capsys):
    expected = {("su2", 3): 3, ("su2", 4): 5, ("su3", 3): 7}
    ok, parts, worst = True, [], 0.0
    for space in spaces:
        family = restrict_family(space, flag_shift_family(space))
        ctx = ClaimContext(space, seed=42, trials=7, tol_bracket=1e-9)
        rank_report = verify_completeness(ctx, family, restricted_rank_target(space), mode="ddim")
        bracket_report = check_involutive(ctx, family)
        ok &= rank_report.passed and bracket_report.passed
        ok &= rank_report.measured_value == expected[(space.base.name, space.n)]
        worst = max(worst, bracket_report.measured_value)
        parts.append(f"{_tag(space)}: rank {rank_report.measured_value}")
    _verdict(capsys, 4, ok, "; ".join(parts) + f"; residual {worst:.2e}")


def test_criterion_05_flag_family_rank(spaces, capsys):
    expected = {("su2", 3): 5, ("su2", 4): 7, ("su3", 3): 12}
    ok, parts = True, []
    for space in spaces:
        report = verify_completeness(
            ClaimContext(space, seed=42, trials=7), flag_shift_family(space),
            flag_rank_target(space), mode="ddim",
        )
        ok &= report.passed
        ok &= report.measured_value == expected[(space.base.name, space.n)]
        parts.append(f"{_tag(space)}: {report.measured_value}")
    _verdict(capsys, 5, ok, "; ".join(parts))


def test_criterion_06_energy_two_routes(su2n3, su2n4, einstein_by_projections, capsys):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for space in (su2n3, su2n4):
        for _ in range(5):
            p, q, s = rng.uniform(0.3, 3.0, size=3)
            hamiltonian = dynamics.einstein_hamiltonian(space, p, q, s)
            for _ in range(100):
                X = space.random_point(rng)
                via_proj, via_form = einstein_by_projections(space, p, q, s, X), hamiltonian.value(X)
                worst = max(worst, abs(via_proj - via_form) / (1.0 + abs(via_proj)))
    _verdict(capsys, 6, worst <= 1e-12, f"max relative gap {worst:.2e} <= 1e-12")


def test_criterion_07_einstein_flow_conservation(su2n3, capsys):
    p, q = dynamics.einstein_parameters(3)
    hamiltonian = dynamics.einstein_hamiltonian(su2n3, p, q)
    initial = generic_point(su2n3, [42, 17], "v")
    flow = dynamics.FlowSpec(
        su2n3, hamiltonian, initial, t_end=10.0, dt=1e-3, stride=10,
        monitors=flag_shift_family(su2n3),
    )
    trajectory = dynamics.integrate(flow)
    drifts = trajectory.drift()
    worst_drift = max(drifts.values())
    momentum_max = dynamics.momentum_norm_max(su2n3, trajectory)
    ok = (not trajectory.aborted) and worst_drift <= 1e-7 and momentum_max <= 1e-9
    _verdict(capsys, 7, ok,
             f"worst drift {worst_drift:.2e} <= 1e-7, |momentum| max {momentum_max:.2e} <= 1e-9")


def test_criterion_08_closed_form_solution(su2n3, capsys):
    p, q = dynamics.einstein_parameters(3)
    hamiltonian = dynamics.einstein_hamiltonian(su2n3, p, q)
    u_coef = hamiltonian.params["u_coef"]
    v_coef = hamiltonian.params["v_coef"]
    initial = generic_point(su2n3, [42, 17], "v")
    trajectory = dynamics.integrate(
        dynamics.FlowSpec(su2n3, hamiltonian, initial, t_end=10.0, dt=1e-3, stride=100)
    )
    residual = max(
        su2n3.norm(state - dynamics.enr_closed_form(su2n3, initial, u_coef, v_coef, t))
        for t, state in zip(trajectory.times, trajectory.states)
    )

    degenerate = dynamics.einstein_hamiltonian(su2n3, 2.0, 2.0, 2.0)
    frozen = dynamics.integrate(
        dynamics.FlowSpec(su2n3, degenerate, initial, t_end=5.0, dt=1e-3, stride=100)
    )
    deviation = max(su2n3.norm(state - initial) for state in frozen.states)

    ok = residual <= 1e-7 and deviation <= 1e-12
    _verdict(capsys, 8, ok,
             f"closed-form residual {residual:.2e} <= 1e-7, frozen deviation {deviation:.2e} <= 1e-12")


def test_criterion_09_gaudin_system(su2n3, capsys):
    weights = (1.0, 2.0, 3.0)
    hamiltonian = dynamics.gaudin_hamiltonian(su2n3, weights)

    field_worst = 0.0
    for k in range(10):
        X = generic_point(su2n3, [42, 900 + k], "g")
        gap = dynamics.gaudin_field(su2n3, weights, X) - dynamics.euler_field(su2n3, hamiltonian, X)
        field_worst = max(field_worst, su2n3.norm(gap) / (1.0 + su2n3.norm(X)))

    family = gaudin_family(su2n3, weights)
    ctx = ClaimContext(su2n3, seed=42, trials=7, tol_bracket=1e-9)
    plain = check_involutive(ctx, family)
    pencil = check_involutive(ctx, family, weights=np.asarray(weights))
    rank_report = verify_completeness(ctx, restrict_family(su2n3, family), 3, mode="ddim")

    initial = generic_point(su2n3, [42, 271], "g")
    trajectory = dynamics.integrate(
        dynamics.FlowSpec(su2n3, hamiltonian, initial, t_end=10.0, dt=1e-3)
    )
    mu_drift = dynamics.momentum_drift(trajectory)

    ok = (
        field_worst <= 1e-11
        and plain.passed
        and pencil.passed
        and rank_report.passed
        and rank_report.measured_value == 3
        and mu_drift <= 1e-8
    )
    _verdict(capsys, 9, ok,
             f"field gap {field_worst:.2e}, restricted rank {rank_report.measured_value}, "
             f"momentum drift {mu_drift:.2e}")


def test_criterion_10_reproducible_certificates(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["certify", "--algebra", "su2", "--n", "3",
            "--claims", "lemma1,dimB", "--seed", "42"]
    code_first = cli_main(argv + ["--out", str(first)])
    code_second = cli_main(argv + ["--out", str(second)])

    def stripped(path):
        return [line for line in path.read_text().splitlines()
                if '"generated_at"' not in line]

    ok = code_first == 0 and code_second == 0 and stripped(first) == stripped(second)
    _verdict(capsys, 10, ok, "byte-identical JSON apart from the timestamp")
