"""Certification layer: sampling gates, rank estimates, claim reports."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from flagshift import ProductSpace, build_algebra
from flagshift.certify import (
    CLAIM_IDS,
    CertificateReport,
    ClaimContext,
    check_ad_invariance,
    check_involutive,
    completeness_target,
    flag_rank_target,
    generic_point,
    lemma1_targets,
    restricted_rank_target,
    run_claims,
    verify_completeness,
    verify_lemma1,
    verify_span_inclusion,
)
from flagshift.certify import _draw, _gated_draws, _largest_principal_angle, _measure_at_generic_points, _residual_report
from flagshift.errors import ConfigurationError, GenericityError
from flagshift.families import (
    PolynomialFamily,
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    restrict_family,
)
from flagshift.ranks import RankPolicy, numerical_rank, row_space


def test_generic_point_is_deterministic(su2n3):
    a = generic_point(su2n3, [5, 1], "g")
    b = generic_point(su2n3, [5, 1], "g")
    c = generic_point(su2n3, [5, 2], "g")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generic_point_domains(su2n3, su2):
    X = generic_point(su2n3, [5, 3], "v")
    assert su2n3.in_v(X)
    x = generic_point(su2, [5, 4], "k")
    assert x.shape == (3,)
    assert su2.isotropy_dim(x) == 1


def test_generic_point_exhausts_retries(su2n3):
    impossible = RankPolicy(rel_tol=1e-8, margin=1e12, max_retries=2)
    with pytest.raises(GenericityError):
        generic_point(su2n3, [5, 5], "g", policy=impossible)


def test_sampler_resamples_marginal_measurements(su2n3):
    # The first k gated draws are flagged marginal; the witness records the
    # burned retries and the accepted point is the draw for [seed, trial, k].
    k = 3
    seen = []

    def measure(X, entropy):
        seen.append((list(entropy), X))
        return len(seen), len(seen) <= k, {}

    policy = RankPolicy()
    ctx = ClaimContext(su2n3, seed=9, trials=1, policy=policy)
    values, witnesses = _measure_at_generic_points(ctx, "g", measure)
    assert [entropy for entropy, _ in seen] == [[9, 0, r] for r in range(k + 1)]
    assert values == [k + 1]
    assert witnesses == [{"trial": 0, "retries": k, "rejected": ["marginal measurement"] * k}]
    assert np.array_equal(seen[-1][1], _draw(su2n3, [9, 0, k], "g"))


def test_sampler_gives_up_when_every_draw_is_marginal(su2n3):
    policy = RankPolicy(max_retries=3)
    ctx = ClaimContext(su2n3, seed=9, trials=2, policy=policy)
    seen = []

    def measure(X, entropy):
        seen.append(list(entropy))
        return 0, True, {}

    with pytest.raises(GenericityError, match=r"domain 'g'.*\[9, 0, r\], r = 0\.\.3"):
        _measure_at_generic_points(ctx, "g", measure)
    assert seen == [[9, 0, r] for r in range(policy.max_retries + 1)]


def test_genericity_error_names_the_gate_that_rejected_each_draw(su2):
    impossible = RankPolicy(rel_tol=1e-8, margin=1e12, max_retries=2)
    (report,) = run_claims(ClaimContext(ProductSpace(su2, 3), policy=impossible), ["dimB"])
    assert report.error == (
        "claim dimB: no generic point in domain 'g' was accepted from seed entropy "
        "[42, 0, r], r = 0..2; rejected by block regularity (r = 0, 1, 2)"
    )
    # at n = 2 the slice holds only (x, -x): regular blocks sharing their centralizer
    with pytest.raises(GenericityError, match=r"rejected by diagonal centralizer \(r = 0, 1, 2, 3, 4, 5\)$"):
        generic_point(ProductSpace(su2, 2), [5], "v")


def test_a_witness_names_the_gate_that_rejected_each_retry(su2n3, monkeypatch):
    from flagshift import certify

    gate = certify._failed_gate
    irregular = _draw(su2n3, [42, 0, 0], "g")

    def first_draw_irregular(context, X, domain, policy):
        return "block regularity" if np.array_equal(X, irregular) else gate(context, X, domain, policy)

    monkeypatch.setattr(certify, "_failed_gate", first_draw_irregular)
    (report,) = run_claims(ClaimContext(su2n3, trials=3), ["dimB"])
    assert report.passed
    assert report.witnesses[0] == {"trial": 0, "retries": 1, "rejected": ["block regularity"], "ddim": 5}
    # a trial that burned no retry has no "rejected" key
    assert [w.get("rejected") for w in report.witnesses[1:]] == [None, None]

    # gates and marginal measurements in the order the retries were burned
    ctx = ClaimContext(su2n3, trials=1)
    values, witnesses = _measure_at_generic_points(ctx, "g", lambda X, entropy: (0, entropy[-1] < 2, {}))
    assert witnesses == [
        {"trial": 0, "retries": 2, "rejected": ["block regularity", "marginal measurement"]}
    ]


def test_genericity_error_names_marginal_measurements(su2n3):
    ctx = ClaimContext(su2n3, seed=9, trials=1, policy=RankPolicy(max_retries=2))
    with pytest.raises(GenericityError, match=r"rejected by marginal measurement \(r = 0, 1, 2\)$"):
        _measure_at_generic_points(ctx, "g", lambda X, entropy: (0, True, {}))


def test_generic_points_are_read_only(su2n3):
    def measure(X, entropy):
        X[0, 0] = 1.0
        return 0.0, False, {}

    with pytest.raises(ValueError, match="read-only"):
        _measure_at_generic_points(ClaimContext(su2n3, trials=1), "v", measure)
    with pytest.raises(ValueError, match="read-only"):
        generic_point(su2n3, [5, 1], "g")[0, 0] = 1.0


def test_a_run_draws_and_gates_each_point_once(su2n3, monkeypatch):
    from flagshift import certify

    draw, gate = certify._draw, certify._failed_gate
    draws, gates = Counter(), Counter()

    def counted_draw(context, entropy, domain):
        draws[domain, tuple(entropy)] += 1
        return draw(context, entropy, domain)

    def counted_gate(context, X, domain, policy):
        gates[domain, X.tobytes()] += 1
        return gate(context, X, domain, policy)

    monkeypatch.setattr(certify, "_draw", counted_draw)
    monkeypatch.setattr(certify, "_failed_gate", counted_gate)
    reports = run_claims(ClaimContext(su2n3), ["all"])
    assert len(reports) == 14 and all(r.passed for r in reports)
    assert {("g", (42, t, 0)) for t in range(10)} | {("v", (42, t, 0)) for t in range(7)} <= set(draws)
    assert max(draws.values()) == 1 and max(gates.values()) == 1
    assert sum(gates.values()) == sum(draws.values())


def test_a_claim_shares_gradients_and_spans_across_its_certificates(su2n3, monkeypatch):
    from flagshift import certify

    gradients, spans = PolynomialFamily.gradients, certify.invariant_tangent_span
    calls = Counter()

    def counted_gradients(family, X):
        calls[family.name] += 1
        return gradients(family, X)

    def counted_span(*args):
        calls["span"] += 1
        return spans(*args)

    monkeypatch.setattr(PolynomialFamily, "gradients", counted_gradients)
    monkeypatch.setattr(certify, "invariant_tangent_span", counted_span)
    ctx = ClaimContext(su2n3, trials=4)
    run_claims(ctx, ["lemma1", "thm3"])
    # thm3.ddim, thm3.involutive and thm3.span_inclusion read one stack per
    # point; lemma1 and thm3.span_inclusion one span per point
    assert calls == {"flag_shift_v": 4, "span": 4}
    # outside a claim nothing is shared, and the run left nothing behind
    calls.clear()
    check_involutive(ctx, flag_shift_family(su2n3))
    check_involutive(ctx, flag_shift_family(su2n3))
    assert calls == {"flag_shift": 8}
    assert ctx._points._gradients is None and not ctx._points._spans


def test_the_point_table_is_not_a_setting(su2n3):
    ctx = ClaimContext(su2n3)
    assert ctx == ClaimContext(su2n3) and "_points" not in repr(ctx)
    assert replace(ctx, trials=10)._points is ctx._points
    assert replace(ctx, policy=RankPolicy(rel_tol=1e-6))._points is not ctx._points
    assert replace(ctx, space=ProductSpace(su2n3.base, 4))._points is not ctx._points


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("m", [2, 3])
def test_a_shared_run_reports_what_separate_runs_report(m, seed):
    space = ProductSpace(build_algebra("su", m), 3)
    shared = [r.to_dict() for r in run_claims(ClaimContext(space, seed=seed), ["all"])]
    separate = [
        r.to_dict() for claim in CLAIM_IDS for r in run_claims(ClaimContext(space, seed=seed), [claim])
    ]
    assert shared == separate


def test_closed_form_targets(su2n3, su2n4, su3n3):
    assert lemma1_targets(su2n3) == (3, 3)
    assert lemma1_targets(su2n4) == (6, 4)
    assert lemma1_targets(su3n3) == (8, 6)
    assert flag_rank_target(su2n3) == 5
    assert flag_rank_target(su2n4) == 7
    assert flag_rank_target(su3n3) == 12
    assert restricted_rank_target(su2n3) == 3
    assert restricted_rank_target(su2n4) == 5
    assert restricted_rank_target(su3n3) == 7
    assert completeness_target(su2n3) == 12
    assert completeness_target(su2n4) == 16
    assert completeness_target(su3n3) == 30


def test_check_involutive_pass_and_control(su2n3, coordinate_member):
    fam = flag_shift_family(su2n3)
    report = check_involutive(ClaimContext(su2n3, trials=3), fam, claim_id="probe")
    assert report.passed and report.measured_value < 1e-12
    assert report.claim_id == "probe"

    control = PolynomialFamily(
        "control",
        "g",
        (
            coordinate_member(su2n3, 0, np.array([1.0, 0.0, 0.0])),
            coordinate_member(su2n3, 0, np.array([0.0, 1.0, 0.0])),
        ),
    )
    bad = check_involutive(ClaimContext(su2n3, trials=3), control)
    assert not bad.passed
    assert bad.measured_value > 1e-3


def test_check_ad_invariance_pass_and_control(su2n3, coordinate_member):
    report = check_ad_invariance(ClaimContext(su2n3, trials=2), flag_shift_family(su2n3))
    assert report.passed

    control = PolynomialFamily(
        "control", "g", (coordinate_member(su2n3, 0, np.array([1.0, 0.0, 0.0])),)
    )
    bad = check_ad_invariance(ClaimContext(su2n3, trials=2), control)
    assert not bad.passed
    assert bad.measured_value > 1e-2


@pytest.mark.parametrize("m", [2, 3])
def test_check_ad_invariance_reads_one_stack_per_point(m, monkeypatch):
    space = ProductSpace(build_algebra("su", m), 3)
    ctx = ClaimContext(space, trials=3)
    values, shapes = PolynomialFamily.values, []

    def counted_values(family, X):
        shapes.append(np.shape(X))
        return values(family, X)

    for family in (flag_shift_family(space), gaudin_family(space, ctx.weights())):
        # oracle: one values call per point, ten adjoint actions drawn in order
        worst = []
        for trial in range(3):
            entropy, X, _ = next(_gated_draws(ctx._points, [ctx.seed, trial], family.domain))
            rng = np.random.default_rng(entropy + [7919])
            base = family.values(X)
            moved = (space.diagonal_adjoint(space.base.random_element(rng, 0.8), X) for _ in range(10))
            worst.append(max(float((np.abs(family.values(Y) - base) / (1.0 + np.abs(base))).max()) for Y in moved))
        with monkeypatch.context() as patch:
            patch.setattr(PolynomialFamily, "values", counted_values)
            report = check_ad_invariance(ctx, family)
        assert shapes == [(11, 3, space.base.dim)] * 3
        shapes.clear()
        assert [w["residual"] for w in report.witnesses] == worst


def test_thm2ii_reuses_the_run_tables_flag_shift_family(su2n3, monkeypatch):
    from flagshift import certify, families

    builds = []

    def counted(build):
        def wrapped(space):
            builds.append(space)
            return build(space)
        return wrapped

    monkeypatch.setattr(certify, "flag_shift_family", counted(certify.flag_shift_family))
    monkeypatch.setattr(families, "flag_shift_family", counted(families.flag_shift_family))
    reports = run_claims(ClaimContext(su2n3), ["thm2i", "thm2ii", "dimB"])
    assert all(r.passed for r in reports)
    assert builds == [su2n3]
    # a family passed in is used as it is: its members lead the merged family
    shift, own = generic_point(su2n3.base, [42, 104729], "k"), flag_shift_family(su2n3)
    builds.clear()
    given = flag_momentum_family(su2n3, shift, own)
    assert builds == []
    assert given.members[: len(own)] == own.members


@pytest.mark.parametrize("values", [[1e-12, np.nan], [np.nan, 1e-12]])
def test_residual_report_fails_on_a_nan_from_any_trial(su2n3, values):
    report = _residual_report(ClaimContext(su2n3), "x", values, 1e-9, [{}, {}])
    assert np.isnan(report.measured_value) and not report.passed


def test_verify_lemma1(su2n3):
    ddim, dind = verify_lemma1(ClaimContext(su2n3, trials=3))
    assert ddim.passed and ddim.measured_value == 3
    assert dind.passed and dind.measured_value == 3
    assert ddim.claim_id == "lemma1.ddim"
    assert dind.claim_id == "lemma1.dind"


def test_estimate_dind_of_commuting_family_is_full(su2n3):
    # The flag family commutes, so its bivector on the gradient span is zero
    # and the kernel is the whole span: the scale-anchored cutoff must not
    # read rank from noise.
    ctx = ClaimContext(su2n3, trials=3)
    full = verify_completeness(ctx, flag_shift_family(su2n3), 10, mode="sum")
    assert full.passed
    assert all(w["ddim"] == w["dind"] == 5 for w in full.witnesses)


def test_verify_completeness_modes(su2n3):
    fam = flag_shift_family(su2n3)
    ddim = verify_completeness(ClaimContext(su2n3, trials=3), fam, 5, mode="ddim")
    assert ddim.passed

    shift = generic_point(su2n3.base, [42, 104729], "k")
    merged = flag_momentum_family(su2n3, shift, fam)
    total = verify_completeness(ClaimContext(su2n3, trials=3), merged, 12, mode="sum")
    assert total.passed
    assert total.witnesses[0]["ddim"] + total.witnesses[0]["dind"] == 12

    with pytest.raises(ConfigurationError):
        verify_completeness(ClaimContext(su2n3), fam, 5, mode="bogus")


def test_verify_completeness_detects_wrong_target(su2n3):
    fam = flag_shift_family(su2n3)
    report = verify_completeness(ClaimContext(su2n3, trials=3), fam, 4, mode="ddim")
    assert not report.passed
    assert report.measured_value == 5


def test_verify_span_inclusion_pass_and_control(su2n3, coordinate_member):
    fam = restrict_family(su2n3, flag_shift_family(su2n3))
    report = verify_span_inclusion(ClaimContext(su2n3, trials=3), fam)
    assert report.passed

    # A restricted pairing member is a false control: its projected gradient
    # satisfies both span conditions (the blockwise bracket sum telescopes to
    # zero on v).  A linear coordinate member leaves the span.
    control = restrict_family(su2n3, PolynomialFamily("control", "g", (coordinate_member(su2n3, 0, 0),)))
    bad = verify_span_inclusion(ClaimContext(su2n3, trials=3), control)
    assert not bad.passed

    with pytest.raises(ConfigurationError):
        verify_span_inclusion(ClaimContext(su2n3), flag_shift_family(su2n3))


def test_largest_principal_angle_matches_scipy():
    # _largest_principal_angle takes orthonormal bases; scipy gets the raw inputs
    from scipy.linalg import orth, subspace_angles

    rng = np.random.default_rng(11)
    low_rank = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 5))
    pairs = [
        (rng.normal(size=(12, 4)), rng.normal(size=(12, 4))),
        (rng.normal(size=(12, 3)), rng.normal(size=(12, 6))),
        (rng.normal(size=(12, 6)), rng.normal(size=(12, 3))),
        (low_rank, rng.normal(size=(12, 4))),
    ]
    for a, b in pairs:
        ours = _largest_principal_angle(orth(a), orth(b))
        assert isinstance(ours, float)
        assert abs(ours - subspace_angles(a, b).max()) < 1e-14

    # Nearly coincident spans with known angles: only the sine form resolves
    # angles near 1e-10, the cosines round to 1.  Both bases are orthonormal
    # by construction.
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    angles = np.array([3e-10, 1e-10, 2e-11])
    a = q[:, :3]
    b = q[:, :3] * np.cos(angles) + q[:, 3:6] * np.sin(angles)
    ours = _largest_principal_angle(a, b)
    assert ours == pytest.approx(3e-10, rel=1e-5)
    assert ours == pytest.approx(subspace_angles(a, b).max(), rel=1e-5)

    # an empty narrower basis has no angle
    assert _largest_principal_angle(a, np.zeros((12, 0))) == 0.0
    assert _largest_principal_angle(np.zeros((12, 0)), a) == 0.0


def test_report_dict_shape(su2n3):
    report = check_involutive(ClaimContext(su2n3, trials=2), flag_shift_family(su2n3))
    doc = report.to_dict()
    for key in ("claim_id", "algebra", "n", "seed", "trials", "formula_value",
                "measured_value", "tolerance", "pass", "witnesses"):
        assert key in doc
    assert doc["pass"] is True
    assert doc["algebra"] == "su2" and doc["n"] == 3
    assert isinstance(doc["witnesses"], list)


def test_run_claims_selection_and_validation(su2n3):
    ctx = ClaimContext(space=su2n3, trials=3)
    reports = run_claims(ctx, ["lemma1"])
    assert [r.claim_id for r in reports] == ["lemma1.ddim", "lemma1.dind"]
    with pytest.raises(ConfigurationError):
        run_claims(ctx, ["lemma1", "nope"])
    assert CLAIM_IDS == ("lemma1", "thm2i", "thm2ii", "dimB", "thm3", "gaudin")


def test_run_claims_refuses_an_empty_selection(su2n3):
    with pytest.raises(ConfigurationError, match="no claims selected; choose from lemma1, .*, gaudin"):
        run_claims(ClaimContext(space=su2n3), [])


def test_run_claims_is_deterministic(su2n3):
    ctx = ClaimContext(space=su2n3, trials=3)
    first = [r.to_dict() for r in run_claims(ctx, ["thm2i", "dimB"])]
    second = [r.to_dict() for r in run_claims(ctx, ["thm2i", "dimB"])]
    assert first == second


def test_run_claims_turns_a_claim_error_into_a_fail_record(su2n3, monkeypatch):
    from flagshift import certify

    def no_point(ctx):
        raise GenericityError("no generic point in domain 'g' was accepted from seed entropy [42, 0, r]")

    monkeypatch.setitem(certify._REGISTRY, "dimB", no_point)
    reports = run_claims(ClaimContext(space=su2n3, trials=3), ["lemma1", "dimB", "thm2i"])
    assert [r.claim_id for r in reports] == [
        "lemma1.ddim", "lemma1.dind", "thm2i.involutive", "thm2i.ad_invariance", "dimB",
    ]
    failed = reports[-1].to_dict()
    assert failed["pass"] is False
    assert failed["error"].startswith("claim dimB: no generic point")
    assert all(r.passed and "error" not in r.to_dict() for r in reports if r.claim_id != "dimB")


def test_run_claims_refuses_slice_claims_at_n_2(monkeypatch):
    from flagshift import certify

    space = ProductSpace(build_algebra("su", 2), 2)

    def no_draws(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(certify, "_draw", no_draws)
    with pytest.raises(ConfigurationError) as caught:
        run_claims(ClaimContext(space=space), ["all"])
    message = str(caught.value)
    assert "lemma1, thm3, gaudin need n >= 3" in message
    assert "thm2i, thm2ii, dimB apply" in message
    with pytest.raises(ConfigurationError, match="claims thm3 need"):
        run_claims(ClaimContext(space=space), ["dimB", "thm3"])


# Configurations where the certificates used to fail: a Vandermonde solve
# for the flag coefficients at su(6)^3, a sampled spectral grid for the
# Gaudin family, and at su(8)^3 a rank decision on gradient rows whose norms
# spread over five decades.
@pytest.mark.parametrize(
    "m, n, seed, claim",
    [
        (6, 3, 42, "thm2i"),
        (2, 5, 42, "gaudin"),
        (3, 4, 42, "gaudin"),
        (4, 3, 1, "gaudin"),
        (4, 4, 42, "gaudin"),
        (8, 3, 42, "thm2ii"),
    ],
)
def test_certificates_pass_on_the_wider_envelope(m, n, seed, claim):
    space = ProductSpace(build_algebra("su", m), n)
    ctx = ClaimContext(space=space, seed=seed)
    if claim != "gaudin":
        reports = run_claims(ctx, [claim])
    else:
        # the gaudin claim without its field identity and 10^4-step flow
        family = gaudin_family(space, ctx.weights())
        reports = [
            check_involutive(ctx, family, "gaudin.involutive"),
            check_involutive(ctx, family, "gaudin.involutive_pencil", weights=np.array(ctx.weights())),
            verify_completeness(ctx, restrict_family(space, family), restricted_rank_target(space)),
        ]
    for report in reports:
        assert report.passed, report.to_dict()


@pytest.mark.slow
@pytest.mark.parametrize(
    "m, n, seed",
    [
        (m, n, seed)
        for m, n in (
            (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4),
            (4, 5), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4), (7, 3), (7, 4), (8, 3),
        )
        for seed in (42, 1)
    ]
    # wide in n, at one seed
    + [(2, 32, 42), (3, 16, 42), (4, 10, 42), (5, 8, 42)],
)
def test_every_claim_passes_on_the_stated_envelope(m, n, seed):
    # every claim, the Gaudin field identity and its 10^4-step flow included
    reports = run_claims(ClaimContext(space=ProductSpace(build_algebra("su", m), n), seed=seed), ["all"])
    assert [r.claim_id for r in reports if not r.passed] == []
    assert len(reports) == 14


def _unit_rows(rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)


@pytest.fixture(scope="module")
def su6n4_zero_rows():
    # thm2ii at su(6)^4, seed 42, trial 5: the constant members
    # mu*shift[inv=d-1,k=d] give five exactly zero rows among the 155 x 140
    # unit gradient rows, and LAPACK's gesdd did not converge on them
    space = ProductSpace(build_algebra("su", 6), 4)
    family = flag_momentum_family(space, generic_point(space.base, [42, 104729], "k"), flag_shift_family(space))
    rows = family.gradients(_draw(space, [42, 5, 0], family.domain)).reshape(len(family), -1)
    assert rows.shape == (155, 140) and np.count_nonzero(np.abs(rows).max(axis=1) == 0.0) == 5
    return rows


def test_row_space_converges_on_zero_gradient_rows(su6n4_zero_rows):
    rows = su6n4_zero_rows
    basis, marginal = row_space(_unit_rows(rows))
    assert not marginal
    assert np.abs(basis @ basis.T - np.eye(len(basis))).max() < 1e-12
    assert np.abs(rows - (rows @ basis.T) @ basis).max() < 1e-8 * np.abs(rows).max()
    # an all-zero matrix has an empty row space
    empty, marginal = row_space(np.zeros((3, 4)))
    assert empty.shape == (0, 4) and not marginal


def test_numerical_rank_drops_zero_gradient_rows_as_row_space_does(su6n4_zero_rows):
    unit = _unit_rows(su6n4_zero_rows)
    basis, marginal = row_space(unit)
    assert tuple(numerical_rank(unit)) == (basis.shape[0], marginal)
    assert tuple(numerical_rank(np.zeros((3, 4)))) == (0, False)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (5, 4), (4, 6)])
def test_the_ddim_rank_is_the_row_space_rank(m, n):
    # verify_completeness decides "ddim" on singular values alone; at each
    # trial's point that must be the rank and flag row_space would give
    space = ProductSpace(build_algebra("su", m), n)
    ctx = ClaimContext(space, seed=42, trials=7)
    flag = flag_shift_family(space)
    for family in (flag, restrict_family(space, flag)):
        for trial in range(ctx.trials):
            _, X, _ = next(_gated_draws(ctx._points, [ctx.seed, trial], family.domain))
            unit = _unit_rows(family.gradients(X).reshape(len(family), -1))
            basis, marginal = row_space(unit)
            assert tuple(numerical_rank(unit)) == (basis.shape[0], marginal)


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"trials": 0}, "trials"),
        ({"tol_bracket": 0.0}, "tol_bracket"),
        ({"tol_bracket": float("nan")}, "tol_bracket"),
        ({"policy": RankPolicy(rel_tol=0.0)}, "policy.rel_tol"),
        ({"seed": -1}, "seed"),
    ],
)
def test_claim_context_rejects_unusable_settings(su2n3, settings, named):
    with pytest.raises(ConfigurationError, match=named):
        ClaimContext(su2n3, **settings)


def test_tolerances_feed_policy():
    space = ProductSpace(build_algebra("su", 2), 3)
    ctx = ClaimContext(space=space, policy=RankPolicy(rel_tol=1e-6))
    assert ctx.policy.rel_tol == 1e-6
    assert ctx.weights() == (1.0, 2.0, 3.0)


def test_certificate_report_is_frozen(su2n3):
    report = verify_lemma1(ClaimContext(su2n3, trials=2))[0]
    assert isinstance(report, CertificateReport)
    with pytest.raises(AttributeError):
        report.passed = False
