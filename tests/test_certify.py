"""Certification layer: sampling gates, rank estimates, claim reports."""

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
    describe_claims,
    flag_rank_target,
    generic_point,
    lemma1_targets,
    restricted_rank_target,
    run_claims,
    verify_completeness,
    verify_lemma1,
    verify_span_inclusion,
)
from flagshift.certify import _draw, _measure_at_generic_points
from flagshift.errors import ConfigurationError, GenericityError
from flagshift.families import (
    PolynomialFamily,
    coordinate_member,
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    restrict_family,
    restrict_member,
)
from flagshift.ranks import RankPolicy


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
    assert witnesses == [{"trial": 0, "retries": k}]
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


def test_check_involutive_pass_and_control(su2n3):
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


def test_check_ad_invariance_pass_and_control(su2n3):
    report = check_ad_invariance(ClaimContext(su2n3, trials=2), flag_shift_family(su2n3))
    assert report.passed

    control = PolynomialFamily(
        "control", "g", (coordinate_member(su2n3, 0, np.array([1.0, 0.0, 0.0])),)
    )
    bad = check_ad_invariance(ClaimContext(su2n3, trials=2), control)
    assert not bad.passed
    assert bad.measured_value > 1e-2


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
    merged = flag_momentum_family(su2n3, shift)
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


def test_verify_span_inclusion_pass_and_control(su2n3):
    fam = restrict_family(su2n3, flag_shift_family(su2n3))
    report = verify_span_inclusion(ClaimContext(su2n3, trials=3), fam)
    assert report.passed

    # A restricted pairing member is a false control: its projected gradient
    # satisfies both span conditions (the blockwise bracket sum telescopes to
    # zero on v).  A linear coordinate member leaves the span.
    control = PolynomialFamily(
        "control_v", "v", (restrict_member(su2n3, coordinate_member(su2n3, 0, 0)),)
    )
    bad = verify_span_inclusion(ClaimContext(su2n3, trials=3), control)
    assert not bad.passed

    with pytest.raises(ConfigurationError):
        verify_span_inclusion(ClaimContext(su2n3), flag_shift_family(su2n3))


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
    assert set(describe_claims()) == set(CLAIM_IDS)


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
@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize(
    "m, n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (5, 4), (6, 3), (7, 3), (8, 3)]
)
def test_every_claim_passes_on_the_stated_envelope(m, n, seed):
    # every claim, the Gaudin field identity and its 10^4-step flow included
    reports = run_claims(ClaimContext(space=ProductSpace(build_algebra("su", m), n), seed=seed), ["all"])
    assert [r.claim_id for r in reports if not r.passed] == []
    assert len(reports) == 14


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"trials": 0}, "trials"),
        ({"tol_bracket": 0.0}, "tol_bracket"),
        ({"tol_bracket": float("nan")}, "tol_bracket"),
        ({"policy": RankPolicy(rel_tol=0.0)}, "policy.rel_tol"),
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
