"""End-to-end checks of the command line front end, run in process."""

import json
import os

import pytest

from flagshift import cli
from flagshift.cli import main
from flagshift.errors import ConfigurationError
from flagshift.families import spectral_weights


def _strip_timestamp(document: dict) -> dict:
    trimmed = dict(document)
    trimmed.pop("generated_at", None)
    return trimmed


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_certify_writes_document(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", "--algebra", "su2", "--n", "3",
                 "--claims", "lemma1", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    assert "2/2 certificates passed" in captured

    document = _read_json(out)
    assert set(document) == {"generated_at", "config", "claims"}
    assert document["config"]["algebra"] == "su2"
    assert document["config"]["n"] == 3
    assert document["config"]["claims"] == ["lemma1"]
    assert len(document["claims"]) == 2
    for row in document["claims"]:
        assert set(row) >= {"claim_id", "algebra", "n", "seed", "trials",
                            "formula_value", "measured_value", "tolerance", "pass"}
        assert row["pass"] is True


def test_certify_is_reproducible(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["certify", "--algebra", "su2", "--n", "3", "--claims", "lemma1,dimB"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert _strip_timestamp(_read_json(first)) == _strip_timestamp(_read_json(second))


def test_certify_flag_beats_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 7, "trials": 3, "claims": "lemma1"}))
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", str(config), "--seed", "9",
                 "--out", str(out)]) == 0
    document = _read_json(out)
    assert document["config"]["seed"] == 9
    assert document["config"]["trials"] == 3
    assert document["config"]["claims"] == ["lemma1"]


def test_certify_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("FLAGSHIFT_SEED", "11")
    out = tmp_path / "cert.json"
    assert main(["certify", "--claims", "lemma1", "--out", str(out)]) == 0
    assert _read_json(out)["config"]["seed"] == 11

    monkeypatch.setenv("FLAGSHIFT_SEED", "eleven")
    assert main(["certify", "--claims", "lemma1"]) == 2


def test_env_seed_is_read_only_when_nothing_else_sets_the_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLAGSHIFT_SEED", "eleven")
    summary = tmp_path / "flow.json"
    assert main(["flow", "--seed", "3", "--t-end", "0.01", "--summary", str(summary)]) == 0
    assert _read_json(summary)["config"]["seed"] == 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5}))
    out = tmp_path / "cert.json"
    assert main(["certify", "--claims", "lemma1", "--config", str(config), "--out", str(out)]) == 0
    assert _read_json(out)["config"]["seed"] == 5
    # the environment is the source of the seed: its bad value is still an error
    assert main(["flow", "--t-end", "0.01"]) == 2
    assert "FLAGSHIFT_SEED must be an integer, got 'eleven'" in capsys.readouterr().err


def test_certify_rejects_bad_input(capsys):
    assert main(["certify", "--algebra", "so3", "--claims", "lemma1"]) == 2
    assert main(["certify", "--claims", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_report_orders_failures_first(tmp_path, capsys):
    row = {"claim_id": "lemma1.ddim", "algebra": "su2", "n": 3, "seed": 42,
           "trials": 7, "formula_value": 3, "measured_value": 3,
           "tolerance": 0, "pass": True, "witnesses": []}
    bad = dict(row, claim_id="zzz.controlled_failure", measured_value=4, **{"pass": False})
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"claims": [row, bad]}))

    assert main(["report", str(doc)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert lines[2].startswith("zzz.controlled_failure")
    assert "FAIL" in lines[2]
    assert lines[3].startswith("lemma1.ddim")
    assert "1/2 certificates passed" in lines[-1]


def test_certify_genericity_error_names_claim_and_seed(tmp_path, capsys):
    # at tol_rank 0.09 the marginal band is (0.009, 0.9) times the largest
    # singular value, and every draw at seed 42 has a spectrum inside it
    out = tmp_path / "cert.json"
    code = main(["certify", "--algebra", "su2", "--n", "3", "--claims", "lemma1",
                 "--tol-rank", "0.09", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "claim lemma1" in err
    assert "[42, 0, r]" in err
    # The failed claim is a FAIL record in a written document.
    (row,) = json.loads(out.read_text())["claims"]
    assert row["claim_id"] == "lemma1" and row["pass"] is False
    assert "[42, 0, r]" in row["error"]


def test_certify_linalg_error_is_a_fail_record(tmp_path, capsys, monkeypatch):
    # The values-only rank SVD of one claim fails to converge, as LAPACK gesdd
    # can on a finite matrix: one FAIL record, and the other claims still report.
    import numpy as np

    from flagshift import certify, ranks

    svd = np.linalg.svd

    def no_convergence(a, compute_uv=True, **kwargs):
        if not compute_uv:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, compute_uv=compute_uv, **kwargs)

    def thm2ii(ctx):
        with monkeypatch.context() as patch:
            patch.setattr(ranks.np.linalg, "svd", no_convergence)
            return original(ctx)

    original = certify._REGISTRY["thm2ii"]
    monkeypatch.setitem(certify._REGISTRY, "thm2ii", thm2ii)
    out = tmp_path / "cert.json"
    code = main(["certify", "--algebra", "su2", "--n", "3", "--claims", "all",
                 "--trials", "2", "--out", str(out)])
    assert code == 1
    assert "not measured: claim thm2ii: LinAlgError: SVD did not converge" in capsys.readouterr().err
    rows = json.loads(out.read_text())["claims"]
    failed = [row for row in rows if not row["pass"]]
    assert [row["claim_id"] for row in failed] == ["thm2ii"]
    assert failed[0]["error"] == (
        "claim thm2ii: LinAlgError: SVD did not converge (seed entropy [42, 0, 0])"
    )
    claims = {row["claim_id"].split(".")[0] for row in rows}
    assert claims == {"lemma1", "thm2i", "thm2ii", "dimB", "thm3", "gaudin"}


def test_tol_drift_flag_is_gone(tmp_path):
    # No certificate read it; the flag and its config echo are removed.
    assert main(["certify", "--claims", "lemma1", "--tol-drift", "1e-7"]) == 2
    out = tmp_path / "cert.json"
    assert main(["certify", "--claims", "lemma1", "--out", str(out)]) == 0
    assert "tol_drift" not in json.loads(out.read_text())["config"]


def test_config_keys_no_command_reads_are_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tol_drift": 1e-3, "bogus": 1, "claims": "lemma1"}))
    assert main(["certify", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "'bogus'" in err and "'tol_drift'" in err

    # A key another subcommand reads is still unread here.
    config.write_text(json.dumps({"trials": 2, "t_end": 0.1}))
    assert main(["flow", "--config", str(config)]) == 2
    assert "'trials'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--model", "einstein", "--a", "1,2,3", "--t", "9,9"], "--t, --a"),
        (["--model", "einstein", "--q", "1"], "--q"),
        (["--model", "einstein", "--p", "auto", "--s", "2"], "--s"),
        (["--model", "normal", "--p", "3"], "--p"),
        (["--model", "novi", "--a", "1,2,3"], "--a"),
        (["--model", "gaudin", "--s", "1,1"], "--s"),
    ],
)
def test_flow_rejects_parameters_the_model_does_not_read(argv, named, capsys):
    assert main(["flow", "--t-end", "0.01"] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"does not read {named}" in err


def test_flow_model_parameters_from_config_are_checked(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "gaudin", "s": "1,2"}))
    assert main(["flow", "--config", str(config), "--t-end", "0.01"]) == 2
    assert "config key 's'" in capsys.readouterr().err

    # With an explicit p the einstein model reads q and s.
    config.write_text(json.dumps({"model": "einstein", "p": "2.0", "q": "1.0", "s": "1.5"}))
    assert main(["flow", "--config", str(config), "--t-end", "0.01"]) == 0


def test_certify_all_document_shape(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--algebra", "su2", "--n", "3", "--claims", "all",
                 "--seed", "42", "--out", str(out)]) == 0
    residual = {"residual", "retries", "trial"}
    ranks = {"ddim", "dind", "retries", "trial"}
    ddim = {"ddim", "retries", "trial"}
    expected = [
        ("lemma1.ddim", 3, ranks),
        ("lemma1.dind", 3, ranks),
        ("thm2i.involutive", None, residual),
        ("thm2i.ad_invariance", None, residual),
        ("thm2ii.completeness_sum", 12, {"central_rank", "ddim", "retries", "trial"}),
        ("dimB.ddim", 5, ddim),
        ("thm3.ddim", 3, ddim),
        ("thm3.involutive", None, residual),
        ("thm3.span_inclusion", None,
         {"constructions_agree", "defect", "max_angle", "retries", "span_dim", "trial"}),
        ("gaudin.field_identity", None, residual),
        ("gaudin.involutive", None, residual),
        ("gaudin.involutive_pencil", None, residual),
        ("gaudin.ddim_restricted", 3, ddim),
        ("gaudin.momentum_drift", None, {"aborted", "dt", "t_end"}),
    ]
    rows = _read_json(out)["claims"]
    assert [row["claim_id"] for row in rows] == [claim for claim, *_ in expected]
    for row, (claim, measured, keys) in zip(rows, expected):
        assert row["pass"] is True, claim
        if measured is not None:
            assert row["measured_value"] == measured, claim
        assert row["witnesses"], claim
        assert all(set(w) == keys for w in row["witnesses"]), claim
    assert rows[-1]["witnesses"] == [{"t_end": 10.0, "dt": 1e-3, "aborted": False}]

    # Every row reads its settings from the run: 7 trials at seed 42, the
    # integer claims exact, the residuals at the bracket tolerance, and the
    # gaudin field identity and momentum drift at their fixed settings.
    trials = {"gaudin.field_identity": 10, "gaudin.momentum_drift": 1}
    tolerance = {"gaudin.field_identity": 1e-11, "gaudin.momentum_drift": 1e-8}
    for row, (claim, measured, _) in zip(rows, expected):
        assert row["seed"] == 42, claim
        assert row["trials"] == trials.get(claim, 7), claim
        assert row["tolerance"] == tolerance.get(claim, 0.0 if measured else 1e-9), claim


def test_certify_flags_reach_every_row(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--claims", "lemma1,thm3", "--trials", "3", "--tol-rank", "1e-6",
                 "--tol-bracket", "1e-10", "--seed", "7", "--out", str(out)]) == 0
    document = _read_json(out)
    assert document["config"]["tol_rank"] == 1e-6
    assert document["config"]["tol_bracket"] == 1e-10
    rows = document["claims"]
    assert [row["claim_id"] for row in rows] == [
        "lemma1.ddim", "lemma1.dind", "thm3.ddim", "thm3.involutive", "thm3.span_inclusion",
    ]
    for row in rows:
        assert row["trials"] == 3 and row["seed"] == 7, row["claim_id"]
        assert len(row["witnesses"]) == 3, row["claim_id"]
        residual = row["claim_id"] in ("thm3.involutive", "thm3.span_inclusion")
        assert row["tolerance"] == (1e-10 if residual else 0.0), row["claim_id"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--trials", "0", "--claims", "thm2i"], "trials"),
        (["--trials", "0", "--claims", "lemma1"], "trials"),
        (["--tol-bracket", "0", "--claims", "lemma1"], "tol_bracket"),
        (["--tol-rank=-1e-8", "--claims", "lemma1"], "tol_rank"),
    ],
)
def test_certify_rejects_settings_no_certificate_can_use(argv, named, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not out.exists()


def test_config_values_of_the_wrong_type_are_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": "3x", "claims": "lemma1"}))
    assert main(["certify", "--config", str(config)]) == 2
    assert "config key 'n'" in capsys.readouterr().err

    config.write_text(json.dumps({"tol_bracket": [1e-9], "claims": "lemma1"}))
    assert main(["certify", "--config", str(config)]) == 2
    assert "config key 'tol_bracket'" in capsys.readouterr().err

    # Only a JSON boolean switches the slice on or off; "false" is no boolean.
    config.write_text(json.dumps({"restrict_v": "false", "model": "einstein"}))
    assert main(["flow", "--config", str(config), "--t-end", "0.01"]) == 2
    assert "config key 'restrict_v'" in capsys.readouterr().err

    config.write_text(json.dumps({"model": "einstein", "p": "2.0", "q": "one"}))
    assert main(["flow", "--config", str(config), "--t-end", "0.01"]) == 2
    assert "einstein parameter q" in capsys.readouterr().err

    # Numbers and numeric strings still convert.
    config.write_text(json.dumps({"n": "3", "trials": 2, "tol_rank": 1e-8, "claims": "lemma1"}))
    assert main(["certify", "--config", str(config)]) == 0


def test_gaudin_weights_need_the_gaudin_claim(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gaudin_weights": [1, 2, 3], "claims": "lemma1"}))
    assert main(["certify", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "'gaudin_weights'" in err

    config.write_text(json.dumps({"gaudin_weights": [1, "x", 3], "claims": "gaudin"}))
    assert main(["certify", "--config", str(config)]) == 2
    assert "config key 'gaudin_weights'" in capsys.readouterr().err


def test_the_config_echoes_gaudin_weights_only_when_set(tmp_path):
    # the document alone shows which spectral weights the gaudin claim certified
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gaudin_weights": [1, 2, 4], "claims": "gaudin", "trials": 2}))
    weighted, default = tmp_path / "weighted.json", tmp_path / "default.json"
    assert main(["certify", "--config", str(config), "--out", str(weighted)]) == 0
    assert main(["certify", "--claims", "gaudin", "--trials", "2", "--out", str(default)]) == 0
    assert _read_json(weighted)["config"]["gaudin_weights"] == [1.0, 2.0, 4.0]
    assert "gaudin_weights" not in _read_json(default)["config"]


def test_certify_refuses_repeated_gaudin_weights_before_any_document(tmp_path, capsys):
    # su(3)^3 with weights 1, 1, 2 measured 2 against 7 and gave no reason
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gaudin_weights": [1, 1, 2]}))
    out = tmp_path / "cert.json"
    argv = ["certify", "--claims", "gaudin", "--algebra", "su3", "--n", "3", "--config", str(config)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "needs distinct gaudin_weights" in err and "weight 1 repeats at blocks 0, 1, which share one pole" in err
    assert not out.exists()
    # the flow of that model still runs
    summary = tmp_path / "summary.json"
    flow = ["flow", "--model", "gaudin", "--a", "1,1,2", "--t-end", "0.01", "--summary", str(summary)]
    assert main(flow) == 0 and summary.exists()


def test_certify_refuses_a_tol_rank_whose_marginal_band_holds_every_spectrum(tmp_path, capsys):
    # rel_tol * margin >= 1 flagged every draw marginal: nan FAIL records
    argv = ["certify", "--claims", "dimB,thm2i", "--algebra", "su2", "--n", "3"]
    for tol, band in (("0.1", "(0.01, 1)"), ("0.5", "(0.05, 5)")):
        out = tmp_path / f"{tol}.json"
        assert main(argv + ["--tol-rank", tol, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"must be below 1 / margin = 0.1, got {tol}: its marginal band {band}" in err
        assert not out.exists()
    out = tmp_path / "0.05.json"
    assert main(argv + ["--tol-rank", "0.05", "--out", str(out)]) in (0, 1)
    assert _read_json(out)["config"]["tol_rank"] == 0.05


_BAD_WEIGHTS = {"inf": "1,inf,2", "nan": "1,nan,2", "zero": "1,0,2", "subnormal": "1,1e-320,2", "short": "1,2"}


def _weights_message(text: str) -> str:
    with pytest.raises(ConfigurationError) as raised:
        spectral_weights(3, [float(a) for a in text.split(",")])
    return f"configuration error: {raised.value}"


@pytest.mark.parametrize("text", _BAD_WEIGHTS.values(), ids=_BAD_WEIGHTS.keys())
def test_flow_refuses_bad_spectral_weights(tmp_path, capsys, monkeypatch, text):
    monkeypatch.setattr(cli.dynamics, "integrate", lambda flow: pytest.fail("integrated"))
    code = main(["flow", "--model", "gaudin", "--a", text, "--t-end", "0.1",
                 "--csv", str(tmp_path / "flow.csv"), "--summary", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err.strip() == _weights_message(text)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", _BAD_WEIGHTS.values(), ids=_BAD_WEIGHTS.keys())
def test_certify_refuses_bad_gaudin_weights(tmp_path, capsys, monkeypatch, text):
    # refused before any claim runs: no document, no FAIL record
    monkeypatch.setattr(cli, "run_claims", lambda ctx, claims: pytest.fail("claims ran"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gaudin_weights": text.split(","), "claims": "all"}))
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == _weights_message(text)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_report_prints_non_finite_values(tmp_path, capsys):
    row = {"claim_id": "thm3.span_inclusion", "algebra": "su2", "n": 3, "seed": 42,
           "trials": 7, "formula_value": 0.0, "measured_value": float("inf"),
           "tolerance": 1e-9, "pass": False, "witnesses": []}
    nan_row = dict(row, claim_id="thm3.nan_probe", measured_value=float("nan"))
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"claims": [row, nan_row]}))
    assert '"measured_value": Infinity' in doc.read_text()

    assert main(["report", str(doc)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert lines[2].startswith("thm3.nan_probe")
    assert lines[2].split()[3] == "nan" and lines[2].endswith("FAIL")
    assert lines[3].startswith("thm3.span_inclusion")
    assert lines[3].split()[3] == "inf" and lines[3].endswith("FAIL")
    assert "0/2 certificates passed" in lines[-1]


def _strict_json(text: str):
    """Parse RFC 8259 JSON, which has no NaN or Infinity tokens."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_a_failure_record_is_strict_json_with_null_numbers(tmp_path, capsys):
    out = tmp_path / "nan.json"
    argv = ["certify", "--claims", "lemma1", "--algebra", "su2", "--n", "3", "--tol-rank", "0.09"]
    assert main(argv + ["--out", str(out)]) == 1
    (row,) = _strict_json(out.read_text())["claims"]
    assert row["pass"] is False and "error" in row
    assert row["formula_value"] is None and row["measured_value"] is None
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("lemma1")]
    assert line.split()[3:5] == ["n/a", "n/a"] and line.endswith("FAIL")


def test_non_finite_residuals_witnesses_and_drifts_are_null(tmp_path, monkeypatch):
    from flagshift import certify, dynamics

    def thm3(ctx):
        inf, nan = float("inf"), float("nan")
        witness = {"trial": 0, "retries": 0, "defect": nan, "max_angle": 0.5, "constructions_agree": False}
        return [
            certify.CertificateReport("thm3.span_inclusion", "su2", 3, 42, 1, 0.0, inf, 1e-9, False, (witness,)),
            certify.CertificateReport("thm3.involutive", "su2", 3, 42, 1, 0.0, nan, 1e-9, False, ()),
        ]

    monkeypatch.setitem(certify._REGISTRY, "thm3", thm3)
    out = tmp_path / "cert.json"
    assert main(["certify", "--claims", "thm3", "--out", str(out)]) == 1
    rows = _strict_json(out.read_text())["claims"]
    assert [row["measured_value"] for row in rows] == [None, None]
    assert rows[0]["witnesses"][0]["defect"] is None and rows[0]["witnesses"][0]["max_angle"] == 0.5

    monkeypatch.setattr(dynamics, "momentum_drift", lambda trajectory: float("nan"))
    summary = tmp_path / "summary.json"
    assert main(["flow", "--t-end", "0.01", "--summary", str(summary)]) == 0
    assert _strict_json(summary.read_text())["momentum_drift"] is None


def _never(*args, **kwargs):
    raise AssertionError("no space is built and no claim or flow runs")


@pytest.fixture
def no_work(monkeypatch):
    """Building a space, running claims or integrating a flow fails the test."""
    for name in ("_build_space", "run_claims"):
        monkeypatch.setattr(cli, name, _never)
    monkeypatch.setattr(cli.dynamics, "integrate", _never)


_OUTPUT_FLAGS = pytest.mark.parametrize(
    "argv",
    [["certify", "--claims", "lemma1", "--out"], ["flow", "--t-end", "0.01", "--csv"],
     ["flow", "--t-end", "0.01", "--summary"]],
    ids=["certify-out", "flow-csv", "flow-summary"],
)


@_OUTPUT_FLAGS
def test_an_output_directory_that_does_not_exist_is_refused_first(argv, tmp_path, capsys, no_work):
    path = tmp_path / "missing" / "dir" / "out.file"
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == f"configuration error: cannot write {path}: its directory does not exist\n"
    assert list(tmp_path.iterdir()) == []


@_OUTPUT_FLAGS
def test_an_output_path_that_is_a_directory_is_refused_first(argv, tmp_path, capsys, no_work):
    assert main(argv + [str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: cannot write {tmp_path}: it is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("summary", ["same.out", "./same.out", "link.out"])
def test_csv_and_summary_naming_one_file_are_refused_first(summary, tmp_path, capsys, monkeypatch, no_work):
    # the summary would replace the CSV, and the writer process would race it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.out").symlink_to(tmp_path / "same.out")
    argv = ["flow", "--algebra", "su2", "--n", "3", "--t-end", "0.1", "--csv", "same.out", "--summary", summary]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: cannot write {summary}: another output names the same file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out"]


def test_flow_with_a_csv_forks_one_writer_and_leaves_no_child(tmp_path, monkeypatch, cpus):
    cpus(2)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ["flow", "--model", "einstein", "--restrict-v", "--algebra", "su3", "--n", "4", "--t-end", "1"]
    assert main(argv + ["--csv", str(tmp_path / "forked.csv")]) == 0
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # without os.fork the same chunk consumer writes the same bytes in-process
    monkeypatch.delattr(os, "fork")
    assert main(argv + ["--csv", str(tmp_path / "in_process.csv")]) == 0
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["forked.csv", "in_process.csv"]


def test_a_thm3_fail_record_prints_the_same_with_and_without_the_fork(tmp_path, capsys, monkeypatch, cpus):
    # thm3's span cross-check fails to converge in the forked thm3 child, and then in-process
    import numpy as np

    from flagshift import certify

    def diverged(space, X, policy):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(certify, "tangent_span_orthocomplement", diverged)
    cpus(2)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    out = tmp_path / "cert.json"
    argv = ["certify", "--algebra", "su2", "--n", "3", "--claims", "dimB,thm3", "--trials", "2", "--out", str(out)]
    runs = []
    for _ in range(2):
        code = main(argv)
        runs.append((code, *capsys.readouterr(), _strip_timestamp(_read_json(out))))
        monkeypatch.delattr(os, "fork", raising=False)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert runs[0] == runs[1]
    code, _, err, document = runs[0]
    assert code == 1
    assert err == "not measured: claim thm3: LinAlgError: SVD did not converge (seed entropy [42, 0, 0])\n"
    assert [row["claim_id"] for row in document["claims"]] == ["dimB.ddim", "thm3"]


def test_a_flow_whose_records_cannot_be_allocated_is_refused_first(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    for stepper in ("_coupled_steps", "_kernel_steps"):
        monkeypatch.setattr(cli.dynamics, stepper, lambda *args: pytest.fail("stepped"))
    argv = ["flow", "--algebra", "su2", "--n", "3", "--t-end", "1e9", "--csv", str(tmp_path / "flow.csv")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "configuration error: the flow records 100000000001 states (1000000000000 steps at stride 10), "
        "whose times, states and monitor series need 16000000000160 bytes (14901.2 GiB), more than can be "
        "allocated; raise stride or lower t_end\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1e-3", "1e-300"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_tol_bracket_is_refused_when_no_selected_claim_reads_it(source, value, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_claims", _never)
    out, config = tmp_path / "cert.json", tmp_path / "config.json"
    argv = ["certify", "--claims", "dimB,lemma1", "--algebra", "su2", "--n", "3", "--trials", "2", "--out", str(out)]
    if source == "flag":
        argv += ["--tol-bracket", value]
    else:
        config.write_text(json.dumps({"tol_bracket": float(value)}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    named = "--tol-bracket" if source == "flag" else "config key 'tol_bracket'"
    assert capsys.readouterr().err == (
        f"configuration error: {named} is read only by claims thm2i, thm3, gaudin, none of which is selected\n"
    )
    assert not out.exists()
    # any one claim that reads it lets it through
    monkeypatch.setattr(cli, "run_claims", lambda ctx, claims: [])
    for claim in ("thm2i", "thm3", "gaudin"):
        assert main(argv[:2] + [f"dimB,{claim}"] + argv[3:]) == 0


@pytest.mark.parametrize(
    "argv, gaudin_weights, message",
    [
        (["--claims", "dimB", "--tol-bracket", "1e-3"], None, "--tol-bracket is read only by claims"),
        (["--n", "2", "--claims", "thm3"], None, "claims thm3 need n >= 3"),
        (["--claims", "gaudin"], [1, 1, 2], "weight 1 repeats at blocks 0, 1, which share one pole"),
    ],
    ids=["tol-bracket", "slice-at-n-2", "repeated-weights"],
)
def test_certify_refuses_a_request_before_building_the_algebra(argv, gaudin_weights, message, tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.setattr(cli, "_build_space", _never)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3} if gaudin_weights is None else {"gaudin_weights": gaudin_weights}))
    assert main(["certify", "--algebra", "su10", "--config", str(config)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


@pytest.mark.parametrize(
    "argv, code",
    [(["--claims", "lemma1,thm2i", "--trials", "2"], 0),
     (["--claims", "lemma1,thm2i", "--trials", "2", "--tol-bracket", "1e-300"], 1),
     (["--claims", "lemma1,thm2i,dimB", "--trials", "2", "--tol-rank", "0.09"], 1)],
    ids=["passing", "failing", "not-measured"],
)
def test_report_prints_the_table_count_and_exit_code_certify_printed(argv, code, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--out", str(out)] + argv) == code
    certified = capsys.readouterr().out.splitlines()
    assert main(["report", str(out)]) == code
    reported = capsys.readouterr().out.splitlines()
    # report lists failures first and then by claim id; the lines themselves are the same
    assert reported[:2] == certified[:2] and reported[-1] == certified[-1]
    assert sorted(reported[2:-1]) == sorted(certified[2:-1]) and len(reported) > 3


def test_report_all_passing(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--claims", "lemma1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "2/2 certificates passed" in capsys.readouterr().out


def test_report_without_claims(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["report", str(empty), str(tmp_path / "missing.json")]) == 2
    assert "no claims found" in capsys.readouterr().err


def test_flow_einstein_on_slice(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    summary_path = tmp_path / "summary.json"
    code = main(["flow", "--algebra", "su2", "--n", "3", "--model", "einstein",
                 "--restrict-v", "--t-end", "0.5", "--csv", str(csv_path),
                 "--summary", str(summary_path)])
    assert code == 0
    assert "einstein flow on su2^3 (zero-momentum slice)" in capsys.readouterr().out

    summary = _read_json(summary_path)
    assert summary["config"]["model"] == "einstein"
    assert summary["aborted"] is False
    assert summary["final_time"] == pytest.approx(0.5)
    assert max(summary["drift"].values()) < 1e-9
    assert summary["momentum_drift"] < 1e-9
    assert summary["closed_form_residual"] < 1e-9
    assert summary["momentum_norm_max"] < 1e-9

    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("t,b1_1")
    # header, the t=0 record, then one record per ten of the 500 steps
    assert len(lines) == 1 + 1 + 500 // 10


@pytest.mark.parametrize("source", ["flag", "config"])
def test_flow_on_the_slice_at_n2_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, source):
    # at n = 2 the slice holds only (x, -x), so no draw could pass the gates
    monkeypatch.setattr(cli, "generic_point", lambda *args, **kwargs: pytest.fail("drew a point"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restrict_v": True}))
    argv = ["flow", "--model", "einstein", "--n", "2", "--csv", str(tmp_path / "t.csv"),
            "--summary", str(tmp_path / "s.json")]
    argv += ["--restrict-v"] if source == "flag" else ["--config", str(config)]
    assert main(argv) == 2
    named = "--restrict-v" if source == "flag" else "config key 'restrict_v'"
    reason = "(at n = 2 the zero-momentum slice has no generic point)"
    assert capsys.readouterr().err == f"configuration error: {named} needs n >= 3 {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    # the reason certify gives for its slice claims at n = 2
    assert main(["certify", "--claims", "lemma1", "--n", "2"]) == 2
    assert reason in capsys.readouterr().err


def test_flow_gaudin_summary(tmp_path):
    summary_path = tmp_path / "summary.json"
    code = main(["flow", "--model", "gaudin", "--a", "1,2,3", "--t-end", "0.2",
                 "--summary", str(summary_path)])
    assert code == 0
    summary = _read_json(summary_path)
    assert summary["config"]["model"] == "gaudin"
    assert summary["config"]["params"]["a"] == [1.0, 2.0, 3.0]
    assert max(summary["drift"].values()) < 1e-10
    assert "closed_form_residual" not in summary


def test_flow_gaudin_with_repeated_weights(tmp_path):
    # blocks with equal weights share one pole of the monitored family
    summary_path = tmp_path / "summary.json"
    code = main(["flow", "--model", "gaudin", "--a", "1,1,2", "--algebra", "su2", "--n", "3",
                 "--t-end", "1", "--summary", str(summary_path)])
    assert code == 0
    summary = _read_json(summary_path)
    assert len(summary["drift"]) == 1 + 4
    assert max(summary["drift"].values()) <= 1e-7


def test_certify_at_n_2_refuses_slice_claims(tmp_path, capsys):
    out = tmp_path / "cert.json"
    argv = ["certify", "--algebra", "su2", "--n", "2", "--out", str(out)]
    assert main(argv + ["--claims", "all"]) == 2
    err = capsys.readouterr().err
    assert "lemma1, thm3, gaudin need n >= 3" in err and "thm2i, thm2ii, dimB apply" in err
    assert not out.exists()
    assert main(argv + ["--claims", "thm2i,thm2ii,dimB"]) == 0
    rows = _read_json(out)["claims"]
    assert [row["claim_id"] for row in rows] == [
        "thm2i.involutive", "thm2i.ad_invariance", "thm2ii.completeness_sum", "dimB.ddim",
    ]


def test_flow_rejects_bad_input(capsys):
    assert main(["flow", "--model", "einstein", "--p", "2.0", "--t-end", "0.1"]) == 2
    assert "needs --q" in capsys.readouterr().err
    assert main(["flow", "--model", "warp"]) == 2
    assert main(["flow", "--model", "novi", "--s", "1,bad"]) == 2


def test_flow_rejects_t_end_off_the_step_grid(tmp_path, capsys):
    # 0.4 of a step used to run zero steps and exit 0; 1.0 at dt 0.3 stopped at 0.9
    summary = tmp_path / "summary.json"
    for t_end, dt in (("4e-4", "1e-3"), ("1", "0.3")):
        assert main(["flow", "--t-end", t_end, "--dt", dt, "--summary", str(summary)]) == 2
        assert "not a whole number of dt" in capsys.readouterr().err
    assert not summary.exists()


def test_usage_error_exit_code():
    assert main(["unknown-subcommand"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("route", ["flag", "config", "env"])
@pytest.mark.parametrize("command", [["certify", "--claims", "lemma1"], ["flow", "--t-end", "0.01"]],
                         ids=["certify", "flow"])
def test_negative_seeds_are_configuration_errors(command, route, tmp_path, monkeypatch, capsys):
    argv = list(command)
    if route == "flag":
        argv += ["--seed", "-1"]
    elif route == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("FLAGSHIFT_SEED", "-1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: seed must be a non-negative integer, got -1" in err
    # a later valid flag wins over the first flag, the file and the environment
    assert main(argv + ["--seed", "0"]) == 0


def test_an_empty_claim_selection_is_refused(tmp_path, capsys):
    out = tmp_path / "cert.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"claims": []}))
    for argv in (["--claims", ","], ["--claims", ""], ["--config", str(config)]):
        assert main(["certify", "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert "no claims selected" in err and "lemma1" in err and "gaudin" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "document",
    [
        [{"claims": []}],
        {"claims": 5},
        {"claims": [{"claim_id": "lemma1.ddim", "algebra": "su2"}]},
        {"claims": [{"claim_id": 5, "algebra": "su2", "n": 3, "measured_value": 3, "formula_value": 3,
                     "tolerance": 0, "pass": True}]},
        {"claims": [{"claim_id": "lemma1.ddim", "algebra": "su2", "n": 3, "measured_value": None,
                     "formula_value": 3, "tolerance": 0, "pass": True}]},
    ],
    ids=["top-level-array", "claims-not-a-list", "row-without-pass", "claim-id-not-a-string", "null-on-a-pass"],
)
def test_report_skips_documents_it_cannot_render(document, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"skipping {bad}: " in err and "no claims found" in err

    good = tmp_path / "good.json"
    assert main(["certify", "--claims", "lemma1", "--out", str(good)]) == 0
    capsys.readouterr()
    assert main(["report", str(bad), str(good)]) == 0
    captured = capsys.readouterr()
    assert f"skipping {bad}: " in captured.err
    assert "2/2 certificates passed" in captured.out
