"""Command line front end.

Three subcommands:

* ``certify``  runs claim certificates and writes a JSON document,
* ``flow``     integrates one of the quadratic flows and writes CSV / summary,
* ``report``   renders previously written JSON documents as a table.

Exit codes: 0 success, 1 failed claims or failed runs, 2 usage and
configuration errors.  Output files are written atomically, into a
directory that must exist before any work starts, and JSON documents are
strict: a number that is not finite is written as null.  Identical
configuration and seed produce byte-identical output apart from the
``generated_at`` timestamp.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import os
import re
import sys

import numpy as np

from . import dynamics
from .algebra import build_algebra
from .certify import BRACKET_CLAIMS, CLAIM_IDS, ClaimContext, check_request, generic_point, run_claims
from .errors import ConfigurationError, GenericityError
from .families import flag_shift_family, gaudin_family
from .product import ProductSpace
from .ranks import RankPolicy

_ENV_SEED = "FLAGSHIFT_SEED"


def _build_space(algebra: str, n: int) -> ProductSpace:
    match = re.fullmatch(r"su(\d+)", algebra)
    if not match:
        raise ConfigurationError(f"unsupported algebra {algebra!r}, expected su<m>")
    return ProductSpace(build_algebra("su", int(match.group(1))), n)


# Config file keys each subcommand reads; any other key is an error.
_COMMON_KEYS = ("algebra", "n", "seed")
_CERTIFY_KEYS = _COMMON_KEYS + ("trials", "claims", "tol_rank", "tol_bracket", "gaudin_weights")
_MODEL_PARAMS = ("s", "t", "a", "p", "q")
_FLOW_KEYS = _COMMON_KEYS + ("model", "restrict_v", "dt", "t_end", "stride") + _MODEL_PARAMS


def _load_config(path: str | None, command: str, keys: tuple[str, ...]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigurationError("config file must hold a JSON object")
    unread = sorted(key for key in config if key not in keys)
    if unread:
        raise ConfigurationError(
            f"{command} does not read config keys: {', '.join(map(repr, unread))}"
        )
    return config


# The JSON types a config value of each kind may take: a boolean for bool,
# a number or numeric string for int and float, text or a number for str.
_ACCEPTS = {bool: (bool,), int: (int, str), float: (int, float, str), str: (str, int, float)}


def _convert(value, kind, name: str):
    """``value`` as ``kind``; a value that is not one is an error naming ``name``."""
    if isinstance(value, _ACCEPTS[kind]) and isinstance(value, bool) == (kind is bool):
        try:
            return kind(value)
        except ValueError:
            pass
    raise ConfigurationError(f"{name} is not a valid {kind.__name__}: {value!r}")


def _pick(flag, config: dict, key: str, fallback, kind=None):
    """Flag wins over config file, config over the built-in default.

    A config value is converted to ``kind`` here, where it is read; flags
    arrive typed.
    """
    if flag is not None:
        return flag
    if key not in config:
        return fallback
    if kind is None:
        return config[key]
    return _convert(config[key], kind, f"config key {key!r}")


def _pick_seed(args: argparse.Namespace, config: dict) -> int:
    """--seed, then config key 'seed', then $FLAGSHIFT_SEED, then 42; it must not be negative.

    The environment is read only when neither the flag nor the file sets the seed.
    """
    seed = _pick(args.seed, config, "seed", None, int)
    if seed is None:
        raw = os.environ.get(_ENV_SEED, "42")
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigurationError(f"{_ENV_SEED} must be an integer, got {raw!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"expected comma separated floats, got {text!r}")


def _check_output_paths(*paths: str | None) -> None:
    """Refuse, before any work is done, an output path that is a directory, whose directory does not
    exist, or that names the same file as another output path."""
    seen = set()
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ConfigurationError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigurationError(f"cannot write {path}: its directory does not exist")
        if os.path.realpath(path) in seen:
            raise ConfigurationError(f"cannot write {path}: another output names the same file")
        seen.add(os.path.realpath(path))


def _finite_or_null(value):
    """``value`` with every float that is not finite replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: str, document: dict) -> None:
    """Write ``document`` atomically as strict JSON (RFC 8259): a number that is not finite is null."""
    with dynamics.atomic_open(path) as handle:
        handle.write(json.dumps(_finite_or_null(document), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _fmt(value) -> str:
    # A number that is not finite is null in a document and in the rows
    # certify prints, and prints as n/a; a hand-written document may still
    # hold Infinity or NaN, which print as inf / nan.
    if value is None:
        return "n/a"
    if isinstance(value, (int, np.integer)) or (np.isfinite(value) and float(value) == int(value)):
        return str(int(value))
    return format(float(value), ".3e")


def _print_claims(rows: list[dict]) -> int:
    """Print the claim table and the "k/N certificates passed" line; the exit code is 1 if any row failed."""
    header = f"{'claim':34} {'algebra':8} {'n':>2} {'measured':>12} {'target':>12} {'tol':>9} status"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['claim_id']:34} {row['algebra']:8} {row['n']:>2} "
            f"{_fmt(row['measured_value']):>12} {_fmt(row['formula_value']):>12} "
            f"{_fmt(row['tolerance']):>9} {'PASS' if row['pass'] else 'FAIL'}"
        )
    failed = sum(1 for row in rows if not row["pass"])
    print(f"{len(rows) - failed}/{len(rows)} certificates passed")
    return 1 if failed else 0


# -- certify ------------------------------------------------------------------


def _cmd_certify(args: argparse.Namespace) -> int:
    config = _load_config(args.config, "certify", _CERTIFY_KEYS)
    _check_output_paths(args.out)
    algebra = _pick(args.algebra, config, "algebra", "su2", str)
    n = _pick(args.n, config, "n", 3, int)
    claims = _pick(args.claims, config, "claims", "all")
    if isinstance(claims, str):
        claims = [c.strip() for c in claims.split(",") if c.strip()]
    if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
        raise ConfigurationError(
            f"config key 'claims' must be a string or a list of strings, got {claims!r}"
        )
    if claims == ["all"]:
        claims = list(CLAIM_IDS)
    weights = config.get("gaudin_weights")
    if weights is not None:
        if "gaudin" not in claims:
            raise ConfigurationError(
                "config key 'gaudin_weights' needs the gaudin claim, which is not selected"
            )
        if not isinstance(weights, list):
            raise ConfigurationError(f"config key 'gaudin_weights' must be a list, got {weights!r}")
        weights = tuple(_convert(w, float, "config key 'gaudin_weights'") for w in weights)
    settings = (
        _pick_seed(args, config),
        _pick(args.trials, config, "trials", 7, int),
        RankPolicy(rel_tol=_pick(args.tol_rank, config, "tol_rank", 1e-8, float)),
        _pick(args.tol_bracket, config, "tol_bracket", 1e-9, float),
        weights,
    )
    check_request(n, claims, *settings)  # before the algebra is built
    if (args.tol_bracket is not None or "tol_bracket" in config) and not set(claims) & set(BRACKET_CLAIMS):
        source = "--tol-bracket" if args.tol_bracket is not None else "config key 'tol_bracket'"
        raise ConfigurationError(
            f"{source} is read only by claims {', '.join(BRACKET_CLAIMS)}, none of which is selected"
        )
    ctx = ClaimContext(_build_space(algebra, n), *settings)
    reports = run_claims(ctx, claims)
    rows = _finite_or_null([report.to_dict() for report in reports])
    for report in reports:
        if report.error is not None:
            print(f"not measured: {report.error}", file=sys.stderr)

    document = {
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "config": {
            "algebra": algebra,
            "n": n,
            "seed": ctx.seed,
            "trials": ctx.trials,
            "claims": claims,
            "tol_rank": ctx.policy.rel_tol,
            "tol_bracket": ctx.tol_bracket,
        },
        "claims": rows,
    }
    if weights is not None:
        document["config"]["gaudin_weights"] = list(weights)
    if args.out:
        _write_json(args.out, document)
    return _print_claims(rows)


# -- flow ---------------------------------------------------------------------


# Model parameters each flow model reads; einstein reads q and s only with an
# explicit p.
_MODEL_READS = {"normal": (), "novi": ("s", "t"), "gaudin": ("a",), "einstein": ("p",)}


def _flow_hamiltonian(args, space: ProductSpace, config: dict):
    model = _pick(args.model, config, "model", "normal", str)
    if model not in _MODEL_READS:
        raise ConfigurationError(f"unknown flow model {model!r}")
    p_text = _pick(args.p, config, "p", "auto", str)
    read = _MODEL_READS[model] + (("q", "s") if model == "einstein" and p_text != "auto" else ())
    unread = [
        f"--{name}" if getattr(args, name) is not None else f"config key {name!r}"
        for name in _MODEL_PARAMS
        if name not in read and (getattr(args, name) is not None or name in config)
    ]
    if unread:
        detail = " with --p auto" if model == "einstein" and p_text == "auto" else ""
        raise ConfigurationError(f"the {model} model{detail} does not read {', '.join(unread)}")

    if model == "normal":
        return dynamics.normal_hamiltonian(space)
    if model == "novi":
        s_text = _pick(args.s, config, "s", None, str)
        t_text = _pick(args.t, config, "t", None, str)
        s = _parse_floats(s_text) if s_text else tuple(1.0 for _ in range(space.n - 1))
        t = _parse_floats(t_text) if t_text else tuple(0.5 for _ in range(space.n - 1))
        return dynamics.novi_hamiltonian(space, s, t)
    if model == "gaudin":
        a_text = _pick(args.a, config, "a", None, str)
        return dynamics.gaudin_hamiltonian(space, _parse_floats(a_text) if a_text else None)
    if p_text == "auto":
        p, q = dynamics.einstein_parameters(space.n)
        s = None
    else:
        p = _convert(p_text, float, "einstein parameter p")
        q_text = _pick(args.q, config, "q", None, str)
        if q_text is None:
            raise ConfigurationError("einstein model with explicit --p also needs --q")
        q = _convert(q_text, float, "einstein parameter q")
        s_text = _pick(args.s, config, "s", None, str)
        s = _convert(s_text, float, "einstein parameter s") if s_text is not None else None
    return dynamics.einstein_hamiltonian(space, p, q, s)


def _cmd_flow(args: argparse.Namespace) -> int:
    config = _load_config(args.config, "flow", _FLOW_KEYS)
    _check_output_paths(args.csv, args.summary)
    algebra = _pick(args.algebra, config, "algebra", "su2", str)
    n = _pick(args.n, config, "n", 3, int)
    seed = _pick_seed(args, config)
    restrict_v = args.restrict_v or _pick(None, config, "restrict_v", False, bool)
    dt = _pick(args.dt, config, "dt", 1e-3, float)
    t_end = _pick(args.t_end, config, "t_end", 10.0, float)
    stride = _pick(args.stride, config, "stride", 10, int)

    space = _build_space(algebra, n)
    if restrict_v and n < 3:
        source = "--restrict-v" if args.restrict_v else "config key 'restrict_v'"
        raise ConfigurationError(f"{source} needs n >= 3 (at n = 2 the zero-momentum slice has no generic point)")
    hamiltonian = _flow_hamiltonian(args, space, config)
    domain = "v" if restrict_v else "g"
    initial = generic_point(space, [seed, 17], domain)

    # Monitor the commuting family the model belongs to: the spectral family
    # for gaudin flows, the flag-shift family for everything else.
    if hamiltonian.kind == "gaudin":
        monitor_family = gaudin_family(space, hamiltonian.params["a"])
    else:
        monitor_family = flag_shift_family(space)
    flow = dynamics.FlowSpec(
        space=space,
        hamiltonian=hamiltonian,
        initial=initial,
        t_end=t_end,
        dt=dt,
        stride=stride,
        monitors=monitor_family,
    )
    trajectory = dynamics.integrate(flow, csv_path=args.csv)

    summary = {
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "config": {
            "algebra": algebra,
            "n": n,
            "model": hamiltonian.kind,
            "params": {k: v for k, v in hamiltonian.params.items()},
            "seed": seed,
            "restrict_v": restrict_v,
            "dt": dt,
            "t_end": t_end,
            "stride": stride,
        },
        "final_time": trajectory.final_time,
        "aborted": trajectory.aborted,
        "drift": trajectory.drift(),
        "momentum_drift": dynamics.momentum_drift(trajectory),
    }
    if hamiltonian.kind == "einstein" and restrict_v:
        u_coef = hamiltonian.params["u_coef"]
        v_coef = hamiltonian.params["v_coef"]
        closed = dynamics.enr_closed_form(space, initial, u_coef, v_coef, trajectory.times)
        residuals = space.norms(trajectory.states - closed) / (1.0 + space.norms(closed))
        summary["closed_form_residual"] = float(residuals.max())
        summary["momentum_norm_max"] = dynamics.momentum_norm_max(space, trajectory)

    if args.summary:
        _write_json(args.summary, summary)

    worst = max(summary["drift"].values()) if summary["drift"] else 0.0
    print(
        f"{hamiltonian.kind} flow on {algebra}^{n}"
        f"{' (zero-momentum slice)' if restrict_v else ''}: "
        f"t_end={trajectory.final_time:g}, worst drift={worst:.3e}, "
        f"momentum drift={summary['momentum_drift']:.3e}"
        f"{', ABORTED' if trajectory.aborted else ''}"
    )
    return 1 if trajectory.aborted else 0


# -- report -------------------------------------------------------------------


# The JSON types of the row fields the table prints and sorts by.
_ROW_TYPES = {"claim_id": str, "algebra": str, "n": int, "measured_value": (int, float),
              "formula_value": (int, float), "tolerance": (int, float), "pass": bool}
# Fields a failed row may hold as null: a number that was not finite.
_NULLABLE = ("measured_value", "formula_value")


def _valid_field(row: dict, key: str, kind) -> bool:
    value = row.get(key)
    return isinstance(value, kind) or (value is None and key in _NULLABLE and row.get("pass") is False)


def _claim_rows(document) -> list[dict]:
    """The claim rows of a certificate document; a ValueError says why it cannot be rendered."""
    rows = document.get("claims", []) if isinstance(document, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError("expected a JSON object whose 'claims' is a list of objects")
    bad = [key for key, kind in _ROW_TYPES.items() if not all(_valid_field(row, key, kind) for row in rows)]
    if bad:
        raise ValueError(f"claim rows without a valid {', '.join(map(repr, bad))}")
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    for path in args.paths:
        try:
            with open(path) as handle:
                rows.extend(_claim_rows(json.load(handle)))
        except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            print(f"skipping {path}: {exc}", file=sys.stderr)
    if not rows:
        print("no claims found", file=sys.stderr)
        return 2
    rows.sort(key=lambda row: (row["pass"], row["claim_id"]))
    return _print_claims(rows)


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagshift",
        description="numerical certificates for commuting families on product Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="run claim certificates")
    certify.add_argument("--algebra", help="base algebra, e.g. su2 or su3")
    certify.add_argument("--n", type=int, help="number of factors")
    certify.add_argument("--claims", help=f"comma list from {{{','.join(CLAIM_IDS)}}} or 'all'")
    certify.add_argument("--seed", type=int, help=f"base seed (default ${_ENV_SEED} or 42)")
    certify.add_argument("--trials", type=int, help="generic points per certificate")
    certify.add_argument("--out", help="write the JSON document here")
    certify.add_argument("--config", help="JSON config file; flags override it")
    certify.add_argument("--tol-rank", type=float, dest="tol_rank")
    certify.add_argument("--tol-bracket", type=float, dest="tol_bracket")
    certify.set_defaults(func=_cmd_certify)

    flow = sub.add_parser("flow", help="integrate a quadratic flow")
    flow.add_argument("--algebra", help="base algebra, e.g. su2 or su3")
    flow.add_argument("--n", type=int, help="number of factors")
    flow.add_argument("--model", choices=["normal", "novi", "gaudin", "einstein"])
    flow.add_argument("--s", help="novi: comma list of chain coefficients; einstein: scalar s")
    flow.add_argument("--t", help="novi: comma list of tail coefficients")
    flow.add_argument("--p", help="einstein: 'auto' or a positive float")
    flow.add_argument("--q", help="einstein: positive float, required with explicit --p")
    flow.add_argument("--a", help="gaudin: comma list of spectral weights")
    flow.add_argument("--restrict-v", action="store_true", dest="restrict_v",
                      help="start on the zero-momentum slice")
    flow.add_argument("--seed", type=int)
    flow.add_argument("--dt", type=float)
    flow.add_argument("--t-end", type=float, dest="t_end")
    flow.add_argument("--stride", type=int)
    flow.add_argument("--csv", help="write the sampled trajectory here")
    flow.add_argument("--summary", help="write the JSON run summary here")
    flow.add_argument("--config", help="JSON config file; flags override it")
    flow.set_defaults(func=_cmd_flow)

    report = sub.add_parser("report", help="tabulate previously written JSON documents")
    report.add_argument("paths", nargs="+", help="certificate JSON files")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
