"""Command-line front end: reproducible experiment runs with CSV/JSON artifacts.

Every run resolves its parameters into a flat config dict that is embedded
in all emitted artifacts (and written as ``config.json``); re-running with
``--config config.json`` reproduces the artifacts byte for byte. Exit codes:
0 success, 2 validation failure (with an error JSON on stdout), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import (
    SpectralMeasure,
    check_dalang_riesz,
    check_fractional,
    dalang_gronwall_certificate,
    dalang_integral_numeric,
)
from .errors import DomainError, InputError, NumericalError, SpdeLabError
from .field import write_csv as write_field_csv, write_spdf
from .grids import SpaceTimeGrid, TimeGrid
from .kernels import OperatorSpec
from .moments import (
    MomentReport,
    estimate_moments,
    fit_log_slope,
    fk_second_moment,
    linear_heat_holder_study,
    lyapunov_closed_form,
)
from .noise import (
    NoiseSpec,
    sample_bm_paths,
    sample_fbm_paths,
    sample_homogeneous_noise,
    sample_white_noise_sheet,
)
from .rng import RngStream, map_replica_blocks
from .solvers import chaos_geometric_partials, pam_chaos_series, solve_pam_euler

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an ``InputError``; ``main`` turns one from the
    command line into exit 2 with a usage JSON, one from a config file into
    exit 2 with an error JSON."""

    def error(self, message):
        raise InputError(message)


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, config: dict, results: dict) -> None:
    payload = {"version": __version__, "config": config, "results": results}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_header(config: dict) -> str:
    return f"# spde-lab {__version__}\n# config: {_canonical(config)}\n"


def _write_csv(path: Path, config: dict, body: str) -> None:
    path.write_text(_csv_header(config) + body)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite float, got {text!r}")
    return value


def _number_list(kind, noun: str):
    """argparse type: one or more comma-separated ``kind`` values, optionally
    in brackets as a config file's JSON array is written."""

    def parse(text: str) -> list:
        body = text[1:-1] if text[:1] == "[" and text[-1:] == "]" else text
        try:
            values = [kind(v) for v in body.split(",") if v.strip()]
        except (ValueError, argparse.ArgumentTypeError):
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun} values, got {text!r}"
            )
        return values

    return parse


def _resolve_threads(value) -> int:
    """--threads, else SPDE_LAB_THREADS, else 1; a positive integer."""
    source, raw = "--threads", value
    if raw is None:
        source, raw = "SPDE_LAB_THREADS", os.environ.get("SPDE_LAB_THREADS") or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InputError(f"{source} must be a positive integer, got {raw!r}")
    return threads


def _resolve_seed(args) -> int:
    if args.seed is None:
        if args.strict:
            raise InputError("--seed is required in --strict mode")
        return 0
    return int(args.seed)


# ---------------------------------------------------------------------------
# subcommand implementations (each takes the resolved config dict)
# ---------------------------------------------------------------------------


def _auto_pam_grid(t: float, n_steps: int, half_width: float | None) -> SpaceTimeGrid:
    half = 8.0 * math.sqrt(t) if half_width is None else half_width
    dt = t / n_steps
    n_cells = int(np.ceil(2 * half / (0.8 * math.sqrt(dt))))
    n_cells += n_cells % 2
    return SpaceTimeGrid(TimeGrid(t, n_steps), half, n_cells)


def run_simulate(cfg: dict, out: Path, threads: int = 1) -> None:
    model = cfg["model"]
    ts = cfg["t"]
    ps = cfg["p"]
    replicas = cfg["replicas"]
    stream = RngStream(cfg["seed"])
    rows = []
    for i, t in enumerate(ts):
        if model in ("gbm", "gfbm"):
            # lognormal exp(Z - var/2) with Z ~ N(0, var) = (scale * N(0,1))
            if model == "gbm":
                scale, var = math.sqrt(t), t
            else:
                scale, var = t ** cfg["hurst"], t ** (2 * cfg["hurst"])

            def block(gen, count, scale=scale, var=var):
                z = gen.standard_normal((count, 1)) * scale
                return np.exp(z[:, 0] - var / 2.0)

            x = map_replica_blocks(replicas, block, stream.substream(i << 32), threads=threads)
        else:  # pam-white; --model choices admit no other model
            grid = _auto_pam_grid(t, cfg["n_steps"], cfg.get("half_width"))
            vol = math.sqrt(grid.cell_volume)
            mid = grid.n_cells // 2

            def block(gen, count, grid=grid, vol=vol, mid=mid):
                w = gen.standard_normal((count,) + grid.cell_shape()) * vol
                return solve_pam_euler(grid, w)[:, mid]

            x = map_replica_blocks(
                replicas, block, stream.substream(i << 32), block_size=64, threads=threads
            )
        rows.extend(estimate_moments(x, ps, model=model, t=t))

    report = MomentReport(rows=rows)
    if cfg["fit"] and len(ts) >= 4:
        name = {"gbm": "gbm", "gfbm": "gfbm", "pam-white": "pam_white"}[model]
        lam, kappa = lyapunov_closed_form(name, ps[0], cfg.get("hurst"))
        report.kappa = kappa
        report.fitted_lambda = fit_log_slope(
            ts, [r.estimate for r in rows if r.p == ps[0]], kappa
        )
        report.closed_form_lambda = lam
    _write_csv(out / "moments.csv", cfg, report.csv_text())
    _write_json(out / "report.json", cfg, report.to_dict())


def run_chaos(cfg: dict, out: Path, threads: int = 1) -> None:
    t, n = cfg["t"], cfg["n"]
    if cfg["model"] == "pam":
        series = pam_chaos_series(t, n)
        lines = ["n,term_variance,partial_sum,closed_form"]
        for i in range(n + 1):
            lines.append(
                f"{i},{series.term_variances[i]:.17g},{series.partial_sums[i]:.17g},"
                f"{series.closed_form:.17g}"
            )
        _write_csv(out / "chaos.csv", cfg, "\n".join(lines) + "\n")
        _write_json(out / "chaos.json", cfg, series.to_dict())
    else:  # gbm or gfbm
        kind = "bm" if cfg["model"] == "gbm" else "fbm"
        partials = chaos_geometric_partials(t, cfg["b"], n, kind, cfg.get("hurst"))
        if kind == "bm":
            closed = math.exp(cfg["b"] - t / 2.0)
        else:
            closed = math.exp(cfg["b"] - t ** (2 * cfg["hurst"]) / 2.0)
        lines = ["n,partial_sum,closed_form"]
        for i, v in enumerate(partials):
            lines.append(f"{i},{v:.17g},{closed:.17g}")
        _write_csv(out / "chaos.csv", cfg, "\n".join(lines) + "\n")
        _write_json(
            out / "chaos.json",
            cfg,
            {"partial_sums": list(partials), "closed_form": closed},
        )


def run_check(cfg: dict, out: Path, threads: int = 1) -> None:
    op, alpha, d = cfg["op"], cfg["alpha"], cfg["d"]
    if op == "dalang":
        verdict = check_dalang_riesz(alpha, d)
    else:
        verdict = check_fractional(op, alpha, cfg["hurst"], d)
    results = {"verdict": verdict.to_dict()}
    if cfg["numeric"]:
        kappa = verdict.parameters.get("kappa", 1.0)
        numeric = dalang_integral_numeric(SpectralMeasure.riesz_dual(alpha, d), kappa, d)
        results["numeric_verdict"] = numeric.to_dict()
    print(json.dumps(results["verdict"]))
    _write_json(out / "check.json", cfg, results)


def run_certificate(cfg: dict, out: Path, threads: int = 1) -> None:
    if cfg["profile"] == "constant":
        profile = cfg["beta"]
    else:
        profile = OperatorSpec(cfg["profile"], 1)
    cert = dalang_gronwall_certificate(
        profile,
        cfg["big_t"],
        M=cfg["m"],
        n_max=cfg["n_max"],
        mc_replicas=cfg["replicas"],
        rng=RngStream(cfg["seed"]),
    )
    lines = ["n,a_n,stderr,bound,partial_sum_p1,partial_sum_p2"]
    for i in range(cfg["n_max"] + 1):
        lines.append(
            f"{i},{cert.a_n[i]:.17g},{cert.stderr[i]:.17g},{cert.bounds[i]:.17g},"
            f"{cert.partial_sums_p1[i]:.17g},{cert.partial_sums_p2[i]:.17g}"
        )
    _write_csv(out / "certificate.csv", cfg, "\n".join(lines) + "\n")
    _write_json(out / "certificate.json", cfg, cert.to_dict())


def run_fk(cfg: dict, out: Path, threads: int = 1) -> None:
    spec = NoiseSpec.fractional_riesz(cfg["hurst"], cfg["alpha"])
    est = fk_second_moment(
        cfg["t"],
        spec,
        cfg["d"],
        cfg["replicas"],
        cfg["n_quad"],
        RngStream(cfg["seed"]),
        threads=threads,
    )
    print(json.dumps({"estimate": est.estimate, "stderr": est.stderr}))
    _write_json(out / "fk.json", cfg, est.to_dict())


def run_holder(cfg: dict, out: Path, threads: int = 1) -> None:
    grid = SpaceTimeGrid(
        TimeGrid(cfg["t"], cfg["n_steps"]), cfg["half_width"], cfg["n_cells"]
    )
    study = linear_heat_holder_study(
        grid,
        cfg["replicas"],
        RngStream(cfg["seed"]),
        time_lags=tuple(cfg["time_lags"]),
        space_lags=tuple(cfg["space_lags"]),
        base_node=cfg.get("base_node"),
        threads=threads,
    )
    tf, sf = study["time_fit"], study["space_fit"]
    lines = ["axis,lag,spacing,norm"]
    for fit in (tf, sf):
        for lag, sp, norm in zip(fit.lags, fit.lag_spacings, fit.norms):
            lines.append(f"{fit.axis},{lag},{sp:.17g},{norm:.17g}")
    _write_csv(out / "holder.csv", cfg, "\n".join(lines) + "\n")
    _write_json(
        out / "holder.json",
        cfg,
        {
            "time_fit": tf.to_dict(),
            "space_fit": sf.to_dict(),
            "window_nodes": study["window_nodes"],
        },
    )


def run_noise(cfg: dict, out: Path, threads: int = 1) -> None:
    kind = cfg["kind"]
    stream = RngStream(cfg["seed"])
    if kind in ("bm", "fbm"):
        grid = TimeGrid(cfg["t"], cfg["n_steps"])
        if kind == "bm":
            path = sample_bm_paths(grid, stream)[0]
        else:
            path = sample_fbm_paths(cfg["hurst"], grid, stream)[0]
        lines = ["t,value"]
        for tv, v in zip(grid.nodes(), path):
            lines.append(f"{tv:.17g},{v:.17g}")
        _write_csv(out / "path.csv", cfg, "\n".join(lines) + "\n")
        return
    grid = SpaceTimeGrid(
        TimeGrid(cfg["t"], cfg["n_steps"]), cfg["half_width"], cfg["n_cells"]
    )
    if kind == "sheet":
        fld = sample_white_noise_sheet(grid, stream)
    else:  # homogeneous
        if cfg.get("hurst") is None:
            spec = NoiseSpec.space_time_white()
        else:
            spec = NoiseSpec.fractional_riesz(cfg["hurst"], cfg["alpha"])
        fld = sample_homogeneous_noise(grid, spec, stream)
    if cfg["format"] == "spdf":
        write_spdf(fld, out / "field.spdf")
    else:
        write_field_csv(fld, out / "field.csv")
        # prepend the artifact header while keeping the coordinate header
        body = (out / "field.csv").read_text()
        _write_csv(out / "field.csv", cfg, body)


_RUNNERS = {
    "simulate": run_simulate,
    "chaos": run_chaos,
    "check": run_check,
    "certificate": run_certificate,
    "fk": run_fk,
    "holder": run_holder,
    "noise": run_noise,
}


# ---------------------------------------------------------------------------
# argument parsing and config resolution
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="spde-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spde-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    floats = _number_list(_finite_float, "finite float")

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--strict", action="store_true", help="require --seed")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--config", type=str, default=None, help="re-run a resolved config")

    p = sub.add_parser("simulate", help="moment estimation for gbm/gfbm/pam-white")
    p.add_argument("--model", choices=["gbm", "gfbm", "pam-white"], default="gbm")
    p.add_argument("--t", type=floats, default="1.0", help="comma-separated times")
    p.add_argument("--p", type=floats, default="2.0", help="comma-separated moment orders")
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--hurst", type=_finite_float, default=None)
    p.add_argument("--n-steps", type=int, default=256)
    p.add_argument("--half-width", type=_finite_float, default=None)
    p.add_argument("--fit", action="store_true", help="fit a Lyapunov slope")
    common(p)

    p = sub.add_parser("chaos", help="chaos-series tables")
    p.add_argument("--model", choices=["pam", "gbm", "gfbm"], default="pam")
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--b", type=_finite_float, default=0.0, help="endpoint value (gbm/gfbm)")
    p.add_argument("--hurst", type=_finite_float, default=None)
    common(p)

    p = sub.add_parser("check", help="existence-condition verdicts")
    p.add_argument("--op", choices=["heat", "wave", "dalang"], required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--hurst", type=_finite_float, default=None)
    # alpha must lie in (0, d); d = 2 admits the full alpha < 2 range
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--numeric", action="store_true", help="also run the quadrature route")
    common(p)

    p = sub.add_parser("certificate", help="extension-of-Gronwall coefficient bounds")
    p.add_argument("--profile", choices=["heat", "wave", "constant"], default="heat")
    p.add_argument("--beta", type=_finite_float, default=1.0, help="constant-profile value")
    p.add_argument("--big-t", type=_finite_float, default=1.0)
    p.add_argument("--m", type=_finite_float, default=1.0)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--replicas", type=int, default=100_000)
    common(p)

    p = sub.add_parser("fk", help="two-path exponential-functional second moment")
    p.add_argument("--hurst", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--t", type=_finite_float, default=0.25)
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--n-quad", type=int, default=128)
    common(p)

    p = sub.add_parser("holder", help="empirical regularity exponents, linear heat")
    p.add_argument("--t", type=_finite_float, default=0.25)
    p.add_argument("--n-steps", type=int, default=1024)
    p.add_argument("--n-cells", type=int, default=512)
    p.add_argument("--half-width", type=_finite_float, default=4.0)
    p.add_argument("--replicas", type=int, default=128)
    p.add_argument("--time-lags", type=_number_list(int, "int"), default="4,8,16,32,64")
    p.add_argument("--space-lags", type=_number_list(int, "int"), default="2,4,8,16")
    p.add_argument("--base-node", type=int, default=None)
    common(p)

    p = sub.add_parser("noise", help="raw noise dumps (paths, sheets, homogeneous fields)")
    p.add_argument("--kind", choices=["bm", "fbm", "sheet", "homogeneous"], required=True)
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--n-steps", type=int, default=128)
    p.add_argument("--n-cells", type=int, default=16)
    p.add_argument("--half-width", type=_finite_float, default=1.0)
    p.add_argument("--hurst", type=_finite_float, default=None)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--format", choices=["csv", "spdf"], default="csv")
    common(p)

    # argparse would demand these even of a --config re-run; _parse_args checks them
    for subparser in _subparsers(parser).values():
        subparser.required_options = [a for a in subparser._actions if a.required]
        for action in subparser.required_options:
            action.required = False
    return parser


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Subcommand name -> its parser."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; required options are enforced only when no ``--config`` is
    given, because a re-run takes every value from its config file."""
    args = parser.parse_args(argv)
    subparser = _subparsers(parser)[args.command]
    missing = [a for a in subparser.required_options if getattr(args, a.dest) is None]
    if missing and args.config is None:
        subparser.error(
            "the following arguments are required: "
            + ", ".join("/".join(a.option_strings) for a in missing)
        )
    return args


# execution knobs: always taken from the command line, never from a config file
_COMMAND_LINE_ONLY = ("out", "config", "threads")


def _config_argv(subparser: argparse.ArgumentParser, cfg: dict) -> list[str]:
    """The keys of a config file as ``--option=value`` arguments.

    Values are written as JSON, except a string for an option with choices
    and a boolean for a flag, so a value of the wrong JSON type fails the
    option's own type or choice check. A key that names no option becomes a
    bare ``{"key": value}`` argument, which the parser rejects as unrecognized.
    """
    actions = {
        a.dest: a
        for a in subparser._actions
        if a.option_strings and a.default is not argparse.SUPPRESS
        and a.dest not in _COMMAND_LINE_ONLY
    }
    argv = []
    for key, value in cfg.items():
        if key in ("command", "version"):
            continue
        action = actions.get(key)
        if action is None:
            argv.append(json.dumps({key: value}))
        elif action.nargs == 0 and isinstance(value, bool):
            argv += [action.option_strings[0]] if value else []
        else:
            text = value if isinstance(value, str) and action.choices else json.dumps(value)
            argv.append(f"{action.option_strings[0]}={text}")
    return argv


def _resolve_config(args) -> dict:
    """Flatten parsed args into the embedded-config dict."""
    cfg = {"command": args.command, "version": __version__}
    cfg["seed"] = _resolve_seed(args)
    skip = {"command", "seed", "strict", "threads", "out", "config"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        cfg[key] = value
    if args.command == "simulate" and cfg["model"] == "gfbm" and cfg.get("hurst") is None:
        raise InputError("gfbm requires --hurst")
    if args.command == "chaos" and cfg["model"] == "gfbm" and cfg.get("hurst") is None:
        raise InputError("gfbm chaos requires --hurst")
    if args.command == "check" and cfg["op"] in ("heat", "wave") and cfg.get("hurst") is None:
        raise InputError(f"{cfg['op']} check requires --hurst")
    if args.command == "noise":
        if cfg["kind"] == "fbm" and cfg.get("hurst") is None:
            raise InputError("fbm noise requires --hurst")
        if cfg["kind"] == "homogeneous" and cfg.get("hurst") is not None and cfg.get("alpha") is None:
            raise InputError("homogeneous fractional noise requires --alpha")
    return cfg


def _read_config(path: str) -> dict:
    """The flat config dict held in a ``--config`` file."""
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # not UTF-8 or not JSON
        raise InputError(f"config {path!r} is not JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path!r} holds a JSON {type(cfg).__name__}, not an object")
    return cfg


def _config_args(parser: argparse.ArgumentParser, args) -> argparse.Namespace:
    """The arguments of a ``--config`` re-run: the file's keys parsed by the
    subcommand's own parser, with the same required check."""
    cfg = _read_config(args.config)
    if cfg.get("command") != args.command:
        raise InputError(f"config is for command {cfg.get('command')!r}, not {args.command!r}")
    if not isinstance(cfg.get("version", ""), str):
        raise InputError(f"config version must be a string, got {cfg['version']!r}")
    argv = [args.command] + _config_argv(_subparsers(parser)[args.command], cfg)
    try:
        return _parse_args(parser, argv)
    except InputError as exc:
        raise InputError(f"config {args.config!r}: {exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse_args(parser, argv)
    except InputError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}))
        raise SystemExit(EXIT_VALIDATION) from None
    try:
        cfg = _resolve_config(args if args.config is None else _config_args(parser, args))
        threads = _resolve_threads(args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _RUNNERS[args.command](cfg, out, threads=threads)
        # config.json is the flat resolved config itself, re-runnable via --config
        (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        return 0
    except (InputError, DomainError, NotImplementedError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_NUMERICAL
    except SpdeLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
