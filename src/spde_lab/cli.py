"""Command-line front end: reproducible experiment runs with CSV/JSON artifacts.

Every run resolves its parameters into a flat config dict that is embedded
in all emitted artifacts (and written as ``config.json``); re-running with
``--config config.json`` reproduces the artifacts byte for byte. Exit codes:
0 success, 2 validation failure (with an error JSON on stdout), 3 numerical
failure, which includes a NaN or infinite result: no artifact holds one.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _plain(value):
    """A result as JSON values: a dataclass becomes a dict of its fields, an
    ndarray or a tuple becomes a list, recursively."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _write_json(path: Path, config: dict, results) -> None:
    """Write a JSON artifact: version, config and ``results`` made plain.

    NaN and infinity are not JSON, so a non-finite result raises
    ``NumericalError`` (exit 3) before the file is written."""
    payload = {"version": __version__, "config": config, "results": _plain(results)}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericalError(f"{path.name}: a result is not finite") from None
    path.write_text(text + "\n")


def _csv_header(config: dict) -> str:
    return f"# spde-lab {__version__}\n# config: {_canonical(config)}\n"


def _cell(value) -> str:
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        raise NumericalError(f"a CSV value is not finite: {value}")
    return format(value, ".17g")


def _write_table(path: Path, config: dict, columns, rows) -> None:
    """Write a CSV artifact: the version and config header, the ``columns``
    line, then one line per row; floats with 17 significant digits."""
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
    path.write_text(_csv_header(config) + "\n".join(lines) + "\n")


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


# ---------------------------------------------------------------------------
# subcommand implementations (each takes the resolved config dict)
# ---------------------------------------------------------------------------


_PAM_BLOCK = 64  # pam-white replicas per block


def _auto_pam_grid(t: float, n_steps: int, half_width: float | None) -> SpaceTimeGrid:
    time = TimeGrid(t, n_steps)
    half = 8.0 * math.sqrt(t) if half_width is None else half_width
    cells = 2 * half / (0.8 * math.sqrt(time.dt))
    # a block's noise array must stay within numpy's largest array, sys.maxsize bytes
    if not cells * n_steps * _PAM_BLOCK * 8 < sys.maxsize:
        raise NumericalError(f"--half-width {half} needs {cells:.3g} cells, beyond any array")
    n_cells = int(np.ceil(cells))
    n_cells += n_cells % 2
    return SpaceTimeGrid(time, half, n_cells)


def _fbm_variance(t: float, hurst: float) -> float:
    """t^(2H), the variance of fBm at t; NumericalError when it overflows."""
    try:
        return t ** (2 * hurst)
    except OverflowError:
        raise NumericalError(f"the fBm variance t^(2H) overflows at t={t}, H={hurst}") from None


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
                scale, var = t ** cfg["hurst"], _fbm_variance(t, cfg["hurst"])

            def block(gen, count, scale=scale, var=var):
                z = gen.standard_normal((count, 1)) * scale
                return np.exp(z[:, 0] - var / 2.0)

            x = map_replica_blocks(replicas, block, stream.substream(i << 32), threads=threads)
            if not x.any():  # a lognormal sample is positive
                raise NumericalError(f"every sample exp(Z - var/2) underflows to 0 at t={t}")
        else:  # pam-white; --model choices admit no other model
            grid = _auto_pam_grid(t, cfg["n_steps"], cfg.get("half_width"))
            vol = math.sqrt(grid.cell_volume)
            mid = grid.n_cells // 2

            def block(gen, count, grid=grid, vol=vol, mid=mid):
                w = gen.standard_normal((count,) + grid.cell_shape()) * vol
                return solve_pam_euler(grid, w)[:, mid]

            x = map_replica_blocks(
                replicas, block, stream.substream(i << 32), block_size=_PAM_BLOCK, threads=threads
            )
        rows.extend(estimate_moments(x, ps, model=model, t=t))

    report = MomentReport(rows=rows)
    if cfg["fit"]:
        name = {"gbm": "gbm", "gfbm": "gfbm", "pam-white": "pam_white"}[model]
        lam, kappa = lyapunov_closed_form(name, ps[0], cfg.get("hurst"))
        report.kappa = kappa
        report.fitted_lambda = fit_log_slope(
            ts, [r.estimate for r in rows if r.p == ps[0]], kappa
        )
        report.closed_form_lambda = lam
    _write_json(out / "report.json", cfg, report)
    columns = ("model", "t", "p", "estimate", "stderr", "replicas")
    _write_table(out / "moments.csv", cfg, columns, map(dataclasses.astuple, rows))


def run_chaos(cfg: dict, out: Path, threads: int = 1) -> None:
    t, n = cfg["t"], cfg["n"]
    if cfg["model"] == "pam":
        result = pam_chaos_series(t, n)
        columns = ("n", "term_variance", "partial_sum", "closed_form")
        rows = zip(result.orders, result.term_variances, result.partial_sums,
                   [result.closed_form] * (n + 1))
    else:  # gbm or gfbm
        kind = "bm" if cfg["model"] == "gbm" else "fbm"
        partials = chaos_geometric_partials(t, cfg["b"], n, kind, cfg.get("hurst"))
        variance = t if kind == "bm" else _fbm_variance(t, cfg["hurst"])
        try:
            closed = math.exp(cfg["b"] - variance / 2.0)
        except OverflowError:
            raise NumericalError(f"closed form exp(b - s^2/2) overflows at b={cfg['b']}") from None
        result = {"partial_sums": partials, "closed_form": closed}
        columns = ("n", "partial_sum", "closed_form")
        rows = zip(range(n + 1), partials, [closed] * (n + 1))
    _write_json(out / "chaos.json", cfg, result)
    _write_table(out / "chaos.csv", cfg, columns, rows)


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
    _write_json(out / "certificate.json", cfg, cert)
    columns = ("n", "a_n", "stderr", "bound", "partial_sum_p1", "partial_sum_p2")
    rows = zip(cert.orders, cert.a_n, cert.stderr, cert.bounds, cert.partial_sums_p1,
               cert.partial_sums_p2)
    _write_table(out / "certificate.csv", cfg, columns, rows)


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
    _write_json(out / "fk.json", cfg, est)


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
    _write_json(out / "holder.json", cfg,
                {key: study[key] for key in ("time_fit", "space_fit", "window_nodes")})
    fits = (study["time_fit"], study["space_fit"])
    rows = [(f.axis, *row) for f in fits for row in zip(f.lags, f.lag_spacings, f.norms)]
    _write_table(out / "holder.csv", cfg, ("axis", "lag", "spacing", "norm"), rows)


def run_noise(cfg: dict, out: Path, threads: int = 1) -> None:
    kind = cfg["kind"]
    stream = RngStream(cfg["seed"])
    if kind in ("bm", "fbm"):
        grid = TimeGrid(cfg["t"], cfg["n_steps"])
        if kind == "bm":
            path = sample_bm_paths(grid, stream)[0]
        else:
            path = sample_fbm_paths(cfg["hurst"], grid, stream)[0]
        _write_table(out / "path.csv", cfg, ("t", "value"), zip(grid.nodes(), path))
        return
    grid = SpaceTimeGrid(
        TimeGrid(cfg["t"], cfg["n_steps"]), cfg["half_width"], cfg["n_cells"]
    )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if kind == "sheet":
            fld = sample_white_noise_sheet(grid, stream)
        else:  # homogeneous
            if cfg.get("hurst") is None:
                spec = NoiseSpec.space_time_white()
            else:
                spec = NoiseSpec.fractional_riesz(cfg["hurst"], cfg.get("alpha"))
            fld = sample_homogeneous_noise(grid, spec, stream)
    # the field writers do not go through _write_table, so check here
    if not np.isfinite(fld.values).all():
        raise NumericalError(f"the {kind} noise field is not finite")
    if cfg["format"] == "spdf":
        write_spdf(fld, out / "field.spdf")
    else:
        write_field_csv(fld, out / "field.csv")
        # prepend the artifact header while keeping the coordinate header
        body = (out / "field.csv").read_text()
        (out / "field.csv").write_text(_csv_header(cfg) + body)


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


# domain text -> its test; the edge fuzz in the tests reads the ends from the text
_DOMAINS = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (1/2, 1)": lambda v: 0.5 < v < 1,
}
_FLOATS = _number_list(_finite_float, "finite float")
_INTS = _number_list(int, "int")


@dataclasses.dataclass(frozen=True)
class _Option:
    """One option of a subcommand and one key of its config file: ``kind`` is
    an argparse type, a list of choices or ``bool`` for a flag. A given value
    (each element of a list) must lie in ``domain`` whatever the run, and a run
    whose selector value is in ``needs`` (every run, if None) must have one."""

    name: str
    kind: object
    default: object = None
    domain: str | None = None
    needs: tuple | None = None
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


# subcommand -> (help, selector option or None, options); every subcommand also
# has --seed and the command-line-only --strict, --threads, --out and --config
_COMMANDS = {
    "simulate": ("moment estimation for gbm/gfbm/pam-white", "model", (
        _Option("model", ["gbm", "gfbm", "pam-white"], "gbm"),
        _Option("t", _FLOATS, "1.0", "> 0", help="comma-separated times"),
        _Option("p", _FLOATS, "2.0", ">= 1", help="comma-separated moment orders"),
        _Option("replicas", int, 10_000, ">= 1"),
        _Option("hurst", _finite_float, None, "in (0, 1)", ("gfbm",)),
        _Option("n_steps", int, 256, ">= 1", ("pam-white",)),
        _Option("half_width", _finite_float, None, "> 0", ()),
        _Option("fit", bool, help="fit a Lyapunov slope"),
    )),
    "chaos": ("chaos-series tables", "model", (
        _Option("model", ["pam", "gbm", "gfbm"], "pam"),
        _Option("t", _finite_float, 1.0, "> 0"),
        _Option("n", int, 60, ">= 0"),
        _Option("b", _finite_float, 0.0, None, ("gbm", "gfbm"), "endpoint value (gbm/gfbm)"),
        _Option("hurst", _finite_float, None, "in (1/2, 1)", ("gfbm",)),
    )),
    "check": ("existence-condition verdicts", "op", (
        _Option("op", ["heat", "wave", "dalang"]),
        _Option("alpha", _finite_float, None, "> 0"),
        _Option("hurst", _finite_float, None, "in (1/2, 1)", ("heat", "wave")),
        # alpha must lie in (0, d); d = 2 admits the full alpha < 2 range
        _Option("d", int, 2, ">= 1"),
        _Option("numeric", bool, help="also run the quadrature route"),
    )),
    "certificate": ("extension-of-Gronwall coefficient bounds", "profile", (
        _Option("profile", ["heat", "wave", "constant"], "heat"),
        _Option("beta", _finite_float, 1.0, ">= 0", ("constant",), "constant-profile value"),
        _Option("big_t", _finite_float, 1.0, "> 0"),
        _Option("m", _finite_float, 1.0, ">= 0"),
        _Option("n_max", int, 20, ">= 0"),
        _Option("replicas", int, 100_000, ">= 1"),
    )),
    "fk": ("two-path exponential-functional second moment", None, (
        _Option("hurst", _finite_float, None, "in (1/2, 1)"),
        _Option("alpha", _finite_float, None, "> 0"),
        _Option("d", int, 1, ">= 1"),
        _Option("t", _finite_float, 0.25, "> 0"),
        _Option("replicas", int, 10_000, ">= 1"),
        _Option("n_quad", int, 128, ">= 2"),
    )),
    "holder": ("empirical regularity exponents, linear heat", None, (
        _Option("t", _finite_float, 0.25, "> 0"),
        _Option("n_steps", int, 1024, ">= 1"),
        _Option("n_cells", int, 512, ">= 1"),
        _Option("half_width", _finite_float, 4.0, "> 0"),
        _Option("replicas", int, 128, ">= 1"),
        _Option("time_lags", _INTS, "4,8,16,32,64", ">= 1"),
        _Option("space_lags", _INTS, "2,4,8,16", ">= 1"),
        _Option("base_node", int, None, ">= 0", ()),
    )),
    "noise": ("raw noise dumps (paths, sheets, homogeneous fields)", "kind", (
        _Option("kind", ["bm", "fbm", "sheet", "homogeneous"]),
        _Option("t", _finite_float, 1.0, "> 0"),
        _Option("n_steps", int, 128, ">= 1"),
        _Option("n_cells", int, 16, ">= 1", ("sheet", "homogeneous")),
        _Option("half_width", _finite_float, 1.0, "> 0", ("sheet", "homogeneous")),
        _Option("hurst", _finite_float, None, "in (0, 1)", ("fbm",)),
        # a fractional homogeneous field also needs --alpha; its noise spec checks that
        _Option("alpha", _finite_float, None, "in (0, 1)", ()),
        _Option("format", ["csv", "spdf"], "csv", None, ("sheet", "homogeneous")),
    )),
}
_OPTIONS = {c: {o.name: o for o in options + (_Option("seed", int, needs=()),)}
            for c, (_, _, options) in _COMMANDS.items()}


def _build_parser() -> _Parser:
    parser = _Parser(prog="spde-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spde-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in _OPTIONS[command].values():
            if o.kind is bool:
                p.add_argument(o.flag, action="store_true", help=o.help)
            elif isinstance(o.kind, list):
                p.add_argument(o.flag, choices=o.kind, default=o.default, help=o.help)
            else:
                p.add_argument(o.flag, type=o.kind, default=o.default, help=o.help)
        # execution knobs: always taken from the command line, never from a config file
        p.add_argument("--strict", action="store_true", help="require --seed")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--config", type=str, default=None, help="re-run a resolved config")
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; options that every run needs are enforced only when no
    ``--config`` is given, because a re-run takes every value from its file."""
    args = parser.parse_args(argv)
    missing = [o.flag for o in _OPTIONS[args.command].values()
               if o.needs is None and getattr(args, o.name) is None]
    if missing and args.config is None:
        raise InputError("the following arguments are required: " + ", ".join(missing))
    return args


def _config_argv(command: str, cfg: dict) -> list[str]:
    """The keys of a config file as ``--option=value`` arguments.

    Values are written as JSON, except a string for an option with choices
    and a boolean for a flag, so a value of the wrong JSON type fails the
    option's own type or choice check. A key that names no option becomes a
    bare ``{"key": value}`` argument, which the parser rejects as unrecognized.
    """
    argv = []
    for key, value in cfg.items():
        if key in ("command", "version"):
            continue
        o = _OPTIONS[command].get(key)
        if o is None:
            argv.append(json.dumps({key: value}))
        elif o.kind is bool and isinstance(value, bool):
            argv += [o.flag] if value else []
        elif isinstance(o.kind, list) and isinstance(value, str):
            argv.append(f"{o.flag}={value}")
        else:
            argv.append(f"{o.flag}={json.dumps(value)}")
    return argv


def _resolve_config(args) -> dict:
    """The embedded-config dict of parsed args: every given value checked
    against its option's domain, whatever the run, and every option the
    run's selector value needs present."""
    _, selector, _ = _COMMANDS[args.command]
    chosen = getattr(args, selector) if selector else None
    cfg = {"command": args.command, "version": __version__}
    for o in _OPTIONS[args.command].values():
        value = getattr(args, o.name)
        if value is None:
            if chosen in (o.needs or ()):
                raise InputError(f"{chosen} requires {o.flag}")
            continue
        values = value if isinstance(value, list) else [value]
        if o.domain and not all(map(_DOMAINS[o.domain], values)):
            raise DomainError(f"{o.flag} must be {o.domain}, got {value}")
        cfg[o.name] = value
    if args.strict and args.seed is None:
        raise InputError("--seed is required in --strict mode")
    cfg.setdefault("seed", 0)
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
    argv = [args.command] + _config_argv(args.command, cfg)
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
    except (SpdeLabError, NotImplementedError, MemoryError) as exc:
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}))
        return EXIT_NUMERICAL if isinstance(exc, (NumericalError, MemoryError)) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
