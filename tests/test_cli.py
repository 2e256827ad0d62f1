import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spde_lab
from spde_lab.cli import _build_parser, _subparsers, main
from spde_lab.field import read_spdf


def run(argv):
    return main([str(a) for a in argv])


class TestCheckCommand:
    def test_heat_fractional_verdict(self, tmp_path, capsys):
        code = run(["check", "--op", "heat", "--alpha", "1.0", "--hurst", "0.75",
                    "--out", tmp_path])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert verdict["satisfied"] is True  # 1.0 < 4 * 0.75
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["version"] and payload["config"]["op"] == "heat"

    def test_invalid_alpha_exits_2_with_json(self, tmp_path, capsys):
        code = run(["check", "--op", "dalang", "--alpha", "5.0", "--d", "3",
                    "--out", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "DomainError"

    def test_bad_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--op", "diffusion", "--alpha", "1.0", "--out", tmp_path])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "usage"

    def test_missing_required_option_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--op", "heat", "--out", tmp_path])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err == {"error": "usage",
                       "message": "the following arguments are required: --alpha"}

    def test_numeric_returns_both_verdicts(self, tmp_path):
        assert run(["check", "--op", "heat", "--alpha", "1.0", "--hurst", "0.75",
                    "--numeric", "--out", tmp_path]) == 0
        results = json.loads((tmp_path / "check.json").read_text())["results"]
        closed, numeric = results["verdict"], results["numeric_verdict"]
        assert closed["method"] == "closed_form" and numeric["method"] == "quadrature"
        assert closed["satisfied"] is numeric["satisfied"] is True
        assert numeric["estimate"] > 0.0

    def test_numeric_config_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["check", "--op", "wave", "--alpha", "0.5", "--hurst", "0.6",
                    "--d", "1", "--numeric", "--seed", "4", "--out", a]) == 0
        assert run(["check", "--config", a / "config.json", "--out", b]) == 0
        for name in ("check.json", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestChaosCommand:
    def test_pam_partial_sum_reaches_closed_form(self, tmp_path):
        assert run(["chaos", "--model", "pam", "--t", "1", "--n", "60",
                    "--out", tmp_path]) == 0
        lines = (tmp_path / "chaos.csv").read_text().strip().splitlines()
        assert lines[2] == "n,term_variance,partial_sum,closed_form"
        last = lines[-1].split(",")
        target = 2.0 * math.exp(0.25) * 0.76024993890652327
        assert abs(float(last[2]) - target) < 1e-10
        assert abs(float(last[2]) - float(last[3])) < 1e-10

    def test_gfbm_requires_hurst(self, tmp_path, capsys):
        code = run(["chaos", "--model", "gfbm", "--t", "1", "--out", tmp_path])
        assert code == 2

    def test_chaos_roundtrip(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["chaos", "--model", "gbm", "--t", "0.5", "--b", "1.0",
                    "--n", "40", "--seed", "1", "--out", a]) == 0
        assert run(["chaos", "--config", a / "config.json", "--out", b]) == 0
        assert (a / "chaos.csv").read_bytes() == (b / "chaos.csv").read_bytes()


class TestSimulateCommand:
    def test_gbm_moment_near_e(self, tmp_path):
        assert run(["simulate", "--model", "gbm", "--t", "1", "--replicas", "100000",
                    "--p", "2", "--seed", "7", "--out", tmp_path]) == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        row = lines[-1].split(",")
        estimate, stderr = float(row[3]), float(row[4])
        assert abs(estimate - math.e) <= 3.0 * stderr

    def test_strict_requires_seed(self, tmp_path, capsys):
        code = run(["simulate", "--model", "gbm", "--strict", "--out", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "InputError"

    def test_roundtrip_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--model", "gfbm", "--hurst", "0.75",
                    "--t", "0.5,1.0,1.5,2.0", "--p", "2", "--replicas", "5000",
                    "--seed", "11", "--fit", "--out", a]) == 0
        assert run(["simulate", "--config", a / "config.json", "--out", b]) == 0
        assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()

    def test_threads_do_not_change_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--model", "gbm", "--t", "1", "--p", "2,3",
                "--replicas", "4000", "--seed", "3"]
        assert run(args + ["--threads", "1", "--out", a]) == 0
        assert run(args + ["--threads", "4", "--out", b]) == 0
        assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPDE_LAB_THREADS", "3")
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--model", "gbm", "--t", "1", "--p", "2",
                "--replicas", "2000", "--seed", "3"]
        assert run(args + ["--out", a]) == 0
        monkeypatch.delenv("SPDE_LAB_THREADS")
        assert run(args + ["--out", b]) == 0
        assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()

    @pytest.mark.parametrize("env, flag", [("two", None), ("0", None), (None, "0")])
    def test_bad_thread_count_exits_2(self, tmp_path, monkeypatch, capsys, env, flag):
        if env is not None:
            monkeypatch.setenv("SPDE_LAB_THREADS", env)
        extra = [] if flag is None else ["--threads", flag]
        code = run(["chaos", "--model", "gbm", "--seed", "1", "--out", tmp_path] + extra)
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "InputError"

    def test_pam_white_model(self, tmp_path):
        assert run(["simulate", "--model", "pam-white", "--t", "0.25",
                    "--n-steps", "32", "--p", "2", "--replicas", "200",
                    "--seed", "9", "--out", tmp_path]) == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        est = float(lines[-1].split(",")[3])
        assert 0.5 < est < 3.0  # closed form at t=0.25 is ~1.26

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"command": "simulate", "seed": 1, "bogus_key": 2}))
        code = run(["simulate", "--config", cfg, "--out", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "bogus_key" in err["message"]

    @pytest.mark.parametrize("body", [None, "{not json", "[1, 2]"],
                             ids=["missing", "not-json", "not-object"])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "config.json"
        if body is not None:
            cfg.write_text(body)
        code = run(["simulate", "--config", cfg, "--out", tmp_path / "out"])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "InputError"
        assert str(cfg) in err["message"]
        assert not (tmp_path / "out").exists()


class TestCertificateCommand:
    def test_heat_certificate(self, tmp_path):
        assert run(["certificate", "--profile", "heat", "--big-t", "1",
                    "--n-max", "12", "--replicas", "20000", "--seed", "2",
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["results"]["g_total"] == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-8
        )
        lines = (tmp_path / "certificate.csv").read_text().strip().splitlines()
        assert lines[2] == "n,a_n,stderr,bound,partial_sum_p1,partial_sum_p2"


class TestFkCommand:
    def test_fk_runs(self, tmp_path, capsys):
        assert run(["fk", "--hurst", "0.7", "--alpha", "0.5", "--t", "0.25",
                    "--replicas", "500", "--n-quad", "48", "--seed", "4",
                    "--out", tmp_path]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["estimate"] >= 1.0
        payload = json.loads((tmp_path / "fk.json").read_text())
        assert payload["results"]["delta_floor"] > 0

    def test_fk_overflow_exits_3(self, tmp_path, capsys):
        code = run(["fk", "--hurst", "0.95", "--alpha", "0.9", "--t", "400",
                    "--replicas", "32", "--n-quad", "64", "--seed", "4",
                    "--out", tmp_path])
        assert code == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "NumericalError"
        assert not (tmp_path / "fk.json").exists()


class TestHolderCommand:
    def test_small_run(self, tmp_path):
        assert run(["holder", "--t", "0.25", "--n-steps", "128", "--n-cells", "128",
                    "--half-width", "4.0", "--replicas", "16",
                    "--time-lags", "2,4,8", "--space-lags", "2,4,8",
                    "--seed", "5", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "holder.json").read_text())
        assert 0.0 < payload["results"]["time_fit"]["exponent"] < 1.0


class TestNoiseCommand:
    def test_bm_path_csv(self, tmp_path):
        assert run(["noise", "--kind", "bm", "--t", "1", "--n-steps", "16",
                    "--seed", "6", "--out", tmp_path]) == 0
        lines = (tmp_path / "path.csv").read_text().strip().splitlines()
        assert lines[2] == "t,value"
        assert float(lines[3].split(",")[1]) == 0.0  # B_0 = 0

    def test_sheet_spdf_container(self, tmp_path):
        assert run(["noise", "--kind", "sheet", "--t", "0.5", "--n-steps", "8",
                    "--n-cells", "8", "--half-width", "1.0", "--format", "spdf",
                    "--seed", "6", "--out", tmp_path]) == 0
        fld = read_spdf(tmp_path / "field.spdf")
        assert fld.values.shape == (8, 8)

    def test_homogeneous_requires_alpha_with_hurst(self, tmp_path):
        code = run(["noise", "--kind", "homogeneous", "--hurst", "0.7",
                    "--t", "0.5", "--n-steps", "4", "--n-cells", "4",
                    "--out", tmp_path])
        assert code == 2


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        # only the quadrature route (check --numeric) may pay for scipy; the
        # d=2 Riesz cell integrals use math.erf
        src = str(Path(spde_lab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import spde_lab.cli, sys; from spde_lab import grids, noise; "
            "noise.HomogeneousNoiseSampler(grids.SpaceTimeGrid(grids.TimeGrid(1.0, 2), 1.0, 4, "
            "dim=2), noise.NoiseSpec.fractional_riesz(0.7, 1.3)); "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestTypedValues:
    """Command-line lists and config values are checked by the option's own
    type or choices; a bad value exits 2 with error JSON, never 1."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t", "1,x"],
        ["simulate", "--p", "2,x"],
        ["holder", "--time-lags", "4,x"],
        ["holder", "--space-lags", "2.5"],
        ["simulate", "--t", ""],
    ], ids=["t", "p", "time-lags", "space-lags", "empty-t"])
    def test_bad_list_option_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--seed", "1", "--out", tmp_path / "out"])
        assert exc.value.code == 2
        err = _last_json(capsys)
        assert err["error"] == "usage" and argv[1] in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t", "nan"],
        ["simulate", "--t", "1,inf"],
        ["simulate", "--p=2,-inf"],
        ["chaos", "--model", "pam", "--t", "inf"],
        ["certificate", "--big-t", "inf"],
        ["check", "--op", "heat", "--alpha", "nan", "--hurst", "0.75"],
        ["fk", "--hurst", "0.7", "--alpha", "0.5", "--t", "NaN"],
    ], ids=["simulate-t-nan", "simulate-t-list-inf", "simulate-p-inf", "chaos-t-inf",
            "certificate-big-t-inf", "check-alpha-nan", "fk-t-nan"])
    def test_non_finite_option_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--seed", "1", "--out", tmp_path / "out"])
        assert exc.value.code == 2
        err = _last_json(capsys)
        assert err["error"] == "usage" and "finite" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg", [
        {"command": "chaos", "t": math.nan},
        {"command": "simulate", "t": [math.inf]},
        {"command": "simulate", "t": [0.5, math.nan], "p": [2.0]},
        {"command": "certificate", "big_t": -math.inf},
        {"command": "check", "op": "heat", "alpha": math.nan, "hurst": 0.75},
    ], ids=["chaos-t-nan", "simulate-t-inf", "simulate-t-list-nan", "certificate-big-t-inf",
            "check-alpha-nan"])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, cfg):
        # json writes these as the non-JSON tokens NaN, Infinity and -Infinity
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 0, **cfg}))
        code = run([cfg["command"], "--config", path, "--out", tmp_path / "out"])
        assert code == 2
        err = _last_json(capsys)
        assert err["error"] == "InputError" and "finite" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_list_options_parse_to_numbers(self, tmp_path):
        assert run(["simulate", "--t", "0.5,1", "--p", "2,3", "--replicas", "100",
                    "--seed", "1", "--out", tmp_path]) == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        assert cfg["t"] == [0.5, 1.0] and cfg["p"] == [2.0, 3.0] and cfg["fit"] is False

    @pytest.mark.parametrize("cfg, needle", [
        ({"op": "heat", "alpha": "one", "hurst": 0.75}, "--alpha"),
        ({"op": "heat", "alpha": "1.0", "hurst": 0.75}, "--alpha"),
        ({"op": "heat", "alpha": 1.0, "hurst": 0.75, "d": 2.5}, "--d"),
        ({"op": "heat", "alpha": 1.0, "hurst": 0.75, "numeric": "yes"}, "--numeric"),
        ({"op": "heat", "hurst": 0.75}, "required: --alpha"),
        ({"op": "heat", "alpha": 1.0, "hurst": 0.75, "threads": 2}, "threads"),
        ({"op": ["heat"], "alpha": 1.0, "hurst": 0.75}, "--op"),
        ({"op": "heat", "alpha": 1.0, "hurst": 0.75, "version": 1}, "version"),
    ], ids=["alpha-string", "alpha-numeric-string", "d-float", "numeric-string", "no-alpha",
            "threads-key", "op-list", "version-number"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, cfg, needle):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "check", "seed": 0, **cfg}))
        code = run(["check", "--config", path, "--out", tmp_path / "out"])
        assert code == 2
        err = _last_json(capsys)
        assert err["error"] == "InputError" and needle in err["message"]
        assert not (tmp_path / "out").exists()

    def test_absent_config_keys_take_defaults(self, tmp_path):
        # a config with only command and seed runs like `simulate --seed 1`
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "simulate", "seed": 1}))
        assert run(["simulate", "--config", path, "--out", tmp_path / "a"]) == 0
        assert run(["simulate", "--seed", "1", "--out", tmp_path / "b"]) == 0
        for name in ("moments.csv", "report.json", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_values_win_over_command_line(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["chaos", "--model", "gbm", "--t", "0.5", "--b", "1.0", "--n", "12",
                    "--seed", "1", "--out", a]) == 0
        assert run(["chaos", "--model", "pam", "--t", "2", "--config", a / "config.json",
                    "--threads", "2", "--out", b]) == 0
        for name in ("chaos.csv", "chaos.json", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def _json_kind(value):
    if isinstance(value, bool):
        return "bool"
    return {str: "string", list: "list", dict: "object"}.get(type(value), "number")


@pytest.fixture(scope="module")
def written_configs(tmp_path_factory):
    """config.json files written by three cheap runs."""
    root = tmp_path_factory.mktemp("configs")
    runs = {
        "check": ["check", "--op", "heat", "--alpha", "1.0", "--hurst", "0.75"],
        "chaos": ["chaos", "--model", "gbm", "--t", "0.5", "--b", "1.0", "--n", "12"],
        "simulate": ["simulate", "--model", "gbm", "--t", "0.5,1", "--p", "2",
                     "--replicas", "200"],
    }
    configs = {}
    for name, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv + ["--seed", "3", "--out", root / name]) == 0
        configs[name] = json.loads((root / name / "config.json").read_text())
    return root, configs


_json_leaf = (st.none() | st.booleans() | st.integers() | st.just([]) | st.just({})
              | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8))
_json_value = st.recursive(
    _json_leaf,
    lambda inner: (st.lists(inner, min_size=1, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, min_size=1, max_size=3)),
    max_leaves=6,
)
_numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_WRONG_TYPED = {
    # strings that read as numbers or number lists are the likeliest to slip through
    "string": st.text(max_size=12) | _numbers.map(repr)
    | st.lists(_numbers, min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v))),
    "list": st.lists(_json_value, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _json_value, max_size=3),
    "bool": st.booleans(),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_2_never_1(written_configs, data):
    """One key of a written config set to a value of another JSON type, or
    one unknown key added: the re-run exits 2 with error JSON."""
    root, configs = written_configs
    command = data.draw(st.sampled_from(sorted(configs)))
    cfg = dict(configs[command])
    known = {a.dest for p in _subparsers(_build_parser()).values() for a in p._actions}
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(cfg)))
        kinds = sorted(set(_WRONG_TYPED) - {_json_kind(cfg[key])})
        cfg[key] = data.draw(st.sampled_from(kinds).flatmap(_WRONG_TYPED.get))
    else:
        key = data.draw(st.text(min_size=1, max_size=12).filter(
            lambda k: k not in known | {"command", "version"}))
        cfg[key] = data.draw(_json_value)
    path = root / f"fuzz-{command}.json"
    path.write_text(json.dumps(cfg))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([command, "--config", path, "--out", root / "fuzz-out"])
    assert code == 2
    assert json.loads(out.getvalue().strip().splitlines()[-1])["error"] == "InputError"
    assert not (root / "fuzz-out").exists()
