import contextlib
import io
import json
import math
import re
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spde_lab
from spde_lab import cli, noise
from spde_lab.cli import main
from spde_lab.field import read_spdf
from spde_lab.grids import SpaceTimeGrid, TimeGrid
from spde_lab.moments import estimate_moments
from spde_lab.rng import RngStream, map_replica_blocks
from spde_lab.solvers import geometric_block

from conftest import run_python


def run(argv):
    return main([str(a) for a in argv])


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _strict_json(path):
    """A JSON artifact parsed with NaN, Infinity and -Infinity rejected."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


# one cheap seeded run per subcommand, for the --config round trip
_ROUNDTRIP_RUNS = [
    ["simulate", "--model", "gfbm", "--hurst", "0.75", "--t", "0.5,1.0,1.5,2.0", "--p", "2",
     "--replicas", "5000", "--fit"],
    ["chaos", "--model", "pam", "--t", "1", "--n", "20"],
    ["check", "--op", "heat", "--alpha", "1.0", "--hurst", "0.75"],
    ["certificate", "--profile", "wave", "--n-max", "8", "--replicas", "2000"],
    ["fk", "--hurst", "0.7", "--alpha", "0.5", "--replicas", "64", "--n-quad", "16"],
    ["holder", "--n-steps", "64", "--n-cells", "64", "--replicas", "8",
     "--time-lags", "2,4,8", "--space-lags", "2,4,8"],
    ["noise", "--kind", "homogeneous", "--hurst", "0.7", "--alpha", "0.5", "--n-steps", "8",
     "--n-cells", "8"],
]


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

    def test_numeric_runs_without_scipy(self, tmp_path):
        # scipy made unimportable: the quadrature route still agrees with the closed form
        code = (
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from spde_lab.cli import main\n"
            "for i, (op, alpha, d) in enumerate([('heat', 1.3, 2), ('wave', 1.9, 2),\n"
            "                                    ('dalang', 1.5, 3), ('heat', 2.5, 3)]):\n"
            f"    out = {str(tmp_path)!r} + f'/{{i}}'\n"
            "    argv = ['check', '--op', op, '--alpha', str(alpha), '--hurst', '0.6',\n"
            "            '--d', str(d), '--numeric', '--out', out]\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(open(out + '/check.json').read().replace('\\n', ''))\n"
        )
        verdicts = [json.loads(line)["results"] for line in run_python(code).splitlines()]
        assert [v["verdict"]["satisfied"] for v in verdicts] == [True, True, True, False]
        for v in verdicts:
            closed, numeric = v["verdict"], v["numeric_verdict"]
            assert numeric["method"] == "quadrature"
            assert numeric["satisfied"] == closed["satisfied"]
            if closed["satisfied"]:
                assert numeric["estimate"] == pytest.approx(closed["estimate"], rel=1e-10)
            else:
                assert numeric["estimate"] == closed["estimate"] == "divergent"

    @pytest.mark.parametrize("op", ["heat", "wave", "dalang"])
    def test_numeric_at_domain_edges_never_exits_1(self, tmp_path, op):
        base = {"alpha": 0.5, "hurst": 0.75, "d": 2}
        for name, value in base.items():
            o = cli._OPTIONS["check"][name]
            for edge in _edge_values(o.domain, isinstance(value, int)):
                argv = ["check", "--op", op, "--numeric", "--out", tmp_path]
                for key, v in {**base, name: edge}.items():
                    argv += [f"--{key}={v!r}"]
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = run(argv)
                    except SystemExit as exc:  # an int option given a float
                        code = exc.code
                assert code in (0, 2, 3), argv

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
        # every subcommand: the re-run writes the same files, byte for byte,
        # and every JSON artifact is strict JSON
        for argv in _ROUNDTRIP_RUNS:
            a, b = tmp_path / argv[0] / "a", tmp_path / argv[0] / "b"
            assert run(argv + ["--seed", "11", "--out", a]) == 0
            assert run([argv[0], "--config", a / "config.json", "--out", b]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes()
                if name.endswith(".json"):
                    _strict_json(a / name)

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

    @pytest.mark.parametrize("model, hurst", [("gbm", None), ("gfbm", 0.7)])
    def test_geometric_rows_are_library_estimates(self, tmp_path, model, hurst):
        # one sampling path: the rows at t_i are estimate_moments of the library
        # block mapped over substream i of the seed, at the default block size
        ts, ps, replicas = [0.5, 1.5], [1.0, 2.5], 3000
        extra = [] if hurst is None else ["--hurst", hurst]
        assert run(["simulate", "--model", model, "--t", "0.5,1.5", "--p", "1,2.5",
                    "--replicas", replicas, "--seed", "5", "--threads", "2",
                    "--out", tmp_path] + extra) == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()[3:]
        got = [tuple(map(float, line.split(",")[3:5])) for line in lines]
        expected = []
        for i, t in enumerate(ts):
            block = geometric_block(model, t, hurst, max(ps), replicas)
            x = map_replica_blocks(replicas, block, RngStream(5).substream(i))
            expected += [(r.estimate, r.stderr) for r in estimate_moments(x, ps, model, t)]
        assert got == expected

    def test_pam_white_model(self, tmp_path):
        assert run(["simulate", "--model", "pam-white", "--t", "0.25",
                    "--n-steps", "32", "--p", "2", "--replicas", "200",
                    "--seed", "9", "--out", tmp_path]) == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        est = float(lines[-1].split(",")[3])
        assert 0.5 < est < 3.0  # closed form at t=0.25 is ~1.26

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pam_white_draws_one_step_at_a_time(self, tmp_path, monkeypatch, threads):
        # every standard_normal request of a pam-white run is one time step
        # of one 64-replica block (100 replicas: blocks of 64 and 36), and
        # all of them together are one sheet per replica
        requests = []
        real_generator = spde_lab.rng.RngStream.generator

        class RecordingGenerator:
            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, size=None, dtype=np.float64, out=None):
                requests.append(int(np.prod(out.shape if size is None else size)))
                return self._gen.standard_normal(size, dtype, out)

        monkeypatch.setattr(spde_lab.rng.RngStream, "generator",
                            lambda self: RecordingGenerator(real_generator(self)))
        assert run(["simulate", "--model", "pam-white", "--t", "0.25", "--n-steps", "16",
                    "--replicas", "100", "--seed", "4", "--threads", threads,
                    "--out", tmp_path]) == 0
        n_cells = cli._auto_pam_grid(0.25, 16, None).n_cells
        assert sorted(requests) == [36 * n_cells] * 16 + [64 * n_cells] * 16

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

    def test_floor_underflow_exits_2(self, tmp_path, capsys):
        # the half-cell distance floor t / (2 n_quad) rounds to 0
        code = run(["fk", "--hurst", "0.7", "--alpha", "0.5", "--t", "1e-323",
                    "--n-quad", "2", "--out", tmp_path])
        assert code == 2
        err = _last_json(capsys)
        assert err["error"] == "InputError" and "--n-quad" in err["message"]
        assert not list(tmp_path.glob("*"))


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

    @pytest.mark.parametrize("n_steps, n_cells", [(8, 8), (5, 12)], ids=["square", "non-square"])
    def test_sheet_csv_matches_savetxt_oracle(self, tmp_path, n_steps, n_cells):
        # the artifact header, then the cell centres and values as np.savetxt writes them
        assert run(["noise", "--kind", "sheet", "--t", "0.5", "--n-steps", n_steps,
                    "--n-cells", n_cells, "--half-width", "1.5", "--seed", "6",
                    "--out", tmp_path]) == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        grid = SpaceTimeGrid(TimeGrid(0.5, n_steps), 1.5, n_cells)
        values = noise.sample_white_noise_sheet(grid, RngStream(6)).values
        t, x = np.meshgrid(grid.time.cell_centers(), grid.space_centers(), indexing="ij")
        oracle = tmp_path / "oracle.csv"
        with oracle.open("w") as fh:
            fh.write(f"# spde-lab {spde_lab.__version__}\n")
            fh.write(f"# config: {json.dumps(cfg, sort_keys=True, separators=(',', ':'))}\n")
            np.savetxt(fh, np.column_stack([t.ravel(), x.ravel(), values.ravel()]),
                       delimiter=",", fmt="%.17g", header="t,x1,value", comments="")
        assert (tmp_path / "field.csv").read_bytes() == oracle.read_bytes()

    def test_non_finite_row_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the table is streamed, so rows before the bad one are already on disk
        def last_node_inf(grid, stream):
            path = noise.sample_bm_paths(grid, stream)
            path[0, -1] = np.inf
            return path

        monkeypatch.setattr(cli, "sample_bm_paths", last_node_inf)
        assert run(["noise", "--kind", "bm", "--n-steps", "16", "--out", tmp_path]) == 3
        assert _last_json(capsys)["error"] == "NumericalError"
        assert not (tmp_path / "path.csv").exists()

    def test_sheet_spdf_container(self, tmp_path):
        assert run(["noise", "--kind", "sheet", "--t", "0.5", "--n-steps", "8",
                    "--n-cells", "8", "--half-width", "1.0", "--format", "spdf",
                    "--seed", "6", "--out", tmp_path]) == 0
        fld = read_spdf(tmp_path / "field.spdf")
        assert fld.values.shape == (8, 8)

    def test_fbm_65536_nodes_config_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["noise", "--kind", "fbm", "--hurst", "0.7", "--n-steps", "65536",
                    "--seed", "6", "--out", a]) == 0
        assert run(["noise", "--config", a / "config.json", "--out", b]) == 0
        for name in ("path.csv", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert len((a / "path.csv").read_text().strip().splitlines()) == 3 + 65_537

    def test_fbm_indefinite_embedding_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(noise, "_power_law_row", lambda law, h, n: np.array([1.0, 0.9, -0.5]))
        code = run(["noise", "--kind", "fbm", "--hurst", "0.7", "--n-steps", "2",
                    "--out", tmp_path])
        assert code == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "NumericalError"
        assert not (tmp_path / "path.csv").exists()

    def test_homogeneous_requires_alpha_with_hurst(self, tmp_path):
        code = run(["noise", "--kind", "homogeneous", "--hurst", "0.7",
                    "--t", "0.5", "--n-steps", "4", "--n-cells", "4",
                    "--out", tmp_path])
        assert code == 2


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        # the d=2 Riesz cell integrals use math.erf
        code = (
            "import spde_lab.cli, sys; from spde_lab import grids, noise; "
            "noise.HomogeneousNoiseSampler(grids.SpaceTimeGrid(grids.TimeGrid(1.0, 2), 1.0, 4, "
            "dim=2), noise.NoiseSpec.fractional_riesz(0.7, 1.3)); "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        assert run_python(code).strip() == "[]"

    def test_cli_import_loads_no_thread_pool(self):
        # concurrent.futures is imported by replica_blocks only when it pools threads
        code = "import spde_lab.cli, sys; print('concurrent.futures' in sys.modules)"
        assert run_python(code).strip() == "False"

    def test_no_subcommand_loads_scipy(self, tmp_path):
        # every subcommand once, check --numeric (the quadrature route) included
        runs = _ROUNDTRIP_RUNS + [["check", "--op", "wave", "--alpha", "0.5", "--hurst", "0.6",
                                   "--d", "1", "--numeric"]]
        code = (
            "import contextlib, io, json, sys\n"
            "from spde_lab.cli import main\n"
            f"for i, argv in enumerate({json.dumps(runs)}):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}']) == 0, argv\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        assert run_python(code).strip() == "[]"


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


class TestRangeChecks:
    """Values of the right type but outside their range exit 2, and results
    that overflow exit 3; neither writes an artifact."""

    @pytest.mark.parametrize("argv", [
        ["certificate", "--n-max", "-1"],
        ["certificate", "--replicas", "0"],
        ["certificate", "--m", "-1"],
        ["simulate", "--model", "gbm", "--t", "-1"],
        ["simulate", "--model", "pam-white", "--n-steps", "0"],
        ["chaos", "--n", "-1"],
        ["simulate", "--model", "gfbm", "--hurst", "1.5"],
        ["simulate", "--model", "gfbm", "--hurst", "-0.5"],
        ["holder", "--time-lags=-8,-4,-2"],
        # checked whatever the model: options the chosen run ignores
        ["simulate", "--model", "gbm", "--n-steps", "-1"],
        ["noise", "--kind", "fbm", "--hurst", "0.7", "--n-cells", "-1", "--half-width", "-1"],
        ["certificate", "--profile", "heat", "--beta", "-1"],
        ["check", "--op", "dalang", "--alpha", "1", "--hurst", "7"],
        # cells whose width underflows to 0
        ["simulate", "--model", "pam-white", "--t", "5e-324", "--n-steps", "4"],
        ["noise", "--kind", "sheet", "--t", "5e-324"],
        ["noise", "--kind", "sheet", "--half-width", "5e-324"],
        ["simulate", "--fit", "--t", "0.5,1,2", "--replicas", "100"],
        # one replica has no standard error
        ["certificate", "--replicas", "1", "--n-max", "4"],
        ["simulate", "--model", "gbm", "--replicas", "1"],
        ["simulate", "--model", "pam-white", "--t", "0.25", "--n-steps", "8", "--replicas", "1"],
        ["fk", "--hurst", "0.7", "--alpha", "0.5", "--n-quad", "8", "--replicas", "1"],
        # --alpha alone is no noise: a fractional field needs --hurst too
        ["noise", "--kind", "homogeneous", "--alpha", "0.5"],
    ], ids=["certificate-n-max", "certificate-replicas", "certificate-m", "gbm-t",
            "pam-white-n-steps", "chaos-n", "gfbm-hurst-above", "gfbm-hurst-below",
            "holder-time-lags", "gbm-n-steps", "fbm-n-cells-half-width", "heat-beta",
            "dalang-hurst", "pam-white-t-subnormal", "sheet-t-subnormal",
            "sheet-half-width-subnormal", "fit-three-times", "certificate-one-replica",
            "gbm-one-replica",
            "pam-white-one-replica", "fk-one-replica", "homogeneous-alpha-only"])
    def test_out_of_range_exits_2(self, tmp_path, capsys, argv):
        assert run(argv + ["--seed", "1", "--out", tmp_path / "out"]) == 2
        assert _last_json(capsys)["error"] in ("DomainError", "InputError")
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("argv", [
        ["chaos", "--model", "pam", "--b", "-1"],  # an endpoint value may be any float
        ["chaos", "--model", "pam", "--t", "5e-324"],  # t / 4 underflows, the series does not
        # the heat kernel underflows to 0 between cells 3e298 apart, without a warning
        ["holder", "--half-width", "1e300", "--n-steps", "64", "--n-cells", "64", "--replicas", "8",
         "--time-lags", "2,4,8", "--space-lags", "2,4,8"],
    ], ids=["pam-b", "pam-t-subnormal", "holder-half-width-huge"])
    def test_edge_values_in_domain_exit_0(self, tmp_path, argv):
        assert run(argv + ["--seed", "1", "--out", tmp_path]) == 0
        for artifact in tmp_path.glob("*.json"):
            _strict_json(artifact)

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def allocate(cfg, out, threads=1):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setitem(cli._RUNNERS, "noise", allocate)
        assert run(["noise", "--kind", "bm", "--out", tmp_path]) == 3
        assert _last_json(capsys) == {"error": "MemoryError",
                                      "message": "Unable to allocate 7.28 TiB"}
        assert not list(tmp_path.glob("*"))

    @pytest.mark.parametrize("argv", [
        ["chaos", "--model", "pam", "--t", "5000"],
        ["certificate", "--profile", "constant", "--beta", "1e300", "--big-t", "1e10"],
        ["chaos", "--model", "gbm", "--b", "1000"],
        ["noise", "--kind", "sheet", "--half-width", "1e308"],
        ["noise", "--kind", "homogeneous", "--half-width", "1e308", "--format", "spdf"],
        # huge floats in their domains: power-law rows, t^(2H) and the pam-white grid
        ["fk", "--hurst", "0.7", "--alpha", "0.5", "--t", "1e300"],
        ["noise", "--kind", "fbm", "--hurst", "0.7", "--t", "1e300"],
        ["noise", "--kind", "homogeneous", "--hurst", "0.7", "--alpha", "0.5", "--t", "1e300"],
        ["noise", "--kind", "homogeneous", "--hurst", "0.7", "--alpha", "0.5",
         "--half-width", "1e300"],
        ["simulate", "--model", "gfbm", "--hurst", "0.9", "--t", "1e300"],
        ["chaos", "--model", "gfbm", "--hurst", "0.9", "--t", "1e300", "--n", "0"],
        ["simulate", "--model", "pam-white", "--half-width", "1e300"],
        ["simulate", "--model", "pam-white", "--half-width", repr(sys.float_info.max)],
        # the same, found by the edge fuzz: numpy warned on the way to exit 3
        ["simulate", "--p", "1e300", "--replicas", "100"],
        ["simulate", "--model", "pam-white", "--t", "1e300", "--n-steps", "4", "--replicas", "10"],
        ["certificate", "--big-t", repr(sys.float_info.max), "--replicas", "100"],
        ["holder", "--half-width", repr(sys.float_info.max), "--n-steps", "64", "--n-cells", "64",
         "--replicas", "8", "--time-lags", "2,4,8", "--space-lags", "2,4,8"],
        # too few replicas for the moment, ln(replicas) < p^2 sigma^2 / 2: the
        # sample-size rule rejects these before anything is drawn
        ["simulate", "--model", "gbm", "--t", "1000"],
        ["simulate", "--model", "gbm", "--t", "1e300"],
        ["simulate", "--model", "gfbm", "--hurst", "0.9", "--t", "1e100"],
        ["simulate", "--model", "gbm", "--t", "100", "--p", "2", "--replicas", "10000"],
        ["simulate", "--model", "gbm", "--t", "10", "--p", "2", "--replicas", "10000"],
        # underflow: G(t, .) is flat on the grid
        ["holder", "--t", "1e300", "--n-steps", "1024", "--n-cells", "32", "--replicas", "4"],
    ], ids=["pam-closed-form", "certificate-constant", "gbm-closed-form", "noise-sheet",
            "noise-homogeneous", "fk-t-huge", "fbm-t-huge", "homogeneous-t-huge",
            "homogeneous-half-width-huge", "gfbm-t-huge", "chaos-gfbm-t-huge",
            "pam-white-half-width-huge", "pam-white-half-width-max", "gbm-p-huge",
            "pam-white-t-huge", "certificate-big-t-max", "holder-half-width-max",
            "gbm-moment-underflow", "gbm-sample-underflow", "gfbm-sample-underflow",
            "gbm-too-few-replicas-t100", "gbm-too-few-replicas-t10", "holder-t-huge"])
    def test_overflow_exits_3(self, tmp_path, capsys, argv):
        assert run(argv + ["--seed", "1", "--out", tmp_path / "out"]) == 3
        assert _last_json(capsys)["error"] == "NumericalError"
        assert not list((tmp_path / "out").glob("*"))

    def test_writer_rejects_non_finite_results(self, tmp_path, capsys, monkeypatch):
        # the artifact writer is the last guard for a result the library let through
        monkeypatch.setattr(cli, "chaos_geometric_partials", lambda *args: np.array([1.0, np.inf]))
        assert run(["chaos", "--model", "gbm", "--n", "1", "--out", tmp_path]) == 3
        assert _last_json(capsys)["error"] == "NumericalError"
        assert not list(tmp_path.glob("chaos.*"))


def _json_kind(value):
    if isinstance(value, bool):
        return "bool"
    return {str: "string", list: "list", dict: "object"}.get(type(value), "number")


@pytest.fixture(scope="module")
def written_configs(tmp_path_factory):
    """config.json files written by cheap runs of all seven subcommands, by run name."""
    root = tmp_path_factory.mktemp("configs")
    runs = {
        "check": ["check", "--op", "heat", "--alpha", "1.0", "--hurst", "0.75"],
        "chaos": ["chaos", "--model", "gbm", "--t", "0.5", "--b", "1.0", "--n", "12"],
        "simulate": ["simulate", "--model", "gbm", "--t", "0.5,1", "--p", "2",
                     "--replicas", "200"],
        "certificate": ["certificate", "--replicas", "200", "--n-max", "5"],
        "pam-white": ["simulate", "--model", "pam-white", "--n-steps", "4", "--replicas", "20"],
        "fk": ["fk", "--hurst", "0.7", "--alpha", "0.5", "--replicas", "64", "--n-quad", "16"],
        "holder": ["holder", "--n-steps", "64", "--n-cells", "64", "--replicas", "8",
                   "--time-lags", "2,4,8", "--space-lags", "2,4,8"],
        "noise-bm": ["noise", "--kind", "bm", "--n-steps", "16"],
        "noise-fbm": ["noise", "--kind", "fbm", "--hurst", "0.7", "--n-steps", "16"],
        "noise-sheet": ["noise", "--kind", "sheet", "--n-steps", "8", "--n-cells", "8"],
        "noise-homogeneous": ["noise", "--kind", "homogeneous", "--hurst", "0.7", "--alpha", "0.5",
                              "--n-steps", "8", "--n-cells", "8"],
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
    cfg = dict(configs[data.draw(st.sampled_from(sorted(configs)))])
    command = cfg["command"]
    known = {name for options in cli._OPTIONS.values() for name in options}
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


def _edge_values(domain, integer):
    """0, -1 and -0.5, and each end of ``domain`` with its nearest neighbours
    (1/2 for "in (1/2, 1)" gives 1/2-, 1/2 and 1/2+; an integer end e gives e-1,
    e and e+1); for a float option also 1e300 and the largest float."""
    values = [0, -1, -0.5] + ([] if integer else [1e300, sys.float_info.max])
    for text in re.findall(r"\d+(?:/\d+)?", domain or ""):
        end = Fraction(text)
        if integer:
            values += [int(end) - 1, int(end), int(end) + 1]
        else:
            end = float(end)
            values += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    return values


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_edge_values_exit_0_2_or_3(written_configs, data):
    """One numeric key of a written config set to 0, -1, -0.5, a value at an
    end of its option's domain or a huge float (a list to that one value): the
    re-run exits 0, 2 or 3, never 1, and on exit 0 every JSON artifact is
    strict JSON."""
    root, configs = written_configs
    name = data.draw(st.sampled_from(sorted(configs)))
    cfg = dict(configs[name])
    key = data.draw(st.sampled_from(
        sorted(k for k, v in cfg.items() if _json_kind(v) in ("number", "list"))))
    sample = cfg[key][0] if isinstance(cfg[key], list) else cfg[key]
    domain = cli._OPTIONS[cfg["command"]][key].domain
    value = data.draw(st.sampled_from(_edge_values(domain, isinstance(sample, int))))
    cfg[key] = [value] if isinstance(cfg[key], list) else value
    path = root / f"edge-{name}.json"
    path.write_text(json.dumps(cfg))
    out = root / "edge-out"
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run([cfg["command"], "--config", path, "--out", out])
    assert code in (0, 2, 3)
    if code == 0:
        for artifact in out.glob("*.json"):
            _strict_json(artifact)
