import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from sinereg import (RateCheckConfig, StoppingRule, random_problem, run_sine,
                     save_dense_operator, save_vector)
from sinereg.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def benchmark_config(**overrides):
    cfg = {
        "solver": "sine",
        "gamma": 1e-3,
        "tau": 1.001,
        "problem": {"kind": "multiplication", "n": 4096, "exponent": 1, "delta": 1e-3},
    }
    cfg.update(overrides)
    return cfg


class TestSolve:
    def test_benchmark_sine(self, tmp_path, capsys):
        cfg = write_config(tmp_path, benchmark_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["stopping_index"] == 2
        assert payload["report"]["terminated_by"] == "discrepancy"
        # the report survives a JSON round trip unchanged
        assert json.loads(json.dumps(payload["report"])) == payload["report"]
        rows = read_csv(out / "residuals.csv")
        assert rows[0] == ["m", "residual", "error"]
        assert len(rows) == 4  # header + m = 0, 1, 2
        assert "stopping index 2" in capsys.readouterr().out

    def test_benchmark_cgne(self, tmp_path):
        cfg = write_config(tmp_path, benchmark_config(solver="cgne"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["stopping_index"] == 19

    def test_trivially_solved_problem_reports_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            benchmark_config(
                delta=1.0,
                problem={"kind": "multiplication", "n": 64, "exponent": 1,
                         "delta": 1e-3},
            ),
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["stopping_index"] == 0

    def test_cap_gives_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, benchmark_config(max_iters=1))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2

    def test_file_problem(self, tmp_path):
        save_dense_operator(np.eye(2), tmp_path / "op.mtx")
        save_vector(np.array([1.0, 0.0]), tmp_path / "y.csv")
        cfg = write_config(
            tmp_path,
            {
                "solver": "sine",
                "gamma": 1.0,
                "tau": 1.01,
                "delta": 1e-10,
                "problem": {
                    "kind": "files",
                    "operator": str(tmp_path / "op.mtx"),
                    "data": str(tmp_path / "y.csv"),
                    "delta": 0.0,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["stopping_index"] == 1

    def test_x0_from_csv(self, tmp_path):
        save_vector(np.zeros(64), tmp_path / "x0.csv")
        cfg = write_config(
            tmp_path,
            benchmark_config(
                x0=str(tmp_path / "x0.csv"),
                problem={"kind": "multiplication", "n": 64, "exponent": 1,
                         "delta": 1e-2},
            ),
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0


class TestCompare:
    def test_benchmark(self, tmp_path):
        cfg = write_config(tmp_path, benchmark_config())
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["stopping_index_sine"] == 2
        assert payload["report"]["stopping_index_cgne"] == 19
        assert payload["report"]["dominance_all"] is True
        rows = read_csv(out / "residuals.csv")
        assert rows[0] == ["m", "residual_sine", "residual_cgne", "dominance"]
        assert len(rows) == 21
        assert all(row[3] == "1" for row in rows[1:])

    def test_rank_deficient_files_problem_exits_zero(self, tmp_path):
        save_vector(np.array([1.0, 0.5, 0.0, 0.0]), tmp_path / "d.csv")
        save_vector(np.ones(4), tmp_path / "y.csv")
        cfg = write_config(
            tmp_path,
            {
                "gamma": 1.0,
                "problem": {
                    "kind": "files",
                    "operator": str(tmp_path / "d.csv"),
                    "operator_kind": "diagonal",
                    "data": str(tmp_path / "y.csv"),
                    "delta": 0.0,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["terminated_by_sine"] == "breakdown"
        assert payload["report"]["stopping_index_sine"] == 2


class TestRateCheck:
    def test_short_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"delta_grid": [1e-2, 1e-3, 1e-4], "mu": 0.5, "n": 512,
             "tau": 1.001, "gamma": 1e-3},
        )
        out = tmp_path / "out"
        assert main(["ratecheck", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["slope"] is not None
        rows = read_csv(out / "ratecheck.csv")
        assert rows[0] == ["delta", "stopping_index", "error", "flagged"]
        assert len(rows) == 4

    def test_single_delta_slope_absent_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"delta_grid": [1e-3], "mu": 0.5, "n": 128})
        out = tmp_path / "out"
        assert main(["ratecheck", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["slope"] is None

    def test_mostly_capped_exits_nonzero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"delta_grid": [1e-3, 1e-4], "mu": 0.5, "n": 256, "max_iters": 1},
        )
        out = tmp_path / "out"
        assert main(["ratecheck", "--config", str(cfg), "--out", str(out)]) == 2


class TestDiagnose:
    def test_history_flag_enables(self, tmp_path):
        """diagnose keeps the run history itself: no flag or key is needed."""
        cfg = write_config(
            tmp_path,
            benchmark_config(
                problem={"kind": "multiplication", "n": 1024, "exponent": 1,
                         "delta": 1e-3}
            ),
        )
        out = tmp_path / "out"
        code = main(["diagnose", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        rep = payload["report"]
        assert rep["interlacing"] == [True]
        assert len(rep["ritz"]) == 2
        assert rep["residual_identity_max"] <= 1e-8
        assert rep["rprime"][1] > rep["rprime"][0]
        assert rep["analyzed_steps"] == 2
        assert rep["truncated_reason"] is None

    def test_rank_deficient_run_reports_analyzed_prefix(self, tmp_path):
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        save_dense_operator(u @ (np.logspace(0, -3, 4)[:, None] * v.T),
                            tmp_path / "A.csv")
        save_vector(rng.standard_normal(12), tmp_path / "y.csv")
        cfg = write_config(tmp_path, {
            "gamma": 1.0, "tau": 1.001,
            "problem": {"kind": "files", "operator": str(tmp_path / "A.csv"),
                        "data": str(tmp_path / "y.csv"), "delta": 0.0},
        })
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) != 1
        rep = json.loads((out / "diagnostics.json").read_text())["report"]
        assert rep["terminated_by"] == "breakdown"
        assert rep["analyzed_steps"] < rep["stopping_index"]
        assert len(rep["ritz"]) == rep["analyzed_steps"]


class TestErrorsAndSeeds:
    def test_invalid_json_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("solver", ["sine", "cgne"])
    def test_overflowing_operator_exit_one(self, tmp_path, capsys, solver):
        """Finite inputs whose products overflow stop at once with the
        iteration named, not at the iteration cap. d^2 = 1e308 and the
        shift factors 1 + d_i^2/gamma stay finite, so the products, not
        the factors, overflow."""
        save_vector(np.array([1e154, 1.0]), tmp_path / "d.csv")
        save_vector(np.ones(2), tmp_path / "y.csv")
        cfg = write_config(tmp_path, {
            "solver": solver, "gamma": 1.0, "tau": 1.01, "delta": 0.0,
            "problem": {"kind": "files", "operator_kind": "diagonal",
                        "operator": str(tmp_path / "d.csv"),
                        "data": str(tmp_path / "y.csv"), "delta": 0.0},
        })
        with np.errstate(over="ignore"):
            code = main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "non-finite value at iteration 0" in capsys.readouterr().err

    def test_unknown_solver_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, benchmark_config(solver="jacobi"))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1

    def test_seed_override_changes_random_problem(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "solver": "sine",
                "gamma": 1.0,
                "tau": 2.0,
                "delta": 5e-3,
                "problem": {"kind": "random", "rows": 20, "cols": 10,
                            "rate": 0.7, "seed": 0, "delta": 1e-3},
            },
        )
        outs = []
        for i, seed_args in enumerate(([], ["--seed", "123"], ["--seed", "123"])):
            out = tmp_path / f"out{i}"
            assert main(["solve", "--config", str(cfg), "--out", str(out),
                         *seed_args]) == 0
            outs.append(json.loads((out / "report.json").read_text()))
        base, seeded_a, seeded_b = outs
        assert seeded_a["report"]["iterate"] == seeded_b["report"]["iterate"]
        assert base["report"]["iterate"] != seeded_a["report"]["iterate"]
        assert base["config"]["problem"]["seed"] == 0
        assert seeded_a["config"]["problem"]["seed"] == 123

    def test_seed_echoed_without_problem_section(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"kind": "multiplication", "n": 64}})
        bare = write_config(tmp_path, {}, name="bare.json")
        for path, problem in ((cfg, {"kind": "multiplication", "n": 64, "seed": 5}),
                              (bare, {"seed": 5})):
            out = tmp_path / path.stem
            assert main(["solve", "--config", str(path), "--out", str(out),
                         "--seed", "5"]) == 0
            payload = json.loads((out / "report.json").read_text())
            assert payload["config"]["problem"] == problem

    def test_ratecheck_rejects_seed(self, tmp_path, capsys):
        """ratecheck has no seed to override, so --seed is an unknown flag."""
        cfg = write_config(tmp_path, {"delta_grid": [1e-3], "n": 64})
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["ratecheck", "--config", str(cfg), "--out", str(out),
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestConfigTypes:
    @pytest.mark.parametrize("command, payload, key", [
        ("solve", {"gamma": [1]}, "gamma"),
        ("compare", {"tau": "high"}, "tau"),
        ("diagnose", {"problem": {"kind": "multiplication", "n": [64]}}, "n"),
        ("solve", {"problem": {"kind": "random", "rows": 8, "cols": {}}}, "cols"),
        ("ratecheck", {"max_iters": "five"}, "max_iters"),
        ("ratecheck", {"delta_grid": 1e-3}, "delta_grid"),
        # integer keys reject a fractional part instead of truncating it
        ("solve", {"problem": {"kind": "multiplication", "n": 64.9}}, "n"),
        ("solve", {"problem": {"kind": "random", "rows": 8.5, "cols": 4}}, "rows"),
        ("compare", {"problem": {"kind": "random", "rows": 8, "cols": 4.2}},
         "cols"),
        ("diagnose", {"problem": {"kind": "random", "rows": 8, "cols": 4,
                                  "seed": 0.5}}, "seed"),
        ("solve", {"max_iters": 1.7}, "max_iters"),
        ("ratecheck", {"max_iters": 2.5}, "max_iters"),
        ("ratecheck", {"n": 64.5}, "n"),
        # a JSON true is not the integer 1
        ("solve", {"max_iters": True}, "max_iters"),
        ("compare", {"problem": {"kind": "multiplication", "n": True}}, "n"),
        # nor is it the float 1.0
        ("solve", {"gamma": True}, "gamma"),
        ("solve", {"tau": True}, "tau"),
        ("diagnose", {"delta": False}, "delta"),
        ("compare", {"problem": {"kind": "multiplication", "exponent": True}},
         "exponent"),
        ("solve", {"problem": {"kind": "multiplication", "delta": True}}, "delta"),
        ("solve", {"problem": {"kind": "random", "rows": 8, "cols": 4,
                               "rate": True}}, "rate"),
        ("ratecheck", {"mu": True}, "mu"),
        ("ratecheck", {"delta_grid": [1e-2, True]}, "delta_grid"),
        ("ratecheck", {"gamma": True}, "gamma"),
        # nor is a JSON string a number
        ("solve", {"gamma": "1e-3"}, "gamma"),
        ("ratecheck", {"n": "64"}, "n"),
        ("ratecheck", {"delta_grid": ["1e-2"]}, "delta_grid"),
    ])
    def test_failed_conversion_exit_one_names_key(self, tmp_path, capsys,
                                                   command, payload, key):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "ratecheck"])
    @pytest.mark.parametrize("config", ["[1, 2]", '"solve"', "3", "null"])
    def test_config_not_an_object_exit_one(self, tmp_path, capsys, command,
                                           config):
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "compare", "diagnose"])
    def test_unknown_problem_kind_exit_one(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"problem": {"kind": "fourier", "n": 64}})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert "unknown problem kind 'fourier'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "3"]])
    @pytest.mark.parametrize("problem", [None, [1], "random"])
    def test_problem_not_an_object_exit_one(self, tmp_path, capsys, seed_args,
                                            problem):
        cfg = write_config(tmp_path, {"problem": problem})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     *seed_args]) == 1
        assert "'problem' must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["multiplication", "random"])
    @pytest.mark.parametrize("delta", ["NaN", "Infinity", "-1"])
    def test_bad_problem_delta_exit_one(self, tmp_path, capsys, kind, delta):
        """A problem noise level that is not finite and nonnegative exits 1."""
        cfg = tmp_path / "config.json"
        cfg.write_text('{"problem": {"kind": "%s", "rows": 6, "cols": 4, '
                       '"delta": %s}}' % (kind, delta))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert "finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [{"rows": 8}, {"rows": None, "cols": 5}],
                             ids=["no-cols", "null-rows"])
    def test_random_problem_needs_rows_and_cols(self, tmp_path, capsys, sizes):
        cfg = write_config(tmp_path, {"problem": {"kind": "random", **sizes}})
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert "'rows' and 'cols'" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", [{}, {"delta": None}])
    def test_files_problem_needs_delta(self, tmp_path, capsys, delta):
        save_dense_operator(np.eye(2), tmp_path / "op.csv")
        save_vector(np.array([1.0, 0.0]), tmp_path / "y.csv")
        cfg = write_config(tmp_path, {"problem": {
            "kind": "files", "operator": str(tmp_path / "op.csv"),
            "data": str(tmp_path / "y.csv"), **delta}})
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert ("needs 'operator', 'data' and 'delta'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("problem, message", [
        ('"kind": "multiplication", "exponent": %s', "truth exponent"),
        ('"kind": "random", "rows": 6, "cols": 4, "rate": %s', "decay rate"),
    ], ids=["exponent", "rate"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "0", "-1"])
    def test_bad_exponent_or_rate_exit_one(self, tmp_path, capsys, problem,
                                           message, value):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"problem": {%s}}' % (problem % value))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"{message} must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("given, cap", [(5.0, 5)])
    def test_max_iters_converted_alike_by_ratecheck_and_solve(self, tmp_path,
                                                              given, cap):
        def run(command, payload):
            out = tmp_path / f"{command}-{payload['max_iters']!r}"
            code = main([command, "--config", str(write_config(tmp_path, payload)),
                         "--out", str(out)])
            return code, json.loads((out / "report.json").read_text())["report"]

        grid = {"delta_grid": [1e-3, 1e-4], "mu": 0.5, "n": 256}
        code, report = run("ratecheck", {**grid, "max_iters": given})
        assert (code, report) == run("ratecheck", {**grid, "max_iters": cap})
        assert report["config"]["max_iters"] == cap
        solve = {"delta": 1e-9, "problem": {"kind": "multiplication", "n": 64}}
        code, report = run("solve", {**solve, "max_iters": given})
        assert code == 2 and report["stopping_index"] == cap


class TestLibraryDefaults:
    """Keys a config leaves out take the library's defaults, not copies."""

    def test_random_problem_with_only_rows_and_cols(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"kind": "random", "rows": 12,
                                                  "cols": 8}})
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        expected = run_sine(random_problem(12, 8), 1e-3, StoppingRule(1.001, 0.0))
        assert code == (0 if expected.terminated_by in ("discrepancy", "breakdown")
                        else 2)
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["iterate"] == expected.to_dict()["iterate"]

    @pytest.mark.parametrize("noise", ["constant", "random-direction"])
    def test_random_problem_takes_the_noise_key(self, tmp_path, noise):
        """The config's ``noise`` is ``random_problem``'s ``noise_mode``."""
        cfg = write_config(tmp_path, {"problem": {
            "kind": "random", "rows": 12, "cols": 8, "delta": 1e-2,
            "noise": noise}})
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        problem = random_problem(12, 8, delta=1e-2, noise_mode=noise)
        expected = run_sine(problem, 1e-3, StoppingRule(1.001, 1e-2))
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["iterate"] == expected.to_dict()["iterate"]
        assert payload["report"]["residual_history"] == (
            expected.to_dict()["residual_history"])

    @pytest.mark.parametrize("section, key", [
        ("problem", "kind"), ("top", "solver"), ("problem", "noise")])
    def test_null_key_takes_the_default(self, tmp_path, section, key):
        """A null kind, solver or noise exited 1 as "unknown ... None"."""
        reports = []
        for null in (False, True):
            cfg = {"problem": {"n": 256, "delta": 1e-3}}
            if null:
                (cfg if section == "top" else cfg["problem"])[key] = None
            out = tmp_path / f"null-{null}"
            assert main(["solve", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())["report"]
            del report["elapsed_seconds"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_ratecheck_with_only_grid_and_mu(self, tmp_path):
        grid = [1e-2, 1e-3]
        cfg = write_config(tmp_path, {"delta_grid": grid, "mu": 0.5})
        out = tmp_path / "out"
        assert main(["ratecheck", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["config"] == RateCheckConfig(grid, 0.5).to_dict()


@pytest.mark.parametrize("name, text", [
    ("zero-row.mtx", "%%MatrixMarket matrix array real general\n0 1\n"),
    ("empty.csv", ""),
], ids=["zero-row-mtx", "empty-csv"])
def test_files_problem_with_no_entries_exits_one(tmp_path, name, text):
    """A zero-row Matrix Market operator ended ``solve`` by SIGFPE, so the
    command runs in a fresh interpreter."""
    (tmp_path / name).write_text(text)
    save_vector(np.ones(2), tmp_path / "y.csv")
    cfg = write_config(tmp_path, {"problem": {
        "kind": "files", "operator": str(tmp_path / name),
        "data": str(tmp_path / "y.csv"), "delta": 1e-3}})
    proc = subprocess.run(
        [sys.executable, "-m", "sinereg.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")], capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert f"error: {tmp_path / name}: file has no entries" in proc.stderr


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "solver": "sine", "gamma": 1e-3, "tau": 1.001,
        "problem": {"kind": "multiplication", "n": 256, "exponent": 1,
                    "delta": 1e-3},
    }))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sinereg.cli", "solve", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
