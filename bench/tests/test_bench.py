"""Self-tests of the benchmark: tracing changes no result, the strategy
dispatch survives wrapping, and a reduced-size run of every workload
passes its correctness check.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import sinereg  # noqa: E402
import sinereg.sine  # noqa: E402
from layertrace import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from run import END_TO_END, Runner  # noqa: E402
from workloads import KINDS, WORKLOADS  # noqa: E402

STRATEGY = {"mult-1m": "diagonal", "dense-alg": "cholesky", "blur-mf": "cg"}
# reduced sizes; the solver parameters are unchanged
SMOKE_SIZES = {
    "mult-1m": {"n": 4096},
    "dense-alg": {"rows": 400, "cols": 200},
    "blur-mf": {"n": 2**10},
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    name = request.param
    return WORKLOADS[name](seed=3, **SMOKE_SIZES[name])


def _traced(workload, kind):
    tracer = Tracer()
    with tracer.installed():
        tracer.start_op()
        with tracer.span("problems.build"):
            problem = workload.build()
        with tracer.span("op.call"):
            result = workload.call(kind, problem)
        spans = tracer.take()
    return result, problem, spans


@pytest.mark.parametrize("kind", ["sine", "cgne"])
def test_traced_op_is_bit_identical(workload, kind):
    plain = workload.call(kind, workload.build())
    traced, _, spans = _traced(workload, kind)
    assert spans, "no spans recorded"
    assert traced.stopping_index == plain.stopping_index
    assert traced.terminated_by == plain.terminated_by
    assert np.array_equal(traced.iterate, plain.iterate)
    assert traced.residual_history == plain.residual_history


def test_compare_is_bit_identical_under_tracing(workload):
    plain = workload.call("compare", workload.build())
    traced, _, _ = _traced(workload, "compare")
    assert traced.residuals_sine == plain.residuals_sine
    assert traced.residuals_cgne == plain.residuals_cgne
    assert np.array_equal(traced.iterate_sine, plain.iterate_sine)


def test_wrapping_keeps_strategy(workload):
    want = STRATEGY[workload.name]
    op = workload.build().operator
    assert sinereg.build_shift_solver(op, workload.gamma).strategy == want
    tracer = Tracer()
    with tracer.installed():
        wrapped = sinereg.sine.build_shift_solver
        assert wrapped is not sinereg.build_shift_solver
        solver = wrapped(workload.build().operator, workload.gamma)
    assert solver.strategy == want
    assert sinereg.sine.build_shift_solver is sinereg.build_shift_solver


def test_installed_restores_on_error():
    originals = (sinereg.DenseOperator.apply, sinereg.sine.sine_step,
                 sinereg.InnerProductSpace.inner)
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert sinereg.DenseOperator.apply is not originals[0]
            raise RuntimeError("boom")
    assert (sinereg.DenseOperator.apply, sinereg.sine.sine_step,
            sinereg.InnerProductSpace.inner) == originals


def test_smoke_run_passes_checks(workload):
    runner = Runner(workload)
    peak = runner.reference_pass(KINDS)
    assert runner.attempted == len(KINDS)
    assert runner.failed == 0
    assert peak > 0
    assert workload.reference["sine"] <= workload.reference["cgne"]
    runner.tracer = Tracer()
    with runner.tracer.installed():
        for kind in KINDS:
            assert runner.record(kind, runner.op(kind), speed=1.0)
    assert runner.failed == 0
    assert set(runner.layers) | {"resolvent.failures"} == set(PER_LAYER)
    assert runner.failed_solves == 0


def test_layer_counts_repeat_and_match_the_recurrence(workload):
    first, second = (
        layer_metrics("sine", spans, result, problem)
        for result, problem, spans in (_traced(workload, "sine"),
                                       _traced(workload, "sine"))
    )
    counts = [k for k, unit in PER_LAYER.items()
              if k in first and unit != "s" and k != "sine.setup_frac"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["sine.forward_per_step"] == 1.0
    assert first["sine.adjoint_per_step"] == 2.0
    assert first["sine.solves_per_step"] == 1.0
    assert first["sine.steps"] == first["resolvent.solve_calls"]
    if workload.name == "blur-mf":
        assert first["resolvent.inner_iters_per_solve"] > 0
    else:
        assert first["resolvent.inner_iters"] == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blur-mf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
