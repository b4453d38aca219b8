"""scipy is loaded only where it is used: by the first ``DenseOperator``
built (its Cholesky solve) and by Matrix Market I/O. Import checks run in
a fresh interpreter, because the suite itself has scipy loaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sinereg
from sinereg import DenseOperator, NumericalError, build_shift_solver

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys
import numpy as np
import sinereg as sr

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

"""


def run_fresh(code, **env):
    """Run PRELUDE and ``code`` in a new interpreter that imports sinereg
    from this checkout, with ``env`` added to its environment; fail with
    its stderr if it exits nonzero."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy():
    run_fresh("assert scipy_modules() == [], scipy_modules()")


@pytest.mark.parametrize("kind", ["diagonal", "matrix-free"])
def test_entry_points_load_no_scipy(kind):
    run_fresh(f"""
p = sr.multiplication_problem(256, 1, 1e-3)
if {kind!r} == "matrix-free":
    d = p.operator
    op = sr.MatrixFreeOperator(d.domain, d.codomain, d.apply, d.apply_adjoint)
    p = sr.Problem(op, p.y_delta, p.delta, truth=p.truth)
rule = sr.StoppingRule(1.01, p.delta)
sr.run_sine(p, 1e-2, rule)
sr.run_cgne(p, rule)
sr.run_compare(p, 1e-2, rule)
sr.run_diagnostics(p, 1e-2, rule)
sr.run_ratecheck(sr.RateCheckConfig((1e-2, 1e-3), 0.5, n=256))
assert scipy_modules() == [], scipy_modules()
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_split_gate_imports_and_loads_nothing():
    """The gate of the large-vector passes asks each OpenBLAS the process
    has loaded: it imports no scipy, and after a bare ``import scipy`` it
    asks scipy's library without loading it."""
    run_fresh("""
if not sr.spaces._openblas_files("numpy"):
    sys.exit(0)  # numpy bundles no OpenBLAS here, so the gate reads no count
sr.spaces._cpus = lambda: 2
assert sr.spaces._second_cpu()
assert scipy_modules() == [], scipy_modules()
import scipy
assert sr.spaces._second_cpu()
with open("/proc/self/maps") as f:
    assert "scipy.libs" not in f.read()
""", OPENBLAS_NUM_THREADS="1")


def test_dense_operator_loads_scipy_linalg():
    run_fresh("""
sr.DenseOperator(np.eye(2))
assert "scipy.linalg" in sys.modules
assert "scipy.io" not in sys.modules
""")


def test_matrix_market_io_loads_scipy_io(tmp_path):
    run_fresh(f"""
d = {str(tmp_path)!r}
sr.save_vector(np.arange(3.0), d + "/v.csv")
sr.load_vector(d + "/v.csv")
assert scipy_modules() == [], scipy_modules()
sr.save_vector(np.arange(3.0), d + "/v.mtx")
assert "scipy.io" in sys.modules
""")
    run_fresh(f"""
v = sr.load_vector({str(tmp_path / "v.mtx")!r})
assert v.tolist() == [0.0, 1.0, 2.0]
assert "scipy.io" in sys.modules
assert "scipy.linalg" not in sys.modules
""")


def test_cholesky_failure_is_numerical_error(monkeypatch):
    """scipy's LinAlgError is numpy's, which the dense shift solve catches."""
    def fail(m, **kwargs):
        raise scipy.linalg.LinAlgError("2-th leading minor not positive definite")

    op = DenseOperator(np.eye(3))
    monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
    with pytest.raises(NumericalError, match="Cholesky factorization"):
        build_shift_solver(op, 1.0)


def test_package_exports_every_module_all():
    """The package's public names are its nine modules' ``__all__`` lists,
    joined in order, each the module's own object."""
    modules = [importlib.import_module(f"sinereg.{name}") for name in (
        "cgne", "diagnostics", "exceptions", "experiments", "operators",
        "problems", "sine", "spaces", "stopping")]
    names = [n for module in modules for n in module.__all__]
    assert sinereg.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for n in module.__all__:
            assert getattr(sinereg, n) is getattr(module, n), n
    namespace = {}
    exec("from sinereg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    assert sinereg.build_shift_solver is sinereg.ShiftSolver
