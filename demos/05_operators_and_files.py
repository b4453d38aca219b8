# Operator backends, weighted spaces, the resolvent solver, and file
# round-trips (Matrix Market / CSV).
import tempfile
from pathlib import Path

import numpy as np

from sinereg import (
    DenseOperator,
    InnerProductSpace,
    MatrixFreeOperator,
    Problem,
    StoppingRule,
    build_shift_solver,
    load_problem,
    run_sine,
    save_dense_operator,
    save_vector,
)

rng = np.random.default_rng(0)

# A dense operator between weighted spaces: the adjoint carries the weight
# correction so <T u, v> = <u, T* v> holds in the weighted products.
domain = InnerProductSpace(30, weights=rng.uniform(0.5, 1.5, 30))
codomain = InnerProductSpace(40, weights=rng.uniform(0.5, 1.5, 40))
a = rng.standard_normal((40, 30))
dense = DenseOperator(a, domain=domain, codomain=codomain)

u, v = rng.standard_normal(30), rng.standard_normal(40)
pairing = codomain.inner(dense.apply(u), v) - domain.inner(u, dense.apply_adjoint(v))
print(f"adjoint pairing defect: {abs(pairing):.2e}")
print(f"operator norm estimate: {dense.norm_estimate():.4f} "
      f"(top singular value of the weighted map)")

# The same operator matrix-free: only forward/adjoint callables are given,
# and the shift-and-invert solve falls back to inner conjugate gradients.
free = MatrixFreeOperator(domain, codomain, dense.apply, dense.apply_adjoint)
solver = build_shift_solver(free, gamma=0.5)
x = rng.standard_normal(30)
z = solver.apply(x)
res = domain.norm(z + free.normal_apply(z) / solver.gamma - x) / domain.norm(x)
print(f"matrix-free resolvent residual: {res:.2e} (strategy: {solver.strategy})")

# File round-trip: write an operator and data vector, reassemble a problem,
# and solve it.
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    truth = rng.standard_normal(12)
    b = rng.standard_normal((16, 12))
    save_dense_operator(b, tmp / "operator.mtx")
    save_vector(b @ truth, tmp / "data.csv")
    problem = load_problem(tmp / "operator.mtx", tmp / "data.csv", 0.0)
    print(f"\nloaded problem: {problem.operator.range_dim} x "
          f"{problem.operator.domain_dim}, matrix round-trip exact: "
          f"{np.array_equal(problem.operator.matrix, b)}")
    report = run_sine(problem, gamma=1.0,
                      rule=StoppingRule(tau=1.01, delta=1e-10, max_iters=50))
    err = np.linalg.norm(report.iterate - truth) / np.linalg.norm(truth)
    print(f"recovered noise-free solution to {err:.2e} after "
          f"{report.stopping_index} steps ({report.terminated_by})")
