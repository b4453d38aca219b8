# Inspect the spectral structure of a run: Ritz values of the projected
# normal-equation matrix, interlacing between consecutive spectra, the
# residual rational function, and an orthogonality audit.
import numpy as np

from sinereg import (
    ResidualFunction,
    StoppingRule,
    build_basis,
    build_shift_solver,
    check_interlacing,
    orthogonality_audit,
    projected_gram,
    random_problem,
    residual_function_eval,
    ritz_values,
    rprime_at_zero,
    sine_init,
    sine_step,
)

gamma = 1.0
problem = random_problem(50, 40, decay="geometric", rate=0.9, seed=0, delta=1e-4)
solver = build_shift_solver(problem.operator, gamma)

# run 8 steps with vector history retained
state = sine_init(problem, gamma, keep_history=True)
for _ in range(8):
    sine_step(state, solver)

# orthonormalize the search directions and project T*T onto the subspace;
# the leading k-by-k block corresponds to the k-th subspace
basis = build_basis(state.direction_history[:8], problem.domain_space)
s = projected_gram(basis, problem.operator)
gram = problem.domain_space.gram(basis, basis)
print(f"basis orthonormality error: {np.max(np.abs(gram - np.eye(8))):.2e}")

spectra = [ritz_values(s[:m, :m]) for m in range(1, 9)]
print("\nRitz values per m (zeros of the residual rational function):")
for m, sp in enumerate(spectra, start=1):
    print(f"  m={m}: {np.round(sp, 5)}")

print("\ninterlacing of consecutive spectra:",
      [check_interlacing(a, b) for a, b in zip(spectra, spectra[1:])])

# |r'(0)| grows with m; its reciprocal controls how fast the residual can
# still decrease
rp = [rprime_at_zero(ResidualFunction.from_spectrum(sp, gamma)) for sp in spectra]
print("|r'(0)| per m:", np.round(rp, 3))

# the filter equals 1 at 0 and vanishes at each Ritz value
rf = ResidualFunction.from_spectrum(spectra[-1], gamma)
print(f"\nfilter at 0: {residual_function_eval(rf, 0.0)}")
print(f"filter at first Ritz value: {residual_function_eval(rf, rf.zeros[0])}")

audit = orthogonality_audit(state)
print(f"\nmax Galerkin violation:   {audit.max_galerkin:.2e}")
print(f"max conjugacy violation:  {audit.max_conjugacy:.2e}")
