"""Seeded workloads of the benchmark: inputs, ops and correctness checks.

Each workload generates its arrays once, from the seed. Every op then
builds a fresh operator and ``Problem`` from those arrays through the
public constructors and makes one entry-point call.
``LinearOperator.norm_estimate`` caches on the operator object, so an op
that reused one ``Problem`` would hide a set-up cost that users pay on
every new problem.

The library is used only through its public API.
"""

import numpy as np

import sinereg as sr

KINDS = ("sine", "cgne", "compare", "diagnostics", "ratecheck")

# Acceptance criterion 03: the paper's noise grid and the minimum fitted
# slope for each source exponent mu.
RATE_GRID = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
RATE_MIN_SLOPES = ((0.5, 0.49), (1.5, 0.74))

# The rate check works on 4096-vectors, where the interpreter sets its
# speed, so it follows a pure-Python probe instead of the operator's.
# PYTHON_PROBE_REF_S is that probe's median within a run on the baseline
# machine.
PYTHON_PROBE_REF_S = 0.0033


def python_probe():
    total = 0
    for i in range(40_000):
        total += i * i
    return total


# A recomputed residual ||y - T x_m|| may exceed tau * delta by this share.
# On these workloads it differs from the recurrence's residual by at most
# about 3e-15 relative (seeds 1 and 2), so 1e-9 fails only a real defect.
RESIDUAL_RTOL = 1e-9


class Workload:
    """Arrays of one workload and the ops run on them.

    Subclasses set the solver parameters, generate the arrays in
    ``__init__`` and build a fresh problem in ``build``.
    ``expected_indices`` is ``(sine, cgne)`` where the stopping indices are
    known exactly, else ``None``.

    ``speed_probe`` does a fixed amount of the numpy work the workload's
    operator does, without the library; ``probe_ref_s`` is its median
    within a run on the machine the baseline was measured on (see
    README.md, "Speed scaling").
    """

    name = ""
    gamma = 0.0
    tau = 0.0
    delta = 0.0
    expected_indices = None
    probe_ref_s = 0.0

    def __init__(self):
        # stopping indices of a reference sine and cgne op on the same
        # arrays, set by the caller before it checks other ops
        self.reference = {}

    def build(self):
        raise NotImplementedError

    def speed_probe(self):
        raise NotImplementedError

    def probes(self):
        """The speed probes by name, each with its reference seconds."""
        return {"operator": (self.speed_probe, self.probe_ref_s),
                "python": (python_probe, PYTHON_PROBE_REF_S)}

    @staticmethod
    def probe_for(kind):
        """Name of the probe whose speed ops of this kind follow."""
        return "python" if kind == "ratecheck" else "operator"

    def call(self, kind, problem):
        """Make the one entry-point call of an op of this kind."""
        if kind == "ratecheck":
            return [
                sr.run_ratecheck(sr.RateCheckConfig(delta_grid=RATE_GRID, mu=mu))
                for mu, _ in RATE_MIN_SLOPES
            ]
        rule = sr.StoppingRule(tau=self.tau, delta=self.delta)
        if kind == "sine":
            return sr.run_sine(problem, self.gamma, rule)
        if kind == "cgne":
            return sr.run_cgne(problem, rule)
        if kind == "compare":
            return sr.run_compare(problem, self.gamma, rule)
        if kind == "diagnostics":
            return sr.run_diagnostics(problem, self.gamma, rule)
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, kind, result, problem):
        """Return (failures, relative error) of one op's result.

        ``failures`` lists what the result got wrong, empty when it passes.
        The relative error is set for sine and cgne ops only.
        """
        if kind in ("sine", "cgne"):
            return self._check_solve(kind, result, problem)
        if kind == "compare":
            return self._check_compare(result), None
        if kind == "diagnostics":
            return self._check_diagnostics(result), None
        return self._check_ratecheck(result), None

    def _check_index(self, kind, m, other):
        fails = []
        if self.expected_indices is not None:
            want = self.expected_indices[0 if kind == "sine" else 1]
            if m != want:
                fails.append(f"{kind} stopped at {m}, expected {want}")
        if other in self.reference:
            sine, cgne = (m, self.reference[other]) if kind == "sine" \
                else (self.reference[other], m)
            if sine > cgne:
                fails.append(f"sine index {sine} exceeds cgne index {cgne}")
        return fails

    def _check_solve(self, kind, report, problem):
        fails = []
        if report.terminated_by != "discrepancy":
            fails.append(f"{kind} terminated by {report.terminated_by}")
        m = report.stopping_index
        threshold = self.tau * self.delta
        recomputed = problem.residual_norm(report.iterate)
        if not recomputed <= threshold * (1.0 + RESIDUAL_RTOL):
            fails.append(
                f"{kind} recomputed residual {recomputed:.17g} above "
                f"tau*delta {threshold:.17g}"
            )
        if m == 0 or not report.residual_history[m - 1] > threshold:
            fails.append(f"{kind} residual at step {m - 1} already below tau*delta")
        fails += self._check_index(kind, m, "cgne" if kind == "sine" else "sine")
        error = problem.error_norm(report.iterate)
        return fails, error / problem.domain_space.norm(problem.truth)

    def _check_compare(self, res):
        fails = []
        if not res.dominance_all:
            fails.append("compare: sine residual above cgne residual")
        for kind, how in (("sine", res.terminated_by_sine),
                          ("cgne", res.terminated_by_cgne)):
            if how != "discrepancy":
                fails.append(f"compare: {kind} terminated by {how}")
        fails += self._check_index("sine", res.stopping_index_sine, "cgne")
        fails += self._check_index("cgne", res.stopping_index_cgne, "sine")
        if res.stopping_index_sine > res.stopping_index_cgne:
            fails.append("compare: sine stopped after cgne")
        return fails

    def _check_diagnostics(self, rep):
        fails = []
        if rep.terminated_by != "discrepancy":
            fails.append(f"diagnostics: run terminated by {rep.terminated_by}")
        if len(rep.interlacing) != max(rep.stopping_index - 1, 0):
            fails.append("diagnostics: missing interlacing verdicts")
        if not all(rep.interlacing):
            fails.append("diagnostics: Ritz values do not interlace")
        return fails

    def _check_ratecheck(self, results):
        fails = []
        for res, (mu, min_slope) in zip(results, RATE_MIN_SLOPES):
            if res.slope is None or not res.slope >= min_slope:
                fails.append(f"ratecheck: slope {res.slope} below {min_slope} at mu={mu}")
        return fails


class MultiplicationWorkload(Workload):
    """The paper's multiplication benchmark, truth t, constant noise.

    Its inputs do not depend on the seed; the seed only orders the ops.
    """

    name = "mult-1m"
    gamma = 1e-3
    tau = 1.001
    delta = 1e-3
    expected_indices = (2, 19)
    probe_ref_s = 0.0072

    def __init__(self, seed, n=1_000_000):
        super().__init__()
        p = sr.multiplication_problem(n, 1, self.delta)
        self.n = n
        self.diagonal = p.operator.diagonal
        self.weights = p.operator.domain.weights
        self.y = p.y_delta
        self.truth = p.truth

    def speed_probe(self):
        for _ in range(3):
            float(np.dot(self.diagonal * self.y, self.weights))

    def build(self):
        space = sr.InnerProductSpace(self.n, self.weights)
        op = sr.DiagonalOperator(self.diagonal, space)
        return sr.Problem(op, self.y, self.delta, truth=self.truth)


class DenseWorkload(Workload):
    """Seeded dense problem with algebraically decaying singular values."""

    name = "dense-alg"
    gamma = 1e-3
    tau = 1.001
    delta = 1e-4
    probe_ref_s = 0.0082

    def __init__(self, seed, rows=2000, cols=1000):
        super().__init__()
        p = sr.random_problem(rows, cols, "algebraic", rate=1, seed=seed,
                              delta=self.delta)
        self.matrix = p.operator.matrix
        self.y = p.y_delta
        self.truth = p.truth

    def speed_probe(self):
        for _ in range(5):
            self.matrix.T @ (self.matrix @ self.truth)

    def build(self):
        op = sr.DenseOperator(self.matrix)
        return sr.Problem(op, self.y, self.delta, truth=self.truth)


class BlurWorkload(Workload):
    """Periodic Gaussian blur applied by FFT, as a matrix-free operator.

    Midpoint grid on (0, 1) with weights 1/n. The kernel is even, so the
    circulant operator is self-adjoint in the weighted product and its
    eigenvalues are the real FFT of the kernel's first column. The truth
    is a box on [0.1, 0.45] plus a half sine wave of height 3 on
    [0.65, 0.95]; with it SINE stops at 11 for every noise seed tried
    (0 to 59), so the seed changes the noise but not the work of a
    solve.
    """

    name = "blur-mf"
    gamma = 1e-2
    tau = 1.01
    delta = 1e-3
    width = 0.02
    probe_ref_s = 0.0080

    def __init__(self, seed, n=2**14):
        super().__init__()
        self.n = n
        t = (np.arange(n) + 0.5) / n
        lag = np.arange(n) / n
        dist = np.minimum(lag, 1.0 - lag)
        kernel = np.exp(-dist**2 / (2.0 * self.width**2))
        kernel /= self.width * np.sqrt(2.0 * np.pi) * n
        self.eigenvalues = np.fft.rfft(kernel).real
        self.weights = np.full(n, 1.0 / n)
        box = ((t >= 0.1) & (t <= 0.45)).astype(float)
        bump = np.where((t >= 0.65) & (t <= 0.95),
                        np.sin(np.pi * (t - 0.65) / 0.3), 0.0)
        self.truth = box + 3.0 * bump
        space = sr.InnerProductSpace(n, self.weights)
        self.y = sr.add_noise(self.blur(self.truth), self.delta,
                              "random-direction", seed=seed, space=space)

    def blur(self, x):
        return np.fft.irfft(np.fft.rfft(x) * self.eigenvalues, self.n)

    def speed_probe(self):
        for _ in range(20):
            self.blur(self.y)

    def build(self):
        space = sr.InnerProductSpace(self.n, self.weights)
        op = sr.MatrixFreeOperator(space, space, self.blur, self.blur)
        return sr.Problem(op, self.y, self.delta, truth=self.truth)


WORKLOADS = {
    w.name: w for w in (MultiplicationWorkload, DenseWorkload, BlurWorkload)
}
