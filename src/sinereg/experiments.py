"""Experiment harnesses: per-iteration solver comparison, noise-sweep rate
checks with a log-log slope fit, and the diagnostics driver."""

import math
from dataclasses import dataclass, field

import numpy as np

from .cgne import run_cgne
from .diagnostics import (
    ResidualFunction,
    build_basis,
    check_interlacing,
    orthogonality_audit,
    projected_gram,
    residual_function_eval,
    ritz_values,
    rprime_at_zero,
)
from .operators import DiagonalOperator
from .problems import multiplication_problem
from .resolvent import build_shift_solver
from .sine import run_sine, sine_init, sine_step
from .stopping import StoppingRule, _plain, drive

__all__ = [
    "CompareResult",
    "run_compare",
    "RateCheckConfig",
    "RateRecord",
    "RateCheckResult",
    "run_ratecheck",
    "fit_rate",
    "DiagnosticsReport",
    "run_diagnostics",
    "DOMINANCE_TOL",
]

# Slack for the per-iteration residual comparison: in exact arithmetic the
# rational-subspace residual never exceeds the polynomial-subspace one.
DOMINANCE_TOL = 1e-10


@dataclass
class CompareResult:
    """Per-iteration residual comparison of the two solvers.

    The rational-subspace run is continued past its own stopping index to
    fill the table; ``stopping_index_sine`` is still the first discrepancy
    index and ``iterate_sine`` the iterate there. When that run breaks
    down early its residual column is padded with the breakdown value (the
    iterate no longer changes). ``terminated_by_sine`` is "discrepancy",
    "breakdown", or "table_exhausted" when the table ended first.
    """

    residuals_sine: list[float]
    residuals_cgne: list[float]
    stopping_index_sine: int
    stopping_index_cgne: int
    terminated_by_sine: str
    terminated_by_cgne: str
    dominance: list[bool]
    # never serialized
    iterate_sine: np.ndarray | None = field(default=None, repr=False)

    @property
    def dominance_all(self):
        return all(self.dominance)

    def to_dict(self):
        return {**_plain(self), "dominance_all": self.dominance_all}


def run_compare(problem, gamma, rule):
    """Run both solvers on the same problem and tabulate residuals per m.

    The baseline runs under the stopping rule; the rational-subspace
    iteration is then driven for the same number of steps (stopping early
    only if it breaks down) so that every row of the table compares
    minimizers over same-index subspaces.
    """
    rep_c = run_cgne(problem, rule)
    table_len = len(rep_c.residual_history)  # entries m = 0 .. m_table

    solver = build_shift_solver(problem.operator, gamma)
    state = sine_init(problem, gamma)

    def step(st):
        sine_step(st, solver)

    terminated_s = drive(state, step, rule, table_len - 1)
    m_sine = state.iteration
    iterate_sine = state.iterate.copy()
    if terminated_s == "discrepancy":
        # fill the table; a zero threshold stops only on an exactly zero
        # residual, which later steps would keep at zero
        drive(state, step, StoppingRule(rule.tau, 0.0), table_len - 1)
    elif terminated_s == "iteration_cap":
        terminated_s = "table_exhausted"
    res_s = list(state.residual_norms)
    # after breakdown or a zero residual the iterate is frozen, so the
    # residual column repeats
    res_s += [res_s[-1]] * (table_len - len(res_s))

    r0 = res_s[0]
    res_c = list(rep_c.residual_history)
    dominance = [
        res_s[m] <= res_c[m] + DOMINANCE_TOL * r0 for m in range(table_len)
    ]
    return CompareResult(
        residuals_sine=res_s,
        residuals_cgne=res_c,
        stopping_index_sine=m_sine,
        stopping_index_cgne=rep_c.stopping_index,
        terminated_by_sine=terminated_s,
        terminated_by_cgne=rep_c.terminated_by,
        dominance=dominance,
        iterate_sine=iterate_sine,
    )


@dataclass(frozen=True)
class RateCheckConfig:
    """Noise sweep over the multiplication benchmark.

    ``mu`` is the source-condition exponent of the truth (truth t^(2 mu)),
    so mu = 1/2 means truth t and mu = 3/2 means truth t^3. The grid must
    be strictly decreasing, positive and finite.
    """

    delta_grid: tuple
    mu: float
    tau: float = 1.001
    gamma: float = 1e-3
    n: int = 4096
    max_iters: int | None = None

    def __post_init__(self):
        grid = tuple(float(d) for d in self.delta_grid)
        object.__setattr__(self, "delta_grid", grid)
        if len(grid) == 0:
            raise ValueError("delta grid must be nonempty")
        if not all(math.isfinite(d) and d > 0 for d in grid):
            raise ValueError("delta grid entries must be finite and positive")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValueError("delta grid must be strictly decreasing")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")

    @property
    def truth_exponent(self):
        return 2.0 * self.mu

    def to_dict(self):
        return _plain(self)


@dataclass
class RateRecord:
    delta: float
    stopping_index: int
    error: float
    flagged: bool  # hit the iteration cap; excluded from the fit

    def to_dict(self):
        return _plain(self)


@dataclass
class RateCheckResult:
    records: list[RateRecord]
    slope: float | None
    config: dict

    @property
    def flagged_fraction(self):
        if not self.records:
            return 0.0
        return sum(r.flagged for r in self.records) / len(self.records)

    def to_dict(self):
        return _plain(self)


def run_ratecheck(config):
    """Solve the benchmark for each noise level and fit the error decay.

    Each record holds (delta, stopping index, weighted-norm error against
    the truth). Cap-terminated runs are flagged and excluded from the
    least-squares slope of log(error) against log(delta).
    """
    records = []
    for delta in config.delta_grid:
        problem = multiplication_problem(config.n, config.truth_exponent, delta)
        rule = StoppingRule(tau=config.tau, delta=delta, max_iters=config.max_iters)
        report = run_sine(problem, config.gamma, rule)
        records.append(
            RateRecord(
                delta=delta,
                stopping_index=report.stopping_index,
                error=problem.error_norm(report.iterate),
                flagged=report.terminated_by == "iteration_cap",
            )
        )
    return RateCheckResult(
        records=records, slope=fit_rate(records), config=config.to_dict()
    )


def fit_rate(records):
    """Least-squares slope of log(error) vs log(delta), or None.

    Uses unflagged records with strictly positive errors; at least two are
    needed for a slope.
    """
    usable = [r for r in records if not r.flagged and r.error > 0]
    if len(usable) < 2:
        return None
    ld = np.log([r.delta for r in usable])
    le = np.log([r.error for r in usable])
    return float(np.polyfit(ld, le, 1)[0])


@dataclass
class DiagnosticsReport:
    """Spectral diagnostics of a single run with retained history.

    ``ritz`` maps m = 1..M to the Ritz values of the m-th projected
    matrix; ``interlacing`` holds the verdicts for consecutive pairs
    (m = 2..M); ``rprime`` the residual-filter derivative magnitudes at 0.
    """

    ritz: list[list[float]]
    interlacing: list[bool]
    rprime: list[float]
    orthogonality: dict
    residual_identity_max: float | None = None
    stopping_index: int = 0
    terminated_by: str = ""

    def to_dict(self):
        return _plain(self)


def run_diagnostics(problem, gamma, rule):
    """Run the rational-subspace solver with history and analyze it.

    Builds the reorthonormalized basis once, takes leading submatrices of
    the projected matrix for the per-m Ritz spectra, checks interlacing of
    every consecutive pair, evaluates the residual-filter derivative at 0,
    and audits orthogonality. On diagonal operators the componentwise
    residual-filter identity is also evaluated and its worst relative
    error reported.
    """
    report = run_sine(problem, gamma, rule, keep_history=True)
    state = report.state
    steps = state.iteration
    if steps == 0:
        return DiagnosticsReport(
            ritz=[],
            interlacing=[],
            rprime=[],
            orthogonality=orthogonality_audit(state).to_dict(),
            stopping_index=report.stopping_index,
            terminated_by=report.terminated_by,
        )
    basis = build_basis(state.direction_history[:steps], problem.domain_space)
    s_full = projected_gram(basis, problem.operator)
    spectra = [ritz_values(s_full[:m, :m]) for m in range(1, steps + 1)]
    verdicts = [
        check_interlacing(spectra[m - 2], spectra[m - 1])
        for m in range(2, steps + 1)
    ]
    rprimes = [
        rprime_at_zero(ResidualFunction.from_spectrum(sp, gamma)) for sp in spectra
    ]
    identity_max = None
    if isinstance(problem.operator, DiagonalOperator):
        lam = problem.operator.diagonal ** 2
        ynorm = problem.range_space.norm(problem.y_delta)
        worst = 0.0
        for m in range(1, steps + 1):
            rf = ResidualFunction.from_spectrum(spectra[m - 1], gamma)
            predicted = residual_function_eval(rf, lam) * problem.y_delta
            diff = problem.range_space.norm(state.residual_vectors[m] - predicted)
            worst = max(worst, diff / ynorm if ynorm > 0 else diff)
        identity_max = worst
    return DiagnosticsReport(
        ritz=[list(sp.values) for sp in spectra],
        interlacing=verdicts,
        rprime=rprimes,
        orthogonality=orthogonality_audit(state).to_dict(),
        residual_identity_max=identity_max,
        stopping_index=report.stopping_index,
        terminated_by=report.terminated_by,
    )
