"""Experiment harnesses: per-iteration solver comparison, noise-sweep rate
checks with a log-log slope fit, and the diagnostics driver."""

import math
from dataclasses import dataclass, field

import numpy as np

from .cgne import run_cgne
from .diagnostics import (
    OrthogonalityReport,
    ResidualFunction,
    _orthonormal_prefix,
    build_basis,
    check_interlacing,
    orthogonality_audit,
    projected_gram,
    residual_function_eval,
    ritz_values,
    rprime_at_zero,
)
from .exceptions import NumericalError
from .operators import DenseOperator, DiagonalOperator
from .problems import Problem, multiplication_problem
# build_shift_solver and sine_step are unused here, but bench/layertrace.py
# wraps them by their names in this module
from .sine import (_shift_and_rule, _sine, build_shift_solver,  # noqa: F401
                   run_sine, sine_step)
from .spaces import _beside, _count, _real, _second_cpu
from .stopping import StoppingRule, _Gate, _Record

__all__ = [
    "CompareResult",
    "run_compare",
    "RateCheckConfig",
    "RateRecord",
    "RateCheckResult",
    "run_ratecheck",
    "DiagnosticsReport",
    "run_diagnostics",
]

# Slack for the per-iteration residual comparison: in exact arithmetic the
# rational-subspace residual never exceeds the polynomial-subspace one.
DOMINANCE_TOL = 1e-10


@dataclass
class CompareResult(_Record):
    """Per-iteration residual comparison of the two solvers.

    The rational-subspace run is continued past its own stopping index to
    fill the table; ``stopping_index_sine`` is still the first discrepancy
    index and ``iterate_sine`` the iterate there. When that run breaks
    down early its residual column is padded with the breakdown value (the
    iterate no longer changes). ``terminated_by_sine`` is "discrepancy",
    "breakdown", or "table_exhausted" when the table ended first.
    ``dominance_all`` is True iff every entry of ``dominance`` is.
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
    dominance_all: bool = field(init=False)

    def __post_init__(self):
        self.dominance_all = all(self.dominance)


def run_compare(problem, gamma, rule):
    """Run both solvers on the same problem and tabulate residuals per m.

    The baseline runs under the stopping rule; the rational-subspace
    iteration is driven for the same number of steps (stopping early
    only if it breaks down) so that every row of the table compares
    minimizers over same-index subspaces; a projected run (see
    :mod:`sinereg.sine`) grows until it also carries the continued run to
    the table's last row. Both run on the problem without its truth, since
    the table holds residuals only, and so compute no error norms.

    On a :class:`DenseOperator`, when ``spaces._second_cpu`` holds, the
    baseline runs beside the SINE half by ``spaces._beside``, and a
    :class:`_Gate` keeps the result bit for bit the sequential one. Other
    runs stay in sequence: a diagonal one for memory (10^6 points would
    peak at 137 MB, not 88), a projected one because it needs the table's
    length first, a matrix-free one because a callable need not be
    thread-safe, and any on one CPU or with a threaded BLAS, where the
    overlap ran slower (README).
    """
    gamma = _shift_and_rule("run_compare", gamma, rule)
    top = problem.operator.norm_estimate()  # the baseline's breakdown scale
    if not math.isfinite(1.0 + top * top / gamma):
        raise NumericalError(
            f"run_compare: the shifted operator I + T*T / gamma overflows, "
            f"since 1 + ||T||^2 / gamma does (gamma={gamma:g})")
    problem = problem._without_truth()
    gate = _Gate()
    if isinstance(problem.operator, DenseOperator) and _second_cpu():
        sine, (res_c, m_cgne, terminated_c) = _beside(
            lambda: _sine(problem, gamma, rule, gate, fill=True),
            lambda: _baseline(problem, rule, gate), own=True)
    else:
        res_c, m_cgne, terminated_c = _baseline(problem, rule, gate)
        sine = _sine(problem, gamma, rule, len(res_c) - 1, fill=True)
    state, terminated_s, m_sine, iterate_sine, _ = sine
    table_len = len(res_c)  # entries m = 0 .. m_table
    if terminated_s == "iteration_cap":
        terminated_s = "table_exhausted"
    res_s = list(state.residual_norms)
    # after breakdown or a zero residual the iterate is frozen, so the
    # residual column repeats
    res_s += [res_s[-1]] * (table_len - len(res_s))

    r0 = res_s[0]
    dominance = [
        res_s[m] <= res_c[m] + DOMINANCE_TOL * r0 for m in range(table_len)
    ]
    return CompareResult(
        residuals_sine=res_s,
        residuals_cgne=res_c,
        stopping_index_sine=m_sine,
        stopping_index_cgne=m_cgne,
        terminated_by_sine=terminated_s,
        terminated_by_cgne=terminated_c,
        dominance=dominance,
        iterate_sine=iterate_sine,
    )


def _baseline(problem, rule, gate):
    """The residual history, stopping index and reason of ``run_compare``'s
    CGNE run, which leads ``gate`` and ends it; frees its report's vectors."""
    try:
        report = run_cgne(problem, rule, _gate=gate)
    finally:
        gate.end()
    return report.residual_history, report.stopping_index, report.terminated_by


@dataclass(frozen=True)
class RateCheckConfig(_Record):
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
        # object dtype, so that a ragged grid is 1-d and its entries fail below
        if np.ndim(np.array(self.delta_grid, dtype=object)) != 1:
            raise ValueError(
                f"delta grid must be a sequence of numbers, got {self.delta_grid!r}")
        grid = tuple(_real(d, "delta grid entries") for d in self.delta_grid)
        object.__setattr__(self, "delta_grid", grid)
        if len(grid) == 0:
            raise ValueError("delta grid must be nonempty")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValueError("delta grid must be strictly decreasing")
        _real(self.mu, "mu")
        _real(self.gamma, "gamma")
        _count(self.n, "n", low=2)
        # the rule of the smallest noise level checks tau and max_iters
        StoppingRule(self.tau, grid[-1], self.max_iters)

    @property
    def truth_exponent(self):
        return 2.0 * self.mu


@dataclass
class RateRecord(_Record):
    delta: float
    stopping_index: int
    error: float
    flagged: bool  # hit the iteration cap; excluded from the fit


@dataclass
class RateCheckResult(_Record):
    records: list[RateRecord]
    slope: float | None
    config: RateCheckConfig

    @property
    def flagged_fraction(self):
        if not self.records:
            return 0.0
        return sum(r.flagged for r in self.records) / len(self.records)


def run_ratecheck(config):
    """Solve the benchmark for each noise level and fit the error decay.

    Each record holds (delta, stopping index, weighted-norm error against
    the truth). The levels share one operator, truth and exact data, and
    run without the truth, so no error history is computed. Cap-terminated
    runs are flagged and excluded from the fitted slope (see :func:`fit_rate`).
    """
    base = multiplication_problem(config.n, config.truth_exponent, 0.0)
    records = []
    for delta in config.delta_grid:
        problem = Problem(base.operator, base.y_delta + delta, delta)
        rule = StoppingRule(tau=config.tau, delta=delta, max_iters=config.max_iters)
        report = run_sine(problem, config.gamma, rule)
        records.append(
            RateRecord(
                delta=delta,
                stopping_index=report.stopping_index,
                error=base.error_norm(report.iterate),
                flagged=report.terminated_by == "iteration_cap",
            )
        )
    return RateCheckResult(
        records=records, slope=fit_rate(records), config=config
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
class DiagnosticsReport(_Record):
    """Spectral diagnostics of a single run with retained history.

    ``ritz`` maps m = 1..M to the Ritz values of the m-th projected
    matrix; ``interlacing`` holds the verdicts for consecutive pairs
    (m = 2..M); ``rprime`` the residual-filter derivative magnitudes at 0.
    M is ``analyzed_steps``, which is less than ``stopping_index`` when
    the run's directions stop being numerically independent, or its
    projected matrices stop being positive definite, before the run
    stops; ``truncated_reason`` then says which, and is None otherwise.
    """

    ritz: list[list[float]]
    interlacing: list[bool]
    rprime: list[float]
    orthogonality: OrthogonalityReport
    residual_identity_max: float | None = None
    stopping_index: int = 0
    terminated_by: str = ""
    analyzed_steps: int = 0
    truncated_reason: str | None = None


def run_diagnostics(problem, gamma, rule):
    """Run the rational-subspace solver with history and analyze it.

    Builds the reorthonormalized basis once, takes leading submatrices of
    the projected matrix for the per-m Ritz spectra, checks interlacing of
    every consecutive pair, evaluates the residual-filter derivative at 0,
    and audits orthogonality. On diagonal operators the componentwise
    residual-filter identity is also evaluated and its worst relative
    error reported.

    It checks its shift and rule once and drives ``_sine`` itself, for
    the run of :func:`run_sine` with ``keep_history`` on the problem
    without its truth, as no field reads an error; :mod:`sinereg.sine`
    gives that run's cost. Off a diagonal operator that history keeps
    r_0 alone of the residuals, and the audit regenerates the rest, bit
    for bit. The analysis adds m forward applies for the projected matrix
    and m adjoint applies for the orthogonality audit, or one matrix
    product for each on a dense operator.

    The solver's outcome is never changed. On a rank-deficient problem
    the run can continue past the rank of T on rounding noise; the
    spectral quantities then cover the longest prefix of the run whose
    directions are numerically independent and whose projected matrices
    are positive definite (``analyzed_steps``). The orthogonality audit
    covers the whole run.
    """
    gamma = _shift_and_rule("run_diagnostics", gamma, rule)
    cap = rule.resolve_cap(problem.operator.domain_dim)
    problem = problem._without_truth()
    diagonal = isinstance(problem.operator, DiagonalOperator)
    state, terminated, steps, _, _ = _sine(problem, gamma, rule, cap, keep_history=True,
                                           iterate=False, residuals=diagonal)
    # each vector goes once its last reader is done, a projected iterate first
    state.iterate = None
    orthogonality = orthogonality_audit(state)
    history = state.direction_history[:steps]
    residuals = state.residual_vectors[1:] if diagonal else None
    del state
    spectra, truncated, basis = [], None, None
    if steps:
        try:
            basis = build_basis(history, problem.domain_space)
        except NumericalError:
            # a second pass, on this rare path only, keeps the directions
            # before the dependent one
            basis, truncated = _orthonormal_prefix(history, problem.domain_space)
    del history
    if basis is not None:
        s_full = projected_gram(basis, problem.operator)
        del basis  # n x m, unused past here
        for m in range(1, s_full.shape[0] + 1):
            try:
                spectra.append(ritz_values(s_full[:m, :m]))
            except ValueError as exc:
                # the extreme eigenvalues of a leading submatrix only
                # spread with its order (Cauchy), so every larger one fails
                truncated = f"projected matrix of order {m}: {exc}"
                break
    filters = [ResidualFunction.from_spectrum(sp, gamma) for sp in spectra]
    identity_max = None
    if diagonal:
        lam, y = problem.operator.diagonal ** 2, problem.y_delta
        ynorm = problem.range_space.norm(y)
        errors = [problem.range_space.norm(r - residual_function_eval(rf, lam) * y)
                  for r, rf in zip(residuals, filters)]
        identity_max = max((e / ynorm if ynorm > 0 else e for e in errors),
                           default=None)
    return DiagnosticsReport(
        ritz=[sp.tolist() for sp in spectra],
        interlacing=[check_interlacing(a, b) for a, b in zip(spectra, spectra[1:])],
        rprime=[rprime_at_zero(rf) for rf in filters],
        orthogonality=orthogonality,
        residual_identity_max=identity_max,
        stopping_index=steps,
        terminated_by=terminated,
        analyzed_steps=len(spectra),
        truncated_reason=truncated,
    )
