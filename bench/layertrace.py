"""Span tracing of the library's layers, from outside the library.

``Tracer.installed()`` replaces public callables of ``sinereg`` with
wrappers that record one span per call: name, start, end, parent span,
op id and whether the call raised. Methods are replaced on their classes
and functions where the caller looks them up, so every object keeps its
type and the ``isinstance`` dispatch that picks a shift-solver strategy
is unchanged. Leaving the context restores the originals.

``layer_metrics`` turns the spans of one op into per-layer metrics.
"""

import contextlib
import functools
from time import perf_counter

import sinereg.cgne
import sinereg.experiments
import sinereg.sine
from sinereg import (
    DenseOperator,
    DiagonalOperator,
    InnerProductSpace,
    LinearOperator,
    MatrixFreeOperator,
    ShiftSolver,
)

# span record fields
NAME, START, END, PARENT, OP, RAISED, BYTES = range(7)

FORWARD = "operators.forward"
ADJOINT = "operators.adjoint"
SOLVE = "resolvent.solve"
NORM = "operators.norm_estimate"

# (owner, attribute, span name). Methods are replaced on the class that
# defines them; functions in the module that looks them up.
_TRACED = [
    (cls, attr, name)
    for cls in (DenseOperator, DiagonalOperator, MatrixFreeOperator)
    for attr, name in (("apply", FORWARD), ("apply_adjoint", ADJOINT))
] + [
    (LinearOperator, "norm_estimate", NORM),
    (ShiftSolver, "apply", SOLVE),
    (InnerProductSpace, "inner", "spaces.inner"),
    (InnerProductSpace, "check_vector", "spaces.check_vector"),
    (sinereg.sine, "build_shift_solver", "resolvent.build"),
    (sinereg.sine, "sine_step", "sine.step"),
    (sinereg.cgne, "cgne_step", "cgne.step"),
    (sinereg.experiments, "build_shift_solver", "resolvent.build"),
    (sinereg.experiments, "sine_step", "sine.step"),
    (sinereg.experiments, "run_cgne", "experiments.run_cgne"),
    (sinereg.experiments, "run_sine", "experiments.run_sine"),
    (sinereg.experiments, "multiplication_problem",
     "experiments.multiplication_problem"),
    (sinereg.experiments, "build_basis", "diagnostics.build_basis"),
    (sinereg.experiments, "projected_gram", "diagnostics.projected_gram"),
    (sinereg.experiments, "ritz_values", "diagnostics.ritz_values"),
    (sinereg.experiments, "orthogonality_audit", "diagnostics.audit"),
]

# Every per-layer metric with its unit. Counts are per op and times are
# seconds per op; the op kind each comes from is in layer_metrics.
# resolvent.failures is the total over the traced run, failed ops included.
PER_LAYER = {
    "operators.norm_estimate_s": "s",
    "operators.norm_estimate_iters": "count",
    "operators.forward_calls": "count",
    "operators.adjoint_calls": "count",
    "operators.forward_s": "s",
    "operators.adjoint_s": "s",
    "operators.bytes_computed": "bytes",
    "sine.steps": "count",
    "cgne.steps": "count",
    "sine.forward_per_step": "1/step",
    "sine.adjoint_per_step": "1/step",
    "sine.solves_per_step": "1/step",
    "cgne.forward_per_step": "1/step",
    "cgne.adjoint_per_step": "1/step",
    "sine.step_self_s": "s",
    "cgne.step_self_s": "s",
    "sine.setup_frac": "ratio",
    "cgne.setup_frac": "ratio",
    "resolvent.build_s": "s",
    "resolvent.solve_calls": "count",
    "resolvent.solve_s": "s",
    "resolvent.inner_iters": "count",
    "resolvent.inner_iters_per_solve": "1/solve",
    "resolvent.failures": "count",
    "spaces.inner_calls": "count",
    "spaces.inner_s": "s",
    "spaces.check_vector_calls": "count",
    "problems.build_s": "s",
    "experiments.compare_cgne_s": "s",
    "experiments.compare_sine_s": "s",
    "experiments.ratecheck_solves": "count",
    "experiments.ratecheck_build_s": "s",
    "diagnostics.build_basis_s": "s",
    "diagnostics.projected_gram_s": "s",
    "diagnostics.ritz_s": "s",
    "diagnostics.audit_s": "s",
    "diagnostics.history_mb": "MB",
    "tracing.sine_s": "s",
    "tracing.cgne_s": "s",
}


def _apply_bytes(op, x, out):
    """Array bytes one apply reads and writes, computed from array sizes."""
    moved = x.nbytes + out.nbytes
    if isinstance(op, DenseOperator):
        moved += op.matrix.nbytes
    elif isinstance(op, DiagonalOperator):
        moved += op.diagonal.nbytes
    return moved


class Tracer:
    """Keeps the spans of the current op in memory."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []

    def start_op(self):
        """Begin a new op; spans recorded since the last op are dropped."""
        self.op_id += 1
        self.spans = []

    def take(self):
        """End the current op and return its spans."""
        spans, self.spans = self.spans, []
        return spans

    def _begin(self, name):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _end(self, rec, raised):
        rec[END] = perf_counter()
        rec[RAISED] = raised
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own code."""
        rec = self._begin(name)
        try:
            yield
        except BaseException:
            self._end(rec, True)
            raise
        self._end(rec, False)

    def _wrap(self, name, fn):
        counts_bytes = name in (FORWARD, ADJOINT)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._end(rec, True)
                raise
            self._end(rec, False)
            if counts_bytes:
                rec[BYTES] = _apply_bytes(args[0], args[1], out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced callables while the context is open."""
        saved = []
        try:
            for owner, attr, name in _TRACED:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def failed_solves(spans):
    """Shift solves that raised, among the spans of one op."""
    return sum(1 for s in spans if s[NAME] == SOLVE and s[RAISED])


def _total(spans, name):
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def _count(spans, name):
    return sum(1 for s in spans if s[NAME] == name)


def _step_metrics(prefix, spans, children, call_s):
    """Per-step counts of the applies and solves a step makes itself."""
    steps = [i for i, s in enumerate(spans) if s[NAME] == f"{prefix}.step"]
    n = len(steps)
    direct = {FORWARD: 0, ADJOINT: 0, SOLVE: 0}
    self_s = 0.0
    for i in steps:
        child_s = 0.0
        for c in children[i]:
            child_s += spans[c][END] - spans[c][START]
            if spans[c][NAME] in direct:
                direct[spans[c][NAME]] += 1
        self_s += spans[i][END] - spans[i][START] - child_s
    per = (lambda k: direct[k] / n) if n else (lambda k: 0.0)
    out = {
        f"{prefix}.steps": n,
        f"{prefix}.forward_per_step": per(FORWARD),
        f"{prefix}.adjoint_per_step": per(ADJOINT),
        f"{prefix}.step_self_s": self_s / n if n else 0.0,
    }
    if prefix == "sine":
        out["sine.solves_per_step"] = per(SOLVE)
        setup = _total(spans, "resolvent.build") + _total(spans, NORM)
    else:
        setup = _total(spans, NORM)
    out[f"{prefix}.setup_frac"] = setup / call_s
    return out


def _solve_layers(spans):
    """Operator, shift-solver and inner-product metrics of a solve."""
    # Spans are stored in start order, so a parent precedes its children.
    in_apply, in_norm, in_solve = [], [], []
    outer = {FORWARD: [], ADJOINT: []}
    norm_iters = inner_iters = 0
    for s in spans:
        p = s[PARENT]
        pname = spans[p][NAME] if p >= 0 else None
        a = p >= 0 and (in_apply[p] or pname in outer)
        nrm = p >= 0 and (in_norm[p] or pname == NORM)
        sol = p >= 0 and (in_solve[p] or pname == SOLVE)
        in_apply.append(a)
        in_norm.append(nrm)
        in_solve.append(sol)
        if s[NAME] in outer and not a:
            outer[s[NAME]].append(s)
        if s[NAME] == FORWARD:
            norm_iters += nrm and not a
            inner_iters += sol and not a
    applies = outer[FORWARD] + outer[ADJOINT]
    solves = [s for s in spans if s[NAME] == SOLVE]
    return {
        "operators.norm_estimate_s": _total(spans, NORM),
        "operators.norm_estimate_iters": norm_iters,
        "operators.forward_calls": len(outer[FORWARD]),
        "operators.adjoint_calls": len(outer[ADJOINT]),
        "operators.forward_s": sum(s[END] - s[START] for s in outer[FORWARD]),
        "operators.adjoint_s": sum(s[END] - s[START] for s in outer[ADJOINT]),
        "operators.bytes_computed":
            sum(s[BYTES] for s in applies) / len(applies) if applies else 0.0,
        "resolvent.build_s": _total(spans, "resolvent.build"),
        "resolvent.solve_calls": len(solves),
        "resolvent.solve_s": _total(spans, SOLVE),
        "resolvent.inner_iters": inner_iters,
        "resolvent.inner_iters_per_solve":
            inner_iters / len(solves) if solves else 0.0,
        "spaces.inner_calls": _count(spans, "spaces.inner"),
        "spaces.inner_s": _total(spans, "spaces.inner"),
        "spaces.check_vector_calls": _count(spans, "spaces.check_vector"),
        "problems.build_s": _total(spans, "problems.build"),
    }


def layer_metrics(kind, spans, result, problem):
    """Per-layer metrics of one traced op of the given kind.

    Operator, shift-solver, inner-product and problem-build metrics come
    from sine ops; ``cgne.*`` from cgne ops; ``experiments.*`` and
    ``diagnostics.*`` from the op that runs that harness. The op's spans
    are rooted at "problems.build" and "op.call".
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    call_s = _total(spans, "op.call")
    op_s = call_s + _total(spans, "problems.build")
    if kind == "sine":
        out = _step_metrics("sine", spans, children, call_s)
        out.update(_solve_layers(spans))
        out["tracing.sine_s"] = op_s
        return out
    if kind == "cgne":
        out = _step_metrics("cgne", spans, children, call_s)
        out["tracing.cgne_s"] = op_s
        return out
    if kind == "compare":
        half = _total(spans, "experiments.run_cgne")
        return {"experiments.compare_cgne_s": half,
                "experiments.compare_sine_s": call_s - half}
    if kind == "ratecheck":
        return {
            "experiments.ratecheck_solves": _count(spans, "experiments.run_sine"),
            "experiments.ratecheck_build_s":
                _total(spans, "experiments.multiplication_problem"),
        }
    # diagnostics: the retained history holds w, q and r for m + 1 iterates
    vectors = problem.operator.domain_dim + 2 * problem.operator.range_dim
    history_mb = (result.stopping_index + 1) * vectors * 8 / 1e6
    return {
        "diagnostics.build_basis_s": _total(spans, "diagnostics.build_basis"),
        "diagnostics.projected_gram_s": _total(spans, "diagnostics.projected_gram"),
        "diagnostics.ritz_s": _total(spans, "diagnostics.ritz_values"),
        "diagnostics.audit_s": _total(spans, "diagnostics.audit"),
        "diagnostics.history_mb": history_mb,
    }


def span_records(spans, kind):
    """Spans of one op as JSON-ready dicts."""
    return [
        {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
         "op": s[OP], "kind": kind, "raised": s[RAISED], "bytes": s[BYTES]}
        for s in spans
    ]
