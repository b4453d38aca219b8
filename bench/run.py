"""Benchmark runner: time to a discrepancy stop on three seeded workloads.

    python3 bench/run.py --workload mult-1m --seed 1 --seconds 30 --trace 0

Runs one workload in this process, closed loop, one op at a time, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured with tracing off; with ``--trace 1``
they are the per-layer ones, from spans recorded around each layer.
The lines before it give each metric with its sample count and a tail
percentile, and the numeric environment.

The library is imported from ``src/`` next to this directory; the run
fails, printing no result, when it is not there.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: on dense-alg with seed 0, CGNE stops at 190 with two
# OpenBLAS threads and at 191 with one, and one thread keeps timings steady.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is measured in fresh processes, this many times per run.
SETUP_PROBES = 5
# Within a round, an op kind repeats until it has run for this long, so
# that cheap ops get enough samples.
SLOT_SECONDS = 0.3

END_TO_END = {
    "setup_s": "s",
    "sine_s": "s",
    "cgne_s": "s",
    "compare_s": "s",
    "diagnostics_s": "s",
    "ratecheck_s": "s",
    "sine_rel_error": "ratio",
    "cgne_rel_error": "ratio",
    "peak_mem_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mult-1m", "dense-alg", "blur-mf"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and generate the inputs, then print "
                         "the seconds that took")
    return ap.parse_args(argv)


def _import_library():
    """Import sinereg from SRC; False when it is missing or elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import sinereg
    except ImportError as exc:
        print(f"cannot import sinereg from {SRC}: {exc}", file=sys.stderr)
        return False
    if SRC.resolve() not in Path(sinereg.__file__).resolve().parents:
        print(f"sinereg was imported from {sinereg.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def _blas_threads():
    """Thread count each bundled OpenBLAS reports, where it can be asked."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _setup_seconds(args, workload):
    """Seconds of import plus input generation, each in a fresh process.

    Returns the raw samples and the samples scaled by the Python probe run
    just before and just after each process, as ops are scaled in
    ``Runner.window``: import time is interpreter work.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    probe, ref = workload.probes()["python"]
    raw, scaled = [], []
    before = _timed(probe)
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        after = _timed(probe)
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * 2.0 * ref / (before + after))
        before = after
    return raw, scaled


def _percentile_summary(values):
    """Median, count, and the highest percentile with 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    pct = int(100 * (1 - 10 / n)) if n > 10 else 0
    if pct >= 50:
        out[f"p{pct}"] = statistics.quantiles(values, n=100,
                                              method="inclusive")[pct - 1]
    return out


class Runner:
    """Runs one workload's ops, checks them and collects the samples."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.raw = {}
        self.times = {}
        self.errors = {}
        self.layers = {}
        self.spans = {}
        self.probes = {}
        self.failed_solves = 0

    def op(self, kind):
        """Run one op; return (seconds, result, problem, spans), or None if
        it raised. ``spans`` is None when the op is not traced."""
        tr = self.tracer
        span = tr.span if tr else (lambda name: contextlib.nullcontext())
        if tr:
            tr.start_op()
        self.attempted += 1
        try:
            start = time.perf_counter()
            with span("problems.build"):
                problem = None if kind == "ratecheck" else self.wl.build()
            with span("op.call"):
                result = self.wl.call(kind, problem)
            seconds = time.perf_counter() - start
        except Exception as exc:  # an op that raises counts as failed
            self.failed += 1
            print(f"FAIL {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            if tr:
                from layertrace import failed_solves

                self.failed_solves += failed_solves(tr.take())
            return None
        return seconds, result, problem, tr.take() if tr else None

    def record(self, kind, outcome, speed=None):
        """Check an op's result outside the timed interval.

        A passing op timed at ``speed`` (see ``window``) keeps its samples,
        with every time scaled by ``speed``. Returns whether it passed.
        """
        if outcome is None:
            return False
        seconds, result, problem, spans = outcome
        fails, rel_error = self.wl.check(kind, result, problem)
        if fails:
            self.failed += 1
            for f in fails:
                print(f"FAIL {f}", file=sys.stderr)
            return False
        if speed is None:
            return True
        self.raw.setdefault(kind, []).append(seconds)
        self.times.setdefault(kind, []).append(seconds * speed)
        if rel_error is not None:
            self.errors.setdefault(kind, []).append(rel_error)
        if spans is not None:
            from layertrace import (PER_LAYER, failed_solves, layer_metrics,
                                    span_records)

            self.failed_solves += failed_solves(spans)
            for name, value in layer_metrics(kind, spans, result, problem).items():
                scaled = value * speed if PER_LAYER[name] == "s" else value
                self.layers.setdefault(name, []).append(scaled)
            if kind not in self.spans:
                self.spans[kind] = span_records(spans, kind)
        return True

    def probe(self):
        """Run every speed probe once; return the seconds each took."""
        took = {}
        for name, (fn, _) in self.wl.probes().items():
            took[name] = _timed(fn)
            self.probes.setdefault(name, []).append(took[name])
        return took

    def reference_pass(self, kinds):
        """One checked but untimed op of each kind, each under tracemalloc.

        Sets the reference stopping indices, warms up the code paths and
        returns the largest tracemalloc peak in MB.
        """
        import tracemalloc

        peak = 0.0
        outcomes = []
        for kind in kinds:
            tracemalloc.start()
            outcomes.append((kind, self.op(kind)))
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()
        for kind, outcome in outcomes:
            if kind in ("sine", "cgne") and outcome is not None:
                self.wl.reference[kind] = outcome[1].stopping_index
        for kind, outcome in outcomes:
            self.record(kind, outcome)
        return peak

    def window(self, kinds, seconds, rng):
        """Closed loop for ``seconds``: rounds over the kinds in seeded order.

        The speed probes run between consecutive ops. Each op's times are
        scaled by its probe's reference seconds over the mean of that
        probe's runs just before and just after the op.
        """
        refs = {name: ref for name, (_, ref) in self.wl.probes().items()}
        deadline = time.perf_counter() + seconds
        tried = set()
        before = self.probe()
        while True:
            for i in rng.permutation(len(kinds)):
                kind = kinds[i]
                tried.add(kind)
                name = self.wl.probe_for(kind)
                slot_end = time.perf_counter() + SLOT_SECONDS
                while True:
                    outcome = self.op(kind)
                    after = self.probe()
                    speed = 2.0 * refs[name] / (before[name] + after[name])
                    self.record(kind, outcome, speed)
                    before = after
                    now = time.perf_counter()
                    if now >= slot_end:
                        break
                if now >= deadline and len(tried) == len(kinds):
                    return


def _result(runner, metrics, units):
    named = {}
    for name, unit in units.items():
        value = metrics.get(name)
        named[name] = {"value": value, "unit": unit}
    correct = runner.failed == 0 and all(
        isinstance(v["value"], (int, float)) for v in named.values())
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": named}


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not _import_library():
        return 2
    # the benchmark's own modules import sinereg, so they come after it
    sys.path.insert(0, str(HERE))
    import numpy as np

    from workloads import KINDS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.perf_counter() - t0)
        return 0

    env = _environment()
    rng = np.random.default_rng(args.seed)
    setup_raw, setup = ([], []) if args.trace else _setup_seconds(args, workload)
    runner = Runner(workload)
    peak = runner.reference_pass(KINDS)
    if args.trace:
        from layertrace import PER_LAYER, Tracer

        runner.tracer = Tracer()
        with runner.tracer.installed():
            runner.window(KINDS, args.seconds, rng)
        metrics = {k: statistics.median(v) for k, v in runner.layers.items()}
        metrics["resolvent.failures"] = runner.failed_solves
        units = PER_LAYER
    else:
        runner.window(KINDS, args.seconds, rng)
        metrics = {f"{k}_s": statistics.median(v) for k, v in runner.times.items()}
        units = END_TO_END
    detail = {
        "speed_factor":
            workload.probe_ref_s / statistics.median(runner.probes["operator"]),
        "probe_s": {k: _percentile_summary(v) for k, v in runner.probes.items()},
        "raw_s": {f"{k}_s": _percentile_summary(v) for k, v in runner.raw.items()},
    }
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w") as f:
            for records in runner.spans.values():
                for rec in records:
                    f.write(json.dumps(rec) + "\n")
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_mem_mb"] = peak
        for kind, errors in runner.errors.items():
            metrics[f"{kind}_rel_error"] = statistics.median(errors)
        detail.update({f"{k}_s": _percentile_summary(v)
                       for k, v in runner.times.items()})
        detail["raw_s"]["setup_s"] = _percentile_summary(setup_raw)
        detail["setup_s"] = _percentile_summary(setup)

    result = _result(runner, metrics, units)
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        failed_frac=runner.failed / max(runner.attempted, 1),
        stopping_indices=dict(workload.reference), environment=env,
    )
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
