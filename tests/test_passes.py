"""Large-vector passes in two halves (``sinereg.spaces._elementwise``).

A pass over at least ``_SPLIT`` = 2**17 entries runs half on a worker thread
when ``_second_cpu()`` holds: two usable CPUs and one thread in every loaded
OpenBLAS. Most tests force the gate on or off; the outputs must agree bit
for bit, and the worker must run exactly where the gate and the threshold
say. ``test_unpatched_gate_decides`` reads the real gate, which holds at one
BLAS thread on two CPUs or more.
"""

import ctypes
import ctypes.util
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import sinereg.spaces as spaces
from sinereg import (
    DiagonalOperator,
    InnerProductSpace,
    MatrixFreeOperator,
    Problem,
    StoppingRule,
    add_noise,
    build_shift_solver,
    cgne_init,
    cgne_step,
    multiplication_problem,
    random_problem,
    run_cgne,
    run_compare,
    run_diagnostics,
    run_sine,
    sine_init,
    sine_step,
)
import sinereg.experiments

N = 2**18
# a projection of the multiplication operator settles at k = 60 here, and
# at k = 320 at the benchmark's gamma = 1e-3 and delta = 1e-3
GAMMA, DELTA = 1.0, 1e-2
RULE = StoppingRule(1.001, DELTA)


@pytest.fixture
def worker_runs(monkeypatch):
    """The thread of every half of every split pass, in order; a half not
    on the calling thread ran on the worker."""
    threads = []
    halves = spaces._halves

    def recorded(half, n):
        def run(s):
            threads.append(threading.get_ident())
            return half(s)
        return halves(run, n)
    monkeypatch.setattr(spaces, "_halves", recorded)
    return threads


def on_worker(threads):
    """How many recorded halves ran on another thread than this one."""
    return sum(t != threading.get_ident() for t in threads)


def force_gate(monkeypatch, on):
    monkeypatch.setattr(spaces, "_second_cpu", lambda: on)


def weighted_diagonal(n=N):
    """A diagonal operator with unequal weights: d_i = t_i on a midpoint
    grid t, weights 1/n scaled by 0.5-1.5, truth t, noise DELTA."""
    rng = np.random.default_rng(3)
    t = (np.arange(n) + 0.5) / n
    space = InnerProductSpace(n, rng.uniform(0.5, 1.5, n) / n)
    y = add_noise(t * t, DELTA, "random-direction", seed=5, space=space)
    return Problem(DiagonalOperator(t, space), y, DELTA, truth=t)


def wrapped(problem):
    """``problem`` behind a :class:`MatrixFreeOperator`, so it is projected."""
    d = problem.operator
    op = MatrixFreeOperator(d.domain, d.codomain, d.apply, d.apply_adjoint)
    return Problem(op, problem.y_delta, problem.delta, truth=problem.truth)


PROBLEMS = {
    "multiplication": lambda: multiplication_problem(N, 1, DELTA),
    "weighted-diagonal": weighted_diagonal,
    "multiplication-projected": lambda: wrapped(multiplication_problem(N, 1, DELTA)),
    "weighted-diagonal-projected": lambda: wrapped(weighted_diagonal()),
}


def report_bytes(report):
    """A run report as text: its JSON form without the time, its iterate's
    bytes and, with a history, every kept vector's bytes."""
    d = report.to_dict()
    d.pop("elapsed_seconds")
    out = [json.dumps(d), report.iterate.tobytes()]
    state = report.state
    for history in ("direction_history", "mapped_history", "residual_vectors"):
        out += [v.tobytes() for v in getattr(state, history) or ()]
    return out


def state_bytes(state):
    """A hand-stepped state's vectors and histories."""
    vectors = (state.iterate, state.residual, state.direction, state.mapped_direction)
    numbers = (state.residual_norms, state.error_norms, state.alphas, state.betas)
    return [v.tobytes() for v in vectors] + [json.dumps(x) for x in numbers]


def sine_loop(problem, steps=2):
    state = sine_init(problem, GAMMA)
    solver = build_shift_solver(problem.operator, GAMMA)
    for _ in range(steps):
        sine_step(state, solver)
    return state_bytes(state)


def cgne_loop(problem, steps=3):
    state = cgne_init(problem)
    for _ in range(steps):
        cgne_step(state)
    return state_bytes(state)


RUNS = {
    "run_sine": lambda p: report_bytes(run_sine(p, GAMMA, RULE)),
    "run_sine-history":
        lambda p: report_bytes(run_sine(p, GAMMA, RULE, keep_history=True)),
    "run_cgne": lambda p: report_bytes(run_cgne(p, RULE)),
    "run_compare": lambda p: [json.dumps((r := run_compare(p, GAMMA, RULE)).to_dict()),
                              r.iterate_sine.tobytes()],
    "run_diagnostics":
        lambda p: [json.dumps(run_diagnostics(p, GAMMA, RULE).to_dict())],
}
# hand-written steps on a wrapped operator would shift-solve by inner CG
LOOPS = {"sine_step": sine_loop, "cgne_step": cgne_loop}


@pytest.mark.parametrize("kind", PROBLEMS)
@pytest.mark.parametrize("run", RUNS)
def test_split_runs_are_bit_identical(monkeypatch, worker_runs, kind, run):
    problem = PROBLEMS[kind]()
    force_gate(monkeypatch, False)
    want = RUNS[run](problem)
    assert worker_runs == []
    force_gate(monkeypatch, True)
    assert RUNS[run](problem) == want
    assert on_worker(worker_runs) > 0


@pytest.mark.parametrize("kind", ["multiplication", "weighted-diagonal"])
@pytest.mark.parametrize("loop", LOOPS)
def test_split_steps_are_bit_identical(monkeypatch, worker_runs, kind, loop):
    problem = PROBLEMS[kind]()
    force_gate(monkeypatch, False)
    want = LOOPS[loop](problem)
    assert worker_runs == []
    force_gate(monkeypatch, True)
    assert LOOPS[loop](problem) == want
    assert on_worker(worker_runs) > 0


@pytest.mark.parametrize("run", ["run_sine", "run_cgne", "run_compare", "run_diagnostics"])
def test_split_runs_peak_as_one_pass(monkeypatch, run):
    """A split pass allocates the one array a single pass does, and the
    worker keeps no vector past its half: the ``tracemalloc`` peak of a
    run, problem built inside the window, is the one-pass peak."""
    peaks = []
    for on in (False, True):
        force_gate(monkeypatch, on)
        tracemalloc.start()
        try:
            RUNS[run](multiplication_problem(N, 1, DELTA))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 0.05 * 8 * N


PASSES = {
    "update": lambda a: spaces._elementwise(np.subtract, a[::-1], a, 0.3),
    "diagonal-apply": lambda a: DiagonalOperator(a).apply(a),
    "shift-solve": lambda a: build_shift_solver(DiagonalOperator(a), GAMMA).apply(a),
}


@pytest.mark.parametrize("name", PASSES)
def test_worker_runs_from_the_threshold_on(monkeypatch, worker_runs, name):
    """2**17 entries split, 2**17 - 1 do not, and nothing splits with the
    gate off; the shift solve splits its finite check and its division."""
    force_gate(monkeypatch, True)
    for n, split in ((2**17 - 1, False), (2**17, True)):
        a = np.linspace(0.5, 1.5, n)
        worker_runs.clear()
        got = PASSES[name](a)
        assert (on_worker(worker_runs) > 0) == split, n
        force_gate(monkeypatch, False)
        assert got.tobytes() == PASSES[name](a).tobytes()
        force_gate(monkeypatch, True)
    worker_runs.clear()
    force_gate(monkeypatch, False)
    PASSES[name](np.linspace(0.5, 1.5, N))
    assert worker_runs == []


@pytest.mark.parametrize("loop", LOOPS)
def test_every_step_pass_splits_from_the_threshold_on(monkeypatch, worker_runs, loop):
    """Hand-written steps split as many passes at 2**17 entries as at 2**18,
    so every pass of a step splits from the threshold on, and none at
    2**17 - 1."""
    force_gate(monkeypatch, True)
    counts = []
    for n in (2**17 - 1, 2**17, 2**18):
        problem = weighted_diagonal(n)
        worker_runs.clear()
        LOOPS[loop](problem)
        counts.append(on_worker(worker_runs))
    assert counts[0] == 0 and counts[1] == counts[2] > 0, counts


def test_finite_check_reads_both_halves(monkeypatch, worker_runs):
    force_gate(monkeypatch, True)
    for where in (0, N - 1):
        a = np.ones(N)
        a[where] = np.nan
        assert not spaces._all_finite(a)
    assert spaces._all_finite(np.ones(N))
    assert on_worker(worker_runs) == 3


def test_unpatched_gate_decides(monkeypatch, worker_runs):
    """The real gate: the worker runs in a large run exactly when
    ``_second_cpu()`` holds, and the result is the one-pass result."""
    problem = multiplication_problem(N, 1, DELTA)
    got = report_bytes(run_cgne(problem, RULE))
    assert (on_worker(worker_runs) > 0) == spaces._second_cpu()
    force_gate(monkeypatch, False)
    assert report_bytes(run_cgne(problem, RULE)) == got


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_splits(monkeypatch):
    """A child forked after the worker started has no worker thread; its
    first split must start one and not wait on the parent's."""
    force_gate(monkeypatch, True)
    a = np.linspace(0.5, 1.5, N)
    want = spaces._elementwise(np.subtract, a[::-1], a, 0.3).tobytes()
    assert spaces._pool is not None
    with warnings.catch_warnings():
        # Python 3.12 on warns when a process with threads forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: no pytest code may run here
        code = 1
        try:
            got = spaces._elementwise(np.subtract, a[::-1], a, 0.3).tobytes()
            code = 0 if got == want and spaces._pool is not None else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung at its first split")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_worker_half_keeps_the_callers_errstate(monkeypatch, worker_runs):
    """An overflow in the worker's half alone raises under the caller's
    ``np.errstate``, as the one-pass multiply does."""
    force_gate(monkeypatch, True)
    a = np.ones(N)
    a[-1] = 1e300
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            np.multiply(a, 1e10)
        with pytest.raises(FloatingPointError):
            spaces._elementwise(np.subtract, np.zeros(N), a, 1e10)
    assert on_worker(worker_runs) == 1
    with np.errstate(over="ignore"):
        assert spaces._elementwise(np.subtract, np.zeros(N), a, 1e10)[-1] == -np.inf


@pytest.mark.parametrize("bad", ["caller", "worker"])
def test_error_in_either_half_reaches_the_caller(bad):
    """The error reaches the caller once the other half has ended too."""
    me = threading.get_ident()
    ended = []

    def half(s):
        if (threading.get_ident() == me) == (bad == "caller"):
            raise ValueError(f"{bad} half")
        time.sleep(0.1)
        ended.append(s.start)
    with pytest.raises(ValueError, match=f"{bad} half"):
        spaces._halves(half, N)
    assert ended == [0 if bad == "worker" else N // 2]
    # the next split runs on the worker again
    assert spaces._halves(lambda s: threading.get_ident(), N)[1] != me


def test_interrupted_wait_leaves_nothing_behind():
    """A signal handler that raises while the caller waits for the worker's
    half ends that split; the next split gets its own halves, not the
    interrupted one's, and an update is still the one-pass update."""
    me = threading.get_ident()

    def slow(s):
        if threading.get_ident() != me:
            time.sleep(0.5)
        return "interrupted", s.start

    class Interrupt(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupt
    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(Interrupt):
            spaces._halves(slow, N)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert spaces._halves(lambda s: ("next", s.start), N) == (("next", 0), ("next", N // 2))
    a = np.linspace(0.5, 1.5, N)
    want = np.subtract(a[::-1], np.multiply(a, 0.3))
    for _ in range(3):
        got = spaces._elementwise(np.subtract, a[::-1], a, 0.3)
        assert got.tobytes() == want.tobytes()


SHUTDOWN = """
import threading, numpy as np, sinereg.spaces as spaces
spaces._second_cpu = lambda: True
a = np.linspace(0.5, 1.5, 2**18)
want = (a[::-1] - 0.3 * a).tobytes()
if {started}:
    spaces._elementwise(np.subtract, a[::-1], a, 0.3)
def late():
    threading.main_thread().join()
    got = spaces._elementwise(np.subtract, a[::-1], a, 0.3).tobytes()
    print("same" if got == want else "differs")
threading.Thread(target=late).start()
"""


@pytest.mark.parametrize("started", [True, False], ids=["worker-started", "no-worker"])
def test_split_after_shutdown_began(started):
    """A thread still running when the main thread has ended, so after the
    interpreter began to shut its executors down, splits in place."""
    src = os.path.dirname(os.path.dirname(spaces.__file__))
    out = subprocess.run([sys.executable, "-c", SHUTDOWN.format(started=started)],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "same", "")


def run_in_threads(calls, timeout=120):
    """Run each of ``calls`` in its own thread at once; their results, or
    a failure if one raises or any has not ended by ``timeout``."""
    results, errors = [None] * len(calls), []

    def run(i):
        try:
            results[i] = calls[i]()
        except BaseException as exc:  # reported below
            errors.append(exc)
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a split waited on itself"
    assert errors == []
    return results


def test_two_threads_split_at_once(monkeypatch, worker_runs):
    """Two large runs at once share one worker, which takes their halves
    in turn; neither waits on the other, and each gets its own."""
    problem = multiplication_problem(N, 1, DELTA)
    force_gate(monkeypatch, False)
    want = report_bytes(run_cgne(problem, RULE))
    force_gate(monkeypatch, True)
    got = run_in_threads([lambda: report_bytes(run_cgne(problem, RULE))] * 2)
    assert got == [want, want]
    assert on_worker(worker_runs) > 0


def test_more_threads_than_cpus_split_at_once(monkeypatch):
    """Six threads split at once under a short switch interval; every pass
    gets its own halves, the one-pass result."""
    force_gate(monkeypatch, True)
    a = np.linspace(0.5, 1.5, 2**17)

    def passes(k):
        b = a * k
        want = np.subtract(b, np.multiply(a, 0.3)).tobytes()
        return all(spaces._elementwise(np.subtract, b, a, 0.3).tobytes() == want
                   for _ in range(20))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_in_threads([lambda k=k: passes(k) for k in range(1, 7)])
    finally:
        sys.setswitchinterval(interval)
    assert got == [True] * 6


def test_overlapped_compare_splits_in_both_halves(monkeypatch, worker_runs):
    """A dense compare overlapped by its own gate, on a 2**17 x 2 matrix
    whose range vectors reach the threshold: the baseline thread and the
    SINE half both split, bit for bit the sequential result."""
    problem = random_problem(2**17, 2, "algebraic", 1.0, seed=2, delta=1e-4)
    rule = StoppingRule(1.001, 1e-4)
    monkeypatch.setattr(sinereg.experiments, "_second_cpu", lambda: False)
    force_gate(monkeypatch, False)
    want = run_compare(problem, GAMMA, rule)
    monkeypatch.setattr(sinereg.experiments, "_second_cpu", lambda: True)
    force_gate(monkeypatch, True)
    got = run_compare(problem, GAMMA, rule)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.iterate_sine.tobytes() == want.iterate_sine.tobytes()
    assert len(worker_runs) > 0


def openblas_setter(path):
    """The set-threads function of the loaded OpenBLAS at ``path``."""
    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    name = spaces._thread_queries[path].__name__.replace("_get_", "_set_")
    setter = getattr(lib, name)
    setter.argtypes = [ctypes.c_int]
    return setter


@pytest.fixture
def openblas(monkeypatch):
    """Each OpenBLAS that numpy and scipy bundle and the process has loaded
    (``scipy.linalg`` is imported, so scipy's is), with its set-threads
    function; their counts are put back afterwards. Two CPUs are assumed."""
    import scipy.linalg  # noqa: F401

    monkeypatch.setattr(spaces, "_cpus", lambda: 2)
    files = [f for p in ("numpy", "scipy") for f in spaces._openblas_files(p)]
    if not files or any(spaces._blas_threads(f) is None for f in files):
        pytest.skip("numpy and scipy do not bundle a readable OpenBLAS here")
    libs = [(f, openblas_setter(f), spaces._blas_threads(f)) for f in files]
    yield libs
    for _, setter, count in libs:
        setter(count)


def test_gate_needs_one_thread_in_every_openblas(openblas):
    for _, setter, _ in openblas:
        setter(1)
    assert spaces._second_cpu()
    for _, setter, _ in openblas:
        setter(2)
        assert not spaces._second_cpu()
        setter(1)
    assert spaces._second_cpu()


def test_gate_needs_two_cpus(openblas, monkeypatch):
    for _, setter, _ in openblas:
        setter(1)
    monkeypatch.setattr(spaces, "_cpus", lambda: 1)
    assert not spaces._second_cpu()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="names a Linux libc")
def test_gate_needs_a_readable_count(monkeypatch):
    """No OpenBLAS found, or a loaded library without the query, is no."""
    monkeypatch.setattr(spaces, "_cpus", lambda: 2)
    monkeypatch.setattr(spaces, "_openblas_files", lambda package: ())
    assert not spaces._second_cpu()
    libc = ctypes.util.find_library("c")
    monkeypatch.setattr(spaces, "_openblas_files", lambda package: (libc,))
    assert spaces._blas_threads(libc) is None
    assert not spaces._second_cpu()
