"""Print SHA-256 fingerprints of a checkout's solver outputs.

    python tools/fingerprint.py <checkout>

Imports ``sinereg`` from ``<checkout>/src`` and the benchmark workloads
from ``<checkout>/bench/workloads.py``, writing no bytecode there. On
``mult-1m``, ``dense-alg`` and ``blur-mf`` at seeds 1-3 it runs the
``sine``, ``cgne``, ``compare`` and ``diagnostics`` ops, each on a freshly
built problem, and prints one line per op: a SHA-256 over
``json.dumps(result.to_dict(), sort_keys=True)`` without
``elapsed_seconds``, plus the bytes of ``iterate`` and ``iterate_sine``
where the result has them. A last line per workload and seed holds
``repr`` of a fresh operator's ``norm_estimate()``. A last line holds a
SHA-256 over ``json.dumps`` of the ``to_dict()`` of each result of the
``ratecheck`` op, which does not depend on the workload and so runs once.
That is 46 lines.

BLAS runs on one thread, since the dense triangular solves round
differently on more. Two checkouts whose outputs are bit-identical print
the same lines, so ``diff`` of two runs is the bit-identity check.
"""

import hashlib
import json
import os
import sys

KINDS = ("sine", "cgne", "compare", "diagnostics")
SEEDS = (1, 2, 3)


def fingerprint(result):
    """SHA-256 of a result's JSON form without its timing, and its iterates."""
    record = result.to_dict()
    record.pop("elapsed_seconds", None)
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    for name in ("iterate", "iterate_sine"):
        value = getattr(result, name, None)
        if value is not None:
            digest.update(value.tobytes())
    return digest.hexdigest()


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python tools/fingerprint.py <checkout>")
    checkout = os.path.abspath(argv[1])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.dont_write_bytecode = True
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "bench")]
    import sinereg
    from workloads import WORKLOADS

    # two runs on one library would match whatever the checkouts hold
    if os.path.commonpath([sinereg.__file__, src]) != src:
        sys.exit(f"sinereg was imported from {sinereg.__file__}, not {src}")

    for name in ("mult-1m", "dense-alg", "blur-mf"):
        for seed in SEEDS:
            workload = WORKLOADS[name](seed=seed)
            for kind in KINDS:
                result = workload.call(kind, workload.build())
                print(name, seed, kind, fingerprint(result))
            print(name, seed, "norm", repr(workload.build().operator.norm_estimate()))
    results = workload.call("ratecheck", None)
    record = json.dumps([r.to_dict() for r in results], sort_keys=True)
    print("ratecheck", hashlib.sha256(record.encode()).hexdigest())


if __name__ == "__main__":
    main(sys.argv)
