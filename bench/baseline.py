"""Measure a baseline: several seeded runs per workload plus one traced run.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --out bench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed, one run
after another, and ``run.py --trace 1`` once with the first seed. It
writes each end-to-end metric's values with their median, quartiles and
quartile spread (IQR over median, as the acceptance check computes it),
the per-layer metrics, and the tracing overhead: traced op time minus the
median untraced op time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mult-1m", "dense-alg", "blur-mf")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                         cwd=HERE.parent)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr}")
    return result, detail


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                    help="inclusive range, for example 1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs, speeds = [], []
        for seed in args.seeds:
            result, detail = _run(workload, seed, args.seconds, 0)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            speeds.append(detail["speed_factor"])
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        end_to_end = {k: _summary([r[k] for r in runs]) for k in runs[0]}
        traced, trace_detail = _run(workload, args.seeds[0], args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "speed_factors": speeds,
            "per_layer": layers,
            "tracing_overhead_s": {
                kind: layers[f"tracing.{kind}_s"] - end_to_end[f"{kind}_s"]["median"]
                for kind in ("sine", "cgne")
            },
            "stopping_indices": trace_detail["stopping_indices"],
        }
        report["environment"] = detail["environment"]
        for k, s in end_to_end.items():
            print(f"{workload:10s} {k:16s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
