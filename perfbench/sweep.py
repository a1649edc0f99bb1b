"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads union-da best-k --seeds 1 2 3 4 5 --trace 0

Each run is a fresh ``perfbench/run.py`` process, one after another. For
each workload and metric the summary holds the values, their median, and
the quartile spread (q3 - q1) / median as ``statistics.quantiles(n=4)``
gives the quartiles, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "sweep.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            if bounds.get(name) is not None:
                print(f"  {name:<20} median {med:<12.6g} spread {spread:.4f} (bound {bounds[name]})")
        summary["workloads"][workload] = {"run_wall_s": walls, "metrics": rows}
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
