"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload evo-uno --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed, one after another, and prints each
metric's median and its interquartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound
from ``BENCHMARK.json``.  Exits 1 when a run fails or a spread exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import median, quartile_spread

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])
    values: dict = {}
    ok = True
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                  f"{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, ok = "  OVER BOUND", False
        print(f"{name:28s} median {median(vals):12.5g}  spread "
              f"{spread:6.3f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
