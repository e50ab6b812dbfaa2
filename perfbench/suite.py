"""Every workload, several seeds, interleaved: the spread of each metric.

    python3 perfbench/suite.py [--seed0 1000]
    python3 perfbench/suite.py --compare OLD.json NEW.json

Each of ten rounds runs run.py once per workload of BENCHMARK.json with the
round's seed (seed0 + round), rotating the workload order so that machine
drift spreads over all of them; after the rounds, one traced run per
workload. Prints, per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile range over the median) against the
metric's bound in BENCHMARK.json, and the traced layer shares. Results go to
.perfbench/results/suite-<time>.json.

--compare reads two such files and flags every metric whose second median
is worse than the first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
ROUNDS = 10


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": time.monotonic() - started, "result": result}


def spread_table(runs: list[dict]) -> dict:
    """workload -> metric -> summary of the untraced runs' values."""
    table: dict = {}
    for run in runs:
        if run["trace"] or not run["result"]:
            continue
        for name, entry in run["result"]["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(name, []).append(entry["value"])
    out: dict = {}
    for workload, metrics in table.items():
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            out.setdefault(workload, {})[name] = {
                "values": values, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": BOUNDS[name]["bound"],
            }
    return out


def print_spreads(summary: dict) -> None:
    print(f"{'workload':18s} {'metric':12s} {'n':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            flag = ("" if m["spread"] < m["bound"] / 3 else
                    "  above bound/3" if m["spread"] <= m["bound"] else "  ABOVE BOUND")
            print(f"{workload:18s} {name:12s} {len(m['values']):3d} {m['median']:10.4f} "
                  f"{m['q1']:10.4f} {m['q3']:10.4f} {m['spread']:7.3f} {m['bound']:6.2f}{flag}")


def compare(old_path: Path, new_path: Path) -> int:
    old = json.loads(old_path.read_text(encoding="utf-8"))["summary"]
    new = json.loads(new_path.read_text(encoding="utf-8"))["summary"]
    worse = 0
    for workload, metrics in new.items():
        for name, m in metrics.items():
            base = old.get(workload, {}).get(name)
            if base is None:
                continue
            change = m["median"] / base["median"] - 1.0
            bad = BOUNDS[name]["better"] == "lower" and change > m["bound"] or \
                BOUNDS[name]["better"] == "higher" and -change > m["bound"]
            worse += bad
            print(f"{workload:18s} {name:12s} {base['median']:10.4f} -> {m['median']:10.4f} "
                  f"({change:+.1%}, bound {m['bound']:.0%}){'  WORSE' if bad else ''}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    names = [w["name"] for w in BENCH["workloads"]]
    out_path = ROOT / ".perfbench" / "results" / f"suite-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for r in range(ROUNDS):
        shift = r % len(names)
        for workload in names[shift:] + names[:shift]:
            runs.append(run_once(workload, args.seed0 + r, 0))
            res = runs[-1]["result"]
            print(f"round {r} {workload}: exit {runs[-1]['exit']} wall {runs[-1]['wall_s']:.1f} s "
                  + (json.dumps({k: round(v["value"], 4) for k, v in res["metrics"].items()})
                     if res else "no result"), flush=True)
    for workload in names:
        runs.append(run_once(workload, args.seed0, 1))
    summary = spread_table(runs)
    shares = {run["workload"]: {k: v["value"] for k, v in run["result"]["metrics"].items()
                                if k.startswith("share.") or k.startswith("trace.")}
              for run in runs if run["trace"] and run["result"]}
    out_path.write_text(json.dumps({"runs": runs, "summary": summary, "shares": shares},
                                   indent=1) + "\n", encoding="utf-8")
    print_spreads(summary)
    for workload, values in shares.items():
        print(f"{workload:18s} " + "  ".join(f"{k}={v:.3f}" for k, v in values.items()))
    failed_runs = [r for r in runs if r["exit"] != 0]
    print(f"{len(runs)} runs, {len(failed_runs)} failed, results in {out_path}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
