"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the root of a checkout::

    python3 perfbench/repeat.py --runs 10 --seconds 30 --out runs.jsonl
    python3 perfbench/repeat.py --summarize runs.jsonl

Each run is ``run.py`` in a fresh process on its own seed; workloads take
turns, so a slow spell of the machine spreads over all of them.  Every run's
record and result are appended to ``--out`` as one JSON line.  The summary
gives, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
interquartile distance as a share of the median, the figure each metric's
bound in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-cold", "sweep-store", "serve-mix")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit": done.returncode,
        "wall_s": time.perf_counter() - started,
        "record": json.loads(lines[-2])["record"] if len(lines) >= 2 else None,
        "result": json.loads(lines[-1]) if lines else None,
        "stderr": done.stderr[-2000:] if done.returncode else "",
    }


def summarize(rows: list[dict]) -> str:
    values: dict[tuple, list[float]] = defaultdict(list)
    walls: dict[tuple, list[float]] = defaultdict(list)
    problems = []
    for row in rows:
        result = row["result"]
        if row["exit"] != 0 or result is None or not result["correct"]:
            problems.append(f"{row['workload']} seed {row['seed']}: exit {row['exit']}, "
                            f"result {result and {k: result[k] for k in ('correct', 'failed')}}")
            continue
        group = (row["workload"], row["trace"])
        walls[group].append(row["wall_s"])
        for name, entry in result["metrics"].items():
            values[group + (name, entry["unit"])].append(entry["value"])
    lines = [f"FAILED {problem}" for problem in problems]
    for group in sorted(walls):
        lines.append(f"{group[0]} trace={group[1]}: {len(walls[group])} runs, "
                     f"wall median {statistics.median(walls[group]):.1f}s")
        for key in sorted(k for k in values if k[:2] == group):
            series = values[key]
            median = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median if median else 0.0
            else:
                q1 = q3 = median
                spread = 0.0
            lines.append(f"  {key[2]:<40} {median:>14.6g} {key[3]:<9} "
                         f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, help="append each run's JSON line here")
    parser.add_argument("--summarize", type=Path, nargs="*", help="only summarise these files")
    args = parser.parse_args(argv)
    if args.summarize:
        rows = [
            json.loads(line) for path in args.summarize for line in path.read_text().splitlines()
        ]
        print(summarize(rows))
        return 0
    rows = []
    for index in range(args.runs):
        for workload in args.workload or WORKLOADS:
            row = run_once(workload, args.first_seed + index, args.seconds, args.trace)
            rows.append(row)
            if args.out:
                with args.out.open("a") as out:
                    out.write(json.dumps(row) + "\n")
            print(f"{workload} seed {row['seed']}: exit {row['exit']}, {row['wall_s']:.1f}s",
                  file=sys.stderr)
    print(summarize(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
