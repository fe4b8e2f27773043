"""Self-check of the benchmark at tiny size (seconds, not minutes).

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It runs every workload untraced on the default seed and traced on a second
seed, each shrunk with ``--scale tiny``, and checks that

* each run exits 0 and ends with the result object, with every answer correct;
* the untraced result names every end-to-end metric, the traced one every
  per-layer metric, each with its unit, and nothing else;
* the record line carries the run's facts;
* ``BENCHMARK.json`` lists exactly the workloads and metrics ``names.py`` does;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

The file is not named ``test_*`` on purpose: it is not part of the
repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import DEFAULT_SEED  # noqa: E402
from names import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("solve-cold", "sweep-store", "serve-mix")
FACTS = ("seed", "nproc", "python", "numpy", "git_sha", "default_store_engine")


def run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, seed: int, trace: int) -> list[str]:
    problems = []
    where = f"{workload} seed={seed} trace={trace}"
    done = run(ROOT, workload, seed, trace)
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: not correct: {result['attempted']} attempted, "
                        f"{result['failed']} failed; {done.stderr[-2000:]}")
    expected = (
        {name: unit for name, unit, _ in PER_LAYER}
        if trace
        else {name: unit for name, unit, _, _ in END_TO_END}
    )
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
    if any(not isinstance(entry["value"], (int, float)) for entry in result["metrics"].values()):
        problems.append(f"{where}: non-numeric metric value")
    absent = [fact for fact in FACTS if fact not in record]
    if absent:
        problems.append(f"{where}: record lacks {absent}")
    return problems


def check_manifest() -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {manifest['workloads']}")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]]
    if e2e != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from names.END_TO_END")
    layers = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if layers != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from names.PER_LAYER")
    return problems


def check_without_program() -> list[str]:
    """Only BENCHMARK.json and the benchmark: must fail, printing no result."""
    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "solve-cold", DEFAULT_SEED, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}"]
    return []


def main() -> int:
    problems = check_manifest() + check_without_program()
    for workload in WORKLOADS:
        problems += check_run(workload, DEFAULT_SEED, 0)
        problems += check_run(workload, DEFAULT_SEED + 1, 1)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
