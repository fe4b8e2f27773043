"""The repository's benchmark: cold solves, store-backed sweeps, served traffic.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-cold --seed 2017 --seconds 30 --trace 0

It imports the program from ``src/`` (no install step), times it from
outside through its public calls, checks every answer, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (``names.py`` lists both).  The line before it is
a ``{"record": ...}`` object with the facts a reader needs: seed, CPU count,
Python/NumPy versions, git sha, the default store engine and the
workload-specific numbers.  End-to-end times are host-speed adjusted
(``clock.py``); the record gives the median adjustment factor.
Scratch files go under ``.perfbench/`` in the checkout and are removed on
exit.

``python3 perfbench/run.py --write-reference`` recomputes the default-seed
answers solve-cold checks against (``reference.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def git_sha(root: Path) -> str:
    """HEAD's sha read from ``.git`` (the benchmark may run outside a repo)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("solve-cold", "sweep-store", "serve-mix"))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload to seconds (the self-check uses it)",
    )
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an exception, so the daemon child and
    # the scratch directory are cleaned up by the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    import inputs
    import workloads
    from names import END_TO_END, PER_LAYER

    if args.write_reference:
        answers = workloads.reference_answers(inputs.DEFAULT_SEED)
        REFERENCE.write_text(
            json.dumps({"seed": inputs.DEFAULT_SEED, "solve-cold": answers}, indent=2) + "\n"
        )
        return 0

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(
        root=ROOT,
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.scale == "tiny",
        reference=json.loads(REFERENCE.read_text())["solve-cold"],
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
        store_engine = workloads.default_store_engine(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    outcome.layers["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    if args.trace:
        names = [(name, unit) for name, unit, _ in PER_LAYER]
        values = {name: float(outcome.layers.get(name, 0.0)) for name, _ in names}
    else:
        names = [(name, unit) for name, unit, _, _ in END_TO_END]
        values = {name: float(outcome.metrics[name]) for name, _ in names}
    finite = all(math.isfinite(value) for value in values.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "default_store_engine": store_engine,
        "speed_factor": ctx.clock.median_factor(),
        **outcome.facts,
        "details": outcome.layers if not args.trace else {},
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and finite,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
