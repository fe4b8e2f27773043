"""Run ``repro serve`` with the layer shims installed (serve-mix's traced run).

Usage: ``python perfbench/daemon.py SUMMARY.json serve --port 0 ...``.  The
arguments after the summary path go to the program's command line unchanged;
when the daemon drains (SIGTERM), the span summary is written to the path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Recorder


def main(argv: list[str]) -> int:
    summary_path, *command = argv
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        code = cli_main(command)
    finally:
        recorder.uninstall()
        Path(summary_path).write_text(json.dumps(recorder.export()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
