"""Smoke-run the repository benchmark and gate on its answer checks.

Runs every workload that ``BENCHMARK.json`` declares through
``perfbench/run.py`` once, briefly and traced (``--trace 1``, so the
span-containment checks run too), and exits non-zero unless the last
line of each run's output is JSON with ``"correct": true`` and
``"failed": 0``. Timings are not gated here. Usage, from the
repository root::

    python tools/perfbench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Seconds each workload runs, and its seed.
SECONDS = 5
SEED = 1


def check(output: str) -> str:
    """Empty when the run's last line reports a clean run, else why not."""
    lines = output.strip().splitlines()
    if not lines:
        return "no output"
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not JSON: {lines[-1]!r}"
    if report.get("correct") is not True:
        return f"correct is {report.get('correct')!r}"
    if report.get("failed") != 0:
        return f"{report.get('failed')!r} requests failed"
    return ""


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        command = spec["command"] + [
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SECONDS),
            "--trace", "1",
        ]
        print(f"== {' '.join(command)}", flush=True)
        run = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=False
        )
        sys.stdout.write(run.stdout)
        sys.stderr.write(run.stderr)
        problem = check(run.stdout)
        if run.returncode != 0:
            problem = problem or f"exit status {run.returncode}"
        if problem:
            problems.append(f"{workload}: {problem}")
    for problem in problems:
        print(f"FAILED {problem}")
    if not problems:
        print("perfbench smoke ok: every run correct with 0 failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
