"""Write a benchmark record of this tree to one JSON file.

    python3 tools/bench.py --out BENCH_<label>.json [--runs 5] [--seconds 25] [--seed 1]

Each workload of perfbench runs --runs times as `perfbench/run.py --workload W
--seed S --seconds T --trace 0`, each run in a fresh process, and so does
`tools/time_construction.py --repeats 1`. For every end-to-end metric and
every construction case the file keeps each run, the median and the
quartiles, beside what the runs depend on: the git commit and whether a
tracked file differs from it, the sha256 of `tools/fingerprint.py`'s output,
the Python and numpy versions, the CPU count and the load average at the
start. The file is not written if any run is not correct or failed an
operation. Only the standard library is imported; the package and the
benchmark run in child processes, from the tree this script sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paris31-cli", "n100-improve", "exact-small", "fetch-replay")
CASE_LINE = re.compile(r"^(\d+) clients x (\d+) trials: ([0-9.]+) s CPU")


def _run(args, **env) -> str:
    child_env = {**os.environ, **env}
    return subprocess.run(args, cwd=ROOT, env=child_env, capture_output=True, text=True,
                          check=True, timeout=1800).stdout


def _spread(runs) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def _git(*args) -> str:
    return _run(["git", *args]).strip()


def _workload(name, seed, seconds, runs) -> dict:
    metrics = {}
    for _ in range(runs):
        out = _run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"])
        result = json.loads(out.strip().splitlines()[-1])
        if result["correct"] is not True or result["failed"] != 0:
            raise SystemExit(f"{name}: a run is not correct or failed an operation: {result}")
        for metric, m in result["metrics"].items():
            metrics.setdefault(metric, {"unit": m["unit"], "runs": []})["runs"].append(m["value"])
    return {m: {"unit": v["unit"], **_spread(v["runs"])} for m, v in metrics.items()}


def _construction(runs) -> dict:
    cases = {}
    for _ in range(runs):
        out = _run([sys.executable, "tools/time_construction.py", "--repeats", "1"],
                   PYTHONPATH=str(ROOT / "src"))
        for match in map(CASE_LINE.match, out.splitlines()):
            if match:
                clients, trials, seconds = match.groups()
                cases.setdefault(f"{clients}x{trials}", []).append(float(seconds))
    return {case: {"unit": "s", **_spread(values)} for case, values in cases.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the file to write, BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per workload")
    parser.add_argument("--seconds", type=float, default=25, help="--seconds of each run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    record = {
        "git_sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "fingerprint_sha256": hashlib.sha256(
            _run([sys.executable, "tools/fingerprint.py"], PYTHONPATH=str(ROOT / "src"),
                 PYTHONHASHSEED="0").encode()).hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "settings": {"runs": args.runs, "seconds": args.seconds, "seed": args.seed},
        "workloads": {name: _workload(name, args.seed, args.seconds, args.runs)
                      for name in WORKLOADS},
        "construction": _construction(args.runs),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
