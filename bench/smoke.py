#!/usr/bin/env python3
"""Smoke check of the benchmark itself on a tiny job list.

    python3 bench/smoke.py

Runs ``run.py --workload smoke`` untraced and traced and checks that the
last line is the result object, that every metric BENCHMARK.json names
prints with its unit, and that no job failed.  Exits 1 on any mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "smoke",
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"smoke: {' '.join(cmd[1:])} exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run(trace)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if result["failed"] or not result["correct"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: failed_share {result['failed']}/{result['attempted']}")
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
            problems.append(f"trace {trace}: missing {missing}, extra {extra}, wrong unit {wrong}")
        for name, m in result["metrics"].items():
            if not isinstance(m.get("value"), (int, float)):
                problems.append(f"trace {trace}: {name} has no numeric value")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
