#!/usr/bin/env python3
"""Alternating benchmark pairs of two commits, summarised as BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label L [--pairs 10]
        [--workloads corpus-30,exact-200,numeric-deep] [--seconds 30] [--seed 0]
        [--out PATH]

Run it from inside the git checkout.  Each side is a fresh ``git archive`` of
its commit, unpacked into a temporary directory, and runs its own
``bench/run.py --trace 0`` there, with bytecode writing off.  Pair i runs the
parent first when i is odd and the change first when i is even.  Each run's
last line of output is its result object; the line before it holds the run
metadata, which gives the host and the ``src/`` line count of the side.

The summary has, per workload, the failed and attempted jobs of each side
and, per end-to-end metric of BENCHMARK.json, the quartiles of each side,
the pairs the change won and lost, the relative change of the medians, the
parent's interquartile range, and whether the change stays within the
metric's bound.  The exit status is 1 when a run prints no result or a job
fails on either side, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = "corpus-30,exact-200,numeric-deep"


def git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def unpack(rev: str, into: Path) -> str:
    """Unpack a fresh archive of ``rev`` into ``into``; return its short hash."""
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", "--format=tar", rev),
                   check=True)
    return git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()


def run(root: Path, workload: str, seed: int, seconds: float):
    """(metadata, result) of one ``bench/run.py`` run in the checkout ``root``."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bench_pairs: {root.name} {workload} printed no result "
                         f"(exit {out.returncode})")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summary(name, spec, pairs) -> dict:
    """The comparison of one metric over the pairs; ``spec`` is its BENCHMARK.json entry."""
    values = {side: [p[side][name] for p in pairs] for side in SIDES}
    sign = 1 if spec["better"] == "lower" else -1
    gains = [sign * (p["parent"][name] - p["change"][name]) for p in pairs]
    sides = {side: quartiles(values[side]) for side in SIDES}
    parent, change = sides["parent"]["median"], sides["change"]["median"]
    rel = (change - parent) / parent
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    return {**sides,
            "change_wins": sum(g > 0 for g in gains),
            "change_losses": sum(g < 0 for g in gains),
            "pairs": len(pairs),
            "median_change_rel": round(rel, 4),
            "parent_iqr": round(iqr, 6),
            "median_gap_exceeds_parent_iqr": abs(change - parent) > iqr,
            "bound": spec["bound"],
            "within_bound": sign * rel <= spec["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="the summary's path (default BENCH_<label>.json)")
    args = parser.parse_args(argv)

    report = {"label": args.label,
              "command": f"bench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} "
                         "--trace 0 (each side from a fresh git archive of its commit)",
              "order": "pair i runs parent first when i is odd, change first when i is even",
              "units": "seconds are bench/run.py's nominal-host seconds; peak_rss_mb includes "
                       "compiling hyperq from source, as bytecode writing was off "
                       "(PYTHONDONTWRITEBYTECODE=1)"}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        report["commits"] = {side: unpack(getattr(args, side), roots[side]) for side in SIDES}
        spec = {m["name"]: m for m in json.loads(
            (roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
        report["workloads"] = {}
        for workload in args.workloads.split(","):
            pairs, failed, attempted = [], dict.fromkeys(SIDES, 0), dict.fromkeys(SIDES, 0)
            for i in range(1, args.pairs + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    meta, result = run(roots[side], workload, args.seed, args.seconds)
                    pair[side] = {name: result["metrics"][name]["value"] for name in spec}
                    failed[side] += result["failed"]
                    attempted[side] += result["attempted"]
                    report.setdefault("src_lines", {})[side] = meta["src_lines"]
                    report["host"] = {key: meta[key]
                                      for key in ("python", "nproc", "mpmath_backend")}
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{side} wall_s {pair[side]['wall_s']:.3f}" for side in SIDES), flush=True)
                pairs.append(pair)
            ok = ok and not any(failed.values())
            report["workloads"][workload] = {
                "failed": failed, "attempted": attempted,
                "metrics": {name: summary(name, spec[name], pairs) for name in spec},
                "pairs": pairs}
    out = Path(args.out or f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
