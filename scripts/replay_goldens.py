"""Replay the verify goldens that the tier-1 tests leave to CI.

Runs ``python -m hyperq verify ... --format json --seed 0`` with ``src`` on
the path, as the CI workflow does, and compares the stdout of each golden's
runs, concatenated, byte for byte with its file under ``tests/golden/``.
Every run must also exit with its expected status.  Prints one line per
golden and exits 1 at the first mismatch or unexpected exit status, naming
it; a full replay takes a few minutes.

    python3 scripts/replay_goldens.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _records(ids, digits, failing=()):
    """One run per record id at ``digits``; the ids in ``failing`` exit 1."""
    return [([rid, "--digits", str(digits)], 1 if rid in failing else 0) for rid in ids]


# golden file -> its runs, each (arguments after "verify", expected exit status)
GOLDENS = {
    # terms and residual on the high-precision summation path; the
    # deliberately wrong variants fail, so exit status 1 is the expected one
    "verify-all-variants-seed0-d300.json": [(["all", "--include-variants", "--digits", "300"], 1)],
    # terms and residual of long sums at 1000 digits; SA-UNC is a wrong variant
    "verify-deep-seed0-d1000.json": _records(["R1", "H1", "T2", "SAD", "SA-UNC"], 1000,
                                             failing={"SA-UNC"}),
    # the split path's stopping index where it takes the most steps (H1: 10,037
    # terms), so the walk's rounding error accumulates most
    "verify-deep-seed0-d3000.json": _records(["R1", "H1", "T2", "SAD"], 3000),
    # the split path's sum and its rounding where the operands are largest
    "verify-deep-seed0-d10000.json": _records(["R1", "T2", "W1", "H1"], 10000),
    # the records whose infinite q-sum constants take the most terms
    "verify-q-seed0-d3000.json": _records(["T5", "T6", "QBB", "QS1"], 3000),
}


def replay(name: str, runs) -> str | None:
    """None when every run exits as expected and the output matches ``name``;
    else what went wrong."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = b""
    for args, expected in runs:
        command = ["verify", *args, "--format", "json", "--seed", "0"]
        proc = subprocess.run([sys.executable, "-m", "hyperq", *command], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE)
        if proc.returncode != expected:
            return f"`hyperq {' '.join(command)}` exited {proc.returncode}, expected {expected}"
        out += proc.stdout
    if out != (GOLDEN / name).read_bytes():
        return "output differs from the golden"
    return None


def main() -> int:
    for name, runs in GOLDENS.items():
        start = time.perf_counter()
        problem = replay(name, runs)
        if problem:
            print(f"FAIL {name}: {problem}")
            return 1
        print(f"ok   {name}: {len(runs)} x verify in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
