"""Print the source of every term program that two seeded ``verify all`` runs compile.

Runs, in process with ``src`` on the path,

    hyperq verify all --format json --seed 0 --include-variants
    hyperq verify all --format json --seed 0 --samples 200

records each source that ``hyperq.series`` passes to ``compile``, in order,
and prints them, each followed by a blank line; the runs' own output is
dropped.  A change that keeps every generated program prints the same bytes,
and so does every hash seed:

    PYTHONHASHSEED=0 python3 scripts/dump_programs.py > programs-0.txt
    PYTHONHASHSEED=2 python3 scripts/dump_programs.py > programs-2.txt
    cmp programs-0.txt programs-2.txt

The dump's digest is committed, so a dump under any hash seed is checked by

    python3 scripts/dump_programs.py | sha256sum -c tests/golden/programs.sha256

and a deliberate change to the generated source updates that file.  The count of programs and lines goes to stderr.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperq import cli, series  # noqa: E402

RUNS = (["verify", "all", "--format", "json", "--seed", "0", "--include-variants"],
        ["verify", "all", "--format", "json", "--seed", "0", "--samples", "200"])


def programs() -> list:
    """The sources compiled by the two runs, in order."""
    sources = []

    def recording(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    series.compile = recording  # a module global shadows the builtin
    try:
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    finally:
        del series.compile
    return sources


def main() -> int:
    sources = programs()
    for source in sources:
        print(source, end="\n\n")
    lines = sum(source.count("\n") + 1 for source in sources)
    print(f"{len(sources)} programs, {lines} lines", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
