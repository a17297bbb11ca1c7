"""Print the sha256 digests of a fixed list of ``siegel`` CLI calls.

Each call runs in process through ``siegel.cli.run`` with its standard
output and standard error captured, and prints one line:

    <sha256 of stdout> <sha256 of stderr> <exit code> <argv>

Run it from the repository root in two checkouts and ``diff`` the outputs to
check that a change keeps the CLI's bytes:

    python tools/cli_digests.py > digests.txt

It imports ``siegel`` from ``src/`` next to it, never an installed copy.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from siegel import cli  # noqa: E402

#: A unimodular 3x3 matrix, read from standard input by decompose and reduce.
MATRIX = json.dumps({"n": 3, "entries": [2, 1, 0, 1, 1, 0, 3, 1, 1]})

#: The CLI seeds the witness-n2-refine benchmark workload derives from its
#: seed 0.
WITNESS_SEEDS = [int(x) for x in np.random.SeedSequence(0).generate_state(10)]

CALLS = [
    ["growth-table", "--n-max", "2000", "--format", "csv"],
    ["sample", "--what", "rotation", "--n", "3", "--count", "4", "--seed", "7"],
    ["sample", "--what", "point", "--n", "3", "--count", "4", "--seed", "7"],
    ["sample", "--what", "a-integral", "--n", "3", "--count", "1000", "--seed", "7"],
    *(
        ["enumerate-intersections", "--n", "2", "--budget", "400", "--seed", str(seed)]
        for seed in WITNESS_SEEDS
    ),
    ["enumerate-intersections", "--n", "3", "--max-height", "1", "--budget", "2"],
    ["decompose", "--input", "-"],
    ["reduce", "--input", "-"],
    ["bounds", "--n", "21"],
    ["volume", "--object", "ratio", "--n", "60"],
    ["volume", "--object", "siegel", "--n", "3", "--t", "1.2", "--lambda", "0.4"],
]


def digest_line(argv: list[str]) -> str:
    """Run one call and format its line; standard input holds ``MATRIX``."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(MATRIX)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = stdin
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return " ".join([*digests, str(code), *argv])


def main() -> int:
    for argv in CALLS:
        print(digest_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
