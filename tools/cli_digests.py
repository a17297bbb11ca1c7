"""Print the sha256 digests of a fixed list of ``siegel`` CLI calls.

Each call runs in process through ``siegel.cli.run`` with its own standard
input, its standard output and standard error captured, and prints one
line, ending in the name of the standard input it read, if any:

    <sha256 of stdout> <sha256 of stderr> <exit code> <argv> [< <input>]

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


def gaussian_sl(seed: int, n: int) -> list[float]:
    """The entries of a seeded Gaussian n x n matrix rescaled to
    determinant +1, row-major."""
    g = np.random.default_rng(seed).standard_normal((n, n))
    d = np.linalg.det(g)
    g /= abs(d) ** (1.0 / n)
    if d < 0:
        g[:, 0] *= -1.0
    return g.ravel().tolist()


def column_skewed_sl(seed: int, n: int) -> list[float]:
    """``gaussian_sl(seed, n)`` with its columns scaled apart by up to
    10**2.5 each way, the scales' product 1, row-major."""
    d = np.random.default_rng(seed + 1).uniform(-2.5, 2.5, size=n)
    return (np.reshape(gaussian_sl(seed, n), (n, n)) * 10.0 ** (d - d.mean())).ravel().tolist()


#: The matrices decompose and reduce read from standard input, by name: a
#: unimodular 3x3 matrix, a Gaussian one of n = 24, a column-skewed one of
#: n = 8 whose reduction makes 5 exchanges and a confirming QR, one of
#: determinant 2, one of determinant -1 and one of determinant 1 and
#: condition number 1e14; the group-element guard refuses the last three.
MATRICES = {
    "unimodular": json.dumps({"n": 3, "entries": [2, 1, 0, 1, 1, 0, 3, 1, 1]}),
    "gaussian-24": json.dumps({"n": 24, "entries": gaussian_sl(24, 24)}),
    "skewed-8": json.dumps({"n": 8, "entries": column_skewed_sl(68, 8)}),
    "det-2": json.dumps({"n": 2, "entries": [2, 0, 0, 1]}),
    "det-minus-1": json.dumps({"n": 2, "entries": [0, 1, 1, 0]}),
    "cond-1e14": json.dumps({"n": 2, "entries": [1e7, 0, 0, 1e-7]}),
}

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
    *(
        [command, "--input", "-", "<", name]
        for name in MATRICES
        for command in ("decompose", "reduce")
    ),
    # the budget runs out after the first exchange
    ["reduce", "--max-iter", "1", "--input", "-", "<", "skewed-8"],
    ["bounds", "--n", "21"],
    # the global flag on either side of the subcommand
    ["--format", "pretty", "bounds", "--n", "2"],
    ["bounds", "--n", "2", "--format", "pretty"],
    ["volume", "--object", "ratio", "--n", "60"],
    ["volume", "--object", "siegel", "--n", "3", "--t", "1.2", "--lambda", "0.4"],
]


def digest_line(call: list[str]) -> str:
    """Run one call and format its line.  A call ending in ``<`` and a name
    reads that entry of ``MATRICES`` as its standard input; every other call
    reads an empty one."""
    argv, stdin_name = (call[:-2], call[-1]) if call[-2:-1] == ["<"] else (call, None)
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(MATRICES.get(stdin_name, ""))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = stdin
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return " ".join([*digests, str(code), *call])


def main() -> int:
    for argv in CALLS:
        print(digest_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
