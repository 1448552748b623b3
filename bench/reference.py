"""The reference process: a fixed, stdlib-only job that the benchmark times
between every two timed processes, to follow the speed of the host.

It starts an interpreter, imports what the borelcurve CLI imports from the
standard library, and runs a fixed amount of exact rational elimination, the
kind of work the package does.  Nothing here reads the package, so no change
to the code under test can change the reference's cost; `run.py` divides each
timed process by the references around it (see `REF_SECONDS` there).

    python3 bench/reference.py      # prints the checksum `expected()` returns
"""

import argparse  # noqa: F401  imported for its start-up cost, as the CLI does
import hashlib
import json
from fractions import Fraction

SIZE = 20


def eliminate(size: int = SIZE) -> list[Fraction]:
    """The pivots of Gaussian elimination on a shifted Hilbert matrix."""
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(size)] for i in range(size)]
    for c in range(size):
        pivot = a[c][c]
        for r in range(c + 1, size):
            f = a[r][c] / pivot
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][i] for i in range(size)]


def checksum(pivots: list[Fraction]) -> str:
    text = json.dumps([str(p) for p in pivots])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected() -> str:
    return checksum(eliminate())


if __name__ == "__main__":
    print(expected())
