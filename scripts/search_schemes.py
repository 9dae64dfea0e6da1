#!/usr/bin/env python3
"""Enumerate four-class partitions for q = 2m^2-1 at a chosen class modulus.

Enumerates one assignment respecting the shift symmetry per rotation orbit;
the orbits of those that pass the eigenvalue table are expanded, and members
that pass full intersection-number verification are printed in the scheme
file format.  BUDGET caps the assignments enumerated and is checked first.

Usage: search_schemes.py M [E] [BUDGET]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qrhadamard import association_schemes as schemes
from qrhadamard.finite_field import quadratic_tower


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    m = int(argv[0])
    e = int(argv[1]) if len(argv) > 1 else 4 * m * m
    budget = int(argv[2]) if len(argv) > 2 else schemes.DEFAULT_SEARCH_BUDGET
    q = 2 * m * m - 1
    ext, _ = quadratic_tower(q)
    t0 = time.perf_counter()
    try:
        results = schemes.scheme_search(ext, e, budget=budget)
    except schemes.BudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    dt = time.perf_counter() - t0
    for part in results:
        sys.stdout.write(schemes.partition_text(part))
        sys.stdout.write("\n")
    print(f"m={m} e={e}: {len(results)} partition(s) in {dt:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
