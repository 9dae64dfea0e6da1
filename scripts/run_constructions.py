#!/usr/bin/env python3
"""Build every target instance of the three families and print a summary
table: order, row-sum spectrum, excess against the bound, wall time."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qrhadamard import association_schemes as schemes
from qrhadamard import hadamard as hd
from qrhadamard.character_sums import family_m
from qrhadamard.finite_field import quadratic_tower

# the q of each family's instances; the regular family has schemes for m = 3, 5
LADDER = {"q3": (11, 27, 83, 227), "q1": (5, 13, 25, 41, 61), "regular": (17, 49)}


def main():
    for family, fam in hd.FAMILIES.items():
        for q in LADDER[family]:
            t0 = time.perf_counter()
            ext, _ = quadratic_tower(q)
            part = schemes.example_partition(family_m(q, fam.key)) if family == "regular" else None
            signed, rep = hd.transform(ext, family, partition=part)
            dt = time.perf_counter() - t0
            spectrum = ", ".join(f"{v}x{c}" for v, c in rep.row_sums)
            status = "max-excess" if rep.excess == rep.bound else "BELOW BOUND"
            print(f"{family:8s} {fam.promise:9s} q={q:<4d} n={rep.n:<4d} rows [{spectrum:18s}] "
                  f"E={rep.excess:<5d} bound={rep.bound:<5d} {status}  ({dt:.2f}s)")


if __name__ == "__main__":
    main()
