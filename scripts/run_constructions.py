#!/usr/bin/env python3
"""Build the instance ladder and check it against its pins.

    python scripts/run_constructions.py

Runs every instance of ``hadamard.instances()`` in process, writing no
files: all of the q3 and q1 instances, and each regular m for which
``schemes/m{m}.scheme`` ships.  It prints one line per instance: order,
row-sum spectrum, excess against the bound, wall time.  It hashes the three
files ``construct`` would write (base .mat, transformed .mat, _report.json)
and compares each sha256 with its pin in ``ladder.sha256`` (sha256sum
format, next to this script).  Last, it prints the regular m that lack a
partition and the m whose q3 form fits under the cap but where neither
biregular form is a prime power.

Exit 1 if any instance misses the bound or its family's promise, or any
digest is missing from the pins or differs from its pin; each such failure
prints a FAIL line naming the file, with the pin line the digest would
need.  Exit 0 otherwise.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qrhadamard import association_schemes as schemes
from qrhadamard import cli
from qrhadamard import hadamard as hd
from qrhadamard.character_sums import family_q
from qrhadamard.finite_field import quadratic_tower

PINS = Path(__file__).resolve().with_name("ladder.sha256")
SCHEMES_DIR = ROOT / "schemes"


def read_pins(path: Path) -> dict[str, str]:
    """file name -> sha256 from a sha256sum-format file ("<hex>  <name>")."""
    return {name: digest for digest, name in (ln.split() for ln in path.read_text().splitlines() if ln.strip())}


def sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
    return digest.hexdigest()


def main() -> int:
    pins = read_pins(PINS)
    failures, unshipped, reached = [], [], set()
    for family, m, q in hd.instances():
        partition = None
        if hd.FAMILIES[family].partition:
            path = SCHEMES_DIR / f"m{m}.scheme"
            if not path.is_file():
                unshipped.append(m)
                continue
            partition = schemes.parse_partition(path.read_text())
        else:
            reached.add(m)
        t0 = time.perf_counter()
        ext, _ = quadratic_tower(q)
        rep, files = cli.construction(ext, family, partition=partition)
        digests = {name: sha256(chunks) for name, chunks in files.items()}
        dt = time.perf_counter() - t0
        miss = cli.promise_miss(family, rep)
        spectrum = ", ".join(f"{v}x{c}" for v, c in rep.row_sums)
        status = "max-excess" if miss is None else "BELOW PROMISE"
        print(f"{family:8s} {hd.FAMILIES[family].promise:9s} m={m:<3d} q={q:<5d} n={rep.n:<5d} "
              f"rows [{spectrum:20s}] E={rep.excess:<7d} bound={rep.bound:<7d} {status}  ({dt:.2f}s)")
        if miss is not None:
            failures.append(f"FAIL {family}_q{q}_report.json: {json.dumps(miss, sort_keys=True)}")
        for name, digest in digests.items():
            if pins.get(name) != digest:
                problem = "has no pin" if name not in pins else "differs from its pin"
                failures.append(f"FAIL {name}: sha256 {problem} in {PINS.name}; pin line: {digest}  {name}")
    gaps = []
    m = 1
    while family_q(m, "q3") <= hd.MAX_Q:
        if m not in reached:
            gaps.append(m)
        m += 1
    print(f"regular m without a shipped partition: {', '.join(map(str, unshipped)) or 'none'}")
    print(f"m whose order 4(m^2+m+1) no biregular family reaches: {', '.join(map(str, gaps)) or 'none'}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
