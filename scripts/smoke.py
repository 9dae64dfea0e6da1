#!/usr/bin/env python3
"""Run the command-line checks of CI with each given interpreter.

    python scripts/smoke.py PYTHON [PYTHON ...]

Each PYTHON runs ``python -m qrhadamard`` from ``src/`` through the checks
in ``CHECKS``, in order: the CLI commands, the top q3 and q1 rungs with and
without ``--ell``, the top q1 rung with one sign flipped under a peak-RSS
bound, the certificate against the full scan, the Sylvester, duplicate-row
and regular inputs, the scheme searches and eigenmatrix digests, the q1
q = 181 verify pair, the regular family, the refused argv and the ``--ell``
timings.  Every command runs in its own session, under the timeout its
check names, and all files go to one temporary directory.  The order-4096 inputs
are built once, in this process, and shared by every interpreter.  It
prints one line per check.

Exit 1 at the first failed check, naming it with the argv it ran last, that
command's exit code and the tail of its stderr.  A command that leaves a
process of its session running fails its check, as does a ``.tmp_*`` file
left in the output.  Exit 0 when every check passes under every
interpreter.  Needs the stdlib, and pytest importable for the
``sylvester``, ``scrambled`` and ``kronecker`` helpers of
``tests/conftest.py``.
"""

import filecmp
import hashlib
import json
import os
import random
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import kronecker, scrambled, sylvester
from qrhadamard.hadamard import instances
from qrhadamard.matrix import SignMatrix, _scan

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
TOP = {family: max(q for f, _, q in instances() if f == family) for family in ("q3", "q1")}
# sha256 of the printed float eigenmatrices, the digests benchmark/golden.json holds
SCHEME_DIGESTS = {
    "m3": "9c207d6cdb5e6eb7f4dbf1d2c5cff6ece0689a5467b65b878c19c821b85a9cdd",
    "m5": "3ab2eaa324ad663d9482a497686161e18d39728062c7e4e48e7b229ef01de49d",
}
PEAK_MB = 48  # verify's peak RSS on the flipped top q1 rung, whose .mat file is 52 MB

# the row-pair scan would take seconds on the order-4096 inputs; with it made
# to fail, a pass proves that a certificate ran
NO_SCAN = """import sys; from qrhadamard import cli, matrix
matrix._scan = lambda *args: sys.exit('the row-pair scan ran')
sys.exit(cli.main(sys.argv[1:]))"""
# two scanners: row 1 is the forked child's, so the board alone carries the pair to the CLI
TWO_SCANNERS = """import sys; from qrhadamard import cli, matrix
matrix._scanner_count = lambda n: 2
sys.exit(cli.main(sys.argv[1:]))"""
# runs one command and prints its peak RSS in MB as the last stdout line.  A
# child's ru_maxrss starts at its spawner's RSS, so the spawner must be this
# small interpreter, not the one that built the order-4096 inputs
PEAK_RSS = """import resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "qrhadamard", *sys.argv[1:]], capture_output=True, text=True)
sys.stderr.write(proc.stderr)
print(proc.stdout, end="")
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
sys.exit(proc.returncode)"""


class Failed(Exception):
    """A check's assertion does not hold."""


def expect(ok, message: str) -> None:
    if not ok:
        raise Failed(message)


def kill_session(pid: int) -> bool:
    """SIGKILL every process left in the session that pid leads; whether there was one."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


class Interpreter:
    """One PYTHON's run of the checks, writing under out."""

    def __init__(self, python: str, out: Path, inputs: Path):
        self.python, self.out, self.inputs = python, out, inputs
        self.last = None  # (argv, exit code, stderr) of the last command, for a failure

    def run(self, *args, code: int = 0, timeout: float | None = None, program: str | None = None):
        """stdout (bytes) and stderr (text) of ``python -m qrhadamard args``, or
        of ``python -c program args``, which must exit with code within timeout."""
        argv = [self.python, *(["-c", program] if program else ["-m", "qrhadamard"]), *map(str, args)]
        self.last = (argv, None, "")
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_session(proc.pid)
            _, err = proc.communicate()
            self.last = (argv, "killed", err.decode(errors="replace"))
            raise Failed(f"no exit within timeout={timeout} s")
        except BaseException:
            kill_session(proc.pid)
            proc.wait()
            raise
        err = err.decode(errors="replace")
        self.last = (argv, proc.returncode, err)
        expect(not kill_session(proc.pid), "left a process of its session running (killed now)")
        expect(proc.returncode == code, f"exit {proc.returncode}, expected {code}")
        return out, err


def write_matrix(h: SignMatrix, path: Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(h.text_lines())


def flip_first_entry(src: Path, dst: Path, row: int) -> None:
    """dst: the .mat file src with the first entry of a row negated."""
    lines = src.read_bytes().splitlines(keepends=True)
    line = lines[row + 1]  # after the header
    lines[row + 1] = (b"-" if line[:1] == b"+" else b"+") + line[1:]
    dst.write_bytes(b"".join(lines))


def reverse_rows(src: Path, dst: Path) -> None:
    """dst: the .mat file src with its rows in reverse order, header kept."""
    header, *rows = src.read_bytes().splitlines(keepends=True)
    dst.write_bytes(header + b"".join(reversed(rows)))


def build_inputs(inputs: Path) -> None:
    """The interpreter-independent inputs, with the serial scan's first pair
    of each matrix that is not Hadamard in ``<name>.pair``."""
    inputs.mkdir()
    # Sylvester's matrix of order 4096, its rows and columns permuted and negated at random
    h = scrambled(sylvester(4096), random.Random(4096))
    write_matrix(h, inputs / "sylvester.mat")
    # row 4095 replaced by row 1: the only bad pair, in the rows of a forked scanner
    write_matrix(SignMatrix(h.n, h.rows[:-1] + [h.rows[1]]), inputs / "duplicate.mat")
    # (J - 2I)^(x6): regular, every row sum 64
    core = h = SignMatrix(4, [1, 2, 4, 8])
    for _ in range(5):
        h = kronecker(h, core)
    write_matrix(h, inputs / "regular.mat")
    # one entry flipped, in the first column of row 2048: the scan's first pair
    flip_first_entry(inputs / "sylvester.mat", inputs / "flipped.mat", 2048)
    for name in ("flipped", "duplicate"):
        with open(inputs / f"{name}.mat") as fh:
            h = SignMatrix.from_text(fh)
        (inputs / f"{name}.pair").write_text(json.dumps(_scan(h.rows, h.n, 0, 1, [h.n], 0)))
    (inputs / "bad_e.scheme").write_text("17 3 8\n0\n1\n2\n3 4 5 6 7\n")
    # m3.scheme with X_2 and X_4 exchanged: it fails table 1
    lines = (ROOT / "schemes" / "m3.scheme").read_text().splitlines()
    (inputs / "swapped.scheme").write_text("".join(lines[i] + "\n" for i in (0, 1, 4, 3, 2)))


# the CLI commands


def version(py: Interpreter) -> str:
    out, _ = py.run(program="import platform; print(platform.python_version())")
    return out.decode().strip()


def construct(py: Interpreter, family: str, q: int) -> None:
    py.run("construct", "--family", family, "--q", q, "--out", py.out / f"{family}_{q}")


def reversed_rows_same_report(py: Interpreter, family: str, q: int, timeout: float) -> None:
    """The rows reversed fail the certificate and take the forked scan, and
    verify prints the bytes it printed for the constructed matrix."""
    mat = py.out / f"{family}_{q}" / f"{family}_q{q}_transformed.mat"
    reverse_rows(mat, py.out / f"{family}_{q}_reversed.mat")
    want = (py.out / f"{family}_{q}.json").read_bytes()
    out, _ = py.run("verify", py.out / f"{family}_{q}_reversed.mat", timeout=timeout)
    expect(out == want, f"reversed: {out!r}, constructed: {want!r}")


def verify_q3_1091(py: Interpreter) -> None:
    out, _ = py.run("verify", py.out / "q3_1091" / "q3_q1091_transformed.mat")
    (py.out / "q3_1091.json").write_bytes(out)


def scheme_digest(py: Interpreter, m: str) -> None:
    out, _ = py.run("scheme", "--verify", f"schemes/{m}.scheme")
    digest = hashlib.sha256(out).hexdigest()
    expect(digest == SCHEME_DIGESTS[m], f"sha256 {digest}")


def scheme_search(py: Interpreter, m: int, e: int, found: int) -> None:
    _, err = py.run("scheme", "--search", "--m", m, "--e", e)
    expect(f"found {found} partition(s)" in err.splitlines(), f"no line 'found {found} partition(s)'")


# the top rungs


def top_search_params(py: Interpreter, family: str) -> None:
    """One period of admissible rows: seconds, not minutes, and under 1 MB."""
    q = TOP[family]
    out, _ = py.run("search-params", "--family", family, "--q", q, timeout=10)
    expect(len(out) < 1_000_000, f"{len(out)} B of stdout")
    (py.out / f"{family}_{q}_params.json").write_bytes(out)
    params = json.loads(out)
    want = (2 * (q + 1), q * q - 2)
    expect((params["period"], params["max_ell"]) == want, f"(period, max_ell) {(params['period'], params['max_ell'])}")


def top_ell_same_bytes(py: Interpreter, family: str) -> None:
    """The first admissible ell, given explicitly, builds the same bytes as the default."""
    q = TOP[family]
    ell = json.loads((py.out / f"{family}_{q}_params.json").read_bytes())["rows"][0]["ell"]
    py.run("construct", "--family", family, "--q", q, "--ell", ell, "--out", py.out / "ell")
    for suffix in ("base.mat", "transformed.mat", "report.json"):
        name = f"{family}_q{q}_{suffix}"
        expect(filecmp.cmp(py.out / f"{family}_{q}" / name, py.out / "ell" / name, shallow=False),
               f"--ell {ell} changes {name}")


def flipped_top_q1_peak(py: Interpreter) -> str:
    q = TOP["q1"]
    flip_first_entry(py.out / f"q1_{q}" / f"q1_q{q}_transformed.mat", py.out / "q1_flipped.mat", 0)
    out, _ = py.run("verify", py.out / "q1_flipped.mat", code=1, program=PEAK_RSS)
    *stdout, peak = out.decode().splitlines()
    expect('"violating_rows": [0, 1]' in "\n".join(stdout), f"stdout {stdout}")
    expect(float(peak) < PEAK_MB, f"peak RSS {float(peak):.1f} MB, bound {PEAK_MB} MB")
    return f"peak RSS {float(peak):.1f} MB"


def top_certificate(py: Interpreter) -> None:
    """A constructed matrix passes the certificate: seconds, not minutes."""
    for family, q in TOP.items():
        out, _ = py.run("verify", py.out / f"{family}_{q}" / f"{family}_q{q}_transformed.mat", timeout=60)
        (py.out / f"{family}_{q}.json").write_bytes(out)
        got = json.loads(out)
        expect(got["hadamard"] is True and got["excess"] == got["bound"], f"report {got}")


# the order-4096 inputs


def certified_without_scan(py: Interpreter, name: str) -> dict:
    out, _ = py.run("verify", py.inputs / f"{name}.mat", timeout=60, program=NO_SCAN)
    got = json.loads(out)
    expect(got["hadamard"] is True, f"report {got}")
    return got


def regular_without_scan(py: Interpreter) -> None:
    got = certified_without_scan(py, "regular")
    expect(got["excess"] == got["bound"] == 262144, f"report {got}")
    expect(got["classification"] == "regular(r=64)", f"report {got}")


def serial_pair(py: Interpreter, name: str, timeout: float, program: str | None = None) -> None:
    """verify exits 1 with the first pair of the serial scan."""
    want = json.loads((py.inputs / f"{name}.pair").read_text())
    out, _ = py.run("verify", py.inputs / f"{name}.mat", code=1, timeout=timeout, program=program)
    got = json.loads(out)
    expect(got == {"hadamard": False, "n": 4096, "violating_rows": want}, f"report {got}, serial scan {want}")


def duplicate_pair(py: Interpreter) -> None:
    want = json.loads((py.inputs / "duplicate.pair").read_text())
    expect(want == [1, 4095], f"serial scan {want}")
    serial_pair(py, "duplicate", 60, TWO_SCANNERS)


# q1 q = 181


def verify_q1_181(py: Interpreter) -> None:
    mat = py.out / "q1_181" / "q1_q181_transformed.mat"
    out, _ = py.run("verify", mat)
    expect(b'"hadamard": true' in out, f"stdout {out!r}")
    flip_first_entry(mat, py.out / "q1_181_flipped.mat", 0)
    out, _ = py.run("verify", py.out / "q1_181_flipped.mat", code=1)
    expect(b'"violating_rows"' in out, f"stdout {out!r}")


# the regular family and refused input


def construct_regular(py: Interpreter, m: int) -> None:
    py.run("construct", "--family", "regular", "--m", m, "--partition", f"schemes/m{m}.scheme",
           "--out", py.out / "regular")


def refused_argv(py: Interpreter) -> None:
    """ell fixes h, so there is no --h, and no option is read from a prefix of its name."""
    for args in ("--family q3 --m 1 --ell 9 --h 1", "--fam q3 --m 1"):
        out, err = py.run("construct", *args.split(), "--out", py.out / "refused", code=2)
        expect(not out, f"stdout {out!r}")
        expect("Traceback" not in err, "a traceback")
        expect(not (py.out / "refused").exists(), "the --out directory was made")


def bad_e(py: Interpreter) -> None:
    """A partition with e = 8 at m = 3: one message from both commands."""
    for command in (("construct", "--family", "regular", "--out", py.out / "regular"),
                    ("search-params", "--family", "regular")):
        _, err = py.run(*command, "--m", 3, "--partition", py.inputs / "bad_e.scheme", code=2)
        expect("Traceback" not in err, "a traceback")
        expect("error: e must divide 4m^2" in err.splitlines(), "no line 'error: e must divide 4m^2'")


def swapped_scheme(py: Interpreter) -> None:
    """A partition that fails table 1: one message from every command."""
    for command in (("construct", "--family", "regular", "--out", py.out / "regular"),
                    ("construct", "--family", "regular", "--ell", 3, "--out", py.out / "regular"),
                    ("search-params", "--family", "regular")):
        out, err = py.run(*command, "--m", 3, "--partition", py.inputs / "swapped.scheme", code=1)
        expect(not out, f"stdout {out!r}")
        message = "error: partition fails scheme or eigenvalue-table verification"
        expect(err == message + "\n", f"stderr is not the one line '{message}'")


# construct --ell checks the one ell it is given, with no walk of the smaller ones


def ell_refused(py: Interpreter) -> None:
    """A multiple of q + 1 inside 1 .. q^2 - 2: the walk of every smaller ell took 13 s."""
    out, err = py.run("construct", "--family", "q1", "--q", 3613, "--ell", 13050154, "--out", py.out / "refused",
                      code=2, timeout=10)
    expect(not out, f"stdout {out!r}")
    expect("Traceback" not in err, "a traceback")
    message = "error: --ell 13050154 is not admissible for this family"
    expect(message in err.splitlines(), f"no line '{message}'")


def no_temporary_files(py: Interpreter) -> None:
    """Every output went through a temporary file, and none is left."""
    left = sorted(str(path.relative_to(py.out)) for path in py.out.rglob(".tmp_*"))
    expect(not left, f"left {left}")


def top_rung(family: str) -> list:
    q = TOP[family]
    return [
        (f"construct top rung {family} q={q}", partial(construct, family=family, q=q)),
        (f"search-params top rung {family} q={q}: one period under 1 MB (timeout 10 s)",
         partial(top_search_params, family=family)),
        (f"construct top rung {family} q={q} --ell (first admissible): same bytes",
         partial(top_ell_same_bytes, family=family)),
    ]


# (name, check) in the order they run; a check takes the Interpreter, and
# what it returns, if a str, is printed after its name
CHECKS = [
    ("python version", version),
    ("--help", lambda py: py.run("--help")),
    ("construct q3 q=1091", partial(construct, family="q3", q=1091)),
    ("verify q3 q=1091", verify_q3_1091),
    ("verify q3 q=1091 rows reversed: same bytes by the scan (timeout 300 s)",
     partial(reversed_rows_same_report, family="q3", q=1091, timeout=300)),
    ("search-params q1 q=25", lambda py: py.run("search-params", "--family", "q1", "--q", 25)),
    ("scheme --verify m3.scheme: sha256 9c207d6c...", partial(scheme_digest, m="m3")),
    ("scheme --verify m5.scheme: sha256 3ab2eaa3...", partial(scheme_digest, m="m5")),
    ("scheme --search --m 5 --e 20: found 20", partial(scheme_search, m=5, e=20, found=20)),
    ("scheme --search --m 7 --e 28: found 0", partial(scheme_search, m=7, e=28, found=0)),
    *top_rung("q3"),
    *top_rung("q1"),
    (f"verify top q1 rung one sign flipped: exit 1, rows [0, 1], peak RSS < {PEAK_MB} MB", flipped_top_q1_peak),
    ("verify top rungs by the certificate: excess = bound (timeout 60 s)", top_certificate),
    (f"verify top q3 rung q={TOP['q3']} rows reversed: same bytes by the scan (timeout 300 s)",
     partial(reversed_rows_same_report, family="q3", q=TOP["q3"], timeout=300)),
    ("verify scrambled Sylvester 4096, scan made to fail (timeout 60 s)",
     partial(certified_without_scan, name="sylvester")),
    ("verify (J - 2I)^(x6), scan made to fail: regular(r=64), excess = bound (timeout 60 s)", regular_without_scan),
    ("verify Sylvester one entry flipped: the serial scan's pair (timeout 300 s)",
     partial(serial_pair, name="flipped", timeout=300)),
    ("verify duplicate row, two scanners: pair [1, 4095] (timeout 60 s)", duplicate_pair),
    ("construct q1 q=181", partial(construct, family="q1", q=181)),
    ("verify q1 q=181, and one sign flipped: exit 1", verify_q1_181),
    ("construct regular m=3 --partition", partial(construct_regular, m=3)),
    ("construct regular m=5 --partition", partial(construct_regular, m=5)),
    ("search-params regular m=5 --partition",
     lambda py: py.run("search-params", "--family", "regular", "--m", 5, "--partition", "schemes/m5.scheme")),
    ("construct --h and --fam refused: exit 2, no output", refused_argv),
    ("partition with e=8 refused: exit 2", bad_e),
    ("partition failing table 1: exit 1, one message", swapped_scheme),
    ("construct q1 q=3613 --ell 13050154 refused (timeout 10 s)", ell_refused),
    # an admissible ell in the last period of 2(q + 1)
    ("construct q3 q=3251 --ell 10568999 (timeout 10 s)",
     lambda py: py.run("construct", "--family", "q3", "--q", 3251, "--ell", 10568999, "--out", py.out / "ell_last",
                       timeout=10)),
    ("no .tmp_* file left", no_temporary_files),
]


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python scripts/smoke.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="qrhadamard-smoke-") as tmp:
        t0 = time.perf_counter()
        build_inputs(Path(tmp) / "inputs")
        print(f"inputs built ({time.perf_counter() - t0:.1f}s)")
        for k, python in enumerate(pythons):
            py = Interpreter(python, Path(tmp) / f"python{k}", Path(tmp) / "inputs")
            py.out.mkdir()
            start = time.perf_counter()
            for name, fn in CHECKS:
                t0 = time.perf_counter()
                try:
                    note = fn(py)
                except Exception as exc:
                    print(f"FAIL {python}: {name}: {exc}")
                    if not isinstance(exc, Failed):
                        traceback.print_exc(file=sys.stdout)
                    if py.last is not None:
                        argv, code, err = py.last
                        print(f"  argv: {shlex.join(argv)}\n  exit: {code}")
                        print("  stderr tail:", *err.splitlines()[-10:], sep="\n    ")
                    return 1
                note = f": {note}" if isinstance(note, str) else ""
                print(f"ok   {python}: {name}{note} ({time.perf_counter() - t0:.1f}s)")
            print(f"{python}: {len(CHECKS)} checks passed in {time.perf_counter() - start:.1f}s")
            shutil.rmtree(py.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
