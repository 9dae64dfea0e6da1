"""Command-line surface: construct and transform matrices, verify matrix
files, list admissible parameters, and verify or search scheme partitions.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exhausted.  The commands raise their errors, and main maps each to its code
through one table, _EXIT_CODES.  Runs are fully deterministic (fixed
modulus, fixed primitive element, ascending parameter listings) and outputs are
written atomically.

Importing this module loads no layer of the package, only its exceptions:
each command imports the layers it runs, so --help compiles this file
alone and verify never loads a finite field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import (
    BadEll,
    BudgetExceeded,
    CharError,
    FieldError,
    HadamardError,
    InputFileError,
    ParamSearchFailed,
    SchemeError,
    SchemeInvalid,
    UsageError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of chunks to a temporary file as they come, then
    move it to path; a large matrix is never held as one text.  The file gets
    the mode a plain open gives, 0o666 less the umask, not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _input_lines(path: str):
    """The lines of path decoded one at a time.  A newline never falls inside
    a UTF-8 sequence, so the first bad line holds the byte that decoding the
    whole file would name."""
    try:
        with open(path, "rb") as fh:
            offset = 0
            for raw in fh:
                try:
                    yield raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    reason = f"byte {offset + exc.start}: {exc.reason}"
                    raise InputFileError(f"{path} is not UTF-8 text ({reason})") from None
                offset += len(raw)
    except OSError as exc:
        raise InputFileError(str(exc)) from None


def _read_partition(path: str):
    from .association_schemes import parse_partition

    return parse_partition("".join(_input_lines(path)))


def _resolve_q_m(args, family: str) -> tuple[int, int]:
    """q and m of the family from exactly one of --q and --m; the errors
    name the family."""
    from .character_sums import FAMILIES, family_m, family_q
    from .finite_field import prime_power

    if (args.q is None) == (args.m is None):
        raise UsageError("give exactly one of --q and --m")
    q = args.q if args.m is None else family_q(args.m, family)
    m = family_m(q, family) if args.m is None else args.m  # a q of another form raises CharError
    if m < 1:
        raise UsageError(f"the {family} family needs m >= 1, got m = {m}")
    prime_power(q)  # raises FieldError if not a prime power
    if FAMILIES[family].odd_m and m % 2 == 0:
        raise UsageError(f"the {family} family needs odd m")
    return q, m


def _family_partition(args, family: str, q: int, m: int):
    """The partition of --partition, checked against q and m, for a family
    that takes one; None for a family that takes none.  The library checks
    that it is a scheme."""
    from .character_sums import FAMILIES

    if not FAMILIES[family].partition:
        if args.partition:
            raise UsageError(f"the {family} family takes no --partition")
        return None
    if not args.partition:
        raise UsageError(f"--partition is required for the {family} family")
    partition = _read_partition(args.partition)
    if partition.q != q or partition.m != m:
        raise UsageError("partition file does not match the requested q/m")
    return partition


def construction(ext, family: str, ell=None, partition=None):
    """Build and sign one family instance over the tower ext: its excess
    report, and its output files as file name -> text chunks, made as they
    are read.  construct writes these files; scripts/run_constructions.py
    hashes them."""
    from . import hadamard as hd
    from .matrix import report_json

    signed, rep, base = hd.transform(ext, family, ell, partition=partition)
    prefix = f"{family}_q{ext.subfield.q}"
    return rep, {
        prefix + "_base.mat": base.text_lines(),
        prefix + "_transformed.mat": signed.text_lines(),
        prefix + "_report.json": [json.dumps(report_json(rep), sort_keys=True) + "\n"],
    }


def promise_miss(family: str, rep) -> dict | None:
    """The excess, bound and classification of an ExcessReport whose excess
    misses the bound or whose row sums break the family's promise, else
    None."""
    from .character_sums import FAMILIES

    if rep.excess == rep.bound and rep.classification.startswith(FAMILIES[family].promise):
        return None
    return {"excess": rep.excess, "bound": rep.bound, "classification": rep.classification}


def cmd_construct(args) -> int:
    from .finite_field import quadratic_tower
    from .matrix import report_json

    family = args.family
    q, m = _resolve_q_m(args, family)
    ext, _ = quadratic_tower(q)
    partition = _family_partition(args, family, q, m)
    try:  # only a refused ell raises BadEll: an admissible one meets no other
        rep, files = construction(ext, family, args.ell, partition)
    except BadEll:
        raise UsageError(f"--ell {args.ell} is not admissible for this family") from None
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
        for name, chunks in files.items():
            _atomic_write(os.path.join(out, name), chunks)
    except OSError as exc:
        raise InputFileError(f"cannot write the outputs under --out {out}: {exc}") from None
    for k, v in sorted(report_json(rep).items()):
        print(f"{k}: {json.dumps(v, sort_keys=True)}")
    diag = promise_miss(family, rep)
    if diag is not None:
        print(json.dumps({"verification_failure": diag}, sort_keys=True), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import matrix as mx

    matrix = mx.SignMatrix.from_text(_input_lines(args.matrix))
    violation = mx.hadamard_violation(matrix)
    if violation is not None:
        payload = {"n": matrix.n, "hadamard": False, "violating_rows": list(violation)}
    elif matrix.n >= 4:
        payload = {**mx.report_json(mx._excess_report(matrix)), "hadamard": True}
    else:
        hist: dict[str, int] = {}
        for v in matrix.row_sums():
            hist[str(v)] = hist.get(str(v), 0) + 1
        payload = {"n": matrix.n, "excess": matrix.excess(), "row_sums": hist, "hadamard": True}
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if violation is None else EXIT_VERIFY


def _param_row(choice) -> dict:
    """The search-params row of a ParamChoice: its fields that are set, but
    family and m, which every row of a search shares."""
    return {k: v for k, v in zip(choice._fields, choice) if v is not None and k not in ("family", "m")}


def cmd_search_params(args) -> int:
    from .finite_field import quadratic_tower
    from .intersection_sets import admissible_params

    family = args.family
    q, m = _resolve_q_m(args, family)
    ext, _ = quadratic_tower(q)
    partition = _family_partition(args, family, q, m)
    # the rows of one period P; each ell + kP up to max_ell shares its row's fields
    rows = [_param_row(choice) for choice in admissible_params(ext, family, partition)]
    if not rows:
        raise ParamSearchFailed("no admissible parameters found; this contradicts the nonemptiness counts")
    print(json.dumps({"max_ell": q * q - 2, "period": 2 * (q + 1), "rows": rows}, sort_keys=True))
    return EXIT_OK


def cmd_scheme(args) -> int:
    from . import association_schemes as schemes
    from .finite_field import quadratic_tower

    if args.verify and (args.search or any(v is not None for v in (args.q, args.m, args.e, args.budget))):
        raise UsageError("--verify takes none of --search, --q, --m, --e and --budget")
    if args.search:
        budget = schemes.DEFAULT_SEARCH_BUDGET if args.budget is None else args.budget
        if budget < 0:
            raise UsageError(f"--budget must be >= 0, got {budget}")
        q, m = _resolve_q_m(args, "regular")
        ext, _ = quadratic_tower(q)
        e = 4 * m * m if args.e is None else args.e
        results = schemes.scheme_search(ext, e, budget=budget)
        for part in results:
            sys.stdout.write(schemes.partition_text(part))
            sys.stdout.write("\n")
        print(f"found {len(results)} partition(s)", file=sys.stderr)
        return EXIT_OK
    if not args.verify:
        raise UsageError("give --verify FILE or --search")
    partition = _read_partition(args.verify)
    ext, _ = quadratic_tower(partition.q)
    report = schemes.verify_scheme(ext, partition)
    print(json.dumps(schemes.scheme_report_json(ext, partition, report), sort_keys=True))
    if report.is_scheme and report.table1_match:
        return EXIT_OK
    if not report.table1_match:
        # the exact cells, rendered as decimals; only the printed eigenmatrix is float
        for tau, (i, c, got, want) in report.table1_misses:
            got, want = schemes.cell_value(partition.q, got), schemes.cell_value(partition.q, want)
            cell = f"(Y_{i}, X_{c}): got {got:.6f}, expected {want:.6f}"
            print(f"tau={tau}: first failing cell {cell}", file=sys.stderr)
    return EXIT_VERIFY


# the names of character_sums.FAMILIES, which --help does not load
_FAMILY_NAMES = ["q3", "q1", "regular"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrhadamard",
        description="Maximum-excess Hadamard matrices from quadratic residues",
        allow_abbrev=False,  # an option is its full name: --fam is no --family
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build, transform and verify a matrix", allow_abbrev=False)
    p_con.add_argument("--family", required=True, choices=_FAMILY_NAMES)
    p_con.add_argument("--m", type=int)
    p_con.add_argument("--q", type=int)
    p_con.add_argument("--ell", type=int)
    p_con.add_argument("--partition")
    p_con.add_argument("--out", default=".")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="verify a matrix file and report excess", allow_abbrev=False)
    p_ver.add_argument("matrix")
    p_ver.set_defaults(func=cmd_verify)

    p_sp = sub.add_parser("search-params", help="list one period of admissible (h, ell) pairs", allow_abbrev=False)
    p_sp.add_argument("--family", required=True, choices=_FAMILY_NAMES)
    p_sp.add_argument("--q", type=int)
    p_sp.add_argument("--m", type=int)
    p_sp.add_argument("--partition")
    p_sp.set_defaults(func=cmd_search_params)

    p_sch = sub.add_parser("scheme", help="verify a partition file or search for partitions", allow_abbrev=False)
    p_sch.add_argument("--verify")
    p_sch.add_argument("--search", action="store_true")
    p_sch.add_argument("--q", type=int)
    p_sch.add_argument("--m", type=int)
    p_sch.add_argument("--e", type=int)
    p_sch.add_argument("--budget", type=int)  # default: association_schemes.DEFAULT_SEARCH_BUDGET
    p_sch.set_defaults(func=cmd_scheme)

    return parser


# The exit code of each error a command raises: the first row whose classes
# match wins.  Any other exception is a bug and keeps its traceback.
_EXIT_CODES = (
    (BudgetExceeded, EXIT_BUDGET),
    ((SchemeInvalid, HadamardError), EXIT_VERIFY),
    ((UsageError, InputFileError, FieldError, CharError, SchemeError), EXIT_INPUT),
)


def main(argv=None) -> int:
    try:
        try:  # --help prints and exits inside parse_args
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError as exc:  # stdout closed: an unwritable output, like --out
        with open(os.devnull, "w") as null:  # where the bytes still buffered go
            os.dup2(null.fileno(), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
