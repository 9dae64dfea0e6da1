"""Sign matrices and their text form, Hadamard verification, and the excess
bound with the row-sum classification: all that ``verify`` runs.

Rows are bit-packed (set bit = entry -1), so orthogonality checks run on
word-wide popcounts, and all verification is exact integer arithmetic.
hadamard_violation is the one Hadamard check, for files and constructions
alike.  Two certificates read the matrix alone.  The first (_certified)
proves each matrix the paper builds Hadamard in O(n) popcounts.  The second
(_group_certified) runs only at orders n = 2^k and proves the matrices of
Sylvester type, whose rows form a group under XOR up to sign, in O(n k)
XORs and n popcounts.  Any other matrix gets the full check: every row
pair, O(n^2) popcounts.

The full check is split over the CPUs this process may run on, with no
option to choose: the rows are interleaved over one scanner per usable CPU
(at least _ROWS_PER_SCANNER rows each), this process and forked children.
A scanner that finds a pair posts its row on a shared board, and every
scanner stops before any row past the smallest one posted.  The board
carries the answer: its smallest row is the first bad row of one process
scanning alone, and this process names the pair with one pass over that
row, so the answer is the same first pair in row-major order.
"""

from __future__ import annotations

import os
from collections import namedtuple
from math import isqrt

from .errors import HadamardError, ParseError

_TO_TEXT = str.maketrans("01", "+-")
_FROM_TEXT = str.maketrans("+-", "01")


class SignMatrix:
    """n x n matrix over {+1,-1}; rows[i] bit j set means entry -1."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        rows = list(rows)
        if len(rows) != n or any(r >> n for r in rows):  # r >> n is -1 for a negative r
            raise HadamardError("row masks inconsistent with order n")
        self.n = n
        self.rows = rows

    def row_sum(self, i: int) -> int:
        return self.n - 2 * self.rows[i].bit_count()

    def row_sums(self) -> list[int]:
        return [self.row_sum(i) for i in range(self.n)]

    def excess(self) -> int:
        return sum(self.row_sums())

    def text_lines(self):
        """The lines of the text form, newline included, one row at a time."""
        spec = f"0{self.n}b"  # bit j is character j, so the binary text is reversed
        yield f"{self.n}\n"
        for r in self.rows:
            yield format(r, spec)[::-1].translate(_TO_TEXT) + "\n"

    def to_text(self) -> str:
        return "".join(self.text_lines())

    @classmethod
    def from_text(cls, lines) -> "SignMatrix":
        """Parse the text form from an iterable of lines (each split with
        str.splitlines; blank lines are skipped), keeping only the row ints.
        The input is read to its end even after an error, so that of several
        errors the one reported is the first of: an error raised by the
        iterable, empty, bad header, wrong row count, bad row."""
        lines = (ln for chunk in lines for ln in chunk.splitlines() if ln.strip())
        header = next(lines, "").strip()
        if not header:
            raise ParseError("empty matrix file")
        try:
            if not header.isascii() or "_" in header:  # int() reads "0_4" and "\u0664" as 4
                raise ValueError(header)
            n = int(header)
        except ValueError as exc:
            for _ in lines:
                pass
            raise ParseError("first line must be the order n") from exc
        rows, rest = [], 0  # rest counts the lines from the first bad or surplus row on
        for ln in lines:
            ln = ln.strip()
            # checked before int(), which would also accept "_" and whitespace;
            # isascii() first, since encode() raises on a lone surrogate
            if rest or len(rows) == n or len(ln) != n or not ln.isascii() or ln.encode().translate(None, b"+-"):
                rest += 1
            else:
                rows.append(int(ln.translate(_FROM_TEXT)[::-1], 2))
        if n < 1 or len(rows) + rest != n:
            raise ParseError(f"expected {n} rows after the header")
        if rest:
            raise ParseError("rows must be n characters from {+,-}")
        return cls(n, rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignMatrix) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))


def hadamard_violation(h: SignMatrix) -> tuple[int, int] | None:
    """First row pair with nonzero dot product, or None."""
    n, rows = h.n, h.rows
    if n % 2 and n > 1:
        return (0, 1)
    if _certified(h) or _group_certified(h):
        return None
    w = _scanner_count(n)
    if w > 1:
        try:
            return _forked_scan(rows, n, w)
        except OSError:  # no fork, or a child failed: the serial scan decides
            pass
    return _scan(rows, n, 0, 1, [n], 0)


def _certified(h: SignMatrix) -> bool:
    """Exact proof that h is Hadamard, from h alone, or False when it fails.

    It tries each layout the order allows: b = 1 border row and one block of
    q = n - 1, or b = 2 border rows and two blocks of q = (n - 2)/2, q odd
    and >= 3.  In a block at o, index o stands for the field's 0 and
    o + 1 + k for omega^k.  sigma fixes the borders and each block's 0 and
    maps omega^k to omega^(k+2), on rows and columns alike.  Each row i with
    its columns moved by sigma, XOR row sigma(i), must be one mask c or its
    complement: then h[sigma i][sigma j] = e1[i] h[i][j] e2[j] for signs e1,
    e2, and G = h h^T has G[sigma i][sigma j] = e1[i] e1[j] G[i][j].  Row i
    is sigma^t of an orbit representative r (a border row, or 0, omega^0,
    omega^1 of a block), so G[i][j] = +-G[r][sigma^-t j]: representatives
    orthogonal to all other rows prove G = nI, for any +-1 matrix."""
    n, rows = h.n, h.rows
    full = (1 << n) - 1
    for b in (1, 2):
        q, rem = divmod(n - b, b)
        if rem or q < 3 or q % 2 == 0:
            continue
        period = q - 1
        seg = (1 << period) - 1
        blocks = [b + k * q for k in range(b)]
        fixed, target = full, list(range(n))  # target: sigma on row indices
        for o in blocks:
            fixed ^= seg << (o + 1)
            target[o + 1 : o + q] = [*range(o + 3, o + q), o + 1, o + 2]

        def image(r: int) -> int:  # row r with its columns moved by sigma
            moved = r & fixed
            for o in blocks:
                part = (r >> (o + 1)) & seg
                moved |= (((part << 2) | (part >> (period - 2))) & seg) << (o + 1)
            return moved

        c = image(rows[0]) ^ rows[0]
        masks = (c, c ^ full)
        if not all(image(r) ^ rows[t] in masks for r, t in zip(rows, target)):
            continue
        reps = [*range(b), *(o + k for o in blocks for k in range(3))]
        if all((rows[i] ^ rows[j]).bit_count() == n // 2 for i in reps for j in range(n) if j != i):
            return True
    return False


def _group_certified(h: SignMatrix) -> bool:
    """Exact proof that h, of order n = 2^k, is Hadamard because its rows
    form a group up to sign (Sylvester type), or False when it fails.

    Row i gives the mask u_i = rows[i] ^ rows[0], complemented when its bit 0
    is set.  The u_i must be pairwise distinct, span a GF(2) space of rank
    at most k, and each nonzero one must have weight n/2.  Then the n
    distinct masks are that whole space of 2^k = n members, so for i != j
    rows[i] ^ rows[j] is u_i ^ u_j, a nonzero member, or its complement:
    n/2 places either way, and every row pair is orthogonal.  The masks are
    kept as their coordinates in an echelon basis, one byte of seen per
    coordinate, so the proof takes O(n k) XORs and O(n) extra bytes."""
    n, rows = h.n, h.rows
    k = n.bit_length() - 1
    if n < 1 or n != 1 << k:
        return False
    full, half, first = (1 << n) - 1, n // 2, rows[0]
    basis = []  # (pivot bit, vector); a vector holds no earlier pivot
    seen = bytearray(n)
    for r in rows:
        u = r ^ first
        if u & 1:
            u ^= full
        if u and u.bit_count() != half:
            return False
        coord = 0
        for t, (pivot, vector) in enumerate(basis):
            if u & pivot:
                u ^= vector
                coord |= 1 << t
        if u:
            if len(basis) == k:
                return False
            coord |= 1 << len(basis)
            basis.append((u & -u, u))
        if seen[coord]:
            return False
        seen[coord] = 1
    return True


# Fewest rows a scanner takes: an order below twice this is scanned serially.
_ROWS_PER_SCANNER = 256


def _scanner_count(n: int) -> int:
    """Processes that scan an order-n matrix: one per usable CPU, each with
    at least _ROWS_PER_SCANNER rows.  One where os.fork is missing or another
    thread runs, since a forked child could inherit a lock that thread holds."""
    if n < 2 * _ROWS_PER_SCANNER or not hasattr(os, "fork"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, n // _ROWS_PER_SCANNER)


def _scan(rows, n: int, first: int, step: int, board, slot: int, parent: int | None = None):
    """First pair (i, j > i) whose rows differ in other than n/2 places, for
    i = first, first + step, ... in increasing order, or None.  The scan
    posts a violating i in board[slot], and stops (None) before any row past
    the smallest i on the board, or once its parent process is no longer
    parent (when given)."""
    half = n // 2
    for i in range(first, n, step):
        if i > min(board) or parent is not None and os.getppid() != parent:
            return None
        ri = rows[i]
        for j in range(i + 1, n):
            if (ri ^ rows[j]).bit_count() != half:
                board[slot] = i
                return (i, j)
    return None


def _forked_scan(rows, n: int, w: int) -> tuple[int, int] | None:
    """_scan of rows i = k (mod w) in scanner k: this process is scanner 0,
    and w - 1 forked children, which inherit the rows and the board, say
    nothing but their exit status.  The smallest row on the board is the
    serial scan's first bad row, so this process names the pair with one
    more pass over that row.  A child leaves through os._exit, so it never
    unwinds into a caller's finally, runs no atexit handler and flushes no
    inherited stdio.  Every child is reaped before this returns or raises,
    after a kill if this process raised.  Raises OSError when a fork fails,
    and ChildProcessError when a child exits non-zero."""
    import mmap
    import signal

    parent = os.getpid()
    children = []
    with mmap.mmap(-1, 8 * w) as shared, memoryview(shared).cast("q") as board:
        for slot in range(w):
            board[slot] = n
        try:
            for slot in range(1, w):
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        _scan(rows, n, slot, w, board, slot, parent)
                        code = 0
                    finally:
                        os._exit(code)
                children.append(pid)
            _scan(rows, n, 0, w, board, 0)
        except BaseException:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            failed = [os.waitpid(pid, 0)[1] != 0 for pid in children]
        first = min(board)
    if any(failed):
        raise ChildProcessError("a row scanner failed")
    return None if first == n else _scan(rows, n, first, n, [n], 0)


def bound_params(n: int) -> tuple[int, int, int, int, int]:
    """(k, t, s, bound, bound_other_branch) of the excess upper bound."""
    if n < 4:
        raise HadamardError("excess bound is stated for n >= 4")
    k = isqrt(n)
    k -= k % 2
    t = k if abs(n - k * k) < abs(n - (k + 2) ** 2) else k - 2

    def bnd(tt: int) -> int:
        s = n * ((tt + 4) ** 2 - n) // (8 * tt + 16)
        return n * (tt + 4) - 4 * s

    s = n * ((t + 4) ** 2 - n) // (8 * t + 16)
    t_alt = k - 2 if t == k else k
    return k, t, s, bnd(t), bnd(t_alt)


class ExcessReport(
    namedtuple("ExcessReport", "n excess k t s bound row_sums classification")
):
    """Excess against the bound: row_sums are (value, multiplicity) pairs,
    ascending."""

    __slots__ = ()


def _excess_report(h: SignMatrix) -> ExcessReport:
    """Excess, bound parameters and row-sum classification of a matrix known
    Hadamard; exact integers."""
    n = h.n
    k, t, s, bound, _ = bound_params(n)
    hist: dict[int, int] = {}
    for v in h.row_sums():
        hist[v] = hist.get(v, 0) + 1
    values = sorted(hist)
    excess = sum(v * c for v, c in hist.items())
    if sum(v * v * c for v, c in hist.items()) != n * n:
        raise AssertionError("row-sum square identity violated")  # impossible for Hadamard
    if len(values) == 1 and values[0] > 0:
        classification = f"regular(r={values[0]})"
    elif len(values) == 2 and values[0] >= 0:
        k2, k1 = values
        m1 = (n * n - n * k2 * k2) // (k1 * k1 - k2 * k2)
        m2 = n - m1
        if hist[k1] != m1 or hist[k2] != m2:
            raise AssertionError("biregular frequencies violate the counting identity")
        classification = f"biregular(k1={k1},k2={k2},m1={m1},m2={m2})"
    else:
        classification = "irregular"
    return ExcessReport(
        n=n,
        excess=excess,
        k=k,
        t=t,
        s=s,
        bound=bound,
        row_sums=tuple((v, hist[v]) for v in values),
        classification=classification,
    )


def report_json(rep: ExcessReport) -> dict:
    """The fields of rep, its row-sum pairs as a JSON object."""
    return {**rep._asdict(), "row_sums": {str(v): c for v, c in rep.row_sums}}
