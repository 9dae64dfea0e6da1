import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Sized
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PARSE_CASES,
    SCHEMES_DIR,
    counted_scans,
    excess_and_bound,
    paley_sylvester,
    reference_params,
    shipped_partition,
    sylvester,
)
from qrhadamard import association_schemes as schemes
from qrhadamard import cli, finite_field
from qrhadamard import hadamard as hd
from qrhadamard import intersection_sets as isets
from qrhadamard import matrix as mx
from qrhadamard.cli import main


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def read(path):
    return Path(path).read_text()


def test_construct_q3_m1(tmp_path, capsys):
    assert main(["construct", "--family", "q3", "--m", "1", "--out", str(tmp_path)]) == 0
    report = json.loads(read(tmp_path / "q3_q11_report.json"))
    assert report["excess"] == 36 == report["bound"]
    assert report["row_sums"] == {"0": 3, "4": 9}
    base = read(tmp_path / "q3_q11_base.mat")
    transformed = read(tmp_path / "q3_q11_transformed.mat")
    assert base.splitlines()[0] == transformed.splitlines()[0] == "12"
    assert base != transformed


def test_construct_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["construct", "--family", "q1", "--m", "2", "--out", str(out1)]) == 0
    assert main(["construct", "--family", "q1", "--m", "2", "--out", str(out2)]) == 0
    for name in ["q1_q13_base.mat", "q1_q13_transformed.mat", "q1_q13_report.json"]:
        assert read(out1 / name) == read(out2 / name)


@pytest.mark.parametrize(
    "umask,mode", [(0o022, 0o644), (0o027, 0o640), (0o002, 0o664)], ids=["022", "027", "002"]
)
def test_construct_outputs_get_the_mode_of_a_plain_open(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert main(["construct", "--family", "q3", "--m", "1", "--out", str(tmp_path)]) == 0
        (tmp_path / "plain").write_text("")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == mode
    names = ["q3_q11_base.mat", "q3_q11_transformed.mat", "q3_q11_report.json"]
    assert {name: stat.S_IMODE((tmp_path / name).stat().st_mode) for name in names} == dict.fromkeys(names, mode)


def test_construct_then_verify_roundtrip(tmp_path, capsys):
    assert main(["construct", "--family", "q1", "--m", "3", "--out", str(tmp_path)]) == 0
    report = json.loads(read(tmp_path / "q1_q25_report.json"))
    assert report["n"] == 52 and report["excess"] == 364
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "q1_q25_transformed.mat")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hadamard"] and payload["excess"] == 364


def test_construct_regular_with_partition(tmp_path):
    assert main(
        [
            "construct",
            "--family",
            "regular",
            "--m",
            "3",
            "--partition",
            str(SCHEMES_DIR / "m3.scheme"),
            "--out",
            str(tmp_path),
        ]
    ) == 0
    report = json.loads(read(tmp_path / "regular_q17_report.json"))
    assert report["classification"] == "regular(r=6)"
    assert report["excess"] == 216


def test_construct_input_errors(tmp_path):
    assert main(["construct", "--family", "q3", "--q", "12", "--out", str(tmp_path)]) == 2
    assert main(["construct", "--family", "q3", "--q", "13", "--out", str(tmp_path)]) == 2
    assert main(["construct", "--family", "q3", "--out", str(tmp_path)]) == 2
    assert main(["construct", "--family", "q3", "--m", "1", "--q", "11", "--out", str(tmp_path)]) == 2
    assert main(["construct", "--family", "regular", "--m", "3", "--out", str(tmp_path)]) == 2
    assert main(["construct", "--family", "q3", "--m", "1", "--ell", "12", "--out", str(tmp_path)]) == 2


def test_regular_family_needs_odd_m(tmp_path, capsys):
    m3 = str(SCHEMES_DIR / "m3.scheme")
    for argv, family in (
        (["construct", "--family", "regular", "--m", "2", "--partition", m3, "--out", str(tmp_path)], "regular"),
        (["scheme", "--search", "--m", "4", "--e", "8"], "regular"),
        (["search-params", "--family", "regular", "--q", "31", "--partition", m3], "regular"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: the {family} family needs odd m\n"


def test_construct_rejects_small_m_and_oversized_fields(tmp_path, capsys):
    for argv in (["--m", "0"], ["--m", "-1"], ["--q", "3"], ["--m", "40"]):
        capsys.readouterr()
        assert main(["construct", "--family", "q3", *argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["search-params", "--family", "q3", "--m", "40"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_oversized_q_refused_before_factoring(tmp_path, monkeypatch, capsys):
    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(finite_field, "_factor", no_factoring)
    capsys.readouterr()
    assert main(["construct", "--family", "q3", "--m", "8399589116837456607", "--out", str(tmp_path)]) == 2
    assert "exceeds the cap of 16777216 field elements" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_runs_never_import_sympy(tmp_path):
    argvs = [
        ["construct", "--family", "q3", "--q", "11", "--out", str(tmp_path)],
        ["scheme", "--verify", str(SCHEMES_DIR / "m3.scheme")],
        ["search-params", "--family", "q1", "--q", "13"],
    ]
    script = (
        "import json, sys\n"
        "from qrhadamard.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, 'sympy' in sys.modules]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], False]


LADDER_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_constructions.py"


def test_run_constructions_script():
    proc = subprocess.run([sys.executable, str(LADDER_SCRIPT)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # every q3 and q1 instance, and regular m = 3, 5 (the shipped partitions)
    assert len(lines) == 33 + 2
    assert all(" max-excess " in line for line in lines[:33])
    assert lines[33] == "regular m without a shipped partition: 7, 11, 13, 15, 17, 21, 25, 29, 39, 41, 43, 45"
    unreached = "6, 8, 11, 13, 15, 18, 21, 23, 26, 27, 31"
    assert lines[34] == f"m whose order 4(m^2+m+1) no biregular family reaches: {unreached}"
    pinned = [ln.split()[1] for ln in (LADDER_SCRIPT.parent / "ladder.sha256").read_text().splitlines()]
    assert len(pinned) == len(set(pinned)) == 99


def test_run_constructions_script_fails_on_a_pin_or_a_shortfall(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_constructions", LADDER_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    short = [("q3", 1, 11), ("q1", 1, 5), ("regular", 3, 17)]
    monkeypatch.setattr(hd, "instances", lambda: iter(short))
    ends = ("_base.mat", "_transformed.mat", "_report.json")
    names = {f"{family}_q{q}{end}" for family, _, q in short for end in ends}
    committed = [ln for ln in script.PINS.read_text().splitlines() if ln.split()[1] in names]
    assert len(committed) == 9
    pins = tmp_path / "ladder.sha256"
    monkeypatch.setattr(script, "PINS", pins)

    def run(lines):
        pins.write_text("".join(ln + "\n" for ln in lines))
        capsys.readouterr()
        code = script.main()
        out = capsys.readouterr().out
        return code, [ln for ln in out.splitlines() if ln.startswith("FAIL ")], out

    code, fails, out = run(committed)
    assert (code, fails) == (0, [])
    assert out.count(" max-excess ") == 3

    # an edited digest, and a missing pin: exit 1, naming the file and its right pin line
    edited = committed[4]
    assert edited.endswith("  q1_q5_transformed.mat")
    code, fails, _ = run(committed[:4] + ["0" * 64 + edited[64:]] + committed[5:8])
    assert code == 1 and len(fails) == 2
    assert fails[0].startswith("FAIL q1_q5_transformed.mat: sha256 differs from its pin") and fails[0].endswith(edited)
    assert fails[1].startswith("FAIL regular_q17_report.json: sha256 has no pin") and fails[1].endswith(committed[8])

    # a transform that leaves q3 unsigned misses the bound: exit 1 even with its digests pinned
    real = hd.transform

    def unsigned_q3(ext, family, ell=None, partition=None):
        if family == "q3":
            base = hd.base_matrix(family, ext.subfield)
            return base, excess_and_bound(base), base
        return real(ext, family, ell, partition)

    monkeypatch.setattr(hd, "transform", unsigned_q3)
    diag = '{"bound": 36, "classification": "biregular(k1=10,k2=2,m1=1,m2=11)", "excess": 32}'
    shortfall = f"FAIL q3_q11_report.json: {diag}"
    code, fails, _ = run(committed)
    assert code == 1 and fails[0] == shortfall
    assert [f.split(":")[0] for f in fails[1:]] == ["FAIL q3_q11_transformed.mat", "FAIL q3_q11_report.json"]
    repinned = [f.split("; pin line: ")[1] for f in fails[1:]]
    code, fails, out = run(committed[:1] + repinned + committed[3:])
    assert (code, fails) == (1, [shortfall])
    assert "BELOW PROMISE" in out


def test_construct_exits_1_on_a_shortfall_or_a_broken_promise(tmp_path, monkeypatch, capsys):
    ext, base = finite_field.quadratic_tower(11)
    _, rep, _ = hd.transform(ext, "q3")
    assert cli.promise_miss("q3", rep) is None
    # excess at the bound, but not the row-sum shape the family promises
    assert cli.promise_miss("q3", rep._replace(classification="regular(r=3)")) == {
        "excess": 36, "bound": 36, "classification": "regular(r=3)",
    }
    # the base matrix left unsigned: biregular, but below the bound
    h = hd.base_matrix("q3", base)
    monkeypatch.setattr(hd, "transform", lambda ext, family, ell, partition: (h, excess_and_bound(h), h))
    assert main(["construct", "--family", "q3", "--m", "1", "--out", str(tmp_path)]) == 1
    diag = {"bound": 36, "classification": "biregular(k1=10,k2=2,m1=1,m2=11)", "excess": 32}
    assert json.loads(capsys.readouterr().err) == {"verification_failure": diag}
    assert read(tmp_path / "q3_q11_transformed.mat") == h.to_text()


def test_construct_builds_base_matrix_once(tmp_path, monkeypatch):
    calls = []
    real = hd.construct_q3
    monkeypatch.setattr(hd, "construct_q3", lambda ctx: calls.append(ctx.q) or real(ctx))
    assert main(["construct", "--family", "q3", "--m", "1", "--out", str(tmp_path)]) == 0
    assert calls == [11]


def test_verify_checks_orthogonality_once(tmp_path, monkeypatch, capsys):
    assert main(["construct", "--family", "q3", "--m", "1", "--out", str(tmp_path)]) == 0
    calls = []
    real = mx.hadamard_violation
    for module in (mx, hd):  # verify calls it from matrix, transform from hadamard
        monkeypatch.setattr(module, "hadamard_violation", lambda h: calls.append(h.n) or real(h))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "q3_q11_transformed.mat")]) == 0
    assert calls == [12]
    assert json.loads(capsys.readouterr().out)["excess"] == 36


def test_construct_certifies_orthogonality_without_the_full_check(tmp_path, monkeypatch, capsys):
    scans = counted_scans(monkeypatch)
    m3 = str(SCHEMES_DIR / "m3.scheme")
    for argv in (["q3", "--q", "83"], ["q1", "--q", "61"], ["regular", "--m", "3", "--partition", m3]):
        assert main(["construct", "--family", *argv, "--out", str(tmp_path)]) == 0
    assert scans == []
    path = tmp_path / "q1_q61_transformed.mat"
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    assert scans == []
    certified = capsys.readouterr().out
    # the same matrix with its rows reversed is not invariant: verify scans it
    header, *rows = read(path).splitlines()
    (tmp_path / "reversed.mat").write_text("\n".join([header, *rows[::-1]]) + "\n")
    assert main(["verify", str(tmp_path / "reversed.mat")]) == 0
    assert scans == [124]
    assert capsys.readouterr().out == certified


def test_construct_with_explicit_admissible_ell(tmp_path, capsys):
    capsys.readouterr()
    assert main(["search-params", "--family", "q3", "--q", "11"]) == 0
    second = json.loads(capsys.readouterr().out)["rows"][1]
    code = main(
        [
            "construct",
            "--family",
            "q3",
            "--m",
            "1",
            "--ell",
            str(second["ell"]),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads(read(tmp_path / "q3_q11_report.json"))
    assert report["excess"] == 36


def test_verify_corrupted_matrix(tmp_path, capsys):
    assert main(["construct", "--family", "q3", "--m", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "q3_q11_transformed.mat"
    lines = read(path).splitlines()
    row = list(lines[3])
    row[5] = "+" if row[5] == "-" else "-"
    lines[3] = "".join(row)
    bad = tmp_path / "corrupt.mat"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["hadamard"] is False
    assert len(payload["violating_rows"]) == 2


def test_verify_trivial_order_one(tmp_path, capsys):
    f = tmp_path / "one.mat"
    f.write_text("1\n+\n")
    capsys.readouterr()
    assert main(["verify", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["excess"] == 1 and payload["hadamard"]


def test_verify_parse_error(tmp_path):
    f = tmp_path / "bad.mat"
    f.write_text("2\n+*\n--\n")
    assert main(["verify", str(f)]) == 2
    assert main(["verify", str(tmp_path / "missing.mat")]) == 2


def test_verify_exit_codes_on_the_parse_cases(tmp_path, capsys):
    for i, (text, accepted) in enumerate(PARSE_CASES):
        f = tmp_path / f"case{i}.mat"
        f.write_bytes(text.encode())
        capsys.readouterr()
        assert main(["verify", str(f)]) == (0 if accepted else 2), text
        out, err = capsys.readouterr()
        if not accepted:
            assert out == "" and err.startswith("error:"), text


def test_search_params(capsys):
    assert main(["search-params", "--family", "q3", "--q", "11"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert (printed["max_ell"], printed["period"]) == (119, 24)
    rows = printed["rows"]
    assert rows and all(r["ell"] % 12 != 0 and r["ell"] < 24 for r in rows)
    assert [r["ell"] for r in rows] == sorted(r["ell"] for r in rows)
    assert main(["search-params", "--family", "q1", "--q", "5"]) == 0
    capsys.readouterr()
    assert main(["search-params", "--family", "q3", "--q", "12"]) == 2
    assert main(["search-params", "--family", "q1", "--q", "11"]) == 2


@pytest.mark.parametrize("limit", [0, 1, 3, 10**23])
@pytest.mark.parametrize("family,q", [("q3", 11), ("q1", 13), ("regular", 17)])
def test_search_params_streams_the_json_list(capsys, family, q, limit):
    # stdout is one period of rows; tiled by the period, its first `limit` rows
    # (0: all of them) are the first `limit` rows of the walk of every ell
    ext, _ = finite_field.quadratic_tower(q)
    partition = None
    argv = ["search-params", "--family", family, "--q", str(q)]
    if family == "regular":
        partition = shipped_partition(3)
        argv += ["--partition", str(SCHEMES_DIR / "m3.scheme")]
    listing = []
    for c in reference_params(ext, family, partition):
        fields = {"ell": c.ell, "h": c.h, "epsilon": c.epsilon, "delta": c.delta, "tau": c.tau}
        listing.append({k: v for k, v in fields.items() if v is not None})
    period = 2 * (q + 1)
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    want = {"max_ell": q * q - 2, "period": period, "rows": [r for r in listing if r["ell"] < period]}
    assert out == json.dumps(want, sort_keys=True) + "\n"
    printed = json.loads(out)
    tiled_rows = [
        dict(r, ell=r["ell"] + shift) for shift in range(0, printed["max_ell"] + 1, printed["period"]) for r in printed["rows"]
    ]
    cut = limit or len(listing)
    assert tiled_rows[:cut] == listing[:cut]
    assert len(tiled_rows) == len(listing)


def test_search_params_with_no_rows_prints_nothing(capsys, monkeypatch):
    monkeypatch.setattr(isets, "admissible_params", lambda *args, **kwargs: iter(()))
    capsys.readouterr()
    assert main(["search-params", "--family", "q3", "--q", "11"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: no admissible parameters found; this contradicts the nonemptiness counts\n"


def test_search_params_scheme(capsys):
    assert (
        main(
            [
                "search-params",
                "--family",
                "regular",
                "--q",
                "17",
                "--partition",
                str(SCHEMES_DIR / "m3.scheme"),
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and all(r["tau"] == -1 for r in rows)


def test_scheme_verify_good_and_perturbed(tmp_path, capsys):
    assert main(["scheme", "--verify", str(SCHEMES_DIR / "m3.scheme")]) == 0
    capsys.readouterr()
    part = schemes.parse_partition(read(SCHEMES_DIR / "m3.scheme"))
    h1, h2, h3, h4 = part.h_lists
    bad = schemes.SchemePartition(part.q, part.m, part.e, (h1, h4, h3, h2))
    bad_file = tmp_path / "swapped.scheme"
    bad_file.write_text(schemes.partition_text(bad))
    assert main(["scheme", "--verify", str(bad_file)]) == 1
    err = capsys.readouterr().err
    assert "first failing cell" in err


def test_scheme_verify_m5():
    assert main(["scheme", "--verify", str(SCHEMES_DIR / "m5.scheme")]) == 0


def test_scheme_parse_error(tmp_path):
    f = tmp_path / "malformed.scheme"
    f.write_text("17 3\n0 1\n")
    assert main(["scheme", "--verify", str(f)]) == 2


def test_scheme_search_cli(capsys):
    assert main(["scheme", "--search", "--m", "3", "--e", "12"]) == 0
    out = capsys.readouterr().out
    assert "17 3 12" in out
    assert main(["scheme", "--search", "--m", "3", "--e", "12", "--budget", "0"]) == 3


# the sha256 of stdout that benchmark/golden.json holds for the same invocation
@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--verify", str(SCHEMES_DIR / "m3.scheme")], "9c207d6cdb5e6eb7f4dbf1d2c5cff6ece0689a5467b65b878c19c821b85a9cdd"),
        (["--verify", str(SCHEMES_DIR / "m5.scheme")], "3ab2eaa324ad663d9482a497686161e18d39728062c7e4e48e7b229ef01de49d"),
        (["--search", "--m", "3", "--e", "12"], "1b3d75cde27e0e411104ea6efb4f84a4caf7af0b3f3859ebfa6e016008d2f106"),
        (["--search", "--m", "5", "--e", "20"], "60b304a312f4d5af1c4a73f4832d2d103138e5a2e3327153704b02455806ce23"),
    ],
    ids=["verify-m3", "verify-m5", "search-m3-e12", "search-m5-e20"],
)
def test_scheme_stdout_matches_the_benchmark_digest(argv, digest, capsys):
    capsys.readouterr()
    assert main(["scheme", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# the sha256 of the search-params stdout, one period of rows: the rows carry
# no family name, so the names q3, q1 and regular (once e8, e4 and scheme)
# leave them as they are
@pytest.mark.parametrize(
    "argv,digest",
    [
        (["q3", "--q", "83"], "c9ff55f858178ee3a58e8a6f8cd4f26c3568f6f399cce481d0eb737376416e6b"),
        (["q1", "--q", "61"], "05c716e61f13c458cc1252dea873d21e6a78411bed06fb25bc194123d698f92f"),
        (
            ["regular", "--m", "3", "--partition", str(SCHEMES_DIR / "m3.scheme")],
            "348525e02da7fade7a1a89d60a5da75844da391af91c771f9e14f152e2d96f08",
        ),
        (
            ["regular", "--m", "5", "--partition", str(SCHEMES_DIR / "m5.scheme")],
            "e49669b3191a2747c2b11a9fe503b7c4dc7d914c9f7b4dcfb6792b38b1baf0a9",
        ),
    ],
    ids=["q3-83", "q1-61", "regular-m3", "regular-m5"],
)
def test_search_params_stdout_is_unchanged_by_the_family_names(argv, digest, capsys):
    capsys.readouterr()
    assert main(["search-params", "--family", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_scheme_search_input_contract(capsys):
    assert main(["scheme", "--search", "--m", "3", "--e", "0"]) == 2
    assert main(["scheme", "--search", "--m", "3", "--e", "12", "--budget", "-5"]) == 2
    assert "--budget" in capsys.readouterr().err
    # e = 4m^2 = 36 needs 811073536 candidates: refused before any work
    assert main(["scheme", "--search", "--m", "3"]) == 3
    assert "811073536" in capsys.readouterr().err


def test_scheme_search_m7_e28_finds_none(capsys):
    # the default budget covers the search's 10543104 class vectors
    assert main(["scheme", "--search", "--m", "7", "--e", "28"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "found 0 partition(s)" in captured.err


def test_search_params_partition_for_another_q(capsys):
    argv = ["search-params", "--family", "regular", "--q", "49", "--partition", str(SCHEMES_DIR / "m3.scheme")]
    assert main(argv) == 2
    assert "does not match the requested q/m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,size",
    [
        ("q3", ["--q", "11", "--m", "5"]),
        ("q1", ["--q", "13", "--m", "2"]),
        ("regular", ["--q", "17", "--m", "3", "--partition", str(SCHEMES_DIR / "m3.scheme")]),
    ],
)
def test_search_params_takes_exactly_one_of_q_and_m(capsys, family, size):
    argv = ["search-params", "--family", family, *size]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: give exactly one of --q and --m\n")


def test_search_params_negative_limit(capsys):
    # search-params takes no --limit: argparse refuses it, whatever its value
    with pytest.raises(SystemExit) as exc:
        main(["search-params", "--family", "q3", "--q", "11", "--limit", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: unrecognized arguments: --limit -1\n")


def test_module_entry_point(tmp_path):
    f = tmp_path / "tiny.mat"
    f.write_text("1\n+\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qrhadamard", "verify", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hadamard"] is True


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{out}/q3_q11_transformed.mat"],
        ["construct", "--family", "q3", "--q", "11", "--out", "{out}"],
        ["search-params", "--family", "q3", "--q", "11"],
        ["scheme", "--search", "--m", "3", "--e", "12"],
        ["scheme", "--verify", str(SCHEMES_DIR / "m3.scheme")],
        ["--help"],
        ["verify", "--help"],
    ],
    ids=["verify", "construct", "search-params", "scheme-search", "scheme-verify", "help", "verify-help"],
)
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, argv, unbuffered):
    assert main(["construct", "--family", "q3", "--q", "11", "--out", str(tmp_path)]) == 0
    env = {**os.environ, "PYTHONPATH": _SRC}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # each print raises at once, not at the final flush
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qrhadamard", *(arg.format(out=tmp_path) for arg in argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if unbuffered and "--help" in argv:  # argparse itself drops the help it cannot write
        assert (proc.returncode, proc.stderr) == (0, "")
        return
    assert proc.returncode == 2, proc.stderr
    assert "error: cannot write to stdout: [Errno 32] Broken pipe\n" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{}"],
        ["scheme", "--verify", "{}"],
        ["construct", "--family", "regular", "--m", "3", "--partition", "{}"],
        ["search-params", "--family", "regular", "--q", "17", "--partition", "{}"],
    ],
    ids=["verify", "scheme-verify", "construct-partition", "search-params-partition"],
)
def test_non_utf8_input_file_exits_2(tmp_path, capsys, argv):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"17 3 12\n\xff\n")
    capsys.readouterr()
    assert main([arg.format(f) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{f} is not UTF-8 text (byte 8" in err


def test_unusable_out_exits_2(tmp_path, capsys, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "x"):  # FileExistsError, then NotADirectoryError
        capsys.readouterr()
        assert main(["construct", "--family", "q3", "--q", "11", "--out", str(out)]) == 2
        assert f"--out {out}" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    # a disk that fills mid-file: the outputs of the last run stay, and no temporary file
    out = tmp_path / "full"
    argv = ["construct", "--family", "q3", "--q", "11", "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    lines = mx.SignMatrix.text_lines

    def full_disk(self):
        for i, line in enumerate(lines(self)):
            if i == 5:
                raise OSError(28, "No space left on device")
            yield line

    monkeypatch.setattr(mx.SignMatrix, "text_lines", full_disk)
    capsys.readouterr()
    assert main(argv) == 2
    err = f"error: cannot write the outputs under --out {out}: [Errno 28] No space left on device\n"
    assert capsys.readouterr() == ("", err)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_construct_refuses_an_ell_before_it_builds_the_base_matrix(tmp_path, monkeypatch, capsys):
    def base_matrix(*args):
        raise AssertionError("base_matrix ran")

    monkeypatch.setattr(hd, "base_matrix", base_matrix)
    m3 = str(SCHEMES_DIR / "m3.scheme")
    for size, ell in (
        (["--family", "q1", "--q", "3613"], 13050154),  # a multiple of q + 1
        (["--family", "q1", "--q", "3613"], 3),  # in range, but not admissible
        (["--family", "q3", "--q", "11"], 120),
        (["--family", "regular", "--q", "17", "--partition", m3], 1),
    ):
        capsys.readouterr()
        assert main(["construct", *size, "--ell", str(ell), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: --ell {ell} is not admissible for this family\n")
    assert not list(tmp_path.iterdir())


def test_construct_refuses_an_ell_out_of_range_without_a_scan(tmp_path, monkeypatch, capsys):
    # every admissible ell lies in 1 .. q^2-2; the scan of a large field takes seconds
    def scan(*args):
        raise AssertionError("admissible_params ran")

    monkeypatch.setattr(isets, "admissible_params", scan)
    m3 = str(SCHEMES_DIR / "m3.scheme")
    for size, ell in (
        (["--family", "q3", "--q", "11"], -3),
        (["--family", "q3", "--q", "11"], 0),
        (["--family", "q3", "--q", "11"], 120),
        (["--family", "q3", "--q", "3251"], 99999999999),
        (["--family", "q1", "--q", "3613"], 99999999999),
        (["--family", "regular", "--q", "17", "--partition", m3], 288),
        # inside the range, a multiple of q + 1: refused in one check, not after a walk of 13e6 ells
        (["--family", "q1", "--q", "3613"], 13050154),
    ):
        capsys.readouterr()
        assert main(["construct", *size, "--ell", str(ell), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: --ell {ell} is not admissible for this family\n")
    assert not list(tmp_path.iterdir())

    # the last admissible ell of the scan of every ell, in the last period of 2(q+1)
    for family, q, partition, size in (
        ("q3", 11, None, []),
        ("q1", 5, None, []),
        ("regular", 17, shipped_partition(3), ["--partition", m3]),
    ):
        ext, base = finite_field.quadratic_tower(q)
        params = list(reference_params(ext, family, partition))[-1]
        assert params.ell > q * q - 1 - 2 * (q + 1)
        h = hd.base_matrix(family, base)
        signed, rep, _ = hd.transform(ext, family, params.ell, partition)
        out = tmp_path / family
        argv = ["construct", "--family", family, "--q", str(q), *size, "--ell", str(params.ell), "--out", str(out)]
        assert main(argv) == 0
        prefix = f"{family}_q{q}"
        assert read(out / f"{prefix}_base.mat") == h.to_text()
        assert read(out / f"{prefix}_transformed.mat") == signed.to_text()
        assert read(out / f"{prefix}_report.json") == json.dumps(mx.report_json(rep), sort_keys=True) + "\n"


def test_q_below_two_is_not_of_the_family_form(capsys):
    for command, family, q, form in (
        ("construct", "q3", -5, "q3"),
        ("construct", "q1", 0, "q1"),
        ("search-params", "q3", 1, "q3"),
        ("search-params", "regular", 1, "regular"),
    ):
        capsys.readouterr()
        assert main([command, "--family", family, f"--q={q}"]) == 2
        assert capsys.readouterr().err == f"error: q = {q} is not of the {form} form\n"


def test_no_tower_holds_a_table_of_its_own_size(tmp_path):
    finite_field.clear_caches()
    out = ["--out", str(tmp_path)]
    partitions = [str(SCHEMES_DIR / f"m{m}.scheme") for m in (3, 5)]
    for argv in (
        ["construct", "--family", "q3", "--q", "83", *out],
        ["construct", "--family", "q1", "--q", "61", *out],
        *(["construct", "--family", "regular", "--m", m, "--partition", f, *out] for m, f in zip("35", partitions)),
        *(["scheme", "--verify", f] for f in partitions),
    ):
        assert main(argv) == 0
    # every live context, build_field's cache among them
    towers = [ctx for ctx in gc.get_objects() if isinstance(ctx, finite_field.FieldContext) and ctx.subfield]
    assert {83**2, 61**2, 17**2, 49**2, 7**2} <= {ctx.q for ctx in towers}
    for ctx in towers:
        # GF(q'^2) adds and takes traces over GF(q'): no q'^2-entry table
        assert not {"log_table", "trace_table", "zech_table"} & set(dir(ctx))
        assert max(len(v) for v in vars(ctx).values() if isinstance(v, Sized)) <= ctx.subfield.q + 1


def test_construct_streams_the_matrix_files(tmp_path, monkeypatch):
    expected = {}
    for family, q in (("q3", 27), ("q1", 13)):
        signed, _, h = hd.transform(finite_field.quadratic_tower(q)[0], family)
        expected[family, q] = (h.to_text(), signed.to_text())

    def whole_text(self):
        raise AssertionError("construct built a whole matrix text")

    monkeypatch.setattr(hd.SignMatrix, "to_text", whole_text)
    for (family, q), (base_text, signed_text) in expected.items():
        assert main(["construct", "--family", family, "--q", str(q), "--out", str(tmp_path)]) == 0
        assert read(tmp_path / f"{family}_q{q}_base.mat") == base_text
        assert read(tmp_path / f"{family}_q{q}_transformed.mat") == signed_text


_EXIT_CODES = {0, 1, 2, 3}
_M3_LINES = [ln.split() for ln in (SCHEMES_DIR / "m3.scheme").read_text().splitlines()]


def _fuzz_file(tmp_path_factory, data: bytes) -> str:
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    return str(path)


# files: arbitrary bytes, small sign matrices, and m3.scheme with one token replaced
# or its four index lines permuted
_matrix_texts = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.text("+-", min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: f"{n}\n" + "".join(r + "\n" for r in rows)
    )
)


def _edit_m3(line: int, pos: int, token: str) -> str:
    lines = [list(ln) for ln in _M3_LINES]
    lines[line][pos % len(lines[line])] = token
    return "".join(" ".join(ln) + "\n" for ln in lines)


_partition_texts = st.one_of(
    st.builds(
        _edit_m3,
        st.integers(0, len(_M3_LINES) - 1),
        st.integers(0, 3),
        st.one_of(st.integers(-40, 300).map(str), st.sampled_from(["", "x", "1e3"])),
    ),
    st.permutations(_M3_LINES[1:]).map(lambda ls: "".join(" ".join(ln) + "\n" for ln in _M3_LINES[:1] + ls)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.one_of(st.binary(max_size=64), _matrix_texts.map(str.encode)))
def test_fuzz_verify_file(tmp_path_factory, data):
    assert main(["verify", _fuzz_file(tmp_path_factory, data)]) in _EXIT_CODES


def _read_all_input(path: str) -> str:
    """verify's reader before it streamed: the whole file decoded at once."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise cli.InputFileError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise cli.InputFileError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _read_all_from_text(cls, text: str):
    """SignMatrix.from_text before it streamed: every line held, first error raised."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise schemes.ParseError("empty matrix file")
    header = lines[0].strip()
    try:
        if not header.isascii() or "_" in header:  # int() alone reads "0_4" and "\u0664"
            raise ValueError(header)
        n = int(header)
    except ValueError as exc:
        raise schemes.ParseError("first line must be the order n") from exc
    if n < 1 or len(lines) != n + 1:
        raise schemes.ParseError(f"expected {n} rows after the header")
    rows = []
    for ln in lines[1:]:
        ln = ln.strip()
        if len(ln) != n or not ln.isascii() or ln.encode().translate(None, b"+-"):
            raise schemes.ParseError("rows must be n characters from {+,-}")
        rows.append(int(ln.translate(str.maketrans("+-", "01"))[::-1], 2))
    return cls(n, rows)


def _verify_outcome(path: str, read_all: bool = False) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of verify, streamed or read the old way."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if read_all:
            mp.setattr(cli, "_input_lines", _read_all_input)
            mp.setattr(hd.SignMatrix, "from_text", classmethod(_read_all_from_text))
        code = main(["verify", path])
    return code, out.getvalue(), err.getvalue()


def _assert_streamed_as_read_all(path: str) -> None:
    assert _verify_outcome(path) == _verify_outcome(path, read_all=True)


_SYLVESTER_16 = sylvester(16).to_text().encode()
_STREAM_CASES = [
    _SYLVESTER_16,
    b"".join([b"\n" * 9000, _SYLVESTER_16, b"\xff\n"]),  # invalid byte past 8 KiB
    _SYLVESTER_16 + b"+" * 9000 + b"\xe2\x82\xac\n",  # a long row with a euro sign
    b"x\n++\n+-\n\xff\n",  # invalid byte after a bad header
    b"2\n+*\n--\n\xff\n",  # ... after a bad row
    b"2\n+-\n-+\n++\n\xc3",  # ... after a surplus row, truncated at the end
    b"2\n\xe2\x82\n+-\n",  # a sequence cut by a newline
    b"2\n+*\n--\n++\n",  # wrong row count and a bad row
    b"2\n+*\n",
    b"1000000000\n++\n+-\n",
    b"0\n",
    b"-2\n++\n+-\n",
    b"\n \n\t\n",
    b"",
    b"2\r++\r+-\r",
    b"2\x0b++\x0b+-\x0b",
    b"2\x0c++\x0c+-\x0c",
    "2\u2028++\u2028+-\u2028".encode(),
    "2\u2029++\x85+-\x1c".encode(),
    b"2\r\n++\r\r\n+-",
    b"\xef\xbb\xbf2\n++\n+-\n",  # a byte-order mark is not stripped
    b"0_2\n++\n+-\n",  # int() alone reads these headers as 2
    "\u0662\n++\n+-\n".encode(),
    "\uff12\n++\n+-\n".encode(),
    b" +2 \n++\n+-\n",  # a sign and surrounding whitespace are kept
]


def test_streamed_verify_matches_the_read_all_path(tmp_path):
    texts = [text.encode() for text, _ in PARSE_CASES] + _STREAM_CASES
    for i, data in enumerate(texts):
        f = tmp_path / f"case{i}.mat"
        f.write_bytes(data)
        _assert_streamed_as_read_all(str(f))
    _assert_streamed_as_read_all(str(tmp_path / "missing.mat"))
    _assert_streamed_as_read_all(str(tmp_path))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.one_of(st.binary(max_size=64), _matrix_texts.map(str.encode)))
def test_fuzz_streamed_verify_matches_the_read_all_path(tmp_path_factory, data):
    _assert_streamed_as_read_all(_fuzz_file(tmp_path_factory, data))


def test_verify_peak_memory_is_below_the_file_size(tmp_path, capsys):
    one = tmp_path / "one.mat"
    one.write_text("1\n+\n")
    assert main(["verify", str(one)]) == 0  # the stdlib modules argparse imports on first use
    # Sylvester's takes the row-group certificate; the other one the split scan
    for matrix in (sylvester, paley_sylvester):
        f = tmp_path / f"{matrix.__name__}.mat"
        f.write_text(matrix(512).to_text())
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["verify", str(f)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["hadamard"] is True
        assert peak < f.stat().st_size / 2, (matrix.__name__, peak, f.stat().st_size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.one_of(st.binary(max_size=64), _partition_texts.map(str.encode)))
def test_fuzz_scheme_verify_file(tmp_path_factory, data):
    assert main(["scheme", "--verify", _fuzz_file(tmp_path_factory, data)]) in _EXIT_CODES


_small = st.integers(-300, 300)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["q3", "q1"]),
    by=st.sampled_from(["--q", "--m"]),
    value=_small,
    ell=st.none() | _small,
)
def test_fuzz_construct_small_parameters(tmp_path_factory, family, by, value, ell):
    if by == "--m":
        value = value % 17 - 8  # |m| <= 8 keeps q <= 291 (q3) and q <= 145 (q1)
    argv = ["construct", "--family", family, f"{by}={value}", "--out", str(tmp_path_factory.mktemp("out"))]
    if ell is not None:
        argv.append(f"--ell={ell}")
    assert main(argv) in _EXIT_CODES


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["q3", "q1", "regular"]),
    by=st.sampled_from(["--q", "--m"]),
    value=_small,
    partition=st.booleans(),
)
def test_fuzz_search_params_small_parameters(family, by, value, partition):
    if by == "--m":
        value = value % 17 - 8
    argv = ["search-params", "--family", family, f"{by}={value}"]
    if partition:
        argv += ["--partition", str(SCHEMES_DIR / "m3.scheme")]
    assert main(argv) in _EXIT_CODES


_SCHEME_FILES = st.sampled_from(["m3.scheme", "m5.scheme"]).map(lambda name: (SCHEMES_DIR / name).read_text())
_scheme_m = st.sampled_from([3, 5]) | st.integers(-8, 8)


def _size_arg(m: int, by_q: bool) -> str:
    return f"--q={2 * m * m - 1}" if by_q else f"--m={m}"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=_scheme_m,
    by_q=st.booleans(),
    ell=st.none() | st.integers(-50, 300),
    partition=st.one_of(_SCHEME_FILES, _partition_texts),
)
def test_fuzz_construct_regular(tmp_path_factory, m, by_q, ell, partition):
    argv = [
        "construct", "--family", "regular", _size_arg(m, by_q),
        "--partition", _fuzz_file(tmp_path_factory, partition.encode()),
        "--out", str(tmp_path_factory.mktemp("out")),
    ]
    if ell is not None:
        argv.append(f"--ell={ell}")
    assert main(argv) in _EXIT_CODES


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=_scheme_m,
    by_q=st.booleans(),
    e=st.none() | st.sampled_from([4, 6, 10, 12, 20]) | st.integers(-4, 40),
    budget=st.integers(-2, 10_000),
)
def test_fuzz_scheme_search(m, by_q, e, budget):
    argv = ["scheme", "--search", _size_arg(m, by_q), f"--budget={budget}"]
    if e is not None:
        argv.append(f"--e={e}")
    assert main(argv) in _EXIT_CODES


# Input files of the message table, by name under the test's directory.
_TABLE_FILES = {
    "latin1": b"17 3 12\n\xff\n",
    "malformed": b"17 3\n0 1\n",
    "not_prime": b"15 3 12\n7 11\n0 2 3 10\n1 5\n4 6 8 9\n",
    "bad_e": b"17 3 8\n0\n1\n2\n3 4 5 6 7\n",
    "empty": b"",
    "header": b"x\n++\n",
    # headers that int() alone reads as 4, before a Hadamard matrix of order 4
    "underscore": b"0_4\n++++\n+-+-\n++--\n+--+\n",
    "arabic_digit": "\u0664\n++++\n+-+-\n++--\n+--+\n".encode(),
    # m3.scheme with headers and an index that int() alone reads as 17 3 12 and 11
    "underscore.scheme": b"1_7 3 1_2\n7 11\n0 2 3 10\n1 5\n4 6 8 9\n",
    "digit.scheme": "17 3 12\n7 \u0661\u0661\n0 2 3 10\n1 5\n4 6 8 9\n".encode(),
    "count": b"2\n++\n",
    "row": b"2\n+*\n--\n",
    "odd": b"3\n+++\n+++\n+++\n",
    "not_hadamard": b"4\n++++\n++++\n+--+\n+-+-\n",
    "one": b"1\n+\n",
    "afile": b"kept\n",
}
_REPORT_Q11 = (
    'bound: 36\nclassification: "biregular(k1=4,k2=0,m1=9,m2=3)"\nexcess: 36\nk: 2\nn: 12\n'
    'row_sums: {"0": 3, "4": 9}\ns: 3\nt: 0\n'
)
_SWAPPED_REPORT = object()  # stdout: the scheme report of the swapped partition
# the one message of a partition that is not a scheme matching table 1, whichever command reads it
_NOT_A_SCHEME = "error: partition fails scheme or eigenvalue-table verification\n"

# One row per message the CLI prints: argv, exit code, stdout, stderr.  {tmp}
# is the directory that holds _TABLE_FILES and the swapped m3 partition,
# {schemes} the shipped schemes; argparse's usage lines are pinned at a
# terminal width that fits each on one line.  Not listed: construct's
# verification_failure JSON and search-params' "no admissible parameters",
# which no argv reaches.
_MESSAGE_TABLE = [
    ("construct --family q3 --out {tmp}/o", 2, "", "error: give exactly one of --q and --m\n"),
    ("construct --family q3 --m 1 --q 11 --out {tmp}/o", 2, "", "error: give exactly one of --q and --m\n"),
    ("construct --family q3 --m 0 --out {tmp}/o", 2, "", "error: the q3 family needs m >= 1, got m = 0\n"),
    ("construct --family q3 --q 3 --out {tmp}/o", 2, "", "error: the q3 family needs m >= 1, got m = 0\n"),
    ("construct --family q3 --q -5 --out {tmp}/o", 2, "", "error: q = -5 is not of the q3 form\n"),
    ("construct --family q3 --q 13 --out {tmp}/o", 2, "", "error: q = 13 is not of the q3 form\n"),
    ("construct --family q3 --m 3 --out {tmp}/o", 2, "", "error: 51 is not a prime power\n"),
    (
        "construct --family q3 --m 40 --out {tmp}/o", 2, "",
        "error: GF(6563^2) exceeds the cap of 16777216 elements "
        "(a tower holds no table: the cap bounds GF(6563^1) by 4096, and so the matrix order)\n",
    ),
    (
        "construct --family q3 --m 1 --ell 12 --out {tmp}/o", 2, "",
        "error: --ell 12 is not admissible for this family\n",
    ),
    # ell fixes h: argparse refuses --h, with or without --ell and in every
    # family, and reads no option from a prefix
    (
        "construct --family q3 --m 1 --ell 9 --h 1 --out {tmp}/o", 2, "",
        "usage: qrhadamard [-h] {construct,verify,search-params,scheme} ...\n"
        "qrhadamard: error: unrecognized arguments: --h 1\n",
    ),
    (
        "construct --family q3 --m 1 --h 1 --out {tmp}/o", 2, "",
        "usage: qrhadamard [-h] {construct,verify,search-params,scheme} ...\n"
        "qrhadamard: error: unrecognized arguments: --h 1\n",
    ),
    (
        "construct --family regular --m 3 --partition {schemes}/m3.scheme --ell 3 --h 1 --out {tmp}/o", 2, "",
        "usage: qrhadamard [-h] {construct,verify,search-params,scheme} ...\n"
        "qrhadamard: error: unrecognized arguments: --h 1\n",
    ),
    (
        "construct --fam q3 --m 1 --out {tmp}/o", 2, "",
        "usage: qrhadamard construct [-h] --family {q3,q1,regular} [--m M] [--q Q] [--ell ELL] "
        "[--partition PARTITION] [--out OUT]\n"
        "qrhadamard construct: error: the following arguments are required: --family\n",
    ),
    (
        "construct --family q3 --q 11 --partition {schemes}/m3.scheme --out {tmp}/o", 2, "",
        "error: the q3 family takes no --partition\n",
    ),
    (
        "construct --family q3 --m 1 --out {tmp}/afile", 2, "",
        "error: cannot write the outputs under --out {tmp}/afile: [Errno 17] File exists: '{tmp}/afile'\n",
    ),
    (
        "construct --family q3 --m 1 --out {tmp}/o", 0,
        'bound: 36\nclassification: "biregular(k1=4,k2=0,m1=9,m2=3)"\nexcess: 36\nk: 2\nn: 12\n'
        'row_sums: {"0": 3, "4": 9}\ns: 3\nt: 0\n',
        "",
    ),
    ("construct --family q3 --m 1 --ell 9 --out {tmp}/o", 0, _REPORT_Q11, ""),
    (
        "construct --family regular --m 2 --partition {schemes}/m3.scheme --out {tmp}/o", 2, "",
        "error: the regular family needs odd m\n",
    ),
    (
        "construct --family regular --m 3 --out {tmp}/o", 2, "",
        "error: --partition is required for the regular family\n",
    ),
    (
        "construct --family regular --m 3 --ell 5 --partition {tmp}/missing --out {tmp}/o", 2, "",
        "error: [Errno 2] No such file or directory: '{tmp}/missing'\n",
    ),
    (
        "construct --family regular --m 3 --partition {tmp}/latin1 --out {tmp}/o", 2, "",
        "error: {tmp}/latin1 is not UTF-8 text (byte 8: invalid start byte)\n",
    ),
    (
        "construct --family regular --m 3 --partition {tmp} --out {tmp}/o", 2, "",
        "error: [Errno 21] Is a directory: '{tmp}'\n",
    ),
    (
        "construct --family regular --m 3 --partition {tmp}/malformed --out {tmp}/o", 2, "",
        "error: partition file needs a header line and four index lines\n",
    ),
    (
        "construct --family regular --m 3 --partition {tmp}/underscore.scheme --out {tmp}/o", 2, "",
        "error: malformed partition file: invalid literal for int() with base 10: '1_7'\n",
    ),
    (
        "construct --family regular --m 5 --partition {schemes}/m3.scheme --out {tmp}/o", 2, "",
        "error: partition file does not match the requested q/m\n",
    ),
    (
        "construct --family regular --m 3 --ell 5 --partition {tmp}/swapped --out {tmp}/o", 1, "",
        _NOT_A_SCHEME,
    ),
    ("construct --family regular --m 3 --partition {tmp}/swapped --out {tmp}/o", 1, "", _NOT_A_SCHEME),
    (
        "construct --family regular --m 3 --ell 1 --partition {schemes}/m3.scheme --out {tmp}/o", 2, "",
        "error: --ell 1 is not admissible for this family\n",
    ),
    ("verify {tmp}/missing", 2, "", "error: [Errno 2] No such file or directory: '{tmp}/missing'\n"),
    ("verify {tmp}/latin1", 2, "", "error: {tmp}/latin1 is not UTF-8 text (byte 8: invalid start byte)\n"),
    ("verify {tmp}", 2, "", "error: [Errno 21] Is a directory: '{tmp}'\n"),
    ("verify {tmp}/empty", 2, "", "error: empty matrix file\n"),
    ("verify {tmp}/header", 2, "", "error: first line must be the order n\n"),
    ("verify {tmp}/underscore", 2, "", "error: first line must be the order n\n"),
    ("verify {tmp}/arabic_digit", 2, "", "error: first line must be the order n\n"),
    ("verify {tmp}/count", 2, "", "error: expected 2 rows after the header\n"),
    ("verify {tmp}/row", 2, "", "error: rows must be n characters from {+,-}\n"),
    ("verify {tmp}/odd", 1, '{"hadamard": false, "n": 3, "violating_rows": [0, 1]}\n', ""),
    ("verify {tmp}/not_hadamard", 1, '{"hadamard": false, "n": 4, "violating_rows": [0, 1]}\n', ""),
    ("verify {tmp}/one", 0, '{"excess": 1, "hadamard": true, "n": 1, "row_sums": {"1": 1}}\n', ""),
    # search-params prints one period and takes no --limit: argparse refuses it
    (
        "search-params --family q3 --q 11 --limit -1", 2, "",
        "usage: qrhadamard [-h] {construct,verify,search-params,scheme} ...\n"
        "qrhadamard: error: unrecognized arguments: --limit -1\n",
    ),
    ("search-params --family q3", 2, "", "error: give exactly one of --q and --m\n"),
    ("search-params --family q3 --q 12", 2, "", "error: q = 12 is not of the q3 form\n"),
    ("search-params --family q3 --m 0", 2, "", "error: the q3 family needs m >= 1, got m = 0\n"),
    ("search-params --family q1 --m 40", 2, "", "error: 3281 is not a prime power\n"),
    (
        "search-params --family q3 --q 11 --limit 2", 2, "",
        "usage: qrhadamard [-h] {construct,verify,search-params,scheme} ...\n"
        "qrhadamard: error: unrecognized arguments: --limit 2\n",
    ),
    (
        "search-params --family q3 --q 11", 0,
        '{"max_ell": 119, "period": 24, "rows": [{"delta": -1, "ell": 5, "epsilon": -1, "h": 0}, '
        '{"delta": -1, "ell": 9, "epsilon": -1, "h": 2}, {"delta": -1, "ell": 11, "epsilon": -1, "h": 3}, '
        '{"delta": -1, "ell": 13, "epsilon": -1, "h": 0}, {"delta": -1, "ell": 15, "epsilon": -1, "h": 1}, '
        '{"delta": -1, "ell": 19, "epsilon": -1, "h": 3}]}\n', "",
    ),
    (
        "search-params --family q3 --q 11 --partition {schemes}/m3.scheme", 2, "",
        "error: the q3 family takes no --partition\n",
    ),
    (
        "search-params --family q1 --q 13 --partition {schemes}/m3.scheme", 2, "",
        "error: the q1 family takes no --partition\n",
    ),
    (
        "search-params --family regular --q 31 --partition {schemes}/m3.scheme", 2, "",
        "error: the regular family needs odd m\n",
    ),
    (
        "search-params --family regular --m 2 --partition {schemes}/m3.scheme", 2, "",
        "error: the regular family needs odd m\n",
    ),
    ("search-params --family regular --q 17", 2, "", "error: --partition is required for the regular family\n"),
    (
        "search-params --family regular --q 17 --partition {tmp}/missing", 2, "",
        "error: [Errno 2] No such file or directory: '{tmp}/missing'\n",
    ),
    (
        "search-params --family regular --q 17 --partition {tmp}/latin1", 2, "",
        "error: {tmp}/latin1 is not UTF-8 text (byte 8: invalid start byte)\n",
    ),
    (
        "search-params --family regular --q 17 --partition {tmp}/malformed", 2, "",
        "error: partition file needs a header line and four index lines\n",
    ),
    (
        "search-params --family regular --q 17 --partition {tmp}/digit.scheme", 2, "",
        "error: malformed partition file: invalid literal for int() with base 10: '\u0661\u0661'\n",
    ),
    (
        "search-params --family regular --q 49 --partition {schemes}/m3.scheme", 2, "",
        "error: partition file does not match the requested q/m\n",
    ),
    (
        "search-params --family regular --q 17 --partition {tmp}/swapped", 1, "", _NOT_A_SCHEME,
    ),
    (
        "search-params --family regular --q 17 --partition {schemes}/m3.scheme --limit 1", 2, "",
        "usage: qrhadamard [-h] {construct,verify,search-params,scheme} ...\n"
        "qrhadamard: error: unrecognized arguments: --limit 1\n",
    ),
    (
        "search-params --family regular --q 17 --partition {schemes}/m3.scheme", 0,
        '{"max_ell": 287, "period": 36, "rows": [{"ell": 3, "tau": -1}, {"ell": 8, "tau": -1}, '
        '{"ell": 12, "tau": -1}, {"ell": 14, "tau": -1}, {"ell": 15, "tau": -1}, {"ell": 16, "tau": -1}, '
        '{"ell": 20, "tau": -1}, {"ell": 22, "tau": -1}, {"ell": 24, "tau": -1}, {"ell": 27, "tau": -1}, '
        '{"ell": 28, "tau": -1}]}\n', "",
    ),
    ("scheme", 2, "", "error: give --verify FILE or --search\n"),
    ("scheme --search", 2, "", "error: give exactly one of --q and --m\n"),
    ("scheme --search --m 3 --e 12 --budget -5", 2, "", "error: --budget must be >= 0, got -5\n"),
    ("scheme --search --m 3 --e 12 --budget 0", 3, "", "error: search needs 160 candidates, over the budget of 0\n"),
    ("scheme --search --m 3 --e 0", 2, "", "error: e = 0 must be even and divide both 4m^2 and q^2-1\n"),
    ("scheme --search --m 4 --e 8", 2, "", "error: the regular family needs odd m\n"),
    ("scheme --search --m 0", 2, "", "error: the regular family needs m >= 1, got m = 0\n"),
    ("scheme --search --q 18", 2, "", "error: q = 18 is not of the regular form\n"),
    ("scheme --search --q 161", 2, "", "error: 161 is not a prime power\n"),
    ("scheme --search --m 3 --e 4", 0, "", "found 0 partition(s)\n"),
    (
        "scheme --verify {schemes}/m3.scheme --search --m 3 --e 12", 2, "",
        "error: --verify takes none of --search, --q, --m, --e and --budget\n",
    ),
    (
        "scheme --verify {schemes}/m3.scheme --m 5 --budget -4", 2, "",
        "error: --verify takes none of --search, --q, --m, --e and --budget\n",
    ),
    ("scheme --verify {tmp}/missing", 2, "", "error: [Errno 2] No such file or directory: '{tmp}/missing'\n"),
    ("scheme --verify {tmp}/latin1", 2, "", "error: {tmp}/latin1 is not UTF-8 text (byte 8: invalid start byte)\n"),
    ("scheme --verify {tmp}/malformed", 2, "", "error: partition file needs a header line and four index lines\n"),
    ("scheme --verify {tmp}/not_prime", 2, "", "error: 15 is not a prime power\n"),
    (
        "scheme --verify {tmp}/underscore.scheme", 2, "",
        "error: malformed partition file: invalid literal for int() with base 10: '1_7'\n",
    ),
    (
        "scheme --verify {tmp}/digit.scheme", 2, "",
        "error: malformed partition file: invalid literal for int() with base 10: '\u0661\u0661'\n",
    ),
    ("scheme --verify {tmp}/bad_e", 2, "", "error: e must divide 4m^2\n"),
    (
        "scheme --verify {tmp}/swapped", 1, _SWAPPED_REPORT,
        "tau=1: first failing cell (Y_1, X_1): got 11.684658, expected -0.684658\n"
        "tau=-1: first failing cell (Y_1, X_2): got 2.246211, expected -14.246211\n",
    ),
]


def _swapped_m3() -> schemes.SchemePartition:
    """m3.scheme with X_2 and X_4 exchanged: a partition that fails table 1."""
    h1, h2, h3, h4 = shipped_partition(3).h_lists
    return schemes.SchemePartition(17, 3, 12, (h1, h4, h3, h2))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("table")
    for name, data in _TABLE_FILES.items():
        (tmp / name).write_bytes(data)
    (tmp / "swapped").write_text(schemes.partition_text(_swapped_m3()))
    return tmp


@pytest.mark.parametrize("argv,code,out,err", _MESSAGE_TABLE, ids=[row[0] for row in _MESSAGE_TABLE])
def test_every_message_of_the_cli(table_dir, capsys, monkeypatch, argv, code, out, err):
    def fill(text: str) -> str:
        return text.replace("{tmp}", str(table_dir)).replace("{schemes}", str(SCHEMES_DIR))

    if out is _SWAPPED_REPORT:
        ext, _ = finite_field.quadratic_tower(17)
        report = schemes.verify_scheme(ext, _swapped_m3())
        out = json.dumps(schemes.scheme_report_json(ext, _swapped_m3(), report), sort_keys=True) + "\n"
    monkeypatch.setenv("COLUMNS", "200")
    capsys.readouterr()
    try:
        assert main([fill(arg) for arg in argv.split()]) == code
    except SystemExit as exc:  # argparse refuses the argv
        assert exc.code == code
    assert capsys.readouterr() == (fill(out), fill(err))


def _partition_with_e(e: int) -> str:
    """A q = 17, m = 3 partition file whose class modulus e does not fit the
    paper's form: e must divide 4m^2 = 36."""
    return f"17 3 {e}\n0\n1\n2\n" + " ".join(map(str, range(3, e))) + "\n"


_BAD_FORM = {
    5: "e = 5 does not divide q^2-1",
    8: "e must divide 4m^2",
    24: "e must divide 4m^2",
    144: "e must divide 4m^2",
}


@pytest.mark.parametrize("e", sorted(_BAD_FORM))
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "regular", "--m", "3", "--out", "{out}", "--partition", "{part}"],
        ["construct", "--family", "regular", "--m", "3", "--ell", "5", "--out", "{out}", "--partition", "{part}"],
        ["search-params", "--family", "regular", "--q", "17", "--partition", "{part}"],
        ["scheme", "--verify", "{part}"],
    ],
    ids=["construct", "construct-ell", "search-params", "scheme-verify"],
)
def test_partition_with_the_wrong_e_exits_2_from_every_command(tmp_path, capsys, argv, e):
    part = tmp_path / "bad.scheme"
    part.write_text(_partition_with_e(e))
    capsys.readouterr()
    assert main([arg.format(out=tmp_path / "out", part=part) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {_BAD_FORM[e]}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "regular", "--m", "3", "--out", "{out}", "--partition", "{part}"],
        ["construct", "--family", "regular", "--m", "3", "--ell", "3", "--out", "{out}", "--partition", "{part}"],
        ["search-params", "--family", "regular", "--q", "17", "--partition", "{part}"],
    ],
    ids=["construct", "construct-ell", "search-params"],
)
def test_every_command_checks_the_intersection_numbers(tmp_path, capsys, monkeypatch, argv):
    # m3.scheme matches table 1; a report that its intersection numbers are
    # not constant must still stop every command that reads it, before any output
    real = schemes.verify_scheme
    monkeypatch.setattr(schemes, "verify_scheme", lambda ext, part: real(ext, part)._replace(is_scheme=False))
    capsys.readouterr()
    assert main([arg.format(out=tmp_path / "out", part=SCHEMES_DIR / "m3.scheme") for arg in argv]) == 1
    assert capsys.readouterr() == ("", _NOT_A_SCHEME)
    assert not (tmp_path / "out").exists()


def test_transform_with_given_params_checks_the_partition():
    ext, _ = finite_field.quadratic_tower(17)
    ell = isets.find_params(ext, "regular", shipped_partition(3)).ell
    with pytest.raises(schemes.SchemeInvalid):
        hd.transform(ext, "regular", ell, partition=_swapped_m3())


@pytest.mark.parametrize(
    "argv,code,times",
    [
        (["construct", "--m", "3", "--partition", "{m3}", "--out", "{out}"], 0, 1),
        (["construct", "--m", "3", "--ell", "3", "--partition", "{m3}", "--out", "{out}"], 0, 1),
        (["search-params", "--m", "3", "--partition", "{m3}"], 0, 1),
        (["search-params", "--m", "5", "--partition", "{m5}"], 0, 1),
        # outside 1 .. q^2 - 2 = 287: refused before the partition is read as a scheme
        (["construct", "--m", "3", "--ell", "0", "--partition", "{m3}", "--out", "{out}"], 2, 0),
        (["construct", "--m", "3", "--ell", "288", "--partition", "{m3}", "--out", "{out}"], 2, 0),
    ],
    ids=["first-ell", "ell-3", "search-params", "search-params-m5", "ell-0", "ell-288"],
)
def test_construct_verifies_the_scheme_once_per_step(tmp_path, capsys, monkeypatch, argv, code, times):
    # transform resolves its ell with the partition, by the parameter search
    # or by admissible_at, and checks nothing twice
    calls, real = [], schemes.verify_scheme
    monkeypatch.setattr(schemes, "verify_scheme", lambda ext, part: calls.append(part) or real(ext, part))
    m3, m5, out = SCHEMES_DIR / "m3.scheme", SCHEMES_DIR / "m5.scheme", tmp_path / "out"
    command, *rest = argv
    assert main([command, "--family", "regular", *(a.format(m3=m3, m5=m5, out=out) for a in rest)]) == code
    assert len(calls) == times
    if command == "construct" and code == 0:
        assert calls == [shipped_partition(3)]
        assert json.loads((out / "regular_q17_report.json").read_text())["excess"] == 216
    if code == 2:
        ell = argv[argv.index("--ell") + 1]
        assert capsys.readouterr() == ("", f"error: --ell {ell} is not admissible for this family\n")
        assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "regular", "--m", "3", "--partition", "{m3}", "--out", "{out}"],
        ["construct", "--family", "regular", "--m", "3", "--ell", "3", "--partition", "{m3}", "--out", "{out}"],
        ["construct", "--family", "regular", "--m", "5", "--partition", "{m5}", "--out", "{out}"],
        ["search-params", "--family", "regular", "--m", "5", "--partition", "{m5}"],
        ["scheme", "--search", "--m", "3", "--e", "12"],
    ],
    ids=["construct", "construct-ell", "construct-m5", "search-params", "scheme-search"],
)
def test_regular_commands_decide_without_a_float_gauss_sum(tmp_path, capsys, monkeypatch, argv):
    from qrhadamard import character_sums as cs

    def no_sum(*args):
        raise AssertionError("a float Gauss sum ran")

    monkeypatch.setattr(cs, "gauss_sum", no_sum)
    monkeypatch.setattr(cs, "gauss_periods", no_sum)
    paths = {"m3": SCHEMES_DIR / "m3.scheme", "m5": SCHEMES_DIR / "m5.scheme", "out": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 0
    capsys.readouterr()


def test_only_scheme_verify_sums_float_gauss_periods(capsys, monkeypatch):
    # the eigenmatrix it prints is the one float path of a regular command
    from qrhadamard import character_sums as cs

    calls, real = [], cs.gauss_periods
    monkeypatch.setattr(cs, "gauss_periods", lambda ctx, e: calls.append(e) or real(ctx, e))
    assert main(["scheme", "--verify", str(SCHEMES_DIR / "m3.scheme")]) == 0
    assert calls == [12]
    capsys.readouterr()


def test_admissible_params_checks_the_partition_at_the_call():
    ext, _ = finite_field.quadratic_tower(17)
    with pytest.raises(schemes.SchemeInvalid, match="^partition fails scheme or eigenvalue-table verification$"):
        isets.admissible_params(ext, "regular", partition=_swapped_m3())  # no next(): the call itself raises
    with pytest.raises(isets.IntersectionError, match="^the regular family needs a scheme partition$"):
        isets.admissible_params(ext, "regular")


def _proc_state(pid: str):
    """The state letter of a process in /proc, or None once it is reaped."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"), reason="needs /proc children")
def test_a_killed_verify_leaves_no_scanner_behind(tmp_path):
    # order 4096: a scanner's share of the scan takes ~2 s, so one that ran on
    # after its parent died would outlive the 1 s bound below
    f = tmp_path / "h.mat"
    f.write_text(paley_sylvester(4096).to_text())
    argv = [sys.executable, "-c", "import sys; from qrhadamard import cli, matrix; matrix._scanner_count = lambda n: 2; "
            "sys.exit(cli.main(sys.argv[1:]))", "verify", str(f)]
    proc = subprocess.Popen(argv, start_new_session=True, env={**os.environ, "PYTHONPATH": _SRC}, stdout=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.monotonic() + 20
        while not (scanners := children.read_text().split()):  # wait until a scanner runs
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 1
    while [pid for pid in scanners if _proc_state(pid) not in (None, "Z", "X")]:
        assert time.monotonic() < deadline, "a scanner outlived its killed parent by 1 s"
        time.sleep(0.005)
    # the exited scanners leave the group once init reaps them, which can take
    # ~2 s on a host whose init reaps lazily
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "the killed verify's process group outlived it by 10 s"
        time.sleep(0.01)


_TRACED_VERIFY = """
import sys
from qrhadamard import cli, matrix
matrix._scanner_count = lambda n: 3
print("before", flush=False)  # still buffered when the scanners fork
try:
    code = cli.main(["verify", sys.argv[1]])
finally:
    with open(sys.argv[2], "a") as fh:
        fh.write("main returned\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("flip", [False, True])
def test_a_split_verify_unwinds_the_caller_once(tmp_path, flip):
    h = paley_sylvester(1024)
    if flip:
        h = hd.SignMatrix(h.n, h.rows[:-1] + [h.rows[-1] ^ 1])
    f, log = tmp_path / "h.mat", tmp_path / "log.txt"
    f.write_text(h.to_text())
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _TRACED_VERIFY, str(f), str(log)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert (proc.returncode, proc.stderr) == (int(flip), "")
    before, result = proc.stdout.splitlines()
    assert before == "before"
    assert json.loads(result)["hadamard"] is not flip
    assert log.read_text() == "main returned\n"
