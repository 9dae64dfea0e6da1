"""The package's immutable records, what importing the package loads, and
the package names that the benchmark tracer wraps."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import shipped_partition
from qrhadamard import association_schemes as schemes
from qrhadamard import character_sums as cs
from qrhadamard import hadamard as hd
from qrhadamard import intersection_sets as isets
from qrhadamard.finite_field import FieldSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qrhadamard.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.splitlines()[-1]
    assert "qrhadamard.cli" in added
    assert '"dataclasses"' not in added and '"inspect"' not in added


def test_every_function_the_benchmark_tracer_wraps_exists():
    # benchmark/tracer.py wraps package functions by "module:qualname" and
    # drops the metric of one it cannot find; a rename must fail here first
    path = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert {
        "hadamard:SignMatrix.to_text",
        "character_sums:gauss_periods",
        "character_sums:decompose_gauss",
        "association_schemes:eigenmatrix_vs_table1",
        "association_schemes:normalized_partition",
    } <= set(tracer.FUNCTIONS)
    missing = []
    for key in tracer.FUNCTIONS:
        module_name, qualname = key.split(":")
        owner = importlib.import_module(f"qrhadamard.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(key)
    assert missing == []


def _records(tower11, tower17):
    """One record of each kind, built by the code that returns it."""
    ext11, base11 = tower11
    ext17, _ = tower17
    part = shipped_partition(3)
    return [
        ext11.spec,
        cs.decompose_gauss(ext11, "e8"),
        isets.intersection_profile(isets.build_dlh(ext11, 1, 8, [0, 1, 2, 3]), isets.paley_design(base11)),
        isets.find_params(ext11, "e8"),
        part,
        schemes.verify_scheme(ext17, part),
        hd.transform(ext11, "q3")[1],
        hd.FAMILIES["q3"],
    ]


def test_records_are_immutable_hashable_and_keep_their_repr(tower11, tower17):
    records = _records(tower11, tower17)
    assert [type(r).__name__ for r in records] == [
        "FieldSpec", "GaussDecomposition", "IntersectionSet", "ParamChoice",
        "SchemePartition", "SchemeReport", "ExcessReport", "Family",
    ]
    for rec in records:
        name = type(rec).__name__
        field = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.extra = 1  # no __dict__: __slots__ = ()
        assert hash(rec) == hash(tuple(rec))
        assert {rec: 1}[type(rec)(*rec)] == 1
        assert repr(rec) == f"{name}(" + ", ".join(f"{f}={getattr(rec, f)!r}" for f in rec._fields) + ")"


def test_record_fields_defaults_and_properties():
    assert FieldSpec(5, 2, (2, 4, 1)).q == 25
    choice = isets.ParamChoice("e8", 7, 1)
    assert (choice.h, choice.epsilon, choice.delta, choice.tau) == (None,) * 4
    assert choice._replace(h=2) == isets.ParamChoice("e8", 7, 1, h=2)
    assert repr(hd.FAMILIES["regular"]) == "Family(key='scheme', promise='regular', border=1, odd_m=True)"
    # a record compares equal to the plain tuple of its fields
    assert hd.FAMILIES["q1"] == ("e4", "biregular", 2, False)


def test_scheme_partition_still_refuses_a_non_partition():
    part = shipped_partition(3)
    bad = ((0, 1), (2,), (3,), (4,))
    with pytest.raises(schemes.BadForm):
        schemes.SchemePartition(17, 3, 12, bad)
    with pytest.raises(schemes.BadForm):
        schemes.SchemePartition(17, 3, 12, part.h_lists[:3])
    with pytest.raises(schemes.BadForm):
        part._replace(h_lists=bad)  # _replace builds through the same check
    with pytest.raises(schemes.BadForm):
        schemes.SchemePartition._make((17, 3, 12, bad))
    assert part._replace(q=17) == part
