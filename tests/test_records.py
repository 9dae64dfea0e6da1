"""The package's immutable records, its modules, what importing the package
and running each command loads, the package names that the benchmark tracer
wraps, that every package function has a caller, and that every imported
name is read."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qrhadamard
from conftest import shipped_partition
from qrhadamard import association_schemes as schemes
from qrhadamard import character_sums as cs
from qrhadamard import hadamard as hd
from qrhadamard import intersection_sets as isets
from qrhadamard.finite_field import FieldSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# the package's library modules; cli and errors are all that --help needs
LAYERS = (
    "finite_field",
    "character_sums",
    "intersection_sets",
    "association_schemes",
    "matrix",
    "hadamard",
)


def _fresh_python(script: str, *args: str) -> list:
    """Run script in a new interpreter; the JSON of its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_package_holds_the_cli_errors_and_the_layers_only():
    # the float oracles, which no command runs, live with the tests
    modules = sorted(info.name for info in pkgutil.iter_modules(qrhadamard.__path__))
    assert modules == sorted(["__main__", "cli", "errors", *LAYERS])


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qrhadamard.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    added = _fresh_python(script)
    assert "qrhadamard.cli" in added
    assert "dataclasses" not in added and "inspect" not in added and "mmap" not in added
    assert not [name for name in added if name.split(".")[-1] in LAYERS]


def test_construct_loads_no_mmap(tmp_path):
    # only verify's scan, split over processes, shares its early-stop board through mmap
    script = (
        "import json, sys\n"
        "from qrhadamard.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, 'mmap' in sys.modules]))\n"
    )
    argv = ["construct", "--family", "q3", "--q", "11", "--out", str(tmp_path)]
    assert _fresh_python(script, *argv) == [0, False]


_RUN_COMMAND = """
import json, sys
from qrhadamard.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("qrhadamard."))]))
"""

_NO_FIELD = ("finite_field", "character_sums", "intersection_sets", "association_schemes", "hadamard")
_NO_SCHEME = ("association_schemes",)
_NO_MATRIX = ("hadamard", "matrix", "intersection_sets")

# argv ("{out}" is a fresh directory) -> modules main(argv) must not load
COMMAND_LOADS = {
    "--help": (["--help"], LAYERS),
    "verify": (["verify", "{out}/h4.mat"], _NO_FIELD),
    "construct q3": (["construct", "--family", "q3", "--q", "11", "--out", "{out}"], _NO_SCHEME),
    "construct q1": (["construct", "--family", "q1", "--q", "5", "--out", "{out}"], _NO_SCHEME),
    "search-params q3": (["search-params", "--family", "q3", "--q", "11"], _NO_SCHEME + ("hadamard", "matrix")),
    "search-params q1": (["search-params", "--family", "q1", "--q", "13"], _NO_SCHEME + ("hadamard", "matrix")),
    "scheme verify": (["scheme", "--verify", "schemes/m3.scheme"], _NO_MATRIX),
    "scheme search": (["scheme", "--search", "--m", "3", "--e", "12"], _NO_MATRIX),
}


@pytest.mark.parametrize("command", COMMAND_LOADS)
def test_each_command_loads_only_its_layers(command, tmp_path):
    argv, absent = COMMAND_LOADS[command]
    (tmp_path / "h4.mat").write_text("4\n++++\n+-+-\n++--\n+--+\n")
    argv = [arg.replace("{out}", str(tmp_path)) for arg in argv]
    code, loaded = _fresh_python(_RUN_COMMAND, json.dumps(argv))
    assert code == 0
    assert "qrhadamard.cli" in loaded
    assert [name for name in loaded if name.split(".")[-1] in absent] == []


# every name of qrhadamard.__all__ -> the module that defines it
PACKAGE_NAMES = {
    "FAMILIES": "character_sums",
    "ZERO": "finite_field",
    "BlockDesign": "intersection_sets",
    "ExcessReport": "matrix",
    "FieldContext": "finite_field",
    "FieldSpec": "finite_field",
    "IntersectionSet": "intersection_sets",
    "ParamChoice": "intersection_sets",
    "SchemePartition": "association_schemes",
    "SchemeReport": "association_schemes",
    "SignMatrix": "matrix",
    "build_dlh": "intersection_sets",
    "build_field": "finite_field",
    "construct_q1": "hadamard",
    "construct_q3": "hadamard",
    "find_params": "intersection_sets",
    "quadratic_tower": "finite_field",
    "transform": "hadamard",
    "verify_scheme": "association_schemes",
}

_PACKAGE_SURFACE = """
import importlib, json, sys
import qrhadamard
on_import = sorted(name for name in sys.modules if name.startswith("qrhadamard."))
listed = dir(qrhadamard)
homes = json.loads(sys.argv[1])
wrong = [
    name for name, home in homes.items()
    if getattr(qrhadamard, name) is not getattr(importlib.import_module("qrhadamard." + home), name)
]
try:
    qrhadamard.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([on_import, qrhadamard.__all__, listed, wrong, qrhadamard.__version__, unknown]))
"""


def test_the_package_surface_loads_its_modules_on_first_use():
    on_import, names, listed, wrong, version, unknown = _fresh_python(_PACKAGE_SURFACE, json.dumps(PACKAGE_NAMES))
    assert on_import == []
    assert sorted(names) == sorted([*PACKAGE_NAMES, "__version__"])
    assert set(names) <= set(listed)
    assert wrong == []
    assert version == "0.1.0"
    assert unknown == "module 'qrhadamard' has no attribute 'no_such_name'"


def _tracer():
    path = ROOT / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_function_the_benchmark_tracer_wraps_exists():
    # benchmark/tracer.py wraps package functions by "module:qualname" and
    # drops the metric of one it cannot find; a rename must fail here first
    tracer = _tracer()
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


# names with no caller in src/ or scripts/ that stay, each for its reason
UNCALLED = {
    "__init__:__getattr__": "PEP 562: Python calls it for a missing package attribute",
    "__init__:__dir__": "PEP 562: dir(qrhadamard) calls it",
    "association_schemes:SchemePartition._make": "namedtuple's _replace calls it, so the form check runs",
    "character_sums:clear_caches": "resets the layer's caches between timed test runs",
    "finite_field:clear_caches": "resets the layer's caches between timed test runs",
    "intersection_sets:clear_caches": "resets the layer's caches between timed test runs",
}


def _definitions():
    """(module, name, qualname) of each top-level function and class under
    src/qrhadamard/ and of each method that is not a dunder."""
    for path in sorted((ROOT / "src" / "qrhadamard").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                        yield path.stem, item.name, f"{node.name}.{item.name}"


def test_every_package_function_has_a_caller():
    # a caller of a method is an attribute read in src/ or scripts/; of a
    # top-level name, a name or attribute read; or the tracer wraps it by qualname
    read_names, read_attrs = set(), set()
    for path in [*(ROOT / "src" / "qrhadamard").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read_names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read_attrs.add(node.attr)
    traced = {key.split(":")[1] for key in _tracer().FUNCTIONS}
    uncalled = [
        f"{module}:{qualname}"
        for module, name, qualname in _definitions()
        if qualname not in traced
        and name not in read_attrs
        and ("." in qualname or name not in read_names)
    ]
    assert sorted(set(uncalled) - set(UNCALLED)) == []
    # a stale entry: its name gained a caller, or went; an unrelated read of
    # the same name (say, x.entry on another object) also counts as a caller
    assert sorted(set(UNCALLED) - set(uncalled)) == []


# names a module imports only to offer them under its own name
RE_EXPORTS = {
    "association_schemes:SchemeError": "the base of the errors the layer raises, caught as schemes.SchemeError",
}


def test_every_imported_name_is_read_in_its_module():
    # a name imported and never read is left over from a deletion
    unread = []
    for path in sorted((ROOT / "src" / "qrhadamard").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}:{name}")
    assert sorted(set(unread) - set(RE_EXPORTS)) == []
    assert sorted(set(RE_EXPORTS) - set(unread)) == []


def _records(tower11, tower17):
    """One record of each kind, built by the code that returns it."""
    ext11, base11 = tower11
    ext17, _ = tower17
    part = shipped_partition(3)
    return [
        ext11.spec,
        cs.decompose_gauss(ext11, "q3"),
        isets.intersection_profile(isets.build_dlh(ext11, 1, 8, [0, 1, 2, 3]), isets.paley_design(base11)),
        isets.find_params(ext11, "q3"),
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


def test_the_cli_offers_the_family_names_of_the_table():
    from qrhadamard import cli

    assert cli._FAMILY_NAMES == list(cs.FAMILIES)


def test_record_fields_defaults_and_properties():
    assert FieldSpec(5, 2, (2, 4, 1)).q == 25
    choice = isets.ParamChoice("q3", 7, 1)
    assert (choice.h, choice.epsilon, choice.delta, choice.tau) == (None,) * 4
    assert choice._replace(h=2) == isets.ParamChoice("q3", 7, 1, h=2)
    assert repr(hd.FAMILIES["regular"]) == (
        "Family(form=(2, 0, -1), sign_order=None, promise='regular', border=1, odd_m=True, partition=True, "
        f"variant='negated2', promised={cs._regular_promise!r})"
    )
    # a record compares equal to the plain tuple of its fields
    assert hd.FAMILIES["q1"] == ((2, 2, 1), 4, "biregular", 2, False, False, "plain", cs._q1_promise)


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
