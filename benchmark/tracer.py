"""Per-layer tracing of qrhadamard CLI invocations, from outside the package.

Run as a script, this file stands in for ``python -m qrhadamard``:

    python benchmark/tracer.py SPANS.json -- construct --family q3 --q 11

It imports the package, replaces each public function named in ``LAYERS`` on
every module attribute and class that binds it, runs ``cli.main`` and writes
the spans (name, start, end, parent) and counters it kept in memory to
SPANS.json when the CLI returns.  No package source is edited.

Imported, it turns those span files into the per-layer metrics of one pass.
A function that no longer exists (renamed or merged by a refactor) is listed
as missing instead of aborting the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

# metric -> (unit, functions "module:qualname" whose self time it sums)
LAYERS = {
    "finite_field.prime_power_s": ("s", ["finite_field:prime_power"]),
    "finite_field.build_field_s": ("s", ["finite_field:build_field"]),
    "finite_field.quadratic_tower_s": ("s", ["finite_field:quadratic_tower"]),
    "character_sums.gauss_periods_s": ("s", ["character_sums:gauss_periods"]),
    "character_sums.decompose_gauss_s": ("s", ["character_sums:decompose_gauss"]),
    "intersection_sets.find_params_s": ("s", ["intersection_sets:find_params"]),
    "intersection_sets.build_dlh_s": ("s", ["intersection_sets:build_dlh"]),
    "intersection_sets.design_s": ("s", [
        "intersection_sets:paley_design",
        "intersection_sets:paired_designs",
        "intersection_sets:doubled_symmetric_design",
    ]),
    "intersection_sets.intersection_profile_s": ("s", ["intersection_sets:intersection_profile"]),
    "hadamard.construct_s": ("s", ["hadamard:construct_q3", "hadamard:construct_q1"]),
    "hadamard.apply_signing_s": ("s", ["hadamard:apply_signing"]),
    "hadamard.violation_s": ("s", ["hadamard:hadamard_violation"]),
    "hadamard.to_text_s": ("s", ["hadamard:SignMatrix.to_text"]),
    "hadamard.from_text_s": ("s", ["hadamard:SignMatrix.from_text"]),
    "association_schemes.scheme_search_s": ("s", ["association_schemes:scheme_search"]),
    "association_schemes.verify_scheme_s": ("s", ["association_schemes:verify_scheme"]),
    "association_schemes.eigenmatrix_s": ("s", ["association_schemes:eigenmatrix_vs_table1"]),
    "cli.self_s": ("s", ["cli:main"]),
}

# metric -> (unit, functions whose calls it counts)
CALLS = {
    "hadamard.construct_calls": ("count", ["hadamard:construct_q3", "hadamard:construct_q1"]),
    "hadamard.violation_calls": ("count", ["hadamard:hadamard_violation"]),
    "association_schemes.verify_scheme_calls": ("count", ["association_schemes:verify_scheme"]),
    "association_schemes.candidates": ("count", ["association_schemes:normalized_partition"]),
}

# Called once per candidate partition (~2e5 times per m = 5 search): counted
# without a span, so the trace stays small and cheap.
COUNT_ONLY = {"association_schemes:normalized_partition"}

# metric -> (unit, function whose arguments/result it is derived from)
DERIVED = {
    "finite_field.elements": ("count", "finite_field:build_field"),
    "finite_field.rss_delta_mb": ("MB", "finite_field:quadratic_tower"),
    "intersection_sets.first_ell": ("count", "intersection_sets:find_params"),
    "hadamard.pairs_checked": ("count", "hadamard:hadamard_violation"),
    "association_schemes.found": ("count", "association_schemes:scheme_search"),
}

# Computed per pass from child timings and the metrics above, not by one wrapper.
PROCESS = {
    "cli.import_s": "s",
    "cli.process_cpu_s": "s",
    "cli.invocations": "count",
    "association_schemes.found_per_candidate": "ratio",
    "trace.overhead_s": "s",
}

FUNCTIONS = sorted(
    {f for _, fs in LAYERS.values() for f in fs} | {f for _, fs in CALLS.values() for f in fs}
)


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in LAYERS.items()}
    units.update({name: unit for name, (unit, _) in CALLS.items()})
    units.update({name: unit for name, (unit, _) in DERIVED.items()})
    units.update(PROCESS)
    return units


def _pairs_checked(args, result) -> int:
    """Row pairs hadamard_violation compared before returning ``result``."""
    n = args[0].n
    if n % 2 and n > 1:  # odd orders are rejected before any pair is compared
        return 0
    if result is None:
        return n * (n - 1) // 2
    i, j = result
    return i * (n - 1) - i * (i - 1) // 2 + (j - i)


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls = {f: 0 for f in FUNCTIONS}
        self.derived = {name: 0 for name in DERIVED}
        self.fields_seen: set[int] = set()
        self.missing: list[str] = []

    def _after(self, key, args, result, rss_before):
        if key == "finite_field:build_field" and id(result) not in self.fields_seen:
            self.fields_seen.add(id(result))
            self.derived["finite_field.elements"] += getattr(result, "q", 0)
        elif key == "finite_field:quadratic_tower":
            delta = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before) / 1024
            self.derived["finite_field.rss_delta_mb"] = max(self.derived["finite_field.rss_delta_mb"], delta)
        elif key == "intersection_sets:find_params":
            self.derived["intersection_sets.first_ell"] += result.ell
        elif key == "hadamard:hadamard_violation":
            self.derived["hadamard.pairs_checked"] += _pairs_checked(args, result)
        elif key == "association_schemes:scheme_search":
            self.derived["association_schemes.found"] += len(result)

    def wrap(self, key, fn):
        if key in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = [key, start, time.perf_counter(), parent]
                self.stack.pop()
            self._after(key, args, result, rss_before)
            return result
        return traced

    def install(self) -> None:
        """Wrap every function in FUNCTIONS under every name that binds it."""
        loaded = [m for name, m in sys.modules.items() if name == "qrhadamard" or name.startswith("qrhadamard.")]
        for key in FUNCTIONS:
            module_name, qualname = key.split(":")
            try:
                module = importlib.import_module(f"qrhadamard.{module_name}")
                owner = module
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(key)
                continue
            if outer:  # a method: rebind on the class, keeping classmethod/staticmethod
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self.wrap(key, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(key, raw))
                continue
            wrapped = self.wrap(key, raw)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, wrapped)

    def dump(self, path: str, import_s: float) -> None:
        payload = {
            "spans": self.spans,  # complete: every wrapper's finally ran before cli.main returned
            "calls": self.calls,
            "derived": self.derived,
            "missing": self.missing,
            "import_s": import_s,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans) -> dict[str, float]:
    """Per function: total span duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def pass_metrics(children) -> tuple[dict[str, float], set[str], dict[str, int]]:
    """Per-layer metrics of one traced pass.

    ``children`` holds one (span file payload, child cpu seconds) per
    invocation.  Returns the metrics, the functions missing from the
    package, and the call count of every wrapped function.
    """
    values = {name: 0 for name in per_layer_units()}
    calls = {f: 0 for f in FUNCTIONS}
    missing: set[str] = set()
    for payload, cpu_s in children:
        missing.update(payload["missing"])
        selfs = self_times(payload["spans"])
        for name, (_, fns) in LAYERS.items():
            values[name] += sum(selfs.get(f, 0.0) for f in fns)
        for f, count in payload["calls"].items():
            calls[f] = calls.get(f, 0) + count
        for name, value in payload["derived"].items():
            if name == "finite_field.rss_delta_mb":
                values[name] = max(values[name], value)
            else:
                values[name] += value
        values["cli.import_s"] += payload["import_s"]
        values["cli.process_cpu_s"] += cpu_s
        values["cli.invocations"] += 1
    for name, (_, fns) in CALLS.items():
        values[name] = sum(calls[f] for f in fns)
    if values["association_schemes.candidates"]:
        values["association_schemes.found_per_candidate"] = (
            values["association_schemes.found"] / values["association_schemes.candidates"]
        )
    gone = {name for name, (_, fns) in {**LAYERS, **CALLS}.items() if all(f in missing for f in fns)}
    gone |= {name for name, (_, f) in DERIVED.items() if f in missing}
    if "association_schemes.found" in gone or "association_schemes.candidates" in gone:
        gone.add("association_schemes.found_per_candidate")
    for name in gone:
        values.pop(name, None)
    return values, missing, calls


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: tracer.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder()
    start = time.perf_counter()
    from qrhadamard import cli
    import_s = time.perf_counter() - start
    recorder.install()
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
