"""qrhadamard benchmark: drives the real CLI and checks every output.

    python3 benchmark/run.py --workload small-ladder --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seconds 20   # every workload in turn
    python3 benchmark/run.py --record                      # re-check outputs, rewrite golden.json

Closed loop, one client: one ``python -m qrhadamard`` child at a time, each
in a fresh interpreter, because every user run pays interpreter start,
imports, the lazy sympy import and the field tables.  A pass runs the
workload's invocation list once, in an order drawn from the seed, into a
fresh output directory.  Passes repeat while another fits in ``--seconds``
(at least one runs).  With ``--trace 0`` the run reports end-to-end metrics,
wall_s and setup_s scaled by the host speed that reference children,
interleaved with the timed ones, measure; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of tracer.py
plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print the same metrics with units, the failure
ratio, and the host (nproc, versions, load average).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 4  # per block; one block before each pass and one after the last
# The shared host's speed swings by up to 1.7x within seconds and drifts
# over minutes, and child CPU time moves with wall time, so raw seconds of
# runs minutes apart are not comparable.  A reference child, interleaved with
# the timed children, measures the host's current speed.  It is a fresh
# interpreter doing the kinds of work a CLI child does, in code outside the
# package: a large import, an exp table of tuples with its log dict and
# strided lookups, big-int XOR and popcount over matrix rows, and +/- text
# summed into big ints.  wall_s and setup_s are scaled to the host speed at
# which the reference takes REFERENCE_NOMINAL_S.
REFERENCE = """\
import random
import sympy
n = 100_000
exp = []
cur = (1, 0)
for _ in range(n):
    exp.append(cur)
    cur = ((cur[0] * 5 + cur[1]) % 65521, cur[0])
log = {v: i for i, v in enumerate(exp)}
acc = 0
for k in range(n):
    acc = (acc + log[exp[k * 7919 % n]]) % 65521
rng = random.Random(1)
rows = [rng.getrandbits(2048) for _ in range(300)]
weight = sum((rows[i] ^ rows[j]).bit_count() for i in range(300) for j in range(i + 1, 300))
text = ["".join(rng.choice("+-") for _ in range(2048)) for _ in range(40)]
back = [sum(1 << j for j, ch in enumerate(line) if ch == "-") for line in text]
"""
REFERENCE_NOMINAL_S = 0.8
# Reference time kept at this share of the timed children's time, so that
# every workload samples the host's speed as densely as it uses the host.
REFERENCE_SHARE = 0.2
# Compiles every .pyc and pulls the interpreter, the package and sympy into
# the page cache; a full pass of large-construct would double its run time.
WARM_UP = [("--help",), ("construct", "--family", "q3", "--q", "11", "--out", wl.OUT),
           ("scheme", "--verify", "schemes/m3.scheme")]
REQUIRED = ["src/qrhadamard/__main__.py", "schemes/m3.scheme", "schemes/m5.scheme"]

# Wrapped functions each workload must call; a zero count there is reported.
EXPECTED_CALLS = {
    "small-ladder": [
        "finite_field:prime_power", "finite_field:build_field", "finite_field:quadratic_tower",
        "character_sums:decompose_gauss", "character_sums:gauss_periods",
        "intersection_sets:find_params", "intersection_sets:build_dlh",
        "intersection_sets:paley_design", "intersection_sets:paired_designs",
        "intersection_sets:doubled_symmetric_design", "intersection_sets:intersection_profile",
        "hadamard:construct_q3", "hadamard:construct_q1", "hadamard:apply_signing",
        "hadamard:hadamard_violation", "hadamard:SignMatrix.to_text",
        "association_schemes:verify_scheme", "association_schemes:eigenmatrix_vs_table1",
        "association_schemes:normalized_partition", "cli:main",
    ],
    "large-construct": [
        "finite_field:prime_power", "finite_field:build_field", "finite_field:quadratic_tower",
        "character_sums:decompose_gauss", "intersection_sets:find_params",
        "intersection_sets:build_dlh", "intersection_sets:paley_design",
        "intersection_sets:paired_designs", "intersection_sets:intersection_profile",
        "hadamard:construct_q3", "hadamard:construct_q1", "hadamard:apply_signing",
        "hadamard:hadamard_violation", "hadamard:SignMatrix.to_text", "cli:main",
    ],
    "verify-read": ["hadamard:hadamard_violation", "hadamard:SignMatrix.from_text", "cli:main"],
    "scheme-search": [
        "finite_field:prime_power", "finite_field:build_field", "finite_field:quadratic_tower",
        "character_sums:gauss_periods", "association_schemes:scheme_search",
        "association_schemes:normalized_partition", "association_schemes:verify_scheme",
        "association_schemes:eigenmatrix_vs_table1", "cli:main",
    ],
}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], stdout_path: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, peak RSS MB, cpu s)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


class HostSpeed:
    """Reference-child wall times sampled through a run."""

    def __init__(self, work: Path):
        self.samples: list[float] = []
        self.timed = 0.0
        self.stdout = work / "reference.out"

    def add(self, wall: float) -> None:
        """Count a timed child's wall time; sample until the reference has its share."""
        self.timed += wall
        while sum(self.samples) < REFERENCE_SHARE * self.timed:
            code, ref_wall, _, _ = run_child([sys.executable, "-c", REFERENCE], self.stdout)
            if code != 0:
                raise RuntimeError(f"reference child exited {code}: {self.stdout.with_suffix('.err').read_text()}")
            self.samples.append(ref_wall)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's seconds into seconds at nominal speed.
        The mean, not the median: fast and slow phases alternate within
        seconds, and a long timed child averages over them too."""
        return REFERENCE_NOMINAL_S / self.mean()


def cli_argv(args, out: Path, spans: Path | None = None) -> list[str]:
    args = [a.replace(wl.OUT, str(out)) for a in args]
    if spans is None:
        return [sys.executable, "-m", "qrhadamard", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]


@dataclass
class Pass:
    """One pass over a workload's invocation list."""
    wall: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    children: list[tuple[dict, float]] = field(default_factory=list)  # traced: (span file, cpu s)


def run_pass(invocations, oracles, directory: Path, rng: random.Random, traced: bool,
             speed: HostSpeed | None = None) -> Pass:
    result = Pass()
    out = directory / "out"
    out.mkdir(parents=True)
    order = list(invocations)
    rng.shuffle(order)
    for k, inv in enumerate(order):
        spans = directory / f"{k}.spans.json" if traced else None
        stdout_path = directory / f"{k}.out"
        code, wall, rss, cpu = run_child(cli_argv(inv.argv, out, spans), stdout_path)
        if speed:
            speed.add(wall)
        result.wall += wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        result.attempted += 1
        problem = wl.check(oracles[inv.key], code, stdout_path.read_bytes(), out)
        if problem:
            result.failures.append((inv.key, problem))
        if traced and spans.is_file():  # absent if the child died before the CLI returned
            result.children.append((json.loads(spans.read_text()), cpu))
    shutil.rmtree(directory)
    return result


def load_workload(name: str, seed: int, work: Path):
    if name == "verify-read":
        inputs = work / "inputs"
        inputs.mkdir()
        subprocess.run([sys.executable, str(HERE / "matrices.py"), str(seed), str(inputs)], check=True)
        entries = json.loads((inputs / "oracles.json").read_text())
        return [wl.Invocation(e["key"], tuple(e["argv"])) for e in entries], {e["key"]: e for e in entries}
    golden = json.loads(GOLDEN.read_text())
    invocations = wl.FIXED[name]
    return invocations, {inv.key: golden[inv.key] for inv in invocations}


def warm_up(work: Path) -> None:
    out = work / "warm"
    out.mkdir()
    for k, args in enumerate(WARM_UP):
        run_child(cli_argv(args, out), out / f"{k}.out")


def measure_setup(work: Path, times: list[float], failures: list[str], speed: HostSpeed) -> None:
    """Append SETUP_REPEATS cold ``python -m qrhadamard --help`` wall times."""
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = run_child(cli_argv(["--help"], work), work / "setup.out")
        times.append(wall)
        speed.add(wall)
        if code != 0:
            failures.append(f"--help exit {code}")


def host_line() -> str:
    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    # Children inherit this process's RSS in ru_maxrss; it must stay below theirs.
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {importlib.metadata.version('numpy')}, sympy {importlib.metadata.version('sympy')}, "
        f"load {load}, harness peak RSS {harness_mb:.1f} MB"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload; print its summary; return its result object."""
    invocations, oracles = load_workload(name, seed, work)
    rng = random.Random(seed)
    warm_up(work)
    plain: list[Pass] = []
    traced: list[Pass] = []
    setup_times: list[float] = []
    setup_failures: list[str] = []
    speed = HostSpeed(work)
    start = time.perf_counter()
    last = 0.0
    # Another pass runs while it would end nearer to --seconds than stopping now.
    while not plain or time.perf_counter() - start + last / 2 <= seconds:
        begun = time.perf_counter()
        if not trace:  # setup samples spread over the run, not bunched at its start
            measure_setup(work, setup_times, setup_failures, speed)
        plain.append(run_pass(invocations, oracles, work / f"pass{len(plain)}", rng, False, speed))
        if trace:
            traced.append(run_pass(invocations, oracles, work / f"traced{len(traced)}", rng, True))
        last = time.perf_counter() - begun
    if not trace:
        measure_setup(work, setup_times, setup_failures, speed)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes) + len(setup_times)
    failures = [f for p in passes for f in p.failures] + [("setup", f) for f in setup_failures]
    walls = [p.wall for p in plain]
    scale = speed.scale()
    mode = "traced and untraced" if trace else "untraced"
    print(f"workload {name}, seed {seed}: {len(plain)} {mode} pass(es) of {len(invocations)} invocations")
    print(f"  raw wall     {statistics.median(walls):.4f} s   (median of {len(walls)} untraced passes: "
          + ", ".join(f"{w:.3f}" for w in walls) + ")")
    print(f"  host scale   {scale:.4f}   ({REFERENCE_NOMINAL_S} s / mean of {len(speed.samples)} "
          f"reference children, {speed.mean():.4f} s)")
    if trace:
        metrics = trace_metrics(name, traced, walls)
    else:
        values = {
            "wall_s": statistics.median(walls) * scale,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "setup_s": statistics.median(setup_times) * scale,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"  wall_s       {values['wall_s']:.4f} s   (raw wall x host scale)")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB  (largest child ru_maxrss of a pass, median)")
        print(f"  setup_s      {values['setup_s']:.4f} s   (median of {len(setup_times)} cold --help, "
              f"raw {statistics.median(setup_times):.4f} s, x host scale)")
    print(f"  fail_ratio   {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted} invocations)")
    for key, problem in failures:
        print(f"  FAIL {key}: {problem}")
    print("  " + host_line())
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def trace_metrics(name: str, traced: list[Pass], plain_walls: list[float]) -> dict[str, dict]:
    units = tracer.per_layer_units()
    per_pass, missing, calls = [], set(), {}
    for p in traced:
        values, gone, counts = tracer.pass_metrics(p.children)
        per_pass.append(values)
        missing |= gone
        calls = counts
    values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(plain_walls)
    for key in sorted(values):
        print(f"  {key:44s} {values[key]:.6g} {units[key]}")
    absent = sorted(set(units) - set(values))
    if absent:
        print(f"  missing metrics (function renamed or removed: {', '.join(sorted(missing))}): {', '.join(absent)}")
    idle = [f for f in EXPECTED_CALLS[name] if f not in missing and calls.get(f, 0) == 0]
    if idle:
        print(f"  zero-call wrappers on {name}: {', '.join(idle)}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def record() -> int:
    """Run every fixed invocation once, check it independently, write golden.json."""
    import matrices  # numpy: kept out of timed runs, see matrices.py

    golden, problems = {}, []
    work = HERE / ".work" / f"record-{os.getpid()}"
    try:
        for name in ("small-ladder", "large-construct", "scheme-search"):
            for inv in wl.FIXED[name]:
                out = work / inv.key.replace(" ", "_").replace("=", "")
                out.mkdir(parents=True)
                stdout_path = out / "stdout"
                code, wall, _, _ = run_child(cli_argv(inv.argv, out), stdout_path)
                stdout = stdout_path.read_bytes()
                if code != 0:
                    issues = [f"exit {code}"]
                else:
                    issues = matrices.check_construct(inv, out) if inv.family else wl.check_scheme(inv, stdout)
                problems += [f"{inv.key}: {p}" for p in issues]
                files = {f: wl.sha256((out / f).read_bytes()) for f in wl.artefacts(inv) if (out / f).is_file()}
                golden[inv.key] = {"exit": code, "stdout": wl.sha256(stdout), "files": files}
                print(f"{inv.key}: {wall:.2f} s, {'FAILED' if issues else 'ok'}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true", help="check outputs with numpy and rewrite golden.json")
    args = parser.parse_args()
    # On SIGTERM, unwind as on Ctrl-C: kill and reap the running child, remove .work.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    required = REQUIRED if args.record else REQUIRED + [str(GOLDEN.relative_to(ROOT))]
    absent = [p for p in required if not (ROOT / p).is_file()]
    if absent:
        print(f"error: not a qrhadamard checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    if args.record:
        return record()

    names = wl.NAMES if args.workload == "all" else [args.workload]
    results = {}
    work_root = HERE / ".work" / f"run-{os.getpid()}"
    try:
        for name in names:
            work = work_root / name
            work.mkdir(parents=True)
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
