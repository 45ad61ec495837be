#!/usr/bin/env python3
"""Benchmark of the fixcensus command line, measured from outside the program.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of ``python -m fixcensus ...`` invocations, run
one at a time as subprocesses; one run of the list is a pass.  The run
repeats passes for about S seconds and checks every invocation's exit code
and stdout sha256 against bench/expected.json, recorded from the commit that
defined the benchmark.  A mismatch counts as a failed invocation and is
never retried.

--trace 0 prints the end-to-end metrics: the wall time and the CPU time
(user+sys from wait4, so --jobs pool workers count) of a typical pass, each
the sum over invocations of the invocation's median over passes; the median
over passes of the pass peak RSS; and the median wall time of ``--help``
(interpreter start, package import, parser build), probed before each pass.

The times are calibrated to the host's speed.  On a shared host the speed
of a CPU drifts by a third or more over minutes, as other machines load it,
and no median over one run removes that.  So right before each invocation
the benchmark times a fixed pure-Python loop.  Each pass and its --help
probes are scaled by REFERENCE_S over the median loop time among them: the
result is the time they would take on a host where the loop takes
REFERENCE_S.  The uncalibrated medians are printed on a ``# raw`` line.

--trace 1 alternates an untraced pass with a traced one, in which every
invocation runs through bench/tracer.py, and prints per-layer metrics built
from the spans.  Exact counts come from the first traced pass and must
repeat in every later one; times are medians over traced passes, as
measured (not calibrated).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Each invocation runs in a fresh temporary directory
under bench/_work with a fixed environment; nothing is written elsewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"

# The seed picks one of VARIANTS input variants; expected.json holds the
# outputs of every variant, so any seed can be checked.
VARIANTS = 16
SETUP_PROBES_PER_PASS = 3
INVOCATION_TIMEOUT_S = 60

# Median time of the reference loop on the quiet 2-vCPU Xeon that recorded
# bench/baseline.json; calibrated times are seconds on that machine.
REFERENCE_S = 0.0135
REFERENCE_REPEATS = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "ff.standard_field.calls": "count",
    "ff.standard_field.builds": "count",
    "ff.standard_field.self_s": "s",
    "ff.field_ops.builds": "count",
    "ff.field_ops.table_builds": "count",
    "ff.field_ops.vector_builds": "count",
    "ff.field_ops.table_entries": "count",
    "ff.field_ops.self_s": "s",
    "dynamics.count_profile.calls": "count",
    "dynamics.count_profile.distinct": "count",
    "dynamics.count_profile.elements": "count",
    "dynamics.fixed_point_count.calls": "count",
    "dynamics.fixed_point_count.elements": "count",
    "dynamics.orbit_census.calls": "count",
    "dynamics.orbit_census.elements": "count",
    "dynamics.elements_per_s": "1/s",
    "dynamics.integral_fixed_points.calls": "count",
    "dynamics.self_s": "s",
    "claims.check_point.calls": "count",
    "claims.verdict.holds": "count",
    "claims.verdict.fails": "count",
    "claims.verdict.not_applicable": "count",
    "claims.verdict.skipped": "count",
    "claims.witnesses": "count",
    "stats.prime_sieve.calls": "count",
    "stats.prime_sieve.distinct_limits": "count",
    "stats.prime_sieve.limit_sum": "count",
    "nfcount.irreducibility_status.calls": "count",
    "nfcount.irreducibility_status.irreducible": "count",
    "nfcount.irreducibility_status.reducible": "count",
    "nfcount.irreducibility_status.unknown": "count",
    "nfcount.bounded_trinomials.candidates": "count",
    "nfcount.trinomial_row.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Exact counts must repeat from pass to pass; the rest are timings.
EXACT_UNITS = ("count", "bytes")

SCANS = ("dynamics.count_profile", "dynamics.fixed_point_count", "dynamics.orbit_census")


# ---------------------------------------------------------------------------
# Workloads: seed -> invocation list.  Each draws coefficients, bounds and
# list order from fixed-width windows, so the work stays comparable across
# seeds, and the program sees only the generated argv.

@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    same_as: int | None = None  # earlier invocation whose stdout must match byte for byte

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _element(index: int, p: int, n: int) -> str:
    """The index-th element of F_{p^n} (enumeration order) in the CLI's syntax."""
    terms = []
    for k in range(n):
        index, a = divmod(index, p)
        if a == 0:
            continue
        if k == 0:
            terms.append(str(a))
        else:
            base = "t" if k == 1 else f"t^{k}"
            terms.append(base if a == 1 else f"{a}*{base}")
    return "+".join(reversed(terms)) or "0"


def claims_grid(rng: random.Random) -> list[Invocation]:
    # Table builds (q <= 512) and vector-engine count_profile on F_11^3; the
    # --jobs 2 run drives the per-(claim, point) process pool.
    argv = (
        "claims",
        "--p", _csv(rng.sample([3, 5, 7, 11], 4)),
        "--n", _csv(rng.sample([1, 2, 3], 3)),
        "--ell", _csv(rng.sample([1, 2], 2)),
    )
    first, second = rng.sample(["1", "2"], 2)
    return [Invocation(argv + ("--jobs", first)), Invocation(argv + ("--jobs", second), same_as=0)]


def census_sweep(rng: random.Random) -> list[Invocation]:
    # One full field scan per coefficient, on table (F_3^5, F_5^3) and
    # vector (F_3^7, F_3^9) engines; orbits walks the functional graph.
    coefficients = _csv(_element(i, 3, 7) for i in rng.sample(range(3**7), 4))
    prime_power = ("--family", "prime-power", "--ell", "1")
    return [
        Invocation(("census", "--p", "3", "--n", "5", *prime_power, "--c", "all")),
        Invocation(("census", "--p", "5", "--n", "3", "--family", "pminus1", "--ell", "1", "--c", "all")),
        Invocation(("census", "--p", "3", "--n", "7", *prime_power, "--c", coefficients)),
        Invocation(("orbits", "--p", "3", "--n", "9", *prime_power, "--c", _element(rng.randrange(3**9), 3, 9))),
    ]


def integer_tables(rng: random.Random) -> list[Invocation]:
    # Prime fields only (n = 1) plus the integer side: sieves, mod-q
    # irreducibility certificates, squarefree trial division.  The density
    # bounds are fixed: the sieve's peak RSS jumps by up to 7% between
    # nearby limits, which a seed-chosen limit would turn into spread.
    lo = rng.randrange(1000, 2000)
    return [
        Invocation(("avg", "--family", "prime-power", "--selector", "p!|c", "--c", str(rng.randrange(1990, 2011)))),
        Invocation(("avg", "--family", "pminus1", "--selector", "p|c-1", "--c", str(rng.randrange(1990, 2011)))),
        Invocation(("density", "--kind", "nc3", "--c", "1000000,2000000,4000000")),
        Invocation(("nf", "--d", "3", "--X", str(rng.randrange(990_000_000, 1_010_000_001)))),
        Invocation(("nf", "--d", "3", f"--c-range={lo}:{lo + 100}")),
        Invocation(("nf", "--d", "3", "--squarefree", str(rng.randrange(9950, 10051)))),
    ]


WORKLOADS = {
    "claims-grid": claims_grid,
    "census-sweep": census_sweep,
    "integer-tables": integer_tables,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocation list; seeds equal mod VARIANTS share one."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed % VARIANTS}"))


# ---------------------------------------------------------------------------
# Running one invocation

def reference_times() -> list[float]:
    """Times of REFERENCE_REPEATS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


@dataclass
class Outcome:
    code: int
    sha256: str
    nbytes: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stderr: str
    reference: list[float]  # reference loop times right before the invocation
    spans: list | None = None
    scale: float = 1.0  # set by calibrate()


def _env(tmp: Path) -> dict[str, str]:
    return {
        "PATH": os.defpath,
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
        "PYTHONIOENCODING": "utf-8",
        "LC_ALL": "C.UTF-8",
        "COLUMNS": "80",
        "HOME": str(tmp),
        "TMPDIR": str(tmp),
    }


def _reap(proc: subprocess.Popen):
    """wait4 on proc; SIGKILL its process group if it outlives the timeout."""

    def kill(signum, frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        kill(None, None)  # orphaned pool workers, if any
    return usage


def invoke(argv: tuple[str, ...], traced: bool = False) -> Outcome:
    """Run one CLI invocation in a fresh temporary directory."""
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="inv-", dir=WORK))
    spans_path = tmp / "spans.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "fixcensus", *argv]
    try:
        reference = reference_times()
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=tmp, env=_env(tmp), stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, start_new_session=True,
            )
            usage = _reap(proc)
            wall = time.perf_counter() - start
        data = (tmp / "stdout").read_bytes()
        spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
        return Outcome(
            code=proc.returncode,
            sha256=hashlib.sha256(data).hexdigest(),
            nbytes=len(data),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            stderr=(tmp / "stderr").read_text(errors="replace")[-500:],
            reference=reference,
            spans=spans,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_pass(invs: list[Invocation], traced: bool = False) -> list[Outcome]:
    return [invoke(inv.argv, traced) for inv in invs]


def calibrate(outcomes: list[Outcome]) -> None:
    """Scale outcomes run close together by the median of their reference times.

    Pooling the reference times of a whole pass follows the host's drift,
    which takes tens of seconds, with less noise than one invocation's own.
    """
    scale = REFERENCE_S / statistics.median(t for o in outcomes for t in o.reference)
    for o in outcomes:
        o.scale = scale


def check_pass(invs: list[Invocation], outcomes: list[Outcome], expected: dict) -> list[str]:
    """One problem line per failed invocation: wrong exit code or stdout."""
    problems = []
    for inv, out in zip(invs, outcomes):
        want = expected.get(inv.key)
        if want is None:
            problems.append(f"no expected output recorded for: {inv.key}")
        elif out.code != want["exit"] or out.sha256 != want["sha256"]:
            problems.append(
                f"{inv.key}: exit {out.code} sha256 {out.sha256[:16]}, expected exit "
                f"{want['exit']} sha256 {want['sha256'][:16]}; stderr: {out.stderr.strip()}"
            )
        elif inv.same_as is not None and out.sha256 != outcomes[inv.same_as].sha256:
            problems.append(f"{inv.key}: stdout differs from {invs[inv.same_as].key}")
    return problems


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass

def layer_table(outcomes: list[Outcome]) -> dict[str, dict]:
    """Per span name: calls, self seconds and the info dicts of its calls."""
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "infos": []})
    for out in outcomes:
        spans = out.spans or []
        child_s = [0.0] * len(spans)
        for name, parent, t0, t1, info in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for (name, parent, t0, t1, info), inner in zip(spans, child_s):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += t1 - t0 - inner
            if info is not None:
                row["infos"].append(info)
    return table


def layer_metrics(table: dict[str, dict], outcomes: list[Outcome]) -> dict[str, float]:
    def infos(name):
        return table[name]["infos"]

    def total(name, field):
        return sum(info[field] for info in infos(name))

    ops_built = [info for info in infos("ff.field_ops") if info["built"]]
    verdicts = Counter(info["verdict"] for info in infos("claims.check_point"))
    statuses = Counter(info["status"] for info in infos("nfcount.irreducibility_status"))
    limits = [info["limit"] for info in infos("stats.prime_sieve")]
    scan_elements = sum(total(name, "elements") for name in SCANS)
    scan_s = sum(table[name]["self_s"] for name in SCANS)
    m = {
        "ff.standard_field.calls": table["ff.standard_field"]["calls"],
        "ff.standard_field.builds": total("ff.standard_field", "built"),
        "ff.standard_field.self_s": table["ff.standard_field"]["self_s"],
        "ff.field_ops.builds": len(ops_built),
        "ff.field_ops.table_builds": sum(info["engine"] == "table" for info in ops_built),
        "ff.field_ops.vector_builds": sum(info["engine"] == "vector" for info in ops_built),
        "ff.field_ops.table_entries": sum(info["q"] ** 2 for info in ops_built if info["engine"] == "table"),
        "ff.field_ops.self_s": table["ff.field_ops"]["self_s"],
        "dynamics.count_profile.distinct": len({tuple(info["key"]) for info in infos("dynamics.count_profile")}),
        "dynamics.elements_per_s": scan_elements / scan_s if scan_s else 0.0,
        "dynamics.integral_fixed_points.calls": table["dynamics.integral_fixed_points"]["calls"],
        "dynamics.self_s": sum(row["self_s"] for name, row in table.items() if name.startswith("dynamics.")),
        "claims.check_point.calls": table["claims.check_point"]["calls"],
        "claims.verdict.holds": verdicts["HOLDS"],
        "claims.verdict.fails": verdicts["FAILS"],
        "claims.verdict.not_applicable": verdicts["NOT-APPLICABLE"],
        "claims.verdict.skipped": verdicts["SKIPPED"],
        "claims.witnesses": total("claims.check_point", "witnesses"),
        "stats.prime_sieve.calls": len(limits),
        "stats.prime_sieve.distinct_limits": len(set(limits)),
        "stats.prime_sieve.limit_sum": sum(limits),
        "nfcount.irreducibility_status.calls": table["nfcount.irreducibility_status"]["calls"],
        "nfcount.irreducibility_status.irreducible": statuses["IRREDUCIBLE"],
        "nfcount.irreducibility_status.reducible": statuses["REDUCIBLE"],
        "nfcount.irreducibility_status.unknown": statuses["UNKNOWN"],
        "nfcount.bounded_trinomials.candidates": total("nfcount.bounded_trinomials", "candidates"),
        "nfcount.trinomial_row.calls": table["nfcount.trinomial_row"]["calls"],
        "cli.main.self_s": table["cli.main"]["self_s"],
        "cli.output_bytes": sum(out.nbytes for out in outcomes),
    }
    for name in SCANS:
        m[f"{name}.calls"] = table[name]["calls"]
        m[f"{name}.elements"] = total(name, "elements")
    return m


# ---------------------------------------------------------------------------
# Runs

def _loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    invs = invocations(workload, seed)
    expected = json.loads(EXPECTED.read_text())["outputs"][workload]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "variant": seed % VARIANTS,
    }
    problems: list[str] = []
    failed = attempted = 0
    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    setup: list[Outcome] = []
    invoke(("--help",))  # warm-up: fills the bytecode cache, not measured
    start = time.perf_counter()
    while True:
        batch: list[Outcome] = []
        if not trace:
            for _ in range(SETUP_PROBES_PER_PASS):
                out = invoke(("--help",))
                attempted += 1
                setup.append(out)
                batch.append(out)
                if out.code != 0 or not out.nbytes:
                    failed += 1
                    problems.append(f"--help: exit {out.code}; stderr: {out.stderr.strip()}")
        for is_traced in (False, True) if trace else (False,):
            outcomes = run_pass(invs, is_traced)
            bad = check_pass(invs, outcomes, expected)
            attempted += len(outcomes)
            failed += len(bad)
            problems += bad
            (traced if is_traced else untraced).append(outcomes)
            batch += outcomes
        calibrate(batch)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    env["loadavg_end"] = _loadavg()
    env["passes"] = len(untraced)

    def median_of(passes, f):
        return statistics.median(f(outcomes) for outcomes in passes)

    def pass_wall(outcomes):
        return sum(o.wall_s for o in outcomes)

    def typical_pass(f):
        # Each invocation's median over passes, summed: the invocations'
        # noise is independent, so this is steadier than the median pass.
        return sum(statistics.median(f(outcomes[i]) for outcomes in untraced) for i in range(len(invs)))

    if not trace:
        metrics = {
            "wall_s": typical_pass(lambda o: o.wall_s * o.scale),
            "cpu_s": typical_pass(lambda o: o.cpu_s * o.scale),
            "peak_rss_mb": median_of(untraced, lambda outs: max(o.maxrss_kb for o in outs) / 1024),
            "setup_s": statistics.median(o.wall_s * o.scale for o in setup),
        }
        units = END_TO_END
        raw = {
            "wall_s": typical_pass(lambda o: o.wall_s),
            "cpu_s": typical_pass(lambda o: o.cpu_s),
            "setup_s": statistics.median(o.wall_s for o in setup),
            "reference_s": statistics.median(t for outs in untraced for o in outs for t in o.reference),
        }
        print("# raw " + json.dumps(raw))
    else:
        tables = [layer_table(outcomes) for outcomes in traced]
        per_pass = [layer_metrics(t, outcomes) for t, outcomes in zip(tables, traced)]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                metrics[name] = median_of(traced, pass_wall) - median_of(untraced, pass_wall)
            elif unit in EXACT_UNITS:
                values = [m[name] for m in per_pass]
                metrics[name] = values[0]
                if len(set(values)) > 1:
                    problems.append(f"{name} differs between traced passes: {values}")
            else:
                metrics[name] = statistics.median(m[name] for m in per_pass)
        functions = {
            name: {
                "calls": tables[0][name]["calls"],
                "self_s": statistics.median(t[name]["self_s"] for t in tables),
            }
            for name in sorted(tables[0])
            if tables[0][name]["calls"]
        }
        units = PER_LAYER
        summary = {
            "workload": workload,
            "seed": seed,
            "env": env,
            "invocations": [inv.key for inv in invs],
            "untraced_sha256": [o.sha256 for o in untraced[0]],
            "traced_sha256": [o.sha256 for o in traced[0]],
            "functions": functions,
            "metrics": metrics,
        }
        (WORK / f"trace-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
        print("# functions " + json.dumps(functions))
    print("# env " + json.dumps(env))
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fixcensus" / "__main__.py").is_file():
        print(f"error: no fixcensus sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
