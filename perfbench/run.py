"""bosonbudget benchmark: one closed-loop client per workload, in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``--trace 0`` runs the timed loop with tracing off for ``--seconds`` and
reports the end-to-end metrics; the host-speed probe (``probe.py``) runs
alongside it. ``--trace 1`` runs a fixed number of op
cycles per workload, whatever ``--seconds`` is, each op once untraced and
once more, with the same seed, with the span tracer installed, and reports
the per-layer metrics per cycle; the two runs of an op must write
byte-identical files. ``--workload all`` runs
every workload both ways, one child process at a time. ``--tiny`` shrinks
every size, for the smoke test.

Every metric is printed on its own line as ``[workload] name = value unit``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# The timed loop always runs this many whole cycles, and reads peak_rss_mb
# after them: the process's peak RSS still grows by 1-3 MB per distance op
# after the first, so a reading at the end of the run would count cycles.
WHOLE_CYCLES = 2
NPROC = len(os.sched_getaffinity(0))

# Load is one Python thread plus numpy's BLAS pool, held to one thread: the
# host-speed probe (probe.py) samples the main thread's core only, so work
# on a second core would escape it. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bosonbudget.cli, bosonbudget; "
    "print(time.perf_counter() - t); print(bosonbudget.__file__)"
)


def _import_package():
    """Import bosonbudget from this checkout's src/, or exit 2."""
    if not (SRC / "bosonbudget" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'bosonbudget'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import bosonbudget

    if Path(bosonbudget.__file__).resolve().parent != (SRC / "bosonbudget").resolve():
        print(f"perfbench: imported bosonbudget from {bosonbudget.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as each CLI run pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60, check=True)
    seconds, where = proc.stdout.split("\n")[:2]
    if Path(where).resolve().parent != (SRC / "bosonbudget").resolve():
        raise RuntimeError(f"import probe loaded bosonbudget from {where}")
    return float(seconds)


def git_commit() -> str:
    """HEAD of the checkout, or a note when the checkout is not a git repository."""
    # The ceiling keeps git from finding a repository that merely encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "tiny" if args.tiny else "full",
        "client": "closed loop, 1 client, 1 Python thread",
    }


# ---------------------------------------------------------------------------
# running ops


@dataclass(slots=True)
class Record:
    """One op as run: its cycle position, kind, time, error (None when correct) and output digest.

    ``seconds`` leaves out the time the host probe took during the op;
    ``start`` and ``end`` bound the op, and ``ref`` is the probe's kernel
    time over that span (None when no probe ran).
    """

    position: int
    kind: str
    seconds: float
    error: str | None
    digest: str | None
    work: int
    start: float
    end: float
    ref: float | None = None


def run_op(op, position: int, digest: bool, probe=None) -> Record:
    probed = probe.overhead if probe else 0.0
    t0 = time.perf_counter()
    try:
        value = op.run()
    except (Exception, SystemExit) as exc:  # the loop must go on; the failure is counted
        t1 = time.perf_counter()
        seconds = t1 - t0 - ((probe.overhead if probe else 0.0) - probed)
        traceback.print_exc(file=sys.stderr)
        return Record(position, op.kind, seconds, f"{op.kind}: {type(exc).__name__}: {exc}", None, op.work,
                      t0, t1)
    t1 = time.perf_counter()
    seconds = t1 - t0 - ((probe.overhead if probe else 0.0) - probed)
    try:
        error = op.check(value)
    except (KeyError, TypeError, ValueError) as exc:  # a report missing a field fails the op
        error = f"{op.kind}: malformed output: {exc!r}"
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
    h = None
    if digest:
        h = hashlib.sha256(repr(value).encode())
        for path in op.outputs:
            h.update(Path(path).read_bytes())
        h = h.hexdigest()
    return Record(position, op.kind, seconds, error, h, op.work, t0, t1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cycles(plan, seconds: float, probe) -> tuple[list[Record], float]:
    """Ops in cycle order, each after the previous returns, until ``seconds``
    have passed; the first WHOLE_CYCLES cycles always run whole.

    Returns the records and the peak RSS in MB at the end of those cycles.
    """
    records: list[Record] = []
    index = 0
    cycles = 0
    peak = 0.0
    start = time.perf_counter()
    while True:
        ops = plan.cycle(index)
        for position, op in enumerate(ops):
            if cycles >= WHOLE_CYCLES and time.perf_counter() - start >= seconds:
                return records, peak
            records.append(run_op(op, position, digest=False, probe=probe))
        index += len(ops)
        cycles += 1
        if cycles == WHOLE_CYCLES:
            peak = peak_rss_mb()


def run_oracle(plan) -> list[str]:
    try:
        errors = plan.oracle()
    except Exception as exc:  # a crashing oracle is a failed check, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        errors = [f"oracle: {type(exc).__name__}: {exc}"]
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    return errors


# ---------------------------------------------------------------------------
# metrics


def p90_and_beyond(values: list[float]) -> tuple[float, int]:
    """p90 by the inclusive method, and how many samples lie beyond it."""
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    return p90, sum(v > p90 for v in values)


def end_to_end(records: list[Record], wall: float, setup: float, peak: float, probe) -> tuple[dict, dict]:
    """Gated metrics (every workload reports each) and workload-specific extras."""
    by_position: dict[int, list[float]] = {}
    ref_by_position: dict[int, list[float]] = {}
    by_kind: dict[str, list[Record]] = {}
    for r in records:
        by_position.setdefault(r.position, []).append(r.seconds)
        ref_by_position.setdefault(r.position, []).append(r.seconds / r.ref)
        by_kind.setdefault(r.kind, []).append(r)
    cycles = f"{len(by_position[0])} to {len(by_position[len(by_position) - 1])} cycles"
    gated = {
        "setup_s": (setup, "s", f"median of {SETUP_REPEATS} set-ups"),
        "cycle_ref": (sum(statistics.median(v) for v in ref_by_position.values()), "ref",
                      f"sum over {len(by_position)} cycle positions of the median op time "
                      f"in host-probe kernel times, {cycles}"),
        "peak_rss_mb": (peak, "MB", f"ru_maxrss of the workload process after {WHOLE_CYCLES} cycles"),
    }
    failed = sum(r.error is not None for r in records)
    extra = {
        "wall_s": (wall, "s", "timed loop"),
        "error_rate": (failed / len(records), "ratio", f"{failed} of {len(records)} ops failed"),
        "cycle_s": (sum(statistics.median(v) for v in by_position.values()), "s",
                    f"sum over {len(by_position)} cycle positions of the median op time, {cycles}"),
        "probe_kernel_ms": (statistics.median(probe.durations) * 1e3, "ms",
                            f"median of {len(probe.durations)} host-probe samples; the probe took "
                            f"{probe.overhead / wall:.1%} of the loop"),
    }
    for kind, recs in sorted(by_kind.items()):
        if kind == "budget":
            continue  # reported in ms below, with its p90
        vals = [r.seconds for r in recs]
        extra[f"{kind}_p50_s"] = (statistics.median(vals), "s", f"n={len(vals)}")
    if "distance" in by_kind:
        recs = by_kind["distance"]
        extra["patterns_per_s"] = (sum(r.work for r in recs) / sum(r.seconds for r in recs), "1/s",
                                   f"{recs[0].work} N-click patterns per distance op")
    if "distribution" in by_kind:
        recs = by_kind["distribution"]
        extra["outcomes_per_s"] = (sum(r.work for r in recs) / sum(r.seconds for r in recs), "1/s",
                                   f"{recs[0].work} outcomes per table")
    if "budget" in by_kind:
        vals = [r.seconds * 1e3 for r in by_kind["budget"]]
        extra["budget_p50_ms"] = (statistics.median(vals), "ms", f"n={len(vals)}")
        p90, beyond = p90_and_beyond(vals)
        extra["budget_p90_ms"] = (p90, "ms", f"n={len(vals)}, {beyond} beyond")
    return gated, extra


def print_metrics(workload: str, metrics: dict) -> None:
    for name, (value, unit, note) in metrics.items():
        suffix = f"  ({note})" if note else ""
        print(f"[{workload}] {name} = {value!r} {unit}{suffix}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# one workload


def run_workload(args, make) -> None:
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print("env " + json.dumps(environment(args), sort_keys=True))
        if args.trace:
            attempted, failed, metrics = traced_run(make, work, args)
            print_metrics(args.workload, metrics)
        else:
            attempted, failed, metrics = timed_run(make, work, args)
        print(result_line(failed == 0, attempted, failed, metrics))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_run(make, work: Path, args):
    from probe import HostProbe

    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        plan = make(work, args.seed, args.tiny)
        setups.append(t_import + time.perf_counter() - t0)
    with HostProbe() as probe:
        probe.settle()
        t0 = time.perf_counter()
        records, peak = run_cycles(plan, args.seconds, probe)
        wall = time.perf_counter() - t0
        probe.settle()
    for r in records:
        r.ref = probe.speed(r.start, r.end)
    oracle_ok = not run_oracle(plan)
    gated, extra = end_to_end(records, wall, statistics.median(setups), peak, probe)
    print_metrics(args.workload, extra)
    print_metrics(args.workload, gated)
    # The oracle comparison counts as one more op.
    failed = sum(r.error is not None for r in records) + (not oracle_ok)
    return len(records) + 1, failed, gated


def traced_run(make, work: Path, args):
    from spans import Tracer, layer_metrics

    plan = make(work, args.seed, args.tiny)
    tracer = Tracer()
    untraced: list[Record] = []
    traced: list[Record] = []
    index = 0
    # Each op runs untraced and, with the same seed, traced, back to back, so
    # that both see the same machine state and overwrite the same files. The
    # order alternates by cycle, so that neither run always goes first.
    sides = ((untraced, False), (traced, True))
    for cycle in range(plan.trace_cycles):
        ops = plan.cycle(index)
        for position, op in enumerate(ops):
            for records, tracing in sides if cycle % 2 == 0 else sides[::-1]:
                if tracing:
                    tracer.install()
                try:
                    records.append(run_op(op, position, digest=True))
                finally:
                    tracer.uninstall()
        index += len(ops)
    for a, b in zip(untraced, traced):
        if b.error is None and a.digest != b.digest:
            b.error = f"traced {b.kind} op wrote different output than the untraced one"
            print(f"perfbench: {b.error}", file=sys.stderr)
    untraced_wall = sum(r.seconds for r in untraced)
    traced_wall = sum(r.seconds for r in traced)
    self_sum = tracer.self_sum()
    # Self times telescope to the root spans, which cover each traced op.
    sums_ok = abs(self_sum - traced_wall) <= 0.01 * traced_wall
    if not sums_ok:
        print(f"perfbench: layer self times sum to {self_sum!r} s, traced wall is {traced_wall!r} s",
              file=sys.stderr)
    oracle_ok = not run_oracle(plan)
    records = untraced + traced
    # The oracle comparison and the self-time sum each count as one more op.
    failed = sum(r.error is not None for r in records) + (not oracle_ok) + (not sums_ok)
    return len(records) + 2, failed, layer_metrics(tracer, untraced_wall, traced_wall, plan.trace_cycles)


# ---------------------------------------------------------------------------
# every workload


def run_all(args, names) -> None:
    """Each workload untraced then traced, one child process at a time."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"perfbench: {name} --trace {trace} exited with code {proc.returncode}", file=sys.stderr)
                raise SystemExit(proc.returncode or 1)
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": (v["value"], v["unit"], "") for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))


def main(argv=None) -> None:
    _import_package()
    import workloads

    names = tuple(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args, names)
    else:
        run_workload(args, workloads.WORKLOADS[args.workload])


if __name__ == "__main__":
    main()
