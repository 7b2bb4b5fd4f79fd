"""Benchmark of the mscs package: construction, exact verification and PMEPR.

Run from the root of a checkout:

    python3 perfbench/run.py --workload full-band --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Load model: one single-threaded closed loop, no concurrency.  Each run
first writes the reference digests, energy inputs and flipped control
documents the checks need, then starts fresh workload processes
(``worker.py``) one after another: a few that only set up, for the
``setup_s`` median, then one that measures.  The measuring process calls
``mscs.cli.main(argv)`` in process, so interpreter start and ``import mscs``
are paid once and counted in ``setup_s``.  Numeric library threads are
capped at the number of CPUs.

The benchmark draws every construction parameter from ``--seed`` and
writes explicit parameter files; the program never sees the seed.

The measuring process repeats rounds over the workload's sets until
``--seconds`` have passed.  Every time is scaled to a reference host speed
with the calibration samples taken around it (see ``calibrate.py``), so
the figures follow the program and not the drifting speed of a shared
host; the run record keeps the unscaled figures too.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics (each operation's median over the run, summed per metric); with
``--trace 1`` it holds the per-layer metrics of the traced rounds.  A
record of every run, with the git revision, CPU count, Python and numpy
versions and the seed, is written under ``.perfbench_out/`` in the
checkout, with the spans of traced runs.

``--smoke`` runs every workload at reduced sizes, one warm-up, one traced
and one untraced round, and checks outputs, the flipped controls and the
span tree.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("full-band", "sparse-band", "pmepr-export", "small-sweep")
SETUP_RUNS = 5  # set-up samples per measured run: SETUP_RUNS - 1 probes plus the measuring process
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CSV_MEAN_TOL = 1e-9
PRINTED_DIGITS_TOL = 6e-7  # set pmepr is printed with 6 decimals, CSV values with 10 digits

END_TO_END = (("generate_s", "s"), ("verify_s", "s"), ("pmepr_s", "s"), ("energy_s", "s"),
              ("total_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    return env


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def start_worker(args, tag: str, deadline: float, refs: Path, *, setup_only=False, trace=0,
                 smoke=False, spans: Path | None = None) -> tuple[dict, float]:
    """Run one workload process to completion; returns (its result, its launch time).

    The process's scratch directory is ``OUT/work-<tag>``; the caller removes it.
    """
    result_path = OUT / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--work", str(OUT / f"work-{tag}"), "--refs", str(refs), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if smoke:
        cmd.append("--smoke")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    launched = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process {tag} passed the run deadline") from None
    if rc != 0 or not result_path.exists():
        raise BenchError(f"workload process {tag} exited with code {rc}")
    with open(result_path) as fh:
        result = json.load(fh)
    result_path.unlink()
    return result, launched


def check_csv(kept: dict) -> list[str]:
    """Full check of one IAPR CSV: shape, time column, column means and the max."""
    rows, M, peak = kept["rows"], kept["members"], kept["peak"]
    data = np.loadtxt(kept["path"], delimiter=",", comments="#", ndmin=2)
    if data.shape != (rows, M + 1):
        return [f"csv shape {data.shape}, expected {(rows, M + 1)}"]
    problems = []
    if np.max(np.abs(data[:, 0] - np.arange(rows) / rows)) > CSV_MEAN_TOL:
        problems.append("csv time column is not j/(N_os*L)")
    mean_err = float(np.max(np.abs(data[:, 1:].mean(axis=0) - 1.0)))
    if mean_err > CSV_MEAN_TOL:
        problems.append(f"csv column mean off 1 by {mean_err:.3e}")
    if abs(float(data[:, 1:].max()) - peak) > PRINTED_DIGITS_TOL:
        problems.append(f"csv max {data[:, 1:].max()} is not the set pmepr {peak}")
    return [f"pmepr {kept['name']}: {p}" for p in problems]


def run_workload(args, tag: str, deadline: float, *, probes=0, trace=0, smoke=False) -> dict:
    """Write the references, run the set-up probes and the measuring process, check the CSVs.

    Returns the measuring process's result with ``setup_samples`` (launch
    to first operation, and the calibration sample taken right after, of
    every probe and of the measuring process) and the CSV check failures
    added.
    """
    refs = OUT / f"refs-{tag}"
    tags = [f"{tag}-probe{i}" for i in range(probes)] + [tag]
    try:
        refs.mkdir()
        specs.write_references(specs.build_specs(args.workload, args.seed, smoke), refs)
        setup_samples = []
        for t in tags:
            setup_only = t != tag
            spans = OUT / f"{tag}.spans.jsonl" if trace and not setup_only else None
            result, launched = start_worker(args, t, deadline, refs, setup_only=setup_only,
                                            trace=trace, smoke=smoke, spans=spans)
            setup_samples.append([result["first_op_at"] - launched, result["calibration"][0][1]])
        problems = [p for kept in result["kept_csvs"] for p in check_csv(kept)]
    finally:
        shutil.rmtree(refs, ignore_errors=True)
        for t in tags:
            shutil.rmtree(OUT / f"work-{t}", ignore_errors=True)
    result["setup_samples"] = setup_samples
    result["failures"] += problems
    result["failed"] += len(problems)
    return result


CATEGORIES = ("generate_s", "verify_s", "pmepr_s", "energy_s")


def slowdown_around(calibration: list, t0: float, t1: float) -> float:
    """The host's slowdown over [t0, t1]: the mean over the calibration samples around it.

    Takes the last sample started at or before ``t0``, the first started at
    or after ``t1`` and every sample between them.  Samples are taken only
    between operations, so for one operation these are the two samples that
    bracket it.
    """
    times = [t for t, _ in calibration]
    lo = max(bisect.bisect_right(times, t0) - 1, 0)
    hi = bisect.bisect_left(times, t1, lo)
    return statistics.fmean(calibrate.slowdown(parts) for _, parts in calibration[lo:hi + 1])


def operation_times(visits: list, calibration: list | None) -> dict:
    """Per category, the sum over operations of each operation's median time across visits.

    Each time is divided by the host's slowdown around it, unless
    ``calibration`` is None.  Taking the median per operation, not per
    pass, keeps a slow stretch of the machine that spans part of a pass
    from moving the whole pass.
    """
    samples: dict[tuple, tuple] = {}
    for k, _, ops in visits:
        for j, (category, t0, secs) in enumerate(ops):
            if calibration is not None:
                secs /= slowdown_around(calibration, t0, t0 + secs)
            samples.setdefault((k, j), (category, []))[1].append(secs)
    out = dict.fromkeys(CATEGORIES, 0.0)
    for category, secs in samples.values():
        out[category] += statistics.median(secs)
    out["total_s"] = sum(out.values())
    return out


def end_to_end_metrics(main: dict, calibrated=True) -> dict:
    plain = [v for v in main["visits"] if v[1] == "plain"]
    out = operation_times(plain, main["calibration"] if calibrated else None)
    out["setup_s"] = statistics.median(s / calibrate.slowdown(parts) if calibrated else s
                                       for s, parts in main["setup_samples"])
    out["peak_rss_mb"] = main["peak_rss_kb"] / 1024.0
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def per_layer_metrics(main: dict) -> dict:
    """Median over the traced passes of each per-layer metric, times at the reference speed.

    ``cli.csv_write_s`` and ``cli.csv_bytes`` are 0 on workloads that write
    no IAPR CSV.  ``trace.overhead_s`` is the difference of two medians, so
    on a workload where tracing costs little it can come out negative.
    """
    calibration = main["calibration"]
    passes = []
    for layer in main["layers"]:
        slow = slowdown_around(calibration, layer["start"], layer["end"])
        passes.append({name: v / slow if per_layer_unit(name) == "s" else v
                       for name, v in layer["metrics"].items()})
    out = {name: statistics.median(p[name] for p in passes) for name in passes[0]}

    def total(phase):
        visits = [v for v in main["visits"] if v[1] == phase]
        return operation_times(visits, calibration)["total_s"]

    out["trace.overhead_s"] = total("traced") - total("plain")
    return out


def measure(args) -> dict:
    """One benchmark run of one workload; returns the run record."""
    deadline = perf_counter() + RUN_DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    main = run_workload(args, tag, deadline, probes=0 if args.trace else SETUP_RUNS - 1,
                        trace=args.trace)
    if args.trace:
        metrics = per_layer_metrics(main)
        units = {name: per_layer_unit(name) for name in metrics}
        raw = None
    else:
        metrics = end_to_end_metrics(main)
        units = dict(END_TO_END)
        raw = end_to_end_metrics(main, calibrated=False)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "nproc": nproc(),
        "python": main["python"], "numpy": main["numpy"], "platform": platform.platform(),
        "kernel_parts": calibrate.PARTS, "kernel_reference_s": calibrate.REFERENCE_S,
        "setup_samples": main["setup_samples"], "visits": main["visits"],
        "calibration": main["calibration"], "layers": main["layers"],
        "attempted": main["attempted"], "failed": main["failed"],
        "failures": main["failures"], "trace_errors": main["trace_errors"],
        "controls_checked": main["controls_checked"],
        "controls_detected": main["controls_detected"],
        "uncalibrated_metrics": raw,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    with open(OUT / f"{tag}.record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def smoke(args) -> int:
    """Run every workload at reduced sizes, one traced and one untraced round; 0 if all checks hold."""
    ok = True
    for workload in WORKLOADS if args.workload is None else (args.workload,):
        run_args = argparse.Namespace(workload=workload, seed=args.seed, seconds=0)
        main = run_workload(run_args, f"smoke-{workload}", perf_counter() + RUN_DEADLINE_S,
                            trace=1, smoke=True)
        problems = main["failures"] + main["trace_errors"]
        checked, detected = main["controls_checked"], main["controls_detected"]
        if workload == "full-band" and not 0 < checked == detected:
            problems.append(f"flipped control detected in {detected} of {checked} operations")
        print(f"smoke {workload}: {main['attempted']} operations, "
              f"{'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def report(record: dict) -> None:
    """Print the run's metrics by name and unit; the last line is the JSON result."""
    for problem in record["failures"] + record["trace_errors"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}:")
    print(f"  failed_ops = {record['failed'] / record['attempted']:.6g} share "
          f"({record['failed']} of {record['attempted']} operations)")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["trace_errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mscs benchmark")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="workload to run (default: all of them, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mscs" / "__init__.py").is_file():
        print(f"error: no mscs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke(args)
        for workload in [args.workload] if args.workload else WORKLOADS:
            report(measure(argparse.Namespace(**{**vars(args), "workload": workload})))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
