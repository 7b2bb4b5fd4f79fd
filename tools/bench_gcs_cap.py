"""Time exact GCS verification and PMEPR of a seeded set near the length cap, in process and by the CLI.

Builds the M = 30, lambda = 30, L = 972000 GCS of three blocks (2^5, 3^5,
5^3; permutations and coefficients drawn from ``random.Random(SEED)``),
times ``verify_gcs`` on it, then the writing of its set document
(``write_document(document_from_set(sset))``, to a temporary file), then
``mscs verify`` and ``mscs pmepr`` (default oversampling) of that document,
each in a child process, and prints one JSON record: build, verify and
write wall time, verify CPU time, peak RSS, the verdict, the worker threads
the verification transformed with, the document's byte count and sha256
(equal digests mean two revisions wrote the same bytes), each child's wall
time, peak RSS, exit code and stdout sha256 (the children read the
document by a fixed relative name, so equal digests mean equal output),
the checkout's git revision
and the git tree hash of its ``src`` directory as it was run,
which equals ``git rev-parse REV:src`` of the revision that commits that
code.  The CPU time leaves out time spent waiting for a processor, so on
a shared host it is the steadier figure.

    python tools/bench_gcs_cap.py [--repo CHECKOUT] [--cpus N] [--out FILE --label NAME]

``--repo`` imports mscs from CHECKOUT/src (default: the checkout holding
this script), so an older revision can be timed by the same script.
``--cpus N`` makes ``os.sched_getaffinity`` report N CPUs while the set is
verified in process, so the verification takes at most N worker threads;
the child process sees the CPUs this process may run on.  With
``--out`` the record is also stored under ``runs[NAME]`` of the JSON file
FILE, which is created if it does not exist.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

BLOCKS = ((2, 5), (3, 5), (5, 3))
MODULUS = 30
SEED = 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Runs argv[2:] and writes its wall time, peak RSS in KB and exit code to fd argv[1].
# A child's ru_maxrss starts from the peak of the process it was spawned from (the
# kernel carries the old address space's high-water mark across exec), so the
# child is spawned from this small process rather than from the measuring one.
_LAUNCHER = """\
import os, subprocess, sys
from time import perf_counter
t0 = perf_counter()
proc = subprocess.Popen(sys.argv[2:])
# wait4 gives this child's own resource usage, not the maximum over all children
_, status, usage = os.wait4(proc.pid, 0)
report = f"{perf_counter() - t0} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}"
os.write(int(sys.argv[1]), report.encode())
"""


def _run_child(argv: list[str], cwd: str, env: dict) -> tuple[float, float, int, bytes]:
    """Wall time, peak RSS in MB, exit code and stdout of one child process."""
    read_end, write_end = os.pipe()
    launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER, str(write_end), *argv],
                                cwd=cwd, env=env, stdout=subprocess.PIPE, pass_fds=(write_end,))
    os.close(write_end)
    out = launcher.stdout.read()
    launcher.stdout.close()
    launcher.wait()
    with os.fdopen(read_end) as fh:
        wall, rss_kb, code = fh.read().split()
    return float(wall), int(rss_kb) / 1024, int(code), out


def _git(repo: Path, *args: str, env: dict | None = None) -> str:
    done = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          env=env)
    return done.stdout.strip() if done.returncode == 0 else ""


def _src_tree(repo: Path) -> str:
    """Tree hash of the working copy's src directory, through a scratch index."""
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(scratch) / "index")}
        _git(repo, "read-tree", "--empty", env=env)
        _git(repo, "add", "--", "src", env=env)
        return _git(repo, "write-tree", "--prefix=src/", env=env)


def measure(repo: Path, cpus: int | None = None) -> dict:
    sys.path.insert(0, str(repo / "src"))
    import random

    import numpy as np
    from mscs import correlation
    from mscs.cli import document_from_set, write_document
    from mscs.constructions import multi_prime_mscs, random_block
    from mscs.correlation import verify_gcs

    # the largest worker count a transform map ran with; a revision without one runs one
    workers = [1]
    map_in_order = getattr(correlation, "_map_in_order", None)
    if map_in_order is not None:
        def spy(fn, items, count):
            workers.append(count)
            return map_in_order(fn, items, count)
        correlation._map_in_order = spy
    affinity = os.sched_getaffinity

    rng = random.Random(SEED)
    t0 = perf_counter()
    sset = multi_prime_mscs([random_block(rng, p, m, 1, MODULUS) for p, m in BLOCKS], MODULUS)
    t1 = perf_counter()
    build_rss = _peak_rss_mb()
    if cpus is not None:
        os.sched_getaffinity = lambda pid: set(range(cpus))
    try:
        c1 = process_time()
        report = verify_gcs(sset)
        t2, c2 = perf_counter(), process_time()
    finally:
        os.sched_getaffinity = affinity
    verify_rss = _peak_rss_mb()
    shape = {"M": len(sset), "L": sset.length, "lambda": sset.modulus}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "gcs_cap.json"
        t3 = perf_counter()
        write_document(document_from_set(sset), str(path))
        t4 = perf_counter()
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 24):
                digest.update(chunk)
        written = path.stat().st_size
        # the child's memory comes on top of this process's; the set is not needed again
        del sset
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        cli_s, cli_rss, cli_exit, cli_out = _run_child(
            [sys.executable, "-m", "mscs", "verify", path.name], scratch, env)
        pmepr_s, pmepr_rss, pmepr_exit, pmepr_out = _run_child(
            [sys.executable, "-m", "mscs", "pmepr", path.name], scratch, env)
    return {
        "revision": _git(repo, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(repo, "status", "--porcelain", "--untracked-files=no")),
        "src_tree": _src_tree(repo),
        "seed": SEED,
        "set": shape,
        "verdict": "pass" if report.passed else "fail",
        "mode": report.mode,
        "shifts_checked": len(report.shifts),
        "build_s": round(t1 - t0, 3),
        "verify_s": round(t2 - t1, 3),
        "verify_cpu_s": round(c2 - c1, 3),
        "verify_cpus": cpus if cpus is not None else len(affinity(0)),
        "verify_workers": max(workers),
        "write_s": round(t4 - t3, 3),
        "document_bytes": written,
        "document_sha256": digest.hexdigest(),
        "peak_rss_mb_after_build": round(build_rss, 1),
        "peak_rss_mb": round(verify_rss, 1),
        "peak_rss_mb_after_write": round(_peak_rss_mb(), 1),
        "cli_verify_s": round(cli_s, 3),
        "cli_verify_peak_rss_mb": round(cli_rss, 1),
        "cli_verify_exit_code": cli_exit,
        "cli_verify_stdout_sha256": hashlib.sha256(cli_out).hexdigest(),
        "cli_pmepr_s": round(pmepr_s, 3),
        "cli_pmepr_peak_rss_mb": round(pmepr_rss, 1),
        "cli_pmepr_exit_code": pmepr_exit,
        "cli_pmepr_stdout_sha256": hashlib.sha256(pmepr_out).hexdigest(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--cpus", type=int, help="CPUs the in-process verification may use")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="run")
    args = ap.parse_args()
    record = measure(args.repo.resolve(), args.cpus)
    print(json.dumps(record, indent=2))
    if args.out is not None:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {
            "benchmark": "exact GCS verification near the length cap (tools/bench_gcs_cap.py)",
            "runs": {}}
        bench["runs"][args.label] = record
        args.out.write_text(json.dumps(bench, indent=2) + "\n")


if __name__ == "__main__":
    main()
