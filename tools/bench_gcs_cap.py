"""Time exact GCS verification of a seeded set near the length cap, in process.

Builds the M = 30, lambda = 30, L = 972000 GCS of three blocks (2^5, 3^5,
5^3; permutations and coefficients drawn from ``random.Random(SEED)``),
times ``verify_gcs`` on it, then the writing of its set document
(``write_document(document_from_set(sset))``, to a temporary file), and
prints one JSON record: build, verify and write wall time, verify CPU
time, peak RSS, the verdict, the document's byte count and sha256 (equal
digests mean two revisions wrote the same bytes), the checkout's git
revision and the git tree hash of its ``src`` directory as it was run,
which equals ``git rev-parse REV:src`` of the revision that commits that
code.  The CPU time leaves out time spent waiting for a processor, so on
a shared host it is the steadier figure.

    python tools/bench_gcs_cap.py [--repo CHECKOUT] [--out FILE --label NAME]

``--repo`` imports mscs from CHECKOUT/src (default: the checkout holding
this script), so an older revision can be timed by the same script.  With
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


def measure(repo: Path) -> dict:
    sys.path.insert(0, str(repo / "src"))
    import random

    import numpy as np
    from mscs.cli import document_from_set, write_document
    from mscs.constructions import multi_prime_mscs, random_block
    from mscs.correlation import verify_gcs

    rng = random.Random(SEED)
    t0 = perf_counter()
    sset = multi_prime_mscs([random_block(rng, p, m, 1, MODULUS) for p, m in BLOCKS], MODULUS)
    t1 = perf_counter()
    build_rss = _peak_rss_mb()
    c1 = process_time()
    report = verify_gcs(sset)
    t2, c2 = perf_counter(), process_time()
    verify_rss = _peak_rss_mb()
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
    return {
        "revision": _git(repo, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(repo, "status", "--porcelain", "--untracked-files=no")),
        "src_tree": _src_tree(repo),
        "seed": SEED,
        "set": {"M": len(sset), "L": sset.length, "lambda": sset.modulus},
        "verdict": "pass" if report.passed else "fail",
        "mode": report.mode,
        "shifts_checked": len(report.shifts),
        "build_s": round(t1 - t0, 3),
        "verify_s": round(t2 - t1, 3),
        "verify_cpu_s": round(c2 - c1, 3),
        "write_s": round(t4 - t3, 3),
        "document_bytes": written,
        "document_sha256": digest.hexdigest(),
        "peak_rss_mb_after_build": round(build_rss, 1),
        "peak_rss_mb": round(verify_rss, 1),
        "peak_rss_mb_after_write": round(_peak_rss_mb(), 1),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="run")
    args = ap.parse_args()
    record = measure(args.repo.resolve())
    print(json.dumps(record, indent=2))
    if args.out is not None:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {
            "benchmark": "exact GCS verification near the length cap (tools/bench_gcs_cap.py)",
            "runs": {}}
        bench["runs"][args.label] = record
        args.out.write_text(json.dumps(bench, indent=2) + "\n")


if __name__ == "__main__":
    main()
