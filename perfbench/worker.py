"""One workload process: set up, then push the workload's sets through mscs in a closed loop.

Started by ``run.py``, once per measured run and a few more times for set-up
probes.  Set-up is everything before the first timed operation: interpreter
start, ``import mscs`` and writing the parameter files.  Each round then runs
every set of the workload, one operation at a time:

* ``mscs generate --params P --out D`` (via ``mscs.cli.main``, in process),
* ``mscs verify D`` with the workload's claim flags,
* ``mscs pmepr D --n-os N`` (``--iapr-out C`` where the workload asks for it),
* the library call ``energy_identity_check``.

Every operation's output is checked; the checks run between operations and
are not timed.  The reference digests, the energy inputs and the flipped
control documents come from ``--refs``, written by ``run.py`` before this
process starts, so the process's peak memory is the program's and not the
reference construction's.  The first IAPR CSV of each set is kept for
``run.py`` to check in full after this process ends; later ones must match
its digest.  Before each operation the calibration kernel runs if the last
calibration sample is older than ``CALIBRATE_EVERY_S``, and once more after
the last operation, so every operation lies between two samples.

Rounds over the sets repeat until the run has lasted ``--seconds``.  With
``--trace 1`` the rounds alternate traced and untraced, so the traced run
also measures the tracing overhead.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import specs
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ENERGY_TOL = 1e-9
CONTROL_MIN_DEVIATION = 1e-6
PRINTED_DIGITS_TOL = 6e-7  # set pmepr is printed with 6 decimals
CALIBRATE_EVERY_S = 0.2  # a sample takes about 35 ms


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


class Runner:
    """Runs the operations on one workload's sets and checks every output."""

    def __init__(self, set_specs, work: Path, refs: Path):
        self.cli_main = sys.modules["mscs.cli"].main
        self.pmepr_mod = sys.modules["mscs.pmepr"]
        self.seqcore = sys.modules["mscs.seqcore"]
        self.set_specs = set_specs
        self.work = work
        self.refs = refs
        self.digests = json.loads((refs / specs.DIGESTS_FILE).read_text())
        self.energy_inputs: dict = {}
        self.first_op_at: float | None = None
        self.kernel: calibrate.Kernel | None = None
        self.calibration: list = []  # [time, kernel seconds]
        self.op_id = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.controls_checked = 0
        self.controls_detected = 0
        self.csv_digests: dict[str, str] = {}
        self.kept_csvs: list[dict] = []

    def path(self, name: str, suffix: str) -> str:
        return str(self.work / f"{name}{suffix}")

    def document(self, spec) -> str:
        """A control's document is the flipped copy under ``--refs``; others are generated."""
        if spec.flip_of is not None:
            return str(self.refs / f"{spec.name}.json")
        return self.path(spec.name, ".json")

    def write_params(self) -> None:
        for spec in self.set_specs:
            if spec.flip_of is None:
                with open(self.path(spec.name, ".params.json"), "w") as fh:
                    json.dump(spec.params, fh)

    def calibrate(self, force: bool = False) -> None:
        """Take a calibration sample if the last one is older than ``CALIBRATE_EVERY_S``."""
        if self.kernel is None:
            self.kernel = calibrate.Kernel()
        now = perf_counter()
        if force or not self.calibration or now - self.calibration[-1][0] >= CALIBRATE_EVERY_S:
            self.calibration.append([now, self.kernel.sample()])

    def timed(self, tracer, fn):
        """Run one operation, capturing its output; returns (value, output, [start, seconds], error)."""
        if self.first_op_at is None:
            self.first_op_at = perf_counter()
        self.calibrate()
        out = io.StringIO()
        value = error = None
        if tracer is not None:
            tracer.op_id = self.op_id
            idx = tracer.enter(tr.OP)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                value = fn()
        except Exception as exc:  # a crash is a failed operation, not an abort
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.leave(idx)
            tracer.op_id = None
        self.op_id += 1
        self.attempted += 1
        return value, out.getvalue(), [t0, t1 - t0], error

    def record(self, label: str, problems: list[str], error: str | None, output: str) -> None:
        if error is not None:
            problems = [f"raised {error}"] + problems
        if problems:
            tail = " | ".join(output.strip().splitlines()[-3:])
            self.failures.append(f"{label}: {'; '.join(problems)} [output: {tail}]")

    def run_set(self, spec, tracer=None) -> list:
        """Every operation on one set; returns [category, start, seconds] per operation, in order."""
        ops = []
        if spec.flip_of is None:
            ops.append(["generate_s", *self.generate(spec, tracer)])
        ops.append(["verify_s", *self.verify(spec, tracer)])
        if spec.pmepr_n_os is not None:
            ops.append(["pmepr_s", *self.pmepr(spec, tracer)])
        if spec.energy_n_os is not None:
            ops.append(["energy_s", *self.energy(spec, tracer)])
        return ops

    def generate(self, spec, tracer) -> list:
        doc = self.document(spec)
        argv = ["generate", "--params", self.path(spec.name, ".params.json"), "--out", doc]
        rc, out, timing, err = self.timed(tracer, lambda: self.cli_main(argv))
        claim = specs.claim_of(spec.params)
        expected = (f"wrote {doc}: M={specs.set_size_of(spec.params)} L={specs.length_of(spec.params)} "
                    f"lambda={spec.params['lambda']} claim=MSCS S={claim['S']}")
        problems = []
        if rc != 0:
            problems.append(f"rc {rc}, expected 0")
        if expected not in out.splitlines():
            problems.append("summary line missing")
        if rc == 0 and sha256(doc) != self.digests[spec.name]:
            problems.append("document differs from the reference construction")
        self.record(f"generate {spec.name}", problems, err, out)
        return timing

    def verify(self, spec, tracer) -> list:
        argv = ["verify", self.document(spec), *spec.verify_flags]
        rc, out, timing, err = self.timed(tracer, lambda: self.cli_main(argv))
        control = spec.flip_of is not None
        want_rc, want_verdict = (1, "fail") if control else (0, "pass")
        f = _fields(out)
        problems = []
        if rc != want_rc:
            problems.append(f"rc {rc}, expected {want_rc}")
        if f.get("verdict") != want_verdict:
            problems.append(f"verdict {f.get('verdict')!r}, expected {want_verdict!r}")
        if f.get("mode") != "exact":
            problems.append(f"mode {f.get('mode')!r}, expected 'exact'")
        if f.get("shifts checked") != str(spec.shifts):
            problems.append(f"shifts checked {f.get('shifts checked')!r}, expected {spec.shifts}")
        if control:
            self.controls_checked += 1
            self.controls_detected += not problems and err is None
        self.record(f"verify {spec.name} {' '.join(spec.verify_flags)}".rstrip(), problems, err, out)
        return timing

    def pmepr(self, spec, tracer) -> list:
        doc = self.document(spec)
        csv = self.path(spec.name, ".iapr.csv")
        argv = ["pmepr", doc, "--n-os", str(spec.pmepr_n_os)]
        if spec.csv:
            argv += ["--iapr-out", csv]
        rc, out, timing, err = self.timed(tracer, lambda: self.cli_main(argv))
        M, L = specs.set_size_of(spec.params), specs.length_of(spec.params)
        bound = M * specs.claim_of(spec.params)["S"]
        f = _fields(out)
        problems = []
        if rc != 0:
            problems.append(f"rc {rc}, expected 0")
        try:
            per = [float(f[f"pmepr[{i}]"]) for i in range(M)]
            peak = float(f["set pmepr"])
            printed_bound = float(f["bound (M*S)"])
        except (KeyError, ValueError) as exc:
            problems.append(f"unreadable output ({exc})")
        else:
            if printed_bound != bound:
                problems.append(f"bound {printed_bound}, expected M*S={bound}")
            if f.get("bound satisfied") != "yes" or peak > bound:
                problems.append(f"set pmepr {peak} above M*S={bound}")
            if abs(peak - max(per)) > PRINTED_DIGITS_TOL:
                problems.append("set pmepr is not the largest member pmepr")
            if spec.csv and rc == 0:
                problems += self.keep_csv(spec.name, csv, M, L * spec.pmepr_n_os, peak)
        self.record(f"pmepr {spec.name}", problems, err, out)
        return timing

    def keep_csv(self, name: str, csv: str, M: int, rows: int, peak: float) -> list[str]:
        """Keep a set's first CSV for the full check in ``run.py``; later ones must equal it."""
        digest = sha256(csv)
        first = self.csv_digests.setdefault(name, digest)
        if first != digest:
            return ["csv differs from the first one written for the same document"]
        if not any(kept["name"] == name for kept in self.kept_csvs):
            kept = self.path(name, ".first.csv")
            os.replace(csv, kept)
            self.kept_csvs.append({"name": name, "path": kept, "members": M, "rows": rows,
                                   "peak": peak})
        return []

    def energy_input(self, spec):
        """The set the energy check runs on, built once from the reference sequences."""
        if spec.name not in self.energy_inputs:
            seqcore = self.seqcore
            rows = np.load(self.refs / f"{spec.name}.npy")
            self.energy_inputs[spec.name] = seqcore.SequenceSet(
                seqcore.PhaseSequence(spec.params["lambda"], row) for row in rows)
        return self.energy_inputs[spec.name]

    def energy(self, spec, tracer) -> list:
        sset = self.energy_input(spec)
        S = specs.claim_of(spec.params)["S"]
        fn = self.pmepr_mod.energy_identity_check
        dev, out, timing, err = self.timed(tracer, lambda: fn(sset, S, spec.energy_n_os))
        control = spec.flip_of is not None
        problems = []
        if dev is not None and control and not dev > CONTROL_MIN_DEVIATION:
            problems.append(f"control deviation {dev:.3e} not above {CONTROL_MIN_DEVIATION}")
        if dev is not None and not control and not dev < ENERGY_TOL:
            problems.append(f"deviation {dev:.3e} not below {ENERGY_TOL}")
        if control:
            self.controls_checked += 1
            self.controls_detected += not problems and err is None
        self.record(f"energy {spec.name}", problems, err, out)
        return timing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", required=True, help="scratch directory; the caller removes it")
    ap.add_argument("--refs", required=True, help="reference directory written by run.py")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import mscs

    if Path(mscs.__file__).resolve().parent != SRC / "mscs":
        print(f"mscs imported from {mscs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import mscs.cli  # noqa: F401  (binds sys.modules["mscs.cli"] for the runner)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(specs.build_specs(args.workload, args.seed, args.smoke), work, Path(args.refs))
    runner.write_params()
    result = {"numpy": np.__version__, "python": sys.version.split()[0]}
    if args.setup_only:
        result["first_op_at"] = perf_counter()
        runner.calibrate()
        result["calibration"] = runner.calibration
    else:
        result.update(run_rounds(runner, args))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def run_rounds(runner: Runner, args) -> dict:
    """Visit the sets in order, round after round, until ``--seconds`` have passed.

    Untraced runs measure at least one whole round and may stop between
    sets; the first, colder visit of an operation is outvoted by the
    per-operation median.  Traced runs start with a warm-up round left out
    of the metrics, so the overhead comparison is not skewed by it, then
    alternate whole traced and untraced rounds, at least one of each, so
    the per-layer counts of a traced round are complete.
    """
    visits, layers, tracers = [], [], []
    start = perf_counter()

    def run_round(phase, tracer=None, may_stop=False):
        for k, spec in enumerate(runner.set_specs):
            visits.append([k, phase, runner.run_set(spec, tracer)])
            if may_stop and perf_counter() - start >= args.seconds:
                return

    if args.trace:
        run_round("warmup")
    rounds = 0
    while True:
        if args.trace and rounds % 2 == 0:
            tracer = tr.Tracer()
            restore = tr.install(tracer)
            pass_start = perf_counter()
            try:
                run_round("traced", tracer)
            finally:
                tr.uninstall(restore)
            tracers.append(tracer)
            layers.append({"start": pass_start, "end": perf_counter(),
                           "metrics": tracer.layer_metrics()})
        else:
            run_round("plain", may_stop=not args.trace and rounds > 0)
        rounds += 1
        if perf_counter() - start >= args.seconds and rounds >= (2 if args.trace else 1):
            break
    runner.calibrate(force=True)

    trace_errors = []
    if args.trace:
        expected = tr.EXPECTED_SPANS + tr.EXPECTED_EXTRA.get(args.workload, ())
        for i, tracer in enumerate(tracers):
            calls = tracer.calls()
            trace_errors += [f"traced pass {i}: span {name} recorded no calls"
                             for name in expected if not calls.get(name)]
            trace_errors += [f"traced pass {i}: {e}" for e in tracer.attribution_errors()]
        if args.spans:
            tr.dump(tracers, args.spans)
    return {
        "first_op_at": runner.first_op_at,
        "visits": visits,
        "layers": layers,
        "calibration": runner.calibration,
        "kept_csvs": runner.kept_csvs,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:50],
        "controls_checked": runner.controls_checked,
        "controls_detected": runner.controls_detected,
        "trace_errors": trace_errors[:50],
    }


if __name__ == "__main__":
    sys.exit(main())
