"""Spans around the public functions of each mscs module, recorded from outside.

:func:`install` replaces each traced function by a wrapper in every mscs
module that binds it, because several modules import the functions by name
(``cli`` binds the verifiers, ``pmepr_set`` and ``iapr_curve``;
``constructions`` binds ``materialize``).  The package attribute
``mscs.pmepr`` is the ``pmepr`` function, so the module is reached through
``sys.modules``.

Spans are kept in memory as (name, start, end, parent, operation id) and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; the run is single threaded, so
children never overlap.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

OP = "op"


# (module, function, span name, counter name, count(args, kwargs, result)).
# The mscs CLI passes document paths positionally.
TARGETS = (
    ("mscs.seqcore", "materialize", "seqcore.materialize",
     "seqcore.materialized_elements", lambda a, k, r: len(r)),
    ("mscs.constructions", "single_prime_mscs", "constructions.build",
     "constructions.members_built", lambda a, k, r: len(r)),
    ("mscs.constructions", "multi_prime_mscs", "constructions.build",
     "constructions.members_built", lambda a, k, r: len(r)),
    ("mscs.constructions", "length_extended_mscs", "constructions.build",
     "constructions.members_built", lambda a, k, r: len(r)),
    ("mscs.correlation", "aacf_set_sum", "correlation.aacf_set_sum",
     "correlation.count_terms", lambda a, k, r: len(a[0]) * (a[0].length - abs(a[1]))),
    ("mscs.correlation", "is_zero", "correlation.is_zero", None, None),
    ("mscs.correlation", "verify_mscs", "correlation.verify",
     "correlation.shifts_tested", lambda a, k, r: len(r.shifts)),
    ("mscs.correlation", "verify_gcs", "correlation.verify",
     "correlation.shifts_tested", lambda a, k, r: len(r.shifts)),
    ("mscs.correlation", "verify_type2_zcs", "correlation.verify",
     "correlation.shifts_tested", lambda a, k, r: len(r.shifts)),
    ("mscs.pmepr", "iapr_curve", "pmepr.iapr_curve",
     "pmepr.grid_points", lambda a, k, r: len(r)),
    ("mscs.pmepr", "energy_identity_check", "pmepr.energy_identity",
     "pmepr.energy_envelopes", lambda a, k, r: len(a[0]) * a[1]),
    ("mscs.cli", "read_document", "cli.document_read",
     "cli.document_bytes", lambda a, k, r: os.path.getsize(a[-1])),
    ("mscs.cli", "document_to_set", "cli.document_read", None, None),
    ("mscs.cli", "document_from_set", "cli.document_write", None, None),
    ("mscs.cli", "write_document", "cli.document_write",
     "cli.document_bytes", lambda a, k, r: os.path.getsize(a[-1])),
)

# cmd_pmepr is a span only when it writes the IAPR CSV; its self time is then
# the CSV writer (plus the few lines it prints).
CSV_SPAN = "cli.csv_write"

# Per-layer metric -> span whose summed self time or call count it reports.
SELF_TIME_METRICS = {
    "seqcore.materialize_s": "seqcore.materialize",
    "constructions.build_self_s": "constructions.build",
    "correlation.aacf_set_sum_s": "correlation.aacf_set_sum",
    "correlation.is_zero_s": "correlation.is_zero",
    "correlation.verify_self_s": "correlation.verify",
    "pmepr.iapr_curve_s": "pmepr.iapr_curve",
    "pmepr.energy_identity_s": "pmepr.energy_identity",
    "cli.document_read_s": "cli.document_read",
    "cli.document_write_s": "cli.document_write",
    "cli.csv_write_s": CSV_SPAN,
    "cli.unattributed_s": OP,
}
CALL_METRICS = {
    "seqcore.materialize_calls": "seqcore.materialize",
    "correlation.aacf_set_sum_calls": "correlation.aacf_set_sum",
    "correlation.is_zero_calls": "correlation.is_zero",
    "pmepr.iapr_curve_calls": "pmepr.iapr_curve",
}
COUNT_METRICS = (
    "seqcore.materialized_elements", "constructions.members_built",
    "correlation.count_terms", "correlation.shifts_tested", "pmepr.grid_points",
    "pmepr.energy_envelopes", "cli.document_bytes", "cli.csv_bytes",
)

# Spans every workload must record at least once in a traced pass.
EXPECTED_SPANS = (
    "seqcore.materialize", "constructions.build", "correlation.aacf_set_sum",
    "correlation.is_zero", "correlation.verify", "pmepr.iapr_curve",
    "pmepr.energy_identity", "cli.document_read", "cli.document_write", OP,
)
EXPECTED_EXTRA = {"pmepr-export": (CSV_SPAN,)}

# Largest share of a traced pass's operation time that may fall outside
# every traced function.
MAX_UNATTRIBUTED_SHARE = 0.5


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id: int | None = None

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        self_by_name: dict[str, float] = {}
        for (name, *_), st in zip(self.spans, self.self_times()):
            self_by_name[name] = self_by_name.get(name, 0.0) + st
        calls = self.calls()
        out: dict[str, float] = {}
        for metric, span in SELF_TIME_METRICS.items():
            out[metric] = self_by_name.get(span, 0.0)
        for metric, span in CALL_METRICS.items():
            out[metric] = calls.get(span, 0)
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0)
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def attribution_errors(self) -> list[str]:
        """Check the span tree and that the traced layers account for most of the time.

        Every span must lie inside a timed operation.  ``cli.unattributed_s``
        is the operations' own self time: the argument parsing and printing
        of ``mscs.cli`` plus whatever runs in functions no span wraps.  If its
        share of the pass's operation time passes ``MAX_UNATTRIBUTED_SHARE``,
        work has moved out of the traced functions and the per-layer
        metrics no longer say where the time goes.
        """
        errors = []
        op_wall = unattributed = 0.0
        for (name, start, end, parent, op), st in zip(self.spans, self.self_times()):
            if op is None:
                errors.append(f"span {name} recorded outside a timed operation")
            elif (parent < 0) != (name == OP):
                errors.append(f"span {name} is not nested in its operation")
            elif parent >= 0 and not self.spans[parent][1] <= start <= end <= self.spans[parent][2]:
                errors.append(f"span {name} ends outside its parent")
            elif name == OP:
                op_wall += end - start
                unattributed += st
        if op_wall > 0 and unattributed > MAX_UNATTRIBUTED_SHARE * op_wall:
            errors.append(f"{unattributed / op_wall:.1%} of the operation time is in no traced "
                          f"function (at most {MAX_UNATTRIBUTED_SHARE:.0%} allowed)")
        return errors


def dump(tracers: list[Tracer], path: str) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w") as fh:
        for i, tracer in enumerate(tracers):
            for name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"pass": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _wrap(tracer: Tracer, fn, span: str, counter: str | None, count):
    def traced(*args, **kwargs):
        idx = tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(idx)
        if counter is not None:
            tracer.count(counter, count(args, kwargs, result))
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_cmd_pmepr(tracer: Tracer, fn):
    def traced(args):
        if args.iapr_out is None:
            return fn(args)
        idx = tracer.enter(CSV_SPAN)
        try:
            result = fn(args)
        finally:
            tracer.leave(idx)
        tracer.count("cli.csv_bytes", os.path.getsize(args.iapr_out))
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list:
    """Rebind every traced function, wherever an mscs module binds it, to a wrapper.

    Returns the bindings :func:`uninstall` restores.
    """
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "mscs" or name.startswith("mscs."))]
    wrappers = [_wrap(tracer, getattr(sys.modules[mod], fn), span, counter, count)
                for mod, fn, span, counter, count in TARGETS]
    wrappers.append(_wrap_cmd_pmepr(tracer, sys.modules["mscs.cli"].cmd_pmepr))
    restore = []
    for wrapper in wrappers:
        original = wrapper.__wrapped__
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, original))
    return restore


def uninstall(restore: list) -> None:
    for mod, attr, original in reversed(restore):
        setattr(mod, attr, original)
