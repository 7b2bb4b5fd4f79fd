"""The benchmark's tracer wraps mscs functions by name; they must still exist.

Its counters read the arguments and results of those functions (report
shifts, set lengths, file sizes), so each is also evaluated on a real call,
and the tracer is installed around the CLI to see that every layer it
expects is still reached through the names it wraps.
"""

import importlib
import json
from pathlib import Path

from mscs.cli import document_from_set, main, write_document
from mscs.constructions import PrimeBlock
from mscs.correlation import aacf_set_sum
from mscs.reference_sets import mscs_3_27_3
from mscs.seqcore import MixedDomain, MultivariableFunction

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer() -> dict:
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_tracer_targets_exist(tmp_path):
    # each target is called once, with its arguments passed as the CLI and
    # the benchmark pass them, and its counter must read a count off the call
    sset = mscs_3_27_3()
    doc = document_from_set(sset)
    path = str(tmp_path / "set.json")
    write_document(doc, path)
    f = MultivariableFunction(MixedDomain([(3, 2)]), 6, [(2, (((1, 1), 1), ((1, 2), 1)))], 1)
    calls = {
        "materialize": (f,),
        "single_prime_mscs": (PrimeBlock(p=3, m=2, s=2), 6),
        "multi_prime_mscs": ([PrimeBlock(p=2, m=1), PrimeBlock(p=3, m=1)], 6),
        "length_extended_mscs": ([PrimeBlock(p=3, m=2)], 2, 6),
        "aacf_set_sum": (sset, -5),
        "is_zero": (aacf_set_sum(sset, 3),),
        "verify_mscs": (sset, 3),
        "verify_gcs": (sset,),
        "verify_type2_zcs": (sset, 24),
        "iapr_curve": (sset.sequences[0], 4),
        "energy_identity_check": (sset, 3, 4),
        "read_document": (path,),
        "document_to_set": (doc,),
        "document_from_set": (sset,),
        "write_document": (doc, str(tmp_path / "again.json")),
    }
    targets = _tracer()["TARGETS"]
    assert sorted(calls) == sorted({name for _, name, *_ in targets})
    for module, name, _, counter, count in targets:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), f"{module}.{name}"
        args = calls[name]
        result = fn(*args)
        if counter is not None:
            n = count(args, {}, result)
            assert type(n) is int and n >= 0, (name, counter, n)
    # wrapped on its own for the CSV span
    assert callable(getattr(importlib.import_module("mscs.cli"), "cmd_pmepr", None))


def test_tracer_sees_every_layer_through_the_cli(tmp_path):
    tr = _tracer()
    tracer = tr["Tracer"]()
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"lambda": 6, "p": 3, "m": 3, "s": 2}))
    doc, csv = str(tmp_path / "set.json"), str(tmp_path / "iapr.csv")
    restore = tr["install"](tracer)
    try:
        assert main(["generate", "--params", str(params), "--out", doc]) == 0
        assert main(["verify", doc]) == 0
        assert main(["pmepr", doc, "--n-os", "4", "--iapr-out", csv]) == 0
        energy = importlib.import_module("mscs.pmepr").energy_identity_check
        assert energy(mscs_3_27_3(), 3, 4) < 1e-9
    finally:
        tr["uninstall"](restore)
    expected = set(tr["EXPECTED_SPANS"]) - {tr["OP"]} | {tr["CSV_SPAN"]}
    assert expected <= set(tracer.calls())
    assert set(tracer.counts) == set(tr["COUNT_METRICS"])
    assert tracer.counts["correlation.shifts_tested"] == 8
    assert tracer.counts["pmepr.grid_points"] == 3 * 4 * 27
    assert all(n > 0 for n in tracer.counts.values())
