import json
import subprocess
import sys

import numpy as np
import pytest

import mscs.cli
import mscs.correlation
import mscs.reference_sets
from mscs.cli import (
    CSV_CHUNK_VALUES,
    SetDocument,
    document_from_json,
    document_from_set,
    document_to_json,
    document_to_set,
    main,
    read_document,
    write_document,
)
from mscs.pmepr import iapr_curve
from mscs.reference_sets import mscs_3_27_3, mscs_3_54_2
from mscs.seqcore import PhaseSequence, SequenceSet


def _example_doc_path(tmp_path, name="set.json"):
    path = tmp_path / name
    write_document(document_from_set(mscs_3_27_3()), str(path))
    return str(path)


def test_document_round_trip():
    doc = document_from_set(mscs_3_27_3())
    text = document_to_json(doc)
    again = document_from_json(text)
    assert again == doc
    assert document_to_json(again) == text
    back = document_to_set(again)
    assert back.sequences == mscs_3_27_3().sequences
    assert back.metadata["claims"] == [{"kind": "MSCS", "S": 3}]


def test_document_json_is_sorted_and_stable():
    text = document_to_json(document_from_set(mscs_3_54_2()))
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert text == document_to_json(document_from_set(mscs_3_54_2()))
    assert text.endswith("\n")


def test_document_parse_errors():
    doc = document_from_set(mscs_3_27_3())
    payload = json.loads(document_to_json(doc))

    def reject(mutate, match):
        bad = json.loads(document_to_json(doc))
        mutate(bad)
        with pytest.raises(ValueError, match=match):
            document_from_json(json.dumps(bad))

    reject(lambda d: d.update(schema=99), "unsupported schema")
    reject(lambda d: d.pop("lambda"), "missing field")
    reject(lambda d: d.update(set_size=5), "set_size")
    reject(lambda d: d["sequences"][0].pop(), "does not match length")
    reject(lambda d: d["sequences"][0].__setitem__(0, 6), r"lie in \[0, lambda\)")
    reject(lambda d: d["claim"].pop("S"), "MSCS claim needs S")
    with pytest.raises(ValueError, match="not valid JSON"):
        document_from_json("{nope")
    with pytest.raises(ValueError, match="root must be an object"):
        document_from_json("[1, 2]")
    assert payload["lambda"] == 6


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(claim=[d["claim"]]),
    lambda d: d.update(sequences=3),
    lambda d: d.update(provenance=[d["provenance"]]),
    lambda d: d["sequences"][0].__setitem__(0, 1.7),
    lambda d: d["sequences"][0].__setitem__(0, True),
    lambda d: d["claim"].update(S="3"),
    lambda d: d["claim"].update(S=2.5),
], ids=["claim-list", "sequences-int", "provenance-list", "phase-float", "phase-bool",
        "S-string", "S-float"])
def test_verify_rejects_malformed_document(tmp_path, capsys, mutate):
    path = tmp_path / "set.json"
    write_document(document_from_set(mscs_3_27_3()), str(path))
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("params", [
    [6, 3],
    {"lambda": 6, "blocks": 3},
    {"lambda": 6, "blocks": [3]},
    {"lambda": 6, "p": 3, "m": 2, "extension": 2},
    {"lambda": "6", "p": 3, "m": 2},
    {"lambda": 6, "p": 3.9, "m": 2},
    {"lambda": 6, "p": 3, "m": True},
    {"lambda": 6, "p": 3, "m": 2.0},
    {"lambda": 6, "p": 3, "m": 2, "s": "1"},
    {"lambda": 6, "p": 3, "m": 2, "constant": 1.5},
    {"lambda": 6, "p": 3, "m": 2, "linear": [True, 1]},
    {"lambda": 6, "p": 3, "m": 2, "pi": 1},
    {"lambda": 6, "p": 3, "m": 2, "s": 2, "h_table": [0, 1, 2.5]},
    {"lambda": 6, "blocks": [{"p": 3, "m": 1}], "extension": {"p": "2"}},
    {"lambda": 6, "blocks": [{"p": 3, "m": 1}], "extension": {"p": 2, "linear": 1.0}},
    {"lambda": 6, "blocks": [{"p": 3, "m": 1}], "extension": {"p": 2, "constant": False}},
], ids=["root-list", "blocks-int", "block-int", "extension-int", "lambda-string", "p-float",
        "m-bool", "m-float", "s-string", "constant-float", "linear-bool", "pi-int",
        "h_table-float", "ext-p-string", "ext-linear-float", "ext-constant-bool"])
def test_generate_rejects_malformed_params(tmp_path, capsys, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "set.json"
    assert main(["generate", "--params", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def _refuse_draws(*args):
    raise AssertionError("random_block called before the length check")


@pytest.mark.parametrize("params", [
    {"lambda": 2, "p": 2, "m": 21, "s": 21},
    {"lambda": 6, "blocks": [{"p": 3, "m": 12}], "extension": {"p": 2}},
    {"lambda": 6, "blocks": [{"p": 2, "m": 10, "s": 10}, {"p": 3, "m": 7}]},
    {"lambda": 2, "p": 2, "m": 10**9},
], ids=["single", "extension", "two-primes", "huge-m"])
def test_generate_checks_length_before_drawing(tmp_path, capsys, monkeypatch, params):
    monkeypatch.setattr(mscs.cli, "random_block", _refuse_draws)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "set.json"
    assert main(["generate", "--params", str(path), "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: sequence length ")
    assert captured.err.endswith(" exceeds capacity limit 1000000\n")
    assert not out.exists()


def test_generate_flags_check_length_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mscs.cli, "random_block", _refuse_draws)
    code = main(["generate", "--p", "2", "--m", "21", "--s", "21", "--lambda", "2",
                 "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: sequence length 2097152 exceeds capacity limit 1000000\n"


def test_verify_internal_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    path = _example_doc_path(tmp_path)
    monkeypatch.setattr(mscs.correlation, "is_zero", lambda s: True)
    assert main(["verify", path, "--claim", "gcs"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: exact/float separation")
    assert err.count("\n") == 1


def test_generate_explicit_flags(tmp_path, capsys):
    out = tmp_path / "set.json"
    code = main([
        "generate", "--p", "3", "--m", "3", "--s", "2", "--lambda", "6",
        "--pi", "2,3", "--constant", "5", "--verify", "--out", str(out),
    ])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == f"wrote {out}: M=3 L=27 lambda=6 claim=MSCS S=3"
    assert read_document(str(out)) == document_from_set(mscs_3_27_3())


def test_generate_params_file(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "lambda": 6,
        "blocks": [{"p": 3, "m": 3, "s": 1, "pi": [2, 3, 1], "linear": [2, 5, 1]}],
        "extension": {"p": 2, "linear": 3},
    }))
    out = tmp_path / "ext.json"
    code = main(["generate", "--params", str(params), "--verify", "--out", str(out)])
    assert code == 0
    assert "M=3 L=54 lambda=6 claim=MSCS S=2" in capsys.readouterr().out
    assert read_document(str(out)) == document_from_set(mscs_3_54_2())


def test_generate_seeded_determinism(tmp_path):
    args = ["generate", "--p", "2", "--m", "3", "--s", "2", "--lambda", "4",
            "--seed", "7"]
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["generate", "--p", "2", "--m", "3", "--s", "2", "--lambda", "4",
                 "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_rejects_composite_base(tmp_path, capsys):
    code = main(["generate", "--p", "4", "--m", "2", "--lambda", "4",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "p must be prime" in capsys.readouterr().err


def test_generate_needs_parameters(tmp_path, capsys):
    code = main(["generate", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "--p/--m/--lambda" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["generate"]) == 2  # --out is required
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def test_verify_pass(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "claim: MSCS S=3" in out
    assert "mode: exact" in out
    assert "shifts checked: 8" in out
    assert "verdict: pass" in out


def test_verify_claim_override(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    assert main(["verify", path, "--claim", "zcs", "--Z", "24"]) == 0
    assert "claim: ZCS Z=24" in capsys.readouterr().out
    code = main(["verify", path, "--claim", "gcs"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failing shifts: 1 2" in out
    assert "verdict: fail" in out


def test_verify_tampered_document(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    payload = json.loads(open(path).read())
    payload["sequences"][0][4] = (payload["sequences"][0][4] + 3) % 6
    open(path, "w").write(json.dumps(payload))
    assert main(["verify", path]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_verify_corrupt_document(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    payload = json.loads(open(path).read())
    payload["sequences"][0][0] = 17
    open(path, "w").write(json.dumps(payload))
    assert main(["verify", path]) == 2
    assert "lie in [0, lambda)" in capsys.readouterr().err
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_pmepr_output(tmp_path, capsys):
    path = str(tmp_path / "ext.json")
    write_document(document_from_set(mscs_3_54_2()), path)
    assert main(["pmepr", path]) == 0
    out = capsys.readouterr().out
    assert "pmepr[0]:" in out and "pmepr[2]:" in out
    assert "set pmepr: 5.946029" in out
    assert "bound (M*S): 6" in out
    assert "bound satisfied: yes" in out


def test_pmepr_iapr_export(tmp_path, capsys):
    path = str(tmp_path / "ext.json")
    write_document(document_from_set(mscs_3_54_2()), path)
    csv = tmp_path / "iapr.csv"
    assert main(["pmepr", path, "--n-os", "4", "--iapr-out", str(csv)]) == 0
    out = capsys.readouterr().out
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1].startswith("#")
    assert "dft_t" in lines[1]
    data = np.loadtxt(csv, delimiter=",", comments="#")
    assert data.shape == (4 * 54, 4)
    assert np.allclose(data[:, 0], np.arange(4 * 54) / (4 * 54))
    printed = float(out.split("set pmepr: ")[1].split()[0])
    assert abs(data[:, 1:].max() - printed) < 1e-6


def _reference_iapr_csv(doc, n_os):
    """The IAPR export written one cell at a time, as ``f"{v:.10g}"``."""
    curves = [iapr_curve(s, n_os) for s in document_to_set(doc).sequences]
    n = n_os * doc.length
    u = np.arange(n) / n
    cols = ", ".join(f"iapr_{i}" for i in range(doc.set_size))
    lines = [f"# iapr curves: M={doc.set_size} L={doc.length} "
             f"lambda={doc.modulus} oversampling={n_os}",
             f"# columns: dft_t, {cols}"]
    for j in range(n):
        lines.append(",".join([f"{u[j]:.10g}"] + [f"{c[j]:.10g}" for c in curves]))
    return ("\n".join(lines) + "\n").encode()


_ONE_MEMBER = SetDocument(
    modulus=5, length=64, set_size=1,
    claim={"kind": "MSCS", "S": 64},
    provenance={"construction": "external"},
    sequences=(tuple((i * i) % 5 for i in range(64)),),
)


@pytest.mark.parametrize("doc, n_os", [
    (document_from_set(mscs_3_54_2()), 400),
    (_ONE_MEMBER, 600),
], ids=["mscs-3-54-2", "one-member"])
def test_pmepr_iapr_export_bytes(tmp_path, capsys, doc, n_os):
    # more values than one chunk holds, so the rows cross a chunk boundary
    assert n_os * doc.length * (doc.set_size + 1) > CSV_CHUNK_VALUES
    path = str(tmp_path / "set.json")
    write_document(doc, path)
    csv = tmp_path / "iapr.csv"
    assert main(["pmepr", path, "--n-os", str(n_os), "--iapr-out", str(csv)]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == _reference_iapr_csv(doc, n_os)


def test_pmepr_single_carrier_external(tmp_path, capsys):
    doc = SetDocument(
        modulus=2, length=1, set_size=1,
        claim={"kind": "MSCS", "S": 1},
        provenance={"construction": "external"},
        sequences=((0,),),
    )
    path = str(tmp_path / "one.json")
    write_document(doc, path)
    assert main(["pmepr", path]) == 0
    out = capsys.readouterr().out
    assert "set pmepr: 1.000000" in out
    assert "bound satisfied: yes" in out


def test_pmepr_rejects_bad_oversampling(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    assert main(["pmepr", path, "--n-os", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_pmepr_rejects_oversized_grid(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("iapr_curve called before the grid check")

    monkeypatch.setattr(mscs.cli, "iapr_curve", refuse)
    path = _example_doc_path(tmp_path)
    assert main(["pmepr", path, "--n-os", str(10**9)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: envelope grid of 27000000000 points exceeds "
                            "capacity limit 64000000\n")


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: 11/11 ok" in out
    assert out.count("ok   ") == 11
    assert "FAIL" not in out


def test_selftest_catches_broken_reference(monkeypatch, capsys):
    # corrupt one entry; a constant offset would slip past the AACF checks
    sset = mscs_3_27_3()
    vals = sset.sequences[0].values.copy()
    vals[11] = (vals[11] + 2) % 6
    broken = SequenceSet([PhaseSequence(6, vals)] + list(sset.sequences[1:]))
    monkeypatch.setattr(mscs.reference_sets, "mscs_3_27_3", lambda: broken)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    # three checks read the corrupted set; the other eight still pass
    failed = [line.split(":")[0][5:] for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == ["mscs-3-27-3", "zcs-3-27-24", "energy-identity"]
    assert "selftest: 8/11 ok" in out


def test_module_entry_point(tmp_path):
    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mscs", "generate", "--p", "2", "--m", "2",
         "--lambda", "2", "--verify", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "claim=MSCS S=1" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "mscs", "verify", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout
