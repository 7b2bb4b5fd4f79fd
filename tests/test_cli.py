import contextlib
import copy
import dataclasses
import importlib
import io
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mscs.cli
import mscs.correlation
import mscs.reference_sets
from mscs.cli import (
    CSV_CHUNK_VALUES,
    SCHEMA_VERSION,
    SetDocument,
    document_from_json,
    document_from_set,
    document_to_json,
    document_to_set,
    main,
    read_document,
    write_document,
)
from mscs.constructions import (
    PrimeBlock,
    length_extended_mscs,
    multi_prime_mscs,
    random_block,
    single_prime_mscs,
)
from mscs.pmepr import iapr_curve
from mscs.reference_sets import mscs_3_27_3, mscs_3_54_2
from mscs.seqcore import PhaseSequence, SequenceSet

# the package attribute mscs.pmepr is the function, so reach the module by name
_PMEPR_MODULE = importlib.import_module("mscs.pmepr")


def _matrix(rows, length=0):
    """``rows`` as a read-only int64 matrix; (0, length) when there are none."""
    phases = np.array(rows, dtype=np.int64) if len(rows) else np.empty((0, length), np.int64)
    phases.flags.writeable = False
    return phases


_ONE_MEMBER = SetDocument(
    modulus=5,
    claim={"kind": "MSCS", "S": 32},
    provenance={"construction": "external"},
    sequences=_matrix([[(i * i) % 5 for i in range(64)]]),
)


_SINGLE_CARRIER = SetDocument(
    modulus=2,
    claim={"kind": "GCS"},
    provenance={"construction": "external"},
    sequences=_matrix([[0]]),
)


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


def _seeded_documents():
    rng = random.Random(17)
    single = single_prime_mscs(random_block(rng, 3, 3, 2, 6), 6)
    single_30 = single_prime_mscs(random_block(rng, 5, 2, 2, 30), 30)
    multi_30 = multi_prime_mscs([random_block(rng, p, 2, 1, 30) for p in (2, 3, 5)], 30)
    extended = length_extended_mscs([random_block(rng, 3, 2, 1, 6)], 2, 6, 5, 1)
    return [document_from_set(sset) for sset in (single, single_30, multi_30, extended)]


def test_document_to_set_keeps_the_provenance():
    # a document generate writes comes back from its set with its params
    docs = _seeded_documents()
    assert [doc.provenance["construction"] for doc in docs] == [
        "single_prime", "single_prime", "multi_prime", "length_extended"]
    for doc in docs:
        assert sorted(doc.provenance) == ["construction", "params"]
        again = document_from_set(document_to_set(doc))
        assert again == doc
        assert document_to_json(again) == document_to_json(doc)


@pytest.mark.parametrize("doc", _seeded_documents() + [
    _ONE_MEMBER, _SINGLE_CARRIER,
    SetDocument(97, {"kind": "GCS"}, {"construction": "external", "note": "lambda > L"},
                _matrix([[96, 0, 13, 50], [1, 1, 96, 10]])),
    SetDocument(2, {"kind": "GCS"}, {}, _matrix([])),
    SetDocument(2, {"kind": "GCS"}, {}, _matrix([[], []])),
], ids=["single-prime", "single-prime-lambda-30", "multi-prime-lambda-30", "length-extended",
        "one-member", "single-carrier", "lambda-over-length", "no-members", "empty-members"])
def test_document_bytes_are_indent_2_json(tmp_path, doc):
    _check_document_bytes(doc, tmp_path / "set.json")


def _check_document_bytes(doc, path):
    """The document's text and written bytes are those of the indenting encoder."""
    payload = {
        "schema": SCHEMA_VERSION,
        "lambda": doc.modulus,
        "length": doc.length,
        "set_size": doc.set_size,
        "claim": doc.claim,
        "provenance": doc.provenance,
        "sequences": doc.sequences.tolist(),
    }
    # compared as lists of lines, so a failure names the first line that
    # differs instead of diffing the whole text
    text = document_to_json(doc)
    assert text.split("\n") == (json.dumps(payload, indent=2, sort_keys=True) + "\n").split("\n")
    write_document(doc, str(path))
    assert path.read_bytes().split(b"\n") == text.encode().split(b"\n")


@st.composite
def _written_documents(draw):
    """M <= 4 rows of L <= 40 phases, lambda in one band of digit widths.

    lambda <= 10 gives one width, 11..10^4 mixed widths, and lambda up to
    2^63 - 1 mostly lambda > M*L, where the writer's table holds the
    distinct phases.  A row draws either from the whole range or from a
    pool of at most 3 values.
    """
    lam = draw(st.one_of(st.integers(2, 10), st.integers(11, 10**4), st.integers(2, 2**63 - 1)))
    M, L = draw(st.integers(0, 4)), draw(st.integers(0, 40))
    phases = st.integers(0, lam - 1)
    rows = []
    for _ in range(M):
        pool = draw(st.one_of(st.just(phases),
                              st.lists(phases, min_size=1, max_size=3).map(st.sampled_from)))
        rows.append(draw(st.lists(pool, min_size=L, max_size=L)))
    return SetDocument(lam, {"kind": "GCS"}, {"construction": "external"}, _matrix(rows, L))


@settings(max_examples=200, deadline=None)
@given(doc=_written_documents())
@example(doc=SetDocument(11, {"kind": "GCS"}, {}, _matrix([[10, 0, 3], [3, 3, 3]])))
@example(doc=SetDocument(2**63 - 1, {"kind": "GCS"}, {}, _matrix([[2**63 - 2, 7]])))
@example(doc=SetDocument(7, {"kind": "GCS"}, {}, _matrix([], 5)))
def test_document_bytes_match_the_encoder_for_any_phases(tmp_path_factory, doc):
    _check_document_bytes(doc, tmp_path_factory.getbasetemp() / "drawn.json")
    assert document_from_json(document_to_json(doc)) == doc


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
    reject(lambda d: d.__setitem__("lambda", 1), "^lambda 1 must be >= 2$")
    reject(lambda d: d.update(set_size=5), "set_size")
    reject(lambda d: d["sequences"][0].pop(), "does not match length")
    reject(lambda d: d["sequences"][0].__setitem__(0, 6), r"lie in \[0, lambda\)")
    reject(lambda d: d["claim"].pop("S"), "MSCS claim needs S")
    with pytest.raises(ValueError, match="not valid JSON"):
        document_from_json("{nope")
    with pytest.raises(ValueError, match="root must be an object"):
        document_from_json("[1, 2]")
    assert payload["lambda"] == 6


@pytest.mark.parametrize("modulus, claim, provenance", [
    (5, {"kind": "BOGUS"}, {}),
    (5, {"kind": "MSCS", "S": 0}, {}),
    (5, {"kind": "MSCS", "S": True}, {}),
    (5, {"kind": "GCS", "S": 2}, {}),
    (5, {"kind": "GCS"}, ["x"]),
    (True, {"kind": "GCS"}, {}),
    (5.0, {"kind": "GCS"}, {}),
], ids=["kind", "S-zero", "S-bool", "GCS-with-S", "provenance-list", "lambda-bool",
        "lambda-float"])
def test_set_document_refuses_what_the_reader_refuses(modulus, claim, provenance):
    # a document that could be built could be written, and the reader would refuse it
    matrix = _matrix([[0, 1, 4], [3, 2, 0]])
    text = document_to_json(SetDocument(5, {"kind": "GCS"}, {}, matrix))
    payload = {**json.loads(text), "lambda": modulus, "claim": claim, "provenance": provenance}
    with pytest.raises(ValueError) as read:
        document_from_json(json.dumps(payload))
    with pytest.raises(ValueError) as built:
        SetDocument(modulus, claim, provenance, matrix)
    assert str(built.value) == str(read.value)


def test_document_phases_are_one_read_only_matrix():
    sset = mscs_3_27_3()
    built = sset.phases
    assert built.dtype == np.int64 and built.shape == (3, 27) and not built.flags.writeable
    assert all(s.values.base is built for s in sset.sequences)
    # the builder's matrix is the document's, and the reader's is its set's
    written = document_from_set(sset)
    assert written.sequences is built
    assert document_to_set(written).phases is built
    doc = document_from_json(document_to_json(written))
    matrix = doc.sequences
    assert isinstance(matrix, np.ndarray) and matrix.dtype == np.int64
    assert matrix.shape == (3, 27) and not matrix.flags.writeable
    read = document_to_set(doc)
    assert read.phases is matrix and read.sequences == sset.sequences
    assert all(s.values.base is matrix for s in read.sequences)
    # a document is its lambda, claim, provenance and matrix; M and L are the shape
    assert [f.name for f in dataclasses.fields(SetDocument)] == [
        "modulus", "claim", "provenance", "sequences"]
    assert (doc.set_size, doc.length) == doc.sequences.shape == (3, 27)
    assert (_ONE_MEMBER.set_size, _ONE_MEMBER.length) == _ONE_MEMBER.sequences.shape == (1, 64)
    # anything but a read-only int64 matrix is refused as from_phases refuses it
    int32 = np.array([[1, 4]], dtype=np.int32)
    int32.flags.writeable = False
    for bad in (((1, 4),), np.array([[1, 4]]), int32, _matrix([[1, 4]])[0]):
        with pytest.raises(ValueError) as refused:
            SequenceSet.from_phases(5, bad)
        assert str(refused.value) == "phases need a read-only two-dimensional int64 matrix"
        with pytest.raises(ValueError, match=f"^{refused.value}$"):
            SetDocument(5, {"kind": "GCS"}, {}, bad)
    # entries outside [0, lambda) are refused by both with the reader's text: a -1
    # would be written and read back as 4, a 7 would index past the root table
    for row in ([-1, 4, 2, 0, 1, 3], [7, 4, 2, 0, 1, 3], [0, 1, 2, 3, 4, 5]):
        for make in (lambda m: SequenceSet.from_phases(5, m),
                     lambda m: SetDocument(5, {"kind": "GCS"}, {}, m)):
            with pytest.raises(ValueError, match=r"^sequence entries must lie in \[0, lambda\)$"):
                make(_matrix([[0, 1, 2, 3, 4, 0], row]))


@st.composite
def _well_formed_documents(draw):
    """A valid document payload: M and L from 0, lambda up to 2^62."""
    lam = draw(st.one_of(st.integers(2, 12), st.integers(2, 2**62)))
    M, L = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(0, lam - 1), min_size=L, max_size=L),
                         min_size=M, max_size=M))
    return {"schema": 1, "lambda": lam, "length": L, "set_size": M, "claim": {"kind": "GCS"},
            "provenance": {"construction": "external"}, "sequences": rows}


@settings(max_examples=150, deadline=None)
@given(payload=_well_formed_documents())
def test_document_reader_matches_json_rows(payload):
    doc = document_from_json(json.dumps(payload))
    rows, lam = payload["sequences"], payload["lambda"]
    assert doc.sequences.shape == (payload["set_size"], payload["length"])
    assert doc.sequences.tolist() == rows
    if rows:
        assert document_to_set(doc).sequences == tuple(PhaseSequence(lam, row) for row in rows)


_TYPE_ERROR = "sequence entries must be integers"
_RANGE_ERROR = "sequence entries must lie in [0, lambda)"


@settings(max_examples=150, deadline=None)
@given(payload=_well_formed_documents().filter(lambda d: d["set_size"] and d["length"]),
       data=st.data())
def test_document_reader_reports_bad_entry(tmp_path_factory, payload, data):
    bad, message = data.draw(st.sampled_from([
        (True, _TYPE_ERROR), (False, _TYPE_ERROR), (1.0, _TYPE_ERROR), (0.5, _TYPE_ERROR),
        ("1", _TYPE_ERROR), (None, _TYPE_ERROR), ([0], _TYPE_ERROR), (-1, _RANGE_ERROR),
        (payload["lambda"], _RANGE_ERROR), (2**63, _RANGE_ERROR), (-2**63 - 1, _RANGE_ERROR),
    ]))
    row = data.draw(st.integers(0, payload["set_size"] - 1))
    payload["sequences"][row][data.draw(st.integers(0, payload["length"] - 1))] = bad
    path = tmp_path_factory.getbasetemp() / "bad-entry.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", str(path)])
    assert (rc, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("lam", [2**63, 2**64 * 3])
def test_document_reader_refuses_lambda_beyond_int64(tmp_path, capsys, lam):
    payload = json.loads(document_to_json(document_from_set(mscs_3_27_3())))
    payload["lambda"] = lam
    path = tmp_path / "set.json"
    path.write_text(json.dumps(payload))
    for command in ("verify", "pmepr"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: lambda {lam} exceeds 2^63 - 1\n"


@pytest.mark.parametrize("lam", [2**31 * 3, 3 * 2**60, 2**63 * 3])
def test_generate_refuses_modulus_that_overflows_int64(tmp_path, capsys, lam):
    out = tmp_path / "set.json"
    assert main(["generate", "--p", "3", "--m", "4", "--lambda", str(lam), "--seed", "3",
                 "--out", str(out)]) == 2
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": lam, "blocks": [{"p": 3, "m": 4}]}))
    assert main(["generate", "--params", str(params), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: modulus {lam} must be below 2^31\n" * 2
    assert not out.exists()


def test_generate_just_below_modulus_cap(tmp_path, capsys):
    lam = 2**31 - 2  # 2 * 3 * 357913941
    out = tmp_path / "set.json"
    assert main(["generate", "--p", "3", "--m", "4", "--lambda", str(lam), "--seed", "3",
                 "--verify", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")


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


_FUZZ_BASE = json.loads(document_to_json(document_from_set(mscs_3_27_3())))
_OTHER = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                   st.lists(st.integers(0, 5), max_size=2))
# neither is an int or a list of 27 phases
_NOT_INT = st.one_of(_OTHER, st.just({}))
_NOT_OBJECT = st.one_of(st.integers(-9, 9), _OTHER)
_BAD_PHASE = st.one_of(_NOT_INT, st.integers(-10**30, -1), st.integers(6, 10**30))


@st.composite
def _document_mutants(draw):
    """A mutated (3,27,3) document and whether it is malformed."""
    doc = copy.deepcopy(_FUZZ_BASE)
    rows = doc["sequences"]
    for _ in range(draw(st.integers(0, 3))):  # in-range phase edits keep it well-formed
        rows[draw(st.integers(0, 2))][draw(st.integers(0, 26))] = draw(st.integers(0, 5))
    kind = draw(st.sampled_from([
        "none", "drop", "drop-claim-field", "retype-int", "retype-object", "retype-sequences",
        "retype-row", "phase", "truncate", "set_size", "length", "lambda", "S", "claim-kind",
        "provenance",
    ]))
    malformed = True
    if kind == "none":
        malformed = False
    elif kind == "drop":
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif kind == "drop-claim-field":
        doc["claim"].pop(draw(st.sampled_from(["S", "kind"])))
    elif kind == "retype-int":
        doc[draw(st.sampled_from(["schema", "lambda", "length", "set_size"]))] = draw(_NOT_INT)
    elif kind == "retype-object":
        doc[draw(st.sampled_from(["claim", "provenance"]))] = draw(_NOT_OBJECT)
    elif kind == "retype-sequences":
        doc["sequences"] = draw(_NOT_INT)
    elif kind == "retype-row":
        rows[draw(st.integers(0, 2))] = draw(_NOT_INT)
    elif kind == "phase":
        rows[draw(st.integers(0, 2))][draw(st.integers(0, 26))] = draw(_BAD_PHASE)
    elif kind == "truncate":
        i = draw(st.integers(0, 2))
        rows[i] = rows[i][:draw(st.integers(0, 26))]
    elif kind in ("set_size", "length"):
        value = doc[kind]
        doc[kind] = draw(st.integers(-5, 60).filter(lambda v: v != value))
    elif kind == "lambda":
        doc["lambda"] = draw(st.integers(0, 12))
        malformed = doc["lambda"] < 2 or max(map(max, rows)) >= doc["lambda"]
    elif kind == "S":
        doc["claim"]["S"] = draw(st.integers(-3, 40))
        malformed = not 1 <= doc["claim"]["S"] < 27
    elif kind == "claim-kind":
        doc["claim"]["kind"] = draw(st.sampled_from(["GCS", "ZCS", "mscs", "", "MSCS "]))
        if doc["claim"]["kind"] == "GCS" and draw(st.booleans()):
            del doc["claim"]["S"]
        # a GCS claim takes no S, and a ZCS claim needs Z and takes no S
        malformed = doc["claim"] != {"kind": "GCS"}
    else:
        doc["provenance"] = draw(st.dictionaries(st.text(max_size=3), _NOT_OBJECT, max_size=2))
        # json.dumps writes NaN and +-Infinity, which are not JSON numbers
        malformed = any(isinstance(v, float) and not math.isfinite(v)
                        for v in doc["provenance"].values())
    return doc, malformed


@settings(max_examples=150, deadline=None)
@given(mutant=_document_mutants())
@example(mutant=({**_FUZZ_BASE, "schema": True}, True))
@example(mutant=({**_FUZZ_BASE, "schema": 1.0}, True))
@example(mutant=({**_FUZZ_BASE, "provenance": {"note": math.nan}}, True))
def test_verify_fuzzed_document(tmp_path_factory, mutant):
    payload, malformed = mutant
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if malformed:
        assert rc == 2 and out == "", (rc, out, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert rc in (0, 1) and err == "", (rc, out, err)
        assert (rc == 1) == out.endswith("verdict: fail\n"), out


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


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_json_constants_are_refused(tmp_path, capsys, constant):
    # json.loads reads a number literal beyond the doubles as an infinite float
    overflow = constant[-1].isdigit()
    reason = "is outside the range of a double" if overflow else "is not a JSON number"
    doc = tmp_path / "set.json"
    payload = {**_FUZZ_BASE, "provenance": {"note": 0}}
    doc.write_text(json.dumps(payload).replace('"note": 0', f'"note": {constant}'))
    params = tmp_path / "params.json"
    params.write_text(f'{{"lambda": 6, "p": 3, "m": 2, "constant": {constant}}}')
    out = tmp_path / "out.json"
    for argv in (["verify", str(doc)], ["generate", "--params", str(params), "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {constant} {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("params, message", [
    ({"lambda": 6, "p": 3, "m": 2, "bogus": 1}, "parameter file takes no key 'bogus'"),
    ({"lambda": 6, "p": 3, "m": 2, "s": 2, "h-table": [0, 1, 2]},
     "parameter file takes no key 'h-table'"),
    ({"lambda": 6, "blocks": [{"p": 3, "m": 2, "zzz": 5}]}, "block takes no key 'zzz'"),
    ({"lambda": 6, "blocks": [{"p": 3, "m": 2, "lambda": 6}]}, "block takes no key 'lambda'"),
    ({"lambda": 6, "p": 3, "m": 2, "blocks": [{"p": 2, "m": 1}]},
     "parameter file with blocks takes no key 'p'"),
    ({"lambda": 6, "blocks": [{"p": 3, "m": 1}], "extension": {"p": 2, "s": 1}},
     "extension takes no key 's'"),
], ids=["top", "misspelt-h_table", "block", "lambda-in-block", "block-key-beside-blocks",
        "extension"])
def test_generate_refuses_unknown_params_keys(tmp_path, capsys, params, message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "set.json"
    assert main(["generate", "--params", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


# each flag refuses each value; the not-an-integer cases keep the bare flag as id
@pytest.mark.parametrize("flag, value, message", [
    pytest.param(flag, value, message, id=flag + tag)
    for value, message, tag in [
        ("1,x", "'x' is not an integer", ""),
        ("1,,2", "empty item in '1,,2'", "-empty-between-commas"),
        ("1,2,", "empty item in '1,2,'", "-trailing-comma"),
        ("1, ,2", "empty item in '1, ,2'", "-blank-between-commas"),
    ]
    for flag in ("--pi", "--linear", "--h-table")
])
def test_generate_names_the_flag_and_token_of_a_bad_list(tmp_path, capsys, flag, value, message):
    out = tmp_path / "q.json"
    argv = ["generate", "--p", "3", "--m", "2", "--s", "2", "--lambda", "6",
            flag, value, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"mscs generate: error: argument {flag}: {message}"]
    assert not out.exists()


def test_generate_takes_a_negative_leading_list_after_an_equals_sign(tmp_path, capsys):
    docs = []
    for value in ("--linear=-1,2,3", "--linear=5,2,3"):
        out = tmp_path / f"{len(docs)}.json"
        assert main(["generate", "--p", "3", "--m", "3", "--lambda", "6", value,
                     "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]


@pytest.mark.parametrize("given", [["--lin", "-1,2,3"], ["--lin=-1,2,3"]],
                         ids=["space", "equals"])
def test_generate_takes_flags_by_their_full_names_only(tmp_path, capsys, given):
    # a prefix is no spelling of a flag, so the list join knows every spelling
    base = ["generate", "--p", "3", "--m", "3", "--lambda", "6"]
    out = tmp_path / "z.json"
    assert main([*base, *given, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(given)}\n" in captured.err
    assert not out.exists()
    assert main([*base, "--linear", "-1,2,3", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("flag, value", [("--linear", "-1,2,3"), ("--h-table", "-1,2,3"),
                                         ("--pi", "-3,2")])
def test_generate_takes_a_negative_leading_list_after_a_space(tmp_path, capsys, flag, value):
    base = ["generate", "--p", "3", "--m", "3", "--s", "2", "--lambda", "6"]
    outcomes = []
    for given in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / f"{len(outcomes)}.json"
        code = main([*base, *given, "--out", str(out)])
        captured = capsys.readouterr()
        text = captured.out.replace(str(out), "OUT")
        outcomes.append((code, text, captured.err, out.read_bytes() if out.exists() else None))
    assert outcomes[0] == outcomes[1]
    # pi must be a permutation of {2, 3}, so a negative entry is refused by value
    assert outcomes[0][0] == (2 if flag == "--pi" else 0)
    assert "expected one argument" not in outcomes[0][2]
    # a flag with no value at all is still a usage error
    assert main([*base, flag, "--seed", "3", "--out", str(tmp_path / "x.json")]) == 2
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    assert main(["generate", "--help"]) == 0
    assert "=-1,2" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["verify", "{path}"], "error: document is not valid JSON: "),
    (["generate", "--params", "{path}", "--out", "{out}"],
     "error: parameter file is not valid JSON: "),
], ids=["document", "params"])
def test_deeply_nested_json_is_invalid_json(tmp_path, capsys, argv, message):
    # json recursion past Python's limit is a malformed input, not an internal failure
    path, out = tmp_path / "deep.json", tmp_path / "set.json"
    path.write_text("[" * 200000)
    assert main([a.format(path=path, out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert not out.exists()


_REPEATED_KEYS = [
    ("verify", '"lambda": 6,', '"lambda": 6,\n  "lambda": 7,', "lambda"),
    ("pmepr", '"lambda": 6,', '"lambda": 6,\n  "lambda": 7,', "lambda"),
    ("verify", '"S": 3,', '"S": 3,\n    "S": 9,', "S"),
    ("pmepr", '"m": 3,', '"m": 3,\n          "m": 2,', "m"),
]


@pytest.mark.parametrize("command, old, new, key", _REPEATED_KEYS,
                         ids=["verify-root", "pmepr-root", "verify-claim", "pmepr-params"])
def test_document_with_a_repeated_key_exits_2(tmp_path, capsys, command, old, new, key):
    # json keeps the last of a repeated key; the reader refuses the document instead
    text = document_to_json(document_from_set(mscs_3_27_3()))
    assert text.count(old) == 1
    path = tmp_path / "set.json"
    path.write_text(text.replace(old, new))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: JSON object repeats key {key!r}\n"
    with pytest.raises(ValueError, match="repeats key"):
        document_from_json(text.replace(old, new))


@pytest.mark.parametrize("text, key", [
    ('{"lambda": 6, "p": 3, "m": 2, "m": 3}', "m"),
    ('{"lambda": 6, "lambda": 6, "p": 3, "m": 2}', "lambda"),
    ('{"lambda": 6, "blocks": [{"p": 3, "m": 2, "p": 2}]}', "p"),
], ids=["flat", "same-value", "block"])
def test_generate_params_with_a_repeated_key_exits_2(tmp_path, capsys, text, key):
    path, out = tmp_path / "params.json", tmp_path / "set.json"
    path.write_text(text)
    assert main(["generate", "--params", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: JSON object repeats key {key!r}\n"
    assert not out.exists()


def test_generate_names_an_invalid_params_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text('{"lambda": 6, "p": 3,\n')
    out = tmp_path / "set.json"
    assert main(["generate", "--params", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameter file is not valid JSON: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


_PARAMS_BASE = {
    "lambda": 30,
    "blocks": [
        {"p": 2, "m": 2, "s": 1, "pi": [2, 1], "linear": [1, 7], "constant": 3},
        {"p": 3, "m": 1, "s": 1, "pi": [1], "linear": [4], "constant": 29},
    ],
    "extension": {"p": 5, "linear": 2, "constant": 11},
}
_INT_FIELDS = {"block": ["p", "m", "s", "constant"], "extension": ["p", "linear", "constant"]}
_NOT_LIST = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                      st.integers(-9, 9), st.just({}))
_NOT_INT_ELEMENT = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                             st.lists(st.integers(0, 5), max_size=2), st.just({}))


@st.composite
def _params_mutants(draw):
    """A mutated length-extended lambda = 30 parameter file and whether it is malformed."""
    params = copy.deepcopy(_PARAMS_BASE)
    blocks = params["blocks"]
    block = blocks[draw(st.integers(0, 1))]
    kind = draw(st.sampled_from([
        "none", "drop-required", "drop-optional", "drop-block", "drop-extension",
        "retype-root", "retype-lambda", "retype-blocks", "retype-block", "retype-extension",
        "retype-int", "retype-list", "retype-element", "lambda", "prime", "m", "s", "pi",
        "wrap", "empty-blocks",
    ]))
    malformed = True
    if kind == "none":
        malformed = False
    elif kind == "drop-required":
        where = draw(st.sampled_from(["root", "block", "extension"]))
        target = {"root": params, "block": block, "extension": params["extension"]}[where]
        target.pop(draw(st.sampled_from({"root": ["lambda", "blocks"], "block": ["p", "m"],
                                         "extension": ["p"]}[where])))
    elif kind == "drop-optional":
        # absent fields take their defaults: s = 1, identity pi, zeros
        if draw(st.booleans()):
            block.pop(draw(st.sampled_from(["s", "pi", "linear", "constant"])))
        else:
            params["extension"].pop(draw(st.sampled_from(["linear", "constant"])))
        malformed = False
    elif kind == "drop-block":
        blocks.remove(block)
        malformed = False
    elif kind == "drop-extension":
        params.pop("extension")
        malformed = False
    elif kind == "retype-root":
        params = draw(st.one_of(_NOT_INT_ELEMENT, st.integers(-9, 9)))
    elif kind == "retype-lambda":
        params["lambda"] = draw(_NOT_INT_ELEMENT)
    elif kind == "retype-blocks":
        params["blocks"] = draw(_NOT_LIST)
    elif kind == "retype-block":
        blocks[blocks.index(block)] = draw(st.one_of(_NOT_LIST,
                                                     st.lists(st.integers(), max_size=2)))
    elif kind == "retype-extension":
        params["extension"] = draw(st.one_of(_NOT_LIST, st.lists(st.integers(), max_size=2)))
    elif kind == "retype-int":
        where = draw(st.sampled_from(["block", "extension"]))
        target = block if where == "block" else params["extension"]
        target[draw(st.sampled_from(_INT_FIELDS[where]))] = draw(_NOT_INT_ELEMENT)
    elif kind == "retype-list":
        block[draw(st.sampled_from(["pi", "linear"]))] = draw(_NOT_LIST)
    elif kind == "retype-element":
        field = draw(st.sampled_from(["pi", "linear"]))
        block[field][draw(st.integers(0, len(block[field]) - 1))] = draw(_NOT_INT_ELEMENT)
    elif kind == "lambda":
        # every lambda but a multiple of 30 misses a prime; 0 and negatives too
        params["lambda"] = draw(st.integers(-60, 29))
    elif kind == "prime":
        # 2, 3 and 5 are taken and divide 30; no other p is admissible
        target = draw(st.sampled_from([block, params["extension"]]))
        target["p"] = draw(st.integers(-10, 40).filter(lambda p: p != target["p"]))
    elif kind == "m":
        # pi and linear fix m; huge m exceeds the length cap
        block["m"] = draw(st.one_of(st.integers(-5, 6), st.integers(65, 10**30)).filter(
            lambda m: m != block["m"]))
    elif kind == "s":
        block["s"] = draw(st.integers(-3, 4).filter(lambda s: s != 1))
    elif kind == "pi":
        i = draw(st.integers(0, len(block["pi"]) - 1))
        block["pi"][i] = draw(st.integers(-5, 5).filter(lambda v: v != block["pi"][i]))
        malformed = sorted(block["pi"]) != list(range(1, block["m"] + 1))
    elif kind == "wrap":
        # out-of-range coefficients and constants are reduced mod lambda
        target, field = draw(st.sampled_from([(block, "constant"),
                                              (params["extension"], "linear"),
                                              (params["extension"], "constant")]))
        target[field] = draw(st.one_of(st.integers(-10**30, -1), st.integers(30, 10**30)))
        malformed = False
    else:
        params["blocks"] = []
    return params, malformed


@settings(max_examples=150, deadline=None)
@given(mutant=_params_mutants())
@example(mutant=({**_PARAMS_BASE, "lambda": 0}, True))
@example(mutant=({**_PARAMS_BASE, "blocks": [{**_PARAMS_BASE["blocks"][0], "pi": None},
                                             _PARAMS_BASE["blocks"][1]]}, True))
def test_generate_fuzzed_params(tmp_path_factory, mutant):
    params, malformed = mutant
    path = tmp_path_factory.getbasetemp() / "fuzzed-params.json"
    path.write_text(json.dumps(params))
    doc = tmp_path_factory.getbasetemp() / "fuzzed-set.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["generate", "--params", str(path), "--verify", "--out", str(doc)])
    out, err = out.getvalue(), err.getvalue()
    if malformed:
        assert rc == 2 and out == "", (rc, out, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert rc == 0 and err == "", (rc, out, err)
        assert out.startswith(f"wrote {doc}: "), out


def test_parser_is_built_once_and_commands_resolve_per_call(tmp_path, monkeypatch):
    assert mscs.cli.build_parser() is mscs.cli.build_parser()
    seen = []
    monkeypatch.setattr(mscs.cli, "cmd_verify", lambda args: seen.append(args.input) or 7)
    assert main(["verify", "x.json"]) == 7
    assert seen == ["x.json"]


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


@pytest.mark.parametrize("lam", ["0", "-6"])
def test_generate_seeded_checks_modulus_before_drawing(tmp_path, capsys, lam):
    out = tmp_path / "x.json"
    assert main(["generate", "--p", "3", "--m", "2", "--lambda", lam, "--seed", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: modulus {lam} must be >= 2\n"
    assert not out.exists()


def _move_sums(monkeypatch, move):
    """Apply ``move`` to the embedding sums that verification computes."""
    inner = mscs.correlation._lift_sums
    monkeypatch.setattr(mscs.correlation, "_lift_sums",
                        lambda sset, ks, shifts: move(inner(sset, ks, shifts)))


def _pull_first_shift(sums):
    # every conjugate of the first tested shift, zero or not, between B and 1 - B
    sums[:, 0] = 0.5
    return sums


def test_verify_internal_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    path = _example_doc_path(tmp_path)
    _move_sums(monkeypatch, _pull_first_shift)
    assert main(["verify", path, "--claim", "gcs"]) == 3
    err = capsys.readouterr().err
    assert err == ("error: internal check failed: conjugate maximum 5.000e-01 at shift 1 lies "
                   "between the bound 1.746e-12 and 1 minus it\n")
    monkeypatch.undo()
    # a flipped oracle contradicts the verdict at the largest nonzero shift
    monkeypatch.setattr(mscs.correlation, "is_zero", lambda total: False)
    assert main(["verify", path, "--S", "3"]) == 3
    assert capsys.readouterr().err == ("error: internal check failed: the verdict at shift 24 "
                                       "disagrees with aacf_set_sum\n")


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


def test_generate_seeded_extension_is_drawn(tmp_path):
    # the extension is one more block record, drafted after the base blocks
    def generate(params, name, *seed):
        path, out = tmp_path / f"{name}.params.json", tmp_path / f"{name}.json"
        path.write_text(json.dumps(params))
        assert main(["generate", "--params", str(path), *seed, "--out", str(out)]) == 0
        return out.read_bytes(), json.loads(out.read_text())["provenance"]["params"]

    base = {"lambda": 6, "blocks": [{"p": 3, "m": 2}]}
    extended = {**base, "extension": {"p": 2}}
    first, drawn = generate(extended, "a", "--seed", "3")
    again, _ = generate(extended, "b", "--seed", "3")
    assert first == again
    assert drawn["extension"] == {"p": 2, "linear": 2, "constant": 4}
    assert drawn["blocks"] == generate(base, "base", "--seed", "3")[1]["blocks"]
    given = {**base, "extension": {"p": 2, "linear": 5, "constant": 1}}
    _, kept = generate(given, "given", "--seed", "3")
    assert kept["extension"] == {"p": 2, "linear": 5, "constant": 1}
    assert kept["blocks"] == drawn["blocks"]
    _, unseeded = generate(extended, "unseeded")
    assert unseeded["extension"] == {"p": 2, "linear": 0, "constant": 0}


@pytest.mark.parametrize("flag, value", [
    ("--p", "5"), ("--m", "7"), ("--s", "2"), ("--lambda", "10"), ("--pi", "9"),
    ("--linear", "1,2"), ("--constant", "4"), ("--h-table", "0,1"),
])
def test_generate_params_excludes_block_flags(tmp_path, capsys, flag, value):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"lambda": 6, "p": 3, "m": 2}))
    out = tmp_path / "y.json"
    assert main(["generate", "--params", str(params), flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --params cannot be combined with {flag}\n"
    assert not out.exists()
    # several at once are all named, in the order of the flag list
    assert main(["generate", "--params", str(params), "--p", "5", "--m", "7", "--lambda", "10",
                 "--s", "2", "--pi", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --params cannot be combined with --p, --m, --s, --lambda, --pi\n")


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


def test_verify_flag_overrides_document_claim(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    assert main(["verify", path, "--S", "1"]) == 1
    out = capsys.readouterr().out
    assert "claim: MSCS S=1" in out
    assert "shifts checked: 26" in out
    assert "verdict: fail" in out
    zcs = tmp_path / "zcs.json"
    sset = mscs_3_27_3()
    write_document(document_from_set(SequenceSet(
        sset.sequences, {"construction": "external", "claims": [{"kind": "ZCS", "Z": 24}]})), str(zcs))
    assert main(["verify", str(zcs)]) == 0
    assert "claim: ZCS Z=24" in capsys.readouterr().out
    assert main(["verify", str(zcs), "--Z", "26"]) == 1
    out = capsys.readouterr().out
    assert "claim: ZCS Z=26" in out
    assert "verdict: fail" in out


@pytest.mark.parametrize("flags, message", [
    (["--claim", "gcs", "--S", "5"], "--S applies only to MSCS claims, not GCS"),
    (["--claim", "gcs", "--Z", "5"], "--Z applies only to ZCS claims, not GCS"),
    (["--Z", "24"], "--Z applies only to ZCS claims, not MSCS"),
    (["--claim", "mscs", "--Z", "24"], "--Z applies only to ZCS claims, not MSCS"),
    (["--claim", "zcs", "--S", "3"], "--S applies only to MSCS claims, not ZCS"),
    (["--claim", "zcs"], "ZCS claim needs --Z"),
    (["--S", "0"], "claim S=0 must be >= 1"),
], ids=["gcs-S", "gcs-Z", "doc-mscs-Z", "mscs-Z", "zcs-S", "zcs-needs-Z", "S-zero"])
def test_verify_rejects_flag_foreign_to_claim(tmp_path, capsys, flags, message):
    path = _example_doc_path(tmp_path)
    assert main(["verify", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_verify_stdout_is_pinned(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == (
        f"document: {path}\nset: M=3 L=27 lambda=6\nclaim: MSCS S=3\nmode: exact\n"
        "shifts checked: 8\nverdict: pass\n")
    payload = json.loads(document_to_json(document_from_set(mscs_3_54_2())))
    for i in range(0, 54, 5):
        payload["sequences"][1][i] = (payload["sequences"][1][i] + 1) % payload["lambda"]
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(payload))
    sset = document_to_set(read_document(str(flipped)))
    failing = [t for t in range(1, 54) if not mscs.correlation.is_zero(
        mscs.correlation.aacf_set_sum(sset, t))]
    assert len(failing) > 20
    assert main(["verify", str(flipped), "--claim", "gcs"]) == 1
    assert capsys.readouterr().out == (
        f"document: {flipped}\nset: M=3 L=54 lambda=6\nclaim: GCS\nmode: exact\n"
        f"shifts checked: 53\nfailing shifts: {' '.join(map(str, failing[:20]))} "
        f"(+{len(failing) - 20} more)\nverdict: fail\n")


def _hand_written(rows: str, provenance: str = '{"construction": "external"}',
                  length: int = 2) -> str:
    return ('{"schema": 1, "lambda": 6, "length": %d, "set_size": 2, '
            '"claim": {"kind": "GCS"}, "provenance": %s, "sequences": [[1, 5], %s]}'
            % (length, provenance, rows))


@pytest.mark.parametrize("provenance", ['{"construction": "external"}',
                                        '{"construction": "true", "note": "false"}'],
                         ids=["no-literal", "literal-in-provenance"])
@pytest.mark.parametrize("row, message", [
    ("[0, true]", _TYPE_ERROR), ("[0, 1.5]", _TYPE_ERROR), ('[0, "1"]', _TYPE_ERROR),
    ("[0, null]", _TYPE_ERROR), ("[0, [1]]", _TYPE_ERROR), (f"[0, {2**70}]", _RANGE_ERROR),
    ("[0, -1]", _RANGE_ERROR), ("[0, 6]", _RANGE_ERROR), (f"[{2**70}, 1.5]", _TYPE_ERROR),
], ids=["true", "float", "string", "null", "nested", "2^70", "negative", "lambda",
        "2^70-then-float"])
def test_document_reader_message_for_each_bad_row(tmp_path, capsys, provenance, row, message):
    text = _hand_written(row, provenance)
    with pytest.raises(ValueError) as caught:
        document_from_json(text)
    assert str(caught.value) == message
    path = tmp_path / "bad-row.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_document_reader_takes_true_in_a_provenance_string():
    doc = document_from_json(_hand_written("[0, 4]", '{"construction": "true"}'))
    assert doc.provenance == {"construction": "true"}
    assert doc.sequences.tolist() == [[1, 5], [0, 4]]
    assert doc.sequences.dtype == np.int64 and not doc.sequences.flags.writeable


def test_document_reader_refuses_length_beyond_cap(tmp_path, capsys):
    text = _hand_written("[0, 4]", length=1_000_001)
    with pytest.raises(ValueError) as caught:
        document_from_json(text)
    assert str(caught.value) == "sequence length 1000001 exceeds capacity limit 1000000"
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: sequence length 1000001 exceeds capacity limit 1000000\n")
    # at the cap the rows are inspected
    with pytest.raises(ValueError, match="^sequence of length 2 does not match length 1000000$"):
        document_from_json(_hand_written("[0, 4]", length=1_000_000))


def test_document_reader_refuses_negative_length(tmp_path, capsys):
    # refused as soon as the field is read: no row or later field is looked at
    text = ('{"schema": 1, "lambda": 6, "length": -5, "set_size": 0, '
            '"claim": {"kind": "GCS"}, "provenance": {}, "sequences": []}')
    with pytest.raises(ValueError) as caught:
        document_from_json(text)
    assert str(caught.value) == "length -5 must be >= 0"
    path = tmp_path / "negative.json"
    path.write_text(text)
    for command in ("verify", "pmepr"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", "error: length -5 must be >= 0\n")


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


# P(t) = 1 - e^(2 pi i t): its curve is about 1e-32 at t = 0 and below 1e-4 near it
_ZERO_AT_ORIGIN = SetDocument(
    modulus=2,
    claim={"kind": "MSCS", "S": 1},
    provenance={"construction": "external"},
    sequences=_matrix([[0, 1]]),
)


@pytest.mark.parametrize("doc, n_os", [
    (document_from_set(mscs_3_54_2()), 400),
    (_ONE_MEMBER, 600),
    (_ZERO_AT_ORIGIN, 5000),
], ids=["mscs-3-54-2", "one-member", "zero-at-origin"])
def test_pmepr_iapr_export_bytes(tmp_path, capsys, doc, n_os):
    # more values than one chunk holds, so the rows cross a chunk boundary
    assert n_os * doc.length * (doc.set_size + 1) > CSV_CHUNK_VALUES
    path = str(tmp_path / "set.json")
    write_document(doc, path)
    csv = tmp_path / "iapr.csv"
    assert main(["pmepr", path, "--n-os", str(n_os), "--iapr-out", str(csv)]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == _reference_iapr_csv(doc, n_os)


def test_pmepr_iapr_export_curve_cells(tmp_path, capsys):
    # a 0 cell, a cell below 1e-13 and cells in exponent notation reach the file
    path = str(tmp_path / "set.json")
    write_document(_ZERO_AT_ORIGIN, path)
    csv = tmp_path / "iapr.csv"
    assert main(["pmepr", path, "--n-os", "5000", "--iapr-out", str(csv)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in csv.read_text().splitlines()[2:]]
    assert rows[0][0] == "0" and float(rows[0][1]) < 1e-13
    assert sum("e-" in cell and float(cell) >= 1e-13 for _, cell in rows) > 10


@pytest.mark.parametrize("target", ["missing/iapr.csv", "."],
                         ids=["missing-directory", "directory"])
def test_pmepr_unwritable_iapr_out_fails_before_any_work(tmp_path, capsys, monkeypatch, target):
    def refuse(*args):
        raise AssertionError("iapr_curve called before the output was opened")

    monkeypatch.setattr(_PMEPR_MODULE, "iapr_curve", refuse)
    path = _example_doc_path(tmp_path)
    assert main(["pmepr", path, "--iapr-out", str(tmp_path / target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _reference_cells(block):
    return "".join(",".join(f"{v:.10g}" for v in row) + "\n" for row in block).encode()


def _near(x, ulps):
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else 0.0))
    return x


# finite non-negative doubles, subnormals and 0 included; values a few ulps
# from 10^k and from the 10-digit rounding midpoints (D + 1/2) * 10^(X - 9);
# exact dyadic values
_CELL_VALUES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.builds(lambda k, u: _near(float(f"1e{k}"), u), st.integers(-14, 10), st.integers(-4, 4)),
    st.builds(lambda d, x, u: _near(float(f"{(2 * d + 1) * 5}e{x - 10}"), u),
              st.integers(10**9, 10**10 - 1), st.integers(-14, 10), st.integers(-4, 4)),
    st.builds(lambda m, e: float(np.ldexp(m, e)), st.integers(1, 2**12), st.integers(-60, 30)),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_CELL_VALUES, min_size=1, max_size=124), width=st.integers(1, 31))
@example(values=[0.5, 2.0**-20, 0.0, 1e-13, 9999999999.5, 1e10, 5e-324], width=1)
@example(values=[0.033374467305, 4.6980617935e-06], width=2)  # t is a float midpoint, T is not
def test_format_cells_matches_percent_g(values, width):
    # the last row is filled up from the front of the list
    block = np.resize(np.array(values), (-(-len(values) // width), width))
    assert mscs.cli._format_cells(block) == _reference_cells(block.tolist())


def test_pmepr_single_carrier_external(tmp_path, capsys, monkeypatch):
    # a GCS claim holds S = 1 to 1 <= S < L, as an MSCS claim's S is held,
    # so both commands refuse it on a length-1 document before any work
    def refuse(*args):
        raise AssertionError("iapr_curve called before the claim check")

    monkeypatch.setattr(_PMEPR_MODULE, "iapr_curve", refuse)
    path = str(tmp_path / "one.json")
    write_document(_SINGLE_CARRIER, path)
    for command in ("pmepr", "verify"):
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", "error: GCS verification needs length >= 2\n")


@pytest.mark.parametrize("doc, check", [
    (_SINGLE_CARRIER, mscs.correlation.verify_gcs),
    (SetDocument(modulus=3, claim={"kind": "ZCS", "Z": 3},
                 provenance={"construction": "external"},
                 sequences=_matrix([[0, 1, 2], [0, 0, 0]])),
     lambda sset: mscs.correlation.verify_type2_zcs(sset, 3)),
], ids=["GCS-L1", "ZCS-Z-at-L"])
def test_verifier_refusals_match_the_cli(tmp_path, capsys, doc, check):
    # the CLI prints the verifier's own refusal, before any transform: a
    # library caller of the verifier gets the same text
    path = str(tmp_path / "doc.json")
    write_document(doc, path)
    assert main(["verify", path]) == 2
    printed = capsys.readouterr().err
    with pytest.raises(ValueError) as caught:
        check(document_to_set(doc))
    assert printed == f"error: {caught.value}\n"


def test_library_refusals():
    with pytest.raises(ValueError) as caught:
        mscs.correlation.verify_type2_zcs(mscs_3_27_3(), 0)
    assert str(caught.value) == "Z=0 must satisfy 1 <= Z < L=27"
    with pytest.raises(ValueError) as caught:
        document_from_set(SequenceSet(mscs_3_27_3().sequences))
    assert str(caught.value) == "set carries no correlation claim"


def test_generate_verify_refuses_a_failing_set(tmp_path, capsys, monkeypatch):
    # the claim table looks its verifier up per call, so the rebinding holds
    def failing(sset, S):
        shifts = np.arange(S, sset.length, S)
        zeros = np.arange(len(shifts)) % 2 == 1
        return mscs.correlation.CorrelationReport("MSCS", S, "exact", shifts, zeros,
                                                  np.where(zeros, 0.0, 1.0))

    monkeypatch.setattr(mscs.cli, "verify_mscs", failing)
    out = tmp_path / "set.json"
    assert main(["generate", "--p", "3", "--m", "3", "--s", "2", "--lambda", "6",
                 "--verify", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "verification failed at shifts: 3, 9, 15, 21\n")
    assert not out.exists()


def test_huge_modulus_document_verifies_and_measures(tmp_path, capsys):
    # a table of all 2^62 roots cannot be allocated; 4 phases need none
    half = 2**61
    doc = SetDocument(modulus=2 * half, claim={"kind": "GCS"},
                      provenance={"construction": "external"},
                      sequences=_matrix([[0, 0, 0, half], [0, 0, half, 0]]))
    path = str(tmp_path / "huge.json")
    write_document(doc, path)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "mode: numerical" in out and out.endswith("verdict: pass\n")
    assert main(["pmepr", path]) == 0
    assert "bound satisfied: yes" in capsys.readouterr().out


def test_pmepr_rejects_bad_oversampling(tmp_path, capsys):
    path = _example_doc_path(tmp_path)
    assert main(["pmepr", path, "--n-os", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_pmepr_rejects_oversized_grid(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("iapr_curve called before the grid check")

    monkeypatch.setattr(_PMEPR_MODULE, "iapr_curve", refuse)
    path = _example_doc_path(tmp_path)
    assert main(["pmepr", path, "--n-os", str(10**9)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: envelope grid of 27000000000 points exceeds "
                            "capacity limit 64000000\n")


@pytest.mark.parametrize("claim, message", [
    ({"kind": "MSCS", "S": 0}, "claim S=0 must be >= 1"),
    ({"kind": "MSCS", "S": -3}, "claim S=-3 must be >= 1"),
    ({"kind": "ZCS", "Z": 0}, "claim Z=0 must be >= 1"),
    ({"kind": "GCS", "S": 2}, "GCS claim takes no S"),
    ({"kind": "ZCS", "Z": 26, "S": 100}, "ZCS claim takes no S"),
    ({"kind": "MSCS", "S": 3, "Z": 24}, "MSCS claim takes no Z"),
    ({"kind": "GCS", "note": "x"}, "GCS claim takes no note"),
], ids=["S-0", "S-negative", "Z-0", "GCS-with-S", "ZCS-with-S", "MSCS-with-Z", "GCS-with-note"])
def test_pmepr_rejects_claim_below_one(tmp_path, capsys, monkeypatch, claim, message):
    # a claim holds its kind and that kind's own parameter, at least 1;
    # verify and pmepr refuse anything else before any work
    def refuse(*args):
        raise AssertionError("iapr_curve called before the claim check")

    monkeypatch.setattr(_PMEPR_MODULE, "iapr_curve", refuse)
    path = tmp_path / "set.json"
    write_document(document_from_set(mscs_3_27_3()), str(path))
    payload = json.loads(path.read_text())
    payload["claim"] = claim
    path.write_text(json.dumps(payload))
    for command in ("pmepr", "verify"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


_SHORT_PARAMETERS = pytest.mark.parametrize("claim, message", [
    ({"kind": "MSCS", "S": 5}, "S=5 must satisfy 1 <= S < L=3"),
    ({"kind": "MSCS", "S": 3}, "S=3 must satisfy 1 <= S < L=3"),
    ({"kind": "ZCS", "Z": 3}, "Z=3 must satisfy 1 <= Z < L=3"),
], ids=["S-over-L", "S-at-L", "Z-at-L"])


def _short_document(tmp_path, claim):
    """An M = 2, L = 3 document carrying ``claim``."""
    doc = SetDocument(modulus=3, claim=claim, provenance={"construction": "external"},
                      sequences=_matrix([[0, 1, 2], [0, 0, 0]]))
    path = str(tmp_path / "short.json")
    write_document(doc, path)
    return path


@_SHORT_PARAMETERS
def test_verify_refuses_a_claim_parameter_not_below_the_length(tmp_path, capsys, claim, message):
    path = _short_document(tmp_path, claim)
    assert main(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # the rule applies to the claim after the flags: a flag can bring the
    # parameter in range, or put it out of range of a valid document claim
    key = "S" if claim["kind"] == "MSCS" else "Z"
    assert main(["verify", path, f"--{key}", "1"]) in (0, 1)
    assert f"claim: {claim['kind']} {key}=1" in capsys.readouterr().out
    assert main(["verify", path, "--claim", "gcs"]) in (0, 1)
    assert "claim: GCS" in capsys.readouterr().out
    valid = _short_document(tmp_path, {"kind": claim["kind"], key: 1})
    assert main(["verify", valid, f"--{key}", str(claim[key])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@_SHORT_PARAMETERS
def test_pmepr_refuses_a_claim_parameter_not_below_the_length(tmp_path, capsys, monkeypatch,
                                                              claim, message):
    def refuse(*args):
        raise AssertionError("iapr_curve called before the claim check")

    monkeypatch.setattr(_PMEPR_MODULE, "iapr_curve", refuse)
    path = _short_document(tmp_path, claim)
    assert main(["pmepr", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("claim, bound", [
    ({"kind": "GCS"}, "bound (M*S): 6\nbound satisfied: yes\n"),
    ({"kind": "MSCS", "S": 2}, "bound (M*S): 12\nbound satisfied: yes\n"),
    ({"kind": "ZCS", "Z": 5}, ""),
], ids=["GCS", "MSCS", "ZCS"])
def test_pmepr_stdout_is_pinned_for_each_claim_kind(tmp_path, capsys, claim, bound):
    # the bound is M*S with S = 1 for a GCS and the claim's S for an MSCS;
    # a type-II ZCS has none.  M = 6, L = 12: a GCS, hence also an MSCS and
    # a ZCS of any S and Z
    sset = multi_prime_mscs([PrimeBlock(p=2, m=2), PrimeBlock(p=3, m=1)], 6)
    doc = dataclasses.replace(document_from_set(sset), claim=claim)
    path = str(tmp_path / "set.json")
    write_document(doc, path)
    assert main(["pmepr", path]) == 0
    assert capsys.readouterr().out == (
        f"document: {path}\nset: M=6 L=12 lambda=6\noversampling: 64\n"
        "pmepr[0]: 3.244674\npmepr[1]: 3.244674\npmepr[2]: 5.256396\npmepr[3]: 5.256396\n"
        "pmepr[4]: 5.256396\npmepr[5]: 5.256396\nset pmepr: 5.256396\n" + bound)


@pytest.mark.parametrize("export", [False, True], ids=["stdout", "iapr-out"])
def test_pmepr_computes_each_curve_once(tmp_path, capsys, monkeypatch, export):
    # the printed PMEPRs and the CSV columns come from one curve per member
    calls = []

    def counted(x, oversampling):
        calls.append(x)
        return iapr_curve(x, oversampling)

    monkeypatch.setattr(_PMEPR_MODULE, "iapr_curve", counted)
    sset = mscs_3_54_2()
    path = str(tmp_path / "set.json")
    write_document(document_from_set(sset), path)
    extra = ["--iapr-out", str(tmp_path / "iapr.csv")] if export else []
    assert main(["pmepr", path, "--n-os", "4", *extra]) == 0
    capsys.readouterr()
    assert calls == list(sset.sequences)


def test_pmepr_rejects_zero_length_document(tmp_path, capsys):
    doc = SetDocument(modulus=2, claim={"kind": "GCS"},
                      provenance={"construction": "external"}, sequences=_matrix([[]]))
    path = str(tmp_path / "empty.json")
    write_document(doc, path)
    assert main(["pmepr", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: length 0 must be >= 1\n"


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
    broken = SequenceSet([PhaseSequence(6, vals)] + list(sset.sequences[1:]), sset.metadata)
    monkeypatch.setattr(mscs.reference_sets, "mscs_3_27_3", lambda: broken)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    # three checks fail on the corrupted set; the other eight still pass
    # (conjugate-path compares the verdicts and conjugates with the counts, and
    # document-round-trip writes and reads back whatever phases it holds)
    failed = [line.split(":")[0][5:] for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == ["mscs-3-27-3", "zcs-3-27-24", "energy-identity"]
    assert "selftest: 8/11 ok" in out


def test_selftest_catches_broken_document_reader(monkeypatch, capsys):
    real = mscs.cli.document_from_json

    def off_by_one(text):
        doc = real(text)
        return SetDocument(doc.modulus, doc.claim, doc.provenance,
                           _matrix((doc.sequences + 1) % doc.modulus))

    monkeypatch.setattr(mscs.cli, "document_from_json", off_by_one)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    failed = [line.split(":")[0][5:] for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == ["document-round-trip"]


def _selftest_failures(capsys):
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    return [line.split(":")[0][5:] for line in out.splitlines() if line.startswith("FAIL ")]


def test_selftest_verifies_the_claims_a_construction_attaches(monkeypatch, capsys):
    real = mscs.cli.single_prime_mscs

    def wrong_claim(block, modulus):
        sset = real(block, modulus)
        if block.s == 1:
            return sset
        claims = [{"kind": "MSCS", "S": 1}]
        return SequenceSet(sset.sequences, {**sset.metadata, "claims": claims})

    monkeypatch.setattr(mscs.cli, "single_prime_mscs", wrong_claim)
    assert _selftest_failures(capsys) == ["single-prime-sweep"]


def test_selftest_fails_a_reference_set_that_does_not_build(monkeypatch, capsys):
    def refuse():
        raise RuntimeError("no set")

    monkeypatch.setattr(mscs.reference_sets, "mscs_3_54_2", refuse)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL mscs-3-54-2: RuntimeError: no set\n" in out
    failed = [line.split(":")[0][5:] for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == ["mscs-3-54-2", "pmepr-3-54-2", "energy-identity", "conjugate-path",
                      "iapr-curves"]
    assert "selftest: 6/11 ok" in out


@pytest.mark.parametrize("verdict", [True, False])
def test_selftest_separation_compares_the_exact_flags(monkeypatch, capsys, verdict):
    monkeypatch.setattr(mscs.cli, "is_zero", lambda total: verdict)
    assert "conjugate-path" in _selftest_failures(capsys)


def test_selftest_separation_fails_a_float_sum_off_its_exact_value(monkeypatch, capsys):
    _move_sums(monkeypatch, _pull_first_shift)
    # every check that verifies a claim raises; the PMEPR and identity checks
    # take the energy sums through their own import of _lift_sums
    assert _selftest_failures(capsys) == ["mscs-3-27-3", "zcs-3-27-24", "mscs-3-54-2",
                                          "single-prime-sweep", "multi-prime-sweep",
                                          "conjugate-path"]


def test_selftest_conjugate_path_catches_a_conjugate_off_its_exact_value(monkeypatch, capsys):
    # 1e-9 leaves every verdict as it was, but not the conjugates' distance to the counts
    real = mscs.cli._lift_sums
    monkeypatch.setattr(mscs.cli, "_lift_sums", lambda *args: real(*args) + 1e-9)
    assert _selftest_failures(capsys) == ["conjugate-path"]


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


def test_pmepr_refuses_an_iapr_export_over_the_grid_cap(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("iapr_curve called before the export cap was checked")

    monkeypatch.setattr(_PMEPR_MODULE, "iapr_curve", refuse)
    path = tmp_path / "set.json"
    csv = tmp_path / "iapr.csv"
    # 2 members of 1000 points at N_os = 64000: each grid is at the cap, the export twice it
    write_document(SetDocument(5, {"kind": "GCS"}, {}, _matrix([[0] * 1000, [1] * 1000])),
                   str(path))
    assert main(["pmepr", str(path), "--n-os", "64000", "--iapr-out", str(csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: IAPR export of 128000000 values exceeds "
                            "capacity limit 64000000\n")
    assert not csv.exists()


def test_pmepr_iapr_export_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    path = _example_doc_path(tmp_path)
    csv = tmp_path / "iapr.csv"
    values = 3 * 4 * 27
    monkeypatch.setattr(mscs.cli, "MAX_GRID", values)
    assert main(["pmepr", path, "--n-os", "4", "--iapr-out", str(csv)]) == 0
    assert csv.read_bytes().count(b"\n") == 2 + 4 * 27
    csv.unlink()
    capsys.readouterr()
    monkeypatch.setattr(mscs.cli, "MAX_GRID", values - 1)
    assert main(["pmepr", path, "--n-os", "4", "--iapr-out", str(csv)]) == 2
    assert capsys.readouterr().err == (f"error: IAPR export of {values} values exceeds "
                                       f"capacity limit {values - 1}\n")
    assert not csv.exists()
    # without the export only the grid is capped
    assert main(["pmepr", path, "--n-os", "4"]) == 0


@pytest.mark.parametrize("provenance, reason", [
    ({"note": float("inf")}, "Out of range float values are not JSON compliant"),
    ({"obj": object()}, "Object of type object is not JSON serializable"),
], ids=["infinity", "object"])
def test_set_document_refuses_a_provenance_strict_json_cannot_carry(tmp_path, provenance,
                                                                    reason):
    # refused when built, so the writer never opens the file it would have
    # left unreadable (Infinity) or truncated (a TypeError mid-write)
    path = tmp_path / "set.json"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError) as built:
        write_document(SetDocument(6, {"kind": "GCS"}, provenance, _matrix([[0, 1], [2, 3]])),
                       str(path))
    assert str(built.value).startswith(f"provenance is not JSON: {reason}")
    assert "\n" not in str(built.value)
    assert path.read_bytes() == b"kept"


def test_set_document_applies_the_length_cap(tmp_path):
    path = tmp_path / "long.json"
    over = np.zeros((1, 1000001), dtype=np.int64)
    over.flags.writeable = False
    message = "sequence length 1000001 exceeds capacity limit 1000000"
    with pytest.raises(ValueError) as built:
        write_document(SetDocument(2, {"kind": "GCS"}, {}, over), str(path))
    assert str(built.value) == message
    assert not path.exists()
    # the reader refuses the same length before it converts a row
    text = json.dumps({"schema": SCHEMA_VERSION, "lambda": 2, "length": 1000001, "set_size": 1,
                       "claim": {"kind": "GCS"}, "provenance": {}, "sequences": [["x"]]})
    with pytest.raises(ValueError) as read:
        document_from_json(text)
    assert str(read.value) == message
    at_cap = np.zeros((1, 1000000), dtype=np.int64)
    at_cap.flags.writeable = False
    assert SetDocument(2, {"kind": "GCS"}, {}, at_cap).length == 1000000


def test_read_document_decodes_utf8_strictly(tmp_path, capsys):
    path = tmp_path / "set.json"
    data = document_to_json(document_from_set(mscs_3_27_3())).encode()
    assert b'"external"' not in data
    name = b'"construction": "'
    assert name in data
    # a UTF-8 letter in the provenance reads as itself
    path.write_bytes(data.replace(name, name + "é".encode(), 1))
    assert read_document(str(path)).provenance["construction"].startswith("é")
    # a byte that is not UTF-8 is a parse error: exit 2, one line, no traceback
    path.write_bytes(data.replace(name, name + b"\xff", 1))
    for command in ("verify", "pmepr"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: document is not valid UTF-8: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
