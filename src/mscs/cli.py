"""Command line front end: build sets, verify claims, measure PMEPR.

Subcommands:

* ``generate``  construct a set from flags or a parameter file and write
  it as a JSON set document.
* ``verify``    exactly re-verify the correlation claim of a document.
* ``pmepr``     per-sequence and set PMEPR, bound check, optional IAPR
  curve export as comma separated values.
* ``selftest``  run the bundled end-to-end checks at reduced scale.

Exit codes: 0 success / claim verified, 1 verification or selftest
failure, 2 usage or parse error, 3 an internal check failed (a conjugate
sum between the proven bound and 1 minus it, or a verdict the
``aacf_set_sum`` cross-check contradicts).
Documents are written with sorted keys and fixed layout, so identical
flags (and seed) give identical bytes.  A document's phases are one
read-only (M, L) int64 matrix (``SetDocument.sequences``), the same
object as its set's ``SequenceSet.phases``: the reader fills it row by row
straight from the parsed JSON lists, and the writer gathers each row's
text from one byte table of the phase values.
"""

from __future__ import annotations

import argparse
import array
import functools
import json
import os
import random
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import reference_sets
from .constructions import (
    PrimeBlock,
    length_extended_mscs,
    multi_prime_mscs,
    random_block,
    single_prime_mscs,
)
from .correlation import (
    _conjugate_ks,
    _embedding_bound,
    _lift_sums,
    aacf_set_sum,
    is_zero,
    kronecker_accf_identity_check,
    verify_gcs,
    verify_mscs,
    verify_type2_zcs,
)
from .pmepr import (
    DEFAULT_OVERSAMPLING,
    _complex_envelope,
    _family_energy,
    energy_identity_check,
    grid_points,
    iapr_curve,
    modulated_family,
    pmepr_report,
    pmepr_set,
)
from .seqcore import PhaseSequence, SequenceSet, check_length, unit_lift

SCHEMA_VERSION = 1

# Phases are held as int64, so a document's lambda must not exceed this.
INT64_MAX = 2**63 - 1

# The claim kinds: each one's integer parameter (also its --flag on
# verify), its verifier, and whether the M*S PMEPR bound applies, with S = 1
# for a kind without a parameter.  The verifiers are looked up per call, so
# a verifier rebound on this module is the one that runs.
CLAIMS = {
    "GCS": (None, lambda sset: verify_gcs(sset), True),
    "MSCS": ("S", lambda sset, S: verify_mscs(sset, S), True),
    "ZCS": ("Z", lambda sset, Z: verify_type2_zcs(sset, Z), False),
}

# The keys of one block record in a parameter file.
BLOCK_KEYS = ("p", "m", "s", "pi", "linear", "constant", "h_table")

# Values formatted per write of the IAPR export.
CSV_CHUNK_VALUES = 1 << 14

# A cell whose scaled value lies this close to a rounding midpoint is left
# to Python's formatter (see _format_cells).
CSV_TIE_MARGIN = 2.0**-19


@dataclass(frozen=True, eq=False)
class SetDocument:
    """Serializable record of a sequence set and its correlation claim.

    ``sequences`` is one read-only (set_size, length) int64 matrix of phases
    in [0, lambda), row i the phases of member i.  Nested sequences are
    accepted and copied into such a matrix, with their range checked; a
    read-only int64 matrix is taken as it is.  Documents are equal when
    every field and the matrices are.
    """

    modulus: int
    length: int
    set_size: int
    claim: dict
    provenance: dict
    sequences: np.ndarray
    schema: int = SCHEMA_VERSION

    def __post_init__(self):
        rows = self.sequences
        if (isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 2
                and not rows.flags.writeable):
            return
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), self.length)
        if rows.size and not (rows.min() >= 0 and rows.max() < self.modulus):
            raise ValueError("sequence entries must lie in [0, lambda)")
        rows.flags.writeable = False
        object.__setattr__(self, "sequences", rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetDocument):
            return NotImplemented
        fields = ("modulus", "length", "set_size", "claim", "provenance", "schema")
        return (all(getattr(self, f) == getattr(other, f) for f in fields)
                and np.array_equal(self.sequences, other.sequences))


def _check_claim(claim: dict, length: int | None = None) -> dict:
    """A copy of the claim, refused unless well formed.

    With the set's ``length`` L, the claim's parameter P must also satisfy
    1 <= P < L, the rule its verifier applies, with P = 1 for a GCS as in
    :func:`_bound_S`; ``verify`` and ``pmepr`` both check the claim they use
    this way.
    """
    if not isinstance(claim, dict):
        raise ValueError("claim must be an object")
    kind = claim.get("kind")
    if not (isinstance(kind, str) and kind in CLAIMS):
        raise ValueError(f"claim kind must be one of {', '.join(CLAIMS)}, got {kind!r}")
    key = CLAIMS[kind][0]
    extra = sorted(set(claim) - {"kind", key})
    if extra:
        raise ValueError(f"{kind} claim takes no {extra[0]}")
    if key is not None:
        if key not in claim:
            raise ValueError(f"{kind} claim needs {key}")
        if type(claim[key]) is not int:
            raise ValueError(f"claim {key} must be an integer, got {claim[key]!r}")
        if claim[key] < 1:
            raise ValueError(f"claim {key}={claim[key]} must be >= 1")
    if length is not None and (1 if key is None else claim[key]) >= length:
        raise ValueError("GCS verification needs length >= 2" if key is None
                         else f"{key}={claim[key]} must satisfy 1 <= {key} < L={length}")
    return dict(claim)


def _claim_tag(claim: dict) -> str:
    """The claim as printed: its kind, then ``P=value`` for its parameter P."""
    key = CLAIMS[claim["kind"]][0]
    return claim["kind"] if key is None else f"{claim['kind']} {key}={claim[key]}"


def _verify_claim(sset: SequenceSet, claim: dict):
    key, verify, _ = CLAIMS[claim["kind"]]
    return verify(sset) if key is None else verify(sset, claim[key])


def _bound_S(claim: dict) -> int | None:
    """The S of the claim's M*S PMEPR bound, or None for a kind without the bound."""
    key, _, bounded = CLAIMS[claim["kind"]]
    if not bounded:
        return None
    return 1 if key is None else claim[key]


def document_from_set(sset: SequenceSet) -> SetDocument:
    """Wrap a constructed set as a document, claim taken from its metadata."""
    meta = sset.metadata
    claims = meta.get("claims")
    if not claims:
        raise ValueError("set carries no correlation claim")
    provenance = {"construction": meta.get("construction", "external")}
    if "params" in meta:
        provenance["params"] = meta["params"]
    return SetDocument(
        modulus=sset.modulus,
        length=sset.length,
        set_size=len(sset),
        claim=_check_claim(claims[0]),
        provenance=provenance,
        sequences=sset.phases,
    )


def document_to_set(doc: SetDocument) -> SequenceSet:
    """The document's set, whose ``phases`` is ``doc.sequences``."""
    meta = {
        "construction": doc.provenance.get("construction", "external"),
        "claims": [dict(doc.claim)],
    }
    return SequenceSet.from_phases(doc.modulus, doc.sequences, meta)


def _document_chunks(doc: SetDocument):
    """The bytes of ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, in pieces.

    The indenting encoder has no C implementation and would handle every
    phase in Python, so only the small fields go through it.  The phases
    are looked up in one byte table per document, whose row j holds the
    text ``f"{v},\\n      "`` of the j-th value v, NUL-padded to one width.
    The values are 0..lambda-1 when lambda is at most M*L, else the distinct
    phases (:func:`unit_lift`'s rule: a table no larger than the data).  Each
    sequence is one gather of its rows; the padding is masked out only when
    the widths differ, and the last separator is cut off.  Besides the table
    (and the index matrix of the distinct phases), the transient is one
    sequence's text.
    """
    header = json.dumps({
        "claim": doc.claim,
        "lambda": doc.modulus,
        "length": doc.length,
        "provenance": doc.provenance,
        "schema": doc.schema,
    }, indent=2, sort_keys=True)
    # the header keys all sort before "sequences", which sorts before "set_size"
    yield (header[:-2] + ',\n  "sequences": [').encode()
    rows = doc.sequences
    if doc.modulus <= rows.size:
        values, index = range(doc.modulus), rows
    else:
        values, index = np.unique(rows, return_inverse=True)
        values, index = values.tolist(), index.reshape(rows.shape)
    table = np.array([f"{v},\n      " for v in values], dtype=bytes)
    mixed = len(values) and len(str(values[0])) != len(str(values[-1]))
    sep = b"\n    "
    for row in index:
        if not len(row):
            yield sep + b"[]"
        else:
            text = np.take(table, row).view(np.uint8)
            if mixed:
                text = text[text != 0]
            yield sep + b"[\n      "
            yield text[:-8]
            yield b"\n    ]"
        sep = b",\n    "
    close = "\n  ]" if len(rows) else "]"
    yield f'{close},\n  "set_size": {json.dumps(doc.set_size)}\n}}\n'.encode()


def document_to_json(doc: SetDocument) -> str:
    return b"".join(_document_chunks(doc)).decode()


def _field_int(payload: dict, key: str, default: int | None = None) -> int:
    """``payload[key]``, which must be an int (a bool is not); ``default`` if absent."""
    value = payload[key] if default is None else payload.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def document_from_json(text: str) -> SetDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"document is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("document root must be an object")
    schema = payload.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {schema!r}")
    try:
        modulus = _field_int(payload, "lambda")
        length = _field_int(payload, "length")
        check_length([(length, 1)])  # generate's cap, before any row is read
        set_size = _field_int(payload, "set_size")
        claim = _check_claim(payload["claim"])
        provenance = payload["provenance"]
        rows = payload["sequences"]
    except KeyError as exc:
        raise ValueError(f"document is missing field {exc.args[0]!r}") from None
    if not isinstance(provenance, dict):
        raise ValueError("provenance must be an object")
    if modulus < 2:
        raise ValueError(f"lambda {modulus} must be >= 2")
    if modulus > INT64_MAX:
        raise ValueError(f"lambda {modulus} exceeds 2^63 - 1")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("sequences must be a list of lists")
    if len(rows) != set_size:
        raise ValueError(f"document lists {len(rows)} sequences, set_size says {set_size}")
    # rows before the first of the wrong length fill the matrix; each row is
    # checked whole before the next, so the first defect is the one reported.
    # array("q") refuses every non-integer JSON value but a bool, and a bool
    # comes only from a true/false literal, so without one in the text a row
    # that converts holds ints only; a row that does not is checked for its
    # types first, then its range.
    bools = "true" in text or "false" in text
    good = next((i for i, row in enumerate(rows) if len(row) != length), len(rows))
    sequences = np.empty((good, max(length, 0)), dtype=np.int64)
    for row, out in zip(rows, sequences):
        try:
            out[:] = array.array("q", row)
            converted = True
        except (TypeError, OverflowError):
            converted = False
        if (bools or not converted) and row and set(map(type, row)) != {int}:
            raise ValueError("sequence entries must be integers")
        if not converted or row and not (out.min() >= 0 and out.max() < modulus):
            raise ValueError("sequence entries must lie in [0, lambda)")
    if good < len(rows):
        raise ValueError(f"sequence of length {len(rows[good])} does not match length {length}")
    sequences.flags.writeable = False
    return SetDocument(
        modulus=modulus,
        length=length,
        set_size=set_size,
        claim=claim,
        provenance=dict(provenance),
        sequences=sequences,
        schema=schema,
    )


def write_document(doc: SetDocument, path: str) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_document_chunks(doc))


def read_document(path: str) -> SetDocument:
    with open(path) as fh:
        return document_from_json(fh.read())


def _int_list(text: str) -> list[int]:
    """The integers of a comma or space separated flag value."""
    values = []
    for tok in text.replace(",", " ").split():
        try:
            values.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{tok!r} is not an integer") from None
    return values


def _field_int_list(rec: dict, key: str) -> tuple[int, ...]:
    value = rec[key]
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ValueError(f"{key} must be a list of integers, got {value!r}")
    return tuple(value)


def _check_keys(rec: dict, allowed: tuple[str, ...], where: str) -> None:
    """Refuse a key outside ``allowed``, which would otherwise be ignored."""
    for key in rec:
        if key not in allowed:
            raise ValueError(f"{where} takes no key {key!r}")


def _block_shape(rec: dict) -> tuple[int, int]:
    """The (p, m) of a block record, whose sequence length factor is p^m."""
    if not isinstance(rec, dict):
        raise ValueError(f"block parameters must be an object, got {rec!r}")
    _check_keys(rec, BLOCK_KEYS, "block")
    if "p" not in rec or "m" not in rec:
        raise ValueError("block parameters need at least p and m")
    return _field_int(rec, "p"), _field_int(rec, "m")


def _block_from_dict(rec: dict, modulus: int, rng: random.Random | None) -> PrimeBlock:
    p, m = _block_shape(rec)
    s = _field_int(rec, "s", 1)
    base = random_block(rng, p, m, s, modulus) if rng is not None else PrimeBlock(p, m, s)
    given = {key: _field_int_list(rec, key) for key in ("pi", "linear", "h_table") if key in rec}
    return replace(base, constant=_field_int(rec, "constant", base.constant), **given)


def _build_from_params(params: dict, rng: random.Random | None) -> SequenceSet:
    """Construct a set from a parameter-file record (flag names as keys)."""
    if not isinstance(params, dict):
        raise ValueError("parameter file must hold an object")
    if "lambda" not in params:
        raise ValueError("parameter file needs lambda")
    modulus = _field_int(params, "lambda")
    # block keys stand at the top level only when there is no blocks list
    flat = "blocks" not in params
    _check_keys(params, ("lambda", "extension") + (BLOCK_KEYS if flat else ("blocks",)),
                "parameter file" if flat else "parameter file with blocks")
    recs = [{k: params[k] for k in BLOCK_KEYS if k in params}] if flat else params["blocks"]
    if not isinstance(recs, list):
        raise ValueError(f"blocks must be a list of objects, got {recs!r}")
    factors = [_block_shape(rec) for rec in recs]
    extended = "extension" in params
    if extended:
        ext = params["extension"]
        if not isinstance(ext, dict):
            raise ValueError(f"extension must be an object, got {ext!r}")
        _check_keys(ext, ("p", "linear", "constant"), "extension")
        if "p" not in ext:
            raise ValueError("extension needs p")
        factors.append((_field_int(ext, "p"), 1))
    # before any draw: a seeded head table alone takes p^(s-1) draws
    check_length(factors)
    blocks = [_block_from_dict(rec, modulus, rng) for rec in recs]
    if extended:
        return length_extended_mscs(
            blocks,
            ext_prime=_field_int(ext, "p"),
            modulus=modulus,
            ext_linear=_field_int(ext, "linear", 0),
            ext_constant=_field_int(ext, "constant", 0),
        )
    if len(blocks) == 1:
        return single_prime_mscs(blocks[0], modulus)
    return multi_prime_mscs(blocks, modulus)


def cmd_generate(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    block = {key: getattr(args, key) for key in ("p", "m", "s", "lambda", *BLOCK_KEYS[3:])
             if getattr(args, key) is not None}
    if args.params is not None:
        if block:
            flags = ", ".join("--" + key.replace("_", "-") for key in block)
            raise ValueError(f"--params cannot be combined with {flags}")
        with open(args.params) as fh:
            try:
                params = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"parameter file is not valid JSON: {exc}") from None
        sset = _build_from_params(params, rng)
    else:
        if not {"p", "m", "lambda"} <= block.keys():
            raise ValueError("generate needs either --params or --p/--m/--lambda")
        sset = _build_from_params(block, rng)
    doc = document_from_set(sset)
    if args.verify:
        report = _verify_claim(sset, doc.claim)
        if not report.passed:
            bad = ", ".join(str(t) for t in report.failing_shifts[:10])
            print(f"verification failed at shifts: {bad}", file=sys.stderr)
            return 1
    write_document(doc, args.out)
    print(f"wrote {args.out}: M={doc.set_size} L={doc.length} lambda={doc.modulus} "
          f"claim={_claim_tag(doc.claim)}")
    return 0


def _claim_from_args(doc: SetDocument, args) -> dict:
    """The claim to verify: the document's, or the kind named by --claim.

    The flag named after a kind's parameter in ``CLAIMS`` (--S, --Z) sets
    it; a flag given for any other claim kind is an error.  A claim of a
    kind the document does not carry needs its flag.
    """
    kind = doc.claim["kind"] if args.claim is None else args.claim.upper()
    claim = dict(doc.claim) if kind == doc.claim["kind"] else {"kind": kind}
    for owner, (key, _, _) in CLAIMS.items():
        if key is None:
            continue
        value = getattr(args, key)
        if value is not None:
            if kind != owner:
                raise ValueError(f"--{key} applies only to {owner} claims, not {kind}")
            claim[key] = value
        elif kind == owner and key not in claim:
            raise ValueError(f"{kind} claim needs --{key}")
    return _check_claim(claim, doc.length)


def cmd_verify(args) -> int:
    doc = read_document(args.input)
    sset = document_to_set(doc)
    claim = _claim_from_args(doc, args)
    report = _verify_claim(sset, claim)
    print(f"document: {args.input}")
    print(f"set: M={doc.set_size} L={doc.length} lambda={doc.modulus}")
    print(f"claim: {_claim_tag(claim)}")
    print(f"mode: {report.mode}")
    print(f"shifts checked: {len(report.shifts)}")
    if report.passed:
        print("verdict: pass")
        return 0
    failing = report.failing_shifts
    shown = " ".join(str(t) for t in failing[:20])
    more = "" if len(failing) <= 20 else f" (+{len(failing) - 20} more)"
    print(f"failing shifts: {shown}{more}")
    print("verdict: fail")
    return 1


@functools.cache
def _cell_tables():
    """The lookup tables of :func:`_format_cells`, built at its first call.

    * ``digits[w]``: the five ASCII digits of w < 10^5, first digit in the
      low byte, with the count of w's trailing zero digits in the top byte.
    * ``pow10[k]`` = 10^k for k <= 22, each exact in float64.
    * ``layouts[:, y]``, one column per layout y = 11 * (X + 13) + nd, for
      the decimal exponent X in [-13, 10] and the nd in [1, 10] significant
      digits left once the trailing zeros go: (a_low, a_high) and
      (b_low, b_high) keep the digits shown of the high and low five-digit
      words, split where the '.' goes, after ``point`` digits; ``shift``
      moves the digits up past a ``0.000`` prefix (back = 63 - shift); low
      and high hold the prefix, the '.' and the ``e+XX`` exponent text of
      the two words of the cell.
    """
    w = np.arange(10**5)
    digits = np.zeros(w.size, dtype=np.uint64)
    for i in range(5):
        digits |= (48 + w // 10 ** (4 - i) % 10).astype(np.uint64) << np.uint64(8 * i)
        digits += (w % 10 ** (i + 1) == 0).astype(np.uint64) << np.uint64(56)

    def split(kept, j):
        """The kept digit bytes below byte j and from byte j of a five-digit word."""
        keep, below = (1 << 8 * kept) - 1, (1 << 8 * j) - 1
        return keep & below, keep & ~below

    rows = []
    for X in range(-13, 11):
        fixed = -4 <= X < 10
        point = X + 1 if 0 <= X < 10 else 10 if fixed else 1
        prefix = "0." + "0" * (-X - 1) if fixed and X < 0 else ""
        exponent = "" if fixed else f"e{X:+03d}"
        for nd in range(11):
            kept = max(nd, point) if 0 <= X < 10 else nd
            ja, jb = min(point, 5), max(point - 5, 0)
            # a fills bytes 0..5 and b bytes 5..10, so the '.' lands in byte
            # point, and the exponent text follows in bytes 11..14
            text = int.from_bytes(prefix.encode(), "little")
            text |= int.from_bytes(exponent.encode(), "little") << 88
            if nd > point:
                text |= ord(".") << 8 * point
            shift = 40 if prefix else 0
            rows.append((*split(min(kept, 5), ja), *split(max(kept - 5, 0), jb), shift,
                         63 - shift, text & (2**64 - 1), text >> 64))
    pow10 = np.array([float(10**k) for k in range(23)])
    layouts = np.array(rows, dtype=np.uint64).T.copy()
    for table in (digits, pow10, layouts):
        table.flags.writeable = False
    return digits, pow10, layouts


def _format_cells(block: np.ndarray) -> bytes:
    """The rows of ``block`` as ``%.10g`` text, cells joined by ``,``, rows ended by ``\\n``.

    Each value v in [1e-13, 1e10) is scaled to its ten significant digits:
    X = floor(log10 v), moved by one where the scaled value falls outside
    the decade, and t = fl(v * 10^(9 - X)) in [1e9, 1e10).  10^(9 - X) is
    exact (0 <= 9 - X <= 22 and 5^22 < 2^53), so t carries one rounding:
    with T = v * 10^(9 - X) exactly, |t - T| <= ulp(T)/2 <= 2^-20, as
    T < 2^34.  The digits are D = rint(t); D = 10^10 carries to 10^9 and
    X + 1.  ``%.10g`` is correctly rounded (Gay's dtoa), so it shows the
    integer nearest T, in T's decade.  A cell is certified when
    |t - floor(t) - 1/2| > ``CSV_TIE_MARGIN`` = 2^-19:

    * Every rounding midpoint lies more than 2^-19 from t, so T, within
      2^-20 of t, lies on the same side of each; T is no tie and rounds to
      the integer that t rounds to, D.
    * At the decade ends.  If T < 1e9 <= t, then t - 1e9 < 2^-20 and D =
      1e9; the exact significand 10T lies within 10 * 2^-20 below 1e10 and
      rounds up to it, that is 1.000000000 at exponent X, the same text.
      If t < 1e10 <= T, then t rounds to 1e10 and carries to 10^9 at X + 1,
      and T / 10 within 2^-20 above 1e9 rounds to the same.

    (Rounding is monotone and every midpoint below 2^52 is a double, so
    only t on a midpoint would need excluding; the margin keeps the
    argument to the error bound.)

    A cell that is not certified (0, a value outside the range, a near
    tie, NaN, a negative value) is formatted by ``'%.10g' %`` itself.
    Otherwise the ``%g`` layout follows from X: fixed notation for
    -4 <= X < 10, trailing zeros of the fraction and a bare '.' stripped,
    else ``d.ddd...e+XX``.  A cell is 16 bytes, two little-endian words:
    the digits (two gathers of five-digit words, the zeros past the digits
    shown cleared to NUL) with a gap opened for the '.', moved up past a
    ``0.000`` prefix, then the texts of its layout (:func:`_cell_tables`)
    and the separator in byte 15 OR-ed in.  No text is longer than 15
    bytes; one ``translate`` drops the NUL padding.
    """
    digits, pow10, layouts = _cell_tables()
    rows, width = block.shape
    v = block.ravel()
    fast = (v >= 1e-13) & (v < 1e10)
    v = np.where(fast, v, 1.0)
    X = np.clip(np.floor(np.log10(v)), -13, 9).astype(np.int64)
    t = v * np.take(pow10, 9 - X)
    off = np.flatnonzero((t < 1e9) | (t >= 1e10))
    if off.size:  # log10 rounded across a power of ten
        X[off] = np.clip(X[off] - (t[off] < 1e9) + (t[off] >= 1e10), -13, 9)
        t[off] = u = v[off] * np.take(pow10, 9 - X[off])
        fast[off] &= (u >= 1e9) & (u < 1e10)
    fast &= np.abs(t - np.floor(t) - 0.5) > CSV_TIE_MARGIN
    D = np.rint(t)
    carry = D == 1e10
    D[carry] = 1e9
    X += carry
    hi = np.floor(D / 1e5)  # exact: D / 1e5 lies at least 1e-5 from the next integer
    lo = D - hi * 1e5
    a = np.take(digits, hi.astype(np.int64))
    b = np.take(digits, lo.astype(np.int64))
    # the trailing zeros of the word that holds the last nonzero digit
    zeros = (np.where(lo == 0, a, b) >> np.uint64(56)).view(np.int64)
    y = 11 * (X + 13) + np.where(lo == 0, 5, 10) - zeros
    a_low, a_high, b_low, b_high, shift, back, low, high = np.take(layouts, y, axis=1)
    a = (a & a_low) | ((a & a_high) << np.uint64(8))
    b = (b & b_low) | ((b & b_high) << np.uint64(8))
    w0 = a | (b << np.uint64(40))
    w1 = (b >> np.uint64(24) << shift) | ((w0 >> np.uint64(1)) >> back)
    w0 = (w0 << shift) | low
    w1 |= high
    slow = np.flatnonzero(~fast)
    w0[slow] = 0
    w1[slow] = 0
    cells = np.empty((rows, width, 2), dtype="<u8")
    cells[..., 0] = w0.reshape(rows, width)
    cells[..., 1] = w1.reshape(rows, width)
    cells[:, :-1, 1] |= np.uint64(ord(",") << 56)
    cells[:, -1, 1] |= np.uint64(ord("\n") << 56)
    data = cells.tobytes()
    if slow.size:
        parts, start = [], 0
        for i, value in zip(slow.tolist(), block.ravel()[slow].tolist()):
            parts += (data[start:16 * i], ("%.10g" % value).encode())
            start = 16 * i
        parts.append(data[start:])
        data = b"".join(parts)
    return data.translate(None, b"\0")


def _write_iapr_csv(fh, doc: SetDocument, n_os: int, curves: list[np.ndarray]) -> None:
    """Write the time column and one IAPR column per member, ``%.10g`` each, to ``fh``.

    Rows are formatted a block at a time by :func:`_format_cells`, at most
    ``CSV_CHUNK_VALUES`` values per block, so the transient stays the same
    size whatever the member count.
    """
    n = n_os * doc.length
    width = len(curves) + 1
    rows = max(1, CSV_CHUNK_VALUES // width)
    cols = ", ".join(f"iapr_{i}" for i in range(doc.set_size))
    fh.write(f"# iapr curves: M={doc.set_size} L={doc.length} lambda={doc.modulus} "
             f"oversampling={n_os}\n# columns: dft_t, {cols}\n".encode())
    for a in range(0, n, rows):
        b = min(a + rows, n)
        block = np.empty((b - a, width))
        block[:, 0] = np.arange(a, b) / n
        for i, curve in enumerate(curves, 1):
            block[:, i] = curve[a:b]
        fh.write(_format_cells(block))


def cmd_pmepr(args) -> int:
    doc = read_document(args.input)
    grid_points(args.n_os, doc.length)  # first, so a length-0 document reports its length
    claim = _check_claim(doc.claim, doc.length)
    sset = document_to_set(doc)
    # opened before any output or envelope, so a path that cannot be written fails first
    with open(args.iapr_out, "wb") if args.iapr_out is not None else nullcontext() as csv:
        print(f"document: {args.input}")
        print(f"set: M={doc.set_size} L={doc.length} lambda={doc.modulus}")
        print(f"oversampling: {args.n_os}")
        # pmepr() of a member is the max of its IAPR curve.  The curves are
        # held only for the CSV export; otherwise each is freed before the
        # next member's grid is allocated, so peak memory stays at one curve.
        curves, per = [], []
        for s in sset.sequences:
            curve = iapr_curve(s, args.n_os)
            per.append(float(np.max(curve)))
            if csv is not None:
                curves.append(curve)
            del curve
        S = _bound_S(claim)
        report = None if S is None else pmepr_report(per, S, args.n_os)
        for i, v in enumerate(per):
            print(f"pmepr[{i}]: {v:.6f}")
        print(f"set pmepr: {max(per):.6f}")
        if report is not None:
            print(f"bound (M*S): {report.bound:g}")
            print(f"bound satisfied: {'yes' if report.bound_satisfied else 'NO'}")
        if csv is not None:
            _write_iapr_csv(csv, doc, args.n_os, curves)
            print(f"iapr curves written to {args.iapr_out}")
    return 0


def _claims_failure(sset: SequenceSet, claims: list[dict]) -> str | None:
    """None if every claim verifies in exact mode, else what the first failing one gave."""
    for claim in claims:
        report = _verify_claim(sset, claim)
        if report.mode != "exact" or not report.passed:
            return (f"{_claim_tag(claim)}: {report.mode} mode, "
                    f"failing shifts {list(report.failing_shifts[:5])}")
    return None


def _reference_checks(name: str):
    """One check per claim reference set ``name`` carries, named kind-M-L[-parameter].

    A set that fails to build is one failing check named after it.
    """
    try:
        sset = getattr(reference_sets, name)()
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        return [(name.replace("_", "-"), lambda: detail)]
    checks = []
    for claim in sset.metadata["claims"]:
        key = CLAIMS[claim["kind"]][0]
        tag = f"{claim['kind'].lower()}-{len(sset)}-{sset.length}"
        checks.append((tag if key is None else f"{tag}-{claim[key]}",
                       functools.partial(_claims_failure, sset, [claim])))
    return checks


def _selftest_checks():
    """Named reduced-scale checks; each returns None or a failure detail.

    Claims are verified, and PMEPR bounds read, as ``verify`` and ``pmepr`` do.
    """

    def check_pmepr_3_54_2():
        sset = reference_sets.mscs_3_54_2()
        report = pmepr_set(sset, _bound_S(sset.metadata["claims"][0]))
        if not report.bound_satisfied:
            return f"set pmepr {report.set_pmepr:.4f} beyond bound {report.bound}"
        if abs(report.set_pmepr - 5.9465) > 0.05:
            return f"set pmepr {report.set_pmepr:.4f} not within 0.05 of 5.9465"
        return None

    def check_sweep(draws):
        for params, sset in draws:
            detail = _claims_failure(sset, sset.metadata["claims"])
            if detail is not None:
                return f"{params}: {detail}"
        return None

    def single_prime_sets():
        rng = random.Random(101)
        for _ in range(24):
            p = rng.choice([2, 3, 5])
            m = rng.randint(1, 3)
            s = rng.randint(1, m)
            lam = rng.choice([p, 2 * p, p * p])
            block = random_block(rng, p, m, s, lam)
            yield f"p={p} m={m} s={s} lam={lam}", single_prime_mscs(block, lam)

    def multi_prime_sets():
        rng = random.Random(202)
        for _ in range(10):
            primes = rng.sample([2, 3, 5], 2)
            lam = primes[0] * primes[1]
            blocks = []
            for p in primes:
                m = rng.randint(1, 2)
                blocks.append(random_block(rng, p, m, rng.randint(1, m), lam))
            yield f"primes={primes}", multi_prime_mscs(blocks, lam)

    def check_kronecker_split():
        rng = random.Random(303)
        for _ in range(30):
            lam = rng.randint(2, 12)
            a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(2, 6))])
            b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(2, 8))])
            for tau in range(len(a) * len(b)):
                if not kronecker_accf_identity_check(a, b, tau):
                    return f"lam={lam} |a|={len(a)} |b|={len(b)} tau={tau}"
        return None

    def check_energy_identity():
        sset = reference_sets.mscs_3_27_3()
        vals = sset.sequences[0].values.copy()
        vals[0] = (vals[0] + 1) % sset.modulus
        flipped = SequenceSet([PhaseSequence(sset.modulus, vals), *sset.sequences[1:]])
        # witness from envelopes: the companions' |P|^2 summed, which repeats
        # every 216 / 3 grid samples, against the correlation engine's total
        for members in (sset, flipped):
            envelopes = sum(np.abs(_complex_envelope(c, 8)) ** 2
                            for s in members.sequences for c in modulated_family(s, 3))
            gap = np.max(np.abs(np.tile(_family_energy(members, 3, 8), 3) - envelopes))
            if gap > 1e-12 * len(sset) * sset.length * 3:
                return f"family energy differs from the companion envelopes by {gap:.3e}"
        for build in (reference_sets.mscs_3_27_3, reference_sets.mscs_3_54_2):
            ref = build()
            dev = energy_identity_check(ref, _bound_S(ref.metadata["claims"][0]))
            if dev >= 1e-9:
                return f"deviation {dev:.3e} for {build.__name__}"
        dev = energy_identity_check(flipped, 3)
        if dev <= 1e-6:
            return f"phase-flip control deviation {dev:.3e} not detected"
        return None

    def check_conjugate_path():
        a, b = reference_sets.mscs_3_27_3(), reference_sets.mscs_3_54_2()
        # every shift (neither set is a GCS, so both verdicts must occur), then a
        # stride-3 MSCS plan and a type-II ZCS tail window
        for sset, claim in ((a, {"kind": "GCS"}), (b, {"kind": "GCS"}),
                            (a, {"kind": "MSCS", "S": 3}), (b, {"kind": "ZCS", "Z": 21})):
            lam, checks = sset.modulus, _verify_claim(sset, claim).shifts
            counts = np.array([aacf_set_sum(sset, t).counts for t in checks.tested.tolist()])
            if not np.array_equal(checks.zeros, is_zero(counts)):
                return f"L={sset.length} {_claim_tag(claim)}: verdicts differ from the counts'"
            if claim == {"kind": "GCS"} and len(np.unique(checks.zeros)) < 2:
                return f"L={sset.length} GCS: every shift has the same verdict"
            # sigma_k of the counts, from roots within 24u of w^(kj) and lambda-term
            # sums of integer multiples, errs by at most (24 + 2 lambda)u per count
            ks = _conjugate_ks(lam)
            exact = counts @ unit_lift(np.outer(ks, np.arange(lam)) % lam, lam).T
            slack = (_embedding_bound(len(sset), sset.length)
                     + (24 + 2 * lam) * 2.0**-53 * counts.sum(axis=1, keepdims=True))
            error = np.abs(_lift_sums(sset, ks, checks.tested).T - exact)
            if (error > slack).any():
                i, k = np.argwhere(error > slack)[0]
                return (f"L={sset.length} tau={checks.tested[i]} k={ks[k]}: conjugate off "
                        f"its exact value by {error[i, k]:.3e}")
        return None

    def check_iapr_curves():
        sset = reference_sets.mscs_3_54_2()
        report = pmepr_set(sset, _bound_S(sset.metadata["claims"][0]))
        peak = 0.0
        for s in sset.sequences:
            curve = iapr_curve(s)
            if abs(float(np.mean(curve)) - 1.0) > 1e-9:
                return f"curve mean {np.mean(curve):.12f} off unity"
            if float(np.max(curve)) > report.bound + 1e-9:
                return f"curve max {np.max(curve):.4f} beyond bound"
            peak = max(peak, float(np.max(curve)))
        if peak != report.set_pmepr:
            return f"curve peak {peak} != set pmepr {report.set_pmepr}"
        return None

    def check_document_round_trip():
        rng = random.Random(404)
        gcs_30 = multi_prime_mscs([random_block(rng, p, 2, 1, 30) for p in (2, 3, 5)], 30)
        with tempfile.TemporaryDirectory() as tmp:
            for sset in (reference_sets.mscs_3_27_3(), gcs_30):
                first, again = os.path.join(tmp, "first.json"), os.path.join(tmp, "again.json")
                write_document(document_from_set(sset), first)
                doc = read_document(first)
                if document_to_set(doc).sequences != sset.sequences:
                    return f"lambda={sset.modulus} L={sset.length}: members differ after reading"
                write_document(doc, again)
                with open(first, "rb") as a, open(again, "rb") as b:
                    if a.read() != b.read():
                        return f"lambda={sset.modulus} L={sset.length}: rewrite differs"
        return None

    return _reference_checks("mscs_3_27_3") + _reference_checks("mscs_3_54_2") + [
        ("pmepr-3-54-2", check_pmepr_3_54_2),
        ("single-prime-sweep", lambda: check_sweep(single_prime_sets())),
        ("multi-prime-sweep", lambda: check_sweep(multi_prime_sets())),
        ("kronecker-split", check_kronecker_split),
        ("energy-identity", check_energy_identity),
        ("conjugate-path", check_conjugate_path),
        ("iapr-curves", check_iapr_curves),
        ("document-round-trip", check_document_round_trip),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    checks = _selftest_checks()
    for name, fn in checks:
        start = time.perf_counter()
        try:
            detail = fn()
        except Exception as exc:  # a crash counts as a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if detail is None:
            print(f"ok   {name} ({elapsed:.2f}s)")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"selftest: {len(checks) - failures}/{len(checks)} ok")
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mscs",
        description="Construct, verify and measure complementary sequence sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a set and write a document")
    gen.add_argument("--params", help="JSON parameter file (flag names as keys)")
    gen.add_argument("--p", type=int, help="prime base")
    gen.add_argument("--m", type=int, help="number of digits")
    gen.add_argument("--s", type=int, help="shift exponent parameter (default 1)")
    gen.add_argument("--lambda", type=int, help="phase modulus")
    gen.add_argument("--pi", type=_int_list,
                     help="permutation of {s..m}, comma separated (--pi=-1,2 if it starts "
                          "with a negative value)")
    gen.add_argument("--linear", type=_int_list,
                     help="linear coefficients g_1..g_m, comma separated (--linear=-1,2 if "
                          "they start with a negative value)")
    gen.add_argument("--constant", type=int, help="additive constant")
    gen.add_argument("--h-table", type=_int_list,
                     help="head function table, comma separated (--h-table=-1,2 if it "
                          "starts with a negative value)")
    gen.add_argument("--seed", type=int, help="randomize unspecified parameters")
    gen.add_argument("--verify", action="store_true",
                     help="exactly verify the claim before writing")
    gen.add_argument("--out", required=True, help="output document path")

    ver = sub.add_parser("verify", help="verify the correlation claim of a document")
    ver.add_argument("input", help="set document path")
    ver.add_argument("--claim", choices=[kind.lower() for kind in CLAIMS],
                     help="override the document claim")
    for kind, (key, _, _) in CLAIMS.items():
        if key is not None:
            ver.add_argument(f"--{key}", type=int, help=f"{key} of the {kind} claim verified")

    pme = sub.add_parser("pmepr", help="measure PMEPR of a document")
    pme.add_argument("input", help="set document path")
    pme.add_argument("--n-os", type=int, default=DEFAULT_OVERSAMPLING,
                     help=f"oversampling factor (default {DEFAULT_OVERSAMPLING})")
    pme.add_argument("--iapr-out", help="write IAPR curves to this path")

    sub.add_parser("selftest", help="run the bundled checks")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up per call rather than stored in the cached parser, so a
    # command rebound on this module is the one that runs
    command = {"generate": cmd_generate, "verify": cmd_verify,
               "pmepr": cmd_pmepr, "selftest": cmd_selftest}[args.command]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
