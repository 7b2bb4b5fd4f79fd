"""Workload definitions and the reference construction the checks compare against.

Every construction parameter (permutations, linear coefficients, constants,
head tables, extension coefficients) is drawn from the workload seed.  The
structure of each set (primes, digit counts, s, lambda) is fixed per
workload, so the amount of work in a run does not depend on the seed and
runs with different seeds are comparable.

The reference construction evaluates the paper's phase functions directly
with numpy, independently of :mod:`mscs`, and renders the set document the
way ``mscs generate`` is specified to write it (sorted keys, indent 2).  A
generated document must match it byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_N_OS = 64
DIGESTS_FILE = "digests.json"


@dataclass
class SetSpec:
    """One set pushed through generate / verify / pmepr / energy.

    ``verify_flags`` are extra ``mscs verify`` flags and ``shifts`` the
    number of shifts verification must report as checked.  A control
    (``flip_of`` set) is not generated: it is a copy of the named set's
    document with one phase flipped, and must fail verification.
    """

    name: str
    params: dict
    shifts: int
    verify_flags: list = field(default_factory=list)
    pmepr_n_os: int | None = DEFAULT_N_OS
    csv: bool = False
    energy_n_os: int | None = DEFAULT_N_OS
    flip_of: str | None = None


def _draw_block(rng: random.Random, p: int, m: int, s: int, lam: int) -> dict:
    pi = list(range(s, m + 1))
    rng.shuffle(pi)
    rec = {
        "p": p, "m": m, "s": s, "pi": pi,
        "linear": [rng.randrange(lam) for _ in range(m)],
        "constant": rng.randrange(lam),
    }
    if s > 1:
        rec["h_table"] = [rng.randrange(lam) for _ in range(p ** (s - 1))]
    return rec


def _params(rng, lam, blocks, ext_prime=None) -> dict:
    params = {"lambda": lam, "blocks": [_draw_block(rng, p, m, s, lam) for p, m, s in blocks]}
    if ext_prime is not None:
        params["extension"] = {"p": ext_prime, "linear": rng.randrange(lam),
                               "constant": rng.randrange(lam)}
    return params


def claim_of(params: dict) -> dict:
    if "extension" in params:
        return {"kind": "MSCS", "S": params["extension"]["p"]}
    S = 1
    for b in params["blocks"]:
        S *= b["p"] ** (b["s"] - 1)
    return {"kind": "MSCS", "S": S}


def length_of(params: dict) -> int:
    L = params["extension"]["p"] if "extension" in params else 1
    for b in params["blocks"]:
        L *= b["p"] ** b["m"]
    return L


def set_size_of(params: dict) -> int:
    M = 1
    for b in params["blocks"]:
        M *= b["p"]
    return M


def _spec(name, params, **kw) -> SetSpec:
    kw.setdefault("shifts", (length_of(params) - 1) // claim_of(params)["S"])
    return SetSpec(name, params, **kw)


def full_band(rng: random.Random, smoke: bool) -> list[SetSpec]:
    # L=729 is checked at every shift.  The L=19683 rung is three draws at
    # S=9 (2186 shifts each), pmepr and energy on the first only: the exact
    # path's time depends on the phases by up to +-7% per draw, and three
    # draws average that out of a run.  Energy there runs at N_os=16 (27
    # envelopes).  A round stays short enough to repeat several times within
    # one run.
    m27, m729, m19683 = (3, 4, 5) if smoke else (3, 6, 9)
    gcs30 = ((2, 1, 1), (3, 1, 1), (5, 1, 1)) if smoke else ((2, 3, 1), (3, 2, 1), (5, 2, 1))
    ext_m = 3 if smoke else 6
    mid = _spec("fb-mid", _params(rng, 6, [(3, m729, 1)]))
    large = [_spec(f"fb-large{i}", _params(rng, 6, [(3, m19683, 3)]), energy_n_os=16)
             for i in (1, 2, 3)]
    for spec in large[1:]:
        spec.pmepr_n_os = spec.energy_n_os = None
    return [
        _spec("fb-small", _params(rng, 6, [(3, m27, 2)])),
        mid,
        *large,
        _spec("fb-gcs30", _params(rng, 30, gcs30)),
        _spec("fb-ext", _params(rng, 6, [(3, ext_m, 1)], ext_prime=2)),
        SetSpec("fb-flipped", mid.params, mid.shifts, pmepr_n_os=None, flip_of=mid.name),
    ]


def sparse_band(rng: random.Random, smoke: bool) -> list[SetSpec]:
    (ma, sa), (mb, sb), mc = ((6, 4), (7, 5), 6) if smoke else ((11, 8), (12, 10), 11)
    gcs = _params(rng, 6, [(3, mc, 1)])
    return [
        _spec("sb-a", _params(rng, 6, [(3, ma, sa)]), pmepr_n_os=4, energy_n_os=None),
        _spec("sb-b", _params(rng, 6, [(3, mb, sb)]), pmepr_n_os=4, energy_n_os=None),
        _spec("sb-zcs", gcs, verify_flags=["--claim", "zcs", "--Z", "24"], shifts=23,
              pmepr_n_os=4, energy_n_os=4),
    ]


def pmepr_export(rng: random.Random, smoke: bool) -> list[SetSpec]:
    m3, m2 = (4, 6) if smoke else (8, 12)
    gcs30 = ((2, 1, 1), (3, 1, 1), (5, 1, 1)) if smoke else ((2, 2, 1), (3, 2, 1), (5, 2, 1))
    return [
        _spec("pe-ternary", _params(rng, 6, [(3, m3, 2)]), csv=True),
        _spec("pe-binary", _params(rng, 4, [(2, m2, 2)]), csv=True),
        _spec("pe-gcs30", _params(rng, 30, gcs30), csv=True),
    ]


SWEEP_MAX_LENGTH = 243
SWEEP_PRIMES = (2, 3, 5)


def _sweep_structures():
    """Every small structure with L <= 243 over primes 2, 3, 5, in a fixed order.

    Single-prime sets take lambda in {p, 2p, p^2}; multi-prime and
    length-extended sets take the product of their primes.
    """
    out = []
    for p in SWEEP_PRIMES:
        m = 1
        while p**m <= SWEEP_MAX_LENGTH:
            for s in range(1, m + 1):
                for lam in sorted({p, 2 * p, p * p}):
                    out.append((lam, [(p, m, s)], None))
            m += 1
    for k in (2, 3):
        for ps in itertools.combinations(SWEEP_PRIMES, k):
            lam = int(np.prod(ps))
            for ms in itertools.product(range(1, 8), repeat=k):
                if np.prod([p**m for p, m in zip(ps, ms)]) > SWEEP_MAX_LENGTH:
                    continue
                for ss in itertools.product(*[sorted({1, m}) for m in ms]):
                    out.append((lam, list(zip(ps, ms, ss)), None))
    for k in (1, 2):
        for ps in itertools.combinations(SWEEP_PRIMES, k):
            for e in SWEEP_PRIMES:
                if e in ps:
                    continue
                for ms in itertools.product(range(1, 8), repeat=k):
                    if e * np.prod([p**m for p, m in zip(ps, ms)]) > SWEEP_MAX_LENGTH:
                        continue
                    out.append((e * int(np.prod(ps)), [(p, m, 1) for p, m in zip(ps, ms)], e))
    return out


def small_sweep(rng: random.Random, smoke: bool) -> list[SetSpec]:
    structures = _sweep_structures()
    if smoke:
        structures = structures[::12]
    specs = [_spec(f"ss-{i:03d}", _params(rng, lam, blocks, ext))
             for i, (lam, blocks, ext) in enumerate(structures)]
    rng.shuffle(specs)
    return specs


def build_specs(workload: str, seed: int, smoke: bool = False) -> list[SetSpec]:
    builders = {"full-band": full_band, "sparse-band": sparse_band,
                "pmepr-export": pmepr_export, "small-sweep": small_sweep}
    return builders[workload](random.Random(f"{workload}:{seed}"), smoke)


def reference_sequences(params: dict) -> np.ndarray:
    """Member sequences (M x L, phases mod lambda) evaluated from the phase functions.

    Flat index: block 1 least significant, digit 1 least significant within
    a block, the extension digit most significant.  Member index enumerates
    the tag vector gamma with block 1 fastest.
    """
    lam = params["lambda"]
    L = length_of(params)
    x = np.arange(L, dtype=np.int64)
    base = np.zeros(L, dtype=np.int64)
    tags = []
    stride = 1
    for b in params["blocks"]:
        p, m, s, pi = b["p"], b["m"], b["s"], b["pi"]
        q = lam // p
        idx = (x // stride) % p**m
        digit = [None] + [(idx // p ** (j - 1)) % p for j in range(1, m + 1)]
        f = np.full(L, b["constant"], dtype=np.int64)
        for j in range(1, m + 1):
            f += b["linear"][j - 1] * digit[j]
        for u, v in zip(pi, pi[1:]):
            f += q * digit[u] * digit[v]
        if s > 1:
            f += np.asarray(b["h_table"], dtype=np.int64)[idx % p ** (s - 1)]
        base += f
        tags.append((p, q * digit[pi[0]]))
        stride *= p**m
    if "extension" in params:
        ext = params["extension"]
        base += ext["linear"] * (x // stride) + ext["constant"]
    rows = []
    for member in range(set_size_of(params)):
        row = base.copy()
        for p, tag in tags:
            row += (member % p) * tag
            member //= p
        rows.append(row % lam)
    return np.stack(rows)


def _construction_name(params: dict) -> str:
    if "extension" in params:
        return "length_extended"
    return "single_prime" if len(params["blocks"]) == 1 else "multi_prime"


def _provenance_params(params: dict) -> dict:
    blocks = [{"p": b["p"], "m": b["m"], "s": b["s"], "pi": list(b["pi"]),
               "linear": list(b["linear"]), "constant": b["constant"],
               "h_table": b.get("h_table")} for b in params["blocks"]]
    out = {"lambda": params["lambda"], "blocks": blocks}
    if "extension" in params:
        out["extension"] = dict(params["extension"])
    return out


def document_payload(params: dict, sequences: np.ndarray) -> dict:
    """The set document ``mscs generate`` must write for these params."""
    M, L = sequences.shape
    return {
        "schema": 1,
        "lambda": params["lambda"],
        "length": L,
        "set_size": M,
        "claim": claim_of(params),
        "provenance": {"construction": _construction_name(params),
                       "params": _provenance_params(params)},
        "sequences": sequences.tolist(),
    }


def document_chunks(payload: dict):
    """The document text in pieces, so large documents are never held whole."""
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    yield "\n"


def document_digest(payload: dict) -> str:
    h = hashlib.sha256()
    for chunk in document_chunks(payload):
        h.update(chunk.encode())
    return h.hexdigest()


def flipped_payload(payload: dict) -> dict:
    """Copy of a document with the first phase of the first member moved by one."""
    seqs = [list(row) for row in payload["sequences"]]
    seqs[0][0] = (seqs[0][0] + 1) % payload["lambda"]
    return {**payload, "sequences": seqs}


def write_references(set_specs: list[SetSpec], out: Path) -> None:
    """Write what the checks compare against into ``out``.

    ``digests.json`` maps each generated set to the sha256 of its document.
    Each set with an energy check gets ``<name>.npy``, its member sequences,
    the energy check's input.  Each control gets ``<name>.json``, its
    flipped document, the input of its operations.
    """
    digests = {}
    for spec in set_specs:
        seqs = reference_sequences(spec.params)
        payload = document_payload(spec.params, seqs)
        if spec.flip_of is None:
            digests[spec.name] = document_digest(payload)
        else:
            payload = flipped_payload(payload)
            with open(out / f"{spec.name}.json", "w") as fh:
                fh.writelines(document_chunks(payload))
            seqs = np.array(payload["sequences"], dtype=np.int64)
        if spec.energy_n_os is not None:
            np.save(out / f"{spec.name}.npy", seqs)
        del payload, seqs
    (out / DIGESTS_FILE).write_text(json.dumps(digests))
