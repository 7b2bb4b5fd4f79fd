"""Acceptance gate: end-to-end checks of the construction, verification
and PMEPR pipeline at pinned tolerances.

Each criterion prints one ``criterion N: PASS/FAIL - detail`` line (visible
with ``pytest -s``).  Criteria 1-6 feed every computed correlation into a
shared collector; criterion 8 then checks that exact and floating verdicts
never disagree.  Run order matters, so keep the functions in file order.
"""

import json
import random
import time

import numpy as np

from mscs.cli import document_from_set, main as cli_main, write_document
from mscs.constructions import (
    PrimeBlock,
    kronecker_compose,
    length_extended_mscs,
    multi_prime_mscs,
    random_block,
    single_prime_mscs,
)
from mscs.correlation import (
    accf_exact,
    accf_float,
    is_zero,
    kronecker_accf_identity_check,
    verify_gcs,
    verify_mscs,
    verify_type2_zcs,
)
from mscs.pmepr import energy_identity_check, pmepr_set
from mscs.reference_sets import mscs_3_27_3, mscs_3_54_2
from mscs.seqcore import PhaseSequence, SequenceSet

ZERO_TOL = 1e-9
NONZERO_TOL = 1e-6

# (exact_zero verdict, float magnitude) for every correlation in criteria 1-6
ORACLE_PAIRS: list[tuple[bool, float]] = []

STATE: dict = {}


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _collect(report):
    ORACLE_PAIRS.extend(zip(report.zeros.tolist(), report.magnitudes.tolist()))


def test_criterion_1_known_mscs_3_27_3():
    start = time.perf_counter()
    sset = single_prime_mscs(PrimeBlock(p=3, m=3, s=2, pi=(2, 3), constant=5), 6)
    report = verify_mscs(sset, 3)
    elapsed = time.perf_counter() - start
    _collect(report)
    STATE["set1"] = sset
    ok = (
        report.passed
        and report.mode == "exact"
        and report.shifts.tolist() == list(range(3, 27, 3))
        and elapsed < 1.0
    )
    _report(1, ok, f"(3,27,3)-MSCS verified exactly in {elapsed:.3f}s")
    assert ok


def test_criterion_2_same_set_as_type2_zcs():
    report = verify_type2_zcs(STATE["set1"], 24)
    _collect(report)
    ok = (
        report.passed
        and report.mode == "exact"
        and report.shifts.tolist() == list(range(4, 27))
    )
    _report(2, ok, "(3,27,24) type-II ZCS verified exactly (shifts 4..26)")
    assert ok


def test_criterion_3_known_mscs_3_54_2_with_pmepr():
    start = time.perf_counter()
    sset = mscs_3_54_2()
    report = verify_mscs(sset, 2)
    power = pmepr_set(sset, 2, oversampling=64)
    elapsed = time.perf_counter() - start
    _collect(report)
    STATE["pmepr2"] = power.set_pmepr
    ok = (
        report.passed
        and report.mode == "exact"
        and abs(power.set_pmepr - 5.9465) <= 0.05
        and power.set_pmepr <= 6.0
        and power.bound == 6.0
        and elapsed < 5.0
    )
    _report(3, ok,
            f"(3,54,2)-MSCS exact, set PMEPR {power.set_pmepr:.4f} <= 6 "
            f"in {elapsed:.2f}s")
    assert ok


def test_criterion_4_single_prime_sweep():
    rng = random.Random(20260823)
    max_m = {2: 5, 3: 5, 5: 4}  # keeps L = p^m under the 2000 cap
    failures = []
    start = time.perf_counter()
    draws = 200
    for _ in range(draws):
        p = rng.choice((2, 3, 5))
        m = rng.randint(1, max_m[p])
        s = rng.randint(1, m)
        lam = rng.choice((p, 2 * p, 3 * p, p * p))
        block = random_block(rng, p, m, s, lam)
        sset = single_prime_mscs(block, lam)
        assert sset.length <= 2000
        S = p ** (s - 1)
        r1 = verify_mscs(sset, S)
        r2 = verify_type2_zcs(sset, p**m - S)
        _collect(r1)
        _collect(r2)
        if not (r1.passed and r1.mode == "exact" and r2.passed):
            failures.append((p, m, s, lam))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(4, ok,
            f"{draws}/{draws} random single-prime draws passed MSCS and ZCS "
            f"exactly in {elapsed:.1f}s"
            + (f"; failures {failures[:3]}" if failures else ""))
    assert ok


def _draw_multi_prime(rng):
    primes = rng.sample([2, 3, 5], rng.choice((2, 3)))
    while True:
        blocks = []
        length = 1
        for p in primes:
            m = rng.randint(1, 3)
            s = 1 if rng.random() < 0.5 else rng.randint(1, m)
            blocks.append((p, m, s))
            length *= p**m
        if length <= 2000:
            break
    lam = 1
    for p in primes:
        lam *= p
    lam *= rng.choice((1, 2))
    built = [random_block(rng, p, m, s, lam) for p, m, s in blocks]
    S = 1
    for p, m, s in blocks:
        S *= p ** (s - 1)
    return multi_prime_mscs(built, lam), S, all(s == 1 for _, _, s in blocks)


def _draw_length_extended(rng):
    primes = rng.sample([2, 3, 5], rng.choice((2, 3)))
    ext = primes[-1]
    base = primes[:-1] or [rng.choice([q for q in (2, 3, 5) if q != ext])]
    while True:
        ms = [rng.randint(1, 4) for _ in base]
        length = ext
        for p, m in zip(base, ms):
            length *= p**m
        if length <= 2000:
            break
    lam = ext
    for p in base:
        lam *= p
    blocks = [random_block(rng, p, m, 1, lam) for p, m in zip(base, ms)]
    sset = length_extended_mscs(
        blocks,
        ext_prime=ext,
        modulus=lam,
        ext_linear=rng.randrange(lam),
        ext_constant=rng.randrange(lam),
    )
    return sset, ext


def test_criterion_5_multi_prime_and_extension_sweep():
    rng = random.Random(8262025)
    failures = []
    start = time.perf_counter()
    draws = 110
    for i in range(draws):
        if i % 2 == 0:
            sset, S, all_linear_range = _draw_multi_prime(rng)
            r = verify_mscs(sset, S)
            _collect(r)
            if not (r.passed and r.mode == "exact"):
                failures.append(("multi", sset.metadata["params"]))
            if all_linear_range:
                g = verify_gcs(sset)
                _collect(g)
                if not g.passed:
                    failures.append(("gcs", sset.metadata["params"]))
        else:
            sset, S = _draw_length_extended(rng)
            r = verify_mscs(sset, S)
            _collect(r)
            if not (r.passed and r.mode == "exact"):
                failures.append(("extended", sset.metadata["params"]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(5, ok,
            f"{draws} random multi-prime/extension draws passed exactly "
            f"in {elapsed:.1f}s"
            + (f"; failures {failures[:2]}" if failures else ""))
    assert ok


def test_criterion_6_kronecker_decomposition():
    rng = random.Random(606)
    checked = 0
    start = time.perf_counter()
    for _ in range(500):
        lam = rng.randint(2, 12)
        a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(1, 8))])
        b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(1, 16))])
        total = len(a) * len(b)
        for tau in range(-total + 1, total):
            assert kronecker_accf_identity_check(a, b, tau)
            checked += 1
        composed = kronecker_compose(a, b)
        for tau in range(total):
            rho = accf_exact(composed, composed, tau)
            ORACLE_PAIRS.append(
                (is_zero(rho), abs(accf_float(composed, composed, tau)))
            )
    elapsed = time.perf_counter() - start
    ok = checked >= 500
    _report(6, ok,
            f"identity held for 500 pairs / {checked} shifts "
            f"(float and exact) in {elapsed:.1f}s")
    assert ok


def test_criterion_7_energy_identity():
    dev1 = energy_identity_check(mscs_3_27_3(), 3)
    dev2 = energy_identity_check(mscs_3_54_2(), 2)
    sset = mscs_3_27_3()
    vals = sset.sequences[1].values.copy()
    vals[7] = (vals[7] + 1) % 6
    flipped = SequenceSet(
        [sset.sequences[0], PhaseSequence(6, vals), sset.sequences[2]]
    )
    control = energy_identity_check(flipped, 3)
    ok = dev1 < 1e-9 and dev2 < 1e-9 and control > 1e-6
    _report(7, ok,
            f"flat power sums: deviations {dev1:.1e}, {dev2:.1e}; "
            f"phase-flip control {control:.1e}")
    assert ok


def test_criterion_8_exact_float_agreement():
    zeros = [m for z, m in ORACLE_PAIRS if z]
    nonzeros = [m for z, m in ORACLE_PAIRS if not z]
    assert len(ORACLE_PAIRS) > 10000, "criteria 1-6 did not run first"
    ok = (
        bool(zeros)
        and bool(nonzeros)
        and max(zeros) < ZERO_TOL
        and min(nonzeros) > NONZERO_TOL
    )
    _report(8, ok,
            f"{len(ORACLE_PAIRS)} correlations: {len(zeros)} exact zeros "
            f"(max float {max(zeros):.1e}), {len(nonzeros)} nonzeros "
            f"(min float {min(nonzeros):.1e}), 0 disagreements")
    assert ok


def test_criterion_9_iapr_curve_export(tmp_path):
    doc_path = tmp_path / "ext.json"
    csv_path = tmp_path / "iapr.csv"
    write_document(document_from_set(mscs_3_54_2()), str(doc_path))
    code = cli_main(["pmepr", str(doc_path), "--iapr-out", str(csv_path)])
    data = np.loadtxt(csv_path, delimiter=",", comments="#")
    curves = data[:, 1:]
    global_max = float(curves.max())
    ok = (
        code == 0
        and data.shape == (64 * 54, 4)
        and all(float(curves[:, i].max()) <= 6.0 + 1e-9 for i in range(3))
        and abs(global_max - STATE["pmepr2"]) < 1e-6
    )
    _report(9, ok,
            f"3 exported IAPR curves, maxima <= 6, global max {global_max:.4f} "
            f"matches measured PMEPR")
    assert ok
