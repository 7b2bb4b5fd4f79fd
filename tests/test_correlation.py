import dataclasses
import functools
import math
import os
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mscs.correlation as correlation
from conftest import lift, naive_rho, naive_set_aacf
from mscs.cli import _build_from_params, document_from_set, write_document
from mscs.cli import main as cli_main
from mscs.constructions import (
    PrimeBlock,
    kronecker_compose,
    multi_prime_mscs,
    single_prime_mscs,
)
from mscs.correlation import (
    EXACT_MODULUS_CAP,
    _poly_divmod,
    aacf_set_sum,
    accf_exact,
    cyclotomic_polynomial,
    is_zero,
    kronecker_accf_identity_check,
    verify_gcs,
    verify_mscs,
    verify_type2_zcs,
)
from mscs.reference_sets import mscs_3_27_3, mscs_3_54_2
from mscs.seqcore import MAX_LENGTH, PhaseSequence, SequenceSet


def _value(counts):
    """The value sum_j counts[j] * w^j of a count vector, in complex doubles."""
    lam = len(counts)
    return complex(np.dot(counts, np.exp(2j * np.pi * np.arange(lam) / lam)))


def _conjugate(counts):
    """Count vector of the complex conjugate: exponent j goes to -j mod lambda."""
    return counts[-np.arange(len(counts)) % len(counts)]


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError, match="cyclotomic index 0 must be >= 1"):
        cyclotomic_polynomial(0)


@functools.cache
def _recursive_cyclotomic(n):
    """Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, divided exactly."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, _recursive_cyclotomic(d))
            assert not any(rem)
    return tuple(poly)


def test_cyclotomic_polynomial_matches_the_recursive_definition():
    for n in [*range(1, 301), 840, 990]:
        assert cyclotomic_polynomial(n) == _recursive_cyclotomic(n), n


def test_cyclotomic_polynomial_against_sympy():
    import sympy

    x = sympy.Symbol("x")
    for n in range(1, 61):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_cyclotomic_degree_is_totient():
    for n in range(1, 211):
        degree = len(cyclotomic_polynomial(n)) - 1
        totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert degree == totient


def test_is_zero_root_of_unity_sums():
    counts = np.zeros(6, dtype=np.int64)
    counts[[0, 2, 4]] = 1
    assert is_zero(counts) is True
    counts = np.zeros(6, dtype=np.int64)
    counts[[1, 4]] = 1
    assert is_zero(counts)
    counts = np.zeros(6, dtype=np.int64)
    counts[3] = 2
    assert is_zero(counts) is False
    assert is_zero(np.zeros(9, dtype=np.int64))


@given(
    st.one_of(st.integers(2, 12), st.just(105)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
    st.lists(st.integers(-3, 3), max_size=4),
)
@settings(max_examples=200)
def test_is_zero_against_mpmath(lam, raw, multiplier):
    # Phi_105 has coefficient -2 at x^7 and x^41; adding a multiple of
    # Phi_lam (mod x^lam - 1) moves the counts without changing the value
    import mpmath

    counts = np.zeros(lam, dtype=np.int64)
    for j, c in enumerate(raw[:lam]):
        counts[j] = c
    phi = np.zeros(lam, dtype=np.int64)
    phi[: len(cyclotomic_polynomial(lam))] = cyclotomic_polynomial(lam)
    q = np.zeros(lam, dtype=np.int64)
    for j, c in enumerate(multiplier[:lam]):
        q[j] = c
    counts = counts + correlation._cyclic_product(q, phi)
    with mpmath.workdps(50):
        value = mpmath.fsum(
            int(counts[j]) * mpmath.e ** (2j * mpmath.pi * j / lam) for j in range(lam)
        )
        numerically_zero = abs(value) < mpmath.mpf("1e-30")
    assert is_zero(counts) == numerically_zero


def test_count_vector_algebra():
    # sums, the Kronecker check's cyclic product and conjugation as index
    # reversal carry the values' arithmetic, against the float values
    rng = np.random.default_rng(8)
    for lam in (2, 5, 12, 30):
        a, b = rng.integers(-5, 6, (2, lam))
        assert abs(_value(a + b) - (_value(a) + _value(b))) < 1e-9
        assert abs(_value(a - b) - (_value(a) - _value(b))) < 1e-9
        assert abs(_value(-a) + _value(a)) < 1e-12
        product = correlation._cyclic_product(a, b)
        assert product.dtype == np.int64 and product.shape == (lam,)
        assert abs(_value(product) - _value(a) * _value(b)) < 1e-9
        assert abs(_value(_conjugate(a)) - np.conj(_value(a))) < 1e-12


def test_cyclic_product_of_monomials():
    lam = 5
    for i in range(lam):
        for j in range(lam):
            # 2^31 * 2^31 = 2^62 is kept exactly in int64
            xa = np.zeros(lam, dtype=np.int64)
            xa[i] = 2**31
            xb = np.zeros(lam, dtype=np.int64)
            xb[j] = 2**31
            expected = np.zeros(lam, dtype=np.int64)
            expected[(i + j) % lam] = 2**62
            assert np.array_equal(correlation._cyclic_product(xa, xb), expected)


@pytest.mark.parametrize("lam", [2, 6, 30, 1009])
def test_count_vectors_are_read_only_int64_of_length_lambda(lam):
    rng = np.random.default_rng(700 + lam)
    M, L = 4, 23
    sset = SequenceSet([PhaseSequence(lam, row) for row in rng.integers(0, lam, (M, L))])
    a, b = sset.sequences[:2]
    for tau in range(1 - L, L):
        for counts, total in ((accf_exact(a, b, tau), L - abs(tau)),
                              (aacf_set_sum(sset, tau), M * (L - abs(tau)))):
            assert counts.dtype == np.int64 and counts.shape == (lam,)
            assert not counts.flags.writeable
            assert counts.sum() == total
            with pytest.raises(ValueError, match="read-only"):
                counts[0] += 1
    # conjugate symmetry: the shift -tau reverses the exponents of tau mod lambda
    for tau in range(1, L):
        assert np.array_equal(accf_exact(a, b, -tau), _conjugate(accf_exact(b, a, tau)))
        assert np.array_equal(aacf_set_sum(sset, -tau), _conjugate(aacf_set_sum(sset, tau)))


def test_accf_exact_zero_shift():
    s = PhaseSequence(4, [0, 1, 3, 2, 2])
    out = accf_exact(s, s, 0)
    assert out[0] == 5
    assert not out[1:].any()


def test_accf_exact_small_example():
    # (0,0,0,1) over Z_2 at shift 1: differences (0,0,1), value 2-1 = 1
    s = PhaseSequence(2, [0, 0, 0, 1])
    out = accf_exact(s, s, 1)
    assert list(out) == [2, 1]
    assert abs(_value(out) - 1) < 1e-12


def test_accf_exact_counts_total():
    rng = random.Random(21)
    a = PhaseSequence(6, [rng.randrange(6) for _ in range(17)])
    b = PhaseSequence(6, [rng.randrange(6) for _ in range(17)])
    for tau in range(-16, 17):
        assert accf_exact(a, b, tau).sum() == 17 - abs(tau)


def test_accf_conjugate_symmetry():
    rng = random.Random(22)
    a = PhaseSequence(8, [rng.randrange(8) for _ in range(12)])
    b = PhaseSequence(8, [rng.randrange(8) for _ in range(12)])
    for tau in range(1, 12):
        back = accf_exact(a, b, -tau)
        fwd = accf_exact(b, a, tau)
        assert np.array_equal(back, _conjugate(fwd))
        assert abs(_value(back) - np.conj(_value(fwd))) < 1e-9


def test_accf_argument_validation():
    a = PhaseSequence(4, [0, 1, 2])
    with pytest.raises(ValueError, match="out of range"):
        accf_exact(a, a, 3)
    with pytest.raises(ValueError, match="out of range"):
        accf_exact(a, a, -3)
    with pytest.raises(ValueError, match="modulus"):
        accf_exact(a, PhaseSequence(6, [0, 1, 2]), 1)
    with pytest.raises(ValueError, match="length"):
        accf_exact(a, PhaseSequence(4, [0, 1]), 1)


@given(st.integers(0, 10**6))
@settings(max_examples=100)
def test_accf_exact_matches_naive_sum(seed):
    rng = random.Random(seed)
    lam = rng.randint(2, 12)
    L = rng.randint(1, 24)
    a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(L)])
    b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(L)])
    tau = rng.randint(-L + 1, L - 1)
    want = naive_rho(lift(a), lift(b), tau)
    assert abs(_value(accf_exact(a, b, tau)) - want) < 1e-9


def test_aacf_set_sum_zero_shift():
    sset = mscs_3_27_3()
    out = aacf_set_sum(sset, 0)
    assert out[0] == 3 * 27
    assert not out[1:].any()


def test_aacf_set_sum_examples():
    sset = mscs_3_27_3()
    assert is_zero(aacf_set_sum(sset, 3))
    at_one = aacf_set_sum(sset, 1)
    # regression constant, cross-checked against the naive complex sum
    assert list(at_one) == [62, 0, 8, 0, 8, 0]
    assert abs(_value(at_one) - naive_set_aacf(sset, 1)) < 1e-9
    assert abs(_value(at_one) - 54) < 1e-9
    with pytest.raises(ValueError, match="out of range"):
        aacf_set_sum(sset, 27)


@pytest.mark.parametrize("lam", [2, 6, 30, 255, 256, 1009, 2**15, 2**15 + 1])
def test_aacf_set_sum_matches_modular_differences(lam):
    # codes x + (lambda - y) fold over 2*lambda bins at every modulus
    rng = np.random.default_rng(lam)
    L = 97
    stack = rng.integers(0, lam, (3, L))
    stack[0, :3] = [0, lam - 1, 0]
    stack[1, -3:] = [lam - 1, 0, lam - 1]
    sset = SequenceSet([PhaseSequence(lam, row) for row in stack])
    for tau in (0, 1, 40, L - 1, -1, -40, -(L - 1)):
        if tau >= 0:
            diffs = (stack[:, : L - tau] - stack[:, tau:]) % lam
        else:
            diffs = (stack[:, -tau:] - stack[:, : L + tau]) % lam
        want = np.bincount(diffs.ravel(), minlength=lam)
        assert np.array_equal(aacf_set_sum(sset, tau), want), tau


@pytest.mark.parametrize("lam", [2, 6, 30, 1009])
def test_aacf_set_sum_matches_the_stacked_count(lam):
    rng = np.random.default_rng(500 + lam)
    for M, L in ((1, 2), (3, 41), (7, 64)):
        stack = rng.integers(0, lam, (M, L))
        sset = SequenceSet([PhaseSequence(lam, row) for row in stack])
        for tau in sorted({0, 1, L // 2, L - 1, -1, -(L // 2), -(L - 1)}):
            lead, lag = ((slice(0, L - tau), slice(tau, L)) if tau >= 0
                         else (slice(-tau, L), slice(0, L + tau)))
            bins = np.bincount((stack[:, lead] + (lam - stack[:, lag])).ravel(),
                               minlength=2 * lam)
            assert np.array_equal(aacf_set_sum(sset, tau),
                                  bins[:lam] + bins[lam:]), (M, L, tau)


def test_aacf_set_sum_counts_one_member_at_a_time():
    M, L, lam = 30, 20000, 30
    sset = SequenceSet([PhaseSequence(lam, row)
                        for row in np.random.default_rng(6).integers(0, lam, (M, L))])
    tracemalloc.start()
    try:
        for tau in (1, -7, L // 2):
            aacf_set_sum(sset, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stacked (M, L) copy of the phases alone would be M*L*8 bytes
    assert peak < M * L * 8 / 4


def test_verify_mscs_reference_set():
    report = verify_mscs(mscs_3_27_3(), 3)
    assert report.passed
    assert report.mode == "exact"
    assert report.claim == "MSCS"
    assert report.parameter == 3
    assert report.shifts.tolist() == [3, 6, 9, 12, 15, 18, 21, 24]
    assert report.failing_shifts == ()


def test_verify_mscs_singleton_fails():
    sset = SequenceSet([PhaseSequence(2, [0, 0])])
    report = verify_mscs(sset, 1)
    assert not report.passed
    assert report.failing_shifts == (1,)
    assert report.magnitudes[0] > 0.5


def test_verify_mscs_parameter_bounds():
    sset = SequenceSet([PhaseSequence(2, [0, 0])])
    with pytest.raises(ValueError):
        verify_mscs(sset, 0)
    with pytest.raises(ValueError):
        verify_mscs(sset, 2)


def test_verify_gcs_cases():
    remark_set = multi_prime_mscs([PrimeBlock(p=2, m=1), PrimeBlock(p=3, m=1)], 6)
    assert verify_gcs(remark_set).passed
    pair = single_prime_mscs(PrimeBlock(p=2, m=1), 2)
    assert verify_gcs(pair).passed
    lonely = SequenceSet([PhaseSequence(2, [0, 0, 0])])
    assert not verify_gcs(lonely).passed


def test_verify_gcs_failure_lists_shifts():
    report = verify_gcs(mscs_3_27_3())
    assert not report.passed
    assert report.failing_shifts == (1, 2)


def test_verify_type2_zcs_cases():
    sset = mscs_3_27_3()
    report = verify_type2_zcs(sset, 24)
    assert report.passed
    assert report.shifts.tolist() == list(range(4, 27))
    # Z=1 leaves an empty open window (26, 27), so the check is vacuous
    narrow = verify_type2_zcs(sset, 1)
    assert len(narrow.shifts) == 0
    assert narrow.passed
    two = verify_type2_zcs(sset, 2)
    assert two.shifts.tolist() == [26]
    rng = random.Random(17)
    noise = SequenceSet(
        [PhaseSequence(4, [rng.randrange(4) for _ in range(16)]) for _ in range(2)]
    )
    bad = verify_type2_zcs(noise, 10)
    assert not bad.passed
    assert len(bad.failing_shifts) > 0


def test_report_verdicts_are_three_read_only_arrays(tmp_path, capsys):
    rng = random.Random(23)
    sset = SequenceSet([PhaseSequence(6, [rng.randrange(6) for _ in range(200)])
                        for _ in range(3)])
    failing = tuple(t for t in range(1, 200) if not is_zero(aacf_set_sum(sset, t)))
    assert len(failing) > 100
    report = verify_gcs(sset)
    assert [f.name for f in dataclasses.fields(report)] == [
        "claim", "parameter", "mode", "shifts", "zeros", "magnitudes"]
    for name, dtype in (("shifts", np.int64), ("zeros", np.bool_), ("magnitudes", np.float64)):
        verdicts = getattr(report, name)
        assert verdicts.dtype == dtype and verdicts.shape == (199,)
        with pytest.raises(ValueError):
            verdicts[0] = 0
    assert type(report.failing_shifts) is tuple
    assert all(type(t) is int for t in report.failing_shifts)
    # `mscs verify` prints len(report.shifts) as the shifts checked
    path = tmp_path / "set.json"
    write_document(document_from_set(mscs_3_27_3()), str(path))
    for argv, verify in (([], lambda s: verify_mscs(s, 3)), (["--claim", "gcs"], verify_gcs),
                         (["--claim", "zcs", "--Z", "1"], lambda s: verify_type2_zcs(s, 1))):
        cli_main(["verify", str(path), *argv])
        printed = capsys.readouterr().out.split("shifts checked: ")[1].split("\n")[0]
        assert int(printed) == len(verify(mscs_3_27_3()).shifts)
    assert printed == "0"


def test_report_verdicts_are_read_without_building_checks():
    # the verdicts are the arrays themselves: no per-shift object is built
    assert not hasattr(correlation, "ShiftCheck") and not hasattr(correlation, "ShiftChecks")
    rng = random.Random(23)
    sset = SequenceSet([PhaseSequence(6, [rng.randrange(6) for _ in range(200)])
                        for _ in range(3)])
    failing = tuple(t for t in range(1, 200) if not is_zero(aacf_set_sum(sset, t)))
    assert len(failing) > 100
    report = verify_gcs(sset)
    assert len(report.shifts) == 199 and report.shifts.tolist() == list(range(1, 200))
    assert report.zeros.tolist() == [t not in failing for t in range(1, 200)]
    assert not report.passed and report.failing_shifts == failing
    assert all(type(t) is int for t in report.failing_shifts)
    strided = verify_mscs(sset, 7)
    assert strided.shifts.tolist() == list(range(7, 200, 7))
    assert strided.failing_shifts == tuple(t for t in failing if t % 7 == 0)
    assert report.shifts[5] == 6


def test_report_checks_behave_as_the_tuple_of_checks():
    # one check per tested shift is one row across the three arrays
    sset = mscs_3_27_3()
    report = verify_gcs(sset)
    rows = list(zip(report.shifts.tolist(), report.zeros.tolist(), report.magnitudes.tolist()))
    assert [(t, zero) for t, zero, _ in rows] == [
        (t, is_zero(aacf_set_sum(sset, t))) for t in range(1, 27)]
    assert all(type(t) is int and type(zero) is bool and type(mag) is float
               for t, zero, mag in rows)
    assert all(mag < 1e-9 for _, zero, mag in rows if zero)
    assert all(mag > 0.5 for _, zero, mag in rows if not zero)
    again = verify_gcs(sset)
    for name in ("shifts", "zeros", "magnitudes"):
        assert np.array_equal(getattr(report, name), getattr(again, name))
    empty = dataclasses.replace(report, shifts=report.shifts[:0], zeros=report.zeros[:0],
                                magnitudes=report.magnitudes[:0])
    assert empty.passed and empty.failing_shifts == () and len(empty.shifts) == 0
    assert len(verify_type2_zcs(sset, 1).shifts) == 0 and len(report.shifts) == 26
    flags = report.zeros.copy()
    flags[0] = True
    flipped = dataclasses.replace(report, zeros=flags)
    assert flipped.failing_shifts == (2,) and report.failing_shifts == (1, 2)
    with pytest.raises(ValueError):
        report.zeros[0] = True
    with pytest.raises(ValueError):
        report.magnitudes[0] = 0.0
    with pytest.raises(ValueError):
        report.shifts[0] = 0
    assert flags.flags.writeable


def test_an_empty_shift_range_takes_no_transform(monkeypatch):
    sset = mscs_3_27_3()

    def refuse(*args, **kwargs):
        raise AssertionError("no transform was expected")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    report = verify_type2_zcs(sset, 1)
    assert report.passed and len(report.shifts) == 0 and report.failing_shifts == ()
    assert correlation._lift_sums(sset, (1, 5), range(26, 26)).shape == (2, 0)


def test_verify_numerical_mode_above_cap():
    lam = 2 * 1009
    assert lam > EXACT_MODULUS_CAP
    sset = single_prime_mscs(PrimeBlock(p=2, m=2), lam)
    report = verify_mscs(sset, 1)
    assert report.mode == "numerical"
    assert report.passed


def _move_sums(monkeypatch, move, tau=None, rows=slice(None)):
    """Apply ``move`` to the embedding sums of ``rows`` at shift tau (every shift if None)."""
    inner = correlation._lift_sums

    def moved(sset, ks, shifts):
        sums = inner(sset, ks, shifts)
        at = slice(None) if tau is None else list(shifts).index(tau)
        sums[rows, at] = move(sums[rows, at])
        return sums

    monkeypatch.setattr(correlation, "_lift_sums", moved)


def test_separation_tripwire(monkeypatch):
    # the lambda = 15 set checked as a GCS has zeros at multiples of 3,
    # nonzeros elsewhere, and four conjugates per shift
    for sset in (mscs_3_27_3(), _claim_breakers()[15]):
        bound = correlation._embedding_bound(len(sset), sset.length)
        report = verify_gcs(sset)
        zero_at = int(report.shifts[report.zeros][0])
        nonzero_at = int(report.shifts[~report.zeros][0])
        # one conjugate of a zero moved between B and 1 - B raises; within B it passes
        _move_sums(monkeypatch, lambda v: v + 0.25, zero_at, rows=-1)
        with pytest.raises(RuntimeError, match=f"at shift {zero_at} lies between the bound"):
            verify_gcs(sset)
        monkeypatch.undo()
        _move_sums(monkeypatch, lambda v: v + bound / 2, zero_at, rows=-1)
        assert verify_gcs(sset).zeros.tolist() == report.zeros.tolist()
        monkeypatch.undo()
        # every conjugate of a nonzero pulled below 1 - B raises
        _move_sums(monkeypatch, lambda v: 0.5, nonzero_at)
        with pytest.raises(RuntimeError, match=f"at shift {nonzero_at} lies between the bound"):
            verify_gcs(sset)
        monkeypatch.undo()
        # a flipped oracle contradicts the verdict at the largest nonzero shift
        monkeypatch.setattr(correlation, "is_zero", lambda s: not is_zero(s))
        largest = max(report.failing_shifts)
        with pytest.raises(RuntimeError, match=f"verdict at shift {largest} disagrees"):
            verify_gcs(sset)
        monkeypatch.undo()
    # +1 on every sum calls each shift nonzero; with no nonzero shift the
    # cross-check sits at the largest, an exact zero of mscs_3_27_3 at S = 3
    assert verify_mscs(mscs_3_27_3(), 3).passed
    _move_sums(monkeypatch, lambda v: v + 1)
    with pytest.raises(RuntimeError, match="verdict at shift 24 disagrees"):
        verify_mscs(mscs_3_27_3(), 3)


def test_kronecker_identity_trivial_shift():
    rng = random.Random(31)
    a = PhaseSequence(6, [rng.randrange(6) for _ in range(4)])
    b = PhaseSequence(6, [rng.randrange(6) for _ in range(5)])
    assert kronecker_accf_identity_check(a, b, 0)
    composed = kronecker_compose(a, b)
    assert accf_exact(composed, composed, 0).tolist() == [20, 0, 0, 0, 0, 0]


def test_kronecker_identity_multiples_of_inner_length():
    rng = random.Random(32)
    a = PhaseSequence(4, [rng.randrange(4) for _ in range(5)])
    b = PhaseSequence(4, [rng.randrange(4) for _ in range(3)])
    for q in range(5):
        assert kronecker_accf_identity_check(a, b, q * 3)


def test_kronecker_identity_exhaustive_small():
    rng = random.Random(33)
    for _ in range(20):
        lam = rng.randint(2, 12)
        a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(1, 6))])
        b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(1, 8))])
        total = len(a) * len(b)
        for tau in range(-total + 1, total):
            assert kronecker_accf_identity_check(a, b, tau)


def test_kronecker_identity_holds_at_large_sizes():
    # composed length 10^6, below the cap: the exact check alone decides
    rng = random.Random(1)
    a = PhaseSequence(6, [rng.randrange(6) for _ in range(1000)])
    b = PhaseSequence(6, [rng.randrange(6) for _ in range(1000)])
    assert kronecker_accf_identity_check(a, b, 2)


def test_kronecker_identity_float_holds_at_large_sizes():
    # composed length 10^6 above the cap: the float sides differ by about
    # 1.6e-11, inside their slack of about 1.3e-7
    rng = random.Random(1)
    a = PhaseSequence(1009, [rng.randrange(1009) for _ in range(1000)])
    b = PhaseSequence(1009, [rng.randrange(1009) for _ in range(1000)])
    assert kronecker_accf_identity_check(a, b, 2)


def test_kronecker_identity_exact_half_catches_a_moved_count(monkeypatch):
    # one count of the composed sequence's correlation moves to the next
    # exponent, its total kept: w^j - w^(j+1) != 0, which the exact check,
    # the only one below the cap, refuses
    rng = random.Random(36)
    cases = []
    for _ in range(10):
        lam = rng.randint(2, 12)
        a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(2, 4))])
        b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(2, 4))])
        cases += [(a, b, tau) for tau in range(1 - len(a) * len(b), len(a) * len(b))]
    assert all(kronecker_accf_identity_check(a, b, tau) for a, b, tau in cases)
    inner, composed = correlation.accf_exact, {}

    def moved(x, y, tau):
        counts = inner(x, y, tau)
        if len(x) != composed["length"]:
            return counts
        counts = counts.copy()
        j = int(np.flatnonzero(counts)[0])
        counts[j] -= 1
        counts[(j + 1) % len(counts)] += 1
        return counts

    monkeypatch.setattr(correlation, "accf_exact", moved)
    for a, b, tau in cases:
        composed["length"] = len(a) * len(b)
        assert not kronecker_accf_identity_check(a, b, tau)


def test_kronecker_identity_float_only_above_the_cap(monkeypatch):
    # lambda = 1009 is above the cap: the float autocorrelations of _lift_sums
    # decide, and the exact counter is never reached
    lam = 1009
    assert lam > EXACT_MODULUS_CAP
    rng = random.Random(35)
    a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(4)])
    b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(5)])
    total = len(a) * len(b)

    def refuse(*args):
        raise AssertionError("accf_exact called above the cap")

    monkeypatch.setattr(correlation, "accf_exact", refuse)
    taus = range(1 - total, total)
    assert all(kronecker_accf_identity_check(a, b, tau) for tau in taus)
    inner = correlation._lift_sums

    def perturbed(sset, ks, shifts):
        return inner(sset, ks, shifts) + (1e-6 if sset.length == total else 0)

    monkeypatch.setattr(correlation, "_lift_sums", perturbed)
    assert not any(kronecker_accf_identity_check(a, b, tau) for tau in taus)


def test_kronecker_identity_validation():
    a = PhaseSequence(4, [0, 1])
    b = PhaseSequence(4, [0, 1, 2])
    with pytest.raises(ValueError, match="out of range"):
        kronecker_accf_identity_check(a, b, 6)
    with pytest.raises(ValueError, match="modulus"):
        kronecker_accf_identity_check(a, PhaseSequence(6, [0]), 0)


def test_gcs_implies_any_mscs():
    sset = multi_prime_mscs([PrimeBlock(p=2, m=2), PrimeBlock(p=3, m=1)], 6)
    assert verify_gcs(sset).passed
    for S in (1, 2, 3, 5, 11):
        assert verify_mscs(sset, S).passed


def _random_set(rng, lam, M, L):
    return SequenceSet(
        [PhaseSequence(lam, [rng.randrange(lam) for _ in range(L)]) for _ in range(M)]
    )


def _flipped(sset, index=0):
    members = list(sset.sequences)
    vals = members[0].values.copy()
    vals[index] = (vals[index] + 1) % sset.modulus
    members[0] = PhaseSequence(sset.modulus, vals)
    return SequenceSet(members)


def _oracle_report(sset, verify):
    """The report, after checking it against the same report with the oracle's verdicts.

    The oracle decides each tested shift by :func:`is_zero` of
    :func:`aacf_set_sum`, one shift at a time.
    """
    report = verify(sset)
    oracle = [is_zero(aacf_set_sum(sset, t)) for t in report.shifts.tolist()]
    assert report.zeros.tolist() == oracle
    return report


@pytest.mark.parametrize("case", ["3-27-3", "3-27-3-gcs", "3-54-2", "flipped", "flipped-zcs",
                                  "binary", "lambda-12", "flipped-gcs30"])
def test_both_paths_give_identical_reports(case):
    # the conjugate verdicts against the per-shift cyclotomic oracle
    gcs30 = [PrimeBlock(p=2, m=2), PrimeBlock(p=3, m=1), PrimeBlock(p=5, m=1)]
    sset, verify = {
        "3-27-3": (mscs_3_27_3(), lambda s: verify_mscs(s, 3)),
        "3-27-3-gcs": (mscs_3_27_3(), verify_gcs),
        "3-54-2": (mscs_3_54_2(), lambda s: verify_mscs(s, 2)),
        "flipped": (_flipped(mscs_3_27_3()), lambda s: verify_mscs(s, 3)),
        "flipped-zcs": (_flipped(mscs_3_54_2(), 40), lambda s: verify_type2_zcs(s, 30)),
        "binary": (single_prime_mscs(PrimeBlock(p=2, m=6), 2), verify_gcs),
        "lambda-12": (_flipped(multi_prime_mscs([PrimeBlock(p=2, m=3), PrimeBlock(p=3, m=2)],
                                                12)), verify_gcs),
        "flipped-gcs30": (_flipped(multi_prime_mscs(gcs30, 30), 7), verify_gcs),
    }[case]
    report = _oracle_report(sset, verify)
    assert report.mode == "exact"
    if case.startswith("flipped"):
        assert not report.passed


def test_size_rule_picks_the_path():
    # the mode comes from lambda alone; the benchmark's shapes all stay far
    # below the rounding bound's 1/2
    for m in (9, 11, 12):
        sset = single_prime_mscs(PrimeBlock(p=3, m=m), 6)
        assert correlation._embedding_bound(3, sset.length) < 1e-6
        report = verify_type2_zcs(sset, 10)
        assert report.passed and report.mode == "exact" and len(report.shifts) == 9
    report = verify_gcs(single_prime_mscs(PrimeBlock(p=2, m=3), 1009 * 2))
    assert report.passed and report.mode == "numerical" and len(report.shifts) == 7
    # the same ratios at L = 2187, built and verified
    fine = single_prime_mscs(PrimeBlock(p=3, m=7, s=3), 6)
    report = verify_mscs(fine, 9)
    assert report.passed and report.mode == "exact" and len(report.shifts) == 242
    sparse = single_prime_mscs(PrimeBlock(p=3, m=7, s=4), 6)
    report = verify_mscs(sparse, 27)
    assert report.passed and report.mode == "exact" and len(report.shifts) == 80
    # lambda = 30 needs phi/2 = 4 embeddings, whatever the number of shifts
    L = 1800
    gcs30 = multi_prime_mscs([PrimeBlock(p=2, m=3), PrimeBlock(p=3, m=2),
                              PrimeBlock(p=5, m=2)], 30)
    assert (len(gcs30), gcs30.length) == (30, L)
    report = verify_gcs(gcs30)
    assert report.passed and report.mode == "exact" and len(report.shifts) == L - 1
    report = verify_mscs(gcs30, 450)
    assert report.passed and report.mode == "exact" and len(report.shifts) == 3


def _is_7_smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def test_sets_whose_bound_reaches_half_are_refused(monkeypatch, tmp_path, capsys):
    # computed thresholds: B reaches 1/2 at 66832 members at the length cap
    # of 10^6, and at 47453088 members of length 2
    for M, L in ((66832, MAX_LENGTH), (47453088, 2)):
        assert correlation._embedding_bound(M - 1, L) < 0.5 <= correlation._embedding_bound(M, L)
    # 2L = 2 * 37^4 has a prime factor above 7; the padded length has none
    L = 37**4
    n = correlation._fft_length(L)
    assert _is_7_smooth(n) and n >= 2 * L - 1
    assert correlation._embedding_bound(3, L) < 1e-6
    path = tmp_path / "set.json"
    write_document(document_from_set(mscs_3_27_3()), str(path))

    def no_transform(*args):
        raise AssertionError("transformed a set past the bound")

    monkeypatch.setattr(correlation, "_embedding_bound", lambda M, L: 0.5)
    monkeypatch.setattr(correlation, "_lift_sums", no_transform)
    for sset in (mscs_3_27_3(), single_prime_mscs(PrimeBlock(p=2, m=2), 2 * 1009)):
        with pytest.raises(ValueError, match="bound 0.5 .* reaches 1/2"):
            verify_gcs(sset)
    assert cli_main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: FFT rounding bound 0.5 of 3 members of length 27 reaches "
                            "1/2; verify fewer members\n")


def test_fft_length_is_the_next_7_smooth():
    for L in range(1, 3000):
        n = correlation._fft_length(L)
        assert _is_7_smooth(n) and n >= 2 * L - 1
        assert not any(_is_7_smooth(m) for m in range(2 * L - 1, n))
    # every benchmark length keeps n = 2L
    for L in (27, 729, 900, 1458, 1800, 19683, 177147, 531441, 972000, MAX_LENGTH):
        assert correlation._fft_length(L) == 2 * L


def _check_conjugates(sset, shifts):
    """Check the embedding sums at these shifts against the exact conjugates.

    Row k of :func:`_lift_sums` must lie within B = ``_embedding_bound`` of
    sum_j counts_j w^(kj), with the counts from :func:`aacf_set_sum`,
    evaluated in mpmath at 30 digits; the rule max_k |E'_k| <= B must give
    the :func:`is_zero` verdict of those counts.  There are phi(lambda)/2
    embeddings (one for lambda = 2); above the cap k = 1 alone, as
    :func:`_verify` takes.  Returns the largest |E'_k - sigma_k|, and the
    verdicts.
    """
    import mpmath

    lam = sset.modulus
    if lam <= EXACT_MODULUS_CAP:
        ks = correlation._conjugate_ks(lam)
        assert len(ks) == max(1, (len(cyclotomic_polynomial(lam)) - 1) // 2)
    else:
        ks = (1,)
    sums = correlation._lift_sums(sset, ks, shifts)
    counts = np.array([aacf_set_sum(sset, t) for t in shifts]).reshape(len(shifts), lam)
    bound = correlation._embedding_bound(len(sset), sset.length)
    with mpmath.workdps(30):
        roots = np.array([[mpmath.expjpi(mpmath.mpf(2 * (k * j % lam)) / lam)
                           for j in range(lam)] for k in ks], dtype=object)
        exact = counts.astype(object) @ roots.T
        error = max((abs(mpmath.mpc(e) - x) for e, x in zip(sums.T.ravel().tolist(),
                                                           exact.ravel())), default=0)
        assert error <= bound
    zeros = np.abs(sums).max(axis=0) <= bound
    assert zeros.tolist() == is_zero(counts).tolist()
    return float(error), zeros


def _claim_breakers():
    """MSCS sets checked as GCS: zero at multiples of S, mostly nonzero elsewhere."""
    return {
        10: multi_prime_mscs([PrimeBlock(p=2, m=1), PrimeBlock(p=5, m=2, s=2)], 10),
        15: multi_prime_mscs([PrimeBlock(p=3, m=2, s=2), PrimeBlock(p=5, m=1)], 15),
    }


@pytest.mark.parametrize("lam", [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 25, 30])
def test_residues_match_counts_at_every_shift(lam):
    rng = random.Random(2000 + lam)
    sets = [_random_set(rng, lam, rng.randint(1, 4), rng.choice([50, 64, 81, 97, 120]))]
    if lam in _claim_breakers():
        sets.append(_claim_breakers()[lam])
    for sset in sets:
        _, zeros = _check_conjugates(sset, range(sset.length))
        assert not zeros[0]
        report = _oracle_report(sset, verify_gcs)
        assert report.zeros.tolist() == zeros[1:].tolist()
        assert not all(zeros[1:])


def test_claim_breakers_fail_alike_on_both_paths():
    # the lambda = 10 and 15 sets are MSCSs (S = 5, S = 3), not GCSs
    for lam, sset in _claim_breakers().items():
        fast = _oracle_report(sset, verify_gcs)
        assert not fast.passed
        S = {10: 5, 15: 3}[lam]
        assert all(t % S for t in fast.failing_shifts)
        assert verify_mscs(sset, S).passed


def test_every_length_takes_the_residue_path():
    # L = 4001 is prime: 2L = 8002 = 2 * 4001 pads to the 7-smooth 8064
    rng = random.Random(4001)
    sset = _random_set(rng, 6, 3, 4001)
    assert correlation._fft_length(4001) == 8064
    report = verify_gcs(sset)
    assert report.mode == "exact" and len(report.shifts) == 4000
    sample = sorted(rng.sample(range(1, 4001), 40)) + [4000]
    _, zeros = _check_conjugates(sset, sample)
    assert report.zeros[np.array(sample) - 1].tolist() == zeros.tolist()
    # 2L = 136 = 8 * 17 pads to 135 = 27 * 5, a plan the bound covers
    odd = _random_set(random.Random(5), 6, 2, 68)
    assert correlation._fft_length(68) == 135
    _check_conjugates(odd, range(68))
    _oracle_report(odd, verify_gcs)


def test_all_shift_verification_calls_each_exact_span_once(monkeypatch):
    # the benchmark tracer times the exact layer through these two module
    # attributes; the conjugate path's cross-check is their only caller
    calls = {"aacf_set_sum": 0, "is_zero": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(correlation, name)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(correlation, name, counted)
    report = verify_mscs(mscs_3_54_2(), 2)
    assert report.mode == "exact" and report.passed and len(report.shifts) == 26
    assert calls == {"aacf_set_sum": 1, "is_zero": 1}


def _gcs30():
    return multi_prime_mscs([PrimeBlock(p=2, m=2), PrimeBlock(p=3, m=2),
                             PrimeBlock(p=5, m=1)], 30)


def _one_member(lam):
    return _random_set(random.Random(lam), lam, 1, 100)


_RESIDUAL_CASES = {
    # case: (set, shifts, zero shifts among them)
    "3-27-3": lambda: (mscs_3_27_3(), range(27), 24),
    "3-54-2": lambda: (mscs_3_54_2(), range(54), 52),
    "gcs30": lambda: (_gcs30(), range(180), 179),
    "gcs30-mscs": lambda: (_gcs30(), range(36, 180, 36), 4),
    "gcs30-zcs": lambda: (_gcs30(), range(180 - 40, 180), 40),
    "3-54-2-mscs": lambda: (mscs_3_54_2(), range(2, 54, 2), 26),
    "random30-past-half": lambda: (_random_set(random.Random(30), 30, 4, 1000), [700, 910], 0),
    "golay-2-4": lambda: (SequenceSet([PhaseSequence(2, [0, 0, 0, 1]),
                                       PhaseSequence(2, [0, 0, 1, 0])]), range(4), 3),
    "random10-long": lambda: (_random_set(random.Random(23), 10, 1, 1000),
                              [0, 1, 7, 500, 999], 0),
    # one member at one shift, as the Kronecker check asks: shift 0, a
    # window (drop 40, g = 30) and a stride (g = 12); above the cap k = 1 only
    "one6-shift0": lambda: (_one_member(6), [0], 0),
    "one6-window": lambda: (_one_member(6), [70], 0),
    "one6-stride": lambda: (_one_member(6), [12], 0),
    "one30-shift0": lambda: (_one_member(30), [0], 0),
    "one30-window": lambda: (_one_member(30), [70], 0),
    "one30-stride": lambda: (_one_member(30), [12], 0),
    "one1009-shift0": lambda: (_one_member(1009), [0], 0),
    "one1009-window": lambda: (_one_member(1009), [70], 0),
    "one1009-stride": lambda: (_one_member(1009), [12], 0),
}


@pytest.mark.parametrize("case", list(_RESIDUAL_CASES))
def test_residual_within_bound(case):
    # every shift, then strided and windowed plans under the same bound
    sset, shifts, zero_count = _RESIDUAL_CASES[case]()
    planned = case not in ("3-27-3", "3-54-2", "gcs30", "golay-2-4", "random10-long",
                           "one6-shift0", "one30-shift0", "one1009-shift0")
    assert (correlation._lag_plan(sset.length, shifts)[:2] != (0, 1)) == planned
    error, zeros = _check_conjugates(sset, shifts)
    assert error <= correlation._embedding_bound(len(sset), sset.length) < 1e-6
    # some rounding shows, except perhaps at a lone shift 0, whose value L
    # can come out exact
    assert error > 0 or list(shifts) == [0]
    # sets with both zero and nonzero shifts, with zeros only and with nonzeros only
    assert int(zeros.sum()) == zero_count


def test_is_zero_batches_and_overflow_guard():
    sset = mscs_3_27_3()
    counts = np.array([aacf_set_sum(sset, t) for t in range(1, 27)])
    flags = is_zero(counts)
    assert flags.dtype == bool and flags.shape == (26,)
    assert list(flags) == [is_zero(aacf_set_sum(sset, t)) for t in range(1, 27)]
    assert is_zero(np.zeros((0, 6), dtype=np.int64)).shape == (0,)
    # 2^61 (1 + w^2 + w^4) = 0 at lambda = 6, past the int64 guard
    big = 2**61
    assert is_zero([big, 0, big, 0, big, 0])
    assert not is_zero(np.array([big, 0, big, 0, big - 1, 0]))


@pytest.mark.parametrize("lam", [210, 840, 990, 1000])
def test_is_zero_at_large_moduli(lam):
    # multiples of Phi_lambda (mod x^lambda - 1) are zero; adding one root
    # of unity to them makes them nonzero
    rng = np.random.default_rng(lam)
    phi = np.zeros(lam, dtype=np.int64)
    phi[: len(cyclotomic_polynomial(lam))] = cyclotomic_polynomial(lam)
    multiples = np.array([correlation._cyclic_product(rng.integers(-3, 4, lam), phi)
                          for _ in range(6)])
    units = np.eye(lam, dtype=np.int64)[rng.integers(0, lam, 6)]
    assert all(is_zero(v) is True for v in multiples)
    assert all(is_zero(v) is False for v in multiples + units)
    flags = is_zero(np.stack([multiples[:3], (multiples + units)[:3]]))
    assert flags.dtype == bool and flags.shape == (2, 3)
    assert flags.tolist() == [[True] * 3, [False] * 3]
    if lam == 990:
        # entries near 2^61: a multiple of Phi_990 scaled up, and 2^61 * (sum of all roots)
        big = 2**61 // int(np.abs(phi).max())
        scaled = big * correlation._cyclic_product(np.eye(lam, dtype=np.int64)[7], phi)
        assert np.abs(scaled).max() > 2**60
        ones = np.full(lam, 2**61, dtype=np.int64)
        assert is_zero(scaled) and is_zero(ones)
        assert not is_zero(scaled + units[0]) and not is_zero(ones - units[0])
        assert is_zero(np.stack([scaled, ones, ones - units[0]])).tolist() == [True, True, False]


def _whole_sequence_sums(sset, ks, shifts):
    """The embedding sums from one whole-sequence FFT per member and embedding."""
    L, lam = sset.length, sset.modulus
    n = correlation._fft_length(L)
    padded = np.zeros(n, dtype=complex)
    out = np.empty((len(ks), len(shifts)), dtype=complex)
    for row, k in enumerate(ks):
        power = np.zeros(n)
        for s in sset.sequences:
            padded[:L] = np.exp(2j * np.pi * ((k * s.values) % lam) / lam)
            spec = np.fft.fft(padded)
            power += spec.real**2 + spec.imag**2
        out[row] = np.conj(np.fft.ifft(power)[np.asarray(shifts, dtype=np.intp)])
    return out


def _fft_calls(monkeypatch, sset, ks, shifts):
    """:func:`_lift_sums` at these shifts, and the shapes of its forward FFT calls."""
    calls, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a, **kw: calls.append(a.shape) or fft(a, **kw))
    sums = correlation._lift_sums(sset, ks, shifts)
    monkeypatch.setattr(np.fft, "fft", fft)
    return sums, calls


@pytest.mark.parametrize("lam", [2, 6, 30, 1009])
def test_whole_sequence_plans_keep_the_lifts_bit_for_bit(monkeypatch, lam):
    # k = 1 lifts the reduced phases as they are, k > 1 reduces k*x first;
    # on a (0, 1, n) plan both give the bits of the whole-sequence transform
    rng = random.Random(3000 + lam)
    ks = (1, 2, lam // 2) if lam > 2 else (1,)
    for L in (1, 2, 50, 97):
        sset = _random_set(rng, lam, 3, L)
        for shifts in (range(L), range(1, L), [0], sorted(rng.sample(range(L), (L + 1) // 2))):
            assert correlation._lag_plan(L, shifts) == (0, 1, correlation._fft_length(L))
            assert np.array_equal(correlation._lift_sums(sset, ks, shifts),
                                  _whole_sequence_sums(sset, ks, shifts))
    # 334 members of n = 196 points fit a chunk, so 700 members span two chunk
    # boundaries, the last chunk short; lambda = 1009 is looked up in a table here
    sset, shifts = _random_set(rng, lam, 700, 97), range(1, 97)
    sums, calls = _fft_calls(monkeypatch, sset, ks, shifts)
    assert calls == [(334, 196), (334, 196), (32, 196)] * len(ks)
    assert np.array_equal(sums, _whole_sequence_sums(sset, ks, shifts))


@pytest.mark.parametrize("lam", [6, 30, 100003])
def test_chunked_transforms_keep_the_bits_of_one_member_at_a_time(monkeypatch, lam):
    # 44 members of n = 1458 points fit a chunk, so 100 members of L = 729
    # take three chunks on the whole-sequence plan; lambda = 100003 lifts
    # each chunk through exp (no table), numerically with k = 1 alone
    rng = random.Random(5000 + lam)
    L, M = 729, 100
    sset = _random_set(rng, lam, M, L)
    ks = correlation._conjugate_ks(lam) if lam <= correlation.EXACT_MODULUS_CAP else (1,)
    plans = {"whole": range(1, L), **_planned_shift_sets(rng, L)}
    chunked = {name: _fft_calls(monkeypatch, sset, ks, shifts)
               for name, shifts in plans.items()}
    assert [rows for rows, _ in chunked["whole"][1]] == [44, 44, 12] * len(ks)
    monkeypatch.setattr(correlation, "_CHUNK_POINTS", 1)
    for name, shifts in plans.items():
        sums, calls = _fft_calls(monkeypatch, sset, ks, shifts)
        g = correlation._lag_plan(L, shifts)[1]
        assert len(calls) == len(ks) * M and {rows for rows, _ in calls} == {g}, name
        assert np.array_equal(sums, chunked[name][0]), name


def test_small_sets_take_one_transform_call_per_chunk(monkeypatch):
    # M = 30, lambda = 30, L = 180: four embeddings of 30 members of n = 360 points
    sset, ks, shifts = _gcs30(), correlation._conjugate_ks(30), range(1, 180)
    assert (len(sset), len(ks), correlation._lag_plan(180, shifts)) == (30, 4, (0, 1, 360))
    sums, calls = _fft_calls(monkeypatch, sset, ks, shifts)
    assert calls == [(30, 360)] * len(ks)
    # chunks of 7 members: 5 calls per embedding, not 30
    monkeypatch.setattr(correlation, "_CHUNK_POINTS", 7 * 360)
    chunked, calls = _fft_calls(monkeypatch, sset, ks, shifts)
    assert calls == ([(7, 360)] * 4 + [(2, 360)]) * len(ks)
    assert np.array_equal(chunked, sums)


@pytest.mark.parametrize("rows", [3, 4, 5, 8])
@pytest.mark.parametrize("n", [729, 1800, 4099])
def test_pocketfft_gives_a_row_the_same_bits_batched_or_alone(rows, n):
    # _transform_rows rests on this: a batch of rows, which pocketfft may
    # vectorise over several rows at once, carries each row's bits of a
    # call on that row alone; 4099 is prime, so it is planned by Bluestein
    rng = np.random.default_rng(rows * n)
    grid = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    for fft in (np.fft.fft, np.fft.ifft):
        batched = fft(grid, out=grid.copy())
        alone = grid.copy()
        for row in alone:
            fft(row, out=row)
        assert np.array_equal(batched.view(np.uint64), alone.view(np.uint64)), fft.__name__


@pytest.mark.parametrize("lam", [6, 30, 100003])
def test_long_rows_keep_the_bits_of_one_batched_call(monkeypatch, lam):
    # M = 3, L = 97: the stride plan of S = 4 is (0, 4, 49), the whole
    # sequence (0, 1, 196); each is one chunk, so one call per embedding
    rng = random.Random(6000 + lam)
    sset = _random_set(rng, lam, 3, 97)
    ks = correlation._conjugate_ks(lam) if lam <= correlation.EXACT_MODULUS_CAP else (1,)
    for shifts, g, n in ((range(4, 97, 4), 4, 49), (range(1, 97), 1, 196)):
        assert correlation._lag_plan(97, shifts) == (0, g, n)
        batched, calls = _fft_calls(monkeypatch, sset, ks, shifts)
        assert calls == [(3 * g, n)] * len(ks)
        # with every grid under the rule, each row is a call of its own
        monkeypatch.setattr(correlation, "_BATCH_ROW_POINTS", n - 1)
        monkeypatch.setattr(correlation, "_ROW_CALL_ROWS", 3 * g)
        sums, calls = _fft_calls(monkeypatch, sset, ks, shifts)
        monkeypatch.undo()
        assert calls == [(n,)] * (3 * g * len(ks))
        assert np.array_equal(sums, batched)


def test_few_long_rows_take_one_call_each(monkeypatch):
    calls, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a, **kw: calls.append(a.shape) or fft(a, **kw))
    n = correlation._BATCH_ROW_POINTS + 1
    for shape in ((64, 729), (4, n), (4, 729)):
        grid = np.ones(shape, dtype=complex)
        assert correlation._transform_rows(np.fft.fft, grid) is grid
        assert np.all(grid[:, 0] == shape[1])
    assert calls == [(64, 729)] + [(n,)] * 4 + [(4, 729)]
    # past 4 rows long rows stay one batch: (64, 972000) would be 64 calls
    calls.clear()
    monkeypatch.setattr(correlation, "_BATCH_ROW_POINTS", 728)
    for rows in (5, 4, 1):
        correlation._transform_rows(np.fft.fft, np.ones((rows, 729), dtype=complex))
    assert calls == [(5, 729)] + [(729,)] * 5


def _out_of_place_sums(sset, ks, shifts):
    """The embedding sums with a fresh zero (g, n) block per member, transformed out of place."""
    L, lam = sset.length, sset.modulus
    drop, g, n = correlation._lag_plan(L, shifts)
    head = (L - drop) // 2
    lags = (np.asarray(shifts, dtype=np.intp) - drop) // g
    out = np.empty((len(ks), len(lags)), dtype=complex)
    for row, k in enumerate(ks):
        power = np.zeros((g, n))
        for s in sset.sequences:
            x = np.concatenate((s.values[:head], s.values[head + drop:]))
            window = np.exp(2j * np.pi * ((k * x) % lam) / lam)
            block = np.zeros((g, n), dtype=complex)
            for r in range(g):
                block[r, :len(window[r::g])] = window[r::g]
            spec = np.fft.fft(block)
            sq = spec.real**2
            sq += spec.imag**2
            power += sq
        out[row] = np.conj(np.fft.ifft(correlation._sum_rows(power))[lags])
    return out


def _grid_cases(rng, lam):
    """(name, set, ks, shifts, chunk points) over every planned shift set.

    Five members in chunks of two: three chunks per embedding, the last
    one short, so every grid is filled again after its transform.
    """
    ks = correlation._conjugate_ks(lam) if lam <= correlation.EXACT_MODULUS_CAP else (1,)
    for L in (40, 97):
        sset = _random_set(rng, lam, 5, L)
        for name, shifts in {"whole": range(1, L), **_planned_shift_sets(rng, L)}.items():
            _, g, n = correlation._lag_plan(L, shifts)
            yield f"{L}-{name}", sset, ks, shifts, 2 * g * n


@pytest.mark.parametrize("lam", [30, 100003])
def test_in_place_grids_keep_no_stale_entries(monkeypatch, lam):
    # lambda = 30 takes four embeddings from the root table, lambda = 100003
    # one through exp; a grid that kept an earlier chunk's spectrum in its
    # padding, or in the short rows (rem > 0) of a stride plan, would differ
    strided_with_rem = False
    for name, sset, ks, shifts, points in _grid_cases(random.Random(6000 + lam), lam):
        drop, g, _ = correlation._lag_plan(sset.length, shifts)
        strided_with_rem |= g > 1 and (sset.length - drop) % g > 0
        expected = _out_of_place_sums(sset, ks, shifts)
        assert np.array_equal(correlation._lift_sums(sset, ks, shifts), expected), name
        with monkeypatch.context() as m:
            m.setattr(correlation, "_CHUNK_POINTS", points)
            assert np.array_equal(correlation._lift_sums(sset, ks, shifts), expected), name
    assert strided_with_rem


@pytest.mark.parametrize("lam", [30, 100003])
def test_member_parallel_transforms_keep_the_bits(monkeypatch, lam):
    workers, map_in_order = [], correlation._map_in_order

    def spy(fn, items, count):
        workers.append(count)
        return map_in_order(fn, items, count)

    for name, sset, ks, shifts, points in _grid_cases(random.Random(7000 + lam), lam):
        monkeypatch.setattr(correlation, "_CHUNK_POINTS", points)
        serial = correlation._lift_sums(sset, ks, shifts)
        with monkeypatch.context() as m:
            m.setattr(correlation, "_PARALLEL_POINTS", 0)
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            m.setattr(correlation, "_map_in_order", spy)
            assert np.array_equal(correlation._lift_sums(sset, ks, shifts), serial), name
        assert workers and set(workers) == {2}, name
        workers.clear()


def test_member_map_under_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond: two calls
    # sharing a slot's buffers, or a result read after its slot was refilled,
    # would change the sums
    sset = _random_set(random.Random(8000), 30, 9, 97)
    ks, shifts = correlation._conjugate_ks(30), range(1, 97)
    serial = correlation._lift_sums(sset, ks, shifts)
    monkeypatch.setattr(correlation, "_CHUNK_POINTS", 1)
    monkeypatch.setattr(correlation, "_PARALLEL_POINTS", 0)
    monkeypatch.setattr(correlation, "_MAX_WORKERS", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert correlation._chunk_plan(9, 1, 196) == (range(9), 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert np.array_equal(correlation._lift_sums(sset, ks, shifts), serial)
    finally:
        sys.setswitchinterval(interval)


def test_only_sets_past_the_threshold_take_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # sb-b of the sparse-band benchmark: M = 3, L = 3^12 at the multiples of
    # S = 3^9, 3 * 19683 * 54 = 3.2M transform points
    g, n = correlation._lag_plan(3**12, range(3**9, 3**12, 3**9))[1:]
    assert 3 * g * n < correlation._PARALLEL_POINTS
    assert correlation._chunk_plan(3, g, n) == (range(0, 3), 1)
    # the M = 30, lambda = 30, L = 972000 GCS near the length cap: 58.3M points
    g, n = correlation._lag_plan(972000, range(1, 972000))[1:]
    assert correlation._chunk_plan(30, g, n) == (range(0, 30), 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert correlation._chunk_plan(30, g, n) == (range(0, 30), 1)
    # more CPUs take no more than the 2 workers measured at the cap
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert correlation._chunk_plan(30, g, n) == (range(0, 30), 2)
    # where the OS has no affinity call, every CPU counts (and none known is one)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert correlation._chunk_plan(30, g, n) == (range(0, 30), 2)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert correlation._chunk_plan(30, g, n) == (range(0, 30), 1)


def test_lift_sums_peak_memory_on_a_stride_plan():
    # sb-b's plan: one member per chunk, a (19683, 54) complex grid; the
    # square buffer, the power sum and one member's lift add half a grid each
    M, L, S = 3, 3**12, 3**9
    phases = np.random.default_rng(8).integers(0, 6, (M, L))
    phases.flags.writeable = False
    sset = SequenceSet.from_phases(6, phases)
    shifts = range(S, L, S)
    _, g, n = correlation._lag_plan(L, shifts)
    tracemalloc.start()
    try:
        correlation._lift_sums(sset, (1,), shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * g * n * 16


def _planned_shift_sets(rng, L):
    """Shift sets that exercise each branch of _lag_plan, by name."""
    S = next(s for s in range(max(2, L // 7), L) if L % s)
    return {
        "mscs-stride": range(S, L, S),
        # tau = L - 1 would leave the lag 1 after the window cut, so g = 1
        "one-shift-past-half": [L // 2 + 1 + rng.randrange(L - L // 2 - 2)],
        "zcs-windowed": range(L - 9, L),
        "zcs-whole": range(L // 2 - 1, L),
        "arbitrary": [rng.randrange(L) for _ in range(12)] + [0, 5, 5],
    }


@pytest.mark.parametrize("lam", [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 25, 30])
def test_kernels_match_the_oracle_on_planned_shifts(lam):
    rng = random.Random(4000 + lam)
    for L in (40, 81, 97):
        sset = _random_set(rng, lam, rng.randint(1, 4), L)
        for name, shifts in _planned_shift_sets(rng, L).items():
            drop, g, n = correlation._lag_plan(L, shifts)
            assert (drop > 0) == (name in ("one-shift-past-half", "zcs-windowed")), name
            assert (g > 1) == (name in ("mscs-stride", "one-shift-past-half")), name
            _, zeros = _check_conjugates(sset, shifts)
            if isinstance(shifts, range):
                assert correlation._verify(sset, shifts, "GCS", None).zeros.tolist() \
                    == zeros.tolist(), name


def test_plan_comes_from_the_sizes_alone():
    tracemalloc.start()
    try:
        plans = [
            correlation._lag_plan(531441, range(3**9, 531441, 3**9)),
            correlation._lag_plan(177147, range(3**7, 177147, 3**7)),
            correlation._lag_plan(177147, range(177147 - 23, 177147)),
            correlation._lag_plan(531441, range(1, 531441)),
            correlation._lag_plan(3**19, range(1, 3**19)),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    sb_b, sb_a, sb_zcs, gcs, huge = plans
    assert sb_b == (0, 19683, 54)
    assert sb_a == (0, 2187, 162)
    # head || tail of 23 entries each, lags 23..45
    assert sb_zcs == (177147 - 46, 1, 96)
    assert gcs == (0, 1, correlation._fft_length(531441))
    assert huge == (0, 1, correlation._fft_length(3**19))
    assert correlation._lag_plan(10, []) == (0, 1, correlation._fft_length(10))
    assert correlation._lag_plan(10, [0, 0]) == (0, 1, correlation._fft_length(10))


def test_row_plans_stay_under_the_whole_sequence_bound():
    # what _embedding_bound proves: 24 log2(n') + ceil(log2 g) <= 24 log2(n)
    # for every stride g >= 2 with at least two entries per row
    fft = np.array([0] + [correlation._fft_length(q) for q in range(1, 3000)], dtype=float)
    for L in range(3, 3000):
        g = np.arange(2, L)
        rows = -(-L // g)
        slack = 24 * np.log2(fft[L]) - 24 * np.log2(fft[rows]) - np.ceil(np.log2(g))
        assert slack.min() >= 0, L


def _seeded_gcs(lam, blocks):
    """The GCS that `mscs generate --params ... --seed 1` builds from these blocks."""
    params = {"lambda": lam, "blocks": [{"p": p, "m": m} for p, m in blocks]}
    return _build_from_params(params, random.Random(1))


def test_large_modulus_gcs_passes_numerically():
    # M = 2310, L = 13860: float sums reach 2.1e-9 at the zeros, which the
    # proven 9.7e-6 bound covers; a fixed 1e-9 threshold failed six shifts
    sset = _seeded_gcs(2310, [(2, 2), (3, 2), (5, 1), (7, 1), (11, 1)])
    assert (len(sset), sset.length) == (2310, 13860)
    report = verify_gcs(sset)
    assert report.mode == "numerical" and report.passed
    assert report.magnitudes.max() > 1e-9
    flipped = verify_gcs(_flipped(sset))
    assert len(flipped.failing_shifts) == sset.length - 1
    bound = correlation._embedding_bound(len(sset), sset.length)
    assert flipped.magnitudes.min() > 100 * bound


def test_float_sums_at_exact_zeros_pass_within_the_bound(monkeypatch):
    # M = 210, L = 105840: the k = 1 sum at shift 30240 is 1.15e-9, past a
    # fixed 1e-9 threshold and far inside the proven 1.7e-6 bound
    sset = _seeded_gcs(210, [(2, 4), (3, 3), (5, 1), (7, 2)])
    assert (len(sset), sset.length) == (210, 105840)
    shifts = range(1, sset.length)
    floats = correlation._lift_sums(sset, (1,), shifts)
    assert abs(floats[0, 30240 - 1]) > 1e-9
    bound = correlation._embedding_bound(len(sset), sset.length)
    assert bound > 1e-6
    # every exact value of a GCS is zero, so each of the 24 conjugates is
    # within B of 0; the k = 1 row stands for them here, and all pass
    assert len(correlation._conjugate_ks(210)) == 24
    monkeypatch.setattr(correlation, "_lift_sums", lambda sset, ks, shifts: floats.copy())
    report = verify_gcs(sset)
    assert report.mode == "exact" and report.passed
    assert np.array_equal(report.magnitudes, np.abs(floats[0]))
    # the same sum moved between B and 1 - B raises
    floats[0, 30240 - 1] = 0.25
    with pytest.raises(RuntimeError, match="at shift 30240 lies between the bound"):
        verify_gcs(sset)
