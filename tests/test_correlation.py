import dataclasses
import math
import random
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
    CyclotomicSum,
    ShiftCheck,
    ShiftChecks,
    aacf_set_sum,
    accf_exact,
    accf_float,
    cyclotomic_polynomial,
    is_zero,
    kronecker_accf_identity_check,
    verify_gcs,
    verify_mscs,
    verify_type2_zcs,
)
from mscs.reference_sets import mscs_3_27_3, mscs_3_54_2
from mscs.seqcore import MAX_LENGTH, PhaseSequence, SequenceSet


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


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
    counts = np.zeros(6, dtype=int)
    counts[[0, 2, 4]] = 1
    assert is_zero(CyclotomicSum(6, counts))
    counts = np.zeros(6, dtype=int)
    counts[[1, 4]] = 1
    assert is_zero(CyclotomicSum(6, counts))
    counts = np.zeros(6, dtype=int)
    counts[3] = 2
    assert not is_zero(CyclotomicSum(6, counts))
    assert is_zero(CyclotomicSum.zero(9))


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

    counts = np.zeros(lam, dtype=int)
    for j, c in enumerate(raw[:lam]):
        counts[j] = c
    phi = np.zeros(lam, dtype=int)
    phi[: len(cyclotomic_polynomial(lam))] = cyclotomic_polynomial(lam)
    q = np.zeros(lam, dtype=int)
    for j, c in enumerate(multiplier[:lam]):
        q[j] = c
    s = CyclotomicSum(lam, counts) + CyclotomicSum(lam, q) * CyclotomicSum(lam, phi)
    counts = s.counts
    with mpmath.workdps(50):
        value = mpmath.fsum(
            int(counts[j]) * mpmath.e ** (2j * mpmath.pi * j / lam) for j in range(lam)
        )
        numerically_zero = abs(value) < mpmath.mpf("1e-30")
    assert is_zero(s) == numerically_zero


def test_cyclotomic_sum_algebra():
    rng = random.Random(8)
    lam = 12
    a = CyclotomicSum(lam, [rng.randint(-5, 5) for _ in range(lam)])
    b = CyclotomicSum(lam, [rng.randint(-5, 5) for _ in range(lam)])
    assert abs((a + b).value() - (a.value() + b.value())) < 1e-9
    assert abs((a - b).value() - (a.value() - b.value())) < 1e-9
    assert abs((-a).value() + a.value()) < 1e-12
    assert abs((a * b).value() - a.value() * b.value()) < 1e-9
    assert abs(a.conjugate().value() - np.conj(a.value())) < 1e-12


def test_cyclotomic_sum_product_of_monomials():
    lam = 5
    xa = np.zeros(lam, dtype=int)
    xa[3] = 1
    xb = np.zeros(lam, dtype=int)
    xb[4] = 1
    prod = CyclotomicSum(lam, xa) * CyclotomicSum(lam, xb)
    expected = np.zeros(lam, dtype=int)
    expected[(3 + 4) % lam] = 1
    assert list(prod.counts) == list(expected)


def test_cyclotomic_sum_validation():
    with pytest.raises(ValueError):
        CyclotomicSum(0, [])
    with pytest.raises(ValueError):
        CyclotomicSum(3, [1, 2])
    a = CyclotomicSum(3, [1, 0, 0])
    with pytest.raises(ValueError):
        a + CyclotomicSum(4, [0, 0, 0, 0])
    with pytest.raises(TypeError):
        a + 1


def test_accf_exact_zero_shift():
    s = PhaseSequence(4, [0, 1, 3, 2, 2])
    out = accf_exact(s, s, 0)
    assert out.counts[0] == 5
    assert not out.counts[1:].any()


def test_accf_exact_small_example():
    # (0,0,0,1) over Z_2 at shift 1: differences (0,0,1), value 2-1 = 1
    s = PhaseSequence(2, [0, 0, 0, 1])
    out = accf_exact(s, s, 1)
    assert list(out.counts) == [2, 1]
    assert abs(out.value() - 1) < 1e-12


def test_accf_exact_counts_total():
    rng = random.Random(21)
    a = PhaseSequence(6, [rng.randrange(6) for _ in range(17)])
    b = PhaseSequence(6, [rng.randrange(6) for _ in range(17)])
    for tau in range(-16, 17):
        assert accf_exact(a, b, tau).counts.sum() == 17 - abs(tau)


def test_accf_conjugate_symmetry():
    rng = random.Random(22)
    a = PhaseSequence(8, [rng.randrange(8) for _ in range(12)])
    b = PhaseSequence(8, [rng.randrange(8) for _ in range(12)])
    for tau in range(1, 12):
        back = accf_exact(a, b, -tau)
        fwd = accf_exact(b, a, tau)
        assert back == fwd.conjugate()


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
    assert abs(accf_exact(a, b, tau).value() - want) < 1e-9
    assert abs(accf_float(a, b, tau) - want) < 1e-9


def test_accf_float_agrees_with_exact_long():
    rng = random.Random(23)
    lam = 10
    a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(1000)])
    for tau in (0, 1, 7, 500, -999):
        assert abs(accf_float(a, a, tau) - accf_exact(a, a, tau).value()) < 1e-9


def test_accf_float_complementary_pair():
    a = PhaseSequence(2, [0, 0, 0, 1])
    b = PhaseSequence(2, [0, 0, 1, 0])
    for tau in (1, 2, 3):
        total = accf_float(a, a, tau) + accf_float(b, b, tau)
        assert abs(total) < 1e-12


def test_aacf_set_sum_zero_shift():
    sset = mscs_3_27_3()
    out = aacf_set_sum(sset, 0)
    assert out.counts[0] == 3 * 27
    assert not out.counts[1:].any()


def test_aacf_set_sum_examples():
    sset = mscs_3_27_3()
    assert is_zero(aacf_set_sum(sset, 3))
    at_one = aacf_set_sum(sset, 1)
    # regression constant, cross-checked against the naive complex sum
    assert list(at_one.counts) == [62, 0, 8, 0, 8, 0]
    assert abs(at_one.value() - naive_set_aacf(sset, 1)) < 1e-9
    assert abs(at_one.value() - 54) < 1e-9
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
        assert np.array_equal(aacf_set_sum(sset, tau).counts, want), tau


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
            assert np.array_equal(aacf_set_sum(sset, tau).counts,
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
    assert [c.shift for c in report.shifts] == [3, 6, 9, 12, 15, 18, 21, 24]
    assert report.failing_shifts == ()


def test_verify_mscs_singleton_fails():
    sset = SequenceSet([PhaseSequence(2, [0, 0])])
    report = verify_mscs(sset, 1)
    assert not report.passed
    assert report.failing_shifts == (1,)
    assert report.shifts[0].magnitude > 0.5


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
    assert [c.shift for c in report.shifts] == list(range(4, 27))
    # Z=1 leaves an empty open window (26, 27), so the check is vacuous
    narrow = verify_type2_zcs(sset, 1)
    assert narrow.shifts == ()
    assert narrow.passed
    two = verify_type2_zcs(sset, 2)
    assert [c.shift for c in two.shifts] == [26]
    rng = random.Random(17)
    noise = SequenceSet(
        [PhaseSequence(4, [rng.randrange(4) for _ in range(16)]) for _ in range(2)]
    )
    bad = verify_type2_zcs(noise, 10)
    assert not bad.passed
    assert len(bad.failing_shifts) > 0


def count_shift_checks(monkeypatch) -> list:
    """Record every ShiftCheck the correlation module builds from now on."""
    built = []

    def counted(*args):
        built.append(args)
        return ShiftCheck(*args)

    monkeypatch.setattr(correlation, "ShiftCheck", counted)
    return built


def test_report_verdicts_are_read_without_building_checks(monkeypatch):
    rng = random.Random(23)
    sset = SequenceSet([PhaseSequence(6, [rng.randrange(6) for _ in range(200)])
                        for _ in range(3)])
    failing = tuple(t for t in range(1, 200) if not is_zero(aacf_set_sum(sset, t)))
    assert len(failing) > 100
    built = count_shift_checks(monkeypatch)
    report = verify_gcs(sset)
    assert len(report.shifts) == 199 and report.shifts
    assert not report.passed and report.failing_shifts == failing
    assert all(type(t) is int for t in report.failing_shifts)
    strided = verify_mscs(sset, 7)
    assert strided.failing_shifts == tuple(t for t in failing if t % 7 == 0)
    assert built == []
    assert report.shifts[5].shift == 6 and len(built) == 1


def test_report_checks_behave_as_the_tuple_of_checks():
    sset = mscs_3_27_3()
    report = verify_gcs(sset)
    checks = tuple(report.shifts)
    assert [(c.shift, c.exact_zero) for c in checks] == [
        (t, is_zero(aacf_set_sum(sset, t))) for t in range(1, 27)]
    assert all(type(c.shift) is int and type(c.exact_zero) is bool and type(c.magnitude) is float
               for c in checks)
    for i in range(-26, 26):
        assert report.shifts[i] == checks[i]
    for index in (26, -27):
        with pytest.raises(IndexError):
            report.shifts[index]
    for cut in (slice(None), slice(3, 9), slice(-4, None), slice(None, None, -3), slice(30, 40)):
        assert report.shifts[cut] == checks[cut]
        assert type(report.shifts[cut]) is tuple
    assert list(reversed(report.shifts)) == list(reversed(checks))
    assert report.shifts == checks and checks == report.shifts and report.shifts != list(checks)
    assert hash(report.shifts) == hash(checks)
    empty = dataclasses.replace(report, shifts=ShiftChecks([], [], []))
    assert empty.passed and empty.failing_shifts == () and empty.shifts == ()
    assert report == verify_gcs(sset) and report != empty
    assert verify_type2_zcs(sset, 1).shifts == ()
    assert report.shifts != () and () != report.shifts
    nudged = report.shifts.magnitudes.copy()
    nudged[4] = np.nextafter(nudged[4], np.inf)
    moved = ShiftChecks(report.shifts.tested, report.shifts.zeros.copy(), nudged)
    assert dataclasses.replace(report, shifts=moved) != report
    flags = report.shifts.zeros.copy()
    flags[0] = True
    flipped = ShiftChecks(report.shifts.tested, flags, report.shifts.magnitudes.copy())
    assert dataclasses.replace(report, shifts=flipped) != report
    with pytest.raises(ValueError):
        report.shifts.zeros[0] = True
    with pytest.raises(ValueError):
        report.shifts.magnitudes[0] = 0.0
    with pytest.raises(ValueError):
        report.shifts.tested[0] = 0
    assert nudged.flags.writeable and flags.flags.writeable


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
        zero_at = next(c.shift for c in report.shifts if c.exact_zero)
        nonzero_at = next(c.shift for c in report.shifts if not c.exact_zero)
        # one conjugate of a zero moved between B and 1 - B raises; within B it passes
        _move_sums(monkeypatch, lambda v: v + 0.25, zero_at, rows=-1)
        with pytest.raises(RuntimeError, match=f"at shift {zero_at} lies between the bound"):
            verify_gcs(sset)
        monkeypatch.undo()
        _move_sums(monkeypatch, lambda v: v + bound / 2, zero_at, rows=-1)
        assert verify_gcs(sset).shifts.zeros.tolist() == report.shifts.zeros.tolist()
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
    assert abs(accf_float(composed, composed, 0) - 20) < 1e-9


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
    # composed length 10^6: the float sides differ by about 1e-9, above the
    # fixed 1e-9 tolerance this check once used, far inside their error bound
    rng = random.Random(1)
    a = PhaseSequence(6, [rng.randrange(6) for _ in range(1000)])
    b = PhaseSequence(6, [rng.randrange(6) for _ in range(1000)])
    assert kronecker_accf_identity_check(a, b, 2)


def test_kronecker_identity_float_half_catches_a_perturbation(monkeypatch):
    # factors of 2..4 entries: the composed sequence, of at most 16, is longer
    # than either, and only its correlation is moved by 1e-6
    rng = random.Random(34)
    cases = []
    for _ in range(10):
        lam = rng.randint(2, 12)
        a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(2, 4))])
        b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(2, 4))])
        cases += [(a, b, tau) for tau in range(1 - len(a) * len(b), len(a) * len(b))]
    assert all(kronecker_accf_identity_check(a, b, tau) for a, b, tau in cases)
    inner, composed = correlation.accf_float, {}

    def perturbed(x, y, tau):
        return inner(x, y, tau) + (1e-6 if len(x) == composed["length"] else 0)

    monkeypatch.setattr(correlation, "accf_float", perturbed)
    for a, b, tau in cases:
        composed["length"] = len(a) * len(b)
        assert not kronecker_accf_identity_check(a, b, tau)


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
    checks = report.shifts
    oracle = [is_zero(aacf_set_sum(sset, t)) for t in checks.tested.tolist()]
    assert report == dataclasses.replace(
        report, shifts=ShiftChecks(checks.tested, oracle, checks.magnitudes))
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
    for L in (27, 729, 900, 1458, 1800, 19683, 177147, 531441):
        assert correlation._fft_length(L) == 2 * L


def _check_conjugates(sset, shifts):
    """Check the embedding sums at these shifts against the exact conjugates.

    Row k of :func:`_lift_sums` must lie within B = ``_embedding_bound`` of
    sum_j counts_j w^(kj), with the counts from :func:`aacf_set_sum`,
    evaluated in mpmath at 30 digits; the rule max_k |E'_k| <= B must give
    the :func:`is_zero` verdict of those counts.  There are phi(lambda)/2
    embeddings (one for lambda = 2).  Returns the largest |E'_k - sigma_k|,
    and the verdicts.
    """
    import mpmath

    lam = sset.modulus
    ks = correlation._conjugate_ks(lam)
    assert len(ks) == max(1, (len(cyclotomic_polynomial(lam)) - 1) // 2)
    sums = correlation._lift_sums(sset, ks, shifts)
    counts = np.array([aacf_set_sum(sset, t).counts for t in shifts]).reshape(len(shifts), lam)
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
        assert report.shifts.zeros.tolist() == zeros[1:].tolist()
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
    assert report.shifts.zeros[np.array(sample) - 1].tolist() == zeros.tolist()
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


@pytest.mark.parametrize("case", ["3-27-3", "3-54-2", "gcs30", "gcs30-mscs", "gcs30-zcs",
                                  "3-54-2-mscs", "random30-past-half"])
def test_residual_within_bound(case):
    # every shift, then strided and windowed plans under the same bound
    sset, shifts = {
        "3-27-3": lambda: (mscs_3_27_3(), range(27)),
        "3-54-2": lambda: (mscs_3_54_2(), range(54)),
        "gcs30": lambda: (_gcs30(), range(180)),
        "gcs30-mscs": lambda: (_gcs30(), range(36, 180, 36)),
        "gcs30-zcs": lambda: (_gcs30(), range(180 - 40, 180)),
        "3-54-2-mscs": lambda: (mscs_3_54_2(), range(2, 54, 2)),
        "random30-past-half": lambda: (_random_set(random.Random(30), 30, 4, 1000), [700, 910]),
    }[case]()
    planned = case not in ("3-27-3", "3-54-2", "gcs30")
    assert (correlation._lag_plan(sset.length, shifts)[:2] != (0, 1)) == planned
    error, zeros = _check_conjugates(sset, shifts)
    assert 0 < error <= correlation._embedding_bound(len(sset), sset.length) < 1e-6
    # sets with both zero and nonzero shifts, with zeros only and with nonzeros only
    assert int(zeros.sum()) == {"3-27-3": 24, "3-54-2": 52, "gcs30": 179, "gcs30-mscs": 4,
                                "gcs30-zcs": 40, "3-54-2-mscs": 26,
                                "random30-past-half": 0}[case]


def test_is_zero_batches_and_overflow_guard():
    sset = mscs_3_27_3()
    counts = np.array([aacf_set_sum(sset, t).counts for t in range(1, 27)])
    flags = is_zero(counts)
    assert flags.dtype == bool and flags.shape == (26,)
    assert list(flags) == [is_zero(aacf_set_sum(sset, t)) for t in range(1, 27)]
    assert is_zero(np.zeros((0, 6), dtype=np.int64)).shape == (0,)
    # 2^61 (1 + w^2 + w^4) = 0 at lambda = 6, past the int64 guard
    big = 2**61
    assert is_zero(CyclotomicSum(6, [big, 0, big, 0, big, 0]))
    assert not is_zero(CyclotomicSum(6, [big, 0, big, 0, big - 1, 0]))


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


@pytest.mark.parametrize("lam", [2, 6, 30, 1009])
def test_whole_sequence_plans_keep_the_lifts_bit_for_bit(lam):
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
                assert correlation._verify(sset, shifts, "GCS", None).shifts.zeros.tolist() \
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
    assert max(c.magnitude for c in report.shifts) > 1e-9
    flipped = verify_gcs(_flipped(sset))
    assert len(flipped.failing_shifts) == sset.length - 1
    bound = correlation._embedding_bound(len(sset), sset.length)
    assert min(c.magnitude for c in flipped.shifts) > 100 * bound


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
    assert np.array_equal(report.shifts.magnitudes, np.abs(floats[0]))
    # the same sum moved between B and 1 - B raises
    floats[0, 30240 - 1] = 0.25
    with pytest.raises(RuntimeError, match="at shift 30240 lies between the bound"):
        verify_gcs(sset)
