import importlib
import random

import numpy as np
import pytest

from mscs.constructions import (
    PrimeBlock,
    length_extended_mscs,
    multi_prime_mscs,
    random_block,
    single_prime_mscs,
)
from mscs.pmepr import (
    DEFAULT_OVERSAMPLING,
    MAX_GRID,
    _family_energy,
    energy_identity_check,
    envelope,
    grid_points,
    iapr_curve,
    iapr_error_bound,
    modulated_family,
    pmepr,
    pmepr_set,
)
from mscs.reference_sets import mscs_3_27_3, mscs_3_54_2
from mscs.seqcore import MAX_LENGTH, PhaseSequence, SequenceSet, to_complex


def test_envelope_zero_phase_peak():
    s = PhaseSequence(4, [0] * 8)
    samples = envelope(s, oversampling=4)
    assert samples.shape == (32,)
    # all carriers aligned at u=0
    assert abs(samples[0] - 8) < 1e-9


def test_envelope_single_carrier():
    s = PhaseSequence(3, [1])
    samples = envelope(s, oversampling=8)
    assert np.allclose(np.abs(samples), 1.0, atol=1e-12)


def test_envelope_matches_direct_sum():
    rng = random.Random(5)
    s = PhaseSequence(6, [rng.randrange(6) for _ in range(12)])
    samples = envelope(s, oversampling=4)
    c = np.exp(2j * np.pi * np.asarray(s.values) / 6)
    k = np.arange(12)
    for j in (0, 1, 7, 33, 47):
        # sample j sits at u = j/(N_os*L)
        direct = np.sum(c * np.exp(2j * np.pi * k * j / 48))
        assert abs(samples[j] - direct) < 1e-9


def test_iapr_properties():
    rng = random.Random(6)
    s = PhaseSequence(8, [rng.randrange(8) for _ in range(16)])
    samples = envelope(s, oversampling=16)
    curve = iapr_curve(s, oversampling=16)
    assert curve.shape == samples.shape
    assert np.allclose(curve, np.abs(samples) ** 2 / 16, atol=1e-12)
    assert (curve >= 0).all()
    # Parseval: the oversampled grid averages instantaneous power to L exactly
    assert abs(curve.mean() - 1.0) < 1e-9


@pytest.mark.parametrize("oversampling", [1, 3, 64])
def test_iapr_curve_is_the_envelope_power_bit_for_bit(oversampling):
    # the IAPR CSV bytes and the printed PMEPRs rest on these exact values
    members = [s for sset, _ in (p.values for p in _energy_sets()) for s in sset.sequences]
    members += list(mscs_3_54_2().sequences) + [PhaseSequence(2, [1])]
    for x in members:
        reference = np.abs(envelope(x, oversampling)) ** 2 / len(x)
        assert np.array_equal(iapr_curve(x, oversampling), reference)


@pytest.mark.parametrize("L, oversampling", [(1, 1), (1, 64), (2, 3), (27, 4), (54, 16),
                                               (100, 7), (729, 64), (2, 5000), (7, 1)])
def test_iapr_curve_matches_the_zero_padded_transform_within_the_rounding_bound(L, oversampling):
    rng = random.Random(1000 * L + oversampling)
    x = PhaseSequence(30, [rng.randrange(30) for _ in range(L)])
    c = to_complex(x)
    n = L * oversampling
    curve = iapr_curve(x, oversampling)
    bound = iapr_error_bound(L, oversampling)
    padded = np.zeros(n, dtype=complex)
    padded[:L] = c
    reference = np.abs(n * np.fft.ifft(padded))
    np.square(reference, out=reference)
    reference /= L
    # both lie within the bound of the exact curve: the padded transform's
    # bound has N_os's radix passes in place of the twiddle term, never more
    assert np.max(np.abs(curve - reference)) <= 2 * bound
    if L <= 100:
        # direct sums at u_j = j/n, in grid order j = q*N_os + r; with the
        # exponents reduced mod n each term is within 24u of its root, and the
        # sum of L terms adds at most (L - 1)u*L, so |P| errs by L(L + 24)u
        j, i = np.arange(n)[:, None], np.arange(L)
        direct = np.abs(np.exp(2j * np.pi * (j * i % n) / n) @ c) ** 2 / L
        assert np.max(np.abs(curve - direct)) <= bound + 3 * L * (L + 24) * 2.0**-53


def test_pmepr_constant_sequence():
    s = PhaseSequence(2, [0] * 16)
    assert abs(pmepr(s, oversampling=8) - 16) < 1e-9


def test_pmepr_single_carrier_is_one():
    assert abs(pmepr(PhaseSequence(5, [3]), oversampling=4) - 1.0) < 1e-12


def test_pmepr_grid_nesting_monotone():
    rng = random.Random(7)
    s = PhaseSequence(6, [rng.randrange(6) for _ in range(20)])
    previous = 0.0
    for n_os in (1, 2, 4, 8, 16, 32, 64):
        value = pmepr(s, oversampling=n_os)
        assert value >= previous - 1e-12
        previous = value


def test_pmepr_reference_values():
    sset = mscs_3_54_2()
    curves = []
    ext = pmepr_set(sset, 2, curves=curves)
    assert ext.bound == 6.0
    assert ext.bound_satisfied
    assert abs(ext.set_pmepr - 5.946029) < 1e-5
    assert abs(ext.set_pmepr - 5.9465) < 0.05
    assert len(ext.per_sequence) == 3
    assert max(ext.per_sequence) == ext.set_pmepr
    # the sink gets each member's curve, bit for bit and in member order,
    # and a member's PMEPR is its curve's maximum
    assert len(curves) == len(sset)
    for x, curve, value in zip(sset.sequences, curves, ext.per_sequence):
        assert curve.tobytes() == iapr_curve(x).tobytes()
        assert float(np.max(curve)) == value
    assert pmepr_set(sset, 2) == ext

    base = pmepr_set(mscs_3_27_3(), 3)
    assert base.bound == 9.0
    assert base.bound_satisfied
    assert abs(base.set_pmepr - 5.754408) < 1e-5
    assert base.oversampling == DEFAULT_OVERSAMPLING

    # a claim with no M*S bound is measured with none
    unbounded = pmepr_set(mscs_3_27_3(), None)
    assert unbounded.bound is None and unbounded.bound_satisfied is None
    assert unbounded.per_sequence == base.per_sequence


def test_pmepr_set_validation():
    sset = mscs_3_27_3()
    for call in (lambda: pmepr_set(sset, 0), lambda: energy_identity_check(sset, 0),
                 lambda: modulated_family(sset.sequences[0], 0)):
        with pytest.raises(ValueError, match="^S=0 must be >= 1$"):
            call()
    with pytest.raises(ValueError):
        pmepr_set(mscs_3_27_3(), 3, oversampling=0)


def test_modulated_family_shapes():
    s = PhaseSequence(6, [0, 1, 2, 3])
    fam = modulated_family(s, 3)
    assert len(fam) == 3
    base = np.exp(2j * np.pi * np.asarray(s.values) / 6)
    assert np.allclose(fam[0], base, atol=1e-12)
    for member in fam:
        assert np.allclose(np.abs(member), 1.0, atol=1e-12)
    zeta = np.exp(2j * np.pi / 3)
    k = np.arange(4)
    assert np.allclose(fam[2], base * zeta ** (2 * k), atol=1e-12)


def test_modulated_family_trivial_stride():
    s = PhaseSequence(4, [0, 3, 1])
    fam = modulated_family(s, 1)
    assert len(fam) == 1
    assert np.allclose(fam[0], np.exp(2j * np.pi * np.asarray(s.values) / 4))


def test_energy_identity_reference_sets():
    assert energy_identity_check(mscs_3_27_3(), 3, oversampling=8) < 1e-9
    assert energy_identity_check(mscs_3_54_2(), 2, oversampling=8) < 1e-9


def test_energy_identity_detects_tampering():
    sset = mscs_3_27_3()
    values = np.array(sset.sequences[0].values, dtype=np.int64)
    values[5] = (values[5] + 1) % 6
    tampered = SequenceSet(
        [PhaseSequence(6, values)] + list(sset.sequences[1:]), dict(sset.metadata)
    )
    # flipping one entry breaks the flat-power sum across the modulated family
    assert energy_identity_check(tampered, 3, oversampling=8) > 1e-6
    # S = 3 divides the 216-point grid: the check ran on the folded sum
    assert _family_energy(tampered, 3, oversampling=8).shape == (8 * 27 // 3,)


def _direct_family_energy(sset, S, oversampling):
    """Sum of |P|^2 over each member's S companions, one FFT per companion."""
    n = oversampling * sset.length
    total = np.zeros(n)
    for s in sset.sequences:
        for c in modulated_family(s, S):
            padded = np.zeros(n, dtype=complex)
            padded[:len(c)] = c
            total += np.abs(n * np.fft.ifft(padded)) ** 2
    return total


def _energy_sets():
    rng = random.Random(41)
    single = single_prime_mscs(random_block(rng, 3, 3, 2, 6), 6)
    multi = multi_prime_mscs([random_block(rng, 2, 3, 3, 6), random_block(rng, 3, 2, 2, 6)], 6)
    extended = length_extended_mscs([random_block(rng, 3, 2, 1, 6)], 2, 6, 5, 1)
    return [pytest.param(single, 3, id="single-prime"),
            pytest.param(multi, 12, id="multi-prime"),
            pytest.param(extended, 2, id="length-extended")]


@pytest.mark.parametrize("sset, S", _energy_sets())
@pytest.mark.parametrize("oversampling", [1, 4])
def test_energy_fold_matches_direct_sum(sset, S, oversampling):
    n = oversampling * sset.length
    assert n % S == 0
    folded = _family_energy(sset, S, oversampling)
    assert folded.shape == (n // S,)
    direct = _direct_family_energy(sset, S, oversampling)
    target = len(sset) * sset.length * S
    assert np.max(np.abs(np.tile(folded, S) - direct)) <= 1e-12 * target
    assert energy_identity_check(sset, S, oversampling) < 1e-9


def test_energy_identity_direct_path_when_S_does_not_divide_grid():
    # a Golay pair (L = 4) is an MSCS for every S; S = 3 does not divide 1 * 4
    sset = single_prime_mscs(PrimeBlock(p=2, m=2), 2)
    total = _family_energy(sset, 3, oversampling=1)
    assert total.shape == (4,)
    assert np.allclose(total, _direct_family_energy(sset, 3, 1), rtol=0, atol=1e-12 * 24)
    assert energy_identity_check(sset, 3, oversampling=1) < 1e-9
    assert energy_identity_check(sset, 3, oversampling=2) < 1e-9


@pytest.mark.parametrize("lam", [2, 6, 1009])
def test_energy_from_the_set_autocorrelation_matches_the_companion_envelopes(lam):
    # random sets are not complementary, so every lag S, 2S, ... < L counts;
    # N_os = 1 aliases lags past m/2, S = L - 1, L and L + 2 leave one or none
    rng = np.random.default_rng(lam)
    for M, L in ((1, 1), (2, 5), (3, 12), (2, 17)):
        sset = SequenceSet([PhaseSequence(lam, row) for row in rng.integers(0, lam, (M, L))])
        for S in sorted({1, 2, 3, max(L - 1, 1), L, L + 2}):
            for oversampling in (1, 2, 3, 4):
                n = oversampling * L
                total = _family_energy(sset, S, oversampling)
                assert total.shape == ((n // S,) if n % S == 0 else (n,))
                direct = _direct_family_energy(sset, S, oversampling)
                target = M * L * S
                assert np.max(np.abs(np.tile(total, n // len(total)) - direct)) \
                    <= 1e-12 * target, (M, L, S, oversampling)
                if L <= S:
                    assert np.max(np.abs(total - target)) <= 1e-12 * target


def test_energy_identity_needs_no_envelope(monkeypatch):
    def refuse(c, oversampling):
        raise AssertionError("envelope computed")

    # the package attribute mscs.pmepr is the function, so reach the module by name;
    # every envelope grid is computed by _residue_rows
    module = importlib.import_module("mscs.pmepr")
    for name in ("_complex_envelope", "_residue_rows"):
        monkeypatch.setattr(module, name, refuse)
    assert energy_identity_check(mscs_3_27_3(), 3, oversampling=8) < 1e-9
    assert energy_identity_check(mscs_3_54_2(), 2, oversampling=5) < 1e-9


def test_grid_cap():
    assert MAX_GRID == DEFAULT_OVERSAMPLING * MAX_LENGTH
    assert grid_points(DEFAULT_OVERSAMPLING, MAX_LENGTH) == MAX_GRID
    assert grid_points(4, 531441) == 4 * 531441
    with pytest.raises(ValueError, match="exceeds capacity limit"):
        grid_points(DEFAULT_OVERSAMPLING, MAX_LENGTH + 1)
    with pytest.raises(ValueError, match="must be >= 1"):
        grid_points(0, 8)
    with pytest.raises(ValueError, match="length 0 must be >= 1"):
        grid_points(4, 0)
    # the envelope checks the cap before it allocates its grid
    with pytest.raises(ValueError, match="exceeds capacity limit"):
        iapr_curve(PhaseSequence(2, [0, 1]), MAX_GRID)


def test_bound_holds_for_random_draws():
    rng = random.Random(9)
    for _ in range(10):
        p = rng.choice((2, 3, 5))
        m = rng.randint(1, 3)
        s = rng.randint(1, m)
        lam = p * rng.choice((1, 2))
        block = random_block(rng, p, m, s, lam)
        sset = single_prime_mscs(block, lam)
        S = p ** (s - 1)
        for n_os in (4, 16):
            report = pmepr_set(sset, S, oversampling=n_os)
            assert report.bound_satisfied
            assert report.set_pmepr <= p * S + 1e-9


def test_pmepr_bound_binary_pair():
    sset = single_prime_mscs(PrimeBlock(p=2, m=3), 2)
    report = pmepr_set(sset, 1)
    assert report.bound == 2.0
    assert report.set_pmepr <= 2.0 + 1e-9
