import random
import tracemalloc

import numpy as np
import pytest

import mscs.constructions
from conftest import lift, naive_rho, naive_set_aacf
from mscs.constructions import (
    PrimeBlock,
    kronecker_compose,
    length_extended_mscs,
    multi_prime_mscs,
    random_block,
    single_prime_mscs,
)
from mscs.seqcore import (
    MixedDomain,
    MultivariableFunction,
    PhaseSequence,
    TabulatedComponent,
    decode_index,
    evaluate,
    materialize,
)


def test_block_validation():
    with pytest.raises(ValueError, match="p must be prime"):
        single_prime_mscs(PrimeBlock(p=4, m=2), 8)
    with pytest.raises(ValueError, match="divide"):
        single_prime_mscs(PrimeBlock(p=3, m=2), 4)
    with pytest.raises(ValueError, match="s must satisfy"):
        single_prime_mscs(PrimeBlock(p=3, m=2, s=3), 6)
    with pytest.raises(ValueError, match="permutation"):
        single_prime_mscs(PrimeBlock(p=3, m=3, s=2, pi=(1, 2)), 6)
    with pytest.raises(ValueError, match="h_table"):
        single_prime_mscs(PrimeBlock(p=3, m=2, s=1, h_table=(0,)), 6)
    with pytest.raises(ValueError, match="h_table"):
        single_prime_mscs(PrimeBlock(p=3, m=2, s=2, h_table=(0, 1)), 6)
    with pytest.raises(ValueError, match="linear"):
        single_prime_mscs(PrimeBlock(p=3, m=2, linear=(1,)), 6)


def test_reference_parameters_shape():
    sset = single_prime_mscs(PrimeBlock(p=3, m=3, s=2, pi=(2, 3), constant=5), 6)
    assert len(sset) == 3
    assert sset.length == 27
    assert sset.modulus == 6
    assert sset.metadata["construction"] == "single_prime"
    assert {"kind": "MSCS", "S": 3} in sset.metadata["claims"]
    assert {"kind": "ZCS", "Z": 24} in sset.metadata["claims"]


def test_two_member_binary_pair():
    # p=2, m=1, s=1, lambda=2, everything zero: members (0,0) and (0,1)
    sset = single_prime_mscs(PrimeBlock(p=2, m=1), 2)
    assert [list(s.values) for s in sset.sequences] == [[0, 0], [0, 1]]
    assert abs(naive_set_aacf(sset, 1)) < 1e-12


def test_length4_binary_pair():
    # f = v1*v2 over Z_2^2 gives the classic length-4 complementary pair
    sset = single_prime_mscs(PrimeBlock(p=2, m=2), 2)
    assert [list(s.values) for s in sset.sequences] == [[0, 0, 0, 1], [0, 1, 0, 0]]
    for tau in (1, 2, 3):
        assert abs(naive_set_aacf(sset, tau)) < 1e-12
    assert {"kind": "GCS"} in sset.metadata["claims"]


def test_gcs_claim_only_when_s_is_1():
    sset = single_prime_mscs(PrimeBlock(p=3, m=2, s=2), 6)
    kinds = [c["kind"] for c in sset.metadata["claims"]]
    assert "GCS" not in kinds


def test_single_block_multi_prime_consistency():
    block = PrimeBlock(p=3, m=2, s=2, pi=(2,), linear=(1, 4), constant=2)
    a = single_prime_mscs(block, 6)
    b = multi_prime_mscs([block], 6)
    assert [list(s.values) for s in a.sequences] == [list(s.values) for s in b.sequences]


def test_one_block_multi_prime_is_the_single_prime_set():
    # the same members and the same claims, the type-II ZCS of width 27 - 3 included
    single = single_prime_mscs(PrimeBlock(3, 3, 2), 6)
    multi = multi_prime_mscs([PrimeBlock(3, 3, 2)], 6)
    assert np.array_equal(multi.phases, single.phases)
    assert multi.metadata["claims"] == single.metadata["claims"] == [
        {"kind": "MSCS", "S": 3}, {"kind": "ZCS", "Z": 24}]
    assert multi_prime_mscs([PrimeBlock(3, 2)], 6).metadata["claims"] == [
        {"kind": "MSCS", "S": 1}, {"kind": "GCS"}, {"kind": "ZCS", "Z": 8}]


def test_two_prime_gcs():
    # (2,1) x (3,1) with lambda=6 and zero coefficients: a (6,6,1)-GCS
    sset = multi_prime_mscs([PrimeBlock(p=2, m=1), PrimeBlock(p=3, m=1)], 6)
    assert len(sset) == 6
    assert sset.length == 6
    for tau in range(1, 6):
        assert abs(naive_set_aacf(sset, tau)) < 1e-12
    assert {"kind": "GCS"} in sset.metadata["claims"]


def test_two_prime_mscs_s2():
    # (2,2,2) x (3,1,1) with lambda=6: a (6,12,2)-MSCS
    blocks = [PrimeBlock(p=2, m=2, s=2), PrimeBlock(p=3, m=1)]
    sset = multi_prime_mscs(blocks, 6)
    assert len(sset) == 6
    assert sset.length == 12
    assert {"kind": "MSCS", "S": 2} in sset.metadata["claims"]
    for tau in range(2, 12, 2):
        assert abs(naive_set_aacf(sset, tau)) < 1e-12


def test_multi_prime_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        multi_prime_mscs([PrimeBlock(p=3, m=1), PrimeBlock(p=3, m=2)], 6)
    with pytest.raises(ValueError):
        multi_prime_mscs([], 6)


def _refuse_records(*args):
    raise AssertionError("block record built before the length check")


@pytest.mark.parametrize("build, length", [
    (lambda: single_prime_mscs(PrimeBlock(p=3, m=200000), 6), r"3\^200000"),
    (lambda: multi_prime_mscs([PrimeBlock(p=2, m=10), PrimeBlock(p=3, m=7)], 6), "2239488"),
    (lambda: length_extended_mscs([PrimeBlock(p=3, m=12)], ext_prime=2, modulus=6), "1062882"),
], ids=["huge-m", "two-primes", "extension"])
def test_builder_checks_length_before_records(monkeypatch, build, length):
    monkeypatch.setattr(mscs.constructions, "_block_record", _refuse_records)
    with pytest.raises(ValueError, match=f"^sequence length {length} exceeds capacity limit 1000000$"):
        build()


@pytest.mark.parametrize("lam", [2**31, 3 * 2**60, 3 * 2**64])
def test_builder_refuses_modulus_that_overflows_int64(monkeypatch, lam):
    monkeypatch.setattr(mscs.constructions, "_block_record", _refuse_records)
    with pytest.raises(ValueError, match=rf"^modulus {lam} must be below 2\^31$"):
        single_prime_mscs(PrimeBlock(p=2, m=4), lam)
    with pytest.raises(ValueError, match=rf"^modulus {lam} must be below 2\^31$"):
        length_extended_mscs([PrimeBlock(p=3, m=2)], ext_prime=2, modulus=lam)


def test_builder_peak_allocation():
    # base, tag, members and one transient: under 8 int64 arrays of length L
    # (per-variable L-sized digit columns would push the peak far above)
    block = random_block(random.Random(3), 3, 12, 10, 6)
    L = 3**12
    tracemalloc.start()
    try:
        single_prime_mscs(block, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * L


def test_random_block_checks_s_before_drawing():
    # s = 40 would draw a head table of 2^39 entries before the builder's check
    with pytest.raises(ValueError, match="1 <= s <= m"):
        random_block(random.Random(1), 2, 1, 40, 2)
    with pytest.raises(ValueError, match="1 <= s <= m"):
        random_block(random.Random(1), 3, 2, 0, 3)


def test_multi_prime_is_kronecker_chain():
    rng = random.Random(77)
    blocks = [
        random_block(rng, 2, 2, 1, 6),
        random_block(rng, 3, 2, 2, 6),
    ]
    sset = multi_prime_mscs(blocks, 6)
    for member in range(len(sset)):
        gammas = (member % 2, (member // 2) % 3)
        factors = []
        for block, gamma in zip(blocks, gammas):
            single = single_prime_mscs(block, 6)
            factors.append(single.sequences[gamma])
        chain = factors[0]
        for f in factors[1:]:
            chain = kronecker_compose(f, chain)
        assert sset.sequences[member] == chain


def _oracle_function(blocks, modulus, gammas, extension=None):
    """Member function written out from the paper, block by block."""
    factors = [(b.p, b.m) for b in blocks] + ([(extension[0], 1)] if extension else [])
    terms, tabulated, constant = [], [], 0
    for a, (b, gamma) in enumerate(zip(blocks, gammas), start=1):
        q = modulus // b.p
        pi = dict(zip(range(b.s, b.m + 1), b.pi))
        for i in range(b.s, b.m):
            terms.append((q, {(a, pi[i]): 1, (a, pi[i + 1]): 1}))
        for i, g in enumerate(b.linear, start=1):
            terms.append((g, {(a, i): 1}))
        terms.append((q * gamma, {(a, pi[b.s]): 1}))
        if b.h_table is not None:
            tabulated.append(TabulatedComponent([(a, i) for i in range(1, b.s)], b.h_table))
        constant += b.constant
    if extension:
        _, g1, g0 = extension
        terms.append((g1, {(len(blocks) + 1, 1): 1}))
        constant += g0
    return MultivariableFunction(MixedDomain(factors), modulus, terms, constant, tabulated)


@pytest.mark.parametrize("case", [
    "single-prime-s2", "single-prime-s3", "two-prime-mixed-s", "three-prime",
    "extended", "extended-two-block", "below-modulus-cap",
])
def test_builder_matches_evaluate_oracle(monkeypatch, case):
    rng = random.Random(sum(map(ord, case)))
    extension = None
    if case == "single-prime-s2":
        blocks, lam = [random_block(rng, 3, 3, 2, 6)], 6
    elif case == "single-prime-s3":
        blocks, lam = [random_block(rng, 2, 4, 3, 4)], 4
    elif case == "two-prime-mixed-s":
        blocks, lam = [random_block(rng, 2, 3, 2, 6), random_block(rng, 3, 2, 1, 6)], 6
    elif case == "three-prime":
        blocks = [random_block(rng, 5, 1, 1, 30), random_block(rng, 2, 2, 2, 30),
                  random_block(rng, 3, 1, 1, 30)]
        lam = 30
    elif case == "extended":
        blocks, lam = [random_block(rng, 3, 2, 1, 6)], 6
        extension = (2, rng.randrange(6), rng.randrange(6))
    elif case == "extended-two-block":
        blocks, lam = [random_block(rng, 2, 2, 1, 30), random_block(rng, 5, 1, 1, 30)], 30
        extension = (3, rng.randrange(30), rng.randrange(30))
    else:
        lam = 2**31 - 2  # 2 * 3 * 357913941
        blocks = [random_block(rng, 2, 3, 2, lam), random_block(rng, 3, 2, 2, lam)]

    calls = []

    def counting_materialize(f, **kw):
        calls.append(f)
        return materialize(f, **kw)

    monkeypatch.setattr(mscs.constructions, "materialize", counting_materialize)
    if extension:
        sset = length_extended_mscs(blocks, extension[0], lam, *extension[1:])
    elif len(blocks) == 1:
        sset = single_prime_mscs(blocks[0], lam)
    else:
        sset = multi_prime_mscs(blocks, lam)
    assert len(calls) == 1 + len(blocks)

    assert len(sset) == np.prod([b.p for b in blocks])
    for member, seq in enumerate(sset.sequences):
        gammas = []
        for b in blocks:
            member, gamma = divmod(member, b.p)
            gammas.append(gamma)
        f = _oracle_function(blocks, lam, gammas, extension)
        expected = [evaluate(f, decode_index(x, f.domain)) for x in range(f.domain.length())]
        assert seq.values.tolist() == expected


def test_extension_basic():
    # base (2,1,1), extension prime 3, all coefficients zero: a (2,6,3)-MSCS
    sset = length_extended_mscs([PrimeBlock(p=2, m=1)], ext_prime=3, modulus=6)
    assert len(sset) == 2
    assert sset.length == 6
    assert sset.metadata["claims"] == [{"kind": "MSCS", "S": 3}]
    assert abs(naive_set_aacf(sset, 3)) < 1e-12


def test_extension_is_kronecker_composition():
    rng = random.Random(11)
    base = random_block(rng, 3, 2, 1, 6)
    g1, g0 = 4, 2
    sset = length_extended_mscs([base], ext_prime=2, modulus=6, ext_linear=g1, ext_constant=g0)
    base_set = single_prime_mscs(base, 6)
    ext_domain = MixedDomain([(2, 1)])
    ext_factor = materialize(
        MultivariableFunction(ext_domain, 6, [(g1, (((1, 1), 1),))], g0)
    )
    for member, base_member in zip(sset.sequences, base_set.sequences):
        assert member == kronecker_compose(ext_factor, base_member)


def test_extension_validation():
    base = [PrimeBlock(p=3, m=1)]
    with pytest.raises(ValueError, match="s=1"):
        length_extended_mscs([PrimeBlock(p=3, m=2, s=2)], ext_prime=2, modulus=6)
    with pytest.raises(ValueError, match="prime"):
        length_extended_mscs(base, ext_prime=4, modulus=12)
    with pytest.raises(ValueError, match="duplicates"):
        length_extended_mscs(base, ext_prime=3, modulus=6)
    with pytest.raises(ValueError, match="divide"):
        length_extended_mscs(base, ext_prime=5, modulus=6)


def test_member_count_and_order():
    sset = multi_prime_mscs([PrimeBlock(p=2, m=1), PrimeBlock(p=5, m=1)], 10)
    assert len(sset) == 10
    # gamma_1 varies fastest: members 0 and 1 differ only in the first block tag
    m0, m1 = sset.sequences[0].values, sset.sequences[1].values
    diff = (m1.astype(int) - m0.astype(int)) % 10
    # tag is (lambda/2) * v_{2,1} * gamma_1, so the difference is 5 on odd indices
    assert list(diff) == [0, 5] * 5


def test_kronecker_identity_element():
    inner = PhaseSequence(6, [1, 4, 2])
    assert kronecker_compose(PhaseSequence(6, [0]), inner) == inner


def test_kronecker_block_layout():
    out = kronecker_compose(PhaseSequence(6, [0, 3]), PhaseSequence(6, [0, 0, 0]))
    assert list(out.values) == [0, 0, 0, 3, 3, 3]


def test_kronecker_matches_complex_product():
    rng = random.Random(3)
    for _ in range(10):
        lam = rng.randint(2, 12)
        a = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(1, 6))])
        b = PhaseSequence(lam, [rng.randrange(lam) for _ in range(rng.randint(1, 6))])
        composed = kronecker_compose(a, b)
        assert np.max(np.abs(lift(composed) - np.kron(lift(a), lift(b)))) < 1e-12


@pytest.mark.parametrize("lam", [2**63 - 1, 2**62 + 1])
def test_kronecker_does_not_wrap_near_int64(lam):
    # the sum of two reduced phases passes 2^63 for lambda above 2^62
    outer = PhaseSequence(lam, [lam - 1, 0, lam // 2, 1])
    inner = PhaseSequence(lam, [lam - 1, lam - 2, lam // 2 + 1])
    want = [(int(a) + int(b)) % lam for a in outer.values for b in inner.values]
    assert kronecker_compose(outer, inner).values.tolist() == want


def test_kronecker_modulus_mismatch():
    with pytest.raises(ValueError, match="modulus"):
        kronecker_compose(PhaseSequence(4, [0]), PhaseSequence(6, [0]))


def test_random_block_respects_bounds():
    rng = random.Random(1234)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        m = rng.randint(1, 4)
        s = rng.randint(1, m)
        lam = p * rng.randint(1, 4)
        block = random_block(rng, p, m, s, lam)
        assert sorted(block.pi) == list(range(s, m + 1))
        assert len(block.linear) == m
        assert all(0 <= g < lam for g in block.linear)
        assert 0 <= block.constant < lam
        if s == 1:
            assert block.h_table is None
        else:
            assert len(block.h_table) == p ** (s - 1)
