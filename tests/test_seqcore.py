import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscs.seqcore import (
    MAX_LENGTH,
    MAX_MODULUS,
    MixedDomain,
    MixedRadixIndex,
    MultivariableFunction,
    PhaseSequence,
    SequenceSet,
    TabulatedComponent,
    check_length,
    check_modulus,
    decode_index,
    encode_index,
    evaluate,
    materialize,
    to_complex,
)


def test_domain_validation():
    with pytest.raises(ValueError):
        MixedDomain([])
    with pytest.raises(ValueError):
        MixedDomain([(4, 2)])
    with pytest.raises(ValueError):
        MixedDomain([(3, 0)])
    d = MixedDomain([(3, 3), (2, 1)])
    assert d.length() == 54
    assert d.num_blocks() == 2
    assert d.variables() == ((1, 1), (1, 2), (1, 3), (2, 1))
    assert d.radix((1, 2)) == 3
    assert d.radix((2, 1)) == 2


def test_domain_strides():
    d = MixedDomain([(3, 3), (2, 1)])
    assert d.stride((1, 1)) == 1
    assert d.stride((1, 2)) == 3
    assert d.stride((1, 3)) == 9
    assert d.stride((2, 1)) == 27
    with pytest.raises(ValueError):
        d.stride((3, 1))
    with pytest.raises(ValueError):
        d.stride((1, 4))


def test_encode_single_block():
    # digits (2,1,0) -> 2 + 1*3 + 0*9 = 5
    d = MixedDomain([(3, 3)])
    assert encode_index(MixedRadixIndex([(2, 1, 0)]), d) == 5
    assert encode_index(MixedRadixIndex([(0, 0, 0)]), d) == 0


def test_encode_mixed_blocks():
    d = MixedDomain([(3, 3), (2, 1)])
    assert encode_index(MixedRadixIndex([(0, 1, 0), (1,)]), d) == 30
    assert encode_index(MixedRadixIndex([(0, 0, 0), (0,)]), d) == 0


def test_decode_examples():
    d3 = MixedDomain([(3, 3)])
    assert decode_index(5, d3).digits == ((2, 1, 0),)
    assert decode_index(0, d3).digits == ((0, 0, 0),)
    d = MixedDomain([(3, 3), (2, 1)])
    idx = decode_index(53, d)
    assert idx.block(1) == (2, 2, 2)
    assert idx.block(2) == (1,)
    assert idx.digit((2, 1)) == 1


def test_index_range_errors():
    d = MixedDomain([(2, 2)])
    with pytest.raises(ValueError):
        decode_index(4, d)
    with pytest.raises(ValueError):
        decode_index(-1, d)
    with pytest.raises(ValueError):
        encode_index(MixedRadixIndex([(2, 0)]), d)
    with pytest.raises(ValueError):
        encode_index(MixedRadixIndex([(0, 0, 0)]), d)


@pytest.mark.parametrize(
    "blocks",
    [
        [(2, 3)],
        [(3, 3), (2, 1)],
        [(5, 2), (3, 1), (2, 2)],
        [(2, 5), (3, 4)],
    ],
)
def test_roundtrip_exhaustive(blocks):
    d = MixedDomain(blocks)
    L = d.length()
    assert L <= 10_000
    for x in range(L):
        assert encode_index(decode_index(x, d), d) == x


domains = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)), min_size=1, max_size=3
).map(MixedDomain)


@given(domains, st.data())
def test_roundtrip_random(domain, data):
    x = data.draw(st.integers(0, domain.length() - 1))
    assert encode_index(decode_index(x, domain), domain) == x


def _random_function(rng, domain, modulus, nterms=4):
    terms = []
    variables = domain.variables()
    for _ in range(nterms):
        mono = {}
        for var in rng.sample(variables, rng.randint(1, min(2, len(variables)))):
            mono[var] = rng.randint(1, 3)
        terms.append((rng.randrange(2 * modulus), tuple(mono.items())))
    return MultivariableFunction(domain, modulus, terms, rng.randrange(modulus))


def test_evaluate_example_function():
    # 2*v2*v3 + 5 over Z_3^3 into Z_6 at digits (0,1,2)
    d = MixedDomain([(3, 3)])
    f = MultivariableFunction(d, 6, [(2, (((1, 2), 1), ((1, 3), 1)))], 5)
    assert evaluate(f, MixedRadixIndex([(0, 1, 2)])) == 3
    assert evaluate(f, MixedRadixIndex([(0, 0, 0)])) == 5


def test_evaluate_zero_function():
    d = MixedDomain([(2, 2)])
    f = MultivariableFunction(d, 4)
    for x in range(4):
        assert evaluate(f, decode_index(x, d)) == 0


def test_evaluate_tabulated():
    d = MixedDomain([(3, 2)])
    f = MultivariableFunction(d, 6, (), 0, [TabulatedComponent([(1, 1)], (4, 1, 0))])
    assert evaluate(f, MixedRadixIndex([(1, 0)])) == 1
    assert evaluate(f, MixedRadixIndex([(0, 2)])) == 4
    assert evaluate(f, MixedRadixIndex([(2, 1)])) == 0


def test_function_validation():
    d = MixedDomain([(3, 2)])
    with pytest.raises(ValueError):
        MultivariableFunction(d, 1)
    with pytest.raises(ValueError):
        MultivariableFunction(d, 6, [(1, (((1, 3), 1),))])
    with pytest.raises(ValueError):
        MultivariableFunction(d, 6, [(1, (((1, 1), 0),))])
    with pytest.raises(ValueError):
        MultivariableFunction(d, 6, (), 0, [TabulatedComponent([(1, 1)], (0, 1))])


def test_function_normalizes_mod_lambda():
    d = MixedDomain([(2, 1)])
    f = MultivariableFunction(d, 4, [(7, (((1, 1), 1),))], 9)
    assert f.terms[0][0] == 3
    assert f.constant == 1


@given(st.integers(0, 10**6), st.integers(2, 12))
@settings(max_examples=50)
def test_evaluate_linearity(seed, modulus):
    import random

    rng = random.Random(seed)
    d = MixedDomain([(3, 2), (2, 2)])
    f = _random_function(rng, d, modulus)
    g = _random_function(rng, d, modulus)
    fg = f + g
    for x in rng.sample(range(d.length()), 8):
        idx = decode_index(x, d)
        assert evaluate(fg, idx) == (evaluate(f, idx) + evaluate(g, idx)) % modulus


def test_add_requires_same_domain():
    f = MultivariableFunction(MixedDomain([(2, 1)]), 4)
    g = MultivariableFunction(MixedDomain([(3, 1)]), 4)
    with pytest.raises(ValueError):
        f + g


def test_materialize_constant():
    d = MixedDomain([(3, 1)])
    f = MultivariableFunction(d, 6, (), 5)
    assert list(materialize(f).values) == [5, 5, 5]


def test_materialize_single_variable():
    d = MixedDomain([(2, 1)])
    f = MultivariableFunction(d, 2, [(1, (((1, 1), 1),))])
    assert list(materialize(f).values) == [0, 1]


def test_materialize_example_head():
    # 2*v2*v3 + 5: all indices with second and third digit zero evaluate to 5
    d = MixedDomain([(3, 3)])
    f = MultivariableFunction(d, 6, [(2, (((1, 2), 1), ((1, 3), 1)))], 5)
    seq = materialize(f)
    assert len(seq) == 27
    assert list(seq.values[:4]) == [5, 5, 5, 5]


def test_materialize_matches_pointwise_evaluation():
    import random

    rng = random.Random(5)
    d = MixedDomain([(3, 2), (2, 2)])
    for _ in range(10):
        f = _random_function(rng, d, rng.randint(2, 12))
        seq = materialize(f)
        for x in range(d.length()):
            assert seq.values[x] == evaluate(f, decode_index(x, d))


@st.composite
def functions(draw):
    """Functions on one to three prime blocks (L <= 360) with every feature.

    Exponents reach 70, so digit**exp would overflow int64; variables
    repeat within a monomial and within a table, table variables come in
    any order, and coefficients, constants and table entries are drawn
    negative and unreduced.  Moduli reach MAX_MODULUS - 1, where products
    of reduced values come within a factor 2 of int64's range.  No terms
    and no tables gives a constant.
    """
    blocks = draw(st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)),
                           min_size=1, max_size=3)
                  .filter(lambda bs: MixedDomain(bs).length() <= 360))
    domain = MixedDomain(blocks)
    modulus = draw(st.one_of(st.integers(2, 60), st.integers(2, MAX_MODULUS - 1),
                             st.integers(MAX_MODULUS - 60, MAX_MODULUS - 1)))
    variables = st.sampled_from(domain.variables())
    values = st.integers(-3 * modulus, 3 * modulus)
    terms = draw(st.lists(st.tuples(
        values, st.lists(st.tuples(variables, st.integers(1, 70)), max_size=3)), max_size=6))
    tabulated = []
    for table_vars in draw(st.lists(st.lists(variables, max_size=3), max_size=2)):
        size = int(np.prod([domain.radix(v) for v in table_vars]))
        tabulated.append(TabulatedComponent(
            table_vars, draw(st.lists(values, min_size=size, max_size=size))))
    return MultivariableFunction(domain, modulus, terms, draw(values), tabulated)


def _assert_matches_evaluate(f):
    seq = materialize(f)
    assert seq.modulus == f.modulus
    expected = [evaluate(f, decode_index(x, f.domain)) for x in range(f.domain.length())]
    assert seq.values.tolist() == expected


@given(functions())
@settings(max_examples=150, deadline=None)
def test_materialize_matches_evaluate_everywhere(f):
    _assert_matches_evaluate(f)


@pytest.mark.parametrize("f", [
    MultivariableFunction(MixedDomain([(5, 2), (2, 1)]), 7, (), -3),
    MultivariableFunction(MixedDomain([(3, 1)]), 6, [(-1, (((1, 1), 70),))], 5),
    MultivariableFunction(MixedDomain([(2, 1)]), 4, (), 1,
                          [TabulatedComponent([(1, 1), (1, 1)], (-1, 5, 9, 2))]),
    MultivariableFunction(MixedDomain([(7, 2)]), 60, [(11, (((1, 2), 69), ((1, 2), 1)))], 0,
                          [TabulatedComponent([(1, 2), (1, 1)], range(-49, 0))]),
    MultivariableFunction(MixedDomain([(3, 3)]), MAX_MODULUS - 1,
                          [(-1, (((1, 1), 70),)), (MAX_MODULUS - 2, (((1, 2), 1), ((1, 3), 69))),
                           (MAX_MODULUS - 3, (((1, 1), 1),)), (MAX_MODULUS - 4, (((1, 2), 1),))],
                          MAX_MODULUS - 5, [TabulatedComponent([(1, 3)], (-1, -2, -3))]),
], ids=["constant-only", "one-digit", "one-digit-repeated-table", "unsorted-table", "below-cap"])
def test_materialize_matches_evaluate_examples(f):
    _assert_matches_evaluate(f)


def test_materialize_tabulated_matches_pointwise():
    import random

    rng = random.Random(6)
    d = MixedDomain([(3, 2), (2, 1)])
    table = tuple(rng.randrange(6) for _ in range(9))
    f = MultivariableFunction(
        d, 6, [(3, (((2, 1), 1),))], 2, [TabulatedComponent([(1, 1), (1, 2)], table)]
    )
    seq = materialize(f)
    for x in range(d.length()):
        assert seq.values[x] == evaluate(f, decode_index(x, d))


def test_materialize_deterministic():
    d = MixedDomain([(3, 3)])
    f = MultivariableFunction(d, 6, [(2, (((1, 2), 1), ((1, 3), 1)))], 5)
    a, b = materialize(f), materialize(f)
    assert a == b
    assert a.values.tobytes() == b.values.tobytes()


def test_materialize_capacity():
    d = MixedDomain([(2, 21)])
    assert d.length() > MAX_LENGTH
    f = MultivariableFunction(d, 2)
    with pytest.raises(ValueError, match="capacity"):
        materialize(f)
    # exactly at the cap the sequence is built
    at_cap = MixedDomain([(2, 6), (5, 6)])
    assert at_cap.length() == MAX_LENGTH
    assert len(materialize(MultivariableFunction(at_cap, 10))) == MAX_LENGTH
    # just over it, refused before anything of its 8 MB is allocated
    over = MultivariableFunction(MixedDomain([(2, 20)]), 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"^sequence length 1048576 exceeds capacity limit 1000000$"):
            materialize(over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # p^m is reported, never formed or formatted
    with pytest.raises(ValueError, match=r"^sequence length 3\^200000 exceeds capacity limit 1000000$"):
        materialize(MultivariableFunction(MixedDomain([(3, 200000)]), 6))


def test_check_modulus():
    assert check_modulus(2) == 2
    assert check_modulus(MAX_MODULUS - 1) == MAX_MODULUS - 1
    assert MAX_MODULUS == 2**31
    with pytest.raises(ValueError, match=r"^modulus 1 must be >= 2$"):
        check_modulus(1)
    for lam in (MAX_MODULUS, 3 * 2**31, 3 * 2**61, 2**64):
        with pytest.raises(ValueError, match=rf"^modulus {lam} must be below 2\^31$"):
            check_modulus(lam)


@pytest.mark.parametrize("lam", [3 * 2**31, 3 * 2**61])
def test_materialize_refuses_modulus_that_overflows_int64(lam):
    # unchecked, the t * d products (exponent 70) and the group sums (degree-1
    # and product terms) wrapped around int64 and gave wrong phases silently
    f = MultivariableFunction(MixedDomain([(3, 3)]), lam,
                              [(lam - 1, (((1, 1), 70),)), (lam - 2, (((1, 2), 1), ((1, 3), 1))),
                               (lam - 3, (((1, 2), 1),)), (lam - 4, (((1, 3), 1),))], lam - 5)
    with pytest.raises(ValueError, match=rf"^modulus {lam} must be below 2\^31$"):
        materialize(f)


def test_check_length():
    assert check_length([(3, 2), (2, 1)]) == 18
    assert check_length([(2, 6), (5, 6)]) == MAX_LENGTH == 1_000_000
    assert check_length([(3, 2), (1, 5), (7, 0)]) == 9  # left to the caller's checks
    with pytest.raises(ValueError, match=r"^sequence length 2097152 exceeds capacity limit 1000000$"):
        check_length([(2, 21)])
    with pytest.raises(ValueError, match=r"^sequence length 2239488 exceeds capacity limit 1000000$"):
        check_length([(2, 10), (3, 7)])
    with pytest.raises(ValueError, match=r"^sequence length 2\^1000000000 exceeds capacity limit 1000000$"):
        check_length([(2, 10**9)])
    with pytest.raises(ValueError, match=r"^sequence length 1048576 exceeds capacity limit 1000000$"):
        check_length([(2, 20)])


def test_phase_sequence_basics():
    s = PhaseSequence(6, [7, -1, 0])
    assert list(s.values) == [1, 5, 0]
    assert len(s) == 3
    with pytest.raises(ValueError):
        PhaseSequence(1, [0])
    with pytest.raises(ValueError):
        PhaseSequence(4, [[0, 1]])
    assert not s.values.flags.writeable


def test_from_phases_takes_a_read_only_matrix():
    matrix = np.array([[0, 1, 5], [2, 3, 4]], dtype=np.int64)
    with pytest.raises(ValueError, match="read-only"):
        SequenceSet.from_phases(6, matrix)
    matrix.flags.writeable = False
    sset = SequenceSet.from_phases(6, matrix, {"construction": "external"})
    assert sset.phases is matrix
    assert sset.sequences == (PhaseSequence(6, [0, 1, 5]), PhaseSequence(6, [2, 3, 4]))
    assert all(s.values.base is matrix and not s.values.flags.writeable for s in sset)
    assert (len(sset), sset.length, sset.modulus) == (2, 3, 6)
    assert sset.metadata == {"construction": "external"}
    with pytest.raises(ValueError, match="read-only"):
        SequenceSet.from_phases(6, matrix[0])
    with pytest.raises(ValueError, match="read-only"):
        SequenceSet.from_phases(6, matrix.astype(np.int32))
    with pytest.raises(ValueError, match="at least one member"):
        SequenceSet.from_phases(6, matrix[:0])
    with pytest.raises(ValueError, match="must be >= 2"):
        SequenceSet.from_phases(1, matrix)


def test_sequence_set_stacks_its_members_once():
    members = [PhaseSequence(6, [0, 1, 5]), PhaseSequence(6, [8, 3, 4])]
    sset = SequenceSet(iter(members))
    matrix = sset.phases
    assert matrix.dtype == np.int64 and matrix.shape == (2, 3) and not matrix.flags.writeable
    assert matrix.tolist() == [[0, 1, 5], [2, 3, 4]]
    # the members view the stack, not the objects passed in
    assert all(s.values.base is matrix for s in sset)
    assert not any(np.shares_memory(s.values, m.values) for s, m in zip(sset, members))
    assert len(sset) == 2 and sset.sequences == tuple(members)
    assert sset == SequenceSet.from_phases(6, matrix)
    assert sset != SequenceSet(members[:1])
    assert sset != SequenceSet([PhaseSequence(7, [0, 1, 5]), PhaseSequence(7, [2, 3, 4])])


def test_phase_sequence_equality_and_hash():
    a = PhaseSequence(4, [0, 1, 2])
    b = PhaseSequence(4, [0, 1, 2])
    c = PhaseSequence(4, [0, 1, 3])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != PhaseSequence(8, [0, 1, 2])


def test_sequence_set_uniformity():
    a = PhaseSequence(4, [0, 1])
    with pytest.raises(ValueError):
        SequenceSet([])
    with pytest.raises(ValueError):
        SequenceSet([a, PhaseSequence(4, [0, 1, 2])])
    with pytest.raises(ValueError):
        SequenceSet([a, PhaseSequence(8, [0, 1])])
    sset = SequenceSet([a, a], {"construction": "external"})
    assert len(sset) == 2
    assert sset.length == 2
    assert sset.modulus == 4
    assert [s for s in sset] == [a, a]


def test_to_complex_values():
    assert np.allclose(to_complex(PhaseSequence(5, [0, 0, 0])), np.ones(3))
    assert np.allclose(to_complex(PhaseSequence(2, [0, 1])), [1, -1])
    assert np.allclose(to_complex(PhaseSequence(4, [0, 1, 2, 3])), [1, 1j, -1, -1j])


def test_to_complex_is_the_exp_lift_bit_for_bit():
    for lam in range(2, 61):
        s = PhaseSequence(lam, range(lam))
        assert np.array_equal(to_complex(s), np.exp(2j * np.pi * s.values / lam)), lam
    s = PhaseSequence(6, np.random.default_rng(12).integers(0, 6, 3**12))
    assert np.array_equal(to_complex(s), np.exp(2j * np.pi * s.values / 6))
    # lambda above the length: evaluated directly, same bits
    s = PhaseSequence(97, [0, 1, 50, 96])
    assert np.array_equal(to_complex(s), np.exp(2j * np.pi * s.values / 97))


def test_to_complex_unit_modulus():
    import random

    rng = random.Random(9)
    for _ in range(5):
        lam = rng.randint(2, 60)
        s = PhaseSequence(lam, [rng.randrange(lam) for _ in range(40)])
        c = to_complex(s)
        assert len(c) == 40
        assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-12
