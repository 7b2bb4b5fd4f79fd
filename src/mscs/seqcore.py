"""Index arithmetic and sequence materialization over mixed prime-power domains.

A domain is a product Z_{p1}^{m1} x ... x Z_{pk}^{mk} of prime blocks.  A
point is addressed either by a flat integer in [0, L), L = prod p_a^{m_a},
or by per-block digit vectors.  The flat index convention, used everywhere
in this package: block 1 is least significant (varies fastest), and within
a block digit 1 is least significant, i.e.

    x = sum_a i_a * prod_{b<a} p_b^{m_b},   i_a = sum_g p_a^(g-1) * i_{a,g}.

This makes a k-block sequence the Kronecker composition of its per-block
factors with block k outermost.

Functions on a domain take values in Z_lambda and are stored as a sum of
monomial terms in the digit variables v_{a,b} (block a, position b, both
1-based), a constant, and optional tabulated components: arbitrary
functions of a variable subset supplied as a flat lookup table.
Materializing a function evaluates it on the digit tensor, whose axes are
the digit variables (most significant first) and whose C-order ravel is
the flat index order: each term is a small table over its own axes, added
over the tensor by broadcasting.  The result is a phase sequence; the
complex lift maps phase x to exp(2*pi*1j*x/lambda).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

# Largest sequence length materialize will produce.  Exhaustive exact
# verification gets impractical well before this.
MAX_LENGTH = 1_000_000

# Moduli materialize accepts lie below this.  Every value it forms in int64
# is built from entries already reduced mod lambda, each below lambda, and
# digits, each below a prime p <= L, which is far below 2^32 for any L an
# array can hold (MAX_LENGTH < 2^20):
#   * a monomial table multiplies its running product (< lambda) by a digit
#     or a power looked up mod lambda, so it stays below
#     lambda * max(lambda, p) < 2^63 before it is reduced again;
#   * the output adds the constant and at most one reduced table per term
#     and per tabulated component, so with T of them it stays below
#     (T + 1) * lambda, which is below 2^63 for every T + 1 <= 2^32, far
#     more terms than a function held in memory can have.
MAX_MODULUS = 2**31

VarId = tuple[int, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 in ascending order, each as often as it divides n."""
    factors, d = [], 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    return factors + [n] * (n > 1)


@dataclass(frozen=True)
class MixedDomain:
    """Product of prime blocks Z_{p1}^{m1} x ... x Z_{pk}^{mk}.

    ``blocks`` lists (prime, exponent) pairs in significance order, block 1
    first (least significant).
    """

    blocks: tuple[tuple[int, int], ...]

    def __init__(self, blocks: Iterable[tuple[int, int]]):
        blocks = tuple((int(p), int(m)) for p, m in blocks)
        if not blocks:
            raise ValueError("domain needs at least one prime block")
        for p, m in blocks:
            if not _is_prime(p):
                raise ValueError(f"block base {p} is not prime")
            if m < 1:
                raise ValueError(f"block exponent {m} must be >= 1")
        object.__setattr__(self, "blocks", blocks)

    def length(self) -> int:
        """Total number of points L = prod p_a^{m_a}."""
        n = 1
        for p, m in self.blocks:
            n *= p**m
        return n

    def num_blocks(self) -> int:
        return len(self.blocks)

    def variables(self) -> tuple[VarId, ...]:
        """All digit variables (block, position) in flat significance order."""
        out = []
        for a, (_, m) in enumerate(self.blocks, start=1):
            out.extend((a, b) for b in range(1, m + 1))
        return tuple(out)

    def radix(self, var: VarId) -> int:
        """Alphabet size of one digit variable."""
        self._check_var(var)
        return self.blocks[var[0] - 1][0]

    def stride(self, var: VarId) -> int:
        """Weight of one digit variable in the flat index."""
        self._check_var(var)
        a, b = var
        w = 1
        for p, m in self.blocks[: a - 1]:
            w *= p**m
        return w * self.blocks[a - 1][0] ** (b - 1)

    def _check_var(self, var: VarId) -> None:
        a, b = var
        if not (1 <= a <= len(self.blocks)):
            raise ValueError(f"variable {var}: no block {a} in domain")
        if not (1 <= b <= self.blocks[a - 1][1]):
            raise ValueError(f"variable {var}: block {a} has only {self.blocks[a - 1][1]} digits")


@dataclass(frozen=True)
class MixedRadixIndex:
    """One domain point as per-block digit vectors (i_{a,1}, ..., i_{a,m_a})."""

    digits: tuple[tuple[int, ...], ...]

    def __init__(self, digits: Iterable[Iterable[int]]):
        object.__setattr__(self, "digits", tuple(tuple(int(d) for d in blk) for blk in digits))

    def block(self, a: int) -> tuple[int, ...]:
        return self.digits[a - 1]

    def digit(self, var: VarId) -> int:
        return self.digits[var[0] - 1][var[1] - 1]


def _check_index(idx: MixedRadixIndex, domain: MixedDomain) -> None:
    if len(idx.digits) != len(domain.blocks):
        raise ValueError(
            f"index has {len(idx.digits)} blocks, domain has {len(domain.blocks)}"
        )
    for (p, m), blk in zip(domain.blocks, idx.digits):
        if len(blk) != m:
            raise ValueError(f"digit vector {blk} has wrong length for block ({p},{m})")
        for d in blk:
            if not (0 <= d < p):
                raise ValueError(f"digit {d} out of range for base {p}")


def encode_index(digits: MixedRadixIndex, domain: MixedDomain) -> int:
    """Flat index of a digit tuple; inverse of :func:`decode_index`."""
    _check_index(digits, domain)
    x = 0
    weight = 1
    for (p, m), blk in zip(domain.blocks, digits.digits):
        for d in blk:
            x += d * weight
            weight *= p
    return x


def decode_index(x: int, domain: MixedDomain) -> MixedRadixIndex:
    """Digit tuple of a flat index, block 1 digits extracted first."""
    L = domain.length()
    if not (0 <= x < L):
        raise ValueError(f"index {x} out of range [0, {L})")
    rem = x
    blocks = []
    for p, m in domain.blocks:
        blk = []
        for _ in range(m):
            blk.append(rem % p)
            rem //= p
        blocks.append(tuple(blk))
    return MixedRadixIndex(tuple(blocks))


@dataclass(frozen=True)
class TabulatedComponent:
    """An arbitrary function of a variable subset, given as a lookup table.

    ``table`` is flat with the first listed variable fastest: the entry for
    digits (d1, ..., dn) sits at index d1 + d2*r1 + d3*r1*r2 + ... where
    r_j is the radix of the j-th listed variable.
    """

    variables: tuple[VarId, ...]
    table: tuple[int, ...]

    def __init__(self, variables: Iterable[VarId], table: Iterable[int]):
        object.__setattr__(self, "variables", tuple((int(a), int(b)) for a, b in variables))
        object.__setattr__(self, "table", tuple(map(int, table)))

    def _reduced(self, modulus: int) -> "TabulatedComponent":
        """The component with every table entry reduced mod ``modulus``."""
        comp = object.__new__(TabulatedComponent)
        object.__setattr__(comp, "variables", self.variables)
        object.__setattr__(comp, "table", tuple(map(modulus.__rmod__, self.table)))
        return comp


Monomial = tuple[tuple[VarId, int], ...]
Term = tuple[int, Monomial]


def _normalize_monomial(mono) -> Monomial:
    if isinstance(mono, Mapping):
        items = mono.items()
    else:
        items = mono
    out = []
    for var, exp in items:
        a, b = var
        exp = int(exp)
        if exp < 1:
            raise ValueError(f"monomial exponent {exp} must be positive")
        out.append(((int(a), int(b)), exp))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class MultivariableFunction:
    """A Z_lambda valued function on a mixed domain.

    The value at a point is the mod-lambda sum of the constant, every
    monomial term coeff * prod v^exp, and every tabulated component looked
    up at the point's digits.  Coefficients, the constant and table entries
    may be passed unreduced; they are normalized mod lambda here.
    """

    domain: MixedDomain
    modulus: int
    terms: tuple[Term, ...] = ()
    constant: int = 0
    tabulated: tuple[TabulatedComponent, ...] = ()

    def __init__(self, domain, modulus, terms=(), constant=0, tabulated=()):
        modulus = int(modulus)
        if modulus < 2:
            raise ValueError(f"modulus {modulus} must be >= 2")
        norm_terms = []
        for coeff, mono in terms:
            mono = _normalize_monomial(mono)
            for var, _ in mono:
                domain._check_var(var)
            norm_terms.append((int(coeff) % modulus, mono))
        norm_tab = []
        for comp in tabulated:
            if not isinstance(comp, TabulatedComponent):
                comp = TabulatedComponent(*comp)
            size = 1
            for var in comp.variables:
                domain._check_var(var)
                size *= domain.radix(var)
            if len(comp.table) != size:
                raise ValueError(
                    f"table over {comp.variables} needs {size} entries, got {len(comp.table)}"
                )
            norm_tab.append(comp._reduced(modulus))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "terms", tuple(norm_terms))
        object.__setattr__(self, "constant", int(constant) % modulus)
        object.__setattr__(self, "tabulated", tuple(norm_tab))

    def __add__(self, other: "MultivariableFunction") -> "MultivariableFunction":
        """Pointwise mod-lambda sum, formed by merging term lists."""
        if self.domain != other.domain or self.modulus != other.modulus:
            raise ValueError("can only add functions on the same domain and modulus")
        return MultivariableFunction(
            self.domain,
            self.modulus,
            self.terms + other.terms,
            self.constant + other.constant,
            self.tabulated + other.tabulated,
        )


def evaluate(f: MultivariableFunction, idx: MixedRadixIndex) -> int:
    """Value of f at one domain point, in [0, modulus)."""
    _check_index(idx, f.domain)
    acc = f.constant
    for coeff, mono in f.terms:
        t = coeff
        for var, exp in mono:
            t = t * pow(idx.digit(var), exp, f.modulus) % f.modulus
        acc += t
    for comp in f.tabulated:
        pos = 0
        weight = 1
        for var in comp.variables:
            pos += idx.digit(var) * weight
            weight *= f.domain.radix(var)
        acc += comp.table[pos]
    return acc % f.modulus


@dataclass(frozen=True, eq=False)
class PhaseSequence:
    """A length-L vector over Z_lambda, stored as a read-only int array.

    The constructor copies ``values`` and reduces them mod lambda; the
    members of a :class:`SequenceSet` are views of its phase matrix's rows.
    """

    modulus: int
    values: np.ndarray

    def __init__(self, modulus: int, values):
        modulus = int(modulus)
        if modulus < 2:
            raise ValueError(f"modulus {modulus} must be >= 2")
        arr = np.asarray(values, dtype=np.int64) % modulus
        if arr.ndim != 1:
            raise ValueError("phase sequence values must be one-dimensional")
        arr.flags.writeable = False
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseSequence):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.modulus, self.values.tobytes()))


@dataclass(frozen=True, eq=False)
class SequenceSet:
    """An ordered set of M phase sequences sharing one (modulus, length).

    ``phases`` is one read-only (M, L) int64 matrix whose rows the members
    in ``sequences`` view: the constructor stacks the members it is given,
    :meth:`from_phases` takes a matrix as it is.  ``metadata`` records
    construction provenance and the correlation claims the set was built to
    satisfy; externally loaded sets carry ``{"construction": "external"}``.
    """

    modulus: int
    length: int
    phases: np.ndarray
    sequences: tuple[PhaseSequence, ...]
    metadata: dict = field(default_factory=dict)

    def __init__(self, sequences: Iterable[PhaseSequence], metadata: dict | None = None):
        sequences = tuple(sequences)
        if not sequences:
            raise ValueError("a sequence set needs at least one member")
        modulus, length = sequences[0].modulus, len(sequences[0])
        if any(s.modulus != modulus or len(s) != length for s in sequences):
            raise ValueError("all set members must share modulus and length")
        phases = np.stack([s.values for s in sequences])
        phases.flags.writeable = False
        self._hold(modulus, phases, metadata)

    @classmethod
    def from_phases(cls, modulus: int, phases: np.ndarray, metadata=None) -> "SequenceSet":
        """The set whose members are the rows of a read-only (M, L) int64 matrix.

        Nothing is copied or reduced: every entry must lie in [0, modulus),
        which :func:`check_phases` checks.
        """
        modulus = int(modulus)
        if modulus < 2:
            raise ValueError(f"modulus {modulus} must be >= 2")
        check_phases(phases, modulus)
        if not len(phases):
            raise ValueError("a sequence set needs at least one member")
        sset = object.__new__(cls)
        sset._hold(modulus, phases, metadata)
        return sset

    def _hold(self, modulus: int, phases: np.ndarray, metadata: dict | None) -> None:
        members = tuple(object.__new__(PhaseSequence) for _ in phases)
        for member, row in zip(members, phases):
            object.__setattr__(member, "modulus", modulus)
            object.__setattr__(member, "values", row)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "length", phases.shape[1])
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "sequences", members)
        object.__setattr__(self, "metadata", dict(metadata) if metadata else {})

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceSet):
            return NotImplemented
        return self.sequences == other.sequences


def in_phase_range(values: np.ndarray, modulus: int) -> bool:
    """True iff every entry of the int64 array ``values`` lies in [0, modulus).

    One max pass checks both ends of the range: read as uint64, a negative
    entry is at least 2^63, above every modulus.  An empty array is in range.
    """
    return int(values.view(np.uint64).max(initial=0)) < modulus


def check_phases(phases, modulus: int) -> None:
    """Raises unless ``phases`` is a read-only two-dimensional int64 matrix in [0, modulus)."""
    if not (isinstance(phases, np.ndarray) and phases.dtype == np.int64 and phases.ndim == 2
            and not phases.flags.writeable):
        raise ValueError("phases need a read-only two-dimensional int64 matrix")
    if not in_phase_range(phases, modulus):
        raise ValueError("sequence entries must lie in [0, lambda)")


def check_length(factors: Iterable[tuple[int, int]]) -> int:
    """Length prod p^m of ``factors``; raises if it exceeds ``MAX_LENGTH``.

    Factors with p < 2 or m < 1 are left to the caller's own checks.  A
    factor with m > 64 is over the cap, which is below 2^64; it is reported
    as ``p^m`` and p^m is never formed.
    """
    length = 1
    for p, m in factors:
        if p < 2 or m < 1:
            continue
        if m > 64:
            raise ValueError(f"sequence length {p}^{m} exceeds capacity limit {MAX_LENGTH}")
        length *= p**m
    if length > MAX_LENGTH:
        raise ValueError(f"sequence length {length} exceeds capacity limit {MAX_LENGTH}")
    return length


def check_modulus(modulus: int) -> int:
    """``modulus``; raises unless 2 <= modulus < ``MAX_MODULUS``, where int64 cannot overflow."""
    if modulus < 2:
        raise ValueError(f"modulus {modulus} must be >= 2")
    if modulus >= MAX_MODULUS:
        raise ValueError(f"modulus {modulus} must be below 2^31")
    return modulus


@functools.lru_cache(maxsize=256)
def _digit_tensor(domain: MixedDomain):
    """Shape of a domain's digit tensor, and each variable's (axis, digit index).

    The axes are the digit variables, most significant first, so the
    tensor's C-order ravel is the flat index order.  A digit index is
    arange(radix) along the variable's axis, broadcastable to the tensor.
    """
    variables = domain.variables()
    ndim = len(variables)
    index = {}
    for j, var in enumerate(variables):
        axis, p = ndim - 1 - j, domain.radix(var)
        digits = np.arange(p).reshape([p if i == axis else 1 for i in range(ndim)])
        digits.flags.writeable = False
        index[var] = (axis, digits)
    return tuple(domain.radix(v) for v in reversed(variables)), index


def materialize(f: MultivariableFunction) -> PhaseSequence:
    """Evaluate f at every flat index and return the phase sequence.

    f is evaluated on the digit tensor (see :func:`_digit_tensor`).  Each
    monomial and each tabulated component becomes a small table over its
    own axes; the tables are summed into a few groups of at most L/16
    entries, and each group is added over the tensor in one pass.  The
    tensor is the only L-sized array formed here; ``PhaseSequence`` reduces
    it mod lambda.

    Deterministic and order-stable: the same function always yields the
    identical array.  Raises before any work if the modulus is not below
    ``MAX_MODULUS`` (:func:`check_modulus`) or the domain length exceeds
    ``MAX_LENGTH`` (:func:`check_length`).
    """
    lam = check_modulus(f.modulus)
    L = check_length(f.domain.blocks)
    shape, index = _digit_tensor(f.domain)
    constant = f.constant
    tables = []  # (axes, table over those axes)
    for coeff, mono in f.terms:
        if not mono:
            constant += coeff
            continue
        t = coeff
        for var, exp in mono:
            axis, d = index[var]
            if exp > 1:  # digit**exp overflows int64; look up the power mod lambda
                d = np.array([pow(x, exp, lam) for x in range(shape[axis])])[d]
            t = t * d % lam
        tables.append(({index[var][0] for var, _ in mono}, t))
    for comp in f.tabulated:
        pos = 0
        weight = 1
        for var in comp.variables:
            axis, d = index[var]
            pos = pos + d * weight
            weight *= shape[axis]
        tables.append(({index[var][0] for var in comp.variables},
                       np.asarray(comp.table, dtype=np.int64)[pos]))

    # Largest table first, each joins the group it grows least.  A group may
    # grow to L/16 entries, so that summing into it costs a small part of
    # the pass over L it saves, or absorb a table over a subset of its axes.
    groups: list[list] = []  # [axes, table]
    for axes, table in sorted(tables, key=lambda t: -t[1].size):
        best, best_size = None, 0
        for g in groups:
            union = g[1].size * math.prod(map(shape.__getitem__, axes - g[0]))
            if union <= max(L // 16, g[1].size) and (best is None or union < best_size):
                best, best_size = g, union
        if best is None:
            groups.append([axes, table])
        else:
            best[0] |= axes
            best[1] = best[1] + table

    out = np.empty(shape, dtype=np.int64)
    first, *rest = [table for _, table in groups] or [0]
    np.add(first, constant, out=out)
    for table in rest:
        out += table
    return PhaseSequence(lam, out.reshape(L))  # reduces mod lambda


@functools.lru_cache(maxsize=None)
def _roots_of_unity(modulus: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(modulus) / modulus)
    roots.flags.writeable = False
    return roots


def unit_lift(values: np.ndarray, modulus: int) -> np.ndarray:
    """exp(2*pi*1j*x/lambda) of each phase x in 0..lambda-1.

    Looked up in a cached table of the lambda roots, which gives the same
    bits as evaluating each entry; evaluated directly when lambda exceeds
    the number of values (``values.size``, for an array of any shape), so a
    huge modulus allocates no table.
    """
    if modulus > values.size:
        return np.exp(2j * np.pi * values / modulus)
    return _roots_of_unity(modulus)[values]


def to_complex(s: PhaseSequence) -> np.ndarray:
    """Unit-circle lift entry x -> exp(2*pi*1j*x/lambda)."""
    return unit_lift(s.values, s.modulus)
