"""Aperiodic correlation and exact verification of complementarity claims.

Correlations of phase sequences are carried exactly: a correlation value is
a multiset of lambda-th roots of unity, stored as an integer count per
exponent (:class:`CyclotomicSum`).  Such a sum is exactly zero iff its
generating polynomial sum_j counts[j] x^j is divisible by the lambda-th
cyclotomic polynomial, the minimal polynomial of exp(2*pi*1j/lambda).  The
test multiplies the counts by the integer matrix of the residues
x^j mod Phi_lambda, so GCS / MSCS / type-II ZCS verdicts carry no floating
point tolerance.

Exact verification computes the residues r(tau) = counts @ R of every
tested shift at once (:func:`aacf_set_residues`).  The embedding sums
E_k(tau), the members' autocorrelations of w^(k*x) summed, are the Galois
conjugates sum_j r_j w^(kj) of the correlation value, so phi(lambda)/2 FFT
autocorrelations and one cached real phi x phi inverse give every residue
after rounding (:func:`_residue_table`); E_1 is the float sum itself.
Rounding is sound while :func:`_rounding_bound` stays below 1/2, so a
set past it is split into the fewest member groups under it
(:func:`_member_groups`), whose rounded residues are added.  A group's
largest rounding residual must stay within its bound, and the residue at
that shift must equal :func:`aacf_set_sum`'s, or ``RuntimeError`` is raised.

Transforms are sized by the tested lags (:func:`_lag_plan`): cut to the
window the shifts touch and split into polyphase rows by their gcd.

One rule separates floats from exact values: at every tested shift the
float k = 1 sum must lie within :func:`_embedding_bound` of the exact
value sum_j r_j w^j, plus the proven error of evaluating it
(:func:`_check_separation`), or ``RuntimeError`` is raised.  Moduli above
``EXACT_MODULUS_CAP`` have no residues: a sum counts as zero when its
magnitude is within :func:`_embedding_bound`, and the report's ``mode``
is "numerical" instead of "exact".

A :class:`CorrelationReport` keeps the verdict of every tested shift as
the arrays they are computed in (:class:`ShiftChecks`): the tested
shifts, the exact zero flags and the float magnitudes.  A
:class:`ShiftCheck` is built only for an entry that is read, so a report
over every shift of a near-cap set costs no Python object per shift.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .constructions import kronecker_compose
from .seqcore import PhaseSequence, SequenceSet, to_complex, unit_lift

EXACT_MODULUS_CAP = 1000
ZERO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CyclotomicSum:
    """An integer combination sum_j counts[j] * w^j of lambda-th roots of unity."""

    modulus: int
    counts: np.ndarray

    def __init__(self, modulus: int, counts):
        modulus = int(modulus)
        if modulus < 1:
            raise ValueError(f"modulus {modulus} must be >= 1")
        arr = np.asarray(counts, dtype=np.int64)
        if arr.shape != (modulus,):
            raise ValueError(f"counts must have length {modulus}, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "counts", arr)

    @classmethod
    def zero(cls, modulus: int) -> "CyclotomicSum":
        return cls(modulus, np.zeros(modulus, dtype=np.int64))

    def _coerce(self, other) -> np.ndarray:
        if not isinstance(other, CyclotomicSum):
            raise TypeError("expected a CyclotomicSum")
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        return other.counts

    def __add__(self, other):
        return CyclotomicSum(self.modulus, self.counts + self._coerce(other))

    def __sub__(self, other):
        return CyclotomicSum(self.modulus, self.counts - self._coerce(other))

    def __neg__(self):
        return CyclotomicSum(self.modulus, -self.counts)

    def __mul__(self, other):
        """Product of sums: cyclic convolution of counts, exponents mod lambda."""
        b = self._coerce(other)
        lam = self.modulus
        out = np.zeros(lam, dtype=np.int64)
        for j in np.nonzero(self.counts)[0]:
            out += self.counts[j] * np.roll(b, j)
        return CyclotomicSum(lam, out)

    def conjugate(self) -> "CyclotomicSum":
        """Complex conjugate: exponent j becomes -j mod lambda."""
        idx = (-np.arange(self.modulus)) % self.modulus
        return CyclotomicSum(self.modulus, self.counts[idx])

    def value(self) -> complex:
        """Numeric evaluation in complex doubles."""
        w = np.exp(2j * np.pi * np.arange(self.modulus) / self.modulus)
        return complex(np.dot(self.counts, w))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.counts, other.counts)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by exact division of x^n - 1 by the product of all lower
    cyclotomic polynomials at divisors of n.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index {n} must be >= 1")
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, ascending; den must be monic."""
    dd = len(den) - 1
    rem = list(num) + [0] * max(0, dd - len(num))
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, dc in enumerate(den):
                rem[i - dd + j] -= c * dc
    return quot, rem[:dd]


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact quotient of integer polynomials; den must be monic and divide num."""
    quot, rem = _poly_divmod(num, den)
    if any(rem):
        raise ValueError("polynomial division left a remainder")
    return quot


@functools.lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> tuple[np.ndarray, int]:
    """Row j holds x^j mod Phi_n (n x phi(n), int64); also the largest |entry|."""
    phi = cyclotomic_polynomial(n)
    rows = [_poly_divmod([0] * j + [1], phi)[1] for j in range(n)]
    matrix = np.array(rows, dtype=np.int64).reshape(n, len(phi) - 1)
    matrix.flags.writeable = False
    return matrix, int(np.abs(matrix).max(initial=0))


def is_zero(s: CyclotomicSum | np.ndarray):
    """Exact test of sum_j counts[j] * w^j == 0.

    True iff the counts polynomial is divisible by the lambda-th cyclotomic
    polynomial: w is a root of a rational polynomial exactly when its
    minimal polynomial divides it.  The remainder is counts @ R, R holding
    x^j mod Phi_lambda, so it stays in integers.  Accepts one
    :class:`CyclotomicSum` (returns a bool) or an integer array of count
    vectors along its last axis, whose length is lambda (returns a bool
    array).  When max|R| * sum|counts| could overflow int64 the product is
    taken in Python integers.
    """
    counts = s.counts if isinstance(s, CyclotomicSum) else np.asarray(s, dtype=np.int64)
    matrix, largest = _reduction_matrix(counts.shape[-1])
    size = np.add.reduce(np.abs(counts, dtype=np.float64), axis=-1)
    if largest * np.maximum.reduce(size, axis=None, initial=0.0) < 2.0**62:
        rem = counts @ matrix
    else:
        rem = counts.astype(object) @ matrix.astype(object) != 0
    zero = np.logical_not(np.logical_or.reduce(rem, axis=-1))
    return bool(zero) if counts.ndim == 1 else zero


def _check_pair(a: PhaseSequence, b: PhaseSequence, tau: int) -> int:
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    L = len(a)
    if abs(tau) >= L:
        raise ValueError(f"shift {tau} out of range for length {L}")
    return L


def accf_exact(a: PhaseSequence, b: PhaseSequence, tau: int) -> CyclotomicSum:
    """Aperiodic cross-correlation sum_i w^(a_i - b_{i+tau}) as exact counts.

    For tau >= 0 the window is i = 0 .. L-1-tau; for negative tau it is the
    mirrored sum_i w^(a_{i-tau} - b_i).  Exactly L - |tau| terms are counted.
    """
    L = _check_pair(a, b, tau)
    lam = a.modulus
    if tau >= 0:
        diffs = (a.values[: L - tau] - b.values[tau:]) % lam
    else:
        diffs = (a.values[-tau:] - b.values[: L + tau]) % lam
    return CyclotomicSum(lam, np.bincount(diffs, minlength=lam))


def accf_float(a: PhaseSequence, b: PhaseSequence, tau: int) -> complex:
    """Aperiodic cross-correlation evaluated directly in complex doubles."""
    L = _check_pair(a, b, tau)
    ca, cb = to_complex(a), to_complex(b)
    if tau >= 0:
        return complex(np.dot(ca[: L - tau], np.conj(cb[tau:])))
    return complex(np.dot(ca[-tau:], np.conj(cb[: L + tau])))


def aacf_set_sum(sset: SequenceSet, tau: int) -> CyclotomicSum:
    """Entrywise sum of the members' autocorrelations at one shift.

    Each term x_i - x_{i+tau} is counted by its code x_i + (lambda - x_{i+tau})
    in [1, 2*lambda - 1], which no reduced int64 phase pair overflows, and
    the 2*lambda bins are folded mod lambda.  Members are counted one at a
    time, so the temporaries hold one member's L - |tau| codes.
    """
    L = sset.length
    if abs(tau) >= L:
        raise ValueError(f"shift {tau} out of range for length {L}")
    lam = sset.modulus
    lead, lag = (slice(0, L - tau), slice(tau, L)) if tau >= 0 else (slice(-tau, L),
                                                                      slice(0, L + tau))
    bins = np.zeros(2 * lam, dtype=np.int64)
    for s in sset.sequences:
        codes = lam - s.values[lag]
        codes += s.values[lead]
        bins += np.bincount(codes, minlength=2 * lam)
    return CyclotomicSum(lam, bins[:lam] + bins[lam:])


@functools.lru_cache(maxsize=None)
def _fft_length(L: int) -> int:
    """Smallest 7-smooth n >= 2L - 1: long enough for aperiodic correlation.

    Every such length is planned by pocketfft as radix passes of at most 7
    points, which is what :func:`_embedding_bound` assumes.
    """
    target = max(2 * L - 1, 1)
    best = 1 << (target - 1).bit_length()
    p7 = 1
    while p7 < best:
        p57 = p7
        while p57 < best:
            p357 = p57
            while p357 < best:
                # smallest p357 * 2^a >= target
                best = min(best, p357 << (-(-target // p357) - 1).bit_length())
                p357 *= 3
            p57 *= 5
        p7 *= 7
    return best


def _lag_plan(L: int, shifts: Sequence[int]) -> tuple[int, int, int]:
    """Transforms that give a length-L autocorrelation at these shifts: (drop, g, n).

    Window.  With tau_min the smallest shift and h = L - tau_min, a tested
    pair (i, i + tau) has i < h and i + tau >= L - h, so only the head
    c[:h] and the tail c[L-h:] take part.  When 2h < L the drop = L - 2h
    entries between them are cut out: in head || tail, shift tau becomes the
    lag tau - drop >= h, at which every pair still joins a head entry to a
    tail entry.  Otherwise drop = 0 and the window is the whole sequence.

    Stride.  g is the gcd of the lags tau - drop (1 if they are all 0).  The
    window's entries r, r + g, r + 2g, ... form g polyphase rows of
    ceil((L - drop) / g) entries, and the window's autocorrelation at lag
    g*m is the sum of the rows' at lag m.  n = :func:`_fft_length` of a row.

    For GCS, and every shift set with tau_min <= L/2 and g = 1, the plan is
    (0, 1, _fft_length(L)).  A range is planned from its first two and last
    entries, which have its minimum and the gcd of its lags.
    """
    if isinstance(shifts, range):
        shifts = [*shifts[:2], *shifts[-1:]]
    h = L - int(min(shifts, default=0))
    drop = max(L - 2 * h, 0)
    g = math.gcd(*(int(tau) - drop for tau in shifts)) or 1
    return drop, g, _fft_length(-(-(L - drop) // g))


def _sum_rows(power: np.ndarray) -> np.ndarray:
    """Sum of the rows of a 2-d array, added in place as a balanced tree.

    Every row takes part in at most ceil(log2(rows)) additions, the
    ceil(log2 g)*u of :func:`_embedding_bound`.  One row is returned as is.
    """
    rows = len(power)
    while rows > 1:
        half = rows // 2
        power[:half] += power[rows - half:rows]
        rows -= half
    return power[0]


def _lift_sums(sset: SequenceSet, ks: Sequence[int], shifts: Sequence[int]) -> np.ndarray:
    """Sum over members of the autocorrelation of w^(k*x) at each shift, one row per k.

    Row k = 1 is the float autocorrelation sum of the set.  The transforms
    are sized by the tested lags (:func:`_lag_plan`): each member's lift is
    cut to its window and laid out as a (g, n) grid of zero-padded
    polyphase rows, one FFT per row.  The power spectra are summed over
    members, then over the g rows pairwise (:func:`_sum_rows`), before one
    length-n inverse FFT per embedding, read at lag (tau - drop) / g.  With
    the plan (0, 1, _fft_length(L)) this is one whole-sequence FFT per
    member.  The phases are already reduced, so k = 1 lifts them as they
    are.
    """
    L, lam = sset.length, sset.modulus
    drop, g, n = _lag_plan(L, shifts)
    head = (L - drop) // 2
    cols, rem = divmod(L - drop, g)
    lags = (np.asarray(shifts, dtype=np.intp) - drop) // g
    grid = np.zeros((g, n), dtype=complex)
    power = np.empty((g, n))
    out = np.empty((len(ks), len(lags)), dtype=complex)
    for row, k in enumerate(ks):
        power.fill(0.0)
        for s in sset.sequences:
            x = np.concatenate((s.values[:head], s.values[head + drop:])) if drop else s.values
            lift = unit_lift(x if k == 1 else (k * x) % lam, lam)
            # entry q*g + r of the window goes to row r, column q
            grid[:, :cols] = lift[:cols * g].reshape(cols, g).T
            if rem:
                grid[:rem, cols] = lift[cols * g:]
            spec = np.fft.fft(grid)
            power += spec.real**2 + spec.imag**2
            # freed before the next member's lift and transform are allocated
            del lift, spec
        # ifft(power)[t] = sum_i c_{i+t} conj(c_i); the definition conjugates the lagged copy
        out[row] = np.conj(np.fft.ifft(_sum_rows(power))[lags])
    return out


_UNIT_ROUNDOFF = 2.0**-53


def _embedding_bound(M: int, L: int) -> float:
    """A-priori bound on |computed - exact| of every embedding sum E_k(tau).

    With u = 2^-53 and n = :func:`_fft_length` (L) the bound is
    u*M*L*(24*log2(n) + M + 53).  It covers every plan (drop, g, n') of
    :func:`_lag_plan`, whose sums err by at most
    u*M*L'*(24*log2(n') + ceil(log2(g)) + M + 53) over the L' = L - drop
    window entries, collecting to first order in u:

    * Transforms.  n' is 7-smooth, so pocketfft plans it as radix-r passes
      with r <= 7.  A radix-r pass forms each output from r inputs and
      unit-modulus twiddles, erring by at most (r + 6)u against the l1 norm
      of its inputs (and relatively in l2).  (r + 6)/log2(r) <= 8 for
      r <= 7, and every output of a DFT is reached from every input along
      exactly one path of unit weight, so a length-n' transform errs by at
      most eps = 8u*log2(n') per output against the l1 norm of its input,
      and by eps relatively in l2.
    * Forward.  A row holds L_r entries of modulus 1, each within 24u of
      its root of unity, so ||X_r||_2^2 = n'*L_r and
      ||dX_r||_2 <= (eps + 24u)||X_r||_2.
    * Power spectra |X_r|^2 (3u), summed over M members ((M - 1)u) and then
      over the g rows pairwise (ceil(log2(g))u, :func:`_sum_rows`); the L_r
      add up to L', so ||dP||_1 <= (2 eps + 51u + (M - 1)u +
      ceil(log2(g))u) * n'*M*L'.
    * Inverse, scaled by 1/n' (2u): an output errs by at most eps*M*L'
      (sum P = n'*M*L') plus ||dP||_1 / n'.

    The plan's bound is at most the full-length one, as L' <= L and
    24*log2(n') + ceil(log2(g)) <= 24*log2(n).  For g = 1,
    n' = _fft_length(L') <= n.  For g >= 2 some lag is a nonzero multiple
    of g below L', so a row has up to Q = ceil(L'/g) >= 2 entries,
    L >= g(Q - 1) + 1 and n >= 2L - 1 >= 2g(Q - 1) + 1.  If Q = 2, n' = 3
    and n/n' >= (2g + 1)/3.  If Q >= 3, n' <= 5(2Q - 1)/4, because the
    7-smooth numbers 2^a * (1, 5/4, 3/2, 7/4) from 4 on step by ratios of
    at most 5/4; so n/n' >= 8g(Q - 1)/(5(2Q - 1)) >= 16g/25.  For g >= 2
    both ratios exceed (2g)^(1/24) >= 2^(ceil(log2(g))/24).

    Sums of G member groups of M_g members (:func:`_member_groups`), added
    in turn, are covered too: the groups' bounds and the G - 1 additions
    (u*M*L each) add up to at most the bound, as M_g >= 1 gives
    sum_g M_g*(M - M_g) >= sum_g (M - M_g) = (G - 1)*M.
    """
    n = _fft_length(L)
    return _UNIT_ROUNDOFF * M * L * (24 * math.log2(n) + M + 53)


@functools.lru_cache(maxsize=None)
def _residue_table(lam: int) -> tuple[tuple[int, ...], np.ndarray, float, float]:
    """Embeddings ks, table W with residues = [Re E_k, Im E_k over ks] @ W, and error constants.

    ks are the units k of Z/lambda with k <= lambda/2, one per conjugate
    pair (k = 1 alone for lambda = 2, whose Im E_1 is zero and is dropped):
    phi(lambda)/2 embeddings.  W inverts the real phi x phi matrix B with
    B[j, (cos|sin) k] = cos|sin(2*pi*k*j/lambda), j < phi(lambda), which
    maps a residue r to [Re, Im] of its conjugates E_k = sum_j r_j w^(kj).

    Also returned: c, the largest column l1 norm of W, and the constant
    ``extra`` of :func:`_rounding_bound`.
    """
    phi = len(cyclotomic_polynomial(lam)) - 1
    ks = tuple(k for k in range(1, lam // 2 + 1) if math.gcd(k, lam) == 1)
    angle = 2 * np.pi * ((np.arange(phi)[:, None] * np.array(ks)) % lam) / lam
    basis = np.concatenate([np.cos(angle), np.sin(angle)], axis=1)[:, :phi]
    table = np.linalg.inv(basis)
    table.flags.writeable = False
    c = float(np.abs(table).sum(axis=0).max())
    off = float(np.abs(np.eye(phi) - basis @ table).max())
    rho = int(np.abs(_reduction_matrix(lam)[0]).sum(axis=1).max())
    extra = phi * c + rho * (off / _UNIT_ROUNDOFF + (phi + 24) * c)
    return ks, table, c, extra


def _rounding_bound(M: int, L: int, lam: int) -> float:
    """A-priori bound on |computed - exact| of every all-shift residue before rounding.

    The bound is c*B + u*M*L*extra, B = :func:`_embedding_bound`, with c
    and extra from :func:`_residue_table`.  A residue is r = e @ W for the
    exact [Re E_k, Im E_k] row e; the computed one is fl(e' @ W'), with e'
    the computed sums and W' the computed table:

    * Propagation.  |e' - e| <= B per entry, so at most c*B.
    * Solve.  The phi-term dot product errs by phi*u * sum|W'||e'| <=
      phi*u*c*M*L, as |E_k(tau)| <= M*L.
    * Table.  e @ (W - W') = r @ (I - B @ W') with B the exact matrix,
      and ||r||_1 <= rho*M*L, rho the largest l1 norm of a row of R.  An
      entry of |I - B @ W'| is at most the largest entry ``off`` of the
      computed |I - B' @ W'|, plus phi*u*c for computing it, plus 24u*c
      (B' entries lie within 24u of B), so this term is at most
      rho*M*L*(off + (phi + 24)*u*c).

    c is at most 2.96 for lambda <= 60 (4.67 at lambda = 105).  Below 1/2
    the bound guarantees that rint recovers every residue; the neglected
    second-order terms are then smaller by a factor of about 10^13.
    """
    _, _, c, extra = _residue_table(lam)
    return c * _embedding_bound(M, L) + _UNIT_ROUNDOFF * M * L * extra


def _member_groups(M: int, L: int, lam: int) -> list[slice]:
    """Fewest consecutive member slices whose own :func:`_rounding_bound` is below 1/2.

    Each holds the largest such member count but the last, which holds the
    rest.  One member's bound at ``MAX_LENGTH`` is at most 1.03e-3 for every
    lambda <= ``EXACT_MODULUS_CAP``, so a grouping exists up to that length.
    A set under the bound as a whole is one group, found without a search.
    """
    if _rounding_bound(M, L, lam) < 0.5:
        return [slice(0, M)]
    size = bisect.bisect_left(range(1, M + 1), True,
                              key=lambda m: _rounding_bound(m, L, lam) >= 0.5)
    if not size:
        raise ValueError("FFT rounding bound reaches 1/2 for a single member")
    return [slice(start, min(start + size, M)) for start in range(0, M, size)]


def _residues_from_lift_sums(sset: SequenceSet, shifts: Sequence[int],
                             sums: np.ndarray) -> np.ndarray:
    """Exact residues counts @ R, one row per shift, from the embedding sums of ks.

    ``sums`` holds one row per k of :func:`_residue_table`.  Raises
    RuntimeError when the largest rounding residual exceeds
    :func:`_rounding_bound`, or the residue of the shift with the largest
    residual differs from that of :func:`aacf_set_sum`.
    """
    lam = sset.modulus
    _, table, _, _ = _residue_table(lam)
    phi = table.shape[0]
    approx = np.concatenate([sums.real, sums.imag])[:phi].T @ table
    rounded = np.rint(approx)
    residues = rounded.astype(np.int64)
    if len(shifts):
        residual = np.abs(approx - rounded).max(axis=1)
        i = int(np.argmax(residual))
        bound = _rounding_bound(len(sset), sset.length, lam)
        if residual[i] > bound:
            raise RuntimeError(f"all-shift rounding residual {residual[i]:.3e} "
                               f"exceeds its bound {bound:.3e}")
        tau = int(shifts[i])
        # x^j mod Phi_lambda is x^j for j < phi, so the residue read as
        # counts is the same element of Z[w]
        as_counts = CyclotomicSum(lam, np.pad(residues[i], (0, lam - phi)))
        if not is_zero(aacf_set_sum(sset, tau) - as_counts):
            raise RuntimeError(f"all-shift residues disagree with aacf_set_sum at shift {tau}")
    return residues


def _grouped_sums(sset: SequenceSet, shifts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Embedding sums of the ks of :func:`_residue_table` and exact residues, added over groups."""
    ks = _residue_table(sset.modulus)[0]
    sums = residues = 0
    for group in _member_groups(len(sset), sset.length, sset.modulus):
        part = SequenceSet(sset.sequences[group])
        part_sums = _lift_sums(part, ks, shifts)
        residues = residues + _residues_from_lift_sums(part, shifts, part_sums)
        sums = sums + part_sums
    return sums, residues


def aacf_set_residues(sset: SequenceSet, shifts: Sequence[int]) -> np.ndarray:
    """Residues of the set autocorrelation sum at many shifts 0 <= tau < L.

    Row i equals ``aacf_set_sum(sset, shifts[i]).counts @ R``, R holding
    x^j mod Phi_lambda, so the sum is zero exactly when its row is.  All
    rows come from FFT embeddings per member group (:func:`_grouped_sums`).
    """
    L = sset.length
    if any(not 0 <= tau < L for tau in shifts):
        raise ValueError(f"shifts must lie in [0, {L})")
    return _grouped_sums(sset, shifts)[1]


def _check_separation(floats: np.ndarray, residues: np.ndarray, lam: int, bound: float,
                      shifts: Sequence[int]) -> None:
    """Raise unless each float k = 1 sum lies within its proven bound of sum_j r_j w^j.

    The float sum errs by at most ``bound`` (:func:`_embedding_bound`).  The
    exact value, taken as two real phi-term dot products of the integers r
    with roots within 24u of w^j, errs by at most (24 + 2*phi)*u*sum|r_j|
    in any summation order; the comparison adds second-order terms only.
    """
    phi = residues.shape[1]
    roots = unit_lift(np.arange(phi), lam)
    error = np.abs(floats - residues @ roots.real - 1j * (residues @ roots.imag))
    slack = bound + (24 + 2 * phi) * _UNIT_ROUNDOFF * np.abs(residues).sum(axis=1)
    if (error > slack).any():
        i = int(np.argmax(error > slack))
        raise RuntimeError(f"exact/float separation violated at shift {shifts[i]}: "
                           f"|float - exact| = {error[i]:.3e} exceeds its bound {slack[i]:.3e}")


@dataclass(frozen=True)
class ShiftCheck:
    """Verdict at one shift: exact zero flag plus float magnitude."""

    shift: int
    exact_zero: bool
    magnitude: float


class ShiftChecks(Sequence[ShiftCheck]):
    """The verdicts of a verification run, held as arrays.

    ``tested`` is the int64 array of tested shifts, ``zeros`` the bool
    array of exact zero flags and ``magnitudes`` the float array of
    |float sum|, one entry per shift; each is a read-only view of the
    array passed in.  A :class:`ShiftCheck` is built only when an entry is
    indexed, sliced (a slice is a tuple of checks) or iterated; ``len``
    reads the arrays.  The checks compare and hash as the tuple of the same
    :class:`ShiftCheck`s would.
    """

    __slots__ = ("tested", "zeros", "magnitudes")

    def __init__(self, tested, zeros, magnitudes):
        arrays = [np.asarray(a, dtype=t).view()
                  for a, t in ((tested, np.int64), (zeros, bool), (magnitudes, float))]
        for a in arrays:
            a.flags.writeable = False
        self.tested, self.zeros, self.magnitudes = arrays

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(ShiftCheck, self.tested[index].tolist(), self.zeros[index].tolist(),
                             self.magnitudes[index].tolist()))
        return ShiftCheck(int(self.tested[index]), bool(self.zeros[index]),
                          float(self.magnitudes[index]))

    def __iter__(self):
        return map(ShiftCheck, self.tested.tolist(), self.zeros.tolist(),
                   self.magnitudes.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (ShiftChecks, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of a GCS / MSCS / type-II ZCS verification run.

    ``mode`` names how the verdicts were reached: "exact" residues, or
    "numerical" float sums within :func:`_embedding_bound` for moduli above
    ``EXACT_MODULUS_CAP``.  ``shifts`` holds the verdicts of every tested
    shift as arrays (:class:`ShiftChecks`), and ``passed`` and
    ``failing_shifts`` read them without building a :class:`ShiftCheck`
    per shift.
    """

    claim: str
    parameter: int | None
    set_size: int
    length: int
    modulus: int
    mode: str
    shifts: ShiftChecks

    @property
    def passed(self) -> bool:
        return bool(self.shifts.zeros.all())

    @property
    def failing_shifts(self) -> tuple[int, ...]:
        return tuple(self.shifts.tested[~self.shifts.zeros].tolist())


def _verify(sset: SequenceSet, shifts: range, claim: str,
            parameter: int | None) -> CorrelationReport:
    lam = sset.modulus
    numerical = lam > EXACT_MODULUS_CAP
    bound = _embedding_bound(len(sset), sset.length)
    if numerical:
        floats = _lift_sums(sset, (1,), shifts)[0]
        zeros = np.abs(floats) <= bound
    else:
        sums, residues = _grouped_sums(sset, shifts)
        floats = sums[0]
        zeros = ~residues.any(axis=1)
        _check_separation(floats, residues, lam, bound, shifts)
    return CorrelationReport(
        claim=claim,
        parameter=parameter,
        set_size=len(sset),
        length=sset.length,
        modulus=lam,
        mode="numerical" if numerical else "exact",
        shifts=ShiftChecks(np.arange(shifts.start, shifts.stop, shifts.step), zeros,
                           np.abs(floats)),
    )


def verify_mscs(sset: SequenceSet, S: int) -> CorrelationReport:
    """Check sum of member AACFs vanishes at every nonzero multiple of S.

    Negative shifts follow from conjugate symmetry, so only 0 < tau < L is
    tested.  Failures are report content; nothing raises on a bad set.
    """
    L = sset.length
    if not (1 <= S < L):
        raise ValueError(f"S={S} must satisfy 1 <= S < L={L}")
    return _verify(sset, range(S, L, S), "MSCS", S)


def verify_gcs(sset: SequenceSet) -> CorrelationReport:
    """Check sum of member AACFs vanishes at every nonzero shift."""
    L = sset.length
    if L < 2:
        raise ValueError("GCS verification needs length >= 2")
    return _verify(sset, range(1, L), "GCS", None)


def verify_type2_zcs(sset: SequenceSet, Z: int) -> CorrelationReport:
    """Check sum of member AACFs vanishes in the tail band L-Z < tau < L."""
    L = sset.length
    if not (1 <= Z < L):
        raise ValueError(f"Z={Z} must satisfy 1 <= Z < L={L}")
    return _verify(sset, range(L - Z + 1, L), "ZCS", Z)


def _accf_or_zero(x: PhaseSequence, tau: int) -> CyclotomicSum:
    if abs(tau) >= len(x):
        return CyclotomicSum.zero(x.modulus)
    return accf_exact(x, x, tau)


def _accf_float_or_zero(x: PhaseSequence, tau: int) -> complex:
    if abs(tau) >= len(x):
        return 0j
    return accf_float(x, x, tau)


def kronecker_accf_identity_check(a: PhaseSequence, b: PhaseSequence, tau: int) -> bool:
    """Check the correlation split of a Kronecker product against direct computation.

    With q = tau // L2 and r = tau % L2 (L2 = len(b)), the autocorrelation
    of the composed sequence satisfies

        rho(a (x) b)(tau) = rho(a)(q) rho(b)(r) + rho(a)(q+1) rho(b)(r - L2)

    where the second term is present only when r != 0 and out-of-range
    shifts contribute zero.  Floor division extends the split to negative
    shifts unchanged.  The identity is checked exactly through count
    vector convolution and in floats within ``ZERO_TOL``; both must hold.
    """
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    L2 = len(b)
    total = len(a) * L2
    if not (-total < tau < total):
        raise ValueError(f"shift {tau} out of range for composed length {total}")
    q, r = divmod(tau, L2)
    composed = kronecker_compose(a, b)

    lhs_f = accf_float(composed, composed, tau)
    rhs_f = _accf_float_or_zero(a, q) * _accf_float_or_zero(b, r)
    if r != 0:
        rhs_f += _accf_float_or_zero(a, q + 1) * _accf_float_or_zero(b, r - L2)
    float_ok = abs(lhs_f - rhs_f) <= ZERO_TOL

    if a.modulus > EXACT_MODULUS_CAP:
        return float_ok

    lhs = accf_exact(composed, composed, tau)
    rhs = _accf_or_zero(a, q) * _accf_or_zero(b, r)
    if r != 0:
        rhs = rhs + _accf_or_zero(a, q + 1) * _accf_or_zero(b, r - L2)
    return float_ok and is_zero(lhs - rhs)
