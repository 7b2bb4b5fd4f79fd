"""Aperiodic correlation and exact verification of complementarity claims.

Correlations of phase sequences are carried exactly: a correlation value is
a multiset of lambda-th roots of unity, stored as its count vector: a
read-only int64 array of length lambda whose entry j counts the terms w^j,
w = exp(2*pi*1j/lambda).  Such a sum is exactly zero iff its generating
polynomial sum_j counts[j] x^j is divisible by the lambda-th cyclotomic
polynomial, the minimal polynomial of w.  The test divides each count
vector by Phi_lambda once, in Python integers (:func:`is_zero`), so it
carries no floating point tolerance.

Verification decides every tested shift from FFT autocorrelations.  The
embedding sums E_k(tau), the members' autocorrelations of w^(k*x)
summed (:func:`_lift_sums`), are the Galois conjugates of the
correlation value; the units k <= lambda/2 give one per conjugate pair,
phi(lambda)/2 embeddings, and E_1 is the float sum itself.  Each computed
sum lies within one a-priori bound B of its exact value
(:func:`_embedding_bound`).  A nonzero cyclotomic integer has a conjugate
of modulus at least 1, so while B < 1/2 a shift is zero exactly when
max_k |E_k(tau)| <= B (:func:`_verify` derives it).  A maximum between B
and 1 - B, or a verdict that one :func:`aacf_set_sum` + :func:`is_zero`
cross-check contradicts, raises ``RuntimeError``; a set whose B reaches
1/2 is refused with ``ValueError`` before any transform.

Transforms are sized by the tested lags (:func:`_lag_plan`): cut to the
window the shifts touch and split into polyphase rows by their gcd.

Moduli above ``EXACT_MODULUS_CAP`` take the k = 1 embedding alone: a sum
counts as zero when its magnitude is within B, and the report's ``mode``
is "numerical" instead of "exact".

A :class:`CorrelationReport` keeps the verdicts of the tested shifts as
the read-only arrays they are computed in: the shifts, the exact zero
flags and the float magnitudes, so a report over every shift of a
near-cap set holds no Python object per shift.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .constructions import kronecker_compose
from .seqcore import (PhaseSequence, SequenceSet, _prime_factors, _roots_of_unity, to_complex,
                      unit_lift)

EXACT_MODULUS_CAP = 1000


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed as the Moebius product Phi_n = prod_{d | n} (x^d - 1)^mu(n/d):
    mu(n/d) is nonzero only for d = n/e, e a product of distinct primes of
    n, and is (-1)^(number of those primes).  The binomials with mu = 1 are
    multiplied in, then those with mu = -1 divided out exactly, each in
    one linear pass.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index {n} must be >= 1")
    primes = sorted(set(_prime_factors(n)))
    poly, divisors = [1], []
    for count in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, count):
            d = n // math.prod(chosen)
            if count % 2:
                divisors.append(d)
                continue
            # times x^d - 1: entry i of the shifted copy less entry i + d of it
            poly = [0] * d + poly
            for i in range(len(poly) - d):
                poly[i] -= poly[i + d]
    for d in divisors:
        # synthetic division by x^d - 1: the quotient ends in poly[d:]
        for i in range(len(poly) - 1, d - 1, -1):
            poly[i - d] += poly[i]
        if any(poly[:d]):
            raise ValueError("polynomial division left a remainder")
        poly = poly[d:]
    return tuple(poly)


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, ascending; den must be monic."""
    dd = len(den) - 1
    rem = list(num) + [0] * max(0, dd - len(num))
    quot = [0] * (len(rem) - dd)
    terms = [(j, dc) for j, dc in enumerate(den) if dc]
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, dc in terms:
                rem[i - dd + j] -= c * dc
    return quot, rem[:dd]


def is_zero(counts) -> bool | np.ndarray:
    """Exact test of sum_j counts[j] * w^j == 0 for count vectors of length lambda.

    True iff the counts polynomial is divisible by the lambda-th cyclotomic
    polynomial: w is a root of a rational polynomial exactly when its
    minimal polynomial divides it.  Each vector is divided by Phi_lambda
    once, in Python integers, so the remainder cannot overflow.  One
    count vector gives a bool; count vectors stacked along the last axis
    give a bool array of the leading shape.
    """
    counts = np.asarray(counts, dtype=np.int64)
    lam = counts.shape[-1]
    phi = cyclotomic_polynomial(lam)
    zero = [not any(_poly_divmod(row, phi)[1]) for row in counts.reshape(-1, lam).tolist()]
    return zero[0] if counts.ndim == 1 else np.array(zero, dtype=bool).reshape(counts.shape[:-1])


def _check_pair(a: PhaseSequence, b: PhaseSequence, tau: int) -> int:
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    L = len(a)
    if abs(tau) >= L:
        raise ValueError(f"shift {tau} out of range for length {L}")
    return L


def accf_exact(a: PhaseSequence, b: PhaseSequence, tau: int) -> np.ndarray:
    """Aperiodic cross-correlation sum_i w^(a_i - b_{i+tau}) as its count vector.

    For tau >= 0 the window is i = 0 .. L-1-tau; for negative tau it is the
    mirrored sum_i w^(a_{i-tau} - b_i).  Exactly L - |tau| terms are
    counted: entry j of the read-only int64 vector of length lambda counts
    the differences equal to j mod lambda.
    """
    L = _check_pair(a, b, tau)
    lam = a.modulus
    if tau >= 0:
        diffs = (a.values[: L - tau] - b.values[tau:]) % lam
    else:
        diffs = (a.values[-tau:] - b.values[: L + tau]) % lam
    counts = np.bincount(diffs, minlength=lam).astype(np.int64, copy=False)
    counts.flags.writeable = False
    return counts


def accf_float(a: PhaseSequence, b: PhaseSequence, tau: int) -> complex:
    """Aperiodic cross-correlation evaluated directly in complex doubles."""
    L = _check_pair(a, b, tau)
    ca, cb = to_complex(a), to_complex(b)
    if tau >= 0:
        return complex(np.dot(ca[: L - tau], np.conj(cb[tau:])))
    return complex(np.dot(ca[-tau:], np.conj(cb[: L + tau])))


def aacf_set_sum(sset: SequenceSet, tau: int) -> np.ndarray:
    """Sum of the members' autocorrelations at one shift, as its count vector.

    A read-only int64 vector of length lambda, the sum of the members'
    :func:`accf_exact` vectors, M * (L - |tau|) terms in all.  Members are
    counted one at a time, so the temporaries hold one member's L - |tau|
    differences.
    """
    counts = np.zeros(sset.modulus, dtype=np.int64)
    for x in sset:
        counts += accf_exact(x, x, tau)
    counts.flags.writeable = False
    return counts


def _cyclic_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Count vector of the product of two sums: exponents added mod lambda, in int64."""
    full = np.convolve(x, y)
    full[: len(x) - 1] += full[len(x):]
    return full[: len(x)]


@functools.lru_cache(maxsize=None)
def _fft_length(L: int) -> int:
    """Smallest 7-smooth n >= 2L - 1: long enough for aperiodic correlation.

    Every such length is planned by pocketfft as radix passes of at most 7
    points, which is what :func:`_embedding_bound` assumes.
    """
    n = max(2 * L - 1, 1)
    while True:
        rest = n
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


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


# complex grid points of one transform call in _lift_sums (see its docstring)
_CHUNK_POINTS = 2**16
# per-embedding transform points M*g*n from which _lift_sums runs worker threads:
# below about 4.4M points (g = 1) and about 10M (19683 rows of 54) two threads
# were slower than one on a 2-CPU host, and above 2^24 every measured plan gained
_PARALLEL_POINTS = 2**24
# each worker holds its own grid, square buffer and pocketfft's scratch, at
# least 78 MB at the length cap; 2 is the most workers any host has timed
_MAX_WORKERS = 2


def _chunk_plan(M: int, g: int, n: int) -> tuple[range, int]:
    """First members of the chunks of M (g, n) blocks, and the threads that transform them.

    One thread below ``_PARALLEL_POINTS`` transform points M*g*n; from
    there one per CPU this process may run on, at most one per chunk and
    ``_MAX_WORKERS``.
    """
    starts = range(0, M, max(1, _CHUNK_POINTS // (g * n)))
    if M * g * n < _PARALLEL_POINTS:
        return starts, 1
    # sched_getaffinity exists on Linux only; elsewhere every CPU counts
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return starts, min(cpus or 1, len(starts), _MAX_WORKERS)


def _map_in_order(fn, items: Sequence, workers: int) -> Iterator:
    """Yield fn(slot, item) for each item, in item order, on ``workers`` threads.

    Items go out in groups of ``workers``, item j of a group with slot j,
    and the next group starts once the caller has taken this group's
    results.  So a slot's buffers serve one call at a time and a result
    stays unchanged until the caller asks for the next one.  With one
    worker every call runs inline.
    """
    if workers == 1:
        for item in items:
            yield fn(0, item)
        return
    # imported here: it loads logging, which a set below the thread threshold never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        for base in range(0, len(items), workers):
            yield from pool.map(fn, range(workers), items[base:base + workers])


def _lift_sums(sset: SequenceSet, ks: Sequence[int], shifts: Sequence[int]) -> np.ndarray:
    """Sum over members of the autocorrelation of w^(k*x) at each shift, one row per k.

    Row k = 1 is the float autocorrelation sum of the set.  The transforms
    are sized by the tested lags (:func:`_lag_plan`): each member's lift is
    cut to its window and laid out as a (g, n) block of zero-padded
    polyphase rows, one FFT per row.  The power spectra are summed over
    members, then over the g rows pairwise (:func:`_sum_rows`), before one
    length-n inverse FFT per embedding, read at lag (tau - drop) / g.  With
    the plan (0, 1, _fft_length(L)) this is one whole-sequence FFT per
    member.  The phases are already reduced, so k = 1 lifts them as they
    are.  An empty shift list takes no transform and gives (len(ks), 0).

    Members are transformed in chunks: as many as fit ``_CHUNK_POINTS``
    complex grid points, and at least one.  A chunk is cut to its window
    once per embedding, its lifts are gathered in one operation from the
    per-k root table (straight into the grid when g = 1), and its blocks
    are stacked into one 2-d (members*g, n) grid, transformed in place by
    one FFT call.  Each row's transform is the one a grid of its own would
    get.  The buffers are allocated once per call: the grid, whose
    padding columns are zeroed before each fill (the gather overwrites the
    rest), and a (members*g, n) square buffer.  The transformed grid is
    squared in place, real and imaginary parts alike, and the two parts
    are added into the square buffer; each embedding's inverse runs in
    place in grid row 0.

    The chunks of an embedding are mapped by :func:`_map_in_order`: on
    worker threads, each with its own grid and square buffer, once the
    embedding has ``_PARALLEL_POINTS`` transform points M*g*n or more
    (:func:`_chunk_plan`), inline otherwise.  Either way the results come
    back in member order and this thread adds the power blocks one member
    at a time, so the sums carry the same bits as one transform per
    member, whatever the chunk size or worker count, and the (M - 1)u term
    of :func:`_embedding_bound` stands.  Small sets, whose transforms are
    a few hundred points, pay one call per chunk instead of one per
    member, whose fixed cost outweighs such a transform's arithmetic; a set
    near the length cap has chunks of one member and allocates what one
    member's transform needs per worker.
    """
    if not len(shifts):
        return np.empty((len(ks), 0), dtype=complex)
    M, L, lam = len(sset), sset.length, sset.modulus
    drop, g, n = _lag_plan(L, shifts)
    head = (L - drop) // 2
    cols, rem = divmod(L - drop, g)
    lags = (np.asarray(shifts, dtype=np.intp) - drop) // g
    starts, workers = _chunk_plan(M, g, n)
    chunk = starts.step
    grids = [np.empty((min(chunk, M) * g, n), dtype=complex) for _ in range(workers)]
    squares = [np.empty(grid.shape) for grid in grids]
    power = np.empty((g, n))
    out = np.empty((len(ks), len(lags)), dtype=complex)
    # where unit_lift would look the roots up, w^(k*x) comes from a per-k table
    tabled = lam <= M * (L - drop)

    def transform(slot: int, start: int) -> np.ndarray:
        """|FFT|^2 of embedding k of the chunk from member ``start``, in slot's buffers."""
        x = sset.phases[start:start + chunk]
        if drop:
            x = np.concatenate((x[:, :head], x[:, head + drop:]), axis=1)
        members = len(x)
        rows = grids[slot][:members * g]
        rows[:, cols:] = 0
        if tabled and g == 1:
            # the phases lie in [0, lambda), so clipping never acts
            np.take(roots, x, out=rows[:, :cols], mode="clip")
        else:
            lift = roots[x] if tabled else unit_lift(x if k == 1 else (k * x) % lam, lam)
            # entry q*g + r of a member's window goes to its block's row r, column q
            blocks = rows.reshape(members, g, n)
            blocks[:, :, :cols] = lift[:, :cols * g].reshape(members, cols, g).swapaxes(1, 2)
            if rem:
                blocks[:, :rem, cols] = lift[:, cols * g:]
            # freed before the transform runs
            del lift
        np.fft.fft(rows, out=rows)
        # real**2 + imag**2, each square rounded once, as |X|^2 of the bound
        parts = rows.view(float)
        np.square(parts, out=parts)
        return np.add(rows.real, rows.imag, out=squares[slot][:members * g])

    for row, k in enumerate(ks):
        power.fill(0.0)
        roots = _roots_of_unity(lam)[k * np.arange(lam) % lam] if tabled else None
        for sq in _map_in_order(transform, starts, workers):
            for j in range(0, len(sq), g):
                power += sq[j:j + g]
        inverse = grids[0][0]
        inverse[:] = _sum_rows(power)
        np.fft.ifft(inverse, out=inverse)
        # ifft(power)[t] = sum_i c_{i+t} conj(c_i); the definition conjugates the lagged copy
        out[row] = np.conj(inverse[lags])
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
      over the g rows pairwise (ceil(log2(g))u, :func:`_sum_rows`).  The
      members are transformed in chunks but summed one at a time in member
      order, so the (M - 1)u term stands for every chunk size; the L_r
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
    """
    n = _fft_length(L)
    return _UNIT_ROUNDOFF * M * L * (24 * math.log2(n) + M + 53)


@functools.lru_cache(maxsize=None)
def _conjugate_ks(lam: int) -> tuple[int, ...]:
    """The units k <= lambda/2 of Z/lambda: one embedding per conjugate pair."""
    return tuple(k for k in range(1, lam // 2 + 1) if math.gcd(k, lam) == 1)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Outcome of a GCS / MSCS / type-II ZCS verification run.

    ``mode`` names how the verdicts were reached: "exact" conjugates, or
    "numerical" float sums within :func:`_embedding_bound` for moduli above
    ``EXACT_MODULUS_CAP``.  The verdicts are three read-only arrays with one
    entry per tested shift: ``shifts`` (int64), ``zeros`` (bool, the sum is
    zero) and ``magnitudes`` (float64, |E'_1|, the float sum's modulus).
    """

    claim: str
    parameter: int | None
    mode: str
    shifts: np.ndarray
    zeros: np.ndarray
    magnitudes: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(self.zeros.all())

    @property
    def failing_shifts(self) -> tuple[int, ...]:
        return tuple(self.shifts[~self.zeros].tolist())


def _verify(sset: SequenceSet, shifts: range, claim: str,
            parameter: int | None) -> CorrelationReport:
    """Verdicts of the tested shifts: zero where every conjugate is within the bound.

    Let C = sum_j c_j w^j, w = exp(2*pi*1j/lambda), be the exact set
    autocorrelation at a shift, an element of Z[w].  Its conjugates are
    sigma_k(C) = sum_j c_j w^(kj) over the units k of Z/lambda, and the
    embedding sum E_k of :func:`_lift_sums` is sigma_k(C).  The norm
    N(C) = prod_k sigma_k(C) is a rational integer, nonzero iff C != 0
    (Washington, Introduction to Cyclotomic Fields, GTM 83).  As
    sigma_(lambda-k)(C) = conj(sigma_k(C)), |N(C)| is the product of
    |sigma_k(C)|^2 over the units k < lambda/2 (of |sigma_1(C)| alone for
    lambda = 2), so C != 0 gives max_k |sigma_k(C)| >= 1 over the units
    k <= lambda/2 (:func:`_conjugate_ks`), and C = 0 gives sigma_k(C) = 0.

    Each computed E'_k lies within B = :func:`_embedding_bound` of
    sigma_k(C).  So C = 0 gives max_k |E'_k| <= B, and C != 0 gives
    max_k |E'_k| >= 1 - B.  While B < 1/2 the two ranges are disjoint:
    the verdict is max_k |E'_k| <= B, and a maximum strictly between B and
    1 - B means the bound failed, so ``RuntimeError`` is raised.  A set
    with B >= 1/2 is refused with ``ValueError`` before any transform.
    The verdict at the largest nonzero tested shift (the largest tested
    shift if none is nonzero), the one with the fewest terms, is checked
    against ``is_zero(aacf_set_sum(...))``; a mismatch raises
    ``RuntimeError``.

    Above ``EXACT_MODULUS_CAP`` only E_1 is computed ("numerical" mode): a
    shift with |E'_1| > B is proven nonzero, a pass is not proven.
    """
    M, L, lam = len(sset), sset.length, sset.modulus
    numerical = lam > EXACT_MODULUS_CAP
    bound = _embedding_bound(M, L)
    if bound >= 0.5:
        raise ValueError(f"FFT rounding bound {bound:.3g} of {M} members of length {L} "
                         "reaches 1/2; verify fewer members")
    sums = _lift_sums(sset, (1,) if numerical else _conjugate_ks(lam), shifts)
    peak = np.abs(sums).max(axis=0)
    zeros = peak <= bound
    tested = np.arange(shifts.start, shifts.stop, shifts.step, dtype=np.int64)
    if not numerical and len(tested):
        between = np.flatnonzero(~zeros & (peak < 1 - bound))
        if len(between):
            i = between[0]
            raise RuntimeError(f"conjugate maximum {peak[i]:.3e} at shift {tested[i]} lies "
                               f"between the bound {bound:.3e} and 1 minus it")
        nonzero = np.flatnonzero(~zeros)
        i = nonzero[-1] if len(nonzero) else len(tested) - 1
        tau = int(tested[i])
        if zeros[i] != is_zero(aacf_set_sum(sset, tau)):
            raise RuntimeError(f"the verdict at shift {tau} disagrees with aacf_set_sum")
    magnitudes = np.abs(sums[0])
    for verdicts in (tested, zeros, magnitudes):
        verdicts.flags.writeable = False
    return CorrelationReport(claim, parameter, "numerical" if numerical else "exact",
                             tested, zeros, magnitudes)


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


def _accf_float_error(n: int) -> float:
    """First-order bound on |computed - exact| of an :func:`accf_float` sum of n terms.

    Each factor is a unit root within 24u of its exact value (u = 2^-53),
    so a term is within 48u of its exact product before it is formed, and
    the complex product rounds by at most sqrt(2)*gamma_2 < 3u (Higham,
    Accuracy and Stability of Numerical Algorithms, Lemma 3.5).  A complex
    addition rounds by at most u times its result, so n terms summed in any
    order err by at most (n - 1)u times the sum of their moduli, at most n.
    Together n*(n + 50)*u.
    """
    return _UNIT_ROUNDOFF * n * (n + 50)


def kronecker_accf_identity_check(a: PhaseSequence, b: PhaseSequence, tau: int) -> bool:
    """Check the correlation split of a Kronecker product against direct computation.

    With q = tau // L2 and r = tau % L2 (L2 = len(b)), the autocorrelation
    of the composed sequence satisfies

        rho(a (x) b)(tau) = rho(a)(q) rho(b)(r) + rho(a)(q+1) rho(b)(r - L2)

    where a term with a shift out of range is zero and is left out (the
    second term whenever r = 0).  Floor division extends the split to negative
    shifts unchanged.  The identity is checked exactly on count vectors,
    each product a cyclic convolution (:func:`_cyclic_product`), and in
    floats within the first-order rounding error of both sides; both must
    hold.  A product of sums of n_a and n_b terms, each within
    e(n) = :func:`_accf_float_error` of its value of modulus at most n, errs
    by at most n_a*e(n_b) + n_b*e(n_a) plus 3u*n_a*n_b for the product and
    u*n_a*n_b for adding it.
    """
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    L1, L2 = len(a), len(b)
    total = L1 * L2
    if not (-total < tau < total):
        raise ValueError(f"shift {tau} out of range for composed length {total}")
    q, r = divmod(tau, L2)
    pairs = [(s, t) for s, t in ((q, r), (q + 1, r - L2)) if abs(s) < L1 and abs(t) < L2]
    composed = kronecker_compose(a, b)

    lhs_f = accf_float(composed, composed, tau)
    rhs_f = sum(accf_float(a, a, s) * accf_float(b, b, t) for s, t in pairs)
    slack = _accf_float_error(total - abs(tau))
    for s, t in pairs:
        na, nb = L1 - abs(s), L2 - abs(t)
        slack += (na * _accf_float_error(nb) + nb * _accf_float_error(na)
                  + 4 * _UNIT_ROUNDOFF * na * nb)
    float_ok = abs(lhs_f - rhs_f) <= slack

    if a.modulus > EXACT_MODULUS_CAP:
        return float_ok

    rhs = sum((_cyclic_product(accf_exact(a, a, s), accf_exact(b, b, t)) for s, t in pairs),
              np.zeros(a.modulus, dtype=np.int64))
    return float_ok and is_zero(accf_exact(composed, composed, tau) - rhs)
