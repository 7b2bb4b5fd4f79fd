"""OFDM complex envelope, IAPR curves and PMEPR bound checks.

The envelope of a length-L phase sequence x over modulus lambda is

    P_x(t) = sum_{i=0}^{L-1} exp(2*pi*1j*(x_i/lambda + i*u)),   u = df*t

with u the time variable normalized by the subcarrier spacing.  The carrier
frequency enters only as a unimodular factor and is dropped.  |P_x| has
period 1 in u, so the supremum over a symbol is approximated by a uniform
grid u_j = j/(N_os*L).  The grid points of one residue r of j mod N_os form
one inverse DFT of L points, so the grid is one batch of N_os such
transforms (:func:`_residue_rows`), each value within
:func:`iapr_error_bound` of the exact IAPR.  The rows differ by powers of
one twiddle per grid (:func:`_twiddle`), computed once for all the members
of a set and released when :func:`pmepr_set` returns; it is written as the
cos and sin of its angle, which give the bits of the complex exp.

PMEPR of a set is the max over members.  For an (M, L, S)-MSCS it is at
most M*S; the bound rests on an exact energy identity for the family of S
frequency-modulated companions of each member, which
:func:`energy_identity_check` evaluates on the grid.  |P_x(t)|^2 is
sum_tau A_x(tau) exp(2*pi*1j*tau*t) over the lags |tau| < L of x's
autocorrelation A_x.  Companion u of x (entry k multiplied by
exp(2*pi*1j*k*u/S)) multiplies lag tau by exp(2*pi*1j*tau*u/S), so summing
over u keeps only the lags that are multiples of S:

    total(t) = S * sum_{S | tau} C_set(tau) exp(2*pi*1j*tau*t)

with C_set the members' autocorrelations summed, M*L at lag 0.  C_set at
the lags S, 2S, ... < L is the float k = 1 sum of the correlation engine,
so the energy check runs no envelope: one inverse real FFT of the total's
half spectrum gives it on the grid (:func:`_family_energy`).

Grids are capped at ``MAX_GRID`` points, the default oversampling of a
sequence at the length cap; :func:`grid_points` checks before allocating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlation import _UNIT_ROUNDOFF, _lift_sums, _transform_rows
from .seqcore import (MAX_LENGTH, PhaseSequence, SequenceSet, _prime_factors, to_complex,
                      unit_lift)

DEFAULT_OVERSAMPLING = 64
MAX_GRID = DEFAULT_OVERSAMPLING * MAX_LENGTH
BOUND_SLACK = 1e-9


def grid_points(oversampling: int, length: int) -> int:
    """Size N_os*L of the envelope grid; raises unless N_os, L >= 1 and N_os*L <= MAX_GRID."""
    if oversampling < 1:
        raise ValueError(f"oversampling {oversampling} must be >= 1")
    if length < 1:
        raise ValueError(f"length {length} must be >= 1")
    n = oversampling * length
    if n > MAX_GRID:
        raise ValueError(f"envelope grid of {n} points exceeds capacity limit {MAX_GRID}")
    return n


@functools.lru_cache(maxsize=1)
def _twiddle(length: int, oversampling: int) -> np.ndarray:
    """The read-only twiddle t_i = exp(2*pi*1j*i/n), i < L, of the grid n = N_os*L.

    Written as cos and sin of theta_i = i*(2*pi/n) into one complex array:
    the bits of ``np.exp(np.arange(L) * (2j*np.pi/n))``, whose argument is
    0 + 1j*theta_i, without its complex arithmetic.  Every member on the
    grid shares it, and :func:`pmepr_set` clears the cache when it returns;
    after a direct :func:`iapr_curve` or :func:`envelope` call the last
    grid's twiddle stays cached until a call on another grid replaces it.
    """
    theta = np.arange(length) * (2 * np.pi / (oversampling * length))
    t = np.empty(length, dtype=complex)
    np.cos(theta, out=t.real)
    np.sin(theta, out=t.imag)
    t.flags.writeable = False
    return t


def _residue_rows(x, oversampling: int) -> np.ndarray:
    """The envelope of x on the grid, as an (N_os, L) array of residue rows.

    ``x`` is a phase sequence, whose lift c is gathered straight into row 0,
    or an arbitrary complex carrier vector c, copied there.  With
    n = N_os*L and w = exp(2*pi*1j/n), grid point j = q*N_os + r is

        P(u_j) = sum_i c_i w^(i*j) = L * ifft_L(c_i * w^(r*i))[q],

    as w^(i*q*N_os) = exp(2*pi*1j*i*q/L).  Row r of the array is filled with
    c * t^r, t_i = w^i, and inverse transformed in place along axis 1, so
    P(u_j) is L times entry (r, q).  The rows are built by doubling: rows
    [k, 2k) are rows [0, k) times t^k, and t^k is squared between steps
    in a scratch array that is dropped before the transform.  t is the one
    twiddle of the grid (:func:`_twiddle`), so a member's twiddles cost
    about 2*log2(N_os) passes and no exp.

    The transform goes through :func:`mscs.correlation._transform_rows`:
    one call per row when N_os <= 4 and L > 2^18, one batched call
    otherwise, with the same bits.  A batch of such rows makes pocketfft
    map and fault a scratch of vlen rows afresh on every call (34 MB at
    L = 531441, where per-row calls took 0.77-0.93x its time at N_os = 4).
    On more rows that scratch costs little per row, while per-row calls
    can each map their own buffers: the (64, 972000) grid of a set near
    the length cap took 1.44x the batched time that way, and at N_os = 64
    and L <= 19683 the batch is 1.3-3x faster.

    Rounding, to first order in u = 2^-53, with |c_i| = 1 up to 24u, the
    budget :func:`mscs.correlation._embedding_bound` gives every carrier:

    * Twiddles.  t = exp(1j*theta) with theta = i*(2*pi/n) in 3u relative,
      |theta| < 2*pi/N_os, so t is within 6*pi*u + 2u < 21u of w^i; cos and
      sin of theta give exp's bits, so this holds for them unchanged.  A
      complex square or product errs by at most sqrt(5)*u relatively, so
      e_k, the error of t^k, obeys e_2k + sqrt(5)u <= 2(e_k + sqrt(5)u),
      hence e_k <= 24u*k.  Row r multiplies c by t^k for each bit k of r,
      in b <= ceil(log2 N_os) products, so it errs by at most
      24u + 24u*r + 3u*b <= u*(24*N_os + 3*ceil(log2 N_os)) per entry.
    * Transform.  In the per-pass model of ``_embedding_bound`` a pass of
      prime radix r errs by at most (r + 6)u against the l1 norm of its
      inputs (pocketfft's radix-4 and radix-8 passes, 10u and 14u, stand
      for two and three radix-2 ones), so
      ifft_L errs by at most eps_L = u * sum(r + 6) over L's prime factors
      times the l1 norm, L(1 + O(u)) here.  A length of at least 50 with a
      prime factor above sqrt(L) may instead be planned by Bluestein's
      algorithm, a circular convolution with a chirp filter of 2L - 1 unit
      entries through two smooth transforms of n2 < 4L points
      (8u*log2(n2) each in the same model); bounding each stage against
      the l1 norm gives eps_L = (2L - 1)(24*log2(4L) + 6)u.  The 1/L
      scaling, its rounding and the product with L add 3u relatively.
    * So |computed P - P| <= L*eta at every grid point, with
      eta = u*(24*N_os + 3*ceil(log2 N_os) + 3) + eps_L, and |P| <= L.
      The IAPR |P|^2/L takes abs, square and the division by L (3u), so
      it errs by at most 2*eta*|P| + L*eta^2 + 3u*IAPR, at most
      L*(2*eta + eta^2 + 3u) (:func:`iapr_error_bound`).

    ``grid_points`` is checked before any allocation.
    """
    L = len(x)
    grid_points(oversampling, L)
    rows = np.empty((oversampling, L), dtype=complex)
    if isinstance(x, PhaseSequence):
        unit_lift(x.values, x.modulus, out=rows[0])
    else:
        rows[0] = x
    if oversampling > 1:
        t = _twiddle(L, oversampling)
        k = 1
        while k < oversampling:
            block = rows[k:2 * k]
            np.multiply(rows[:len(block)], t, out=block)
            k *= 2
            if k < oversampling:
                # the first square copies, as the shared twiddle is read-only
                t = np.square(t, out=None if k == 2 else t)
        del t
    return _transform_rows(np.fft.ifft, rows)


def iapr_error_bound(length: int, oversampling: int) -> float:
    """A-priori bound on |computed - exact| of every IAPR value on the grid.

    L*(2*eta + eta^2 + 3u) as derived in :func:`_residue_rows`, for the
    computed curve of any length-L phase sequence (every IAPR is at most L).
    Raises for the grids :func:`grid_points` refuses.
    """
    grid_points(oversampling, length)
    L, u = length, _UNIT_ROUNDOFF
    factors = _prime_factors(L)
    if L >= 50 and factors[-1] ** 2 > L:
        eps = (2 * L - 1) * (24 * math.log2(4 * L) + 6) * u
    else:
        eps = sum(r + 6 for r in factors) * u
    eta = u * (24 * oversampling + 3 * math.ceil(math.log2(oversampling)) + 3) + eps
    return L * (2 * eta + eta * eta + 3 * u)


def envelope(x, oversampling: int = DEFAULT_OVERSAMPLING) -> np.ndarray:
    """Complex envelope P(u_j) at u_j = j/(N_os*L), j = 0..N_os*L-1, in grid order.

    ``x`` is a phase sequence or a complex carrier such as a :func:`modulated_family` member.
    """
    L = len(x)
    rows = _residue_rows(x, oversampling)
    env = np.empty(rows.size, dtype=complex)
    # grid point j = q*N_os + r is entry (q, r) of the (L, N_os) view
    np.multiply(rows.T, L, out=env.reshape(L, oversampling))
    return env


def iapr_curve(x: PhaseSequence, oversampling: int = DEFAULT_OVERSAMPLING) -> np.ndarray:
    """Instantaneous-to-average power ratio |P_x(u_j)|^2 / L at every grid point.

    The same bits as ``np.abs(envelope(x)) ** 2 / L``, without the complex
    grid-order copy.
    """
    L = len(x)
    rows = _residue_rows(x, oversampling)
    rows *= L
    power = np.empty(rows.size)
    np.abs(rows.T, out=power.reshape(L, oversampling))
    np.square(power, out=power)
    power /= L
    return power


def pmepr(x: PhaseSequence, oversampling: int = DEFAULT_OVERSAMPLING) -> float:
    """Peak-to-mean envelope power ratio, approximated by the grid maximum."""
    return float(np.max(iapr_curve(x, oversampling)))


@dataclass(frozen=True)
class PmeprReport:
    """Measured PMEPRs of a set against the M*S bound.

    ``bound_satisfied`` compares the grid maximum ``set_pmepr`` with M*S.
    The grid maximum is a lower estimate of the continuous peak, so the
    flag is not a certificate that the set meets the bound.  ``bound`` and
    ``bound_satisfied`` are None for a claim with no M*S bound.
    """

    per_sequence: tuple[float, ...]
    set_pmepr: float
    bound: float | None
    bound_satisfied: bool | None
    oversampling: int


def pmepr_set(sset: SequenceSet, S: int | None,
              oversampling: int = DEFAULT_OVERSAMPLING,
              curves: list | None = None) -> PmeprReport:
    """PMEPR of every member and of the set, checked against the M*S bound.

    ``S`` is the shift parameter of the claim the caller has verified (1
    for a GCS); every verified (M, L, S) set satisfies the bound, so a
    violated flag on one points at an implementation bug.  ``S = None``
    measures a claim with no M*S bound (a type-II ZCS).

    A member's PMEPR is the max of its IAPR curve (:func:`iapr_curve`).
    When ``curves`` is a list each curve is appended to it in member order;
    otherwise each is freed before the next member's grid is allocated, so
    peak memory stays at one curve.  The members share the grid's twiddle,
    which is released when this returns or raises.
    """
    if S is not None and S < 1:
        raise ValueError(f"S={S} must be >= 1")
    per = []
    try:
        for s in sset.sequences:
            curve = iapr_curve(s, oversampling)
            per.append(float(np.max(curve)))
            if curves is not None:
                curves.append(curve)
            del curve
    finally:
        _twiddle.cache_clear()
    peak = max(per)
    bound = None if S is None else float(len(per) * S)
    return PmeprReport(
        per_sequence=tuple(per),
        set_pmepr=peak,
        bound=bound,
        bound_satisfied=None if bound is None else peak <= bound + BOUND_SLACK,
        oversampling=oversampling,
    )


def modulated_family(x: PhaseSequence, S: int) -> list[np.ndarray]:
    """The S frequency-modulated companions of x.

    Member u carries entry k equal to exp(2*pi*1j*x_k/lambda) * zeta^(k*u)
    with zeta the primitive S-th root of unity; member 0 is x itself.
    """
    if S < 1:
        raise ValueError(f"S={S} must be >= 1")
    c = to_complex(x)
    k = np.arange(len(c))
    return [c * np.exp(2j * np.pi * k * u / S) for u in range(S)]


def energy_identity_check(sset: SequenceSet, S: int,
                          oversampling: int = DEFAULT_OVERSAMPLING) -> float:
    """Max relative deviation of the modulated-family energy from M*L*S.

    Summing |P|^2 over all members and all S modulated companions gives
    S * sum_{S | tau} C_set(tau) exp(2*pi*1j*tau*t), which is exactly
    M*L*S at every time for an (M, L, S)-MSCS, whose C_set vanishes at every
    nonzero multiple of S.  Returns the largest |total - M*L*S| / (M*L*S)
    over the grid (:func:`_family_energy`); below 1e-9 for verified sets.
    """
    if S < 1:
        raise ValueError(f"S={S} must be >= 1")
    target = len(sset) * sset.length * S
    total = _family_energy(sset, S, oversampling)
    return float(np.max(np.abs(total - target)) / target)


def _family_energy(sset: SequenceSet, S: int, oversampling: int) -> np.ndarray:
    """Sum of |P|^2 over every member's S modulated companions on the grid.

    With n = N_os*L the total has period m = n/S samples when S divides n,
    and only those m are returned; otherwise m = n and all are.  On the
    m-point grid lag tau = k*S sits at frequency f = tau*m/n (k when S
    divides n, k*S otherwise), and the lag pair +-tau puts conj(C_set(tau))
    at +f and C_set(tau) at -f.  The m grid values of a trigonometric
    polynomial are the length-m DFT of its coefficients with frequencies
    taken mod m, so a lag with f past m/2 (only at N_os = 1) equals on the
    grid its alias at f - m, and folding it there is exact.  The half
    spectrum of m//2 + 1 points is added up by bincount and transformed by
    one hfft; no complex n-point array is made.  The lags come from the
    correlation engine (:func:`_lift_sums`), its transforms sized by
    :func:`_lag_plan` to about 2L/S points per polyphase row.
    """
    n = grid_points(oversampling, sset.length)
    m = n // S if n % S == 0 else n
    L = sset.length
    sums = _lift_sums(sset, (1,), range(S, L, S))[0]
    pos = np.arange(S, L, S) // (n // m)
    # hfft reads the conjugate spectrum at f <= m/2: C_set(tau) at pos, or
    # conj(C_set(tau)) at the alias m - pos; both land on m/2, where only
    # the real part is read, so it is doubled
    mirrored = 2 * pos > m
    sums = np.where(mirrored, sums.conj(), sums) * np.where(2 * pos == m, 2, 1)
    pos = np.where(mirrored, m - pos, pos)
    half = np.empty(m // 2 + 1, dtype=complex)
    half.real = np.bincount(pos, weights=sums.real, minlength=len(half))
    half.imag = np.bincount(pos, weights=sums.imag, minlength=len(half))
    half[0] += len(sset) * L
    total = np.fft.hfft(half, m)
    total *= S
    return total
