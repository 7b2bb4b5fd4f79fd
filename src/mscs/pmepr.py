"""OFDM complex envelope, IAPR curves and PMEPR bound checks.

The envelope of a length-L phase sequence x over modulus lambda is

    P_x(t) = sum_{i=0}^{L-1} exp(2*pi*1j*(x_i/lambda + i*u)),   u = df*t

with u the time variable normalized by the subcarrier spacing.  The carrier
frequency enters only as a unimodular factor and is dropped.  |P_x| has
period 1 in u, so the supremum over a symbol is approximated by a uniform
grid u_j = j/(N_os*L), computed as one zero-padded inverse DFT.

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

from dataclasses import dataclass

import numpy as np

from .correlation import _lift_sums
from .seqcore import MAX_LENGTH, PhaseSequence, SequenceSet, to_complex

DEFAULT_OVERSAMPLING = 64
MAX_GRID = DEFAULT_OVERSAMPLING * MAX_LENGTH
BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class EnvelopeGrid:
    """Envelope samples on the uniform grid u_j = j/(N_os*L), j = 0..N_os*L-1."""

    oversampling: int
    length: int
    samples: np.ndarray

    def __init__(self, oversampling: int, length: int, samples):
        oversampling = int(oversampling)
        length = int(length)
        if oversampling < 1:
            raise ValueError(f"oversampling {oversampling} must be >= 1")
        if length < 1:
            raise ValueError(f"length {length} must be >= 1")
        arr = np.asarray(samples, dtype=complex)
        if arr.shape != (oversampling * length,):
            raise ValueError(
                f"expected {oversampling * length} samples, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "oversampling", oversampling)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "samples", arr)

    @property
    def positions(self) -> np.ndarray:
        """Normalized time u = df*t of each sample."""
        n = self.oversampling * self.length
        return np.arange(n) / n


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


def _complex_envelope(c: np.ndarray, oversampling: int) -> np.ndarray:
    """Envelope samples of an arbitrary complex carrier vector."""
    n = grid_points(oversampling, len(c))
    # n * ifft of c zero-padded to n evaluates sum_i c_i exp(2*pi*1j*i*j/n)
    # at every grid point; ifft pads, and the scaling is done in place
    env = np.fft.ifft(c, n)
    env *= n
    return env


def envelope(x: PhaseSequence, oversampling: int = DEFAULT_OVERSAMPLING) -> EnvelopeGrid:
    """Complex envelope of a phase sequence on the oversampled grid."""
    samples = _complex_envelope(to_complex(x), oversampling)
    return EnvelopeGrid(oversampling, len(x), samples)


def iapr_curve(x: PhaseSequence, oversampling: int = DEFAULT_OVERSAMPLING) -> np.ndarray:
    """Instantaneous-to-average power ratio |P_x(u_j)|^2 / L at every grid point."""
    power = np.abs(_complex_envelope(to_complex(x), oversampling))
    np.square(power, out=power)
    power /= x.values.size
    return power


def pmepr(x: PhaseSequence, oversampling: int = DEFAULT_OVERSAMPLING) -> float:
    """Peak-to-mean envelope power ratio, approximated by the grid maximum."""
    return float(np.max(iapr_curve(x, oversampling)))


@dataclass(frozen=True)
class PmeprReport:
    """Measured PMEPRs of a set against the M*S bound."""

    per_sequence: tuple[float, ...]
    set_pmepr: float
    bound: float
    bound_satisfied: bool
    oversampling: int


def pmepr_set(sset: SequenceSet, S: int,
              oversampling: int = DEFAULT_OVERSAMPLING) -> PmeprReport:
    """PMEPR of every member and of the set, checked against the M*S bound.

    ``S`` is the shift parameter of the MSCS claim the caller has verified;
    every verified (M, L, S) set satisfies the bound, so a violated flag on
    one points at an implementation bug.
    """
    per = [pmepr(s, oversampling) for s in sset.sequences]
    return pmepr_report(per, S, oversampling)


def pmepr_report(per_sequence, S: int,
                 oversampling: int = DEFAULT_OVERSAMPLING) -> PmeprReport:
    """Check measured member PMEPRs against the M*S bound, M = len(per_sequence)."""
    if S < 1:
        raise ValueError(f"S={S} must be >= 1")
    per = tuple(per_sequence)
    peak = max(per)
    bound = float(len(per) * S)
    return PmeprReport(
        per_sequence=per,
        set_pmepr=peak,
        bound=bound,
        bound_satisfied=peak <= bound + BOUND_SLACK,
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
