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
:func:`energy_identity_check` evaluates on the grid.  Companion u of x
(entry k multiplied by exp(2*pi*1j*k*u/S)) has envelope P_x(t + u/S), so on
the grid of n = N_os*L points it is x's envelope rolled by u*n/S samples
whenever S divides n: the family energy is then the sum of the M member
powers folded into n/S bins, M FFTs in all.  When S does not divide n the
companions are transformed one by one (S*M FFTs).

Grids are capped at ``MAX_GRID`` points, the default oversampling of a
sequence at the length cap; :func:`grid_points` checks before allocating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    exactly M*L*S at every time for an (M, L, S)-MSCS.  Returns the largest
    |total - M*L*S| / (M*L*S) over the grid; below 1e-9 for verified sets.
    Companion u's power is the member's power rolled by u*n/S grid samples
    when S divides the grid size n, so the total is then the M member
    powers folded into n/S bins; otherwise each companion is transformed.
    """
    if S < 1:
        raise ValueError(f"S={S} must be >= 1")
    target = len(sset) * sset.length * S
    total = _family_energy(sset, S, oversampling)
    return float(np.max(np.abs(total - target)) / target)


def _family_energy(sset: SequenceSet, S: int, oversampling: int) -> np.ndarray:
    """Sum of |P|^2 over every member's S modulated companions on the grid.

    With n = N_os*L, the sum has period n/S when S divides n and only its
    first n/S samples are returned; otherwise all n samples are.
    """
    n = grid_points(oversampling, sset.length)
    fold = n % S == 0
    total = np.zeros(n)
    for s in sset.sequences:
        for c in [to_complex(s)] if fold else modulated_family(s, S):
            total += np.abs(_complex_envelope(c, oversampling)) ** 2
    return total.reshape(S, n // S).sum(axis=0) if fold else total
