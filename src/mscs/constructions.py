"""Direct constructions of MSCS, GCS and type-II ZCS families.

Every set built here is one object: a degree-2 function over prime-base
digit blocks Z_{p_a}^{m_a}, optionally extended by one extra prime as the
most significant length factor, whose member gamma = (gamma_1, ..., gamma_k)
adds the tag sum_a (lambda/p_a) * gamma_a * v_{a,pi_a(s_a)}.  The three
public constructions differ only in the blocks they accept and the claims
they attach:

* ``single_prime_mscs``: p sequences of length p^m forming a
  (p, p^m, p^(s-1))-MSCS.  The same set is a type-II ZCS whose zero zone
  covers every shift with |tau| > p^(s-1), i.e. width Z = p^m - p^(s-1).
* ``multi_prime_mscs``: k distinct primes at once, giving a
  (prod p_a, prod p_a^{m_a}, prod p_a^{s_a-1})-MSCS.  With every s_a = 1
  the set is a GCS.
* ``length_extended_mscs``: an all-s=1 multi-prime set with one extra
  distinct prime appended as the most significant length factor, giving a
  (prod p_a, p_ext * prod p_a^{m_a}, p_ext)-MSCS.

All three go through one builder, ``_build``.  It materializes the base
function once and each block's tag (lambda/p_a) * v_{a,pi_a(s_a)} once;
member gamma is then (base + sum_a gamma_a * tag_a) mod lambda.  The member
index enumerates gamma with block 1 fastest, mirroring the flat index
convention of :mod:`mscs.seqcore`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .seqcore import (
    MixedDomain,
    MultivariableFunction,
    PhaseSequence,
    SequenceSet,
    TabulatedComponent,
    _is_prime,
    check_length,
    check_modulus,
    materialize,
)


@dataclass(frozen=True)
class PrimeBlock:
    """Construction parameters for one prime block Z_p^m.

    pi       permutation of {s, ..., m} as an explicit tuple; None = identity.
    linear   coefficients (g_1, ..., g_m) of the linear part; None = zeros.
    constant additive constant.
    h_table  optional arbitrary head function of (v_1, ..., v_{s-1}) as a
             flat table of p^(s-1) values, first variable fastest.  Must be
             omitted when s = 1.

    Values may be passed unreduced; they are reduced mod lambda when the
    block is compiled against a target modulus.
    """

    p: int
    m: int
    s: int = 1
    pi: tuple[int, ...] | None = None
    linear: tuple[int, ...] | None = None
    constant: int = 0
    h_table: tuple[int, ...] | None = None


def _block_record(block: PrimeBlock, modulus: int) -> dict:
    """Validate one block against the modulus; return its normalized parameters."""
    p, m, s = block.p, block.m, block.s
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (1 <= s <= m):
        raise ValueError(f"s must satisfy 1 <= s <= m, got s={s} m={m}")
    if modulus % p != 0:
        raise ValueError(f"p={p} must divide the modulus {modulus}")

    pi = list(block.pi) if block.pi is not None else list(range(s, m + 1))
    if sorted(pi) != list(range(s, m + 1)):
        raise ValueError(f"pi={tuple(pi)} is not a permutation of {{{s},...,{m}}}")

    linear = [int(g) % modulus for g in block.linear] if block.linear is not None else [0] * m
    if len(linear) != m:
        raise ValueError(f"linear coefficients need length m={m}, got {len(linear)}")

    h = None
    if block.h_table is not None:
        if s == 1:
            raise ValueError("h_table must be absent when s = 1")
        if len(block.h_table) != p ** (s - 1):
            raise ValueError(
                f"h_table needs {p ** (s - 1)} entries for s={s}, got {len(block.h_table)}"
            )
        h = [int(t) % modulus for t in block.h_table]
    return {
        "p": p,
        "m": m,
        "s": s,
        "pi": pi,
        "linear": linear,
        "constant": int(block.constant) % modulus,
        "h_table": h,
    }


def _build(
    blocks: Sequence[PrimeBlock],
    modulus: int,
    extension: tuple[int, int, int] | None = None,
) -> tuple[np.ndarray, dict]:
    """Phase matrix and parameter record of the family over ``blocks``.

    ``extension`` is (prime, g1, g0): one more digit w, most significant,
    that adds g1*w + g0 to the base function.  Block a contributes
    (lambda/p_a) * sum v_{pi(i)} v_{pi(i+1)} along its permuted variables
    (empty when s = m), its linear part, its constant and its head table.
    The base function and each block's tag (lambda/p_a) * v_{a,pi_a(s_a)}
    are materialized once; member gamma (gamma_1 fastest) is
    (base + sum_a gamma_a * tag_a) mod lambda, row gamma of one read-only
    (M, L) matrix.  The modulus is checked first (``check_modulus``): below
    2^31, no int64 product or sum here or in ``materialize`` overflows.
    """
    check_modulus(modulus)  # before any work: int64 must not overflow
    if not blocks:
        raise ValueError("need at least one prime block")
    primes = [b.p for b in blocks]
    if len(set(primes)) != len(primes):
        raise ValueError(f"primes must be pairwise distinct, got {primes}")
    factors = [(b.p, b.m) for b in blocks]
    if extension is not None:
        factors.append((extension[0], 1))
    check_length(factors)  # before the records' per-digit lists
    records = [_block_record(b, modulus) for b in blocks]

    terms, tabulated, tag_terms = [], [], []
    constant = 0
    for a, rec in enumerate(records, start=1):
        q = modulus // rec["p"]
        pi = rec["pi"]
        terms += [(q, (((a, u), 1), ((a, v), 1))) for u, v in zip(pi, pi[1:])]
        terms += [(g, (((a, i), 1),)) for i, g in enumerate(rec["linear"], start=1) if g]
        if rec["h_table"] is not None:
            variables = [(a, b) for b in range(1, rec["s"])]
            tabulated.append(TabulatedComponent(variables, rec["h_table"]))
        constant += rec["constant"]
        tag_terms.append((q, (((a, pi[0]), 1),)))
    params = {"lambda": modulus, "blocks": records}
    if extension is not None:
        ext_prime, g1, g0 = extension
        ext = {"p": ext_prime, "linear": int(g1) % modulus, "constant": int(g0) % modulus}
        params["extension"] = ext
        terms.append((ext["linear"], (((len(blocks) + 1, 1), 1),)))
        constant += ext["constant"]

    domain = MixedDomain(factors)
    base = materialize(MultivariableFunction(domain, modulus, terms, constant, tabulated))
    tags = [materialize(MultivariableFunction(domain, modulus, [t])).values for t in tag_terms]
    # Rows [g*n, (g+1)*n) of the first p_a * n, n = prod_{b<a} p_b, are the
    # members with gamma_a = g: the g-1 rows plus tag_a.  Both terms are
    # reduced, so one conditional subtraction reduces the sum.
    phases = np.empty((math.prod(primes), base.values.size), dtype=np.int64)
    phases[0] = base.values
    n = 1
    for p, tag in zip(primes, tags):
        for g in range(1, p):
            rows = phases[g * n:(g + 1) * n]
            np.add(phases[(g - 1) * n:g * n], tag, out=rows)
            rows -= modulus * (rows >= modulus)
        n *= p
    phases.flags.writeable = False
    return phases, params


def _claims(blocks: Sequence[PrimeBlock]) -> list[dict]:
    """The claims of the set built from ``blocks``, in this order.

    The MSCS of S = prod p_a^(s_a - 1), the GCS when S = 1 and, for one
    block, the type-II ZCS of width p^m - S.
    """
    S = math.prod(b.p ** (b.s - 1) for b in blocks)
    claims = [{"kind": "MSCS", "S": S}]
    if S == 1:
        claims.append({"kind": "GCS"})
    if len(blocks) == 1:
        claims.append({"kind": "ZCS", "Z": blocks[0].p ** blocks[0].m - S})
    return claims


def single_prime_mscs(block: PrimeBlock, modulus: int) -> SequenceSet:
    """Construct the p-member (p, p^m, p^(s-1))-MSCS for one prime block.

    Member gamma is the materialization of the block function plus
    (lambda/p) * v_{pi(s)} * gamma.  The returned metadata also claims the
    type-II ZCS property of width p^m - p^(s-1).
    """
    phases, params = _build([block], modulus)
    return SequenceSet.from_phases(
        modulus, phases,
        {"construction": "single_prime", "params": params, "claims": _claims([block])})


def multi_prime_mscs(blocks: Sequence[PrimeBlock], modulus: int) -> SequenceSet:
    """Construct the (prod p_a, prod p_a^{m_a}, prod p_a^{s_a-1})-MSCS.

    The primes must be pairwise distinct.  Members are ordered by the tag
    vector gamma = (gamma_1, ..., gamma_k) with gamma_1 fastest.  With one
    block this reduces to :func:`single_prime_mscs`: the same set and claims.
    """
    blocks = tuple(blocks)
    phases, params = _build(blocks, modulus)
    return SequenceSet.from_phases(
        modulus, phases,
        {"construction": "multi_prime", "params": params, "claims": _claims(blocks)})


def length_extended_mscs(
    blocks: Sequence[PrimeBlock],
    ext_prime: int,
    modulus: int,
    ext_linear: int = 0,
    ext_constant: int = 0,
) -> SequenceSet:
    """Append one extra prime as a length factor to an all-s=1 set.

    The base blocks must all have s_a = 1 (a GCS base); the extension prime
    must be distinct from every base prime and divide the modulus.  The
    extension contributes a single variable g1*v + g0 occupying the most
    significant index block, and the result is a
    (prod p_a, p_ext * prod p_a^{m_a}, p_ext)-MSCS with the same member
    count as the base set.
    """
    blocks = tuple(blocks)
    for b in blocks:
        if b.s != 1:
            raise ValueError(f"length extension requires s=1 in every base block, got s={b.s}")
    if not _is_prime(ext_prime):
        raise ValueError(f"extension prime must be prime, got {ext_prime}")
    if ext_prime in [b.p for b in blocks]:
        raise ValueError(f"extension prime {ext_prime} duplicates a base prime")
    if modulus % ext_prime != 0:
        raise ValueError(f"extension prime {ext_prime} must divide the modulus {modulus}")
    phases, params = _build(blocks, modulus, (ext_prime, ext_linear, ext_constant))
    claims = [{"kind": "MSCS", "S": ext_prime}]
    return SequenceSet.from_phases(
        modulus, phases, {"construction": "length_extended", "params": params, "claims": claims})


def random_block(rng: random.Random, p: int, m: int, s: int, modulus: int) -> PrimeBlock:
    """Draw uniform construction parameters for one prime block.

    The permutation is uniform over orderings of {s, ..., m}; linear
    coefficients, the constant and (for s > 1) the head-function table are
    uniform over Z_modulus.  Any such draw satisfies the construction's
    claims, which makes seeded draws the property-test surface.
    """
    if not (1 <= s <= m):  # checked before drawing p^(s-1) table entries
        raise ValueError(f"s must satisfy 1 <= s <= m, got s={s} m={m}")
    pi = list(range(s, m + 1))
    rng.shuffle(pi)
    h_table = None
    if s > 1:
        h_table = tuple(rng.randrange(modulus) for _ in range(p ** (s - 1)))
    return PrimeBlock(
        p=p,
        m=m,
        s=s,
        pi=tuple(pi),
        linear=tuple(rng.randrange(modulus) for _ in range(m)),
        constant=rng.randrange(modulus),
        h_table=h_table,
    )


def kronecker_compose(outer: PhaseSequence, inner: PhaseSequence) -> PhaseSequence:
    """Phase-domain Kronecker product: result[j*Li + i] = outer[j] + inner[i].

    The complex lift of the result equals the Kronecker product of the
    complex lifts of the factors.
    """
    if outer.modulus != inner.modulus:
        raise ValueError(
            f"modulus mismatch: outer {outer.modulus}, inner {inner.modulus}"
        )
    # a - (lambda - b) lies in (-lambda, lambda); a + b wraps int64 for lambda > 2^62
    lam = outer.modulus
    vals = (outer.values[:, None] - (lam - inner.values[None, :])).ravel()
    vals[vals < 0] += lam
    return PhaseSequence(lam, vals)
