"""Per-specialization fiber polynomials, irreducibility, the
ramified-prime fingerprint (odd-valuation primes of the fiber
discriminant), and the census counting distinct fields against the
N/(log N)^(1-eta) benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple, Optional

from .algebra import AlgebraError, CurveCover, IntPoly, critical_polynomial, discriminant_in_u, poly_discriminant
from .factorization import TRIAL_BOUND, factor_integer, factor_over_Z, is_irreducible_mod_p, prime_sieve
from .sieve import build_PF, default_epsilon


class DegenerateFiberError(AlgebraError):
    """The specialized polynomial drops degree or vanishes."""


def fiber_poly(cover: CurveCover, n: int) -> IntPoly:
    """g(n, u) with integer content removed; degree drop (vanishing
    leading coefficient) is an error, the specialization is excluded."""
    if cover.lc_u(n) == 0:
        raise DegenerateFiberError(f"leading coefficient vanishes at t = {n}")
    f = cover.at_t(n)
    return f.primitive_part()


def is_fiber_irreducible(cover: CurveCover, n: int) -> bool:
    """Is g(n, u) irreducible over Q?  Exact, by route on the degree:
    degree 2 is irreducible iff its discriminant is not a perfect square,
    a zero discriminant means a repeated factor, and any other fiber is
    factored over Z.  A degenerate fiber raises DegenerateFiberError.
    The census takes these routes only for the fibers that no residue
    table certifies (see _certified); the tests use this function as the
    oracle for those tables."""
    f = fiber_poly(cover, n)
    return _irreducible(f.degree, poly_discriminant(f), lambda: f)


def _irreducible(degree: int, disc: int, fiber: Callable[[], IntPoly]) -> bool:
    """The routes of is_fiber_irreducible, given the degree (>= 2) and
    disc of the primitive fiber f that fiber() builds: degree and disc
    decide degree 2 and disc = 0 without it, and factor_over_Z(f) decides
    the rest."""
    if degree == 2:
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if disc == 0:
        return False
    _, factors = factor_over_Z(fiber())
    return len(factors) == 1 and factors[0][1] == 1


# the primes whose residue tables certify census fibers: those below 60
_TABLE_PRIMES = prime_sieve(59)


def _residue_tables(cover: CurveCover) -> dict[int, list[bool]]:
    """{p: table} over _TABLE_PRIMES, where table[r] says that p does not
    divide lc_u(r) and g(r, u) is irreducible mod p.  For n = r mod p,
    g(n, u) = g(r, u) mod p, so then f = g(n, u)/c is irreducible mod p
    of full degree (c divides lc_u(n), so p does not divide c), and
    hence irreducible over Q.  The lc test comes first: where lc_u(r) = 0
    the specialization drops degree, and a lower-degree polynomial that
    is irreducible mod p says nothing about the fibers n = r mod p.
    Degree <= 2 builds no table: degree and disc decide."""
    if cover.nu < 3:
        return {}
    return {p: [cover.lc_u(r) % p != 0 and is_irreducible_mod_p(cover.at_t(r), p) for r in range(p)]
            for p in _TABLE_PRIMES}


def _certified(tables: dict[int, list[bool]], ns: range) -> list[bool]:
    """For each n in ns, whether one of the residue tables (see
    _residue_tables) certifies g(n, u) irreducible."""
    certified = [False] * len(ns)
    for p, table in tables.items():
        for r in range(p):
            if table[r]:
                start = (r - ns[0]) % p
                certified[start::p] = [True] * len(range(start, len(ns), p))
    return certified


class FieldFingerprint(NamedTuple):
    """Isomorphism-invariant stand-in for the field defined by an
    irreducible polynomial: the primes appearing to an odd power in its
    discriminant.  Shifting the generator changes the discriminant by a
    square of the index, so parities are preserved."""

    odd_valuation_primes: tuple[int, ...]
    complete: bool

    def render(self) -> str:
        body = ";".join(map(str, self.odd_valuation_primes))
        return body + ("" if self.complete else "?")


# the sieve limit that measures delta for the census's eta
_DELTA_SIEVE_LIMIT = 10_000


def fingerprint(fpoly: IntPoly, effort: int = 1_000_000) -> FieldFingerprint:
    """Odd-valuation primes of disc(fpoly), from factor_integer on the
    whole discriminant (see _fingerprint)."""
    disc = poly_discriminant(fpoly)
    if disc == 0:
        raise AlgebraError("zero discriminant: polynomial is not separable")
    return _fingerprint((), (disc,), effort)


def _fingerprint(primes: Sequence[int], values: Iterable[int], effort: int, unsplit: int = 1) -> FieldFingerprint:
    """The fingerprint of a discriminant given in parts: up to sign and a
    square, it is prod(primes) * prod(values) * unsplit, where the parts
    may share primes.  Its odd-valuation primes are those that occur an
    odd number of times among primes and the odd-exponent primes of
    factor_integer(v) for each v in values.  Every cofactor that
    factor_integer leaves joins unsplit; when their product is a perfect
    square it cannot change any parity, otherwise the fingerprint is
    marked incomplete."""
    for v in values:
        fact = factor_integer(v, effort=effort)
        primes = [*primes, *(p for p, e in fact.factors if e % 2)]
        unsplit *= fact.cofactor
    odd = set(primes)
    if len(odd) < len(primes):
        odd = {p for p in odd if primes.count(p) % 2}
    return FieldFingerprint(tuple(sorted(odd)), math.isqrt(unsplit) ** 2 == unsplit)


def eta_exponent(d: int, delta: float) -> float:
    """The census exponent eta = delta * epsilon / 2, with epsilon =
    default_epsilon(d) = 1/(1000 log(2d))."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    return delta * default_epsilon(d) / 2.0


class CensusRow(NamedTuple):
    n: int
    fiber_degree: int
    irreducible: Optional[bool]  # None for degenerate/skipped fibers
    fingerprint: Optional[FieldFingerprint]
    new_field: bool


class DiversityCensus(NamedTuple):
    """The census of the fibers n = 1..N.  eta is fixed before the walk;
    rows is an iterator that decides each fiber as it is read, in n
    order, and can be read once: tuple(census.rows) holds them all.
    Above one worker, its pool lives until the rows are all read, or
    until census.rows.close().  distinct_lower_bound is the number of
    rows with new_field, and reducible_count the number with irreducible
    False."""

    N: int
    eta: float
    rows: Iterator[CensusRow]

    @property
    def n_over_log_n(self) -> float:
        return self.N / math.log(self.N)

    @property
    def bound_value(self) -> float:
        return self.N / math.log(self.N) ** (1.0 - self.eta)


# fibers per block: the walk sieves, certifies and maps one block at a time
_CENSUS_BLOCK = 2048
# fibers per task when the census runs on worker processes
_CENSUS_CHUNK = 25

# a linear factor of D as the sieve runs it: (a*t + b, limit, ((p, -b/a mod p), ...))
_LinearSieve = tuple[IntPoly, int, tuple[tuple[int, int], ...]]


def _linear_sieves(linear: Iterable[IntPoly], N: int) -> tuple[_LinearSieve, ...]:
    """For each primitive a*t + b (a > 0) in linear, what _sieved_primes
    needs to sieve its values at n = 1..N: limit = min(isqrt(max |a*n + b|),
    TRIAL_BOUND), where the max is at n = 1 or n = N, and the root -b/a
    mod p of each prime p <= limit that does not divide a.  Built once per
    run, so every block of fibers is sieved with the same primes."""
    sieves = []
    for h in linear:
        b, a = h.coeffs
        limit = min(math.isqrt(max(abs(a + b), abs(a * N + b))), TRIAL_BOUND)
        roots = tuple((p, -b * pow(a, -1, p) % p) for p in prime_sieve(max(2, limit)) if a % p)
        sieves.append((h, limit, roots))
    return tuple(sieves)


def _sieved_primes(known: tuple[int, ...], sieves: tuple[_LinearSieve, ...],
                   ns: range) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """For each n in ns, (primes, rests): the known primes plus the primes
    that divide a*n + b to an odd power, for each linear factor a*t + b in
    sieves (see _linear_sieves), and what they leave of |a*n + b| for
    factor_integer.  A prime p of its roots divides exactly the a*n + b
    with n = -b/a mod p, which it divides to exhaustion.  What is left
    above 1 is prime below (limit + 1)^2 and joins primes; above, it
    joins rests.  A zero a*n + b gets nothing: that fiber's discriminant
    is zero, so it is reducible."""
    found = [list(known) for _ in ns]
    rests: list[tuple[int, ...]] = [()] * len(ns)
    for h, limit, roots in sieves:
        b, a = h.coeffs
        rest = [abs(a * n + b) for n in ns]
        for p, root in roots:
            for i in range((root - ns[0]) % p, len(ns), p):
                if rest[i]:
                    v, rem = divmod(rest[i], p)
                    if rem:
                        raise AlgebraError(f"sieve: {p} does not divide {h} at t = {ns[i]}")
                    odd = True
                    while v % p == 0:
                        v //= p
                        odd = not odd
                    rest[i] = v
                    if odd:
                        found[i].append(p)
        for i, v in enumerate(rest):
            if v > 1:
                if math.isqrt(v) <= limit:
                    found[i].append(v)
                else:
                    rests[i] += (v,)
    return found, rests


def _column(h: IntPoly, ns: range) -> list[int]:
    """h(n) for each n in ns, by Horner's rule one coefficient at a time
    across the block."""
    col = [h.coeffs[-1] if h.coeffs else 0] * len(ns)
    for a in reversed(h.coeffs[:-1]):
        col = [v * n + a for v, n in zip(col, ns)]
    return col


def _block_facts(cover: CurveCover, D: IntPoly, known: tuple[int, ...], sieves: tuple[_LinearSieve, ...],
                 nonlinear: tuple[IntPoly, ...], ns: range) -> tuple[list, list[list[int]], list[tuple[int, ...]]]:
    """For each fiber n in ns, (disc, primes, values): disc(f) for f =
    g(n, u)/c, c the gcd of the u-coefficients of g(n, u), or None where
    lc_u(n) = 0 (a degenerate fiber); and the primes and values of
    _fingerprint.  g's u-coefficients and D = disc_u(g) are evaluated
    across the block (see _column).  disc(f) = D(n)/c^(2nu-2), exact
    since the discriminant is homogeneous of degree 2nu-2 in the
    coefficients and f keeps degree nu; a remainder means D is not
    disc_u.  As 2nu-2 is even, disc(f) has the odd-valuation primes of
    D(n): those of D's content (known) and of its factors of odd
    multiplicity at n, the linear ones sieved (see _sieved_primes), the
    nonlinear ones evaluated."""
    cols = [_column(h, ns) for h in cover.coeffs_u]
    power = 2 * cover.nu - 2
    discs: list[Optional[int]] = []
    for lc, c, Dn in zip(cols[-1], map(math.gcd, *cols), _column(D, ns)):
        disc, rem = divmod(Dn, c ** power) if lc else (None, 0)
        if rem:
            raise AlgebraError(f"D(n) = {Dn} is not divisible by c^(2nu-2): D is not disc_u of the cover")
        discs.append(disc)
    del cols  # freed before the sieve builds its lists, to keep the peak low
    primes, values = _sieved_primes(known, sieves, ns)
    for h in nonlinear:
        values = [rest + (v,) for rest, v in zip(values, _column(h, ns))]
    return discs, primes, values


def _census_row(cover: CurveCover, effort: int, unsplit: int, n: int, disc: Optional[int], primes: list[int],
                values: tuple[int, ...], certified: bool) -> tuple[int, Optional[bool], Optional[FieldFingerprint]]:
    """(fiber_degree, irreducible, fingerprint) for fiber n, given its
    disc, primes and values (see _block_facts) and its residue-table
    verdict (see _certified).  A disc of None is a degenerate fiber,
    (-1, None, None).  Only a fiber of degree >= 3 that no table
    certifies builds fiber_poly, for the routes of is_fiber_irreducible.
    An irreducible fiber is fingerprinted from its primes and values,
    with unsplit, the cofactor factor_integer left of D's content (see
    _fingerprint)."""
    if disc is None:
        return -1, None, None
    irr = certified or _irreducible(cover.nu, disc, functools.partial(fiber_poly, cover, n))
    return cover.nu, irr, _fingerprint(primes, values, effort, unsplit) if irr else None


def _walk(row: Callable, facts: Callable[[range], tuple], tables: dict[int, list[bool]], N: int,
          workers: int) -> Iterator[CensusRow]:
    """The rows of fibers 1..N in n order.  Each block of _CENSUS_BLOCK
    fibers gets its facts (see _block_facts) and residue-table verdicts
    (see _certified), then is mapped through row (on one pool of worker
    processes for the whole run when workers > 1), and each verdict is
    counted as it arrives: a complete fingerprint is new when no complete
    one before it has its primes, a partial one only when no fingerprint
    before it, complete or partial, has its known primes.  Only those
    primes are kept from fiber to fiber."""
    complete_seen: set[tuple[int, ...]] = set()
    partial_seen: set[tuple[int, ...]] = set()
    with contextlib.ExitStack() as stack:
        mapped: Callable = map
        if workers > 1:
            # imported here: the process pool's modules would add ~25 ms to
            # every single-worker run's start-up
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # per-fiber cost grows with n: small chunks pulled by whichever
            # worker is free keep the workers evenly loaded
            mapped = functools.partial(pool.map, chunksize=_CENSUS_CHUNK)
        for lo in range(1, N + 1, _CENSUS_BLOCK):
            ns = range(lo, min(lo + _CENSUS_BLOCK, N + 1))
            # the loop holds the block's lists, so they are freed when it
            # ends, before the next block is evaluated
            for n, (degree, irr, fp) in zip(ns, mapped(row, ns, *facts(ns), _certified(tables, ns))):
                new = False
                if irr:
                    key = fp.odd_valuation_primes
                    new = key not in complete_seen and (fp.complete or key not in partial_seen)
                    (complete_seen if fp.complete else partial_seen).add(key)
                yield CensusRow(n, degree, irr, fp, new)


def run_census(cover: CurveCover, N: int, *, effort: int = 1_000_000, delta: Optional[float] = None,
               workers: int = 1) -> DiversityCensus:
    """The census of n = 1..N: each fiber is tested for irreducibility,
    and an irreducible one is fingerprinted and counted (see _walk).
    The rows stream in n order as they are read, so memory is bounded by
    the distinct fingerprints plus one block of fibers, not by N.
    This call does everything that comes before the first fiber, in this
    process at any worker count.  eta comes first, from F =
    critical_polynomial(cover) and delta (measured on F, as delta_hat of
    build_PF(F, 10^4), unless given), so a degenerate cover raises here.
    Then each fact is computed once per run: D = disc_u(g), whose value
    at n gives fiber n's discriminant (see _block_facts); D = content *
    prod(h_i^e_i) over Z, of which a fingerprint needs only the content's
    primes of odd exponent and the factors h_i of odd e_i, the linear ones
    sieved (see _linear_sieves); and one residue table per prime below
    60, which certifies most fibers of degree >= 3 irreducible from n mod
    p alone (see _certified).  effort bounds factor_integer's rho on the
    content, on the values h(n) of the nonlinear factors and on what the
    sieve leaves of the linear ones, and workers > 1 runs the fibers on
    that many worker processes, with the same rows."""
    if N < 10:
        raise ValueError("census needs N >= 10")
    F = critical_polynomial(cover)
    if delta is None:
        delta = float(build_PF(F, _DELTA_SIEVE_LIMIT).delta_hat)
    eta = eta_exponent(F.degree, delta)
    D = discriminant_in_u(cover)
    content, factors = factor_over_Z(D)
    fact = factor_integer(content, effort=effort)
    known = tuple(p for p, e in fact.factors if e % 2)
    odd = [h for h, e in factors if e % 2]
    sieves = _linear_sieves((h for h in odd if h.degree == 1), N)
    facts = functools.partial(_block_facts, cover, D, known, sieves, tuple(h for h in odd if h.degree > 1))
    row = functools.partial(_census_row, cover, effort, fact.cofactor)
    return DiversityCensus(N=N, eta=eta, rows=_walk(row, facts, _residue_tables(cover), N, workers))
