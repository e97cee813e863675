"""The ramification core: root counting mod squarefree m, CRT root
lifting, the exact-divisor shift lemma, primitive witnesses, empirical
verification of the supporting divisibility properties, greedy/generous
classification and clique detection.  The single-m functions factor m
and compute disc(F); the set pipeline and the checks of properties C and
D take F, disc(F) and P_F from the sieve; E's check only trial-divides F(n).
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import AlgebraError, IntPoly, LemmaViolation, poly_discriminant
from .factorization import _MR_LIMIT, TRIAL_BOUND, factor_integer, is_prime, roots_mod_p, trial_divide
from .sieve import ChebotarevSieve, DiversityParams, MFElement

class PreconditionError(AlgebraError):
    """A lemma hypothesis is violated by the inputs."""


class NoRootError(AlgebraError):
    """F has no root modulo some prime divisor of m."""

    def __init__(self, p: int):
        super().__init__(f"no root modulo {p}")
        self.p = p


def _squarefree_primes(m: int) -> tuple[int, ...]:
    if m < 1:
        raise PreconditionError("m must be a positive integer")
    fact = factor_integer(m)
    if not fact.complete:
        raise PreconditionError(f"could not fully factor m = {m}")
    if not fact.is_squarefree():
        raise PreconditionError(f"m = {m} is not squarefree")
    return fact.primes


def rho_F(F: IntPoly, m: int) -> int:
    """Number of residues n in [0, m) with F(n) = 0 mod m, for squarefree
    m, via multiplicativity over the prime factors."""
    return math.prod(len(roots_mod_p(F, p)) for p in _squarefree_primes(m))


def _root_table(F: IntPoly, primes: Iterable[int]) -> dict[int, list[int]]:
    """roots_mod_p(F, p) for each of the distinct primes p."""
    return {p: roots_mod_p(F, p) for p in primes}


def exact_divides(m: int, value: int) -> bool:
    """m || value: m divides value and gcd(m, value/m) = 1."""
    if value % m != 0:
        return False
    return math.gcd(m, value // m) == 1


def crt_root(F: IntPoly, m: int) -> int:
    """Smallest n in [0, m) with m | F(n), over every combination of one
    root per prime divisor, joined by the Chinese Remainder Theorem."""
    primes = _squarefree_primes(m)
    return _crt_root(primes, m, _root_table(F, primes))


def _crt_root(primes: Sequence[int], m: int, roots: dict[int, list[int]]) -> int:
    """The n in [0, m) with n = r mod p for one root r mod each prime p of
    m are the sums of r * e_p mod m, with the CRT idempotents e_p = 1 mod
    p, 0 mod m/p.  Meet in the middle: with A the sums over the first
    half of the primes and B those over the rest, sorted, each a + b lies
    in [0, 2m), so the least n at a given a is the lesser of a + B[0],
    when that is below m, and a + b - m for the least b >= m - a."""
    for p in primes:
        if not roots[p]:
            raise NoRootError(p)

    def sums(part: Sequence[int]) -> list[int]:
        residues = [0]
        for p in part:
            e = m // p * pow(m // p, -1, p)
            residues = [(s + r * e) % m for s in residues for r in roots[p]]
        return residues

    half = len(primes) // 2
    B = sorted(sums(primes[half:]))
    least = m
    for a in sums(primes[:half]):
        i = bisect.bisect_left(B, m - a)
        if i:
            least = min(least, a + B[0])
        if i < len(B):
            least = min(least, a + B[i] - m)
    return least


def exact_divisor_shift(F: IntPoly, m: int, n: int) -> int:
    """Smallest shift l in {0, ..., omega(m)} with m || F(n + l*m).

    Requires: m squarefree dividing F(n), coprime to disc(F), and with
    smallest prime factor exceeding omega(m).  A valid shift is then
    guaranteed to exist; failing to find one is an internal error.
    """
    return _shift(F, poly_discriminant(F), _squarefree_primes(m), m, n)


def _shift(F: IntPoly, disc: int, primes: Sequence[int], m: int, n: int) -> int:
    value = F(n)
    if value % m != 0:
        raise PreconditionError(f"m = {m} does not divide F({n})")
    if disc == 0:
        raise PreconditionError("F is not separable")
    if math.gcd(m, disc) != 1:
        raise PreconditionError(f"m = {m} shares a factor with disc(F) = {disc}")
    if exact_divides(m, value):
        return 0
    omega = len(primes)
    for ell in range(1, omega + 1):
        if exact_divides(m, F(n + ell * m)):
            return ell
    # p_min(m) > omega(m) is what guarantees a shift exists; the search
    # itself is well defined without it
    if primes[0] <= omega:
        raise PreconditionError(
            f"no shift found for m = {m}: p_min(m) = {primes[0]} <= omega(m) = {omega}"
        )
    raise LemmaViolation(
        f"no exact-divisor shift for m = {m}, n = {n} despite valid hypotheses"
    )


@dataclass(frozen=True)
class WitnessRecord:
    """A squarefree m together with the witness n_m where m exactly
    divides F(n_m)."""

    m: int
    primes: tuple[int, ...]
    n_m: int
    shift_l: int

    @property
    def omega(self) -> int:
        return len(self.primes)


def primitive_witness(F: IntPoly, m: int, k: Optional[int] = None, x: Optional[float] = None) -> WitnessRecord:
    """Build the canonical witness: minimal CRT root (remapped to m when
    zero), then the minimal exact-divisor shift.  Asserts the bound
    n_m <= m*(omega(m)+1), and n_m <= m*(k+2) <= x when the set
    parameters are supplied.  Factors m once; for a set of m over one F,
    witnesses_for_MF takes disc(F) and the primes from the sieve and the
    roots mod each prime once."""
    primes = _squarefree_primes(m)
    return _witness(F, poly_discriminant(F), primes, m, _root_table(F, primes), k, x)


def _witness(
    F: IntPoly, disc: int, primes: tuple[int, ...], m: int, roots: dict[int, list[int]],
    k: Optional[int], x: Optional[float],
) -> WitnessRecord:
    n0 = _crt_root(primes, m, roots) or m
    ell = _shift(F, disc, primes, m, n0)
    n_m = n0 + ell * m
    omega = len(primes)
    if n_m > m * (omega + 1):
        raise LemmaViolation(f"witness bound violated: {n_m} > {m}*({omega}+1)")
    if k is not None and n_m > m * (k + 2):
        raise LemmaViolation(f"witness bound violated: {n_m} > {m}*({k}+2)")
    if x is not None and n_m > x:
        raise LemmaViolation(f"witness exceeds x: {n_m} > {x}")
    return WitnessRecord(m=m, primes=primes, n_m=n_m, shift_l=ell)


def recheck_witness(F: IntPoly, rec: WitnessRecord) -> bool:
    """Independent witness re-check (separate code path from the builder)."""
    v = F(rec.n_m)
    if v % rec.m != 0:
        return False
    if math.gcd(rec.m, v // rec.m) != 1:
        return False
    return 1 <= rec.n_m <= rec.m * (rec.omega + 1)


def witnesses_for_MF(
    sieve: ChebotarevSieve, mf: Sequence[MFElement], params: Optional[DiversityParams] = None
) -> list[WitnessRecord]:
    """primitive_witness over the sieve's F for every element of the set,
    in order, without factoring: each element's primes are taken as given
    (strictly increasing with product m), each distinct one must be in
    P_F, disc(F) is the sieve's, and roots_mod_p runs once per distinct
    prime of the set."""
    for e in mf:
        if math.prod(e.primes) != e.m or any(a >= b for a, b in zip((1,) + e.primes, e.primes)):
            raise PreconditionError(f"{e.primes} is not the increasing prime list of m = {e.m}")
    primes = sorted({p for e in mf for p in e.primes})
    for p in primes:
        if p not in sieve:
            raise PreconditionError(f"{p} is not in P_F")
    k = params.k if params is not None else None
    x = params.x if params is not None else None
    roots = _root_table(sieve.F, primes)
    return [_witness(sieve.F, sieve.discriminant, e.primes, e.m, roots, k, x) for e in mf]


# ---------------------------------------------------------------------------
# property verification suites

# candidate n per prime that verify_property_C checks
_C_TRIALS = 10


def verify_property_C(sieve: ChebotarevSieve, p: int) -> tuple[int, ...]:
    """The n with p^2 | F(n) but not p || F(n+p), for p in P_F.  The
    candidates are the first _C_TRIALS positive n among the Hensel lifts
    of the roots of F mod p, all simple since p does not divide disc(F),
    and their translates by p^2, root by root."""
    if p not in sieve:
        raise PreconditionError(f"{p} is not in P_F")
    F, dF, p2 = sieve.F, sieve.F.derivative(), p * p
    lifts = [(r - F(r) * pow(dF(r) % p, -1, p)) % p2 for r in roots_mod_p(F, p)]
    candidates = [n for lift in lifts for n in range(lift, lift + _C_TRIALS * p2, p2) if n > 0][:_C_TRIALS]
    for n in candidates:
        if F(n) % p2 != 0:
            raise LemmaViolation(f"Hensel lift {n} of a root mod {p} is not a root mod {p2}")
    return tuple(n for n in candidates if not exact_divides(p, F(n + p)))


def verify_property_D(sieve: ChebotarevSieve) -> tuple[int, ...]:
    """The primes p of P_F with no n <= 2p such that p || F(n).  They are
    returned, not raised; `divlab verify` counts any as a hard failure
    (exit 3)."""
    F = sieve.F
    failures = []
    for p in sieve.primes_in_PF:
        # the candidates n <= 2p: the least positive n at each root mod p,
        # and n + p
        least = [r or p for r in roots_mod_p(F, p)]
        if not any(exact_divides(p, F(n + j * p)) for n in least for j in (0, 1)):
            failures.append(p)
    return tuple(failures)


@dataclass(frozen=True)
class PropertyEReport:
    # (n, count) with count > deg F primes >= n/4 dividing F(n)
    violations: tuple[tuple[int, int], ...]  # ruled out by the size of F(n)
    exceptions: tuple[tuple[int, int], ...]  # allowed by the size of F(n)
    indeterminate: tuple[int, ...]  # a composite rest the size bound cannot settle


def verify_property_E(F: IntPoly, n_lo: int, n_hi: int) -> PropertyEReport:
    """Count the prime divisors of F(n) that are >= n/4; once n is large,
    at most d = deg F of them.  More than d such primes force
    |F(n)| >= (n/4)^(d+1), so a count above d where
    4^(d+1)*|F(n)| < n^(d+1) is a violation, which only a factorization
    fault can give; a count above d that the size allows is an
    exception.  Only trial_divide factors: each prime of its rest is
    above TRIAL_BOUND >= n/4, so a rest <= TRIAL_BOUND^(d+1-count) holds
    at most d - count of them and settles n; else a rest of 1 or a prime
    gives the exact count, and any other rest leaves n indeterminate.
    Requires n_hi <= 4*TRIAL_BOUND."""
    if n_hi > 4 * TRIAL_BOUND:
        raise PreconditionError(f"n_hi = {n_hi} exceeds 4*TRIAL_BOUND = {4 * TRIAL_BOUND}")
    d = F.degree
    violations = []
    exceptions = []
    indeterminate = []
    for n in range(n_lo, n_hi + 1):
        v = F(n)
        if v == 0:
            continue
        small, rest = trial_divide(abs(v))
        count = sum(1 for p in small if 4 * p >= n)
        if count <= d and rest <= TRIAL_BOUND ** (d + 1 - count):
            continue
        if rest > 1:
            if rest >= _MR_LIMIT or not is_prime(rest):
                indeterminate.append(n)
                continue
            count += 1
        if count > d:
            ruled_out = 4 ** (d + 1) * abs(v) < n ** (d + 1)
            (violations if ruled_out else exceptions).append((n, count))
    return PropertyEReport(
        violations=tuple(violations),
        exceptions=tuple(exceptions),
        indeterminate=tuple(indeterminate),
    )


# ---------------------------------------------------------------------------
# greedy/generous classification and cliques

def classify_greedy(witnesses: Sequence[WitnessRecord], d: int) -> list[bool]:
    """Whether each record is greedy, in order: greedy when fewer than 6d
    other records share its witness n_m, generous when at least 6d do."""
    shared = Counter(w.n_m for w in witnesses)
    return [shared[w.n_m] <= 6 * d for w in witnesses]


@dataclass(frozen=True)
class Cliques:
    """The clique text of a set, one P-group at a time.  Iterating yields
    one str per P with at least three cofactors, in ascending P: the
    group's `cliques.csv` lines joined, each ending in a newline, built
    only when the group is reached.  len() is the total number of lines,
    counted without building any."""

    groups: tuple[tuple[int, tuple[int, ...]], ...]  # (P, sorted distinct cofactors)

    def __len__(self) -> int:
        return sum(math.comb(len(cofs), 3) for _, cofs in self.groups)

    def __iter__(self) -> Iterator[str]:
        for P, cofs in self.groups:
            text = [str(c) for c in cofs]
            # lcms[i][j - i - 1] = lcm(cofs[i], cofs[j]) for i < j
            lcms = [[math.lcm(a, b) for b in cofs[i + 1 :]] for i, a in enumerate(cofs)]
            parts: list[str] = []
            for i in range(len(cofs) - 2):
                head, row = f"{P},{text[i]},", lcms[i]
                for j in range(i + 1, len(cofs) - 1):
                    prefix, ab = head + text[j] + ",", row[j - i - 1]
                    # a later c makes an equal-lcm trio only where ab is
                    # both lcm(a, c) and lcm(b, c); otherwise every line
                    # of the pair is proper-lcm
                    if ab in lcms[j] and ab in row[j - i :]:
                        parts.extend([
                            prefix + c + (",equal-lcm\n" if ab == ac == bc else ",proper-lcm\n")
                            for c, ac, bc in zip(text[j + 1 :], row[j - i :], lcms[j])
                        ])
                    else:
                        sep = ",proper-lcm\n" + prefix
                        parts.append(prefix + sep.join(text[j + 1 :]) + ",proper-lcm\n")
            yield "".join(parts)


def find_cliques(mf: Iterable[MFElement]) -> Cliques:
    """Group the set by largest prime: every triple of distinct cofactors
    sharing a P, in P order and then in `itertools.combinations` order
    over the sorted cofactors, each as its `cliques.csv` line
    "P,m1,m2,m3,type\n".  A trio is "equal-lcm" when its three pairwise
    lcms agree (their common value is then the lcm of all three), and
    "proper-lcm" otherwise.  The text comes as one str per P-group, so a
    writer holds only the largest group's text, never the whole file."""
    by_P: dict[int, set[int]] = defaultdict(set)
    for e in mf:
        by_P[e.P].add(e.m1)
    return Cliques(tuple((P, tuple(sorted(g))) for P, g in sorted(by_P.items()) if len(g) >= 3))
