"""The set P_F of primes where the critical polynomial has a root (with
its empirical density), and enumeration of the special squarefree set
M_F(x) used by the diversity experiments.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraError, IntPoly, poly_discriminant
from .factorization import has_root_mod_p, prime_sieve


@dataclass(frozen=True)
class ChebotarevSieve:
    """Primes up to `limit` where F has a root and which divide neither
    the discriminant nor the content of F, with the measured density
    among all primes."""

    F: IntPoly
    limit: int
    discriminant: int
    primes_in_PF: tuple[int, ...]
    total_primes: int

    @property
    def delta_hat(self) -> Fraction:
        return Fraction(len(self.primes_in_PF), self.total_primes)

    def __contains__(self, p: int) -> bool:
        i = bisect.bisect_left(self.primes_in_PF, p)
        return i < len(self.primes_in_PF) and self.primes_in_PF[i] == p


def build_PF(F: IntPoly, limit: int) -> ChebotarevSieve:
    """Filter the primes up to limit by: p divides neither disc(F) nor
    the content of F, and F has a root mod p.  A prime of the content
    divides disc(F) too once deg F >= 2; a linear F has disc 1, and F
    vanishes identically mod such a p, so it has no roots mod p to list."""
    if F.degree < 1:
        raise AlgebraError("F must be non-constant")
    disc = poly_discriminant(F)
    if disc == 0:
        raise AlgebraError("F is not separable (zero discriminant)")
    primes = prime_sieve(limit)
    bad = disc * F.content()
    kept = tuple(p for p in primes if bad % p != 0 and has_root_mod_p(F, p))
    return ChebotarevSieve(
        F=F, limit=limit, discriminant=disc, primes_in_PF=kept, total_primes=len(primes)
    )


# the finite-sample slack below 1/d that check_density_floor allows
DENSITY_SLACK = 0.05


def check_density_floor(sieve: ChebotarevSieve, d: int) -> float:
    """The margin by which the measured density clears 1/d, up to
    DENSITY_SLACK: negative when it falls short."""
    if sieve.total_primes < 100:
        raise ValueError("sieve limit too small: need at least 100 primes")
    return float(sieve.delta_hat) - (1.0 / d - DENSITY_SLACK)


@dataclass(frozen=True)
class DiversityParams:
    """The parameters that fix the special squarefree set M_F(x): the
    number k+1 of prime factors, the smallest-prime bound y, the window
    [window_lo, window_hi] and the tail cutoff x^tail_exponent.

    `paper` derives k, y and the window from (x, epsilon, delta):
    kappa = log log x, k = floor(eps*delta*kappa) + 1, y = exp((log x)^(1-eps)),
    window [x/(2 kappa), x/kappa]. Called directly, the class takes them
    as given, with no tail constraint unless one is set. `mode` records
    which of the two made the bundle and is stamped on all outputs.
    """

    x: float
    k: int
    y: float
    window_lo: float
    window_hi: float
    tail_exponent: Optional[Fraction] = None  # None switches the tail constraint off
    mode: str = "override"  # "paper" | "override"

    @staticmethod
    def paper(
        x: float,
        delta: float,
        d: int,
        epsilon: Optional[float] = None,
        tail_exponent: Optional[Fraction] = Fraction(9, 10),
    ) -> "DiversityParams":
        if epsilon is None:
            epsilon = default_epsilon(d)
        if not (0 < epsilon <= 0.5):
            raise ValueError("epsilon must lie in (0, 1/2]")
        kappa = math.log(math.log(x))
        return DiversityParams(
            x=x,
            k=math.floor(epsilon * delta * kappa) + 1,
            y=math.exp(math.log(x) ** (1 - epsilon)),
            window_lo=x / (2 * kappa),
            window_hi=x / kappa,
            tail_exponent=tail_exponent,
            mode="paper",
        )

    # integer window bounds, rounded outward so float noise never drops
    # a boundary element
    @property
    def lo_int(self) -> int:
        return math.floor(self.window_lo)

    @property
    def hi_int(self) -> int:
        return math.ceil(self.window_hi)

    @property
    def prime_bound(self) -> int:
        """The largest prime an element of M_F(x) can contain: its k
        smaller primes are each at least max(2, ceil(y)), and m <= hi_int.
        Once 2**k exceeds |hi_int| the quotient is known without the power."""
        hi = self.hi_int
        if self.k >= hi.bit_length():
            return -1 if hi < 0 else 0
        return hi // max(2, math.ceil(self.y)) ** self.k

    @cached_property
    def tail_bound(self) -> int:
        """The least P >= 1 with P >= x^tail_exponent (x rounded to int),
        exactly: P**b >= round(x)**a for tail_exponent = a/b; 1 without
        a tail."""
        if self.tail_exponent is None:
            return 1
        a, b = self.tail_exponent.numerator, self.tail_exponent.denominator
        target = round(self.x) ** a
        if target <= 1:
            return 1
        # integer Newton steps for the b-th root, seeded by the float root
        # with all but its top 40 bits cleared: one step from any P >= 1
        # lands at or above the floor of the real root (AM-GM), and from
        # there each step falls until it reaches that floor
        def step(P: int) -> int:
            return ((b - 1) * P + target // P ** (b - 1)) // b

        log_root = math.log2(target) / b
        shift = max(0, math.floor(log_root) - 40)
        P = step(math.ceil(2 ** (log_root - shift)) << shift)
        while (Q := step(P)) < P:
            P = Q
        return P if P**b >= target else P + 1


def default_epsilon(d: int) -> float:
    """The choice 1/(1000 log(2d))."""
    return 1.0 / (1000.0 * math.log(2 * d))


@dataclass(frozen=True)
class MFElement:
    """One member m of the special squarefree set, with its factorization
    split as m = m1 * P, P the largest prime factor."""

    m: int
    primes: tuple[int, ...]

    @property
    def P(self) -> int:
        return self.primes[-1]

    @property
    def m1(self) -> int:
        return self.m // self.P


def enumerate_MF(sieve: ChebotarevSieve, params: DiversityParams) -> list[MFElement]:
    """All squarefree m composed of primes from the sieve with:
    window_lo <= m <= window_hi, omega(m) = k+1, p_min(m) >= y, and
    p_max(m) past the tail cutoff.

    Enumerates cofactors m1 as increasing k-subsets of the admissible
    small primes, then attaches each admissible large prime. No element
    contains a prime above params.prime_bound, so a sieve to
    min(x, prime_bound) gives the same set as a sieve to x; a shorter one
    is refused.
    """
    if sieve.limit < min(params.x, params.prime_bound):
        raise ValueError(
            f"sieve limit {sieve.limit} is below min(x, prime_bound) = "
            f"min({params.x:g}, {params.prime_bound})"
        )
    primes = sieve.primes_in_PF
    lo, hi = params.lo_int, params.hi_int
    k = params.k
    y_idx = bisect.bisect_left(primes, math.ceil(params.y))
    out: list[MFElement] = []

    def attach_large(m1: int, chosen: tuple[int, ...], min_idx: int) -> None:
        lo_p = max(-(-lo // m1), (chosen[-1] + 1) if chosen else 2, params.tail_bound)
        hi_p = hi // m1
        i = bisect.bisect_left(primes, lo_p, lo=min_idx)
        while i < len(primes) and primes[i] <= hi_p:
            P = primes[i]
            # P >= y since min_idx >= y_idx, P is past the tail by lo_p,
            # and lo <= m1*P <= hi by lo_p, hi_p
            out.append(MFElement(m=m1 * P, primes=chosen + (P,)))
            i += 1

    def extend(m1: int, chosen: tuple[int, ...], start: int) -> None:
        if len(chosen) == k:
            attach_large(m1, chosen, start if chosen else y_idx)
            return
        for i in range(start, len(primes)):
            p = primes[i]
            # p needs k - len(chosen) - 1 more small primes plus a larger
            # P, each above p
            if m1 * p ** (k - len(chosen) + 1) > hi:
                break
            extend(m1 * p, chosen + (p,), i + 1)

    # every element's largest prime lies in [max(2, ceil(y)), prime_bound];
    # when that range is empty, skip the walk, whose pruning test builds p**(k+1)
    if params.prime_bound >= max(2, math.ceil(params.y)):
        extend(1, (), y_idx)
    out.sort(key=lambda e: (e.m, e.primes))
    if not out:
        warnings.warn(
            "special squarefree set is empty for these parameters "
            f"(mode={params.mode}, k={params.k}, y={params.y:.4g}, "
            f"window=[{params.window_lo:.4g}, {params.window_hi:.4g}], "
            f"tail={params.tail_exponent})",
            stacklevel=2,
        )
    return out
