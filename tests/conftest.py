"""Shared test-side oracles.

These deliberately take different routes than the library: the kernel
sieve uses smallest-prime-factor tables, the window scan uses sympy's
factorint.  Keeping them here (and not in src/) preserves the
independence of the cross-checks.
"""

import math

import pytest
import sympy


def squarefree_kernel_table(N):
    """kernel[n] = n with all square factors removed, for 0 <= n <= N."""
    spf = list(range(N + 1))
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            for q in range(p * p, N + 1, p):
                if spf[q] == q:
                    spf[q] = p
    kernel = [0] * (N + 1)
    kernel[1] = 1
    for n in range(2, N + 1):
        m, k = n, 1
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                k *= p
        kernel[n] = k
    return kernel


def shift_arg(f, c):
    """f(T + c) for the IntPoly f, by Horner's rule."""
    from divlab.algebra import IntPoly

    out = IntPoly(())
    for a in reversed(f.coeffs):
        out = out * IntPoly.of([c, 1]) + IntPoly.of([a])
    return out


def brute_force_MF(sieve, params):
    """Scan every integer in the window and test the defining conditions
    from scratch (sympy factorization)."""
    out = []
    lo, hi = params.lo_int, params.hi_int
    pf = set(sieve.primes_in_PF)
    for m in range(max(2, lo), hi + 1):
        fact = sympy.factorint(m)
        if any(e > 1 for e in fact.values()):
            continue
        primes = sorted(fact)
        if len(primes) != params.k + 1:
            continue
        if any(p not in pf for p in primes):
            continue
        if primes[0] < params.y:
            continue
        if not params.tail_ok(primes[-1]):
            continue
        out.append(m)
    return out


@pytest.fixture(scope="session")
def small_PF_quadratic():
    """The T^2+1 sieve up to 30: P_F = {5, 13, 17, 29}."""
    from divlab.algebra import IntPoly
    from divlab.sieve import build_PF

    return build_PF(IntPoly.of([1, 0, 1]), 30)
