"""Shared test-side oracles and randomized suites.

These deliberately take different routes than the library: the kernel
sieve uses smallest-prime-factor tables, the window scan uses sympy's
factorint, the root-count suite counts roots mod m one residue at a
time.  Keeping them here (and not in src/) preserves the independence
of the cross-checks.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

SRC = Path(__file__).resolve().parent.parent / "src"


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


def census_counts(rows):
    """(distinct_lower_bound, reducible_count) of a census's rows, as the
    CLI counts them: rows with new_field, rows with irreducible False."""
    return sum(r.new_field for r in rows), sum(r.irreducible is False for r in rows)


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
        if primes[-1] < params.tail_bound:
            continue
        out.append(m)
    return out


def random_poly(rng):
    """A random F of degree <= 4 with coefficients in [-30, 30] and a
    leading coefficient in [1, 9]; its degree may come out 0."""
    from divlab.algebra import IntPoly

    deg = rng.randint(1, 4)
    return IntPoly.of([rng.randint(-30, 30) for _ in range(deg)] + [rng.randint(1, 9)])


def shift_lemma_suite(seed):
    """1000 random separable F, each with a random squarefree m built
    from 2-3 primes in [5, 43] that are coprime to disc(F) and to the
    content of F and have a root of F; every instance must admit an
    exact-divisor shift l <= omega(m) from the least CRT root.  Returns
    (instances, skipped draws, lemma violations, largest shift)."""
    from divlab.algebra import poly_discriminant
    from divlab.witnesses import LemmaViolation, crt_root, exact_divisor_shift, rho_F

    rng = random.Random(seed)
    done = skipped = violations = max_shift = 0
    while done < 1000:
        F = random_poly(rng)
        if F.degree < 1:
            continue
        disc = poly_discriminant(F)
        if disc == 0:
            continue
        omega = rng.randint(2, 3)
        primes = [
            p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
            if disc % p and F.content() % p and rho_F(F, p)
        ]
        if len(primes) < omega:
            skipped += 1
            continue
        m = math.prod(rng.sample(primes, omega))
        n = crt_root(F, m) or m
        try:
            max_shift = max(max_shift, exact_divisor_shift(F, m, n))
        except LemmaViolation:
            violations += 1
        done += 1
    return done, skipped, violations, max_shift


def root_count_suite(seed):
    """rho_F against counting the roots of F mod m directly, on 200
    random F, each with a random squarefree m <= 10^4 coprime to the
    content of F.  Returns (instances, [(F coefficients, m) of each
    mismatch])."""
    from divlab.witnesses import rho_F

    rng = random.Random(seed)
    done = 0
    mismatches = []
    while done < 200:
        F = random_poly(rng)
        if F.degree < 1:
            continue
        m = 1
        for p in rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47], rng.randint(1, 3)):
            if m * p <= 10_000 and math.gcd(F.content(), p) == 1:
                m *= p
        if m == 1:
            continue
        if rho_F(F, m) != sum(1 for n in range(m) if F(n) % m == 0):
            mismatches.append((F.coeffs, m))
        done += 1
    return done, mismatches


@pytest.fixture(scope="session")
def small_PF_quadratic():
    """The T^2+1 sieve up to 30: P_F = {5, 13, 17, 29}."""
    from divlab.algebra import IntPoly
    from divlab.sieve import build_PF

    return build_PF(IntPoly.of([1, 0, 1]), 30)


def fresh_cli_run(*argv, cwd=None):
    """Import divlab.cli in a fresh interpreter and, given argv, run main
    on it there.  Returns main's exit code (None without argv) and the
    names of the divlab modules the interpreter then holds."""
    child = (
        "import sys\n"
        "from divlab.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else None\n"
        "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'divlab'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child, *argv], cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    code, *modules = done.stdout.splitlines()[-1].split()
    return None if code == "None" else int(code), set(modules)
