"""Acceptance gate: one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
import warnings
from fractions import Fraction

from conftest import (
    brute_force_MF,
    census_counts,
    root_count_suite,
    shift_arg,
    shift_lemma_suite,
    squarefree_kernel_table,
)
from divlab.algebra import IntPoly, parse_cover
from divlab.diversity import (
    eta_exponent,
    fiber_poly,
    fingerprint,
    is_fiber_irreducible,
    run_census,
)
from divlab.sieve import DiversityParams, build_PF, check_density_floor, enumerate_MF
from divlab.witnesses import (
    primitive_witness,
    recheck_witness,
    verify_property_C,
    verify_property_D,
    verify_property_E,
    witnesses_for_MF,
)
from test_diversity import count_reducible_fibers

T = IntPoly.of([0, 1])
T2P1 = IntPoly.of([1, 0, 1])
CUBIC = IntPoly.of([0, 2, -3, 1])
SQRT_COVER = parse_cover("u^2 - t")

EXCEPTION_CAP = 20


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_quadratic_census_exactness():
    """Census of u^2 - t at N = 10^4 matches the squarefree-kernel sieve
    oracle; reducible_count = 100; under 60 s single-threaded."""
    N = 10**4
    start = time.monotonic()
    distinct, reducible = census_counts(tuple(run_census(SQRT_COVER, N).rows))
    elapsed = time.monotonic() - start
    kernel = squarefree_kernel_table(N)
    oracle = len({kernel[n] for n in range(1, N + 1) if math.isqrt(n) ** 2 != n})
    ok = distinct == oracle and reducible == 100 and elapsed < 60
    report(1, ok, f"distinct {distinct} == oracle {oracle}, reducible {reducible}, {elapsed:.1f}s")


def test_criterion_02_hilbert_bound_shape():
    """Reducible fibers of u^2 - t at N = 10^2, 10^4, 10^6 number
    exactly 10, 100, 1000 (c * N^(1/2) with c = 1)."""
    counts = [count_reducible_fibers(SQRT_COVER, 10**e) for e in (2, 4, 6)]
    ok = counts == [10, 100, 1000]
    report(2, ok, f"counts {counts} vs [10, 100, 1000]")


def test_criterion_03_shift_lemma_suite():
    """10^3 randomized precondition-satisfying instances all yield a
    shift l <= omega(m), no LemmaViolation, under 30 s."""
    start = time.monotonic()
    instances, _, violations, max_shift = shift_lemma_suite(0)
    elapsed = time.monotonic() - start
    ok = instances == 1000 and violations == 0 and elapsed < 30
    report(
        3, ok,
        f"{instances} instances, {violations} violations, "
        f"max shift {max_shift}, {elapsed:.1f}s",
    )


def test_criterion_04_rho_correctness():
    """200 random (F, m), m <= 10^4: multiplicative count equals
    brute-force root counting mod m."""
    instances, mismatches = root_count_suite(0)
    ok = instances == 200 and not mismatches
    report(4, ok, f"{instances} instances, {len(mismatches)} mismatches")


def test_criterion_05_witness_bound():
    """Every witness generated satisfies n_m <= m(omega+1) and the
    independent exact-divisibility re-check."""
    total = bad = 0
    # from enumerated sets
    for F in (T2P1, CUBIC):
        x = 10**4
        sieve = build_PF(F, x)
        params = DiversityParams(
            x=x, k=1, y=5, window_lo=x / 8, window_hi=x / 4
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mf = enumerate_MF(sieve, params)
        for rec in witnesses_for_MF(sieve, mf, params):
            total += 1
            if not (rec.n_m <= rec.m * (rec.omega + 1) and recheck_witness(F, rec)):
                bad += 1
    # and from ad-hoc squarefree m
    rng = random.Random(5)
    while total < 600:
        F = rng.choice((T2P1, CUBIC))
        p, q = rng.sample((5, 13, 17, 29, 37, 41, 53, 61), 2)
        try:
            rec = primitive_witness(F, p * q)
        except Exception:
            continue
        total += 1
        if not (rec.n_m <= rec.m * (rec.omega + 1) and recheck_witness(F, rec)):
            bad += 1
    report(5, bad == 0, f"{total} witnesses, {bad} bound/re-check failures")


def test_criterion_06_chebotarev_density():
    """delta_hat(T^2+1) over primes <= 10^6 in [0.49, 0.51];
    delta_hat(T) = 1; density floor passes for T, T^2+1, T^3-2."""
    start = time.monotonic()
    gauss = build_PF(T2P1, 10**6)
    dh = float(gauss.delta_hat)
    ident = build_PF(T, 10**4)
    floors = [
        check_density_floor(build_PF(F, 10**4), d) >= 0
        for F, d in ((T, 1), (T2P1, 2), (IntPoly.of([-2, 0, 0, 1]), 3))
    ]
    elapsed = time.monotonic() - start
    ok = 0.49 <= dh <= 0.51 and ident.delta_hat == 1 and all(floors) and elapsed < 60
    report(
        6, ok,
        f"delta_hat(T^2+1)={dh:.4f}, delta_hat(T)={float(ident.delta_hat)}, "
        f"floors {floors}, {elapsed:.1f}s",
    )


def test_criterion_07_fingerprint_invariance():
    """Generator shift u -> u+c (c = 1, 2, 3) preserves the
    odd-valuation prime set on 100 random irreducible fibers."""
    rng = random.Random(7)
    covers = [SQRT_COVER, parse_cover("u^2 - t^3 + 3*t^2 - 2*t"),
              parse_cover("u^3 - t*u - t")]
    done = bad = 0
    while done < 100:
        cover = rng.choice(covers)
        n = rng.randint(1, 5000)
        if is_fiber_irreducible(cover, n) is not True:
            continue
        f = fiber_poly(cover, n)
        base = fingerprint(f).odd_valuation_primes
        for c in (1, 2, 3):
            if fingerprint(shift_arg(f, c)).odd_valuation_primes != base:
                bad += 1
        done += 1
    report(7, bad == 0, f"{done} fibers x 3 shifts, {bad} mismatches")


def test_criterion_08_mf_enumeration_oracle():
    """Override-mode enumerate_MF at x = 10^4 equals a brute-force
    window scan."""
    x = 10**4
    checked = []
    for F, k, y, tail in (
        (T2P1, 1, 5, None),
        (T, 1, 3, Fraction(1, 2)),
        (CUBIC, 2, 2, None),
    ):
        sieve = build_PF(F, x)
        params = DiversityParams(
            x=x, k=k, y=y,
            window_lo=x / 8, window_hi=x / 4, tail_exponent=tail,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ours = [e.m for e in enumerate_MF(sieve, params)]
        checked.append(ours == brute_force_MF(sieve, params))
    report(8, all(checked), f"3 configurations, set equality {checked}")


def test_criterion_09_properties_CDE():
    """Properties C, D, E for F in {T, T^2+1, T^3-3T^2+2T} with
    n, p <= 10^4: no C violation, no E count that the size of F(n)
    rules out, and D failures and E exceptions below the cap of 20."""
    details = []
    ok = True
    for F in (T, T2P1, CUBIC):
        sieve = build_PF(F, 10**4)
        c_viol = 0
        for p in sieve.primes_in_PF:
            c_viol += len(verify_property_C(sieve, p))
        d_fail = verify_property_D(sieve)
        e_rep = verify_property_E(F, 1, 10**4)
        this_ok = (
            c_viol == 0
            and len(d_fail) < EXCEPTION_CAP
            and not e_rep.violations
            and len(e_rep.exceptions) < EXCEPTION_CAP
            and not e_rep.indeterminate
        )
        ok = ok and this_ok
        details.append(
            f"{F}: C={c_viol} D={len(d_fail)} "
            f"E={len(e_rep.violations)} (+{len(e_rep.exceptions)} allowed by size)"
        )
    report(9, ok, "; ".join(details))


def test_criterion_10_trend_report():
    """Advisory: distinct/N >= 0.6 at N = 10^3, 10^4, 10^5 and above
    N/(log N)^(1-eta)."""
    eta = eta_exponent(1, 1.0)
    lines = []
    ok = True
    for N in (10**3, 10**4, 10**5):
        distinct, _ = census_counts(tuple(run_census(SQRT_COVER, N).rows))
        ratio = distinct / N
        bound = N / math.log(N) ** (1 - eta)
        this_ok = ratio >= 0.6 and distinct > bound
        ok = ok and this_ok
        lines.append(f"N={N}: {ratio:.3f} (bound {bound:.0f})")
    report(10, ok, "; ".join(lines))
