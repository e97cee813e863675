import bisect
import functools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_pow_mod, gf_sub

from conftest import brute_force_MF
from divlab.algebra import AlgebraError, IntPoly
from divlab.factorization import factor_integer
from divlab.sieve import (
    DENSITY_SLACK,
    DiversityParams,
    build_PF,
    check_density_floor,
    default_epsilon,
    enumerate_MF,
    prime_sieve,
)
from divlab.witnesses import verify_property_D

T = IntPoly.of([0, 1])
T2P1 = IntPoly.of([1, 0, 1])


@functools.lru_cache(maxsize=1)
def sympy_primes_to_300k():
    return list(sympy.primerange(2, 3 * 10**5 + 1))


def check_MF_membership(m, sieve, params):
    """Independent membership re-check: factorizes m from scratch and
    verifies every defining constraint."""
    fact = factor_integer(m)
    if not fact.complete or not fact.is_squarefree():
        return False
    primes = fact.primes
    if len(primes) != params.k + 1:
        return False
    if any(p not in sieve for p in primes):
        return False
    if primes[0] < params.y:
        return False
    if primes[-1] < params.tail_bound:
        return False
    return params.lo_int <= m <= params.hi_int


class TestPrimeSieve:
    def test_tiny(self):
        assert prime_sieve(10) == [2, 3, 5, 7]
        assert prime_sieve(2) == [2]

    def test_thirty(self):
        ps = prime_sieve(30)
        assert len(ps) == 10 and ps[-1] == 29

    def test_against_sympy(self):
        assert prime_sieve(10**5) == list(sympy.primerange(2, 10**5 + 1))

    @staticmethod
    def segment_end(j):
        """The limit L at which the sieve's j-th segment ends exactly:
        segments start at isqrt(L) + 1 and span 2^16 while isqrt(L) <= 2^16."""
        limit = j << 16
        for _ in range(4):
            limit = (j << 16) + math.isqrt(limit)
        assert limit == (j << 16) + math.isqrt(limit)
        return limit

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.integers(2, 3 * 10**5),
            st.tuples(st.integers(1, 4), st.integers(-2, 2)),
        )
    )
    @example((1, 0))
    @example((1, 1))  # a one-number last segment, 65793 = 3 * 21931
    @example((4, 1))
    def test_against_sympy_around_segment_ends(self, draw):
        limit = self.segment_end(draw[0]) + draw[1] if isinstance(draw, tuple) else draw
        reference = sympy_primes_to_300k()
        assert prime_sieve(limit) == reference[: bisect.bisect_right(reference, limit)]

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            prime_sieve(1)


class TestBuildPF:
    def test_gaussian_small(self, small_PF_quadratic):
        assert small_PF_quadratic.primes_in_PF == (5, 13, 17, 29)
        assert small_PF_quadratic.delta_hat == Fraction(4, 10)

    def test_identity_polynomial(self):
        sieve = build_PF(T, 30)
        assert len(sieve.primes_in_PF) == 10
        assert sieve.delta_hat == 1

    def test_gaussian_density(self):
        sieve = build_PF(T2P1, 10**5)
        assert abs(float(sieve.delta_hat) - 0.5) < 0.02

    def test_inseparable_rejected(self):
        with pytest.raises(AlgebraError):
            build_PF(IntPoly.of([1, -2, 1]), 100)

    def test_primes_of_the_content_are_dropped(self):
        # F = 2*(T + 2) has disc 1 and vanishes identically mod 2, which
        # would leave roots_mod_p nothing to list; for deg F >= 2 the
        # content's primes divide disc(F) anyway
        sieve = build_PF(IntPoly.of([4, 2]), 20)
        assert sieve.primes_in_PF == (3, 5, 7, 11, 13, 17, 19)
        assert verify_property_D(sieve) == ()
        assert build_PF(IntPoly.of([2, 0, 2]), 100).primes_in_PF == build_PF(T2P1, 100).primes_in_PF

    def test_prefix_property(self):
        small = build_PF(T2P1, 500)
        big = build_PF(T2P1, 5000)
        assert big.primes_in_PF[: len(small.primes_in_PF)] == small.primes_in_PF

    def test_membership_operator(self, small_PF_quadratic):
        assert 13 in small_PF_quadratic
        assert 7 not in small_PF_quadratic

    @pytest.mark.parametrize("coeffs", [
        (-1, -1, 0, 1),   # T^3 - T - 1
        (2, -3, 5, 77),   # non-monic: the degree drops mod 7 and 11
        (-2, 0, 0, 1),    # T^3 - 2: no linear term after depressing
    ])
    def test_cubics_match_sympy_to_30000(self, coeffs):
        # root existence per sympy: gcd(F, x^p - x) != 1 in GF(p)[x]
        F = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
        disc = int(F.discriminant())
        expected = []
        for p in sympy.primerange(2, 30001):
            f = gf_from_int_poly([int(c) for c in F.all_coeffs()], p)
            xp = gf_sub(gf_pow_mod([ZZ(1), ZZ(0)], p, f, p, ZZ), [ZZ(1), ZZ(0)], p, ZZ)
            if disc % p and len(gf_gcd(f, xp, p, ZZ)) > 1:
                expected.append(p)
        assert build_PF(IntPoly.of(list(coeffs)), 30000).primes_in_PF == tuple(expected)

    def test_listed_primes_really_have_roots(self):
        F = IntPoly.of([0, 2, -3, 1])
        sieve = build_PF(F, 2000)
        for p in sieve.primes_in_PF:
            assert sieve.discriminant % p != 0
            assert any(F(r) % p == 0 for r in range(p))


class TestDensityFloor:
    def test_gaussian(self):
        # the margin is delta_hat - (1/2 - 0.05)
        sieve = build_PF(T2P1, 10**4)
        assert abs(sieve.delta_hat - 0.5) < 0.05
        assert check_density_floor(sieve, d=2) == pytest.approx(float(sieve.delta_hat) - 0.45)

    def test_identity(self):
        sieve = build_PF(T, 10**4)
        assert sieve.delta_hat == 1
        assert check_density_floor(sieve, d=1) == pytest.approx(DENSITY_SLACK)

    def test_cube_root_of_two(self):
        # delta for T^3-2 measures near 1/3 over primes with a root; the
        # floor 1/3 - 0.05 must clear either way
        assert check_density_floor(build_PF(IntPoly.of([-2, 0, 0, 1]), 10**4), d=3) >= 0

    def test_needs_enough_primes(self):
        with pytest.raises(ValueError):
            check_density_floor(build_PF(T, 100), d=1)


class TestDiversityParams:
    def test_paper_mode_formulas(self):
        p = DiversityParams.paper(x=10**6, delta=0.5, d=2)
        eps, kappa = default_epsilon(2), math.log(math.log(10**6))
        assert p.k == math.floor(eps * 0.5 * kappa) + 1
        assert p.y == pytest.approx(math.exp(math.log(10**6) ** (1 - eps)))
        assert p.window_lo == pytest.approx(10**6 / (2 * kappa))
        assert p.window_hi == pytest.approx(10**6 / kappa)
        assert p.mode == "paper"

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            DiversityParams.paper(x=10**6, delta=0.5, d=2, epsilon=0.7)

    def test_default_epsilon(self):
        assert default_epsilon(1) == pytest.approx(1 / (1000 * math.log(2)))
        assert default_epsilon(2) == pytest.approx(1 / (1000 * math.log(4)))

    def test_tail_test_is_exact(self):
        p = DiversityParams(
            x=10**4, k=1, y=2, window_lo=10, window_hi=20,
            tail_exponent=Fraction(1, 2),
        )
        assert p.tail_bound == 100  # 100^2 == 10^4

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 12), st.integers(1, 12), st.integers(0, 40), st.integers(1, 6),
        st.sampled_from((-1, -0.5, -0.49, 0, 0.49, 0.5, 1)),
    )
    @example(1, 2, 100, 1, 0)       # x = 100 = 10^2
    @example(2, 3, 9, 3, -1)        # x = 9^3 - 1, just below a cube
    @example(5, 7, 2, 7, 0)         # x = 2^7, bound 2^5
    def test_tail_bound_agrees_with_the_power_test(self, a, b, base, e, step):
        # x near a perfect power, where x^(a/b) is an integer or just off one
        x = base**e + step
        p = DiversityParams(x=x, k=1, y=2, window_lo=1, window_hi=2, tail_exponent=Fraction(a, b))
        a, b = p.tail_exponent.numerator, p.tail_exponent.denominator
        bound = p.tail_bound
        assert bound == 1 or (bound - 1) ** b < round(x) ** a <= bound**b
        for P in {1, 2, *range(max(1, bound - 2), bound + 3)}:
            assert (P >= bound) == (P**b >= round(x) ** a)

    def test_tail_with_a_large_denominator_is_fast(self):
        # the tail bound is computed once, not as P**100000 per prime
        params = DiversityParams(
            x=10_000, k=1, y=5, window_lo=50, window_hi=2000, tail_exponent=Fraction(99999, 100000)
        )
        sieve = build_PF(T2P1, 10_000)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert enumerate_MF(sieve, params) == []
        assert time.perf_counter() - start < 1

    def test_tail_at_a_large_x_is_fast(self):
        # the root has about 1000 bits, far past the float's 53
        params = DiversityParams(
            x=1e301, k=1, y=5, window_lo=10, window_hi=1000, tail_exponent=Fraction(999, 1000)
        )
        start = time.perf_counter()
        bound = params.tail_bound
        assert time.perf_counter() - start < 3
        target = round(1e301) ** 999
        assert (bound - 1) ** 1000 < target <= bound**1000


class TestEnumerateMF:
    def test_override_example(self, small_PF_quadratic):
        params = DiversityParams(
            x=30, k=1, y=5, window_lo=50, window_hi=100, tail_exponent=None
        )
        mf = enumerate_MF(small_PF_quadratic, params)
        assert [e.m for e in mf] == [65, 85]
        assert mf[0].primes == (5, 13) and mf[0].P == 13 and mf[0].m1 == 5

    def test_single_prime_case(self):
        sieve = build_PF(T, 200)
        params = DiversityParams(
            x=200, k=0, y=2, window_lo=40, window_hi=60,
            tail_exponent=Fraction(1, 4),
        )
        mf = enumerate_MF(sieve, params)
        expected = [p for p in sieve.primes_in_PF
                    if 40 <= p <= 60 and p**4 >= 200]
        assert [e.m for e in mf] == expected

    def test_paper_mode_desk_scale_is_empty(self):
        sieve = build_PF(T2P1, 10**6)
        params = DiversityParams.paper(
            x=10**6, delta=float(sieve.delta_hat), d=2,
        )
        assert params.k == 1 and params.y > (10**6) ** 0.97
        with pytest.warns(UserWarning, match="empty"):
            assert enumerate_MF(sieve, params) == []

    def test_empty_prime_range_is_not_walked(self):
        # prime_bound = 1000 // 2**(10**7) = 0 proves the set empty; the
        # walk's pruning test would build 2**(10**7 + 1) to find that out
        params = DiversityParams(x=1000, k=10**7, y=2, window_lo=10, window_hi=1000)
        sieve = build_PF(T, 1000)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="empty"):
                assert enumerate_MF(sieve, params) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_limit_must_cover_x(self, small_PF_quadratic):
        # prime_bound = 1000 // 5 = 200, past the fixture's limit 30
        params = DiversityParams(
            x=10**4, k=1, y=5, window_lo=50, window_hi=1000
        )
        with pytest.raises(ValueError):
            enumerate_MF(small_PF_quadratic, params)

    @pytest.mark.parametrize("x, window_hi, reach", [
        (10**4, 1000, 200),  # prime_bound = 1000 // 5 below x
        (100, 10**4, 100),   # x below prime_bound = 10^4 // 5
    ])
    def test_sieve_must_reach_min_of_x_and_prime_bound(self, x, window_hi, reach):
        params = DiversityParams(x=x, k=1, y=5, window_lo=50, window_hi=window_hi)
        assert min(x, params.prime_bound) == reach
        with pytest.raises(ValueError, match=f"sieve limit {reach - 1} is below min"):
            enumerate_MF(build_PF(T2P1, reach - 1), params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            enumerate_MF(build_PF(T2P1, reach), params)

    @pytest.mark.parametrize("k, y, window_hi, bound", [
        (2, 5, 375000, 15000),
        (1, 5, 100, 20),
        (2, 4.2, 1000.5, 40),  # window_hi rounds up to 1001, y up to 5
        (3, 1.5, 1000, 125),   # every p_i is at least 2
        (0, 3, 900, 900),
        (10**9, 5, 375000, 0),  # 5^(10^9) is never computed
        (10**9, 5, -5, -1),
    ])
    def test_prime_bound(self, k, y, window_hi, bound):
        params = DiversityParams(x=10**6, k=k, y=y, window_lo=1, window_hi=window_hi)
        assert params.prime_bound == bound

    @given(
        k=st.integers(0, 64),
        y=st.floats(0.5, 50),
        window_hi=st.one_of(st.integers(-10**20, 10**20), st.floats(-1e6, 1e6)),
    )
    # either side of the shortcut k >= hi_int.bit_length()
    @example(k=64, y=2, window_hi=2**64)
    @example(k=64, y=2, window_hi=2**64 - 1)
    @example(k=64, y=2, window_hi=-2**64)
    @example(k=1, y=2, window_hi=0)
    def test_prime_bound_is_the_quotient(self, k, y, window_hi):
        params = DiversityParams(x=10**6, k=k, y=y, window_lo=1, window_hi=window_hi)
        assert params.prime_bound == params.hi_int // max(2, math.ceil(y)) ** k

    @settings(max_examples=40, deadline=None)
    @given(
        F=st.sampled_from([
            T2P1, IntPoly.of([-3, 0, 1]), IntPoly.of([5, 1, 2]),
            IntPoly.of([-1, -1, 0, 1]), IntPoly.of([0, 2, -3, 1]), IntPoly.of([2, 0, 0, 1]),
        ]),
        k=st.integers(1, 3),
        y=st.floats(1, 40),
        x=st.integers(50, 3 * 10**4),
        hi_over_x=st.floats(0.01, 4),
        lo_over_hi=st.floats(0, 1),
        tail=st.sampled_from([None, Fraction(1, 3), Fraction(1, 2)]),
    )
    @example(F=T2P1, k=1, y=5, x=10**4, hi_over_x=0.01, lo_over_hi=0.5, tail=None)
    @example(F=IntPoly.of([-1, -1, 0, 1]), k=1, y=1.5, x=1000, hi_over_x=3.5, lo_over_hi=0.1,
             tail=Fraction(1, 2))  # x < prime_bound = 1750
    def test_sieve_to_prime_bound_enumerates_the_same_set(
        self, F, k, y, x, hi_over_x, lo_over_hi, tail
    ):
        # the example is the case test_limit_must_cover_x refused while the
        # guard was limit >= x: window [50, 100], so a sieve to
        # prime_bound = 20 is enough
        hi = x * hi_over_x
        params = DiversityParams(
            x=x, k=k, y=y, window_lo=hi * lo_over_hi, window_hi=hi, tail_exponent=tail
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full = enumerate_MF(build_PF(F, x), params)
            short = enumerate_MF(build_PF(F, max(2, min(x, params.prime_bound))), params)
        assert short == full

    @settings(max_examples=150, deadline=None)
    @given(
        F=st.sampled_from([T, T2P1, IntPoly.of([0, 2, -3, 1]), IntPoly.of([-2, 0, 0, 1])]),
        k=st.integers(0, 3),
        y=st.floats(1, 30),
        window_lo=st.floats(-50, 3000),
        span=st.floats(0, 3000),
        tail=st.sampled_from([None, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]),
        x=st.just(4000),
    )
    # the earlier fixed cases: window [x/8, x/4] at x = 10^4
    @example(F=T2P1, k=1, y=5, window_lo=1250, span=1250, tail=None, x=10**4)
    @example(F=T, k=1, y=3, window_lo=1250, span=1250, tail=Fraction(1, 2), x=10**4)
    @example(F=IntPoly.of([0, 2, -3, 1]), k=2, y=2, window_lo=1250, span=1250, tail=None, x=10**4)
    # window_hi at m1*p^(k - len(chosen) + 1) for a cofactor m1 of the
    # chosen primes, and one below: m1 = 2, p = 7 at k = 3; m1 = 2*3,
    # p = 11 at k = 4
    @example(F=T, k=3, y=2, window_lo=0, span=2 * 7**3, tail=None, x=10**4)
    @example(F=T, k=3, y=2, window_lo=0, span=2 * 7**3 - 1, tail=None, x=10**4)
    @example(F=T, k=4, y=2, window_lo=0, span=2 * 3 * 11**3, tail=None, x=10**4)
    @example(F=T, k=4, y=2, window_lo=0, span=2 * 3 * 11**3 - 1, tail=None, x=10**4)
    def test_agrees_with_window_scan(self, F, k, y, window_lo, span, tail, x):
        # fractional y and window ends, windows reaching below 2, and k = 0;
        # the scan tests every defining condition of each m from scratch
        params = DiversityParams(
            x=x, k=k, y=y, window_lo=window_lo, window_hi=min(window_lo + span, x), tail_exponent=tail,
        )
        sieve = build_PF(F, x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mf = enumerate_MF(sieve, params)
        assert [e.m for e in mf] == brute_force_MF(sieve, params)

    def test_independent_membership_recheck(self):
        x = 10**4
        sieve = build_PF(T2P1, x)
        params = DiversityParams(
            x=x, k=1, y=5, window_lo=x / 8, window_hi=x / 4
        )
        mf = enumerate_MF(sieve, params)
        assert mf
        for e in mf:
            assert check_MF_membership(e.m, sieve, params)
        # neighbours are even, and 2 is never in P_F for T^2+1
        for e in mf:
            assert not check_MF_membership(e.m + 1, sieve, params)
        assert not check_MF_membership(4, sieve, params)


class TestCardinalityReport:
    def test_monotone_in_x(self):
        sieve = build_PF(T, 10**5)

        def params_for(x):
            kappa = math.log(math.log(x))
            return DiversityParams(
                x=x, k=1, y=2,
                window_lo=x / (2 * kappa), window_hi=x / kappa,
                tail_exponent=Fraction(1, 2),
            )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            counts = [len(enumerate_MF(sieve, params_for(x))) for x in (10**3, 10**4, 10**5)]
        assert counts == sorted(counts)
