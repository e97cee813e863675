import math
import random

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod, gf_strip

from divlab.algebra import AlgebraError, IntPoly, poly_discriminant
from divlab import factorization
from divlab.factorization import (
    _brent_rho,
    _ppowmod,
    _reduce_mod_p,
    factor_integer,
    factor_mod_p,
    factor_over_Z,
    has_root_mod_p,
    is_irreducible_mod_p,
    is_prime,
    roots_mod_p,
)

x = sympy.Symbol("x")
PRIMES_TO_10K = [p for p in range(2, 10**4) if is_prime(p)]
PRIMES_50_TO_20K = [p for p in range(50, 2 * 10**4) if is_prime(p)]


def to_sympy(f):
    return sympy.Poly(list(reversed(f.coeffs)), x)


def mod_p_product(fact):
    """The product of a ModPolyFactorization's unit and factors, as
    _reduce_mod_p gives it."""
    out = IntPoly.of([fact.unit])
    for g, e in fact.factors:
        out = out * power(IntPoly.of(list(g)), e)
    return _reduce_mod_p(out, fact.p)


def reassemble(fact):
    """The integer an IntFactorization factors."""
    v = fact.sign * fact.cofactor
    for p, e in fact.factors:
        v *= p**e
    return v


def random_poly(rng, deg_max=6, coeff=60):
    while True:
        c = [rng.randint(-coeff, coeff) for _ in range(rng.randint(1, deg_max + 1))]
        if any(c):
            return IntPoly.of(c)


class TestRootsModP:
    def test_gaussian_split(self):
        assert roots_mod_p(IntPoly.of([1, 0, 1]), 5) == [2, 3]

    def test_gaussian_inert(self):
        assert roots_mod_p(IntPoly.of([1, 0, 1]), 3) == []

    def test_identity(self):
        assert roots_mod_p(IntPoly.of([0, 1]), 7) == [0]

    def test_vanishing_rejected(self):
        with pytest.raises(AlgebraError):
            roots_mod_p(IntPoly.of([7, 14]), 7)

    def test_agrees_with_exhaustive_evaluation(self):
        # most draws are p >= 50, which splits gcd(f, x^p - x)
        rng = random.Random(11)
        primes = [p for p in range(2, 600) if is_prime(p)]
        for _ in range(400):
            p = rng.choice(primes)
            f = random_poly(rng)
            if all(c % p == 0 for c in f.coeffs):
                continue
            brute = sorted(r for r in range(p) if f(r) % p == 0)
            assert roots_mod_p(f, p) == brute

    # p - 1 = q * 2^e with e from 1 to 12: the Tonelli-Shanks loop runs up
    # to e - 1 times; 12289 = 3 * 2^12 + 1 and 7681 = 15 * 2^9 + 1
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.sampled_from(PRIMES_50_TO_20K), st.sampled_from((257, 769, 7681, 12289, 18433))),
        st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
        st.sampled_from(("any", "square", "lc")),
    )
    @example(12289, 3, 0, 1, "any")       # x^2 + 3, a root pair mod 12289
    @example(7681, 5, 0, 1, "square")     # 5*(x - 1)^2 is 0 mod 7681 at 1 alone
    @example(101, 7, 3, 2, "lc")          # 101*2*x^2 + 3x + 7 is linear mod 101
    def test_degree_at_most_two_agrees_with_evaluation(self, p, c0, c1, c2, kind):
        # roots in closed form once p >= 50: p | disc gives one double
        # root, and p | lc drops the degree mod p
        if kind == "square":  # c2 * (x - c1)^2
            c0, c1 = c2 * c1 * c1, -2 * c2 * c1
        elif kind == "lc":
            c2 *= p
        f = IntPoly.of([c0, c1, c2])
        assume(f.degree >= 1 and any(c % p for c in f.coeffs))
        assert roots_mod_p(f, p) == [r for r in range(p) if f(r) % p == 0]


# discriminants -23, -31, -2^2 * 109 and -3^3 * 53^2 (a triple root mod
# 53); the last leading coefficient drops the degree mod 61 and 67
CUBICS = [(-1, -1, 0, 1), (-1, 1, 0, 1), (4, 1, 0, 1), (53, 0, 0, 1), (5, -3, 7, 61 * 67)]


def cubic_has_root(c, p):
    c0, c1, c2, c3 = c
    return any((((c3 * r + c2) * r + c1) * r + c0) % p == 0 for r in range(p))


class TestHasRootModP:
    def test_agrees_with_exhaustive_evaluation(self):
        # primes past 50 reach the gcd(f, x^p - x) branch
        rng = random.Random(13)
        primes = [p for p in range(2, 400) if is_prime(p)]
        for _ in range(400):
            p = rng.choice(primes)
            f = random_poly(rng)
            if all(c % p == 0 for c in f.coeffs):
                continue
            assert has_root_mod_p(f, p) == any(f(r) % p == 0 for r in range(p))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=4, max_size=4),
        st.sampled_from([p for p in range(2, 48) if is_prime(p)]),
    )
    def test_cubic_root_iff_reducible(self, coeffs, p):
        # a cubic that is squarefree of full degree mod p is irreducible
        # there exactly when it has no root; is_irreducible_mod_p reads the
        # root test, so sympy is the oracle
        f = IntPoly.of(coeffs)
        assume(f.degree == 3 and f.lc % p != 0)
        assume(poly_discriminant(f) % p != 0)
        assert has_root_mod_p(f, p) == (not irreducible_per_sympy(f, p))

    def test_cubics_at_every_prime_to_3000(self):
        legendre = set()
        for c in CUBICS:
            f = IntPoly.of(list(c))
            disc = poly_discriminant(f)
            for p in range(51, 3000, 2):
                if not is_prime(p):
                    continue
                legendre.add(sympy.jacobi_symbol(disc % p, p))
                assert has_root_mod_p(f, p) == cubic_has_root(c, p), (c, p)
        assert legendre == {-1, 0, 1}

    def test_non_residue_discriminant_skips_the_power(self, monkeypatch):
        # (D/p) = -1 means a linear times an irreducible quadratic factor,
        # and (D/p) = 1 is settled by Cardano's cubic residue test, so no
        # cubic computes x^p mod F
        from divlab.sieve import build_PF

        powered = []

        def recorded(*args):
            powered.append(args)

        monkeypatch.setattr(factorization, "_ppowmod", recorded)
        monkeypatch.setattr(factorization, "_linear_part", recorded)
        for c in CUBICS:
            build_PF(IntPoly.of(list(c)), 20000)
        assert powered == []

    def test_cubic_branch_agrees_with_evaluation(self):
        # every branch of the cubic test: (D/p) = -1, 0 and 1 at p = 1 and
        # 2 mod 3, pure cubics (no linear term after depressing), and
        # leading coefficients that vanish mod p
        seen = set()

        @settings(max_examples=600, deadline=None, database=None)
        @given(
            st.one_of(st.sampled_from([2, 3, 5, 7]), st.sampled_from(PRIMES_TO_10K)),
            st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4),
            st.sampled_from(["general", "no_square_term", "pure", "repeated_root", "drop"]),
        )
        def check(p, c, shape):
            c0, c1, c2, c3 = c
            c3 = c3 or 1
            if shape == "no_square_term":
                c2 = 0
            elif shape == "pure":
                c1 = c2 = 0
            elif shape == "repeated_root":
                # (x - c0)^2 * (c3*x - c1)
                c0, c1, c2, c3 = -c0 * c0 * c1, c0 * c0 * c3 + 2 * c0 * c1, -2 * c0 * c3 - c1, c3
            elif shape == "drop":
                c3 = p * c3
            f = IntPoly.of([c0, c1, c2, c3])
            assume(any(v % p for v in f.coeffs))
            if f.lc % p and p > 3:
                seen.add((p % 3, sympy.jacobi_symbol(poly_discriminant(f) % p, p), shape == "pure"))
            assert has_root_mod_p(f, p) == cubic_has_root(f.coeffs, p)

        check()
        assert {r for r, _, _ in seen} == {1, 2}
        assert {j for _, j, _ in seen} == {-1, 0, 1}
        assert (1, 1, True) in seen  # a pure cubic at (D/p) = 1


class TestPowMod:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(PRIMES_TO_10K),
        st.lists(st.integers(0, 10**4), min_size=2, max_size=10),
        st.lists(st.integers(0, 10**4), max_size=20),
        st.one_of(st.sampled_from([0, 1]), st.integers(2, 10**40)),
    )
    def test_agrees_with_sympy(self, p, mod, a, e):
        # moduli of degree 1..9, monic or not; sympy lists coefficients
        # from the top down
        mod = [c % p for c in mod]
        assume(mod[-1] != 0)
        a = [c % p for c in a]
        expected = gf_pow_mod(gf_strip(a[::-1]), e, mod[::-1], p, ZZ)
        assert _ppowmod(a, e, mod, p) == [int(c) for c in reversed(expected)]


class TestFactorModP:
    def test_quartic_char_two(self):
        fact = factor_mod_p(IntPoly.of([1, 0, 0, 0, 1]), 2)
        assert fact.factors == (((1, 1), 4),)

    def test_gaussian_split(self):
        fact = factor_mod_p(IntPoly.of([1, 0, 1]), 5)
        assert fact.factors == (((2, 1), 1), ((3, 1), 1))

    def test_gaussian_irreducible(self):
        fact = factor_mod_p(IntPoly.of([1, 0, 1]), 3)
        assert fact.factors == (((1, 0, 1), 1),)

    def test_random_reassembly_and_degree_pattern(self):
        rng = random.Random(23)
        primes = [2, 3, 5, 7, 11, 13, 101, 1009]
        for _ in range(300):
            p = rng.choice(primes)
            f = random_poly(rng)
            if all(c % p == 0 for c in f.coeffs):
                continue
            fact = factor_mod_p(f, p)
            assert mod_p_product(fact) == _reduce_mod_p(f, p)
            # degree multiset must match sympy's
            ours = sorted(
                (len(g) - 1) for g, e in fact.factors for _ in range(e)
            )
            sp = sympy.factor_list(to_sympy(f), modulus=p)[1]
            theirs = sorted(g.degree(x) for g, e in sp for _ in range(e))
            assert ours == theirs
            for g, _ in fact.factors:
                assert is_irreducible_mod_p(IntPoly.of(g), p)


def power(g, e):
    out = IntPoly.of([1])
    for _ in range(e):
        out = out * g
    return out


def sympy_factors_mod_p(f, p):
    """(monic little-endian coeffs, multiplicity) per sympy, sorted."""
    _, facs = sympy.factor_list(to_sympy(f), modulus=p)
    out = []
    for g, e in facs:
        c = [int(a) % p for a in reversed(g.all_coeffs())]
        inv = pow(c[-1], -1, p)
        out.append((tuple(a * inv % p for a in c), e))
    return sorted(out, key=lambda fe: (len(fe[0]), fe[0]))


class TestMultiplicities:
    """Exact multiplicities against sympy, on products with repeated
    factors, p-th powers and polynomials in x^p."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_factor_mod_p(self, p):
        rng = random.Random(61 + p)
        checked = 0
        while checked < 60:
            f = IntPoly.of([rng.choice([1, 2, 3])])
            for _ in range(rng.randint(1, 3)):
                g = random_poly(rng, deg_max=2, coeff=9)
                if rng.random() < 0.3:  # g(x^p) = g(x)^p mod p
                    g = IntPoly.of([c if i % p == 0 else 0 for i in range(p * g.degree + 1) for c in [g.coeffs[i // p]]])
                f = f * power(g, rng.choice([1, 2, p, p + 1, 2 * p]))
            if f.degree > 40 or all(c % p == 0 for c in f.coeffs):
                continue
            fact = factor_mod_p(f, p)
            assert list(fact.factors) == sympy_factors_mod_p(f, p)
            assert mod_p_product(fact) == _reduce_mod_p(f, p)
            checked += 1

    def test_factor_mod_p_hand_examples(self):
        # (x + 1)^6 (x^2 + x + 1)^2 mod 2 and (x^3 - x - 1)^9 mod 3
        f = power(IntPoly.of([1, 1]), 6) * power(IntPoly.of([1, 1, 1]), 2)
        assert factor_mod_p(f, 2).factors == (((1, 1), 6), ((1, 1, 1), 2))
        g = IntPoly.of([-1, -1, 0, 1])
        assert factor_mod_p(power(g, 9), 3).factors == (((2, 2, 0, 1), 9),)

    def test_factor_over_Z(self):
        rng = random.Random(67)
        for _ in range(80):
            f = IntPoly.of([rng.choice([-6, -2, -1, 1, 3])])
            for _ in range(rng.randint(1, 3)):
                f = f * power(random_poly(rng, deg_max=3, coeff=9), rng.randint(1, 4))
            if f.degree > 24:
                continue
            content, factors = factor_over_Z(f)
            sp_content, sp = sympy.factor_list(to_sympy(f))
            theirs = []
            for g, e in sp:
                c = [int(a) for a in reversed(g.all_coeffs())]
                if c[-1] < 0:
                    c, sp_content = [-a for a in c], sp_content * (-1) ** e
                theirs.append((tuple(c), e))
            assert content == sp_content
            assert sorted((g.coeffs, e) for g, e in factors) == sorted(theirs)

    def test_leading_coefficient_49(self):
        # 49 * (1/49) < 1 in floats: monicizing must stay in integers
        f = IntPoly.of([1, 3, 49])
        assert factor_over_Z(f) == (1, [(f, 1)])
        g = IntPoly.of([2, 7]) * IntPoly.of([-3, 7])
        assert factor_over_Z(g) == (1, [(IntPoly.of([-3, 7]), 1), (IntPoly.of([2, 7]), 1)])

    def test_factor_over_Z_hand_example(self):
        # -4 (x - 1)^3 (x^2 + 1)^2 (2x + 3)
        f = IntPoly.of([-4]) * power(IntPoly.of([-1, 1]), 3) * power(IntPoly.of([1, 0, 1]), 2) * IntPoly.of([3, 2])
        assert factor_over_Z(f) == (-4, [(IntPoly.of([-1, 1]), 3), (IntPoly.of([3, 2]), 1), (IntPoly.of([1, 0, 1]), 2)])


def irreducible_per_sympy(f, p):
    return sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).is_irreducible


class TestIrreducibleModP:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.sampled_from([2, 3]), st.sampled_from(PRIMES_TO_10K)),
        st.lists(st.integers(-10**4, 10**4), min_size=2, max_size=10),
        st.integers(-10**4, 10**4),
        st.sampled_from(["plain", "square", "drop"]),
    )
    def test_agrees_with_sympy(self, p, coeffs, c, shape):
        # "square" multiplies in a repeated linear factor; "drop" makes the
        # leading coefficient vanish mod p.  Both must answer False.
        f = IntPoly.of(coeffs)
        if shape == "square":
            f = IntPoly.of(coeffs[:8]) * IntPoly.of([c, 1]) * IntPoly.of([c, 1])
        elif shape == "drop":
            f = IntPoly.of(coeffs[:-1] + [p * (c or 1)])
        assume(1 <= f.degree <= 9)
        ours = is_irreducible_mod_p(f, p)
        assert ours == (f.lc % p != 0 and irreducible_per_sympy(f, p))
        if shape != "plain":
            assert not ours

    @pytest.mark.parametrize("coeffs,p", [
        ((1, 1, 0, 0, 1), 2), ((1, 1, 0, 0, 1), 59), ((3, -2, 0, 0, 1), 53),
        ((1, 0, 1, 0, 0, 1), 2), ((-1, -1, 0, 0, 0, 1), 79), ((2, 0, 1, 0, 0, 1), 67),
    ])
    def test_irreducible_input_takes_half_its_degree_in_powers(self, monkeypatch, coeffs, p):
        # no irreducible factor of degree <= n/2 means irreducible, so at
        # most floor(n/2) Frobenius powers x^(p^d) are computed
        f = IntPoly.of(list(coeffs))
        assert irreducible_per_sympy(f, p)
        powered = []

        def recorded(a, e, mod, q):
            powered.append(q)
            return _ppowmod(a, e, mod, q)

        monkeypatch.setattr(factorization, "_ppowmod", recorded)
        assert is_irreducible_mod_p(f, p)
        assert 0 < len(powered) <= f.degree // 2

    @pytest.mark.parametrize("coeffs,p", [
        # irreducible at p = 1 and 2 mod 3 and at p = 5; a root; a repeated
        # root (x^3 - x - 1 has discriminant -23); three roots
        ((-1, -1, 0, 1), 29), ((-1, -1, 0, 1), 13), ((3, 2, 5, 7), 5), ((-2, 0, 0, 1), 103),
        ((-1, -1, 0, 1), 5), ((-1, -1, 0, 1), 23), ((-6, 11, -6, 1), 101),
    ])
    def test_cubic_takes_no_powers(self, monkeypatch, coeffs, p):
        # of full degree it is irreducible iff it has no root, which
        # has_root_mod_p decides by closed-form criteria at p >= 5
        f = IntPoly.of(list(coeffs))
        monkeypatch.setattr(factorization, "_ppowmod", None)
        assert is_irreducible_mod_p(f, p) == irreducible_per_sympy(f, p)


class TestFactorOverZ:
    def test_quartic_minus_one(self):
        content, factors = factor_over_Z(IntPoly.of([-1, 0, 0, 0, 1]))
        assert content == 1
        assert sorted(f.coeffs for f, _ in factors) == [(-1, 1), (1, 0, 1), (1, 1)]
        assert all(e == 1 for _, e in factors)

    def test_gaussian_irreducible(self):
        content, factors = factor_over_Z(IntPoly.of([1, 0, 1]))
        assert content == 1 and factors == [(IntPoly.of([1, 0, 1]), 1)]

    def test_content_pulled_out(self):
        content, factors = factor_over_Z(IntPoly.of([0, 6]))
        assert content == 6 and factors == [(IntPoly.of([0, 1]), 1)]

    def test_random_products(self):
        rng = random.Random(37)
        for _ in range(150):
            nf = rng.randint(1, 3)
            f = IntPoly.of([rng.choice([-2, -1, 1, 2, 3])])
            for _ in range(nf):
                f = f * random_poly(rng, deg_max=3, coeff=9)
            content, factors = factor_over_Z(f)
            prod = IntPoly.of([content])
            for g, e in factors:
                assert g.content() == 1 and g.lc > 0
                for _ in range(e):
                    prod = prod * g
            assert prod == f
            # each claimed factor is irreducible per sympy
            for g, _ in factors:
                if g.degree >= 1:
                    assert to_sympy(g).is_irreducible

    def test_matches_sympy_on_random_inputs(self):
        rng = random.Random(41)
        for _ in range(150):
            f = random_poly(rng, deg_max=6, coeff=40)
            if f.degree < 1:
                continue
            _, factors = factor_over_Z(f)
            ours = sorted(
                (g.degree, e) for g, e in factors
            )
            sp = sympy.factor_list(to_sympy(f))[1]
            theirs = sorted((g.degree(x), e) for g, e in sp)
            assert ours == theirs


class TestFactorInteger:
    def test_hand_example(self):
        fact = factor_integer(3250)
        assert fact.sign == 1 and fact.cofactor == 1
        assert fact.factors == ((2, 1), (5, 3), (13, 1))

    def test_negative(self):
        fact = factor_integer(-4)
        assert fact.sign == -1 and fact.factors == ((2, 2),)

    def test_semiprime_with_large_prime(self):
        fact = factor_integer(14885)
        assert fact.factors == ((5, 1), (13, 1), (229, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_integer(0)

    def test_reassembly_and_certification(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(2, 10**12) * rng.choice([1, -1])
            fact = factor_integer(n)
            assert reassemble(fact) == n
            for p, _ in fact.factors:
                assert sympy.isprime(p)
            if fact.complete:
                assert fact.cofactor == 1

    def test_rho_runs_above_the_miller_rabin_range(self):
        n = 1000003 * 1000000007 * 10000000000000061
        assert n > factorization._MR_LIMIT
        fact = factor_integer(n)
        assert fact.complete and reassemble(fact) == n
        assert dict(fact.factors) == sympy.factorint(n)

    def test_probable_prime_above_the_range_stays_cofactor(self):
        m89 = 2**89 - 1
        assert sympy.isprime(m89) and m89 > factorization._MR_LIMIT
        fact = factor_integer(3 * m89)
        assert fact.factors == ((3, 1),) and fact.cofactor == m89
        # and a split above the range lists the certified prime below it
        fact = factor_integer(1000000007 * m89)
        assert fact.factors == ((1000000007, 1),) and fact.cofactor == m89

    def test_partial_factorization_is_honest(self):
        # product of two ~40-digit primes: rho budget cannot split it
        p = 2**89 - 1
        q = 2**107 - 1
        fact = factor_integer(p * q, effort=1000)
        assert reassemble(fact) == p * q
        if not fact.complete:
            assert fact.cofactor > 1 and not sympy.isprime(fact.cofactor)


def _brent_rho_one_step_at_a_time(n, effort):
    # the plain Brent loop, one reduction of qacc per step
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, 1000):
        y, r, qacc = 2, 1, 1
        g, ys = 1, y
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    qacc = qacc * (x - y) % n
                g = math.gcd(qacc, n)
                k += m
            r *= 2
            spent += r
            if spent > effort:
                return 0
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return 0


class TestBrentRho:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2**10, 2**40), min_size=2, max_size=3),
        st.one_of(st.integers(1, 5000), st.just(10**6)),
    )
    @example([2**10, 2**40], 1)  # the budget runs out: both return 0
    @example([2**30, 2**40], 10**6)  # found after r reaches 2**15
    @example([2**40, 2**40 - 2**20, 2**39], 10**6)  # runs the whole budget
    def test_agrees_with_one_step_at_a_time(self, bounds, effort):
        n = math.prod(sympy.prevprime(b) for b in bounds)
        assert _brent_rho(n, effort) == _brent_rho_one_step_at_a_time(n, effort)

    @pytest.mark.xfail(strict=True, reason="returns 0 once the budget runs out, dropping the gcd it holds")
    def test_keeps_a_factor_found_as_the_budget_runs_out(self):
        # fiber 759 of 2*u^4 - t^2*u + 3 leaves this cofactor; the rho
        # gcd splits it in the last batch before the budget of 10^6 runs out
        assert _brent_rho(110137244602142499110209, 10**6) in (227811872881, 483456999889)


class TestIsPrime:
    def test_small_range_against_sympy(self):
        for n in range(-3, 2000):
            assert is_prime(n) == sympy.isprime(n)

    def test_random_large(self):
        rng = random.Random(59)
        for _ in range(300):
            n = rng.randint(10**15, 10**18)
            assert is_prime(n) == sympy.isprime(n)

    def test_strong_pseudoprimes(self):
        # composites that fool small base sets
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
