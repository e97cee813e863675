import math
import random
import tracemalloc

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divlab.algebra as algebra
import divlab.diversity as diversity
import divlab.factorization as factorization
from conftest import census_counts, shift_arg, squarefree_kernel_table
from divlab.algebra import (
    AlgebraError,
    CurveCover,
    DegenerateCoverError,
    IntPoly,
    discriminant_in_u,
    parse_cover,
    poly_discriminant,
)
from divlab.diversity import (
    DegenerateFiberError,
    eta_exponent,
    fiber_poly,
    fingerprint,
    is_fiber_irreducible,
    run_census,
)
from divlab.factorization import TRIAL_BOUND, factor_integer, factor_over_Z, is_irreducible_mod_p
from divlab.sieve import default_epsilon

SQRT_COVER = parse_cover("u^2 - t")
BLOCK = diversity._CENSUS_BLOCK
CUBIC_BASE = parse_cover("u^2 - t^3 + 3*t^2 - 2*t")

u = sympy.Symbol("u")


def census_rows(cover, N):
    """The census's (fiber_degree, irreducible, None) for n = 1..N:
    residue tables, then the degree routes.  Needs no critical value, so
    any cover runs.  No caller reads a fingerprint, so _fingerprint is
    stubbed out: at N = 10^6 it would make the walk about eight times
    slower."""
    ns = range(1, N + 1)
    D = discriminant_in_u(cover)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diversity, "_fingerprint", lambda *args: None)
        return [diversity._census_row(cover, D, 1, n, (), cert)
                for n, cert in zip(ns, certified_fibers(cover, ns))]


def certified_fibers(cover, ns):
    """The residue tables' verdicts for the fibers ns."""
    return diversity._certified(diversity._residue_tables(cover), ns)


def count_reducible_fibers(cover, N):
    """Reducible-fiber count over n = 1..N (degenerate fibers excluded)."""
    return sum(irr is False for _, irr, _ in census_rows(cover, N))


def sympy_irreducible(f):
    """Is the IntPoly f irreducible over Q?  sympy's factor_list, with
    degree <= 1 irreducible."""
    factors = sympy.Poly(list(reversed(f.coeffs)), u).factor_list()[1]
    return f.degree <= 1 or (len(factors) == 1 and factors[0][1] == 1)


class TestFiberPoly:
    def test_simple(self):
        assert fiber_poly(SQRT_COVER, 5) == IntPoly.of([-5, 0, 1])

    def test_cubic_base(self):
        assert fiber_poly(CUBIC_BASE, 3) == IntPoly.of([-6, 0, 1])

    def test_degree_drop(self):
        cover = parse_cover("t*u^2 - 1")
        with pytest.raises(DegenerateFiberError):
            fiber_poly(cover, 0)


class TestIrreducibility:
    def test_square_fiber(self):
        assert is_fiber_irreducible(SQRT_COVER, 4) is False

    def test_nonsquare_fiber(self):
        assert is_fiber_irreducible(SQRT_COVER, 5) is True

    def test_exactly_the_squares_up_to_100(self):
        reducible = [n for n in range(1, 101)
                     if is_fiber_irreducible(SQRT_COVER, n) is False]
        assert reducible == [k * k for k in range(1, 11)]

    def test_reducible_count_formula(self):
        for N in (50, 100, 400, 1000):
            assert count_reducible_fibers(SQRT_COVER, N) == math.isqrt(N)

    def test_random_fibers_against_sympy(self):
        rng = random.Random(17)
        covers = [SQRT_COVER, CUBIC_BASE, parse_cover("u^3 - t*u - t"),
                  parse_cover("u^4 - t*u^2 + t^2 + 1"), parse_cover("u^3 - t")]
        for _ in range(150):
            cover = rng.choice(covers)
            n = rng.randint(1, 3000)
            assert is_fiber_irreducible(cover, n) is sympy_irreducible(fiber_poly(cover, n))

    def test_pure_cubic_reducible_exactly_at_cubes(self):
        cover = parse_cover("u^3 - t")
        reducible = [n for n in range(1, 1001) if is_fiber_irreducible(cover, n) is False]
        assert reducible == [k**3 for k in range(1, 11)]


@st.composite
def random_covers(draw):
    """Covers with nu = 2..5 and deg_t <= 3, signed coefficients, and
    possibly a content c(t) and a leading u-coefficient that vanishes at
    some n in 1..60 (degenerate fibers)."""
    nu = draw(st.integers(2, 5))
    coeff = st.integers(-9, 9)
    cols = [IntPoly.of(draw(st.lists(coeff, min_size=1, max_size=3))) for _ in range(nu + 1)]
    assume(not cols[-1].is_zero)
    if draw(st.booleans()):
        cols[-1] = cols[-1] * IntPoly.of([-draw(st.integers(1, 60)), 1])
    content = IntPoly.of([draw(coeff), draw(st.integers(-3, 3))])
    assume(not content.is_zero)
    return CurveCover.of([c * content for c in cols])


@st.composite
def linear_covers(draw):
    """Covers whose D(t) splits into linear factors over Z: u^2 - h, u^3 - h,
    u^3 - h*u - h and u^4 - h*u - h (D = 4h, -27h^2, h^2(4h - 27) and
    -h^3(27h + 256)) for h = a*t + b with a shift b up to 10^6, times a
    content k0 + k1*t of either sign, which makes c != 1 at some n and
    vanishes at others (a degenerate fiber)."""
    h = IntPoly.of([draw(st.integers(-10**6, 10**6)), draw(st.integers(-30, 30).filter(bool))])
    zero, one = IntPoly.of([]), IntPoly.of([1])
    cols = draw(st.sampled_from([
        [-h, zero, one],
        [-h, zero, zero, one],
        [-h, -h, zero, one],
        [-h, -h, zero, zero, one],
    ]))
    content = IntPoly.of([draw(st.integers(-6, 6)), draw(st.integers(-2, 2))])
    assume(not content.is_zero)
    return CurveCover.of([c * content for c in cols])


class TestFiberPipeline:
    @settings(max_examples=150, deadline=None)
    @given(random_covers())
    def test_census_discriminants_match_the_resultant(self, cover):
        # the census reads every fiber's discriminant off D = disc_u(g) as
        # D(n)/c^(2nu-2), whether a residue table certifies the fiber or
        # not; each must equal the resultant-based one.  The fibers no
        # table certifies reach the degree routes with fiber_poly's
        # polynomial, of degree nu
        discs, reached = [], []
        fiber_discriminant, irreducible = diversity._fiber_discriminant, diversity._irreducible

        def recorded(coeffs, Dn):
            discs.append(fiber_discriminant(coeffs, Dn))
            return discs[-1]

        def checked(degree, disc, fiber):
            f = fiber()
            assert degree == f.degree == cover.nu
            assert disc == poly_discriminant(f)
            reached.append(f)
            return irreducible(degree, disc, lambda: f)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diversity, "_fiber_discriminant", recorded)
            mp.setattr(diversity, "_irreducible", checked)
            rows = census_rows(cover, 60)
        live = [n for n in range(1, 61) if cover.lc_u(n) != 0]
        certified = certified_fibers(cover, range(1, 61))
        assert discs == [poly_discriminant(fiber_poly(cover, n)) for n in live]
        assert reached == [fiber_poly(cover, n) for n in live if not certified[n - 1]]
        assert [degree for degree, _, _ in rows] == [cover.nu if n in live else -1 for n in range(1, 61)]

    @pytest.mark.parametrize("certified", [False, True])
    def test_a_wrong_discriminant_raises(self, certified):
        # g = t*u^2 - 2*t has c = n, so D(n) = 8n^2 must divide by c^2;
        # D + 1 does not at n = 2, and a fiber a table certifies is
        # checked all the same
        cover = parse_cover("t*u^2 - 2*t")
        D = discriminant_in_u(cover)
        assert D == IntPoly.of([0, 0, 8])
        with pytest.raises(AlgebraError, match="not divisible"):
            for n in range(1, 11):
                diversity._census_row(cover, D + IntPoly.of([1]), None, n, (), certified)

    def test_fiber_poly_only_for_the_fibers_no_table_certifies(self, monkeypatch):
        # on u^3 - t*u - t at N = 2200, exactly 3 fibers are irreducible
        # mod no prime below 60: 8 (reducible: (u + 2)(u^2 - 2u - 4)), 770
        # and 2168.  Only they build fiber_poly, no fiber computes a
        # resultant, the main process builds none at workers 2, and the census
        # evaluates D = discriminant_in_u(cover) once per run (the eta
        # step's critical_polynomial reuses it)
        cover = parse_cover("u^3 - t*u - t")
        uncertified = [n for n in range(1, 2201)
                       if not any(is_irreducible_mod_p(fiber_poly(cover, n), p) for p in sympy.primerange(60))]
        assert uncertified == [8, 770, 2168]
        specialized, calls = [], {"fiber_poly": 0, "poly_discriminant": 0}
        for name in calls:
            original = getattr(diversity, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                if _name == "fiber_poly":
                    specialized.append(args[1])
                return _original(*args)

            monkeypatch.setattr(diversity, name, counted)
        for workers in (1, 2):
            algebra.discriminant_in_u.cache_clear()
            rows = tuple(run_census(cover, 2200, workers=workers).rows)
            assert [r.n for r in rows] == list(range(1, 2201)) and None not in {r.irreducible for r in rows}
            assert rows[7].irreducible is False and census_counts(rows)[1] == 1
            assert algebra.discriminant_in_u.cache_info().misses == 1
            # worker processes keep their own counts
            assert calls == {"fiber_poly": 3, "poly_discriminant": 0}
            assert specialized == uncertified

    # degree >= 4 fibers: at an odd prime with the wrong discriminant
    # symbol, the distinct-degree irreducibility test never certifies
    HIGH_DEGREE = ("2*u^4 - t^2*u + 3", "u^5 - t*u - 1", "u^6 + t*u^2 - 3")

    @staticmethod
    def can_certify(f, disc, p):
        """Stickelberger: irreducible mod an odd good p forces
        (disc/p) = (-1)^(deg - 1)."""
        return pow(disc % p, (p - 1) // 2, p) == (1 if f.degree % 2 else p - 1)

    def test_skipped_primes_never_certify(self):
        skipped = 0
        for text in self.HIGH_DEGREE:
            cover = parse_cover(text)
            for n in range(1, 41):
                f = fiber_poly(cover, n)
                disc = poly_discriminant(f)
                for p in sympy.primerange(3, 80):
                    if f.lc % p and disc % p and not self.can_certify(f, disc, p):
                        skipped += 1
                        assert not is_irreducible_mod_p(f, p)
        assert skipped > 1000


class TestResidueTables:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_covers(), linear_covers()))
    # lc = t vanishes at r = 0: without the lc test the tables would
    # certify the reducible fibers 2 = (u - 1)(2u^2 + 2u + 1) and 51
    @example(parse_cover("t*u^3 - u - 1"))
    @example(parse_cover("t*u^3 + u^2 - 2"))
    @example(parse_cover("-t*u^3 + t^2*u + 2*t*u + t^2 + 2*t"))  # c = n, lc < 0
    @example(parse_cover("t*u^2 - 5*u^2 + t"))  # degenerate at n = 5
    def test_census_verdicts_match_the_per_fiber_oracle(self, cover):
        for n, (_, irr, _) in enumerate(census_rows(cover, 60), 1):
            if cover.lc_u(n) == 0:
                assert irr is None
            else:
                assert irr is is_fiber_irreducible(cover, n)

    @pytest.mark.parametrize("text", ["u^3 - t*u - t", "u^3 - t", "t*u^3 - u - 1", "t*u^3 + u^2 - 2",
                                      "2*u^4 - t^2*u + 3", "-t*u^3 + t^2*u + 2*t*u + t^2 + 2*t"])
    def test_every_true_entry_certifies_its_residue_class(self, text):
        # sympy factors the fibers n = r, r + p, r + 37p and r + 1000p of
        # every True entry (p, r); an entry whose lc_u(r) vanishes mod p
        # is False whatever g(r, u) is mod p
        cover = parse_cover(text)
        tables = diversity._residue_tables(cover)
        assert sorted(tables) == list(sympy.primerange(60))
        checked = 0
        for p, table in tables.items():
            assert len(table) == p
            for r, entry in enumerate(table):
                if cover.lc_u(r) % p == 0:
                    assert not entry
                elif entry:
                    for n in (r + k * p for k in (0, 1, 37, 1000)):
                        assert sympy_irreducible(fiber_poly(cover, n))
                        checked += 1
        assert checked > 300

    def test_tables_are_built_once_per_run(self, monkeypatch):
        # one test per residue of each prime below 60, sum(p) = 440 on a
        # monic cover, whatever N and the worker count; lc = 2 rules out
        # both residues mod 2 (438).  The main process factors D over Z,
        # and at workers 1 also each fiber no table certifies, which gets
        # no test of this kernel: 8 and 770 of the cubic, 25, 80 and 90 of
        # the quartic
        calls, factors = [], []
        kernel, factor = diversity.is_irreducible_mod_p, diversity.factor_over_Z
        monkeypatch.setattr(diversity, "is_irreducible_mod_p", lambda f, p: calls.append(p) or kernel(f, p))
        monkeypatch.setattr(diversity, "factor_over_Z", lambda f: factors.append(f) or factor(f))
        for text, N, workers, tests, factored in (("u^3 - t*u - t", 10, 1, 440, 2),
                                                  ("u^3 - t*u - t", 2000, 1, 440, 3),
                                                  ("u^3 - t*u - t", 130, 2, 440, 1),
                                                  ("u^3 - t*u - t", 2000, 3, 440, 1),
                                                  ("2*u^4 - t^2*u + 3", 130, 1, 438, 4)):
            calls.clear()
            factors.clear()
            census = run_census(parse_cover(text), N, workers=workers, delta=1.0)
            assert len(calls) == tests  # before the first row is read
            tuple(census.rows)
            assert (len(calls), len(factors)) == (tests, factored)

    def test_the_fibers_no_table_certifies_are_factored_over_Z(self, monkeypatch):
        # on -t*u^3 + t^2*u + 2*t*u + t^2 + 2*t (c = n, lc < 0) at N = 2000,
        # no table certifies the fibers 6 (reducible), 768 and 1804.  Fiber
        # 1804 is irreducible mod 11, but 11 divides lc_u(1804) = -1804, so
        # the table for 11 cannot hold it
        cover = parse_cover("-t*u^3 + t^2*u + 2*t*u + t^2 + 2*t")
        uncertified = [6, 768, 1804]
        certified = certified_fibers(cover, range(1, 2001))
        assert [n for n, cert in enumerate(certified, 1) if not cert] == uncertified
        assert [sympy_irreducible(fiber_poly(cover, n)) for n in uncertified] == [False, True, True]
        assert is_irreducible_mod_p(fiber_poly(cover, 1804), 11) and cover.lc_u(1804) == -1804
        factors = []
        factor = diversity.factor_over_Z
        monkeypatch.setattr(diversity, "factor_over_Z", lambda f: factors.append(f) or factor(f))
        for workers, fibers in ((1, uncertified), (2, [])):
            factors.clear()
            rows = tuple(run_census(cover, 2000, workers=workers, delta=1.0).rows)
            assert None not in {r.irreducible for r in rows} and census_counts(rows)[1] == 1
            assert [rows[n - 1].irreducible for n in uncertified] == [False, True, True]
            # worker processes keep their own calls
            assert factors == [discriminant_in_u(cover)] + [fiber_poly(cover, n) for n in fibers]


class TestFingerprint:
    def test_sqrt_twelve(self):
        fp = fingerprint(IntPoly.of([-12, 0, 1]))
        assert fp.odd_valuation_primes == (3,) and fp.complete

    def test_sqrt_two(self):
        fp = fingerprint(IntPoly.of([-2, 0, 1]))
        assert fp.odd_valuation_primes == (2,) and fp.complete

    def test_sqrt_five(self):
        fp = fingerprint(IntPoly.of([-5, 0, 1]))
        assert fp.odd_valuation_primes == (5,) and fp.complete

    def test_inseparable_rejected(self):
        with pytest.raises(AlgebraError):
            fingerprint(IntPoly.of([1, -2, 1]))

    def test_render(self):
        assert fingerprint(IntPoly.of([-12, 0, 1])).render() == "3"

    def test_generator_shift_invariance(self):
        rng = random.Random(29)
        covers = [SQRT_COVER, CUBIC_BASE, parse_cover("u^3 - t*u - t")]
        done = 0
        while done < 100:
            cover = rng.choice(covers)
            n = rng.randint(1, 5000)
            if is_fiber_irreducible(cover, n) is not True:
                continue
            f = fiber_poly(cover, n)
            base = fingerprint(f)
            for c in (1, 2, 3):
                shifted = fingerprint(shift_arg(f, c))
                assert shifted.odd_valuation_primes == base.odd_valuation_primes
            done += 1

    def test_quadratic_kernel_exactness(self):
        # for u^2 - a: fingerprints agree iff squarefree kernels agree
        kernel = squarefree_kernel_table(1000)
        seen = {}
        for n in range(2, 1001):
            if math.isqrt(n) ** 2 == n:
                continue
            fp = fingerprint(IntPoly.of([-n, 0, 1]))
            key = fp.odd_valuation_primes
            if kernel[n] in seen:
                assert seen[kernel[n]] == key
            else:
                assert key not in set(seen.values())
                seen[kernel[n]] = key


class TestEta:
    def test_d_one(self):
        assert default_epsilon(1) == pytest.approx(1.4427e-3, rel=1e-3)
        assert eta_exponent(1, 1.0) == pytest.approx(7.213e-4, rel=1e-3)

    def test_d_two(self):
        assert eta_exponent(2, 0.5) == pytest.approx(1.803e-4, rel=1e-3)

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError):
            eta_exponent(1, 0.0)


class TestCensus:
    def test_quadratic_hundred(self):
        distinct, reducible = census_counts(tuple(run_census(SQRT_COVER, 100).rows))
        assert reducible == 10
        kernel = squarefree_kernel_table(100)
        oracle = len({kernel[n] for n in range(1, 101)
                      if math.isqrt(n) ** 2 != n})
        assert distinct == oracle == 60

    def test_minimum_N(self):
        with pytest.raises(ValueError):
            run_census(SQRT_COVER, 5)

    def test_prefix_monotone(self):
        small = tuple(run_census(SQRT_COVER, 120).rows)
        big = tuple(run_census(SQRT_COVER, 240).rows)
        assert big[:120] == small
        assert census_counts(big)[0] >= census_counts(small)[0]

    def test_rows_stream_in_n_order(self):
        census = run_census(SQRT_COVER, 200)
        assert census.N == 200 and next(census.rows).n == 1
        assert [r.n for r in census.rows] == list(range(2, 201))
        assert next(census.rows, None) is None  # read once

    def test_memory_is_bounded_by_the_fields_not_by_N(self):
        # u^3 - t: every fiber discriminant is -27*n^2, so every fingerprint
        # is (3,) and one field is counted at any N.  Read without holding
        # a row, the census then keeps one block of fibers and one key,
        # at N = 2000 (one block) as at N = 16000 (eight)
        cover = parse_cover("u^3 - t")

        def peak(N):
            tracemalloc.start()
            try:
                distinct = sum(r.new_field for r in run_census(cover, N, delta=1.0).rows)
                return distinct, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (small, small_peak), (big, big_peak) = peak(2000), peak(16000)
        assert small == big == 1
        assert big_peak - small_peak < 256 * 1024

    @pytest.mark.parametrize("text", ["u^3 - t*u - t", "u^3 - t"])
    def test_rows_across_block_boundaries_do_not_depend_on_the_worker_count(self, text):
        # the reducible fibers of u^3 - t are the cubes, 13^3 .. 16^3 of
        # them in the second block: a block's residue tables read at the
        # wrong offset would certify some of them
        N = 2 * BLOCK + 7
        lone, pair = (tuple(run_census(parse_cover(text), N, workers=w, delta=1.0).rows) for w in (1, 2))
        assert lone == pair and [r.n for r in lone] == list(range(1, N + 1))
        if text == "u^3 - t":
            assert [r.n for r in lone if r.irreducible is False] == [k**3 for k in range(1, 17)]

    def test_ramified_primes_divide_2n(self):
        # family u^2 - t: disc of the fiber is 4n
        for row in run_census(SQRT_COVER, 300).rows:
            if row.fingerprint is None:
                continue
            for p in row.fingerprint.odd_valuation_primes:
                assert (2 * row.n) % p == 0

    def test_worker_sharding_is_deterministic(self):
        lone = tuple(run_census(SQRT_COVER, 400, workers=1).rows)
        quad = tuple(run_census(SQRT_COVER, 400, workers=4).rows)
        assert lone == quad
        # workers pull 25-fiber chunks in whatever order they finish, each
        # fiber with its own residue-table verdict; 25 lines up with no
        # table prime, at N = 130 the quartic leaves three fibers to the
        # per-fiber routes, and the reducible cubes 27, 64 and 125 of
        # u^3 - t lie in chunks a misplaced verdict would certify
        certified = certified_fibers(parse_cover("2*u^4 - t^2*u + 3"), range(1, 131))
        assert [n for n, cert in zip(range(1, 131), certified) if not cert] == [25, 80, 90]
        for text, N in (("u^3 - t*u - t", 300), ("2*u^4 - t^2*u + 3", 130), ("u^3 - t", 130)):
            runs = [tuple(run_census(parse_cover(text), N, workers=w).rows)
                    for w in (1, 2, 3)]
            assert runs[0] == runs[1] == runs[2]

    @staticmethod
    def known_prime_flags(rows):
        """new_field by the pairwise rule: two complete fingerprints differ
        when their primes differ, any other pair when some prime lies in
        one and not the other.  A complete fingerprint is new when it
        differs from every complete one counted before it, a partial one
        when it differs from every one counted before it."""
        counted, flags = [], []
        for row in rows:
            fp = row.fingerprint
            new = fp is not None and all(
                fp.odd_valuation_primes != other.odd_valuation_primes
                if fp.complete and other.complete
                else set(fp.odd_valuation_primes) != set(other.odd_valuation_primes)
                for other in counted
                if other.complete or not fp.complete
            )
            if new:
                counted.append(fp)
            flags.append(new)
        return flags

    def test_partial_fingerprints_follow_the_known_prime_rule(self, monkeypatch):
        # a rho budget of 200 leaves about a third of these fingerprints
        # partial.  D = -108*(t^8 - 512) has no linear factor, and the
        # trial gcd would strip its content's primes 2 and 3 anyway, so
        # every fingerprint makes the rho calls of the per-value route
        cover = parse_cover("2*u^4 - t^2*u + 3")
        calls = []
        rho = factorization._brent_rho

        def recorded(n, effort):
            calls.append((n, effort))
            return rho(n, effort)

        monkeypatch.setattr(factorization, "_brent_rho", recorded)
        rows = tuple(run_census(cover, 300, effort=200).rows)
        census_calls, calls[:] = calls[:], []
        for row in rows:
            if row.fingerprint is not None:
                assert fingerprint(fiber_poly(cover, row.n), 200) == row.fingerprint
        assert census_calls == calls and len(calls) > 100
        partial = [r for r in rows if r.fingerprint is not None and not r.fingerprint.complete]
        assert len(partial) == 104
        flags = self.known_prime_flags(rows)
        assert [r.new_field for r in rows] == flags
        assert census_counts(rows)[0] == sum(flags) == 247

    def test_degenerate_fibers_skipped_not_fatal(self):
        rows = tuple(run_census(parse_cover("t*u^2 - u - 1"), 50).rows)
        assert len(rows) == 50
        assert None not in {r.irreducible for r in rows}


class TestLinearSieve:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_covers(), linear_covers()))
    @example(parse_cover("u^2 - t + 5"))  # a*n + b = 0 at n = 5
    @example(parse_cover("t*u^2 - 5*u^2 + t"))  # degenerate at n = 5
    @example(parse_cover("-t*u^3 + t^2*u + 2*t*u + t^2 + 2*t"))  # c = n, lc < 0
    def test_census_fingerprints_match_the_per_value_oracle(self, cover):
        # fingerprints read off the sieved primes of D's linear factors
        # agree with factoring each fiber discriminant whole, and a D that
        # splits into linear factors leaves nothing to factor but its content
        factored = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diversity, "factor_integer", lambda v, **kw: factored.append(v) or factor_integer(v, **kw))
            try:
                rows = tuple(run_census(cover, 60, effort=2000, delta=1.0).rows)
            except DegenerateCoverError:
                assume(False)
        content, factors = factor_over_Z(discriminant_in_u(cover))
        splits = all(h.degree == 1 for h, _ in factors)
        assert factored[0] == content
        if splits:
            assert factored == [content]
        for row in rows:
            if row.fingerprint is not None:
                want = fingerprint(fiber_poly(cover, row.n), 2000)
                if want.complete:
                    assert row.fingerprint == want
                assert row.fingerprint.complete or not splits

    def test_sieve_rows_do_not_depend_on_the_worker_count(self):
        # D = -t^3*(27t + 256): at N = 130 the sieve runs the primes up to
        # isqrt(27*130 + 256) = 61, and those above 25 stride across the
        # 25-fiber chunks the workers take
        cover = parse_cover("u^4 - t*u - t")
        lone, pair = (tuple(run_census(cover, 130, workers=w).rows) for w in (1, 2))
        assert lone == pair
        assert any(25 < p <= 61 and (27 * row.n + 256) % p == 0
                   for row in lone if row.fingerprint is not None
                   for p in row.fingerprint.odd_valuation_primes)

    @pytest.mark.parametrize("N", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    def test_blocks_are_sieved_as_one_range(self, N):
        # D = t^2*(4t - 27): two linear factors, one with a > 1.  The
        # limits come from the whole range 1..N, so each block gives every
        # fiber the primes that one call over the whole range gives it:
        # the primes up to the limit of each value, then what they leave
        # when that is a prime below (limit + 1)^2
        content, factors = factor_over_Z(discriminant_in_u(parse_cover("u^3 - t*u - t")))
        linear = [h for h, _ in factors if h.degree == 1]
        assert (content, linear) == (1, [IntPoly.of([-27, 4]), IntPoly.of([0, 1])])
        sieves = diversity._linear_sieves(linear, N)
        assert [limit for _, limit, _ in sieves] == [math.isqrt(4 * N - 27), math.isqrt(N)]
        whole = diversity._sieved_primes((), sieves, range(1, N + 1))
        blocked = [primes for lo in range(1, N + 1, BLOCK)
                   for primes in diversity._sieved_primes((), sieves, range(lo, min(lo + BLOCK, N + 1)))]
        assert blocked == whole
        for n, primes in zip(range(1, N + 1), whole):
            want = []
            for h, limit, _ in sieves:
                small = [p for p in sorted(sympy.factorint(abs(h(n)))) if p <= limit]
                rest = abs(h(n))
                for p in small:
                    while rest % p == 0:
                        rest //= p
                want += small + ([rest] if rest > 1 and math.isqrt(rest) <= limit else [])
            assert primes == want

    @pytest.mark.parametrize("constant, effort", [(10**18, 10**6), (10**30, 2000)])
    def test_a_large_constant_term_keeps_the_sieve_at_the_trial_bound(self, monkeypatch, constant, effort):
        # D = 4*(t + constant): sieving to isqrt of its values would need
        # the primes up to 10^9 or 10^15; the sieve stops at the trial
        # bound and leaves the rest of each value to factor_integer
        cover = parse_cover(f"u^2 - t - {constant}")
        limits = []
        sieve = diversity.prime_sieve
        monkeypatch.setattr(diversity, "prime_sieve", lambda limit: limits.append(limit) or sieve(limit))
        rows = tuple(run_census(cover, 12, effort=effort, delta=1.0).rows)
        assert limits == [TRIAL_BOUND]
        assert [row.fingerprint for row in rows] == [fingerprint(fiber_poly(cover, n), effort)
                                                             for n in range(1, 13)]

    def test_the_sieve_runs_once_per_linear_factor_at_any_worker_count(self, monkeypatch):
        # D = t^2*(4t - 27): two linear factors, sieved once over n = 1..N
        # and handed to the workers chunk by chunk
        limits = []
        sieve = diversity.prime_sieve
        monkeypatch.setattr(diversity, "prime_sieve", lambda limit: limits.append(limit) or sieve(limit))
        rows = tuple(run_census(parse_cover("u^3 - t*u - t"), 300, workers=2, delta=1.0).rows)
        assert sorted(limits) == [math.isqrt(300), math.isqrt(4 * 300 - 27)]
        assert rows == tuple(run_census(parse_cover("u^3 - t*u - t"), 300, delta=1.0).rows)
