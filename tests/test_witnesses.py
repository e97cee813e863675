import dataclasses
import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import root_count_suite, shift_lemma_suite
from divlab import witnesses
from divlab.algebra import IntPoly
from divlab.factorization import _MR_LIMIT, TRIAL_BOUND, prime_sieve
from divlab.sieve import DiversityParams, MFElement, build_PF, enumerate_MF
from divlab.witnesses import (
    NoRootError,
    PreconditionError,
    WitnessRecord,
    classify_greedy,
    crt_root,
    exact_divides,
    exact_divisor_shift,
    find_cliques,
    primitive_witness,
    recheck_witness,
    rho_F,
    verify_property_C,
    verify_property_D,
    verify_property_E,
    witnesses_for_MF,
)

T = IntPoly.of([0, 1])
T2P1 = IntPoly.of([1, 0, 1])
CUBIC = IntPoly.of([0, 2, -3, 1])  # T^3 - 3T^2 + 2T
DIVISORS_3960 = [d for d in range(1, 3961) if 3960 % d == 0]


class TestRho:
    def test_gaussian_65(self):
        assert rho_F(T2P1, 65) == 4

    def test_empty_product(self):
        assert rho_F(T2P1, 1) == 1
        assert rho_F(CUBIC, 1) == 1

    def test_no_roots(self):
        assert rho_F(T2P1, 3) == 0

    def test_content_clash_rejected(self):
        with pytest.raises((PreconditionError, ValueError)):
            rho_F(IntPoly.of([5, 10]), 5)

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(100):
            F = IntPoly.of([rng.randint(-9, 9), rng.randint(-9, 9), 1])
            m1, m2 = rng.choice([(5, 7), (11, 13), (3, 17), (7, 19)])
            assert rho_F(F, m1 * m2) == rho_F(F, m1) * rho_F(F, m2)

    def test_bounded_by_d_to_omega(self):
        for m in (5, 65, 5 * 13 * 17):
            omega = len([p for p in (5, 13, 17) if m % p == 0])
            assert rho_F(T2P1, m) <= 2**omega


@st.composite
def root_tables(draw):
    """{p: residues} for 1 to 5 distinct primes below 200, each with 1 to
    min(p, 12) distinct residues mod p: up to 248,832 combinations."""
    primes = draw(st.lists(st.sampled_from(prime_sieve(200)), min_size=1, max_size=5, unique=True))
    return {
        p: draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, 12), unique=True))
        for p in primes
    }


class TestCrtRoot:
    def test_gaussian_65(self):
        assert crt_root(T2P1, 65) == 8

    def test_identity(self):
        assert crt_root(T, 30) == 0

    def test_single_prime(self):
        assert crt_root(T2P1, 13) == 5

    def test_no_root_names_prime(self):
        with pytest.raises(NoRootError) as ei:
            crt_root(T2P1, 15)
        assert ei.value.p == 3
        # 3 and 7 both have none, and 3 comes first
        with pytest.raises(NoRootError) as ei:
            crt_root(T2P1, 21)
        assert ei.value.p == 3

    def test_minimality_by_exhaustion(self):
        rng = random.Random(7)
        cases = [
            (IntPoly.of([rng.randint(-20, 20), rng.randint(-20, 20), 1]),
             rng.choice([15, 35, 77, 65, 221]))
            for _ in range(80)
        ]
        # T^3 - T and its translates have three roots mod every odd prime,
        # so a three-prime m has 27 root combinations
        cases += [(IntPoly.of([0, -1, 0, 1]), m) for m in (105, 385, 1001)]
        for _ in range(20):
            c = rng.randint(1, 500)
            cases.append((IntPoly.of([c**3 - c, 3 * c**2 - 1, 3 * c, 1]),
                          rng.choice([105, 165, 385, 1001, 7429])))
        combos = 0
        for F, m in cases:
            try:
                root = crt_root(F, m)
            except NoRootError:
                continue
            brute = min(n for n in range(m) if F(n) % m == 0)
            assert root == brute
            combos = max(combos, rho_F(F, m))
        assert combos == 27

    @settings(max_examples=100, deadline=None)
    @given(root_tables())
    # 10 * 11 * 12 * 12 * 11 = 174,240 combinations
    @example({p: list(range(1, 2 * c, 2)) for p, c in ((101, 10), (103, 11), (107, 12), (109, 12), (113, 11))})
    def test_least_over_every_combination(self, table):
        # the residue sets need not be the roots of an F: _crt_root reads
        # only the table.  The oracle joins the combinations prime by
        # prime, n = s + M*((r - s)/M mod p), and takes the least
        primes = sorted(table)
        residues, M = [0], 1
        for p in primes:
            inv = pow(M, -1, p)
            residues = [s + M * ((r - s) * inv % p) for s in residues for r in table[p]]
            M *= p
        assert witnesses._crt_root(primes, M, table) == min(residues)

    def test_T8_minus_512(self):
        # T^8 - 512 has eight roots mod each of these primes, so the
        # 8-prime m has 16,777,216 combinations
        F = IntPoly.of([-512, 0, 0, 0, 0, 0, 0, 0, 1])
        primes = (73, 89, 233, 257, 337, 601, 881, 937)
        assert all(rho_F(F, p) == 8 for p in primes)
        assert crt_root(F, math.prod(primes[:5])) == 7425842
        start = time.perf_counter()
        assert crt_root(F, math.prod(primes)) == 1840864113772
        assert time.perf_counter() - start < 0.1


class TestExactDivisorShift:
    def test_already_exact(self):
        assert exact_divisor_shift(T2P1, 65, 8) == 0

    def test_shift_by_one(self):
        # F(57) = 3250 = 2 * 5^3 * 13, not exact; F(57+65) = 14885 exact
        assert exact_divisor_shift(T2P1, 65, 57) == 1

    def test_identity_at_six(self):
        assert exact_divisor_shift(T, 6, 6) == 0

    def test_requires_divisibility(self):
        with pytest.raises(PreconditionError):
            exact_divisor_shift(T2P1, 65, 9)

    def test_requires_coprime_discriminant(self):
        # disc(T^2+1) = -4, m even
        with pytest.raises(PreconditionError):
            exact_divisor_shift(T2P1, 2, 1)

    def test_shift_bounded_by_omega(self):
        _, _, violations, max_shift = shift_lemma_suite(99)
        assert violations == 0
        assert max_shift <= 3

    def test_one_evaluation_per_candidate_shift(self, monkeypatch):
        # F(n0) serves both the m | F(n0) precondition and the l = 0 test
        F, x = T2P1, 10**5
        sieve = build_PF(F, x)
        mf = enumerate_MF(sieve, DiversityParams(x=x, k=2, y=5, window_lo=x / 16, window_hi=x / 4))
        roots = {p: witnesses.roots_mod_p(F, p) for p in {p for e in mf for p in e.primes}}
        calls = []
        evaluate = IntPoly.__call__

        def counted(self, n):
            calls.append(n)
            return evaluate(self, n)

        monkeypatch.setattr(IntPoly, "__call__", counted)
        shifts = set()
        for e in mf:
            calls.clear()
            rec = witnesses._witness(F, sieve.discriminant, e.primes, e.m, roots, None, None)
            assert len(calls) == rec.shift_l + 1
            shifts.add(rec.shift_l)
        assert shifts == {0, 1, 2}


class TestPrimitiveWitness:
    def test_gaussian_65(self):
        rec = primitive_witness(T2P1, 65)
        assert rec.n_m == 8 and rec.shift_l == 0
        assert rec.n_m <= 65 * (rec.omega + 1)

    def test_identity_at_prime(self):
        rec = primitive_witness(T, 5)
        assert rec.n_m == 5  # crt root 0 is remapped to m

    def test_gaussian_5(self):
        assert primitive_witness(T2P1, 5).n_m == 2

    def test_recheck_is_independent(self):
        for m in (5, 13, 65, 5 * 13 * 29):
            rec = primitive_witness(T2P1, m)
            assert recheck_witness(T2P1, rec)
        # a corrupted record must fail
        rec = primitive_witness(T2P1, 65)
        assert not recheck_witness(T2P1, dataclasses.replace(rec, n_m=rec.n_m + 1))

    def test_unit_m(self):
        # m = 1 has no prime factor; the shift search succeeds at l = 0
        assert exact_divisor_shift(T2P1, 1, 1) == 0
        rec = primitive_witness(T2P1, 1)
        assert (rec.primes, rec.n_m, rec.shift_l) == ((), 1, 0)

    def test_inconsistent_element_rejected(self):
        # the last four are increasing with product m, but hold a composite
        # or a prime outside P_F: 3 has no root of T^2 + 1, 2 divides -4,
        # and 1013 lies past the sieve
        sieve = build_PF(T2P1, 1000)
        for bad in (MFElement(65, (13, 5)), MFElement(66, (5, 13)), MFElement(25, (5, 5)),
                    MFElement(65, (1, 65)), MFElement(65, (65,)), MFElement(1105, (5, 221)),
                    MFElement(15, (3, 5)), MFElement(10, (2, 5)), MFElement(5065, (5, 1013))):
            with pytest.raises(PreconditionError):
                witnesses_for_MF(sieve, [bad])

    @pytest.mark.parametrize("F", [T2P1, CUBIC], ids=["T2P1", "CUBIC"])
    def test_set_pipeline_agrees_with_single_witness(self, F):
        x = 10**5
        params = DiversityParams(
            x=x, k=2, y=5, window_lo=x / 16, window_hi=x / 4
        )
        sieve = build_PF(F, x)
        mf = enumerate_MF(sieve, params)
        assert len(mf) > 50
        assert witnesses_for_MF(sieve, mf) == [primitive_witness(F, e.m) for e in mf]

    def test_set_pipeline_never_factors(self, monkeypatch):
        # nor computes disc(F), which the sieve holds
        import divlab.witnesses as W

        def recorded(fn, log):
            def wrapper(*args):
                log.append(args)
                return fn(*args)

            return wrapper

        x = 10**5
        params = DiversityParams(
            x=x, k=2, y=5, window_lo=x / 16, window_hi=x / 4
        )
        sieve = build_PF(T2P1, x)
        mf = enumerate_MF(sieve, params)
        calls = {"factor_integer": [], "poly_discriminant": [], "roots_mod_p": []}
        for name, log in calls.items():
            monkeypatch.setattr(W, name, recorded(getattr(W, name), log))
        recs = witnesses_for_MF(sieve, mf, params)
        assert len(recs) == len(mf) > 50
        assert calls["factor_integer"] == []
        assert calls["poly_discriminant"] == []
        assert sorted(p for _, p in calls["roots_mod_p"]) == sorted({p for e in mf for p in e.primes})

    def test_mf_bound_with_params(self, small_PF_quadratic):
        params = DiversityParams(
            x=1000, k=1, y=5, window_lo=50, window_hi=100, tail_exponent=None
        )
        mf = [MFElement(65, (5, 13)), MFElement(85, (5, 17))]
        recs = witnesses_for_MF(small_PF_quadratic, mf, params)
        for rec in recs:
            assert rec.n_m <= rec.m * (params.k + 2) <= params.x


class TestPropertyC:
    def test_identity_small(self, monkeypatch):
        sieve = build_PF(T, 10)
        assert verify_property_C(sieve, 3) == ()
        # the candidates are the positive lifts 9, 18, ... of the root 0
        # mod 9; with every exact-division test failing, each comes back
        monkeypatch.setattr(witnesses, "exact_divides", lambda m, value: False)
        assert verify_property_C(sieve, 3) == tuple(range(9, 82, 9))

    def test_gaussian_five(self):
        assert verify_property_C(build_PF(T2P1, 10), 5) == ()

    def test_rejects_discriminant_prime(self):
        with pytest.raises(PreconditionError):
            verify_property_C(build_PF(T2P1, 10), 2)

    def test_rejects_primes_outside_P_F(self):
        # 3 has no root of T^2 + 1, 9 is not prime, 13 lies past the sieve
        sieve = build_PF(T2P1, 10)
        for p in (3, 9, 13):
            with pytest.raises(PreconditionError):
                verify_property_C(sieve, p)

    def test_hand_instance(self):
        # 25 | F(7) = 50 and F(12) = 145 = 5 * 29 is exactly divisible
        assert T2P1(7) % 25 == 0
        assert exact_divides(5, T2P1(12))


class TestPropertyD:
    def test_gaussian_examples(self):
        sieve = build_PF(T2P1, 100)
        assert verify_property_D(sieve) == ()
        assert exact_divides(5, T2P1(2))
        assert exact_divides(13, T2P1(5))

    def test_identity_trivial(self):
        sieve = build_PF(T, 300)
        assert verify_property_D(sieve) == ()


class TestPropertyE:
    def test_identity_sweep(self):
        rep = verify_property_E(T, 1, 10**4)
        assert rep.violations == ()
        assert all(n < 64 for n, _ in rep.exceptions)
        assert rep.indeterminate == ()

    def test_gaussian_sweep(self):
        rep = verify_property_E(T2P1, 1, 1000)
        assert rep.violations == ()
        assert all(n < 16 for n, _ in rep.exceptions)

    def test_count_the_size_allows_is_an_exception(self):
        # the critical polynomial of u^4 - t*u - t: F(269) = 269 * 73 * 103,
        # three primes >= 269/4 against d = 2, and 4^3 * F(269) >= 269^3
        F = IntPoly.of([0, 256, 27])
        assert F(269) == 269 * 73 * 103
        rep = verify_property_E(F, 269, 269)
        assert (rep.violations, rep.exceptions) == ((), ((269, 3),))

    def test_hand_count(self):
        # F(7) = 50: primes 2, 5 are both >= 7/4, count = 2 = d
        rep = verify_property_E(T2P1, 7, 7)
        assert rep.violations == rep.exceptions == ()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-1000, 1000), max_size=9),
        st.integers(-1000, 1000).filter(bool),
        st.integers(1, 2000),
    )
    # 1000*550^2 + 1 = 139 * 197 * 11047: a prime rest makes the count 3
    @example([1, 0], 1000, 550)
    # 100 + 100159963 = 10007 * 10009, a composite rest above 10^8
    @example([100159963], 1, 100)
    # F(100) = 3317044064679887385962123, the least prime above _MR_LIMIT:
    # a prime rest that no certificate reaches leaves n open
    @example([3317044064679887385962123 - 100], 1, 100)
    def test_agrees_with_sympy(self, low, lead, n):
        import sympy

        F = IntPoly.of(low + [lead])
        d, v = F.degree, F(n)
        rep = verify_property_E(F, n, n)
        if v == 0:
            assert (rep.violations, rep.exceptions, rep.indeterminate) == ((), (), ())
            return
        primes = sympy.factorint(abs(v))
        if rep.indeterminate == (n,):
            # only a composite rest above TRIAL_BOUND, or a prime rest at
            # or above _MR_LIMIT, leaves n open
            large = {p: e for p, e in primes.items() if p > TRIAL_BOUND}
            assert sum(large.values()) >= 2 or max(large) >= _MR_LIMIT
            return
        assert rep.indeterminate == ()
        count = sum(1 for p in primes if 4 * p >= n)
        assert dict(rep.violations + rep.exceptions) == ({n: count} if count > d else {})
        assert rep.violations == (((n, count),) if count > d and 4 ** (d + 1) * abs(v) < n ** (d + 1) else ())

    def test_n_above_four_trial_bounds_is_refused(self):
        # a prime just above TRIAL_BOUND could fall below n/4
        rep = verify_property_E(T, 4 * TRIAL_BOUND, 4 * TRIAL_BOUND)
        assert (rep.violations, rep.exceptions, rep.indeterminate) == ((), (), ())
        with pytest.raises(PreconditionError, match="exceeds 4"):
            verify_property_E(T, 4 * TRIAL_BOUND, 4 * TRIAL_BOUND + 1)

    def test_naive_cross_check(self):
        import sympy

        rng = random.Random(13)
        for _ in range(30):
            F = IntPoly.of([rng.randint(-9, 9), rng.randint(-9, 9), 1])
            n = rng.randint(20, 500)
            v = F(n)
            if v == 0:
                continue
            rep = verify_property_E(F, n, n)
            naive = sum(1 for p in sympy.factorint(abs(v)) if 4 * p >= n)
            flagged = bool(rep.violations or rep.exceptions)
            assert flagged == (naive > 2)


class TestGreedy:
    def test_all_distinct(self):
        recs = [primitive_witness(T2P1, m) for m in (5, 13, 17, 29)]
        assert classify_greedy(recs, d=1) == [True] * 4

    def test_threshold_boundary(self):
        # with d = 1, a witness shared by 7 records leaves each 6 = 6d others
        six_others = [WitnessRecord(m=5, primes=(5,), n_m=7, shift_l=0) for _ in range(7)]
        assert classify_greedy(six_others, d=1) == [False] * 7
        assert classify_greedy(six_others[:6], d=1) == [True] * 6

    def test_override_pair(self):
        recs = witnesses_for_MF(build_PF(T2P1, 100), [MFElement(65, (5, 13)), MFElement(85, (5, 17))])
        assert [r.n_m for r in recs] == [8, 13]
        assert classify_greedy(recs, d=2) == [True, True]


class TestCliques:
    def test_no_shared_prime(self):
        mf = [MFElement(65, (5, 13)), MFElement(85, (5, 17))]
        assert list(find_cliques(mf)) == []
        assert len(find_cliques(mf)) == 0

    def test_equal_lcm_type(self):
        P = 101
        mf = [MFElement(c * P, (c, P)) for c in (6, 10, 15)]
        assert list(find_cliques(mf)) == ["101,6,10,15,equal-lcm\n"]

    def test_proper_lcm_type(self):
        P = 101
        mf = [MFElement(c * P, (c, P)) for c in (6, 10, 14)]
        assert list(find_cliques(mf)) == ["101,6,10,14,proper-lcm\n"]

    def test_half_window_relations_hold(self):
        # cofactors drawn from a [c, 2c) window satisfy the pairwise size
        # ratio and gcd < m < lcm relations by construction
        P = 997
        cofactors = (10, 14, 15, 19)
        mf = [MFElement(c * P, (c, P)) for c in cofactors]
        rows = [line.split(",") for line in "".join(find_cliques(mf)).splitlines()]
        assert [int(row[0]) for row in rows] == [P] * 4
        trios = [tuple(map(int, row[1:4])) for row in rows]
        assert trios == list(itertools.combinations(cofactors, 3))
        for trio in trios:
            for u, v in itertools.combinations(trio, 2):
                assert v <= 2 * u and u <= 2 * v
                assert math.gcd(u, v) < u < math.lcm(u, v)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            # a few shared P values; cofactors repeat and need be neither
            # squarefree nor coprime
            st.tuples(
                st.sampled_from((101, 103, 107)),
                st.one_of(
                    st.integers(1, 120),
                    # divisors of one number make lcm coincidences common
                    st.sampled_from(DIVISORS_3960),
                ),
            ),
            max_size=40,
        )
    )
    @example([(101, 6), (101, 10), (101, 15), (101, 30), (101, 6),
              (103, 12), (103, 18), (103, 36), (103, 4), (103, 1),
              (107, 40), (107, 44), (107, 55), (107, 3), (107, 6)])
    # one group of 44 cofactors, in which some pairs have an equal-lcm
    # trio and others have none
    @example([(103, d) for d in DIVISORS_3960[2:46]])
    # the group's only equal-lcm trio ends at its last cofactor
    @example([(101, 6), (101, 10), (101, 14), (101, 15)])
    def test_agrees_with_brute_force(self, pairs):
        mf = [MFElement(c * P, (c, P)) for P, c in pairs]
        want = []
        for P in sorted({P for P, _ in pairs}):
            cofs = sorted({c for Q, c in pairs if Q == P})
            for a, b, c in itertools.combinations(cofs, 3):
                lcm3 = math.lcm(a, b, c)
                equal = all(math.lcm(u, v) == lcm3 for u, v in itertools.combinations((a, b, c), 2))
                kind = "equal-lcm" if equal else "proper-lcm"
                want.append(f"{P},{a},{b},{c},{kind}\n")
        cliques = find_cliques(mf)
        chunks = list(cliques)
        # one nonempty chunk of whole lines per P, in ascending P, built
        # afresh on each pass
        groups = [chunk.splitlines(keepends=True) for chunk in chunks]
        assert all(group and all(line.endswith("\n") for line in group) for group in groups)
        Ps = [{line.split(",")[0] for line in group} for group in groups]
        assert all(len(P) == 1 for P in Ps)
        assert [int(P.pop()) for P in Ps] == sorted({int(line.split(",")[0]) for line in want})
        assert "".join(chunks).splitlines(keepends=True) == want
        assert list(cliques) == chunks
        assert len(cliques) == len(want)


class TestSuites:
    def test_lemma_suite_clean(self):
        instances, _, violations, _ = shift_lemma_suite(0)
        assert instances == 1000
        assert violations == 0

    def test_rho_suite_clean(self):
        assert root_count_suite(0) == (200, [])
