from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.algebra import (
    AlgebraError,
    CurveCover,
    DegenerateCoverError,
    IntPoly,
    PolyParseError,
    critical_polynomial,
    discriminant_in_u,
    format_poly,
    parse_cover,
    parse_univariate,
    poly_discriminant,
    resultant,
    squarefree_primitive_part,
)

T = sympy.Symbol("T")


def to_sympy(f):
    return sympy.Poly(list(reversed(f.coeffs)), T)


nonzero_poly = st.lists(st.integers(-50, 50), min_size=1, max_size=7).filter(
    lambda c: any(c)
)


class TestIntPolyOf:
    def test_non_integer_coefficients_are_rejected(self):
        # int() would truncate 2.7 to 2, and 0.9999999999999999 to a
        # leading zero
        for coeffs in ([2.7, 1], [1, 3, 0.9999999999999999], [Fraction(1, 2), 1]):
            with pytest.raises(TypeError):
                IntPoly.of(coeffs)


class TestResultant:
    def test_linear_pair(self):
        assert resultant(IntPoly.of([-2, 1]), IntPoly.of([-3, 1])) == -1

    def test_common_root(self):
        assert resultant(IntPoly.of([0, 1]), IntPoly.of([0, 1])) == 0

    def test_evaluation_case(self):
        # Res(T^2+1, T-1) is T^2+1 evaluated at 1
        assert resultant(IntPoly.of([1, 0, 1]), IntPoly.of([-1, 1])) == 2

    def test_zero_input_rejected(self):
        with pytest.raises(AlgebraError):
            resultant(IntPoly.of([]), IntPoly.of([1, 1]))

    @settings(max_examples=150, deadline=None)
    @given(nonzero_poly, nonzero_poly)
    def test_matches_sylvester_determinant(self, a, b):
        f, h = IntPoly.of(a), IntPoly.of(b)
        if f.degree < 1 or h.degree < 1:
            return
        n, m = f.degree, h.degree
        rows = []
        fc = list(reversed(f.coeffs))
        hc = list(reversed(h.coeffs))
        for i in range(m):
            rows.append([0] * i + fc + [0] * (m - 1 - i))
        for i in range(n):
            rows.append([0] * i + hc + [0] * (n - 1 - i))
        assert resultant(f, h) == sympy.Matrix(rows).det()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-20, 20), st.integers(-20, 20),
        st.lists(st.integers(-20, 20), min_size=2, max_size=5).filter(lambda c: c[-1]),
    )
    def test_shared_linear_factor_kills_resultant(self, r, s, tail):
        # (T - r) divides both sides
        lin = IntPoly.of([-r, 1])
        f = lin * IntPoly.of([-s, 1])
        h = lin * IntPoly.of(tail)
        assert resultant(f, h) == 0


class TestDiscriminant:
    def test_gaussian_quadratic(self):
        assert poly_discriminant(IntPoly.of([1, 0, 1])) == -4

    def test_split_quadratic(self):
        assert poly_discriminant(IntPoly.of([0, -1, 1])) == 1

    def test_repeated_root(self):
        assert poly_discriminant(IntPoly.of([1, -2, 1])) == 0

    def test_constant_rejected(self):
        with pytest.raises(AlgebraError):
            poly_discriminant(IntPoly.of([5]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 30))
    def test_quadratic_formula(self, c, b, a):
        assert poly_discriminant(IntPoly.of([c, b, a])) == b * b - 4 * a * c

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=4))
    def test_zero_iff_repeated_root(self, roots):
        f = IntPoly.of([1])
        for r in roots:
            f = f * IntPoly.of([-r, 1])
        repeated = len(set(roots)) < len(roots)
        assert (poly_discriminant(f) == 0) == repeated


class TestSquarefreePrimitivePart:
    def test_content_stripped(self):
        assert squarefree_primitive_part(IntPoly.of([-12, 0, 12])) == IntPoly.of([-1, 0, 1])

    def test_repeated_factor_dropped(self):
        # (T-1)^2 * T
        assert squarefree_primitive_part(IntPoly.of([0, 1, -2, 1])) == IntPoly.of([0, -1, 1])

    def test_constant(self):
        assert squarefree_primitive_part(IntPoly.of([7])) == IntPoly.of([1])

    def test_zero_rejected(self):
        with pytest.raises(AlgebraError):
            squarefree_primitive_part(IntPoly.of([]))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4), st.integers(1, 3))
    def test_separable_output(self, roots, mult):
        f = IntPoly.of([3])
        for r in roots:
            for _ in range(mult):
                f = f * IntPoly.of([-r, 1])
        g = squarefree_primitive_part(f)
        assert g.content() == 1 and g.lc > 0
        if g.degree >= 1:
            assert poly_discriminant(g) != 0
        # same root set
        for r in set(roots):
            assert g(r) == 0


class TestCover:
    def test_disc_u_quadratic(self):
        cover = parse_cover("u^2 - t")
        assert discriminant_in_u(cover) == IntPoly.of([0, 4])

    def test_disc_u_cubic_base(self):
        cover = parse_cover("u^2 - t^3 + 3*t^2 - 2*t")
        assert discriminant_in_u(cover) == IntPoly.of([0, 8, -12, 4])

    def test_disc_u_constant(self):
        cover = CurveCover.of([IntPoly.of([-1]), IntPoly.of([]), IntPoly.of([1])])
        assert discriminant_in_u(cover) == IntPoly.of([4])

    def test_nu_must_be_at_least_two(self):
        with pytest.raises((AlgebraError, DegenerateCoverError)):
            CurveCover.of([IntPoly.of([0, 1]), IntPoly.of([1])])

    def test_critical_quadratic(self):
        assert critical_polynomial(parse_cover("u^2 - t")) == IntPoly.of([0, 1])

    def test_critical_cubic_base(self):
        F = critical_polynomial(parse_cover("u^2 - t^3 + 3*t^2 - 2*t"))
        assert F == IntPoly.of([0, 2, -3, 1])

    def test_critical_cube_root(self):
        assert critical_polynomial(parse_cover("u^3 - t")) == IntPoly.of([0, 1])

    def test_no_finite_critical_value(self):
        with pytest.raises(DegenerateCoverError):
            critical_polynomial(parse_cover("u^2 - 1"))

    @pytest.mark.parametrize(
        "text", ["u^2 - t", "u^2 - t^3 + 3*t^2 - 2*t", "u^3 - t", "u^3 - t*u - t",
                 "2*u^4 - t^2*u + 3"]
    )
    def test_critical_is_separable_and_primitive(self, text):
        F = critical_polynomial(parse_cover(text))
        assert F.content() == 1
        assert F.lc > 0
        assert poly_discriminant(F) != 0

    def test_degree_bound_for_hyperelliptic_models(self):
        # u^2 - h(t): genus floor((deg h - 1)/2), deg F <= 2g - 2 + 2*nu
        for h_coeffs in ([0, 2, -3, 1], [2, 0, 0, 0, 0, 1], [-1, 3, 0, 1]):
            h = IntPoly.of(h_coeffs)
            cover = CurveCover.of([-h, IntPoly.of([]), IntPoly.of([1])])
            g = (h.degree - 1) // 2
            assert critical_polynomial(cover).degree <= 2 * g - 2 + 2 * 2 + 1


class TestParsing:
    def test_univariate_roundtrip(self):
        f = parse_univariate("T^3 - 3*T^2 + 2*T")
        assert f == IntPoly.of([0, 2, -3, 1])
        assert parse_univariate(format_poly(f, "T")) == f

    def test_whitespace_variations(self):
        assert parse_cover("u^2-t") == parse_cover(" u^2  -   t ")

    def test_rejects_garbage(self):
        for bad in ("u^^2 - t", "u^2 - 1.5*t", "u**2 - t", ""):
            with pytest.raises(PolyParseError):
                parse_cover(bad)
