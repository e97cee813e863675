"""Factorization kernels: polynomial factorization over GF(p) (distinct
degree + equal degree splitting), integer polynomial factorization over Z
(Hensel lifting with subset recombination), integer factorization
(trial division + Brent-cycle Pollard rho with deterministic Miller-Rabin
certificates), and the prime sieve that trial division and the layers
above draw their primes from.

Both polynomial factorizations work the same way: find the distinct
irreducible factors of a squarefree polynomial with the same roots (over
Z the squarefree primitive part; over GF(p) f/gcd(f, f'), then gcd(f, f')
and p-th roots by recursion), then count each factor's multiplicity by
exact division of the input.  The dense loops they share over Z (trim,
product, exact division) live in algebra.

All randomized searches run on fixed seeds, so outputs are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import AlgebraError, IntPoly, _trim, _zmul, squarefree_primitive_part

# Deterministic Miller-Rabin: this base set is a primality certificate for
# every integer below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over GF(p); little-endian int lists

def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([c % p for c in _zmul(a, b)])


def _pprod(polys: Iterable[list[int]], p: int) -> list[int]:
    """The product of polys mod p; [1] for none."""
    out = [1]
    for a in polys:
        out = _pmul(out, a, p)
    return out


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = [c % p for c in a]
    _trim(r)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - len(b) + 1)
    for i in range(len(r) - len(b), -1, -1):
        c = (r[i + len(b) - 1] * inv) % p
        q[i] = c
        if c:
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] - c * y) % p
    return _trim(q), _trim(r)


def _pmod(a: list[int], b: list[int], p: int) -> list[int]:
    return _pdivmod(a, b, p)[1]


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _ppowmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """a^e mod (mod, p): left-to-right square-and-multiply, every step one
    _pmulmod."""
    if not e:
        return [1]
    n = len(mod) - 1
    rows = _reduction_rows(mod, p)
    a = _pmod(a, mod, p)
    out = a
    for bit in bin(e)[3:]:
        out = _pmulmod(out, out, rows, n, p)
        if bit == "1":
            out = _pmulmod(out, a, rows, n, p)
    return out


def _reduction_rows(mod: list[int], p: int) -> list[list[int]]:
    """Row k holds the n coefficients of x^(n+k) mod f, for k = 0..n-2,
    where f is mod made monic and n = deg f."""
    inv = pow(mod[-1], -1, p)
    row = [-c * inv % p for c in mod[:-1]]  # x^n = -(f_0 + ... + f_(n-1) x^(n-1))
    rows = []
    for _ in range(len(row) - 1):
        rows.append(row)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [(r + top * c) % p for r, c in zip(row, rows[0])]
    return rows


def _pmulmod(u: list[int], v: list[int], rows: list[list[int]], n: int, p: int) -> list[int]:
    """u * v mod (f, p) for u, v of degree < n = deg f, with rows from
    _reduction_rows(f, p): multiply in plain integers, fold each top
    coefficient of the product back through its row, and reduce mod p
    once per output coefficient."""
    prod = _zmul(u, v)
    low = prod[:n]
    for k, c in enumerate(prod[n:]):
        if c:
            for i, r in enumerate(rows[k]):
                low[i] += c * r
    return _trim([c % p for c in low])


def _pderiv(a: list[int], p: int) -> list[int]:
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _reduce_mod_p(f: IntPoly, p: int) -> list[int]:
    return _trim([c % p for c in f.coeffs])


# ---------------------------------------------------------------------------
# factorization over GF(p)

@dataclass(frozen=True)
class ModPolyFactorization:
    """Factorization of a polynomial mod p into monic irreducibles."""

    p: int
    unit: int  # leading coefficient of the input mod p
    factors: tuple[tuple[tuple[int, ...], int], ...]  # (monic coeffs, multiplicity)


def roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """All residues r in [0, p) with f(r) = 0 mod p, sorted, each listed
    once: by evaluation for p < 50; otherwise, after reduction mod p,
    -a0/a1 for degree 1, Euler's criterion and a Tonelli-Shanks square
    root of the discriminant for degree 2, and for higher degree by
    splitting gcd(f, x^p - x) into linear factors x - r with the
    equal-degree (Cantor-Zassenhaus) step at degree 1."""
    a = _reduce_mod_p(f, p)
    if not a:
        raise AlgebraError(f"polynomial vanishes identically mod {p}")
    if len(a) == 1:
        return []
    if p < 50:
        return [r for r in range(p) if _eval_mod(a, r, p) == 0]
    if len(a) == 2:
        return [-a[0] * pow(a[1], -1, p) % p]
    if len(a) == 3:
        disc = (a[1] * a[1] - 4 * a[2] * a[0]) % p
        if disc and pow(disc, (p - 1) // 2, p) != 1:
            return []
        s, inv = _sqrt_mod(disc, p), pow(2 * a[2], -1, p)
        return sorted({(s - a[1]) * inv % p, (-s - a[1]) * inv % p})
    g = _linear_part(a, p)
    if len(g) <= 1:
        return []
    return sorted(-h[0] % p for h in _equal_degree_split(g, 1, p, random.Random(0x5EED ^ p)))


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of the square n mod the odd prime p, by
    Tonelli-Shanks: p - 1 = q * 2^e with q odd, and z a non-residue."""
    if not n:
        return 0
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e
    z = next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        # the least i with t^(2^i) = 1, then halve t's order
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def has_root_mod_p(f: IntPoly, p: int) -> bool:
    """Does f have a root mod p?  Cheaper than roots_mod_p:
    - degree 1: yes; degree 2, p odd: Euler's criterion on disc(f);
    - degree 3, p > 3, D = disc(f): D = 0 mod p is a repeated root, which
      is rational; (D/p) = -1 is a linear times an irreducible quadratic
      (Stickelberger); (D/p) = 1 is three roots or none, and Cardano's
      criterion tells which: they are rational iff the radicand u^3 is a
      cube in F_p[sqrt(delta)];
    - other p < 50: evaluation; else gcd(f, x^p - x), without splitting."""
    a = _reduce_mod_p(f, p)
    if len(a) <= 1:
        # constant (content stripped upstream): no root unless zero
        return not a
    if len(a) == 2:
        return True
    if len(a) == 3 and p > 2:
        disc = (a[1] * a[1] - 4 * a[2] * a[0]) % p
        return disc == 0 or pow(disc, (p - 1) // 2, p) == 1
    if len(a) == 4 and p > 3:
        a0, a1, a2, a3 = a
        # y = 3*a3*x + a2 gives y^3 + 3s*y + q, delta = q^2 + 4s^3 = -27*a3^2*D
        s = (3 * a1 * a3 - a2 * a2) % p
        q = (2 * a2**3 - 9 * a1 * a2 * a3 + 27 * a0 * a3 * a3) % p
        delta = (q * q + 4 * s**3) % p
        if pow(-3 * delta, (p - 1) // 2, p) != 1:  # D = 0 or (D/p) = -1
            return True
        if not s:  # y^3 = -q, and (-3/p) = 1 makes p = 1 mod 3
            return pow(-q, (p - 1) // 3, p) == 1
        # w = (2u)^3 = -4q + z, z^2 = 16*delta, N(w) = (-4s)^3: w is a cube iff
        # w^((p-1)/3) = 1 (p = 1 mod 3) or w^((p+1)/3) = -4s (p = 2 mod 3), and
        # otherwise its z-free part is -1/2 or 2s, so that part decides
        c, d = -4 * q % p, 16 * delta % p
        e, cube = ((p - 1) // 3, 1) if p % 3 == 1 else ((p + 1) // 3, -4 * s % p)
        x, y = c, 1
        for bit in bin(e)[3:]:
            x, y = (x * x + y * y * d) % p, 2 * x * y % p
            if bit == "1":
                x, y = (x * c + y * d) % p, (x + y * c) % p
        return x == cube
    if p < 50:
        return any(_eval_mod(a, r, p) == 0 for r in range(p))
    return len(_linear_part(a, p)) > 1


def _linear_part(a: list[int], p: int) -> list[int]:
    """gcd(a, x^p - x) mod p: the product of the distinct x - r with
    a(r) = 0 mod p."""
    return _pgcd(a, _psub(_ppowmod([0, 1], p, a, p), [0, 1], p), p)


def _padd(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return _trim(out)


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    return _padd(a, [-y for y in b], p)


def _eval_mod(a: list[int], r: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * r + c) % p
    return v


def factor_mod_p(f: IntPoly, p: int) -> ModPolyFactorization:
    """Complete factorization mod p into monic irreducibles with
    multiplicities: the distinct irreducible factors first, then each
    one's multiplicity by exact division."""
    a = _reduce_mod_p(f, p)
    if not a:
        raise AlgebraError(f"polynomial vanishes identically mod {p}")
    unit = a[-1]
    inv = pow(unit, -1, p)
    monic = [(c * inv) % p for c in a]
    factors = []
    for irr in sorted(_irreducible_factors(monic, p, random.Random(0xFAC7 ^ p)), key=lambda h: (len(h), h)):
        mult = 0
        q, r = _pdivmod(monic, irr, p)
        while not r:
            mult += 1
            q, r = _pdivmod(q, irr, p)
        factors.append((tuple(irr), mult))
    return ModPolyFactorization(p=p, unit=unit, factors=tuple(factors))


def _irreducible_factors(f: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """The distinct monic irreducible factors of a monic f mod p, each
    listed once.  Those of multiplicity prime to p are the factors of the
    squarefree f/gcd(f, f'); the others divide gcd(f, f'), or f' = 0 and
    f = g(x^p) = g(x)^p."""
    if len(f) <= 1:
        return []
    df = _pderiv(f, p)
    if not df:
        return _irreducible_factors(f[::p], p, rng)
    c = _pgcd(f, df, p)
    out = [
        irr for g, d in _distinct_degree(_pdivmod(f, c, p)[0], p)
        for irr in _equal_degree_split(g, d, p, rng)
    ]
    return out + [irr for irr in _irreducible_factors(c, p, rng) if irr not in out]


def _distinct_degree(f: list[int], p: int) -> Iterator[tuple[list[int], int]]:
    """Distinct-degree factorization of a squarefree f of degree >= 1 mod p:
    yield (g_d, d) in increasing d for each d with g_d != 1, where g_d is
    the product of the monic irreducible factors of degree d (the last
    stage carries lc(f)).  Lazy, so a caller may stop after any stage;
    stage d costs one Frobenius step x^(p^d) = (x^(p^(d-1)))^p, and the
    steps stop once what is left has degree below 2(d + 1).  The first
    stage is sound on any f: a repeated factor q^2 | f has deg q <= n/2,
    so a stage d <= deg q < n finds a factor first."""
    xq = [0, 1]
    rest = f
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        xq = _ppowmod(xq, p, rest, p)
        g = _pgcd(rest, _psub(xq, [0, 1], p), p)
        if len(g) > 1:
            yield g, d
            rest, _ = _pdivmod(rest, g, p)
            xq = _pmod(xq, rest, p)
    if len(rest) > 1:
        yield rest, len(rest) - 1


def _equal_degree_split(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: split monic squarefree f whose irreducible
    factors all have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        b = [rng.randrange(p) for _ in range(n - 1)] + [1]
        if p == 2:
            # trace map T + T^2 + ... + T^(2^(d-1))
            rows = _reduction_rows(f, p)
            h = list(b)
            acc = list(b)
            for _ in range(d - 1):
                acc = _pmulmod(acc, acc, rows, n, p)
                h = _padd(h, acc, p)
        else:
            h = _psub(_ppowmod(b, (p**d - 1) // 2, f, p), [1], p)
        g = _pgcd(f, h, p)
        if 1 < len(g) < len(f):
            other, _ = _pdivmod(f, g, p)
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(other, d, p, rng)


def is_irreducible_mod_p(f: IntPoly, p: int) -> bool:
    """True iff f mod p is irreducible of full degree.  A cubic is
    irreducible iff it has no root; above degree 3, Ben-Or's test: the
    first distinct-degree stage of f is all of f."""
    a = _reduce_mod_p(f, p)
    if len(a) != len(f.coeffs) or len(a) <= 1:
        return False
    if len(a) == 4:
        return not has_root_mod_p(f, p)
    return next(_distinct_degree(a, p))[1] == len(a) - 1


def _is_squarefree_mod_p(a: list[int], p: int) -> bool:
    df = _pderiv(a, p)
    return bool(df) and len(_pgcd(a, df, p)) == 1


# ---------------------------------------------------------------------------
# factorization over Z

def factor_over_Z(f: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Complete factorization over Z: returns (content with sign, list of
    (primitive irreducible with positive leading coefficient, multiplicity)).
    """
    if f.is_zero:
        raise AlgebraError("cannot factor the zero polynomial")
    prim = f.primitive_part()
    content = f.lc // prim.lc
    if prim.degree < 1:
        return content, []
    out: list[tuple[IntPoly, int]] = []
    for irr in _factor_squarefree_Z(squarefree_primitive_part(prim)):
        mult, rest = 0, prim
        try:
            while True:
                rest = rest.exact_div(irr)
                mult += 1
        except AlgebraError:
            out.append((irr, mult))
    return content, out


def _factor_squarefree_Z(f: IntPoly) -> list[IntPoly]:
    """Factor a primitive squarefree polynomial over Z into primitive
    irreducibles (Zassenhaus: good prime, Hensel lift past the Mignotte
    bound, subset recombination)."""
    if f.degree <= 1:
        return [f.primitive_part()]
    lc = f.lc
    # monicize: fm(x) = lc^(d-1) f(x/lc), in integers (lc**-1 is a float)
    d = f.degree
    fm = IntPoly.of([c * lc ** (d - 1 - i) for i, c in enumerate(f.coeffs[:-1])] + [1])
    monic_factors = _factor_monic_squarefree_Z(fm)
    out = []
    for g in monic_factors:
        # pull back through x -> lc*x
        back = IntPoly.of([c * lc**i for i, c in enumerate(g.coeffs)])
        out.append(back.primitive_part())
    return sorted(out, key=lambda h: (h.degree, h.coeffs))


def _good_prime(f: IntPoly) -> int:
    """Smallest prime p >= 3 with p coprime to lc(f) and f squarefree mod p."""
    p = 3
    while True:
        if is_prime(p) and f.lc % p != 0 and _is_squarefree_mod_p(_reduce_mod_p(f, p), p):
            return p
        p += 2


def _factor_monic_squarefree_Z(f: IntPoly) -> list[IntPoly]:
    p = _good_prime(f)
    modfac = factor_mod_p(f, p)
    locals_ = [list(fac) for fac, _ in modfac.factors]
    if len(locals_) == 1:
        return [f]
    # Mignotte-style bound on factor coefficients
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    bound = 2 ** (f.degree + 1) * norm
    q = p
    while q <= 2 * bound:
        q *= p
    lifted = _hensel_lift_tree(f, locals_, p, q)
    return _recombine(f, lifted, q)


def _centered(c: int, q: int) -> int:
    c %= q
    return c - q if c > q // 2 else c


def _hensel_step(fc, g, h, s, t, m):
    """One quadratic Hensel step: from f = g*h (mod m), s*g + t*h = 1 (mod m),
    with g, h monic, to the same relations mod m^2."""
    m2 = m * m
    e = _psub(fc, _pmul(g, h, m2), m2)
    qq, r = _pdivmod(_pmul(s, e, m2), h, m2)
    gstar = _padd(g, _padd(_pmul(t, e, m2), _pmul(qq, g, m2), m2), m2)
    hstar = _padd(h, r, m2)
    b = _psub(_padd(_pmul(s, gstar, m2), _pmul(t, hstar, m2), m2), [1], m2)
    cc, dd = _pdivmod(_pmul(s, b, m2), hstar, m2)
    sstar = _psub(s, dd, m2)
    tstar = _psub(t, _padd(_pmul(t, b, m2), _pmul(cc, gstar, m2), m2), m2)
    return gstar, hstar, sstar, tstar


def _hensel_lift_tree(f: IntPoly, facs: list[list[int]], p: int, q: int) -> list[list[int]]:
    """Lift the mod-p factorization of a monic f to mod q = p^a."""
    fc = [c % q for c in f.coeffs]

    def lift(target: list[int], parts: list[list[int]]) -> list[list[int]]:
        if len(parts) == 1:
            return [target]
        half = len(parts) // 2
        g, h = _pprod(parts[:half], p), _pprod(parts[half:], p)
        s, t = _bezout_mod_p(g, h, p)
        m = p
        while m < q:
            g, h, s, t = _hensel_step(target, g, h, s, t, m)
            m = m * m
        g = _trim([c % q for c in g])
        h = _trim([c % q for c in h])
        return lift(g, parts[:half]) + lift(h, parts[half:])

    return lift(fc, facs)


def _bezout_mod_p(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*g + t*h = 1 mod p for coprime g, h."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        qt, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(qt, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(qt, t1, p), p)
    if len(r0) != 1:
        raise AlgebraError(f"factors are not coprime mod {p}")
    inv = pow(r0[0], -1, p)
    return [(c * inv) % p for c in s0], [(c * inv) % p for c in t0]


def _recombine(f: IntPoly, lifted: list[list[int]], q: int) -> list[IntPoly]:
    """Zassenhaus subset recombination of Hensel-lifted monic factors."""
    remaining = list(range(len(lifted)))
    current = f
    out: list[IntPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        for combo in itertools.combinations(remaining, size):
            cand = IntPoly.of([_centered(c, q) for c in _pprod((lifted[i] for i in combo), q)])
            try:
                quotient = current.exact_div(cand)
            except AlgebraError:
                continue
            out.append(cand)
            current = quotient
            remaining = [i for i in remaining if i not in combo]
            break
        else:
            size += 1
    if current.degree > 0:
        out.append(current)
    return out


# ---------------------------------------------------------------------------
# integer factorization

@dataclass(frozen=True)
class IntFactorization:
    """Possibly-partial factorization value = sign * prod(p^e) * cofactor.
    Every listed p is a certified prime; cofactor == 1 means complete."""

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        if not self.complete:
            raise AlgebraError("squarefree test on an incomplete factorization")
        return all(e == 1 for _, e in self.factors)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24; raises beyond that range."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise AlgebraError(f"{n} exceeds the deterministic Miller-Rabin range")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """The strong test to every base of _MR_BASES, for odd n > 41: False
    proves n composite at any size; True proves it prime below _MR_LIMIT."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, effort: int) -> int:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor
    or 0 if the iteration budget runs out.  Deterministic: the polynomial
    increment steps through c = 1, 2, 3, ..."""
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
                steps = min(m, r - k)
                for _ in range(steps & 7):
                    y = (y * y + c) % n
                    qacc = qacc * (x - y) % n
                # qacc reduced once per eight steps: its residue mod n, and so
                # every gcd, is unchanged
                for _ in range(steps >> 3):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y4 = (y3 * y3 + c) % n
                    y5 = (y4 * y4 + c) % n
                    y6 = (y5 * y5 + c) % n
                    y7 = (y6 * y6 + c) % n
                    y = (y7 * y7 + c) % n
                    qacc = (qacc * ((x - y1) * (x - y2) * (x - y3) * (x - y4) % n)
                            * ((x - y5) * (x - y6) * (x - y7) * (x - y)) % n)
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


def prime_sieve(limit: int) -> list[int]:
    """All primes <= limit, by a sieve of Eratosthenes."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes((limit - i * i) // i + 1)
    return list(itertools.compress(range(limit + 1), flags))


# trial_divide divides out the primes up to this bound
TRIAL_BOUND = 10_000


@functools.cache
def _trial_primes() -> tuple[int, list[int]]:
    """The product of the primes up to TRIAL_BOUND, and those primes."""
    primes = prime_sieve(TRIAL_BOUND)
    return math.prod(primes), primes


def trial_divide(n: int) -> tuple[dict[int, int], int]:
    """Divide the primes up to TRIAL_BOUND out of n >= 1, finding them
    through one gcd with their product: returns ({p: e}, rest), with
    every prime of rest above TRIAL_BOUND."""
    product, primes = _trial_primes()
    g = math.gcd(n, product)
    small = []
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            small.append(p)
            g //= p
    if g > 1:
        small.append(g)  # no prime below sqrt(g) is left in g, so g is prime
    found: dict[int, int] = {}
    for p in small:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    return found, n


def factor_integer(nval: int, effort: int = 1_000_000) -> IntFactorization:
    """Factor a nonzero integer: trial_divide, then Pollard rho (Brent)
    within the iteration budget on every part proved composite, at or
    above _MR_LIMIT too.  A prime is listed only when is_prime certifies
    it; the unsplit part lands in cofactor."""
    if nval == 0:
        raise AlgebraError("cannot factor zero")
    sign = -1 if nval < 0 else 1
    found, n = trial_divide(abs(nval))
    cofactor = 1
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if v < _MR_LIMIT:
            if is_prime(v):
                found[v] = found.get(v, 0) + 1
                continue
        elif _strong_probable_prime(v):
            # probably prime, but no certificate available up there
            cofactor *= v
            continue
        root = math.isqrt(v)
        if root * root == v:
            stack.extend([root, root])
            continue
        g = _brent_rho(v, effort)
        if g in (0, 1, v):
            cofactor *= v
        else:
            stack.extend([g, v // g])
    factors = tuple(sorted(found.items()))
    return IntFactorization(value=nval, sign=sign, factors=factors, cofactor=cofactor)
