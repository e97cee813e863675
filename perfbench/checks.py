"""Re-checks of every output row of one CLI run, written in plain integer
code, independent of the divlab sources.

    python3 -B perfbench/checks.py WORKLOAD SHIFT OUT_DIR STDOUT_FILE

prints {"problems": [...], "items": N}; no problems means the output is
correct.  The benchmark runs it as a separate process, so that parsing
large outputs never raises the benchmark's own memory high-water mark,
which a child launched later would inherit in its ru_maxrss.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

import workloads as W


def summary(stdout: str) -> dict[str, str]:
    """`key = value` summary lines, keyed by their left-hand side."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_rows(path: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    if not os.path.exists(path):
        return [], [f"{os.path.basename(path)} missing"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return [], [f"{os.path.basename(path)}: bad header {rows[:1]}"]
    return rows[1:], []


# ---------------------------------------------------------------------------
# plain integer helpers

def primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def poly_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def has_rational_root(coeffs: list[int]) -> bool:
    """Rational root test: a root num/den has num | a_0 and den | a_lead."""
    if coeffs[0] == 0:
        return True
    deg = len(coeffs) - 1
    for num in divisors(coeffs[0]):
        for den in divisors(coeffs[-1]):
            for s in (num, -num):
                if sum(a * s**i * den ** (deg - i) for i, a in enumerate(coeffs)) == 0:
                    return True
    return False


def fiber_discriminant(c: list[int]) -> int:
    """Closed forms for the fiber shapes the census workloads produce."""
    if len(c) == 4 and c[2] == 0 and c[3] == 1:  # u^3 + p*u + q
        p, q = c[1], c[0]
        return -4 * p**3 - 27 * q**2
    if len(c) == 5 and c[2] == c[3] == 0:  # a*u^4 + d*u + e
        a, d, e = c[4], c[1], c[0]
        return a * a * (256 * a * e**3 - 27 * d**4)
    raise ValueError(f"no discriminant formula for fiber shape {c}")


def univariate_discriminant(c: list[int]) -> int:
    if len(c) == 3:
        return c[1] ** 2 - 4 * c[2] * c[0]
    if len(c) == 4:
        d, cc, b, a = c
        return b * b * cc * cc - 4 * a * cc**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * cc * d
    raise ValueError(f"no discriminant formula for degree {len(c) - 1}")


def has_root_mod(coeffs: list[int], p: int) -> bool:
    if len(coeffs) == 3 and p > 2:  # Euler's criterion on the discriminant
        disc = univariate_discriminant(coeffs) % p
        return disc == 0 or pow(disc, (p - 1) // 2, p) == 1
    return any(poly_eval(coeffs, r) % p == 0 for r in range(p))


def special_set(F: list[int], k1: int, y: int, lo: int, hi: int) -> set[int]:
    """Every squarefree m in [lo, hi] that is a product of k1 primes
    p >= y with p not dividing disc(F) and F having a root mod p."""
    disc = univariate_discriminant(F)
    cands = [p for p in primes_upto(hi // y ** (k1 - 1)) if p >= y and disc % p and has_root_mod(F, p)]
    out: set[int] = set()

    def extend(m: int, start: int, left: int) -> None:
        for i in range(start, len(cands)):
            mm = m * cands[i]
            if mm * cands[i] ** (left - 1) > hi:
                break
            if left == 1:
                if mm >= lo:
                    out.add(mm)
            else:
                extend(mm, i + 1, left - 1)

    extend(1, 0, k1)
    return out


def squarefree_factors(text: str, m: int, k1: int, y: int) -> list[str]:
    """Problems with a `p1*p2*...` factorization of m."""
    primes = [int(p) for p in text.split("*")]
    errs = []
    if math.prod(primes) != m:
        errs.append(f"m={m}: factorization {text} does not multiply to m")
    if primes != sorted(set(primes)) or len(primes) != k1:
        errs.append(f"m={m}: expected {k1} distinct increasing primes, got {text}")
    if any(p < y or not is_prime(p) for p in primes):
        errs.append(f"m={m}: factor below y={y} or not prime in {text}")
    return errs


# ---------------------------------------------------------------------------
# per-subcommand checks

def check_census(w: W.Workload, shift: int, out_dir: str, stdout: str) -> list[str]:
    rows, errs = read_rows(os.path.join(out_dir, "census.csv"),
                           ["n", "fiber_degree", "irreducible", "fingerprint", "new_field"])
    if errs:
        return errs
    N = int(W.flag(w, "--N"))
    if [int(r[0]) for r in rows] != list(range(1, N + 1)):
        errs.append(f"census rows are not n = 1..{N} in order")
        return errs
    cover = W.shifted(w.cover, shift)
    complete_seen: set[tuple[int, ...]] = set()
    partial_seen: list[set[int]] = []
    distinct = reducible = 0
    for n_text, deg_text, irr, fp, new in rows:
        n = int(n_text)
        f = W.fiber(cover, n)
        g = math.gcd(*f)
        f = [a // g for a in f]
        if int(deg_text) != len(f) - 1:
            errs.append(f"n={n}: fiber degree {deg_text}, expected {len(f) - 1}")
        rational_root = has_rational_root(f)
        if irr == "true" and rational_root:
            errs.append(f"n={n}: marked irreducible but has a rational root")
        if irr == "false" and len(f) <= 4 and not rational_root:
            errs.append(f"n={n}: cubic without rational root marked reducible")
        reducible += irr == "false"
        if irr != "true":
            if fp or new != "false":
                errs.append(f"n={n}: fingerprint or new field on a reducible fiber")
            continue
        complete = not fp.endswith("?")
        primes = tuple(int(p) for p in fp.rstrip("?").split(";") if p)
        rest = abs(fiber_discriminant(f))
        for p in primes:
            v = 0
            while rest % p == 0:
                rest //= p
                v += 1
            if v % 2 == 0:
                errs.append(f"n={n}: fingerprint prime {p} has even valuation {v}")
        if complete and math.isqrt(rest) ** 2 != rest:
            errs.append(f"n={n}: complete fingerprint {fp} misses an odd-valuation prime")
        # the census counting rule, restated
        if complete:
            is_new = primes not in complete_seen
            complete_seen.add(primes)
        else:
            mine = set(primes)
            is_new = all(mine ^ set(t) for t in complete_seen) and all(mine ^ o for o in partial_seen)
            if is_new:
                partial_seen.append(mine)
        distinct += is_new
        if new != str(is_new).lower():
            errs.append(f"n={n}: new_field = {new}, the counting rule gives {is_new}")
    s = summary(stdout)
    for key, want in (("N", N), ("distinct_lower_bound", distinct), ("reducible_count", reducible)):
        if s.get(key) != str(want):
            errs.append(f"summary {key} = {s.get(key)}, rows give {want}")
    return errs[:20]


def _special_set_params(w: W.Workload) -> tuple[int, int, int, int]:
    return (int(W.flag(w, "--k")) + 1, int(W.flag(w, "--y")),
            int(float(W.flag(w, "--window-lo"))), int(float(W.flag(w, "--window-hi"))))


def _critical_poly(w: W.Workload, shift: int) -> list[int]:
    """F for the covers u^2 + H(t) these workloads use: F = +-H."""
    cover = W.shifted(w.cover, shift)
    if set(j for _, j in cover) != {0, 2} or cover[(0, 2)] != 1:
        raise ValueError("witness and sieve workloads expect a cover u^2 + H(t)")
    deg = max(i for i, j in cover if j == 0)
    return [cover.get((i, 0), 0) for i in range(deg + 1)]


def check_witness(w: W.Workload, shift: int, out_dir: str, stdout: str) -> list[str]:
    rows, errs = read_rows(os.path.join(out_dir, "witnesses.csv"),
                           ["m", "factorization", "n_m", "shift_l", "greedy"])
    clique_rows, cerrs = read_rows(os.path.join(out_dir, "cliques.csv"), ["P", "m1", "m2", "m3", "type"])
    errs += cerrs
    if errs:
        return errs
    F = _critical_poly(w, shift)
    k1, y, lo, hi = _special_set_params(w)
    x = float(W.flag(w, "--x"))
    ms = [int(r[0]) for r in rows]
    if ms != sorted(set(ms)):
        errs.append("witness rows are not in increasing m order")
    if set(ms) != special_set(F, k1, y, lo, hi):
        errs.append("witness rows do not cover exactly the special set M_F(x)")
    cofactors: dict[int, set[int]] = {}
    for m_text, fact, n_text, l_text, kind in rows:
        m, n_m, ell = int(m_text), int(n_text), int(l_text)
        errs += squarefree_factors(fact, m, k1, y)
        v = poly_eval(F, n_m)
        if v % m or math.gcd(m, v // m) != 1:
            errs.append(f"m={m}: m does not exactly divide F({n_m})")
        if not (1 <= n_m <= m * (k1 + 1) and n_m <= x and 0 <= ell <= k1):
            errs.append(f"m={m}: witness {n_m} (shift {ell}) outside its bound")
        if kind not in ("greedy", "generous"):
            errs.append(f"m={m}: bad greedy column {kind!r}")
        P = int(fact.split("*")[-1])
        cofactors.setdefault(P, set()).add(m // P)
    want = sum(math.comb(len(c), 3) for c in cofactors.values())
    keys = [tuple(int(v) for v in r[:4]) for r in clique_rows]
    if len(keys) != want or keys != sorted(set(keys)):
        errs.append(f"{len(keys)} clique rows, expected {want} distinct sorted triples")
    for (P, a, b, c), row in zip(keys, clique_rows):
        if not (a < b < c and {a, b, c} <= cofactors.get(P, set())):
            errs.append(f"clique {row} is not three cofactors sharing P")
            break
        equal = math.lcm(a, b) == math.lcm(a, c) == math.lcm(b, c) == math.lcm(a, b, c)
        if row[4] != ("equal-lcm" if equal else "proper-lcm"):
            errs.append(f"clique {row}: wrong type")
            break
    s = summary(stdout)
    if s.get("|M_F(x)|", "").split(" ")[0] != str(len(rows)):
        errs.append(f"summary |M_F(x)| = {s.get('|M_F(x)|')}, {len(rows)} rows")
    if s.get("cliques", "").split(" ")[0] != str(len(clique_rows)):
        errs.append(f"summary cliques = {s.get('cliques')}, {len(clique_rows)} rows")
    greedy = sum(r[4] == "greedy" for r in rows)
    if s.get("greedy") != f"{greedy}, generous = {len(rows) - greedy}":
        errs.append(f"summary greedy = {s.get('greedy')} disagrees with the rows")
    return errs[:20]


def check_sieve(w: W.Workload, shift: int, out_dir: str, stdout: str) -> list[str]:
    rows, errs = read_rows(os.path.join(out_dir, "mf.csv"), ["m", "factorization", "P", "m1"])
    if errs:
        return errs
    F = _critical_poly(w, shift)
    k1, y, lo, hi = _special_set_params(w)
    ms = [int(r[0]) for r in rows]
    if ms != sorted(set(ms)):
        errs.append("mf rows are not in increasing m order")
    if set(ms) != special_set(F, k1, y, lo, hi):
        errs.append("mf rows do not cover exactly the special set M_F(x)")
    for m_text, fact, P, m1 in rows:
        m = int(m_text)
        errs += squarefree_factors(fact, m, k1, y)
        top = int(fact.split("*")[-1])
        if int(P) != top or int(m1) * top != m:
            errs.append(f"m={m}: P={P}, m1={m1} do not split m at its largest prime")
    s = summary(stdout)
    if s.get("|M_F(x)|", "").split(" ")[0] != str(len(rows)):
        errs.append(f"summary |M_F(x)| = {s.get('|M_F(x)|')}, {len(rows)} rows")
    return errs[:20]


CHECKS = {"diversity": check_census, "witness": check_witness, "sieve": check_sieve}


def items(w: W.Workload, out_dir: str) -> int:
    """Work units of one run: fibers, witnesses, or primes up to the sieve limit."""
    if w.command == "diversity":
        return int(W.flag(w, "--N"))
    if w.command == "witness":
        with open(os.path.join(out_dir, "witnesses.csv"), encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1
    return len(primes_upto(max(1000, math.ceil(float(W.flag(w, "--x"))))))


def main(argv: list[str]) -> int:
    name, shift, out_dir, stdout_file = argv
    w = W.WORKLOADS[name]
    with open(stdout_file, encoding="utf-8") as fh:
        stdout = fh.read()
    problems = CHECKS[w.command](w, int(shift), out_dir, stdout)
    print(json.dumps({"problems": problems, "items": 0 if problems else items(w, out_dir)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
