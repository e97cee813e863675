"""The benchmark's four workloads: one fixed `divlab` CLI invocation each.

A workload is a base cover g(t, u) plus fixed CLI parameters.  Seed 0
runs the base cover as written.  Any other seed runs the sibling cover
g(t + c, u) for a seed-derived shift c >= 1: fiber degree, deg F and the
parameters stay the same, and the shift is small against the problem
size, so the work per run stays close to seed 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# A cover is {(deg_t, deg_u): coefficient}.
Cover = dict


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # divlab subcommand
    cover: Cover  # base cover, seed 0
    params: tuple[str, ...]  # CLI flags after --cover
    max_shift: int  # seed s != 0 uses a shift c in [1, max_shift]
    why: str
    loads: str  # layers the workload loads, and those it bypasses


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="census-cubic",
            command="diversity",
            cover={(0, 3): 1, (1, 1): -1, (1, 0): -1},  # u^3 - t*u - t
            params=("--N", "8000"),
            max_shift=40,
            why="GF(p) irreducibility certificates, two discriminants and one "
                "integer factorization per fiber over 8000 cubic fibers",
            loads="algebra, factorization (is_irreducible_mod_p, factor_integer), "
                  "diversity; witnesses and enumerate_MF bypassed",
        ),
        Workload(
            name="census-quartic-w2",
            command="diversity",
            cover={(0, 4): 2, (2, 1): -1, (0, 0): 3},  # 2*u^4 - t^2*u + 3
            params=("--N", "1000", "--workers", "2"),
            max_shift=10,
            why="35-digit fiber discriminants make factor_integer dominate; "
                "the only workload with worker processes (2, contiguous shards)",
            loads="factorization (factor_integer), diversity, worker pool; "
                  "witnesses and enumerate_MF bypassed",
        ),
        Workload(
            name="witness-quadratic",
            command="witness",
            cover={(0, 2): 1, (2, 0): 1, (0, 0): 1},  # u^2 + t^2 + 1
            params=("--x", "1500000", "--mode", "override", "--k", "2", "--y", "5",
                    "--window-lo", "75000", "--window-hi", "375000", "--tail", "off"),
            max_shift=1000,
            why="witnesses (roots_mod_p per prime per witness), 176k clique rows, quadratic "
                "build_PF; never enters diversity; window_hi*(k+2) <= x avoids a known exit-3 defect",
            loads="sieve (quadratic root test), witnesses, factorization "
                  "(roots_mod_p, factor_integer), CSV writing; diversity bypassed",
        ),
        Workload(
            name="sieve-cubic",
            command="sieve",
            cover={(0, 2): 1, (3, 0): -1, (1, 0): 1, (0, 0): 1},  # u^2 - t^3 + t + 1
            params=("--x", "150000", "--mode", "override", "--k", "2", "--y", "5",
                    "--window-lo", "15000", "--window-hi", "37500", "--tail", "off"),
            max_shift=1000,
            why="build_PF on the generic root test (F = T^3 - T - 1), the path "
                "no other workload measures",
            loads="sieve (generic root test, enumerate_MF); witnesses and "
                  "diversity bypassed",
        ),
    )
}


def shift_for(workload: Workload, seed: int) -> int:
    """The t-shift of the sibling configuration: 0 for seed 0."""
    if seed == 0:
        return 0
    return random.Random(f"{workload.name}/{seed}").randint(1, workload.max_shift)


def shifted(cover: Cover, c: int) -> Cover:
    """g(t + c, u) by binomial expansion."""
    out: Cover = {}
    for (i, j), a in cover.items():
        for k in range(i + 1):
            key = (k, j)
            out[key] = out.get(key, 0) + a * math.comb(i, k) * c ** (i - k)
    return {key: a for key, a in out.items() if a != 0}


def format_cover(cover: Cover) -> str:
    """Cover text in the CLI's syntax, highest u-degree first."""
    terms = []
    for (i, j) in sorted(cover, key=lambda key: (-key[1], -key[0])):
        a = cover[(i, j)]
        atoms = [str(abs(a))] if abs(a) != 1 or (i, j) == (0, 0) else []
        atoms += [v if e == 1 else f"{v}^{e}" for v, e in (("t", i), ("u", j)) if e]
        terms.append(("-" if a < 0 else "+") + " " + "*".join(atoms))
    text = " ".join(terms)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def fiber(cover: Cover, n: int) -> list[int]:
    """Coefficients of g(n, u), lowest degree first."""
    nu = max(j for _, j in cover)
    coeffs = [0] * (nu + 1)
    for (i, j), a in cover.items():
        coeffs[j] += a * n**i
    return coeffs


def cli_args(workload: Workload, seed: int) -> list[str]:
    """The CLI argument list (without --out) for this seed."""
    cover = shifted(workload.cover, shift_for(workload, seed))
    return [workload.command, "--cover", format_cover(cover), *workload.params]


def flag(workload: Workload, name: str) -> str:
    return workload.params[workload.params.index(name) + 1]
