"""Command-line front end: plain-text config, five subcommands, CSV
emission, and `verify`'s checks of the supporting properties on the
cover it is given.  Library warnings reach stderr as one
`warning: <message>` line each.

Exit codes: 0 success, 1 config error, 2 mathematical degeneracy,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .algebra import (
    AlgebraError,
    CurveCover,
    IntPoly,
    LemmaViolation,
    PolyParseError,
    critical_polynomial,
    format_poly,
    parse_cover,
)

# Every other layer is imported by the function that runs it, so a run
# compiles and loads only the layers its subcommand uses.
if TYPE_CHECKING:
    from .sieve import ChebotarevSieve, DiversityParams


class ConfigError(ValueError):
    pass


def _parse_tail(text: str) -> Optional[Fraction]:
    """`off`, `none` and `0` switch the tail constraint off."""
    return None if text.lower() in ("off", "none", "0") else Fraction(text)


# How to read each parameter that is not a string from its text, in a
# config file and on the command line alike.
_PARSERS = {
    **dict.fromkeys(("N", "k", "d", "limit", "budget", "workers"), int),
    **dict.fromkeys(("x", "epsilon", "delta", "y", "window_lo", "window_hi"), float),
    "tail": _parse_tail,
}


def _parse(key: str, text: str, where: str):
    try:
        return _PARSERS.get(key, str)(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: bad value for {key}: {text!r}") from None


# The keys a run reads, by subcommand and, for sieve and witness, by mode.
# Every other key must keep its default value. Override `witness` sieves
# only to params.prime_bound, which its window check keeps below x, so
# `limit` cannot change its output; `verify` always sieves to 10^4.
_M_F = ("cover", "x", "mode", "tail", "out")
_READS = {
    ("analyze", None): {"cover", "d", "limit"},
    ("sieve", "paper"): {*_M_F, "epsilon", "delta", "d", "limit"},
    ("sieve", "override"): {*_M_F, "k", "y", "window_lo", "window_hi", "limit"},
    ("witness", "paper"): {*_M_F, "epsilon", "delta", "d", "limit"},
    ("witness", "override"): {*_M_F, "k", "y", "window_lo", "window_hi", "d"},
    ("diversity", None): {"cover", "N", "delta", "budget", "workers", "out"},
    ("verify", None): {"cover"},
}


@dataclass(frozen=True)
class RunConfig:
    cover: Optional[str] = None
    N: Optional[int] = None
    x: Optional[float] = None
    mode: str = "paper"
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    k: Optional[int] = None
    y: Optional[float] = None
    window_lo: Optional[float] = None
    window_hi: Optional[float] = None
    tail: Optional[Fraction] = Fraction(9, 10)
    d: Optional[int] = None
    limit: Optional[int] = None
    budget: int = 1_000_000
    workers: int = 1
    out: str = "."

    def validate(self, command: str) -> None:
        """Every value range, for a run of the given subcommand; then
        every key the run does not read must keep its default."""
        if self.mode not in ("paper", "override"):
            raise ConfigError(f"mode must be paper or override, got {self.mode!r}")
        for key, v in vars(self).items():
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {v}")
        for key in ("N", "x", "epsilon", "delta", "k", "y", "budget", "workers", "d"):
            v = getattr(self, key)
            if v is not None and v <= 0:
                raise ConfigError(f"{key} must be positive, got {v}")
        # analyze's density check needs 100 primes, and 541 is the 100th
        least = 541 if command == "analyze" else 2
        if self.limit is not None and self.limit < least:
            raise ConfigError(f"limit must be at least {least}, got {self.limit}")
        for key, top in (("epsilon", 0.5), ("delta", 1)):
            v = getattr(self, key)
            if v is not None and v > top:
                raise ConfigError(f"{key} must lie in (0, {top}], got {v}")
        if self.tail is not None and not 0 < self.tail < 1:
            raise ConfigError(f"tail exponent must lie in (0, 1), got {self.tail}")
        # the tail bound is found, once per run, from powers P**denominator
        if self.tail is not None and self.tail.denominator > 1000:
            raise ConfigError(f"tail exponent needs a denominator of at most 1000, got {self.tail}")
        if self.x is not None and self.limit is not None and self.limit < self.x:
            raise ConfigError(f"sieve limit {self.limit} is below x = {self.x}")
        if command == "diversity" and self.N is not None and self.N < 10:
            raise ConfigError("diversity census needs N >= 10")
        # sieve and witness derive paper-mode parameters from kappa = log log x
        paper_params = command in ("sieve", "witness") and self.mode == "paper"
        if paper_params and self.x is not None and self.x <= math.e:
            raise ConfigError(f"paper mode needs x > e, got x = {self.x:g}")
        if command == "witness" and self.mode == "override" and None not in (self.x, self.k, self.window_hi):
            # witnesses satisfy n_m <= m*(k+2), and m reaches the window top
            # rounded up
            top = math.ceil(self.window_hi) * (self.k + 2)
            if top > self.x:
                raise ConfigError(
                    f"window_hi*(k+2) = {top} exceeds x = {self.x:g}: "
                    "witnesses could fall above x; lower window_hi or raise x"
                )
        mode = self.mode if (command, self.mode) in _READS else None
        default = RunConfig()
        for key in _KEYS:
            if key not in _READS[command, mode] and getattr(self, key) != getattr(default, key):
                what = f"{command} (mode = {mode})" if mode else command
                raise ConfigError(f"{what} does not read {key}; leave it unset")
        # paper-mode sieve reads d only to default epsilon
        if paper_params and command == "sieve" and None not in (self.epsilon, self.d):
            raise ConfigError(
                "sieve (mode = paper) does not read d when epsilon is set; leave it unset"
            )


_KEYS = tuple(f.name for f in fields(RunConfig))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def load_config(path: str) -> RunConfig:
    """Plain `key = value` lines; '#' starts a comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse(key, value.strip(), f"{path}:{lineno}")
    return RunConfig(**values)


def merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Command-line flags win over config-file values."""
    return replace(cfg, **{
        key: _parse(key, getattr(args, key), _flag(key))
        for key in _KEYS
        if getattr(args, key, None) is not None
    })


# ---------------------------------------------------------------------------
# shared plumbing

def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing required parameter: {key}")


def _load_cover(cfg: RunConfig) -> CurveCover:
    _require(cfg, "cover")
    try:
        return parse_cover(cfg.cover)
    except PolyParseError as e:
        raise ConfigError(f"cannot parse cover: {e}")


def _sieve_and_params(cfg: RunConfig, F: IntPoly) -> tuple[ChebotarevSieve, DiversityParams]:
    """P_F and the parameters of M_F(x). P_F is sieved to `limit` only
    where its density delta_hat is read: as delta in paper mode, and only
    when delta = 1 gives k > 1, since k = floor(eps*delta*kappa) + 1 grows
    with delta <= 1 and no other parameter reads it. Otherwise it is
    sieved only to params.prime_bound, since no element of M_F(x)
    contains a prime above it."""
    from .sieve import DiversityParams, build_PF

    _require(cfg, "x")
    limit = cfg.limit or max(1000, math.ceil(cfg.x))
    full = None
    if cfg.mode == "override":
        _require(cfg, "k", "y", "window_lo", "window_hi")
        params = DiversityParams(
            x=cfg.x, k=cfg.k, y=cfg.y,
            window_lo=cfg.window_lo, window_hi=cfg.window_hi,
            tail_exponent=cfg.tail,
        )
    else:
        def paper(delta: float) -> DiversityParams:
            return DiversityParams.paper(
                x=cfg.x, delta=delta, d=cfg.d or F.degree, epsilon=cfg.epsilon,
                tail_exponent=cfg.tail,
            )

        params = paper(1.0 if cfg.delta is None else cfg.delta)
        if cfg.delta is None and params.k > 1:
            full = build_PF(F, limit)
            params = paper(float(full.delta_hat))
    sieve = full if full is not None else build_PF(F, max(2, min(limit, params.prime_bound)))
    return sieve, params


@contextlib.contextmanager
def _csv_writer(path: str, header: list[str]) -> Iterator:
    """A csv writer on a new file at path, its header row written."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        yield w


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence]) -> None:
    with _csv_writer(path, header) as w:
        w.writerows(rows)


def _fact_str(primes) -> str:
    return "*".join(str(p) for p in primes)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(cfg: RunConfig) -> int:
    from .sieve import DENSITY_SLACK, build_PF, check_density_floor

    cover = _load_cover(cfg)
    F = critical_polynomial(cover)
    sieve = build_PF(F, cfg.limit or 10_000)
    d = cfg.d or F.degree
    margin = check_density_floor(sieve, d)
    print(f"F = {format_poly(F, 'T')}")
    print(f"d = {d}")
    print(f"disc(F) = {sieve.discriminant}")
    print(f"|P_F| = {len(sieve.primes_in_PF)} of {sieve.total_primes} primes up to {sieve.limit}")
    print(f"delta_hat = {float(sieve.delta_hat):.6f} ({sieve.delta_hat})")
    print(
        f"density floor 1/d = {1.0 / d:.6f} (slack {DENSITY_SLACK}): "
        f"{'pass' if margin >= 0 else 'FAIL'} (margin {margin:+.6f})"
    )
    return 0


def cmd_sieve(cfg: RunConfig) -> int:
    from .sieve import enumerate_MF

    cover = _load_cover(cfg)
    F = critical_polynomial(cover)
    sieve, params = _sieve_and_params(cfg, F)
    mf = enumerate_MF(sieve, params)
    rows = ([e.m, _fact_str(e.primes), e.P, e.m1] for e in mf)
    path = os.path.join(cfg.out, "mf.csv")
    _write_csv(path, ["m", "factorization", "P", "m1"], rows)
    print(f"mode = {params.mode}")
    print(f"k+1 = {params.k + 1}, y = {params.y:.6g}, "
          f"window = [{params.window_lo:.6g}, {params.window_hi:.6g}], "
          f"tail = {params.tail_exponent}")
    print(f"|M_F(x)| = {len(mf)} -> {path}")
    return 0


def cmd_witness(cfg: RunConfig) -> int:
    from .sieve import enumerate_MF
    from .witnesses import classify_greedy, find_cliques, witnesses_for_MF

    cover = _load_cover(cfg)
    F = critical_polynomial(cover)
    sieve, params = _sieve_and_params(cfg, F)
    mf = enumerate_MF(sieve, params)
    wits = witnesses_for_MF(sieve, mf, params)
    d = cfg.d or F.degree
    greedy = classify_greedy(wits, d)
    rows = (
        [w.m, _fact_str(w.primes), w.n_m, w.shift_l, "greedy" if g else "generous"]
        for w, g in zip(wits, greedy)
    )
    path = os.path.join(cfg.out, "witnesses.csv")
    _write_csv(path, ["m", "factorization", "n_m", "shift_l", "greedy"], rows)
    cliques = find_cliques(mf)
    cpath = os.path.join(cfg.out, "cliques.csv")
    with open(cpath, "w", encoding="utf-8", newline="") as fh:
        fh.write("P,m1,m2,m3,type\n")
        for text in cliques:  # one P-group in memory at a time
            fh.write(text)
    print(f"mode = {params.mode}")
    print(f"|M_F(x)| = {len(mf)} -> {path}")
    n_greedy = sum(greedy)
    print(f"greedy = {n_greedy}, generous = {len(wits) - n_greedy}")
    if wits:
        # |{n_m}| * 12d / |M_F|, compared to the asymptotic benchmark 1
        distinct = len({w.n_m for w in wits})
        print(
            f"distinct witnesses = {distinct} vs "
            f"|M_F|/(12d) = {len(wits) / (12 * d):.3f} "
            f"(ratio {distinct * 12 * d / len(wits):.3f})"
        )
    print(f"cliques = {len(cliques)} -> {cpath}")
    return 0


def cmd_diversity(cfg: RunConfig) -> int:
    from .diversity import run_census

    cover = _load_cover(cfg)
    _require(cfg, "N")
    census = run_census(cover, cfg.N, effort=cfg.budget, delta=cfg.delta, workers=cfg.workers)
    path = os.path.join(cfg.out, "census.csv")
    distinct = reducible = 0
    with _csv_writer(path, ["n", "fiber_degree", "irreducible", "fingerprint", "new_field"]) as w:
        for r in census.rows:  # each row is written as its fiber is decided
            distinct += r.new_field
            reducible += r.irreducible is False
            w.writerow([
                r.n,
                r.fiber_degree,
                "" if r.irreducible is None else str(r.irreducible).lower(),
                r.fingerprint.render() if r.fingerprint is not None else "",
                str(r.new_field).lower(),
            ])
    print(f"N = {census.N}")
    print(f"distinct_lower_bound = {distinct}")
    print(f"reducible_count = {reducible}")
    print(f"eta = {census.eta:.6g}")
    print(f"N_over_logN = {census.n_over_log_n:.3f}")
    print(f"bound_value = {census.bound_value:.3f}")
    # the census has no modes; the line stays while the benchmark's
    # reference digests include stdout
    print("mode = paper")
    print(f"per-n rows -> {path}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    from .sieve import DiversityParams, build_PF, enumerate_MF
    from .witnesses import recheck_witness, verify_property_C, verify_property_D, verify_property_E, witnesses_for_MF

    cover = _load_cover(cfg)
    F = critical_polynomial(cover)
    hard_failures = 0
    # one sieve serves every check: the first 50 primes of P_F, each of
    # its primes up to 10^4, and M_F(10^4) for the witness re-check
    sieve = build_PF(F, 10_000)
    c_viol = sum(len(verify_property_C(sieve, p)) for p in sieve.primes_in_PF[:50])
    print(f"exact-division after shift by p (first 50 primes): "
          f"{c_viol} violations: {'pass' if c_viol == 0 else 'FAIL'}")
    hard_failures += c_viol > 0

    d_fail = verify_property_D(sieve)
    print(f"small witness per prime: {len(sieve.primes_in_PF)} primes, "
          f"{len(d_fail)} failures: {'pass' if not d_fail else 'FAIL'}")
    hard_failures += bool(d_fail)

    rep_e = verify_property_E(F, 100, 2000)
    # a violation, more than deg F primes >= n/4 where the size of F(n)
    # rules that out, can only be a factorization fault.  Exceptions (the
    # size allows them) and indeterminate n (a composite rest that could
    # hide such primes) are reported, not failed.
    ok = not rep_e.violations
    hard_failures += not ok
    print(
        f"large-prime-divisor count (n in [100, 2000]): "
        f"{len(rep_e.violations)} above-threshold, "
        f"{len(rep_e.exceptions)} allowed by size, "
        f"{len(rep_e.indeterminate)} indeterminate: {'pass' if ok else 'FAIL'}"
    )

    params = DiversityParams(x=10_000, k=1, y=5, window_lo=50, window_hi=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mf = enumerate_MF(sieve, params)
    wits = witnesses_for_MF(sieve, mf[:200])
    bad = sum(1 for w in wits if not recheck_witness(F, w))
    print(f"witness re-check: {len(wits)} witnesses, {bad} failures: "
          f"{'pass' if bad == 0 else 'FAIL'}")
    hard_failures += bad > 0

    if hard_failures:
        print(f"{hard_failures} hard failure(s)")
        return 3
    print("all suites passed")
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors (an unknown or abbreviated flag, a missing value) are
    config errors."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divlab",
        description="Diversity experiments for parametric families of number fields.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("analyze", cmd_analyze),
        ("sieve", cmd_sieve),
        ("witness", cmd_witness),
        ("diversity", cmd_diversity),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(func=fn)
        p.add_argument("--config", metavar="PATH")
        for key in _KEYS:
            p.add_argument(_flag(key), dest=key)
    return parser


def _show_warning(message, *_) -> None:
    """warnings.showwarning without the source location, so stderr is the
    same wherever divlab is installed."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = merge_flags(cfg, args)
        cfg.validate(args.command)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except AlgebraError as e:
        print(f"degenerate input: {e}", file=sys.stderr)
        return 2
    except LemmaViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
