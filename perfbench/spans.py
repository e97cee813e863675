"""Traced run of the divlab CLI, and the per-layer metrics of its spans.

Run as a script, this module wraps the public functions at each module
boundary of divlab by rebinding every name under which a divlab module
holds them, runs `divlab.cli.main` in this process, and writes the spans
it recorded as JSON when the CLI returns:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json diversity --cover ... --workers 1

A span is [name, start, end, parent, info]: parent is the index of the
enclosing span (-1 at the top) and info one fact about the call (the
prime p, the result's truth value, its length...).  Worker processes
cannot return spans, so a traced census runs with --workers 1.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict

# layer.function -> what to record as the span's info, from (args, result)
TRACED = {
    "algebra.critical_polynomial": None,
    "algebra.poly_discriminant": None,
    "factorization.is_irreducible_mod_p": lambda a, r: bool(r),
    "factorization.factor_over_Z": None,
    "factorization.factor_integer": lambda a, r: r.complete,
    "factorization.roots_mod_p": lambda a, r: a[1],
    "sieve.prime_sieve": None,
    "sieve.build_PF": lambda a, r: r.total_primes,
    "sieve.enumerate_MF": lambda a, r: len(r),
    "witnesses.primitive_witness": None,
    "witnesses.crt_root": None,
    "witnesses.exact_divisor_shift": None,
    "witnesses.find_cliques": lambda a, r: len(r),
    "diversity.fiber_poly": lambda a, r: a[1],
    "diversity.is_fiber_irreducible": None,
    "diversity.fingerprint": lambda a, r: r.complete,
    "diversity.run_census": None,
    "cli.main": None,
}
LAYERS = ("algebra", "factorization", "sieve", "witnesses", "diversity", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []

    def wrap(self, name: str, fn, info):
        spans, stack, clock = self.spans, self.open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span[4] = info(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind each traced function in every divlab module that holds it."""
        modules = [importlib.import_module(f"divlab.{layer}") for layer in LAYERS]
        for qualname, info in TRACED.items():
            layer, fn_name = qualname.split(".")
            original = getattr(importlib.import_module(f"divlab.{layer}"), fn_name)
            wrapper = self.wrap(qualname, original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import divlab.cli

    try:
        code = divlab.cli.main(cli_argv)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process, which never imports divlab)

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def shard_balance(spans: list[list], workers: int = 2) -> float:
    """Slowest shard over mean shard time, were the census fibers split
    into `workers` contiguous shards as the CLI splits them.  A fiber's
    time runs from its first fiber_poly call to the next fiber's."""
    census = [i for i, s in enumerate(spans) if s[0] == "diversity.run_census"]
    if not census:
        return 0.0
    fiber_work = ("diversity.fiber_poly", "diversity.is_fiber_irreducible", "diversity.fingerprint")
    top = [s for s in spans if s[3] == census[0] and s[0] in fiber_work]
    starts = [s[1] for s in top if s[0] == "diversity.fiber_poly"]
    if len(starts) < workers:
        return 0.0
    ends = starts[1:] + [max(s[2] for s in top)]
    per_fiber = [e - s for s, e in zip(starts, ends)]
    step = -(-len(per_fiber) // workers)
    shards = [sum(per_fiber[i : i + step]) for i in range(0, len(per_fiber), step)]
    return max(shards) / statistics.fmean(shards)


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    dur: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    for s, c in zip(spans, child):
        dur[s[0]].append(s[2] - s[1])
        self_s[s[0]] += s[2] - s[1] - c
        info[s[0]].append(s[4])

    def calls(name):
        return (len(dur[name]), "count")

    def share(name):
        return (self_s[name] / wall_s, "share")

    def seconds(name):
        return (sum(dur[name]), "s")

    def tail(name):
        p50 = percentile(dur[name], 0.5)
        return (percentile(dur[name], 0.99) / p50 if p50 else 0.0, "ratio")

    def count_false(name):
        return (sum(v is False for v in info[name]), "count")

    irr = info["factorization.is_irreducible_mod_p"]
    return {
        "trace.wall_s": (wall_s, "s"),
        "algebra.critical_polynomial.s": seconds("algebra.critical_polynomial"),
        "algebra.poly_discriminant.calls": calls("algebra.poly_discriminant"),
        "algebra.poly_discriminant.self_s": (self_s["algebra.poly_discriminant"], "s"),
        "factorization.is_irreducible_mod_p.calls": calls("factorization.is_irreducible_mod_p"),
        "factorization.is_irreducible_mod_p.self_share": share("factorization.is_irreducible_mod_p"),
        "factorization.is_irreducible_mod_p.true_share": (sum(irr) / len(irr) if irr else 0.0, "share"),
        "factorization.factor_over_Z.calls": calls("factorization.factor_over_Z"),
        "factorization.factor_over_Z.self_share": share("factorization.factor_over_Z"),
        "factorization.factor_integer.calls": calls("factorization.factor_integer"),
        "factorization.factor_integer.self_share": share("factorization.factor_integer"),
        "factorization.factor_integer.p99_p50": tail("factorization.factor_integer"),
        "factorization.factor_integer.incomplete": count_false("factorization.factor_integer"),
        "factorization.roots_mod_p.calls": calls("factorization.roots_mod_p"),
        "factorization.roots_mod_p.distinct_p": (len(set(info["factorization.roots_mod_p"])), "count"),
        "factorization.roots_mod_p.self_share": share("factorization.roots_mod_p"),
        "sieve.prime_sieve.s": seconds("sieve.prime_sieve"),
        "sieve.build_PF.s": seconds("sieve.build_PF"),
        "sieve.build_PF.us_per_prime": (
            sum(dur["sieve.build_PF"]) * 1e6 / max(1, sum(info["sieve.build_PF"])), "us"),
        "sieve.enumerate_MF.share": (sum(dur["sieve.enumerate_MF"]) / wall_s, "share"),
        "sieve.enumerate_MF.elements": (sum(info["sieve.enumerate_MF"]), "count"),
        "witnesses.primitive_witness.calls": calls("witnesses.primitive_witness"),
        "witnesses.primitive_witness.self_share": share("witnesses.primitive_witness"),
        "witnesses.primitive_witness.p99_p50": tail("witnesses.primitive_witness"),
        "witnesses.crt_root.self_share": share("witnesses.crt_root"),
        "witnesses.exact_divisor_shift.self_share": share("witnesses.exact_divisor_shift"),
        "witnesses.find_cliques.share": (sum(dur["witnesses.find_cliques"]) / wall_s, "share"),
        "witnesses.find_cliques.cliques": (sum(info["witnesses.find_cliques"]), "count"),
        "diversity.fiber_poly.calls": calls("diversity.fiber_poly"),
        "diversity.is_fiber_irreducible.calls": calls("diversity.is_fiber_irreducible"),
        "diversity.is_fiber_irreducible.self_share": share("diversity.is_fiber_irreducible"),
        "diversity.is_fiber_irreducible.p99_p50": tail("diversity.is_fiber_irreducible"),
        "diversity.fingerprint.calls": calls("diversity.fingerprint"),
        "diversity.fingerprint.self_share": share("diversity.fingerprint"),
        "diversity.fingerprint.p99_p50": tail("diversity.fingerprint"),
        "diversity.fingerprint.incomplete": count_false("diversity.fingerprint"),
        "diversity.run_census.self_share": share("diversity.run_census"),
        "diversity.shard_balance": (shard_balance(spans), "ratio"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
