"""divlab benchmark: time to result of one `divlab` CLI invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI invocation as a child process, one at a time (a
closed loop with one client), for S seconds, and checks every run's
output.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced runs with runs under perfbench/spans.py
and reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --record-reference

re-records the seed-0 output digests in perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's own directory

import spans  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
MIN_RUNS = 3  # timed runs per benchmark run, whatever --seconds says
PROBES_PER_RUN = 4  # setup probes interleaved with the timed runs
SETUP_CODE = (
    "import sys, divlab.cli\n"
    "from divlab.algebra import critical_polynomial, parse_cover\n"
    "critical_polynomial(parse_cover(sys.argv[1]))\n"
)


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def digests(out_dir: Path, stdout: str) -> dict[str, str]:
    """sha256 of every output file and of stdout, with the run's output
    directory replaced by a fixed token."""
    out = {"stdout": hashlib.sha256(stdout.replace(str(out_dir), "OUT").encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[path.name] = h.hexdigest()
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DIVLAB_WORKERS", None)
    return env


def launch(argv: list[str], work: Path) -> Run:
    """Run one child to exit through perfbench/launch.py, which measures it."""
    stdout, stderr = work / "stdout", work / "stderr"
    helper = subprocess.run(
        [sys.executable, "-B", str(HERE / "launch.py"), str(stdout), str(stderr), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    m = json.loads(helper.stdout)
    return Run(m["wall_s"], m["cpu_s"], m["rss_mb"], m["code"],
               stdout.read_text(errors="replace"), stderr.read_text(errors="replace"))


class Bench:
    def __init__(self, workload: W.Workload, seed: int, work: Path, reference: dict | None):
        self.w = workload
        self.shift = W.shift_for(workload, seed)
        self.args = W.cli_args(workload, seed)
        self.work = work
        self.out_dir = work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = reference  # digests the first run must match, if given
        self.expected: dict[str, str] | None = None  # digests of the first run
        self.items = 0  # work units per run, from the first run's check
        self.output_bytes = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def cli(self, args: list[str], traced: bool = False) -> Run:
        """One CLI run into a fresh output directory, checked."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [sys.executable]
        if traced:
            argv += [str(HERE / "spans.py"), str(self.work / "spans.json")]
        else:
            argv += ["-m", "divlab.cli"]
        run = launch(argv + args + ["--out", str(self.out_dir)], self.work)
        self.attempted += 1
        what = " ".join(args[:1] + (["(traced)"] if traced else []))
        if run.code != 0:
            self.fail(what, [f"exit {run.code}: {run.stderr.strip()[-300:]}"])
            return run
        got = digests(self.out_dir, run.stdout)
        if self.expected is None:
            check = subprocess.run(
                [sys.executable, "-B", str(HERE / "checks.py"), self.w.name, str(self.shift),
                 str(self.out_dir), str(self.work / "stdout")],
                capture_output=True, text=True)
            try:
                verdict = json.loads(check.stdout)
            except json.JSONDecodeError:
                verdict = {"problems": [f"checker failed: {check.stderr.strip()[-300:]}"]}
            problems = verdict["problems"]
            if self.reference is not None:
                problems += [f"{k} differs from the seed-0 reference"
                             for k in sorted(set(self.reference) | set(got))
                             if self.reference.get(k) != got.get(k)]
            if problems:
                self.fail(what, problems)
                return run
            self.expected = got
            self.items = verdict["items"]
            self.output_bytes = sum(f.stat().st_size for f in self.out_dir.iterdir())
        elif got != self.expected:
            self.fail(what, [f"{k} differs from the first run's output"
                             for k in sorted(got) if got[k] != self.expected.get(k)])
        return run

    def setup_probe(self) -> float:
        cover = self.args[self.args.index("--cover") + 1]
        run = launch([sys.executable, "-c", SETUP_CODE, cover], self.work)
        self.attempted += 1
        if run.code != 0:
            self.fail("setup", [f"exit {run.code}: {run.stderr.strip()[-300:]}"])
        return run.wall_s

    def single_worker_args(self) -> list[str]:
        args = list(self.args)
        if "--workers" in args:
            args[args.index("--workers") + 1] = "1"
        return args


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    bench.setup_probe()  # warm-up: byte-compiles divlab on a fresh checkout
    if "--workers" in bench.args:
        bench.cli(bench.single_worker_args())  # sets the digests a parallel run must match
    runs: list[Run] = []
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        runs.append(bench.cli(bench.args))
        setup += [bench.setup_probe() for _ in range(PROBES_PER_RUN)]
    items = bench.items
    metrics = {
        "wall_s": (median([r.wall_s for r in runs]), "s"),
        "items_per_s": (median([items / r.wall_s for r in runs]), "1/s"),
        "cpu_s": (median([r.cpu_s for r in runs]), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median([r.rss_mb for r in runs]), "MB"),
    }
    notes = [f"{len(runs)} timed runs, {len(setup)} setup probes; items per run {items}",
             f"failed_share {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4f}"]
    return metrics, notes


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    args = bench.single_worker_args()  # worker processes cannot return spans
    plain: list[float] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(plain) < 2 or time.perf_counter() < deadline:
        plain.append(bench.cli(args).wall_s)
        run = bench.cli(args, traced=True)
        if run.code == 0:
            with open(bench.work / "spans.json", encoding="utf-8") as fh:
                traced.append(spans.layer_metrics(json.load(fh), run.wall_s))
    if not traced:
        return {}, ["no traced run succeeded"]
    metrics = {name: (median([t[name][0] for t in traced]), unit)
               for name, (_, unit) in traced[0].items()}
    metrics["trace.overhead_share"] = (metrics["trace.wall_s"][0] / median(plain) - 1, "share")
    metrics["cli.output_bytes"] = (bench.output_bytes, "bytes")
    notes = [f"{len(traced)} traced and {len(plain)} untraced runs at workers=1",
             f"failed_share {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4f}"]
    return metrics, notes


def environment() -> str:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"reference recorded at commit {ref.get('commit', 'unknown')}")


def record_reference(work: Path) -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    recorded = {}
    for w in W.WORKLOADS.values():
        bench = Bench(w, 0, work, reference=None)
        bench.cli(bench.args)
        if bench.failed:
            print(f"{w.name}: " + "; ".join(bench.problems), file=sys.stderr)
            return 1
        recorded[w.name] = bench.expected
        print(f"{w.name}: recorded")
    REFERENCE.write_text(json.dumps({"commit": commit, "python": platform.python_version(),
                                     "digests": recorded}, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "divlab" / "cli.py").is_file():
        print(f"no divlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            return record_reference(work)
        reference = None
        if args.seed == 0:
            reference = json.loads(REFERENCE.read_text())["digests"][args.workload]
        bench = Bench(W.WORKLOADS[args.workload], args.seed, work, reference)
        print(f"workload {bench.w.name}, seed {args.seed} (t-shift {bench.shift}), "
              f"{args.seconds:g} s, trace {args.trace}")
        print(f"environment: {environment()}")
        print("command: divlab " + " ".join(bench.args))
        print(f"why: {bench.w.why}")
        print(f"loads: {bench.w.loads}")
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for note in notes:
        print(note)
    for problem in bench.problems[:20]:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
