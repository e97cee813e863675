import csv
import hashlib
import importlib
import itertools
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import fresh_cli_run

import divlab.algebra
import divlab.diversity
import divlab.factorization
import divlab.sieve
import divlab.witnesses
from divlab.cli import ConfigError, RunConfig, build_parser, load_config, main, merge_flags
from divlab.sieve import MFElement, build_PF
from divlab.witnesses import LemmaViolation, find_cliques


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


WITNESS_ARGS = (
    "--cover", "u^2 + t^2 + 1", "--x", "10000", "--mode", "override",
    "--k", "1", "--y", "5", "--window-lo", "50", "--window-hi", "100",
    "--tail", "off",
)


@pytest.mark.parametrize("argv, code, layers", [
    (("analyze", "--cover", "u^2 - t"), 0, {"sieve", "factorization"}),
    (("sieve", *WITNESS_ARGS), 0, {"sieve", "factorization"}),
    (("witness", *WITNESS_ARGS), 0, {"sieve", "factorization", "witnesses"}),
    (("verify", "--cover", "u^2 - t"), 0, {"sieve", "factorization", "witnesses"}),
    (("diversity", "--cover", "u^2 - t", "--N", "50"), 0, {"diversity", "sieve", "factorization"}),
    (("diversity", "--cover", "u^2 - t", "--N", "5"), 1, set()),
], ids=["analyze", "sieve", "witness", "verify", "diversity", "config-error"])
def test_a_run_loads_only_the_layers_it_runs(tmp_path, argv, code, layers):
    # in a fresh interpreter, after importing the CLI (divlab, algebra, cli)
    want = {"divlab", "divlab.algebra", "divlab.cli"} | {f"divlab.{layer}" for layer in layers}
    assert fresh_cli_run(*argv, cwd=tmp_path) == (code, want)


class TestConfig:
    def test_key_value_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("cover = u^2 - t\nN = 100   # census size\nworkers = 2\n")
        cfg = load_config(str(p))
        assert cfg.cover == "u^2 - t" and cfg.N == 100 and cfg.workers == 2

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_paper_mode_rejects_override_keys(self):
        cfg = RunConfig(cover="u^2 - t", mode="paper", k=3)
        with pytest.raises(ConfigError):
            cfg.validate("sieve")

    def test_limit_below_x(self):
        cfg = RunConfig(cover="u^2 - t", x=1000.0, limit=100)
        with pytest.raises(ConfigError, match="sieve limit 100 is below x = 1000"):
            cfg.validate("sieve")

    def test_flags_win(self, tmp_path):
        import argparse

        p = tmp_path / "run.cfg"
        p.write_text("cover = u^2 - t\nN = 100\n")
        cfg = load_config(str(p))
        ns = argparse.Namespace(N=500)
        assert merge_flags(cfg, ns).N == 500

    # one valid text per RunConfig field, none of them its default
    SAMPLES = {
        "cover": "u^2 - t", "N": "100", "x": "1e4", "mode": "override",
        "epsilon": "0.25", "delta": "0.5", "k": "2", "y": "5.5",
        "window_lo": "50", "window_hi": "100", "tail": "3/4", "d": "3",
        "limit": "20000", "budget": "500", "workers": "2", "out": "run/",
    }

    def test_every_field_is_a_config_key_and_a_flag(self, tmp_path):
        assert set(self.SAMPLES) == {f.name for f in fields(RunConfig)}
        default = RunConfig()
        for key, text in self.SAMPLES.items():
            p = tmp_path / f"{key}.cfg"
            p.write_text(f"{key} = {text}\n")
            from_file = getattr(load_config(str(p)), key)
            args = build_parser().parse_args(["analyze", "--" + key.replace("_", "-"), text])
            from_flag = getattr(merge_flags(RunConfig(), args), key)
            assert from_file == from_flag != getattr(default, key), key
            assert type(from_file) is type(from_flag)

    def test_tail_values(self, tmp_path):
        for text, value in (("off", None), ("None", None), ("0", None), ("9/10", Fraction(9, 10))):
            p = tmp_path / "run.cfg"
            p.write_text(f"tail = {text}\n")
            assert load_config(str(p)).tail == value

    @pytest.mark.parametrize("config, flag, expected", [
        ("workers = 2", None, 2),
        ("budget = 500", None, 1),
        ("workers = 2", "4", 4),
        (None, "4", 4),
        (None, None, 1),
    ])
    def test_worker_precedence(self, tmp_path, config, flag, expected):
        # flag > config file > 1
        cfg = RunConfig()
        if config is not None:
            p = tmp_path / "run.cfg"
            p.write_text(config + "\n")
            cfg = load_config(str(p))
        argv = ["diversity"] + (["--workers", flag] if flag else [])
        assert merge_flags(cfg, build_parser().parse_args(argv)).workers == expected


class TestConfigErrors:
    """Every malformed parameter exits 1 with a config error, whether it
    comes from a flag or from a config file."""

    COVER = ("--cover", "u^2 + t^2 + 1")
    CASES = [
        ("sieve", "N", "ten", ("--x", "10000")),
        ("diversity", "N", "ten", ()),
        ("sieve", "x", "1e", ()),
        ("sieve", "mode", "bogus", ("--x", "10000")),
        ("sieve", "epsilon", "0.7", ("--x", "10000")),
        ("witness", "epsilon", "0.7", ("--x", "10000")),
        ("analyze", "epsilon", "0.7", ()),
        ("diversity", "delta", "1.5", ("--N", "20")),
        ("analyze", "tail", "2", ()),
        ("analyze", "tail", "1/0", ()),
        ("sieve", "tail", "0.99999", ("--x", "10000")),
        ("sieve", "x", "2", ()),
        ("witness", "x", "2", ()),
        ("diversity", "N", "5", ()),
        ("analyze", "workers", "0", ()),
        ("analyze", "x", "inf", ()),
        ("sieve", "y", "nan", ("--x", "1e4", "--mode", "override", "--k", "1",
                               "--window-lo", "50", "--window-hi", "100")),
        # keys the census never reads
        ("diversity", "x", "1e4", ("--N", "20")),
        ("diversity", "epsilon", "0.1", ("--N", "20")),
        ("diversity", "k", "2", ("--N", "20")),
        ("diversity", "y", "5", ("--N", "20")),
        ("diversity", "window_lo", "50", ("--N", "20")),
        ("diversity", "window_hi", "100", ("--N", "20")),
        ("diversity", "d", "3", ("--N", "20")),
        ("diversity", "limit", "20000", ("--N", "20")),
        ("diversity", "tail", "off", ("--N", "20")),
        ("diversity", "seed", "5", ("--N", "20")),
    ]

    @pytest.mark.parametrize("command, key, text, extra", CASES)
    def test_flag(self, capsys, command, key, text, extra):
        flag = "--" + key.replace("_", "-")
        code, out, err = run(capsys, command, *self.COVER, *extra, flag, text)
        assert code == 1 and err.startswith("config error: ") and out == ""

    @pytest.mark.parametrize("command, key, text, extra", CASES)
    def test_config_line(self, tmp_path, capsys, command, key, text, extra):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {text}\n")
        code, out, err = run(capsys, command, *self.COVER, *extra, "--config", str(p))
        assert code == 1 and err.startswith("config error: ") and out == ""

    def test_messages(self, capsys):
        assert "paper or override" in run(capsys, "analyze", "--mode", "bogus")[2]
        assert "x > e" in run(capsys, "sieve", *self.COVER, "--x", "2")[2]
        assert "epsilon must lie in (0, 0.5]" in run(capsys, "analyze", "--epsilon", "0.7")[2]
        err = run(capsys, "diversity", *self.COVER, "--N", "20", "--k", "2")[2]
        assert "diversity does not read k" in err
        err = run(capsys, "diversity", *self.COVER, "--N", "20", "--tail", "1/2")[2]
        assert "diversity does not read tail" in err
        err = run(capsys, "sieve", *self.COVER, "--x", "1e4", "--tail", "0.9999")[2]
        assert err == "config error: tail exponent needs a denominator of at most 1000, got 9999/10000\n"

    @pytest.mark.parametrize("tail", ["0.999", "1/3", "999/1000"])
    def test_tail_with_three_decimal_places_is_accepted(self, tail):
        RunConfig(cover="u^2 - t", x=1e4, tail=Fraction(tail)).validate("sieve")

    def test_unknown_config_key(self, tmp_path, capsys):
        # a RunConfig method is not a key
        p = tmp_path / "run.cfg"
        p.write_text("validate = 1\n")
        code, _, err = run(capsys, "analyze", *self.COVER, "--config", str(p))
        assert code == 1 and "unknown key 'validate'" in err

    @pytest.mark.parametrize("argv", [
        ("analyze", "--frobnicate", "1"),
        ("analyze", "--N"),
        ("frobnicate",),
        (),
        ("analyze", "--cover", "u^2 - t", "--work", "3"),  # flags are never abbreviated
        ("analyze", "--cov", "u^2 - t"),
        ("verify", "--cover", "u^2 - t", "--seed", "0"),  # verify draws no random polynomials
    ])
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("config error: ")


class TestReadKeys:
    """A run accepts only the keys its subcommand (and, for sieve and
    witness, its mode) reads; every other key must keep its default."""

    COVER = ("--cover", "u^2 + t^2 + 1")
    OVERRIDE = ("--x", "10000", "--mode", "override", "--k", "1", "--y", "5",
                "--window-lo", "50", "--window-hi", "100", "--tail", "off")

    @pytest.mark.parametrize("command, extra, key, text, what", [
        ("sieve", OVERRIDE, "epsilon", "0.1", "sieve (mode = override)"),
        ("sieve", OVERRIDE, "delta", "0.5", "sieve (mode = override)"),
        ("sieve", OVERRIDE, "d", "3", "sieve (mode = override)"),
        ("witness", OVERRIDE, "epsilon", "0.1", "witness (mode = override)"),
        ("witness", OVERRIDE, "delta", "0.5", "witness (mode = override)"),
        ("analyze", (), "out", "OUT", "analyze"),
        ("analyze", (), "mode", "override", "analyze"),
        ("verify", (), "N", "100", "verify"),
        ("verify", (), "out", "OUT", "verify"),
        ("sieve", OVERRIDE, "budget", "500", "sieve (mode = override)"),
        ("sieve", OVERRIDE, "workers", "2", "sieve (mode = override)"),
        ("witness", OVERRIDE, "limit", "20000", "witness (mode = override)"),
        # the census has no modes, analyze reads x only as a default
        # limit, and verify always sieves to 10^4
        ("diversity", ("--N", "20"), "mode", "override", "diversity"),
        ("analyze", (), "x", "5000", "analyze"),
        ("verify", (), "limit", "20000", "verify"),
        # the large-prime-divisor count needs no rho, so no rho budget
        ("verify", (), "budget", "5", "verify"),
    ])
    def test_unread_key_is_config_error(self, tmp_path, capsys, command, extra, key, text, what):
        text = str(tmp_path) if text == "OUT" else text
        out = ("--out", str(tmp_path)) if command in ("sieve", "witness") else ()
        argv = (command, *self.COVER, *extra, *out, "--" + key.replace("_", "-"), text)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"config error: {what} does not read {key}; leave it unset\n"
        assert list(tmp_path.iterdir()) == []

    def test_paper_sieve_with_epsilon_does_not_read_d(self, tmp_path, capsys):
        paper = (*self.COVER, "--x", "1000000", "--tail", "off", "--out", str(tmp_path))
        code, out, err = run(capsys, "sieve", *paper, "--epsilon", "0.5", "--d", "2")
        assert (code, out) == (1, "")
        assert err == (
            "config error: sieve (mode = paper) does not read d when epsilon is set; "
            "leave it unset\n"
        )
        assert list(tmp_path.iterdir()) == []
        # d sets the default epsilon, and witness reads it for its ratio line
        code, _, err = run(capsys, "sieve", *paper, "--d", "2")
        assert code == 0 and err.startswith("warning: special squarefree set is empty ")
        assert run(capsys, "witness", *paper, "--epsilon", "0.5", "--d", "2")[0] == 0

    def test_override_witness_reads_d(self, tmp_path, capsys):
        code, out, _ = run(capsys, "witness", *self.COVER, *self.OVERRIDE, "--d", "3",
                           "--out", str(tmp_path))
        assert code == 0 and "|M_F|/(12d) = 0.056 " in out

    def test_workers_from_the_environment_is_not_set(self, capsys, monkeypatch):
        # no environment variable sets or breaks a key
        monkeypatch.setenv("DIVLAB_WORKERS", "two")
        assert run(capsys, "analyze", *self.COVER)[0] == 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_benchmark_workloads_pass_validation(self, tmp_path, monkeypatch, seed):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        for w in workloads.WORKLOADS.values():
            argv = workloads.cli_args(w, seed) + ["--out", str(tmp_path)]
            merge_flags(RunConfig(), build_parser().parse_args(argv)).validate(w.command)

    # verify reads no limit, but range checks come before that rule
    @pytest.mark.parametrize("command, limit", [
        ("analyze", "1"), ("analyze", "100"), ("analyze", "540"),
        ("verify", "1"), ("sieve", "1"), ("witness", "1"),
    ])
    def test_limit_too_small_is_config_error(self, capsys, command, limit):
        code, out, err = run(capsys, command, *self.COVER, "--limit", limit)
        assert (code, out) == (1, "") and err.startswith("config error: limit must be at least ")

    def test_analyze_limit_at_the_100th_prime(self, capsys):
        code, out, _ = run(capsys, "analyze", *self.COVER, "--limit", "541")
        assert code == 0 and "of 100 primes up to 541" in out


class TestAnalyze:
    @pytest.mark.parametrize("argv, stdout", [
        (("--cover", "u^2 - t"),
         "F = T\nd = 1\ndisc(F) = 1\n|P_F| = 1229 of 1229 primes up to 10000\n"
         "delta_hat = 1.000000 (1)\n"
         "density floor 1/d = 1.000000 (slack 0.05): pass (margin +0.050000)\n"),
        (("--cover", "u^2 + t^2 + 1"),
         "F = T^2 + 1\nd = 2\ndisc(F) = -4\n|P_F| = 609 of 1229 primes up to 10000\n"
         "delta_hat = 0.495525 (609/1229)\n"
         "density floor 1/d = 0.500000 (slack 0.05): pass (margin +0.045525)\n"),
        (("--cover", "u^2 + t^2 + 1", "--d", "1"),
         "F = T^2 + 1\nd = 1\ndisc(F) = -4\n|P_F| = 609 of 1229 primes up to 10000\n"
         "delta_hat = 0.495525 (609/1229)\n"
         "density floor 1/d = 1.000000 (slack 0.05): FAIL (margin -0.454475)\n"),
    ], ids=["identity", "gaussian", "gaussian-d1"])
    def test_stdout_is_pinned(self, capsys, argv, stdout):
        assert run(capsys, "analyze", *argv) == (0, stdout, "")

    def test_simple_cover(self, capsys):
        code, out, _ = run(capsys, "analyze", "--cover", "u^2 - t")
        assert code == 0
        assert "F = T" in out and "d = 1" in out
        assert "delta_hat = 1.000000" in out

    def test_prints_the_d_it_checks(self, capsys):
        code, out, _ = run(capsys, "analyze", "--cover", "u^2 - t", "--d", "2")
        assert code == 0
        assert "d = 2\n" in out and "density floor 1/d = 0.500000" in out

    def test_cubic_base(self, capsys):
        code, out, _ = run(capsys, "analyze", "--cover", "u^2 - t^3 + 3*t^2 - 2*t")
        assert code == 0
        assert "d = 3" in out

    def test_parse_error_is_config_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--cover", "u^% - t")
        assert code == 1 and "parse" in err

    def test_degenerate_cover(self, capsys):
        code, _, err = run(capsys, "analyze", "--cover", "u^2 - 1")
        assert code == 2


class TestWitnessCommand:
    def test_override_example(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "witness", *WITNESS_ARGS, "--out", str(tmp_path)
        )
        assert code == 0
        rows = read_csv(tmp_path / "witnesses.csv")
        assert rows[0] == ["m", "factorization", "n_m", "shift_l", "greedy"]
        assert rows[1:] == [
            ["65", "5*13", "8", "0", "greedy"],
            ["85", "5*17", "13", "0", "greedy"],
        ]

    def test_outputs_are_pinned_and_cliques_are_find_cliques_rows(self, tmp_path, capsys):
        args = (
            "--cover", "u^2 + t^2 + 1", "--x", "60000", "--mode", "override",
            "--k", "2", "--y", "5", "--window-lo", "3000", "--window-hi", "15000",
            "--tail", "off",
        )
        code, out, _ = run(capsys, "witness", *args, "--out", str(tmp_path / "w"))
        assert code == 0 and "cliques = 61 " in out

        def sha256(name):
            return hashlib.sha256((tmp_path / "w" / name).read_bytes()).hexdigest()

        assert sha256("cliques.csv") == (
            "193e1bae19adb95f57bf848e680bead582813b73b7850861e63da85322083007"
        )
        assert sha256("witnesses.csv") == (
            "09437137821592e4b36a228c772be253093ba81daab53ef2b644cf4c24d9f8d1"
        )
        assert run(capsys, "sieve", *args, "--out", str(tmp_path / "s"))[0] == 0
        mf = [
            MFElement(int(m), tuple(int(p) for p in fact.split("*")))
            for m, fact, _, _ in read_csv(tmp_path / "s" / "mf.csv")[1:]
        ]
        header, body = (tmp_path / "w" / "cliques.csv").read_bytes().decode().split("\n", 1)
        assert header == "P,m1,m2,m3,type"
        assert body == "".join(find_cliques(mf))
        # an oracle of its own, read off mf.csv's P and m1 columns
        by_P = {}
        for _, _, P, m1 in read_csv(tmp_path / "s" / "mf.csv")[1:]:
            by_P.setdefault(int(P), set()).add(int(m1))
        want = []
        for P in sorted(by_P):
            for a, b, c in itertools.combinations(sorted(by_P[P]), 3):
                equal = math.lcm(a, b) == math.lcm(a, c) == math.lcm(b, c)
                want.append([str(P), str(a), str(b), str(c), "equal-lcm" if equal else "proper-lcm"])
        rows = read_csv(tmp_path / "w" / "cliques.csv")[1:]
        assert rows == want
        assert [row[4] for row in rows].count("equal-lcm") == 2
        assert [row[4] for row in rows].count("proper-lcm") == 59

    def test_memory_is_bounded_by_a_P_group_not_by_the_file(self, tmp_path, capsys):
        # every layer is imported above, so the trace sees only the run;
        # cliques.csv has 42,297 rows (1.11 MB), written one P at a time
        argv = [
            "witness", "--cover", "u^2 + t^2 + 1", "--x", "800000", "--mode", "override",
            "--k", "2", "--y", "5", "--window-lo", "40000", "--window-hi", "200000",
            "--tail", "off", "--out", str(tmp_path),
        ]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "cliques = 42297 " in capsys.readouterr().out
        assert peak < 2 * (tmp_path / "cliques.csv").stat().st_size

    @pytest.mark.parametrize("command, args, limits", [
        # M_F(x) reaches no prime above 15000 // 5^2 = 600
        ("witness", ("--x", "60000", "--mode", "override", "--k", "2", "--y", "5",
                     "--window-lo", "3000", "--window-hi", "15000", "--tail", "off"), [600]),
        ("sieve", ("--x", "60000", "--mode", "override", "--k", "2", "--y", "5",
                   "--window-lo", "3000", "--window-hi", "15000", "--tail", "off"), [600]),
        # paper mode: prime_bound = 40926 // 30 = 1364 (k = 1, y = 29.76)
        ("witness", ("--x", "100000", "--delta", "0.5", "--epsilon", "0.5", "--tail", "off"), [1364]),
        # paper mode without delta, where delta = 1 gives k = 2, reads
        # delta_hat off P_F up to limit (and delta_hat = 1/2 gives k = 1)
        ("witness", ("--x", "100000", "--epsilon", "0.5", "--tail", "off"), [100000]),
        # paper mode without delta, where delta = 1 gives k = 1, so every
        # delta does: no delta_hat sieve; prime_bound = 518 // 14 = 37
        ("witness", ("--x", "1000", "--epsilon", "0.5", "--tail", "off"), [37]),
    ])
    def test_sieves_P_F_only_as_far_as_it_is_read(self, tmp_path, capsys, monkeypatch,
                                                   command, args, limits):
        calls = []

        def counting_build_PF(F, limit):
            calls.append(limit)
            return build_PF(F, limit)

        monkeypatch.setattr(divlab.sieve, "build_PF", counting_build_PF)
        code, out, _ = run(capsys, command, "--cover", "u^2 + t^2 + 1", *args,
                           "--out", str(tmp_path))
        assert code == 0 and "|M_F(x)| = 0 " not in out
        assert calls == limits

    def test_paper_mode_with_the_default_epsilon_reads_no_delta_hat(self, tmp_path, capsys, monkeypatch):
        # eps*kappa < 1 gives k = 1 whatever delta is; prime_bound is
        # 3597197 // 9753216 = 0, so P_F is sieved only to 2, not to x
        calls = []

        def counting_build_PF(F, limit):
            calls.append(limit)
            return build_PF(F, limit)

        monkeypatch.setattr(divlab.sieve, "build_PF", counting_build_PF)
        code, out, err = run(capsys, "sieve", "--cover", "u^3 - t*u - t", "--x", "1e7",
                             "--out", str(tmp_path))
        assert code == 0 and calls == [2]
        assert "k+1 = 2, y = 9.68226e+06, " in out and "|M_F(x)| = 0 " in out
        assert err.startswith("warning: special squarefree set is empty ")

    def test_lemma_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise LemmaViolation("no valid shift for m = 65")

        monkeypatch.setattr(divlab.witnesses, "witnesses_for_MF", violated)
        code, _, err = run(capsys, "witness", *WITNESS_ARGS, "--out", str(tmp_path))
        assert code == 3
        assert err == "invariant violation: no valid shift for m = 65\n"

    def test_failed_lemma_hypothesis_exits_2(self, tmp_path, capsys):
        # y <= k + 1 admits m = 42 = 2*3*7, where p_min(m) > omega(m) fails
        code, _, err = run(
            capsys, "witness", "--cover", "u^2 - t^3 - 3*t^2 + 5*t + 8", "--x", "1000",
            "--mode", "override", "--k", "2", "--y", "2", "--window-lo", "40",
            "--window-hi", "50", "--tail", "off", "--out", str(tmp_path),
        )
        assert code == 2
        assert err == "degenerate input: no shift found for m = 42: p_min(m) = 2 <= omega(m) = 3\n"

    def test_witness_is_the_least_root_past_ten_thousand_combinations(self, tmp_path, capsys):
        # F = T^8 - 512 has eight roots mod each prime of m: 32,768
        # combinations, of which the first gives 79,893,833,914
        code, _, _ = run(
            capsys, "witness", "--cover", "2*u^4 - t^2*u + 3", "--x", "1e12",
            "--mode", "override", "--k", "4", "--y", "70", "--window-lo", "131108790000",
            "--window-hi", "131108791000", "--tail", "off", "--out", str(tmp_path),
        )
        assert code == 0
        assert read_csv(tmp_path / "witnesses.csv")[1:] == [
            ["131108790809", "73*89*233*257*337", "7425842", "0", "greedy"],
        ]

    def test_window_past_x_over_k_plus_two_is_config_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "witness", "--cover", "u^2 + t^2 + 1", "--x", "1e6",
            "--mode", "override", "--k", "2", "--y", "5", "--window-lo", "75000",
            "--window-hi", "1e6", "--tail", "off", "--out", str(tmp_path),
        )
        assert code == 1
        assert "window_hi*(k+2)" in err and "x = 1e+06" in err
        assert not (tmp_path / "witnesses.csv").exists()

    def test_empty_paper_mode_warns_but_succeeds(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "witness", "--cover", "u^2 + t^2 + 1", "--x", "1000000",
            "--mode", "paper", "--out", str(tmp_path),
        )
        assert code == 0
        assert err.startswith("warning: special squarefree set is empty ") and err.count("\n") == 1
        assert read_csv(tmp_path / "witnesses.csv") == [
            ["m", "factorization", "n_m", "shift_l", "greedy"]
        ]

    def test_empty_set_writes_only_the_cliques_header(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "witness", "--cover", "u^2 + t^2 + 1", "--x", "10000",
            "--tail", "off", "--out", str(tmp_path),
        )
        assert code == 0 and err.startswith("warning: special squarefree set is empty ")
        assert (tmp_path / "cliques.csv").read_bytes() == b"P,m1,m2,m3,type\n"
        assert out.endswith(f"cliques = 0 -> {tmp_path / 'cliques.csv'}\n")


class TestSieveCommand:
    def test_mf_csv(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "sieve", "--cover", "u^2 + t^2 + 1", "--x", "10000",
            "--mode", "override", "--k", "1", "--y", "5",
            "--window-lo", "50", "--window-hi", "100", "--tail", "off",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = read_csv(tmp_path / "mf.csv")
        assert rows[0] == ["m", "factorization", "P", "m1"]
        assert [r[0] for r in rows[1:]] == ["65", "85"]

    def test_cubic_sieve_output_is_pinned(self, tmp_path, capsys):
        # F = T^3 - T - 1: every prime of P_F passes the cubic root test
        code, out, _ = run(
            capsys, "sieve", "--cover", "u^2 - t^3 + t + 1", "--x", "30000",
            "--mode", "override", "--k", "2", "--y", "5", "--window-lo", "3000",
            "--window-hi", "7500", "--tail", "off", "--out", str(tmp_path),
        )
        assert code == 0 and "|M_F(x)| = 61 " in out
        assert hashlib.sha256(out.replace(str(tmp_path), "<out>").encode()).hexdigest() == (
            "1706738a7dd9076dd57188e219af0231e936871b323a139b805249dd3dc85c6e"
        )
        assert hashlib.sha256((tmp_path / "mf.csv").read_bytes()).hexdigest() == (
            "22e63978920488068fbafe850e9b6d64688a15f0486af5b5bbb9c86315fa723c"
        )

    def test_library_warning_is_one_stderr_line(self, tmp_path, capsys):
        # no source path or line: stderr is the same wherever divlab is installed
        code, out, err = run(
            capsys, "sieve", "--cover", "u^2 + t^2 + 1", "--x", "10000", "--tail", "off",
            "--out", str(tmp_path),
        )
        assert code == 0 and "|M_F(x)| = 0 " in out
        assert err == (
            "warning: special squarefree set is empty for these parameters "
            "(mode=paper, k=1, y=9854, window=[2252, 4504], tail=None)\n"
        )

    def test_huge_k_returns_at_once(self, tmp_path, capsys):
        # prime_bound is 0 without computing 5^(10^9)
        code, out, err = run(
            capsys, "sieve", "--cover", "u^2 + t^2 + 1", "--x", "10000",
            "--mode", "override", "--k", "1000000000", "--y", "5",
            "--window-lo", "50", "--window-hi", "2000", "--tail", "off",
            "--out", str(tmp_path),
        )
        assert code == 0 and "|M_F(x)| = 0 " in out
        assert err.startswith("warning: special squarefree set is empty ")

    def test_window_past_x_over_k_plus_two_is_accepted(self, tmp_path, capsys):
        # the witness bound n_m <= m*(k+2) does not constrain the sieve
        code, _, _ = run(
            capsys, "sieve", "--cover", "u^2 + t^2 + 1", "--x", "1e6",
            "--mode", "override", "--k", "2", "--y", "5", "--window-lo", "75000",
            "--window-hi", "1e6", "--tail", "off", "--out", str(tmp_path),
        )
        assert code == 0
        assert len(read_csv(tmp_path / "mf.csv")) > 1

    def test_paper_mode_honours_tail_off(self, tmp_path, capsys):
        # from a flag and from a config file alike
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail = off\n")
        args = ("sieve", "--cover", "u^2 + t^2 + 1", "--x", "1000000", "--epsilon", "0.5")
        for extra in (("--tail", "off"), ("--config", str(cfg))):
            code, out, _ = run(capsys, *args, *extra, "--out", str(tmp_path))
            assert code == 0
            assert "tail = None" in out and "|M_F(x)| = 2659 " in out


class TestDiversityCommand:
    def test_summary_block(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "diversity", "--cover", "u^2 - t", "--N", "100",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "reducible_count = 10" in out
        assert "distinct_lower_bound = 60" in out
        rows = read_csv(tmp_path / "census.csv")
        assert rows[0] == ["n", "fiber_degree", "irreducible", "fingerprint", "new_field"]
        assert len(rows) == 101

    def test_small_N_rejected(self, capsys):
        code, _, err = run(capsys, "diversity", "--cover", "u^2 - t", "--N", "5")
        assert code == 1

    def test_byte_identical_across_workers(self, tmp_path, capsys):
        for workers, sub in (("1", "a"), ("4", "b")):
            code, _, _ = run(
                capsys, "diversity", "--cover", "u^2 - t", "--N", "500",
                "--workers", workers, "--out", str(tmp_path / sub),
            )
            assert code == 0
        a = (tmp_path / "a" / "census.csv").read_bytes()
        b = (tmp_path / "b" / "census.csv").read_bytes()
        assert a == b
        assert b"\r" not in a  # LF line endings

    # sha256 of census.csv and of stdout with the output directory masked:
    # the first two recorded before fiber discriminants were read off
    # disc_u(g), the last three before residue tables decided irreducibility
    PINNED = [
        ("u^3 - t*u - t", "2000",
         "358893798b5bc2244f56aa88f2345ff1d3c8028e68f9f3aa9cda3328f401d59f",
         "fba0f8bcbe1ca706900f0bf51bbaf4415b93e8425b90698a5f52e4b9b86329ac"),
        ("2*u^4 - t^2*u + 3", "200",
         "1caf98bd98e278148d143787f484595b48f75478e1ccbef3440dfd701146bc45",
         "5e5ce692fae7413aa2f8fa902ee3bf67acc9f53acc8284d7f8dda6253e9d8fe3"),
        ("u^3 - t", "1000",
         "911cceaf7d4970f963ea47232ff5624d162df6b831e8654ac933fa51c884faf1",
         "54d64296e509afa6eac4a1c65a4de3fb41939f365a9004cfa778fce56c8cbdd9"),
        ("u^4 - t*u - t", "1000",
         "e69518348e3010ae12decf7a228a26d12bff7b47f7eff8f2157046fa53bdc02b",
         "e18a348f9f0847f1e6d74377382253d3f8c90d1fd906ba06d1681b2d8483e02f"),
        ("t*u^3 - u - 1", "500",
         "3c71e947e641b1366f46ff8b85816f6a46fc161692669e0b5860f2300d294b69",
         "fa45c8f922278ce7305d1442a9cccf3e2bc0c02c139dab1d063f44a2ee146aa1"),
    ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("cover, N, csv_digest, out_digest", PINNED)
    def test_census_outputs_are_pinned(self, tmp_path, capsys, workers, cover, N, csv_digest, out_digest):
        code, out, _ = run(
            capsys, "diversity", "--cover", cover, "--N", N,
            "--workers", workers, "--out", str(tmp_path),
        )
        assert code == 0
        assert hashlib.sha256((tmp_path / "census.csv").read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(out.replace(str(tmp_path), "<out>").encode()).hexdigest() == out_digest

    def test_an_unsplit_content_leaves_every_fingerprint_incomplete(self, tmp_path, capsys):
        # D = 4 * 1000003 * 1000033 * t, and a rho budget of 1 cannot split
        # the content: every fingerprint is partial.  census.csv as
        # recorded when each fiber's whole discriminant was factored
        code, _, _ = run(capsys, "diversity", "--cover", "u^2 - 1000003*1000033*t", "--N", "30",
                         "--budget", "1", "--out", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "census.csv")
        assert rows[2] == ["2", "2", "true", "2?", "true"]
        assert all(row[3].endswith("?") for row in rows[1:])
        assert hashlib.sha256((tmp_path / "census.csv").read_bytes()).hexdigest() == (
            "4a6a27e60705b4f6a25b6b59cb1e2af1aa0c66fd48ae7bca6a17d4cbd6b92d79")

    @pytest.mark.parametrize("cover, message", [
        ("u^2 - 2*t*u + t^2", "cover is not squarefree in u over Q(t)"),
        ("u^2 - 2", "family has no finite critical value in this model"),
    ])
    def test_degenerate_cover_stops_before_the_first_fiber(self, tmp_path, capsys, monkeypatch, cover, message):
        specialized = []
        fiber_poly = divlab.diversity.fiber_poly

        def counted(cover, n):
            specialized.append(n)
            return fiber_poly(cover, n)

        monkeypatch.setattr(divlab.diversity, "fiber_poly", counted)
        code, out, err = run(capsys, "diversity", "--cover", cover, "--N", "20000", "--out", str(tmp_path))
        assert (code, out, err) == (2, "", f"degenerate input: {message}\n")
        assert specialized == [] and not (tmp_path / "census.csv").exists()

    def test_config_file_drive(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"cover = u^2 - t\nN = 50\nout = {tmp_path / 'run_out'}\n"
        )
        code, out, _ = run(capsys, "diversity", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "run_out" / "census.csv").exists()


class TestVerifyCommand:
    def test_quadratic_family(self, capsys, monkeypatch):
        limits = []

        def counting_build_PF(F, limit):
            limits.append(limit)
            return build_PF(F, limit)

        monkeypatch.setattr(divlab.sieve, "build_PF", counting_build_PF)
        code, out, _ = run(capsys, "verify", "--cover", "u^2 - t")
        assert code == 0
        # every line checks the cover it names
        assert out == (
            "exact-division after shift by p (first 50 primes): 0 violations: pass\n"
            "small witness per prime: 1229 primes, 0 failures: pass\n"
            "large-prime-divisor count (n in [100, 2000]): 0 above-threshold, 0 allowed by size, "
            "0 indeterminate: pass\n"
            "witness re-check: 200 witnesses, 0 failures: pass\n"
            "all suites passed\n"
        )
        assert limits == [10_000]  # one P_F serves every suite at the default limit

    def test_property_E_violation_is_a_hard_failure(self, capsys, monkeypatch):
        verify_property_E = divlab.witnesses.verify_property_E

        def with_violation(F, n_lo, n_hi):
            rep = verify_property_E(F, n_lo, n_hi)
            assert rep.violations == ()
            return replace(rep, violations=((n_lo, F.degree + 1),))

        monkeypatch.setattr(divlab.witnesses, "verify_property_E", with_violation)
        code, out, _ = run(capsys, "verify", "--cover", "u^2 - t")
        assert code == 3
        assert "1 above-threshold, 0 allowed by size, 0 indeterminate: FAIL" in out
        assert "1 hard failure(s)" in out

    def test_counts_the_size_allows_pass(self, capsys):
        # F = 27T^2 + 256T: F(269) = 269 * 73 * 103 has three primes
        # >= 269/4 against d = 2, which |F(269)| >= (269/4)^3 allows
        code, out, _ = run(capsys, "verify", "--cover", "u^4 - t*u - t")
        assert code == 0
        assert ("large-prime-divisor count (n in [100, 2000]): 0 above-threshold, "
                "1 allowed by size, 0 indeterminate: pass\n") in out

    def test_cubic_family(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--cover", "u^2 - t^3 + 3*t^2 - 2*t"
        )
        assert code == 0

    def test_large_degree_covers_leave_no_n_open(self, capsys):
        # F has degree 8: trial division and the size bound settle every n
        code, out, _ = run(capsys, "verify", "--cover", "2*u^4 - t^2*u + 3")
        assert code == 0
        assert ("large-prime-divisor count (n in [100, 2000]): 0 above-threshold, "
                "0 allowed by size, 0 indeterminate: pass\n") in out

    def test_verify_never_runs_rho(self, capsys, monkeypatch):
        def no_rho(n, effort):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(divlab.factorization, "_brent_rho", no_rho)
        # F = T^8 - 512 is the critical polynomial of 2*u^4 - t^2*u + 3
        rep = divlab.witnesses.verify_property_E(divlab.algebra.IntPoly.of([-512] + [0] * 7 + [1]), 100, 150)
        assert (rep.violations, rep.exceptions, rep.indeterminate) == ((), (), ())
        code, out, _ = run(capsys, "verify", "--cover", "u^3 - t^2*u - t^5 - 1")
        assert code == 0
        assert "0 above-threshold, 0 allowed by size, 0 indeterminate: pass\n" in out


def count_calls(monkeypatch, owner, name):
    """Calls to owner.name through every other divlab layer's binding of
    it; the owner's own calls are not counted."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for layer in ("algebra", "factorization", "sieve", "witnesses", "diversity", "cli"):
        module = importlib.import_module(f"divlab.{layer}")
        if module is not owner and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ("witness", *WITNESS_ARGS),
    ("verify", "--cover", "u^3 - t*u - t"),
])
def test_one_discriminant_and_no_prime_proof_per_run(tmp_path, capsys, monkeypatch, argv):
    # the sieve computes disc(F) and proves P_F; the witnesses and every
    # check take both from it
    discriminants = count_calls(monkeypatch, divlab.algebra, "poly_discriminant")
    primality = count_calls(monkeypatch, divlab.factorization, "is_prime")
    out_dir = ("--out", str(tmp_path)) if argv[0] == "witness" else ()
    code, out, _ = run(capsys, *argv, *out_dir)
    assert code == 0 and "|M_F(x)| = 0 " not in out
    assert (len(discriminants), len(primality)) == (1, 0)
