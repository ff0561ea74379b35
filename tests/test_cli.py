import importlib
import json
import math
import re

import pytest

from spherecodes import cli, kernels


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_csv_contract(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--kind", "shannon", "--x-min", "-5", "--x-max", "0",
        "--samples", "6",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,rho,rate,curve"
    assert len(lines) == 7
    last = lines[-1].split(",")
    assert float(last[0]) == 0.0
    assert float(last[1]) == 1.0
    assert float(last[2]) == pytest.approx(0.20751874963942196)
    assert last[3] == "shannon"


def test_bounds_rho_blank_below_underflow(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--kind", "lattice", "--x-min", "-800", "--x-max", "-600",
        "--samples", "3",
    )
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert rows[0][1] == ""  # x = -800: rho not materialized
    assert rows[2][1] != ""


def test_bounds_numbers_roundtrip(capsys):
    _, out, _ = run_cli(
        capsys, "bounds", "--kind", "shannon", "--x-min", "-3", "--x-max", "-1",
        "--samples", "5",
    )
    from spherecodes import bounds

    for line in out.strip().split("\n")[1:]:
        x_s, rho_s, rate_s, _ = line.split(",")
        x = float(x_s)
        assert abs(float(rho_s) - math.exp(x)) <= 1e-12 * math.exp(x)
        assert abs(float(rate_s) - bounds.shannon_rate(x=x)) <= 1e-12


def test_bounds_byte_determinism(tmp_path, monkeypatch):
    args = [
        "bounds", "--kind", "tvz_line", "--p", "7", "--t", "2",
        "--x-min", "-10", "--x-max", "-1", "--samples", "37",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bounds_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--kind", "envelope", "--c", "-10", "--x-min", "-720",
        "--x-max", "-600", "--samples", "2", "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert rows[0]["curve"] == "envelope"
    assert rows[0]["rho"] is None  # below the underflow abscissa
    assert rows[1]["rho"] > 0


def test_bounds_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--kind", "gilbert_yaglom", "--x-min", "-2", "--x-max", "-1",
    )
    assert code == 2
    assert "needs the parameter 'q'" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--kind", "bogus", "--x-min", "0", "--x-max", "1"])
    assert exc.value.code == 2


def test_bounds_gilbert_yaglom_far_below_rho_1e_30(capsys):
    # lambda = a rho drops below 1e-30 at x = -100, below the saddle root
    # finder's starting bracket
    code, out, _ = run_cli(
        capsys, "bounds", "--kind", "gilbert_yaglom", "--q", "7", "--x-min", "-100",
        "--x-max", "-1", "--samples", "3",
    )
    assert code == 0
    rates = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
    assert len(rates) == 3
    assert all(0.0 < r <= math.log2(7) for r in rates)


def test_bounds_gilbert_yaglom_reaches_rho_1_for_odd_q(capsys):
    # lambda = a at x = 0 is the largest coordinate weight of Z_7: rate 0
    code, out, err = run_cli(
        capsys, "bounds", "--kind", "gilbert_yaglom", "--q", "7", "--x-min", "-5",
        "--x-max", "0",
    )
    assert code == 0, err
    last = out.strip().split("\n")[-1].split(",")
    assert float(last[0]) == 0.0 and float(last[2]) == 0.0


@pytest.mark.parametrize("x_min", ["-720", "-10000"])
def test_bounds_gilbert_yaglom_below_the_smallest_normal_lambda(capsys, x_min):
    # lambda = a e^x is subnormal below x = -708 and 0.0 below about -745
    code, out, err = run_cli(
        capsys, "bounds", "--kind", "gilbert_yaglom", "--q", "7", "--x-min", x_min,
        "--x-max", "-1", "--samples", "3",
    )
    assert code == 0, err
    rates = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
    assert len(rates) == 3
    assert rates[0] == rates[1] == math.log2(7)
    assert 0.0 < rates[2] < math.log2(7)


def test_region_grid(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--lambda", "0.98", "--x-min", "-1000", "--x-max", "-600",
        "--x-steps", "30", "--y-min", "290", "--y-max", "500", "--y-steps", "30",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,residual,feasible"
    assert len(lines) == 1 + 30 * 30
    feas = [line for line in lines[1:] if line.endswith(",1")]
    assert feas  # nonempty feasible set
    code2, _, err = run_cli(capsys, "region", "--x-min", "2", "--x-max", "3")
    assert code2 == 2


def test_build_gilbert(capsys):
    code, out, _ = run_cli(capsys, "build", "--gilbert", "--q", "3", "--n", "4", "--d", "3")
    assert code == 0
    assert "|C|=9" in out
    assert "size bound 3" in out
    code, out, _ = run_cli(capsys, "build", "--gilbert", "--q", "2", "--n", "3", "--d", "1")
    assert "|C|=8" in out
    # a set of any size gets the exhaustive distance check
    code, out, _ = run_cli(capsys, "build", "--gilbert", "--q", "3", "--n", "9", "--d", "2")
    assert "|C|=4921" in out
    assert "measured min distance 2 (exhaustive)" in out
    code, out, _ = run_cli(capsys, "build", "--gilbert", "--q", "2", "--n", "1", "--d", "2")
    assert "|C|=1" in out and "measured min distance undefined (one word)" in out


def test_build_concatenated(capsys, tmp_path):
    out_file = tmp_path / "points.csv"
    code, out, _ = run_cli(
        capsys, "build", "--inner", "bch", "--p", "7", "--t", "2", "--outer", "rs",
        "--n-out", "8", "--k-out", "4", "--sample-pairs", "2000",
        "--output", str(out_file),
    )
    assert code == 0
    assert "n=48" in out and "7^16" in out
    assert "floor 20" in out
    rows = out_file.read_text().strip().split("\n")
    assert len(rows[1].split(",")) == 49
    norm = math.fsum(float(v) ** 2 for v in rows[1].split(","))
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_build_bare_bch(capsys):
    code, out, _ = run_cli(capsys, "build", "--inner", "bch", "--p", "5", "--t", "2")
    assert code == 0
    assert "BCH[4,2]" in out and "floor 4" in out


def test_build_concatenated_over_prime_field(capsys):
    # inner dimension k = 1, so the outer RS code lives over GF(5^1)
    code, out, _ = run_cli(
        capsys, "build", "--inner", "bch", "--p", "5", "--t", "3", "--outer", "rs",
        "--n-out", "4", "--k-out", "2",
    )
    assert code == 0
    assert "RS[4,2] over GF(5^1) . BCH[4,1]: n=16 |C|=5^2" in out
    assert "guaranteed floor 18; measured min distance 30 (exhaustive)" in out


def test_build_concatenated_over_gf_13_10(capsys):
    # GF(13^10) holds 137,858,491,849 elements, past any table of them
    code, out, err = run_cli(
        capsys, "build", "--inner", "bch", "--p", "13", "--t", "2", "--outer", "rs",
        "--n-out", "16", "--k-out", "8",
    )
    assert code == 0
    assert err == ""
    assert "RS[16,8] over GF(13^10) . BCH[12,10]: n=192 |C|=13^80" in out
    assert "guaranteed floor 36; measured min distance 2019 (sampled (100000 pairs))" in out


def test_build_refuses_a_field_past_int64(capsys):
    # GF(31^27) has more than 2^63 elements: the generator builds, the sample
    # cannot draw integer-encoded symbols
    code, out, err = run_cli(
        capsys, "build", "--inner", "bch", "--p", "31", "--t", "3", "--outer", "rs",
        "--n-out", "64", "--k-out", "16",
    )
    assert code == 2
    assert out == ""
    assert ">= 2^63 elements" in err


README_CONCAT = "build --inner bch --p 7 --t 2 --outer rs --n-out 8 --k-out 4".split()


@pytest.mark.parametrize("pairs", ["0", "-5"])
def test_build_sample_pairs_must_be_positive(capsys, pairs):
    with pytest.raises(SystemExit) as exc:
        cli.main([*README_CONCAT, "--sample-pairs", pairs])
    assert exc.value.code == 2
    assert "--sample-pairs: must be >= 1" in capsys.readouterr().err


def test_build_samples_a_single_pair(capsys):
    code, out, _ = run_cli(capsys, *README_CONCAT, "--sample-pairs", "1")
    assert code == 0
    assert "guaranteed floor 20; measured min distance 213 (sampled (1 pairs))" in out


def test_build_sampled_rho_meets_its_floor(capsys):
    # 1000 messages drawn from 343^2 repeat some; a repeat used to put rho at 0.0
    code, out, _ = run_cli(
        capsys, "build", "--inner", "bch", "--p", "7", "--t", "3", "--outer", "rs",
        "--n-out", "4", "--k-out", "2",
    )
    assert code == 0
    rho, floor = re.search(r"sample rho=(\S+) \(floor (\S+)\)", out).groups()
    assert float(rho) >= float(floor)


def test_build_usage_error(capsys):
    code, _, err = run_cli(capsys, "build", "--gilbert", "--q", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "build", "--inner", "bch", "--p", "9", "--t", "2")
    assert code == 2


def test_build_sweeps_bch_past_the_codeword_count(capsys):
    # 13^9 codewords: beyond a guard on codewords, but the search's rounds
    # weigh a few thousand messages
    code, out, err = run_cli(capsys, "build", "--inner", "bch", "--p", "13", "--t", "3")
    assert code == 0
    assert err == ""
    assert "BCH[12,9] over GF(13): n=12 |C|=13^9" in out
    assert "guaranteed floor 6; measured min distance 6 (exhaustive (min lee weight 6))" in out


def test_build_sweeps_bch_17_2(capsys):
    # 17^14 codewords, once refused
    code, out, err = run_cli(capsys, "build", "--inner", "bch", "--p", "17", "--t", "2")
    assert code == 0
    assert err == ""
    assert "BCH[16,14] over GF(17): n=16 |C|=17^14" in out
    assert "measured min distance 4 (exhaustive (min lee weight 4))" in out


def test_build_searches_bch_17_4(capsys):
    # 17^12 codewords, refused by the overlap-class sweep's guard
    code, out, err = run_cli(capsys, "build", "--inner", "bch", "--p", "17", "--t", "4")
    assert code == 0
    assert err == ""
    assert "BCH[16,12] over GF(17): n=16 |C|=17^12" in out
    assert "measured min distance 8 (exhaustive (min lee weight 8))" in out


def test_build_refuses_oversized_bch_sweep(capsys):
    # a round of the search past the guard is refused before it starts, and
    # the message names its count
    code, out, err = run_cli(capsys, "build", "--inner", "bch", "--p", "23", "--t", "6")
    assert code == 2
    assert out == ""
    # 22,840,784 messages of Lee or Euclid weight 5 to 8 in the fourth round
    assert "weighs 22840784 messages" in err
    assert 22840784 > kernels.SEARCH_GUARD


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        "bounds --kind shannon --x-min={} --x-max 0",
        "bounds --kind shannon --x-min -5 --x-max={}",
        "bounds --kind envelope --c={} --x-min -3000 --x-max -600",
        "region --y-max={}",
        # as a separate word, -inf exits through the same message
        "bounds --kind shannon --x-min {} --x-max 0",
        "region --y-min {}",
    ],
)
def test_non_finite_arguments_exit_2(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.format(bad).split())
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,first_x",
    [
        ("bounds --kind lattice --x-min -1e3 --x-max -1 --samples 2", -1000.0),
        ("bounds --kind lattice --x-min -1.5e-2 --x-max -1e-3 --samples 2", -0.015),
        ("bounds --kind envelope --c -1e1 --x-min -3e3 --x-max -6e2 --samples 2",
         -3000.0),
        ("region --x-min -1e3 --x-max -6e2 --x-steps 2 --y-steps 2", -1000.0),
    ],
)
def test_negative_exponent_floats_as_separate_words(capsys, argv, first_x):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert float(out.split("\n")[1].split(",")[0]) == first_x


def test_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "sub"))
    code, *_ = run_cli(
        capsys, "bounds", "--kind", "lattice", "--x-min", "-2", "--x-max", "-1",
        "--samples", "2", "--output", "curve.csv",
    )
    assert code == 0
    assert (tmp_path / "sub" / "curve.csv").exists()


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = lattice\nx-min = -4\nx_max = -2\nsamples = 3\n# comment\n")
    code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 4
    # explicit flags win over config values
    code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg), "--samples", "5")
    assert len(out.strip().split("\n")) == 6
    code, _, err = run_cli(capsys, "bounds", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2


@pytest.mark.parametrize("spelling", ["separate", "equals"])
def test_config_file_both_spellings(tmp_path, capsys, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = lattice\nx-min = -4\nx_max = -2\nsamples = 3\n")
    flag = ["--config", str(cfg)] if spelling == "separate" else [f"--config={cfg}"]
    code, out, _ = run_cli(capsys, "bounds", *flag)
    assert code == 0
    assert out.startswith("x,rho,rate,curve\n-4.0,")
    assert len(out.strip().split("\n")) == 4


def test_missing_config_file_after_equals_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, out, err = run_cli(capsys, "bounds", f"--config={missing}")
    assert code == 2
    assert out == ""
    assert "config file not found" in err


@pytest.mark.parametrize(
    "argv",
    [
        "region --x-steps 0",
        "region --y-steps 0",
        "region --x-steps -3",
        "bounds --kind shannon --x-min -5 --x-max 0 --samples 0",
    ],
)
def test_empty_grid_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--output", "--config"])
def test_directory_as_a_file_is_a_usage_error(capsys, tmp_path, flag):
    code, out, err = run_cli(
        capsys, "bounds", "--kind", "shannon", "--x-min", "-5", "--x-max", "0",
        flag, str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "corollary")
    assert code == 0
    assert "[PASS] corollary" in out


def test_verify_only_selects_by_key_prefix(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "dominance")
    assert code == 0
    assert "[PASS] dominance" in out
    assert "region_demo_dominance" not in out
    assert "\n1 checks: 1 passed" in out


@pytest.mark.parametrize(
    "argv", [["--output", "verify.txt"], ["--format", "json-lines"], ["-o", "-"]]
)
def test_verify_takes_no_output_options(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--only", "corollary", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "verify.txt").exists()


def test_yaglom_expansion_checks_the_shipped_lift(capsys, monkeypatch):
    # a lift that pulls every lifted point halfway to the origin shrinks
    # distances; the criterion must see it, so it must call euclid.yaglom_lift
    from spherecodes import euclid

    lift = euclid.yaglom_lift
    monkeypatch.setattr(euclid, "yaglom_lift", lambda *a, **kw: 0.5 * lift(*a, **kw))
    code, out, _ = run_cli(capsys, "verify", "--only", "yaglom_expansion")
    assert code == 1
    assert "[FAIL] yaglom_expansion" in out


def test_verify_region_demo_composite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "region_demo", "--only", "primality")
    assert code == 0
    assert "[PASS] region_demo_residual" in out
    assert "[KNOWN-FAIL] region_demo_window" in out
    assert "[PASS] region_demo_dominance" in out
    assert "[PASS] primality" in out


@pytest.mark.parametrize(
    "module,attr,value",
    [
        ("bounds", "REGION_DEMO_X", -640.47),  # another residual, still an empty window
        ("bounds", "REGION_DEMO_X", -640.4800001),  # residual off by 7e-11
        ("verify", "DEMO_WINDOW_RESIDUAL", 8.5423e-06),
        ("verify", "DEMO_WINDOW_X_FIX", -640.48),  # a window without tau
    ],
)
def test_region_demo_window_fails_off_its_pinned_numbers(
    capsys, monkeypatch, module, attr, value
):
    monkeypatch.setattr(importlib.import_module(f"spherecodes.{module}"), attr, value)
    code, out, _ = run_cli(capsys, "verify", "--only", "region_demo")
    assert code == 1
    assert "[FAIL] region_demo_window" in out


def test_gilbert_criterion_checks_the_largest_set(capsys, monkeypatch):
    # the (5, 6, 1) set holds all 15625 words; a repeated word keeps its size
    # at the bound but puts two words at distance 0
    from spherecodes import codes

    greedy = codes.greedy_gilbert

    def tampered(q, n, d):
        words = greedy(q, n, d)
        if (q, n, d) == (5, 6, 1):
            words[-1] = words[0]
        return words

    monkeypatch.setattr(codes, "greedy_gilbert", tampered)
    code, out, _ = run_cli(capsys, "verify", "--only", "gilbert")
    assert code == 1
    assert "[FAIL] gilbert" in out
    assert "q=5 n=6 d=1: min distance below d" in out


def test_gilbert_criterion_checks_distance_at_d_2(capsys, monkeypatch):
    # the last word of the (5, 6, 2) set moved to weight 1 from the first
    # word: the size stays at the bound, the distance drops below d
    from spherecodes import codes

    greedy = codes.greedy_gilbert

    def tampered(q, n, d):
        words = greedy(q, n, d)
        if (q, n, d) == (5, 6, 2):
            words[-1] = words[0]
            words[-1, -1] = (words[-1, -1] + 1) % q
        return words

    monkeypatch.setattr(codes, "greedy_gilbert", tampered)
    code, out, _ = run_cli(capsys, "verify", "--only", "gilbert")
    assert code == 1
    assert "[FAIL] gilbert" in out
    assert "q=5 n=6 d=2: min distance below d" in out


def test_gilbert_criterion_counts_its_translates(capsys):
    # the work of the distance check is exact and repeats
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--only", "gilbert")
        assert code == 0
        assert (
            "min distance on the 210 sets of at least 2 words "
            "by translate tables (1062263 translates)" in out
        )


def test_verify_unknown_key(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonexistent")
    assert code == 2


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    from spherecodes import verify

    def broken(seed):
        return [
            verify.CriterionResult(
                key="synthetic", description="forced failure", passed=False
            )
        ]

    monkeypatch.setattr(verify, "ALL_CRITERIA", (("synthetic", broken),))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "[FAIL] synthetic" in out


def test_verify_fails_a_criterion_over_its_time_limit(capsys, monkeypatch):
    from spherecodes import verify

    monkeypatch.setattr(verify, "ALL_CRITERIA", [])
    verify._criterion("slow", "passes, but not in time", time_limit=0)(
        lambda seed: (True, ["done"])
    )
    verify._criterion("slow_known", "a known failure, not in time", time_limit=0)(
        lambda seed: (False, [], True)
    )
    for res in verify.run_criteria():
        assert res.status == "FAIL"
        assert re.fullmatch(r"runtime \d+\.\ds exceeded 0s", res.details[-1])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "[FAIL] slow (" in out and "[FAIL] slow_known (" in out


def test_region_demo_selects_its_three_checks_in_order():
    from spherecodes import verify

    keys = [r.key for r in verify.run_criteria(only=["region_demo"])]
    assert keys == ["region_demo_residual", "region_demo_window", "region_demo_dominance"]
