"""End-to-end command-line checks through main(argv)."""

import pytest

from fpmon.cli import load_config, main
from fpmon.hardgen import read_instance
from fpmon.harness import read_stream, read_trace


def run(*argv):
    return main(list(argv))


def test_no_subcommand_is_usage_error(capsys):
    assert run() == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run("gen-stream", "--kind", "uniform", "--no-such-flag")
    assert err.value.code == 2


def test_gen_stream_uniform(tmp_path, capsys):
    out = str(tmp_path / "u.txt")
    assert run("gen-stream", "--kind", "uniform", "--m", "64", "--k", "4",
               "--n", "200", "--seed", "7", "--out", out) == 0
    m, k, n, events = read_stream(out)
    assert (m, k, n) == (64, 4, 200)
    assert len(events) == 200


def test_gen_stream_zipf(tmp_path):
    out = str(tmp_path / "z.txt")
    assert run("gen-stream", "--kind", "zipf", "--m", "256", "--k", "4",
               "--n", "500", "--s", "1.4", "--out", out) == 0
    _, _, _, events = read_stream(out)
    assert len(events) == 500


def test_gen_hard_and_btx_stream(tmp_path):
    inst_path = str(tmp_path / "btx.txt")
    assert run("gen-hard", "--type", "btx", "--k", "8", "--p", "2.0",
               "--eps", "0.25", "--seed", "3", "--out", inst_path) == 0
    inst = read_instance(inst_path)
    stream_path = str(tmp_path / "btx_stream.txt")
    assert run("gen-stream", "--kind", "btx", "--hard", inst_path,
               "--out", stream_path) == 0
    m, k, n, events = read_stream(stream_path)
    assert k == 8
    assert m == inst.n_blocks * inst.n_cols
    assert n == len(events) == int(inst.matrices.sum())


def test_gen_stream_btx_requires_hard(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    assert run("gen-stream", "--kind", "btx", "--out", out) == 1
    assert "needs --hard" in capsys.readouterr().err


def test_gen_hard_all_types(tmp_path):
    for typ in ("two-disj", "bit-disj", "gap-maj", "quantile"):
        out = str(tmp_path / f"{typ}.txt")
        assert run("gen-hard", "--type", typ, "--k", "64", "--nprime", "43",
                   "--beta", "0.25", "--eps", "0.05", "--out", out) == 0
        read_instance(out)


def test_run_threshold_and_rerun_byte_identity(tmp_path):
    stream = str(tmp_path / "s.txt")
    assert run("gen-stream", "--kind", "uniform", "--m", "64", "--k", "4",
               "--n", "2000", "--seed", "5", "--out", stream) == 0
    t1 = str(tmp_path / "t1.csv")
    t2 = str(tmp_path / "t2.csv")
    base = ["run-threshold", "--stream", stream, "--p", "2", "--eps", "0.5",
            "--tau", "3000", "--b", "8", "--r", "5", "--seed", "1",
            "--stride", "100"]
    assert run(*base, "--out", t1) == 0
    assert run(*base, "--out", t2) == 0
    with open(t1, "rb") as fh:
        d1 = fh.read()
    with open(t2, "rb") as fh:
        d2 = fh.read()
    assert d1 == d2
    prov, rows = read_trace(t1)
    assert prov["mode"] == "threshold"
    assert prov["tau"] == "3000.0"
    assert rows[-1].fired_instances in (0, 1)


def test_run_monitor(tmp_path):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "64", "--k", "4",
        "--n", "500", "--seed", "9", "--out", stream)
    out = str(tmp_path / "mon.csv")
    assert run("run-monitor", "--stream", stream, "--p", "2", "--eps", "0.5",
               "--b", "8", "--r", "5", "--a", "1", "--stride", "50",
               "--out", out) == 0
    prov, rows = read_trace(out)
    assert prov["mode"] == "monitor"
    assert int(rows[-1].fired_instances) > 0


def test_run_threshold_missing_required_option(tmp_path, capsys):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
        "--n", "50", "--out", stream)
    code = run("run-threshold", "--stream", stream, "--p", "2",
               "--eps", "0.5", "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "--tau" in capsys.readouterr().err


def test_config_file_fills_missing_options(tmp_path):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "64", "--k", "4",
        "--n", "400", "--seed", "3", "--out", stream)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the runs\n"
        "p = 2\n"
        "eps = 0.5\n"
        "tau = 99999\n"
        "b = 8\n"
        "r = 5\n"
    )
    out1 = str(tmp_path / "a.csv")
    assert run("run-threshold", "--stream", stream, "--config", str(cfg),
               "--out", out1) == 0
    prov, _ = read_trace(out1)
    assert prov["tau"] == "99999.0"
    # explicit flags beat config values
    out2 = str(tmp_path / "b.csv")
    assert run("run-threshold", "--stream", stream, "--config", str(cfg),
               "--tau", "1234", "--out", out2) == 0
    prov2, _ = read_trace(out2)
    assert prov2["tau"] == "1234.0"


def test_load_config_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p 2\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


def test_verify_reduction_btx(tmp_path):
    out = str(tmp_path / "r.csv")
    assert run("verify-reduction", "btx", "--trials", "40", "--out", out) == 0
    with open(out) as fh:
        text = fh.read()
    assert "reduction,trials,non_star,agree,frac" in text
    assert "btx,40," in text


def test_verify_reduction_quantile(tmp_path):
    out = str(tmp_path / "q.csv")
    assert run("verify-reduction", "quantile", "--trials", "30", "--k", "64",
               "--eps", "0.02", "--out", out) == 0


def test_verify_reduction_embed_stdout(capsys):
    # r = 4096 makes the per-trial pass probability ~1 (3.8 sigma margin),
    # so this checks plumbing rather than the statistics
    assert run("verify-reduction", "embed", "--trials", "20", "--p", "2",
               "--eps", "0.25", "--dim", "16", "--r", "4096") == 0
    text = capsys.readouterr().out
    assert "embed,20," in text


def test_verify_reduction_embed_default_readings(capsys):
    # with no --r the readings count comes from embed_readings(p, eps):
    # 2504 at p = 3 (kappa_3 / kappa_2 = 2.45 times 64/eps^2), which gives
    # p = 3 the same ~94% per-trial pass rate that 1024 gives p = 2
    assert run("verify-reduction", "embed", "--trials", "100", "--p", "3",
               "--eps", "0.25", "--dim", "32") == 0
    assert "# r=2504" in capsys.readouterr().out.splitlines()
    run("verify-reduction", "embed", "--trials", "1", "--p", "2",
        "--eps", "0.25", "--dim", "32")
    assert "# r=1024" in capsys.readouterr().out.splitlines()
    # an explicit --r wins, and --r 0 is an error rather than the default
    assert run("verify-reduction", "embed", "--trials", "1", "--r", "0") == 1
    assert "need at least one reading" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_verify_reduction_embed_rejects_an_empty_vector(capsys, dim):
    # a zero-length vector has norm 0, which every estimate matches: the
    # check would pass whatever the embedding did
    assert run("verify-reduction", "embed", "--trials", "3", "--dim", dim) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --dim must be >= 1, got {dim}\n"
    assert captured.out == ""


def test_verify_reduction_f0bit(tmp_path):
    out = str(tmp_path / "f0.csv")
    assert run("verify-reduction", "f0bit", "--trials", "25", "--k", "256",
               "--eps", "0.1", "--beta", "0.25", "--nprime", "10007",
               "--out", out) == 0
    with open(out) as fh:
        body = [ln for ln in fh.read().splitlines()
                if ln and not ln.startswith("#")]
    assert body[0] == "reduction,trials,within_tol,frac,frac_lambda0"
    frac = float(body[1].split(",")[3])
    assert frac >= 0.9


@pytest.mark.parametrize("nprime", ["2", "0"])
def test_verify_reduction_f0bit_names_the_nprime_given(capsys, nprime):
    # the universe is rounded down to 3 (mod 4); below 3 there is none
    assert run("verify-reduction", "f0bit", "--trials", "1", "--nprime", nprime) == 1
    assert capsys.readouterr().err == f"error: --nprime must be >= 3, got {nprime}\n"


def test_bench_comm(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert run("bench-comm", "--k-list", "4,8", "--m", "256", "--n", "2000",
               "--p", "2", "--eps", "0.25", "--b", "8", "--r", "5",
               "--trials", "2", "--out", out) == 0
    with open(out) as fh:
        body = [ln for ln in fh.read().splitlines()
                if ln and not ln.startswith("#")]
    assert body[0] == "k,trials,mean_messages,mean_bits"
    assert len(body) == 3
    k4 = body[1].split(",")
    k8 = body[2].split(",")
    assert k4[0] == "4" and k8[0] == "8"
    assert float(k4[2]) > 0 and float(k8[2]) > 0


def test_trace_provenance_reproduces_run(tmp_path):
    # rebuild the command line from a trace header and get identical bytes
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "64", "--k", "4",
        "--n", "600", "--seed", "8", "--out", stream)
    first = str(tmp_path / "first.csv")
    assert run("run-threshold", "--stream", stream, "--p", "2", "--eps",
               "0.5", "--tau", "2500", "--b", "8", "--r", "5", "--seed",
               "42", "--stride", "25", "--out", first) == 0
    prov, _ = read_trace(first)
    second = str(tmp_path / "second.csv")
    assert run("run-threshold",
               "--stream", prov["stream"],
               "--p", prov["p"], "--eps", prov["eps"], "--tau", prov["tau"],
               "--b", prov["b"], "--r", prov["r"], "--seed", prov["seed"],
               "--stride", prov["stride"], "--out", second) == 0
    with open(first, "rb") as fh:
        d1 = fh.read()
    with open(second, "rb") as fh:
        d2 = fh.read()
    assert d1 == d2


@pytest.mark.parametrize("command", ["run-threshold", "run-monitor", "bench-comm"])
@pytest.mark.parametrize("flag", ["--gamma", "--c-fire"])
def test_run_commands_take_no_gamma_or_c_fire(tmp_path, command, flag):
    # both are fixed by eps (gamma = eps/10, C_FIRE = 0.25), and provenance
    # still records them
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
        "--n", "50", "--out", stream)
    args = {"run-threshold": ["--stream", stream, "--p", "2", "--eps", "0.5", "--tau", "100"],
            "run-monitor": ["--stream", stream, "--p", "2", "--eps", "0.5"],
            "bench-comm": ["--k-list", "4", "--n", "50"]}[command]
    with pytest.raises(SystemExit) as err:
        run(command, *args, flag, "0.25", "--out", str(tmp_path / "out.csv"))
    assert err.value.code == 2
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["verify-reduction btx", "verify-reduction f0bit",
                                     "verify-reduction embed", "verify-reduction quantile",
                                     "bench-comm"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_fewer_than_one_trial_is_an_error_line(capsys, command, trials):
    # f0bit, embed and bench-comm divided by zero trials, and btx printed a
    # report of none
    assert run(*command.split(), "--trials", trials) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: --trials must be >= 1, got {trials}\n")


@pytest.mark.parametrize("flag,value,message", [("--k", "0", "k must be >= 1, got 0"),
                                                ("--m", "0", "m must be >= 1, got 0"),
                                                ("--n", "-5", "n must be >= 0, got -5")])
def test_gen_stream_shape_is_checked(tmp_path, capsys, flag, value, message):
    # numpy's "high <= 0" and "negative dimensions are not allowed" named no option
    out = tmp_path / "s.txt"
    assert run("gen-stream", "--kind", "uniform", flag, value, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_byte_outside_utf8_is_named_by_its_line(tmp_path, capsys):
    # such a byte raised a UnicodeDecodeError that named no file or line;
    # now it reads as a lone surrogate, which only a comment or a path holds
    cfg = tmp_path / "gen.cfg"
    cfg.write_bytes(b"# caf\xe9\nseed = 3\nm = 6\xff4\n")
    out = tmp_path / "s.txt"
    assert run("gen-stream", "--kind", "uniform", "--config", str(cfg),
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"error: {cfg}: line 3: m: invalid literal for "
                                       "int() with base 10: '6\\udcff4'\n")
    cfg.write_bytes(b"# caf\xe9\nseed = 3\nm = 64\n")
    assert run("gen-stream", "--kind", "uniform", "--config", str(cfg),
               "--out", str(out)) == 0
    assert read_stream(str(out))[0] == 64


def test_bad_config_value_names_file_line_and_key(tmp_path, capsys):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
        "--n", "50", "--out", stream)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p=2\n# resolution\nb=abc\neps=0.5\n")
    code = run("run-monitor", "--stream", stream, "--config", str(cfg),
               "--out", str(tmp_path / "m.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cfg}: line 3: b: " in err and "'abc'" in err
    # a list option is parsed by its type too, so its errors name the line
    cfg.write_text("m=64\nk_list=4,x\n")
    assert run("bench-comm", "--config", str(cfg)) == 1
    assert capsys.readouterr().err == (f"error: {cfg}: line 2: k_list: invalid literal "
                                       f"for int() with base 10: 'x'\n")


@pytest.mark.parametrize("line", ["seeed = 7", "literal = 1", "gamma = 0.02",
                                  "c_fire = 0.25"])
def test_config_key_naming_no_option_is_an_error(tmp_path, capsys, line):
    # a misspelt or retired key would otherwise be ignored, and the run
    # would go ahead with the default in its place
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
        "--n", "50", "--out", stream)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p=2\neps=0.5\ntau=100\n# typo below\n{line}\n")
    out = tmp_path / "t.csv"
    code = run("run-threshold", "--stream", stream, "--config", str(cfg),
               "--out", str(out))
    assert code == 1
    key = line.split()[0]
    assert f"{cfg}: line 5: {key}: no such option" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,line", [("gen-hard", "type = bitdisj"),
                                          ("gen-stream", "kind = unifrom")])
def test_config_value_outside_choices_is_an_error(tmp_path, capsys, command, line):
    # a config value skipped the option's choices, so gen-hard fell through
    # to its last instance type and gen-stream to its btx branch
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"seed = 3\n{line}\n")
    out = tmp_path / "out.txt"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 1
    key, _, value = line.partition(" = ")
    err = capsys.readouterr().err
    assert f"{cfg}: line 2: {key}: '{value}' is not one of" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--tau", "nan"), ("--tau", "inf"),
                                        ("--b", "nan"), ("--p", "inf")])
def test_non_finite_parameter_is_an_error_line(tmp_path, capsys, flag, value):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
        "--n", "50", "--out", stream)
    args = {"--p": "2", "--eps": "0.5", "--tau": "100", "--b": "8", flag: value}
    out = tmp_path / "t.csv"
    code = run("run-threshold", "--stream", stream, "--r", "3",
               *[x for kv in args.items() for x in kv], "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:] in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--i-max", "-1"], ["--i-max", "-1", "--a", "1"],
                                   ["--i-max", "5000"]])
def test_bad_i_max_is_one_error_line(tmp_path, capsys, extra):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
        "--n", "50", "--out", stream)
    out = tmp_path / "m.csv"
    code = run("run-monitor", "--stream", stream, "--p", "2", "--eps", "0.2",
               "--b", "8", "--r", "3", *extra, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: i_max") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["4,x", ""])
def test_bad_k_list_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as err:
        run("bench-comm", "--k-list", value)
    assert err.value.code == 2
    assert "argument --k-list: invalid int_list value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-threshold", "run-monitor"])
@pytest.mark.parametrize("header,extra,start", [
    (f"16 2 {10**200}", [], f"error: n={10**200}, p=2.0: the default i_max"),
    ("16 2 50", ["--p", "2000"], "error: n=50, p=2000.0: the default i_max"),
], ids=["201-digit-n", "p-2000"])
def test_default_i_max_past_the_float_range_is_one_error_line(tmp_path, capsys, command,
                                                              header, extra, start):
    stream = tmp_path / "s.txt"
    stream.write_text(f"{header}\n0 0 1\n1 1 2\n")
    out = tmp_path / "t.csv"
    tau = ["--tau", "100"] if command == "run-threshold" else []
    code = run(command, "--stream", str(stream), "--p", "2", "--eps", "0.2", *tau, *extra,
               "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1
    assert not out.exists()


def test_n_past_the_float_range_is_one_error_line(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text(f"16 2 {10**400}\n0 0 1\n1 1 2\n")
    out = tmp_path / "m.csv"
    assert run("run-monitor", "--stream", str(stream), "--p", "2", "--eps", "0.2",
               "--i-max", "5", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: stream bound n={10**400} is past the float range\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_tau_whose_bucket_tables_overflow_is_one_error_line(tmp_path, capsys):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "64", "--k", "4",
        "--n", "100", "--out", stream)
    out = tmp_path / "t.csv"
    code = run("run-threshold", "--stream", stream, "--p", "2", "--eps", "0.2",
               "--tau", "1e308", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tau=1e+308: its bucket tables") and err.count("\n") == 1
    assert not out.exists()


def test_p_whose_eta_power_underflows_is_one_error_line(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("64 4 50\n0 0 1\n1 1 2\n")
    out = tmp_path / "m.csv"
    assert run("run-monitor", "--stream", str(stream), "--p", "2000", "--eps", "0.2",
               "--i-max", "5", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p=2000.0: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def test_i_max_zero_runs_a_one_rung_ladder(tmp_path):
    stream = str(tmp_path / "s.txt")
    run("gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
        "--n", "50", "--out", stream)
    out = str(tmp_path / "m.csv")
    assert run("run-monitor", "--stream", stream, "--p", "2", "--eps", "0.2",
               "--b", "8", "--r", "3", "--i-max", "0", "--out", out) == 0
    prov, rows = read_trace(out)
    assert (prov["i_max"], prov["a"]) == ("0", "3")
    assert rows[-1].fired_instances == 1
