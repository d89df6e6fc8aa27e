"""Command-line interface tests, run in-process through main(argv)."""

import json

import pytest

from massey_census.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_extensions_local_degree_one(capsys):
    code, out, _ = run(
        capsys, "count-extensions", "--local-degree", "1", "--p", "2",
        "--q", "2", "--target", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == "16"
    assert payload["epi"] == "6144"


def test_count_epi_preset_oracle(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "preset", "--name", "borromean",
        "--p", "2", "--target", "4", "--method", "oracle",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["epi"] == "3072"
    assert payload["nu"] == "8"
    assert payload["method"] == "oracle"


def test_count_epi_oracle_progress_on_stderr(capsys):
    argv = ("count-epi", "--model", "preset", "--name", "borromean",
            "--p", "2", "--target", "4", "--method", "oracle")
    code, out, err = run(capsys, *argv)
    pcode, pout, perr = run(capsys, *argv, "--progress")
    assert code == pcode == 0
    plain, shown = json.loads(out), json.loads(pout)
    plain.pop("ms")
    shown.pop("ms")
    assert plain == shown
    assert shown["epi"] == "3072"
    assert err == ""
    assert "epi: " in perr and perr.endswith("\n")
    # the budget verdict comes first: exit 2, no progress
    code, out, err = run(capsys, *argv, "--progress", "--oracle-budget", "1",
                         "--json")
    assert code == 2
    assert "budget" in json.loads(out)["error"]
    assert err == ""


def test_count_epi_preset_formula_default(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "preset", "--name", "ram01",
        "--p", "2", "--target", "4",
    )
    assert code == 0
    assert json.loads(out)["nu"] == "224"


def test_count_epi_explicit_f_oracle(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "demushkin", "--d", "3", "--q", "2",
        "--f", "2", "--p", "2", "--method", "oracle",
    )
    assert code == 0
    assert json.loads(out)["epi"] == "6144"


def test_count_epi_dd_flags(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "dd", "--d", "2", "--q", "4",
        "--d2", "2", "--q2", "4", "--p", "2",
    )
    assert code == 0
    assert json.loads(out)["epi"] == "184320"  # = oracle
    code, out, _ = run(
        capsys, "count-epi", "--model", "dd", "--d", "2", "--q", "4",
        "--d2", "2", "--q2", "4", "--p", "2", "--method", "tmp-sum",
    )
    assert code == 0
    assert json.loads(out)["epi"] == "184320"


def test_count_epi_json_schema_golden(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "demushkin", "--d", "3", "--q", "2",
        "--p", "2", "--target", "4", "--method", "formula",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["model", "p", "target", "tmp", "epi", "nu",
                             "method", "ms"]
    assert isinstance(payload["p"], int)
    assert isinstance(payload["ms"], int)
    assert all(isinstance(payload[k], str) for k in ("tmp", "epi", "nu"))


def test_count_epi_csv(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "demushkin", "--d", "3", "--q", "2",
        "--p", "2", "--csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "model,p,target,tmp,epi,nu,method,ms"
    assert ",6144,16," in lines[1]


def test_tmp_list(capsys):
    argv = ("tmp", "--model", "preset", "--name", "borromean", "--p", "2",
            "--list")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["tmp"] == "6"
    assert len(payload["triples"]) == 6
    assert all(len(t) == 3 and len(t[0]) == 3 for t in payload["triples"])
    # the scan runs in-process, so tmp takes no --threads
    code, out, err = run(capsys, *argv, "--threads", "2")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --threads 2" in err


def test_commands_take_only_the_flags_they_read(capsys):
    model = ["--model", "demushkin", "--d", "4", "--q", "4", "--p", "2"]
    commands = {
        "count-extensions": ["--local-degree", "2", "--p", "2", "--q", "4"],
        "tmp": model,
        "z1": model + ["--class", "noncentral"],
        "massey": model + ["--chars", "[[1,0,0,0],[0,1,0,0]]"],
    }
    dropped = {
        "count-extensions": ("--config", "--threads", "--budget",
                             "--oracle-budget", "--extended"),
        "tmp": ("--threads", "--oracle-budget", "--extended"),
        "z1": ("--config", "--threads", "--budget", "--oracle-budget",
               "--extended"),
        "massey": ("--threads", "--budget"),
    }
    for command, flags in dropped.items():
        code, out, _ = run(capsys, command, *commands[command], "--json")
        assert code == 0, command
        for flag in flags:
            extra = [flag] if flag == "--extended" else [flag, "1"]
            code, out, err = run(capsys, command, *commands[command], *extra,
                                 "--json")
            assert code == 1 and err == "", (command, flag)
            assert "unrecognized arguments: " + flag in json.loads(out)["error"]


def test_count_epi_refuses_flags_its_method_does_not_read(capsys,
                                                          monkeypatch):
    base = ["count-epi", "--model", "demushkin", "--d", "4", "--q", "4",
            "--p", "2"]
    # the thread variable is an ambient default for every command
    monkeypatch.setenv("MASSEY_CENSUS_THREADS", "2")
    code, out, _ = run(capsys, *base, "--json")
    assert code == 0 and json.loads(out)["epi"] == "737280"
    oracle_only = ("--threads", "--oracle-budget", "--extended", "--progress")
    for method, flags in (("formula", oracle_only), ("tmp-sum", oracle_only),
                          ("oracle", ("--budget",))):
        for flag in flags:
            extra = [flag] if flag in ("--extended", "--progress") else [
                flag, "1"]
            code, out, err = run(capsys, *base, "--method", method, *extra,
                                 "--json")
            assert code == 1 and err == "", (method, flag)
            assert json.loads(out) == {
                "error": f"count-epi --method {method} does not read {flag}"}
    code, _, err = run(capsys, *base, "--oracle-budget", "1", "--threads",
                       "9", "--extended")
    assert code == 1 and "does not read --threads" in err
    # an unreadable integer is named first
    code, out, _ = run(capsys, *base, "--threads", "abc", "--json")
    assert code == 1
    assert json.loads(out) == {
        "error": "--threads must be an integer, got 'abc'"}


def test_z1_class(capsys):
    code, out, _ = run(
        capsys, "z1", "--model", "demushkin", "--d", "3", "--q", "2",
        "--p", "2", "--class", "noncentral",
    )
    assert code == 0
    assert json.loads(out)["z1"] == "256"
    # rank-2 factors are inside the cocycle rule
    code, out, _ = run(
        capsys, "z1", "--model", "df", "--d", "2", "--q", "4", "--e", "1",
        "--p", "2", "--class", "noncentral",
    )
    assert code == 0
    assert json.loads(out)["z1"] == str(2 ** 8)


def test_massey_counterexample(capsys):
    chars = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    code, out, _ = run(
        capsys, "massey", "--model", "preset", "--name", "counterexample1",
        "--p", "2", "--chars", chars, "--k", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["k"] == 4


def test_massey_free_true(capsys):
    code, out, _ = run(
        capsys, "massey", "--model", "free", "--d", "3", "--p", "2",
        "--chars", "[[1,0,0],[0,1,0],[0,0,1]]",
    )
    assert code == 0
    assert json.loads(out)["exists"] is True


def test_validation_error_exit_1(capsys):
    code, out, err = run(
        capsys, "count-epi", "--model", "demushkin", "--d", "3", "--p", "2",
    )
    assert code == 1
    assert out == ""
    assert "error" in err


def test_validation_error_json(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "demushkin", "--d", "3", "--p", "2",
        "--json",
    )
    assert code == 1
    assert "--q" in json.loads(out)["error"]


def test_bad_q_text_exit_1_names_q(capsys):
    argv = ("count-epi", "--model", "demushkin", "--d", "4", "--q", "abc",
            "--p", "2")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "q must be an integer or 'inf', got 'abc'" in err
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert "q must be" in json.loads(out)["error"]


def test_bad_integer_flags_exit_1_name_the_flag(capsys):
    # exit 2 means a budget verdict, never an unreadable flag
    base = {"--model": "demushkin", "--d": "4", "--q": "4", "--p": "2"}
    bad = {
        "count-epi": ("--d", "--p", "--threads", "--budget",
                      "--oracle-budget"),
        "tmp": ("--e", "--d2"),
        "massey": ("--k",),
    }
    for command, flags in bad.items():
        for flag in flags:
            args = dict(base, **{flag: "abc"})
            if command == "massey":
                args["--chars"] = "[[1,0,0,0],[0,1,0,0],[0,0,1,0]]"
            argv = [command] + [x for kv in args.items() for x in kv]
            code, out, err = run(capsys, *argv, "--json")
            assert code == 1 and err == "", flag
            assert json.loads(out) == {
                "error": f"{flag} must be an integer, got 'abc'"
            }
    code, out, err = run(capsys, "count-extensions", "--local-degree", "x",
                         "--p", "2", "--q", "2")
    assert code == 1 and out == ""
    assert "--local-degree must be an integer, got 'x'" in err
    code, out, _ = run(capsys, "verify", "--threads", "two", "--json")
    assert code == 1
    assert json.loads(out) == {"error": "--threads must be an integer, got 'two'"}


def test_settings_below_their_least_exit_1_name_the_source(capsys, tmp_path,
                                                          monkeypatch):
    # a negative budget or a thread count below 1 is bad input, not a
    # budget verdict, from a flag, a config key or the thread variable
    model = ["--model", "demushkin", "--d", "4", "--q", "3", "--p", "3"]
    oracle = ["count-epi", *model, "--method", "oracle"]
    for argv, error in (
        ([*oracle, "--oracle-budget", "-1"],
         "--oracle-budget must be at least 0, got -1"),
        (["tmp", *model, "--budget", "-5"],
         "--budget must be at least 0, got -5"),
        (["count-epi", *model, "--method", "tmp-sum", "--budget", "-5"],
         "--budget must be at least 0, got -5"),
        ([*oracle, "--threads", "-4"], "--threads must be at least 1, got -4"),
        ([*oracle, "--threads", "0"], "--threads must be at least 1, got 0"),
        (["verify", "--threads", "0"], "--threads must be at least 1, got 0"),
    ):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and err == "", argv
        assert json.loads(out) == {"error": error}
    cfg = tmp_path / "census.cfg"
    for key, value, least in (("tmp_budget", -5, 0), ("oracle_budget", -1, 0),
                              ("threads", 0, 1), ("threads", -4, 1)):
        cfg.write_text(f"# budgets\n{key} = {value}\n")
        code, out, err = run(capsys, "count-epi", *model, "--config", str(cfg))
        assert code == 1 and out == "", key
        assert (f"config {cfg} line 2: {key} must be at least {least}, got "
                f"{value}") in err
    for value in ("0", "-4"):
        monkeypatch.setenv("MASSEY_CENSUS_THREADS", value)
        code, out, err = run(capsys, *oracle)
        assert code == 1 and out == ""
        assert f"MASSEY_CENSUS_THREADS must be at least 1, got {value}" in err
    monkeypatch.delenv("MASSEY_CENSUS_THREADS")
    # the least values are settings: a zero budget is a budget verdict
    for argv in (["tmp", *model, "--budget", "0"],
                 [*oracle, "--threads", "1", "--oracle-budget", "0"]):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2 and "budget" in json.loads(out)["error"], argv


def test_usage_errors_exit_1(capsys):
    # argparse's own errors are bad input too, not the budget code 2
    base = ["count-epi", "--model", "free", "--d", "3"]
    for argv, named in (
        (base + ["--p", "2", "--target", "x"], "--target"),
        (base + ["--p", "2", "--target", "5"], "--target"),
        (base, "--p"),
    ):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and err == "", argv
        assert named in json.loads(out)["error"]
    code, out, err = run(capsys, *base, "--target", "x")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--target" in err
    with pytest.raises(SystemExit) as exc:
        main(["count-epi", "--help"])
    assert exc.value.code == 0
    assert "--target" in capsys.readouterr().out


def test_budget_error_exit_2(capsys):
    code, out, _ = run(
        capsys, "count-epi", "--model", "free", "--d", "3", "--p", "3",
        "--method", "oracle", "--json",
    )
    assert code == 2
    assert str(3 ** 18) in json.loads(out)["error"]


def test_massey_chars_must_be_integers(capsys):
    for chars, named in (("[[1.7,0,0],[0,1,0]]", "1.7"),
                         ("[[true,0,0],[0,1,0]]", "true")):
        code, out, err = run(
            capsys, "massey", "--model", "free", "--d", "3", "--p", "2",
            "--chars", chars, "--json",
        )
        assert code == 1 and err == "", chars
        assert json.loads(out) == {
            "error": f"--chars coordinates must be integers, got {named}"
        }


def test_k_mismatch(capsys):
    code, _, err = run(
        capsys, "massey", "--model", "free", "--d", "3", "--p", "2",
        "--chars", "[[1,0,0],[0,1,0]]", "--k", "3",
    )
    assert code == 1
    assert "does not match" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "census.cfg"
    cfg.write_text("# budgets\ntmp_budget = 100\n")
    code, _, err = run(
        capsys, "tmp", "--model", "demushkin", "--d", "4", "--q", "3",
        "--p", "3", "--config", str(cfg),
    )
    assert code == 2  # the configured budget is too small for the scan
    code, out, _ = run(
        capsys, "tmp", "--model", "demushkin", "--d", "4", "--q", "3",
        "--p", "3", "--config", str(cfg), "--budget", str(10 ** 8),
    )
    assert code == 0  # the flag outranks the config value
    assert json.loads(out)["tmp"] == "34560"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "census.cfg"
    cfg.write_text("target = 4\n")
    code, _, err = run(
        capsys, "tmp", "--model", "preset", "--name", "borromean",
        "--p", "2", "--config", str(cfg),
    )
    assert code == 1
    assert "unknown config key" in err


def test_config_keys_the_command_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "census.cfg"
    model = ["--model", "demushkin", "--d", "4", "--q", "4", "--p", "2"]
    for argv, text, key in (
        (["tmp", *model], "threads = 7\noracle_budget = 5\n", "threads"),
        (["tmp", *model], "oracle_budget = 5\n", "oracle_budget"),
        (["massey", *model, "--chars", "[[1,0,0,0]]"], "tmp_budget = 5\n",
         "tmp_budget"),
        (["verify"], "threads = 1\ntmp_budget = 5\n", "tmp_budget"),
    ):
        cfg.write_text(text)
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1 and out == "", argv
        assert f"{argv[0]} does not read config key {key!r}" in err
    # count-epi takes all three flags, so it reads all three keys
    cfg.write_text("threads = 7\ntmp_budget = 100\noracle_budget = 5\n")
    code, out, _ = run(capsys, "count-epi", *model, "--config", str(cfg))
    assert code == 0 and json.loads(out)["epi"] == "737280"


def test_config_errors_name_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "census.cfg"
    for bad, detail in (
        ("threads = two", "threads must be an integer, got 'two'"),
        ("target = 4", "unknown config key 'target'"),
        ("threads", "is not key=value"),
    ):
        cfg.write_text(f"# budgets\ntmp_budget = 1000000\n{bad}\n")
        code, _, err = run(
            capsys, "tmp", "--model", "preset", "--name", "borromean",
            "--p", "2", "--config", str(cfg),
        )
        assert code == 1
        assert f"config {cfg} line 3" in err and detail in err


def test_env_threads_bad_value_names_variable(capsys, monkeypatch):
    monkeypatch.setenv("MASSEY_CENSUS_THREADS", "x")
    code, _, err = run(
        capsys, "count-epi", "--model", "preset", "--name", "borromean",
        "--p", "2",
    )
    assert code == 1
    assert "MASSEY_CENSUS_THREADS" in err and "'x'" in err


def test_env_threads(capsys, monkeypatch):
    monkeypatch.setenv("MASSEY_CENSUS_THREADS", "2")
    code, out, _ = run(
        capsys, "count-epi", "--model", "demushkin", "--d", "4", "--q", "3",
        "--p", "3", "--method", "tmp-sum",
    )
    assert code == 0
    assert json.loads(out)["epi"] == str(34560 * 3 ** 11)


def test_file_input_tensor(tmp_path, capsys):
    data = {
        "n": 3,
        "relators": [
            {"m": 1, "terms": [{"i": 2, "j": 3, "k": 1, "e": 1}]},
            {"m": 2, "terms": [{"i": 1, "j": 3, "k": 2, "e": 1}]},
        ],
    }
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "count-epi", "--model", "file", "--file", str(path),
        "--p", "2",
    )
    assert code == 0
    assert json.loads(out)["epi"] == "3072"


def test_file_input_non_integer_fields_refused(tmp_path, capsys):
    # int() would read both as 1 and count the borromean tensor, epi 3072
    for value in (1.5, True):
        data = {"n": 3, "relators": [
            {"m": 1, "terms": [{"i": 2, "j": 3, "k": 1, "e": value}]},
            {"m": 2, "terms": [{"i": 1, "j": 3, "k": 2, "e": 1}]},
        ]}
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "count-epi", "--model", "file", "--file", str(path),
            "--p", "2",
        )
        assert code == 1 and out == ""
        assert "relators[0].terms[0].e must be an integer" in err
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"rank": True, "relators": []}))
    code, out, err = run(
        capsys, "count-epi", "--model", "file", "--file", str(path),
        "--p", "2", "--method", "oracle",
    )
    assert code == 1 and out == ""
    assert '"rank" must be a positive integer' in err


def test_file_input_custom_presentation_needs_oracle(tmp_path, capsys):
    pres = {
        "rank": 3,
        "relators": [["comm", ["comm", ["gen", 2], ["gen", 3]], ["gen", 1]]],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    code, _, err = run(
        capsys, "count-epi", "--model", "file", "--file", str(path),
        "--p", "2",
    )
    assert code == 1
    assert "--method oracle" in err
    code, out, _ = run(
        capsys, "count-epi", "--model", "file", "--file", str(path),
        "--p", "2", "--method", "oracle",
    )
    assert code == 0
    assert int(json.loads(out)["epi"]) > 0


def test_file_input_bool_generator_refused(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"rank": 2, "relators": [["gen", True]]}))
    code, out, err = run(
        capsys, "count-epi", "--model", "file", "--file", str(path),
        "--p", "2", "--method", "oracle",
    )
    assert code == 1 and out == ""
    assert "relators[0]" in err and "got [True]" in err


def test_file_input_free_preset_has_formula(tmp_path, capsys):
    path = tmp_path / "ram01.json"
    path.write_text(json.dumps({"preset": "ram01"}))
    code, out, _ = run(
        capsys, "count-epi", "--model", "file", "--file", str(path),
        "--p", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "free(d=3)"
    assert (payload["method"], payload["epi"]) == ("formula", "86016")


def test_file_input_relator_free_has_formula(tmp_path, capsys):
    # the relators, not the file's origin, decide: none means free
    path = tmp_path / "free3.json"
    path.write_text(json.dumps({"rank": 3, "relators": []}))
    code, out, _ = run(
        capsys, "count-epi", "--model", "file", "--file", str(path),
        "--p", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "free(d=3)"
    assert (payload["method"], payload["epi"]) == ("formula", "86016")


def test_verify_desk_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "desk")
    assert code == 0
    assert "checks passed" in out


def test_verify_json_rows(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "desk", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "desk"
    assert all(r["ok"] for r in payload["rows"] if not r["exploratory"])
