import argparse
import json
import math

import numpy as np
import pytest

from siegel import __version__
from siegel.cli import DEFAULT_MC_SAMPLES, build_parser, run
from siegel.haar import RngStream, sample_haar_so_batch
from siegel.intersections import enumerate_intersections, reports_to_jsonl
from siegel.iwasawa import matrix_to_json_dict
from siegel.volumes import GROWTH_CSV_HEADER

from conftest import SharedStream


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


_STRICT = json.JSONDecoder(parse_constant=_refuse_constant)


def _documents(text):
    """Every JSON document of a stdout, in order, however it is laid out;
    Infinity and NaN are refused."""
    docs, at = [], 0
    while text[at:].strip():
        at += len(text[at:]) - len(text[at:].lstrip())
        doc, at = _STRICT.raw_decode(text, at)
        docs.append(doc)
    return docs


def run_cli(capsys, *argv):
    """Run the CLI in process.  Every stdout that is not the growth table's
    CSV, and every stderr but argparse's usage text (exit code 2), must
    parse as strict JSON documents."""
    code = run(list(argv))
    captured = capsys.readouterr()
    if not captured.out.startswith(GROWTH_CSV_HEADER):
        _documents(captured.out)
    if code != 2:
        _documents(captured.err)
    return code, captured.out, captured.err


def test_volume_quotient_n2(capsys):
    code, out, _ = run_cli(capsys, "volume", "--object", "quotient", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["expression"] == "sqrt(2) * zeta(2)"
    assert math.isclose(
        doc["result"]["value"], math.sqrt(2.0) * math.pi**2 / 6.0, rel_tol=1e-12
    )
    assert doc["result"]["form_check"]["agrees"] is False
    assert "t" not in doc["result"] and "lambda" not in doc["result"]


def test_volume_so_n2(capsys):
    code, out, _ = run_cli(capsys, "volume", "--object", "so", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["expression"] == "2^(3/2) * pi"
    assert math.isclose(doc["result"]["value"], 8.885765876316732, rel_tol=1e-12)


def test_growth_table_csv(capsys):
    code, out, _ = run_cli(capsys, "growth-table", "--n-max", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,log_vol_siegel")
    assert len(lines) == 5  # header + rows for n = 2..5
    log_c = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(log_c[i + 1] > log_c[i] for i in range(1, len(log_c) - 1))


def test_decompose_and_reduce_round_trip(tmp_path, capsys):
    g = np.diag([2.0, 0.5])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json_dict(g)))
    code, out, _ = run_cli(capsys, "decompose", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["membership"] == "outside"
    assert doc["result"]["b"] == [4.0]

    code, out, _ = run_cli(capsys, "reduce", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "reduced"
    assert doc["result"]["b"][0] <= 2.0 / math.sqrt(3.0) + 1e-12


def test_sample_report_embeds_config(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--what", "point", "--n", "2", "--count", "2", "--seed", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"seed": 7, "tool_version": __version__}
    assert len(doc["result"]["samples"]) == 2


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "enumerate-intersections", "--n", "2",
                         "--budget", "25", "--seed", "3")
    _, out2, _ = run_cli(capsys, "enumerate-intersections", "--n", "2",
                         "--budget", "25", "--seed", "3")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "volume", "--object", "so")  # missing --n
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--config", "x.json", "bounds", "--n", "2"), "invalid choice: 'x.json'"),
        (("bounds", "--n", "2", "--config", "x.json"), "unrecognized arguments: --config x.json"),
    ],
    ids=["before", "after"],
)
def test_config_flag_is_a_usage_error(capsys, argv, message):
    # there is no config file: --config is an unknown flag on either side
    # of the subcommand, refused by the parser with nothing on stdout
    # (before it, the parser reads the file name as the subcommand)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_computation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_json_dict(np.diag([2.0, 1.0]))))
    code, out, err = run_cli(capsys, "decompose", "--input", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "NotUnimodularError"


@pytest.mark.parametrize("doc", [
    {"n": 2.9, "entries": ["1", 0, 0, "1"]},  # was read as the 2x2 identity
    {"n": 2, "entries": ["1", 0, 0, "1"]},
    {"n": 2.0, "entries": [1.0, 0.0, 0.0, 1.0]},
    [1, 2],  # these three were a traceback, the last a KeyError
    "x",
    None,
    {"n": 2},
])
def test_decompose_refuses_a_malformed_matrix_file(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "decompose", "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidArgumentError"


def test_reduce_refuses_a_matrix_document_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([1.0, 0.0, 0.0, 1.0]))
    code, out, err = run_cli(capsys, "reduce", "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidArgumentError"


def test_decompose_echoes_the_siegel_params_it_reads(tmp_path, capsys):
    # |u| = 0.6: outside the canonical lambda = 1/2, inside lambda = 0.7
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [1.0, 0.6, 0.0, 1.0]}))
    code, default, _ = run_cli(capsys, "decompose", "--input", str(path))
    assert code == 0
    code, wide, _ = run_cli(capsys, "decompose", "--input", str(path), "--lambda", "0.7")
    assert code == 0
    default, wide = json.loads(default), json.loads(wide)
    assert default["config"] == wide["config"]
    assert default["result"]["membership"] == "outside"
    assert wide["result"]["membership"] == "inside"
    assert (default["result"]["t"], default["result"]["lambda"]) == (2.0 / math.sqrt(3.0), 0.5)
    assert (wide["result"]["t"], wide["result"]["lambda"]) == (2.0 / math.sqrt(3.0), 0.7)


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--t", "inf"),
        ("decompose", "--lambda", "inf"),
        ("sample", "--what", "point", "--n", "2", "--t", "inf"),
        ("volume", "--object", "siegel", "--n", "3", "--lambda", "inf"),
    ],
)
def test_infinite_siegel_params_rejected(tmp_path, capsys, argv):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json_dict(np.diag([3.0, 1.0 / 3.0]))))
    if argv[0] == "decompose":
        argv = argv + ("--input", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidArgumentError"


def test_enumerate_without_candidates_prints_only_the_summary(capsys):
    code, out, _ = run_cli(capsys, "enumerate-intersections", "--n", "2", "--max-height", "0")
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out)["summary"]["candidates"] == 0


def test_enumerate_n3_without_a_height_cap_is_refused(capsys):
    # the default n = 3 cap of 81 spans a grid that could not finish
    code, out, err = run_cli(capsys, "enumerate-intersections", "--n", "3")
    assert code == 1 and out == ""
    err = json.loads(err)
    assert err["error"] == "DimensionTooLargeError" and "max_h = 81" in err["message"]


def test_decompose_membership_verdict_has_a_fixed_slack(tmp_path, capsys):
    # the slack is 1e-9 and no flag sets it: |u| 1e-4 inside lambda = 1/2
    # is inside, 5e-10 outside it on the boundary, 2e-9 outside it outside
    def membership(u):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.array([[1.0, u], [0.0, 1.0]]))))
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"tool_version": __version__}
        return doc["result"]["membership"]

    assert membership(0.4999) == "inside"
    assert membership(0.5 + 5e-10) == "boundary"
    assert membership(0.5 + 2e-9) == "outside"


@pytest.mark.parametrize(
    "flag_argv, value, least",
    [
        (("reduce", "--input", "m.json", "--max-iter"), -1, 0),
        (("enumerate-intersections", "--n", "2", "--budget"), -3, 0),
        (("sample", "--what", "a-integral", "--n", "2", "--count"), 0, 2),
        (("sample", "--what", "a-integral", "--n", "2", "--count"), 1, 2),
        (("sample", "--n", "2", "--count"), -2, 1),
        (("sample", "--what", "rotation", "--n", "2", "--count"), 0, 1),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x),
)
def test_count_flags_below_their_least_are_refused(tmp_path, capsys, monkeypatch, flag_argv,
                                                   value, least):
    # a count below its least value fails before any input is read, and
    # nothing is printed on stdout; the message names the flag
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
    code, out, err = run_cli(capsys, *flag_argv, str(value))
    assert code == 1 and out == ""
    message = f"{flag_argv[-1]} must be >= {least}"
    assert json.loads(err) == {"error": "MalformedConfigError", "message": message}


def test_seed_flag_drives_the_run_and_defaults_to_0(capsys):
    sample = ("sample", "--what", "point", "--n", "2")
    code, out, _ = run_cli(capsys, "--format", "pretty", *sample, "--seed", "11")
    assert code == 0
    assert '"seed": 11' in out  # pretty-printed
    code, out, _ = run_cli(capsys, *sample)
    assert code == 0
    assert json.loads(out)["config"] == {"seed": 0, "tool_version": __version__}
    code, out, _ = run_cli(capsys, "enumerate-intersections", "--n", "2", "--max-height", "0",
                           "--seed", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == doc["summary"]["seed"] == 11


@pytest.mark.parametrize(
    "flag_argv, value",
    [
        (("reduce", "--input", "m.json", "--max-iter"), "2.7"),
        (("sample", "--what", "point", "--n", "2", "--seed"), "1.9"),
        (("sample", "--what", "point", "--n", "2", "--seed"), "True"),
        (("sample", "--what", "a-integral", "--n", "2", "--count"), "abc"),
        (("enumerate-intersections", "--n", "2", "--budget"), "1e3"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else x,
)
def test_integer_flags_refuse_other_values(tmp_path, capsys, monkeypatch, flag_argv, value):
    # a seed, count or budget that is not an integer is a usage error that
    # names the flag; nothing runs and nothing is printed on stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
    code, out, err = run_cli(capsys, *flag_argv, value)
    assert (code, out) == (2, "")
    assert f"argument {flag_argv[-1]}: invalid int value: '{value}'" in err


@pytest.mark.parametrize(
    "name", ["det_tol", "ortho_tol", "recon_tol", "singular_tol", "witness_tol", "membership_tol"]
)
def test_no_flag_sets_a_tolerance(tmp_path, capsys, monkeypatch, name):
    # every tolerance is a module constant: spelling one as a flag, even on
    # decompose, which applies the membership slack, is a usage error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
    flag = "--" + name.replace("_", "-")
    code, out, err = run_cli(capsys, "decompose", "--input", "m.json", flag, "1e-3")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} 1e-3" in err


def test_flag_defaults():
    # an absent flag takes its default; the counts stay None until the
    # command resolves them, so a given 0 is told from an absent flag
    parser = build_parser()
    args = parser.parse_args(["sample", "--n", "2"])
    assert (args.format, args.seed, args.what, args.count) == ("json", 0, "point", None)
    assert parser.parse_args(["reduce", "--input", "m.json"]).max_iter is None
    args = parser.parse_args(["enumerate-intersections", "--n", "2"])
    assert (args.format, args.seed, args.budget) == ("json", 0, None)
    # a --format given on either side is not clobbered by a default
    for argv in (["--format", "pretty", "bounds", "--n", "2"],
                 ["bounds", "--n", "2", "--format", "pretty"]):
        assert parser.parse_args(argv).format == "pretty"


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


def test_settable_surface_is_pinned():
    # every flag of the main parser and of each subcommand; a new setting
    # must be added here
    parser = build_parser()
    assert _option_strings(parser) == {"--format"}
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _option_strings(sub) for name, sub in commands.choices.items()} == {
        "volume": {"--format", "--object", "--n", "--t", "--lambda"},
        "growth-table": {"--format", "--n-max"},
        "decompose": {"--format", "--input", "--t", "--lambda"},
        "reduce": {"--format", "--input", "--max-iter"},
        "sample": {"--format", "--what", "--n", "--count", "--b-min", "--t", "--lambda",
                   "--seed"},
        "enumerate-intersections": {"--format", "--n", "--budget", "--max-height", "--seed"},
        "bounds": {"--format", "--n"},
    }


def test_parser_rejects_global_flag_anywhere(capsys):
    # global flags are accepted both before and after the subcommand
    code1, out1, _ = run_cli(capsys, "--format", "csv", "growth-table", "--n-max", "3")
    code2, out2, _ = run_cli(capsys, "growth-table", "--n-max", "3", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2


def test_explicit_zero_budget_is_honoured(capsys):
    def budget(*argv):
        code, out, _ = run_cli(capsys, "enumerate-intersections", "--n", "2",
                               "--max-height", "1", "--seed", "3", *argv)
        assert code == 0
        return json.loads(out.strip().split("\n")[-1])["summary"]["budgets"]

    assert budget("--budget", "0") == {"budget_per_candidate": 0}
    assert budget("--budget", "7") == {"budget_per_candidate": 7}
    assert budget() == {"budget_per_candidate": 400}


def test_explicit_zero_max_iter_is_honoured(tmp_path, capsys):
    path = tmp_path / "m.json"
    # columns already in norm order, so reducing it takes an exchange
    g = np.diag([4.0, 0.25]) @ np.array([[1.0, 2.9], [0.0, 1.0]])
    path.write_text(json.dumps(matrix_to_json_dict(g)))
    code, out, _ = run_cli(capsys, "reduce", "--input", str(path), "--max-iter", "0")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["iterations"] == 0 and doc["status"] != "reduced"
    code, out, _ = run_cli(capsys, "reduce", "--input", str(path))
    assert json.loads(out)["result"]["status"] == "reduced"


def test_explicit_count_sets_the_a_integral_samples(capsys):
    def samples(*argv):
        code, out, _ = run_cli(capsys, "sample", "--what", "a-integral", "--n", "2", *argv)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == result["report"]["samples"]
        return result["count"]

    assert samples("--count", "200") == 200
    assert samples("--count", "2") == 2


def test_a_integral_beyond_double_range_exits_1_without_output(capsys):
    # at n = 40 the estimate underflows and the quadrature overflows; the
    # report once printed "quadrature":Infinity
    code, out, err = run_cli(capsys, "sample", "--what", "a-integral", "--n", "40",
                             "--count", "100")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ToleranceNotMetError"


def test_a_integral_default_count_runs(capsys):
    code, out, _ = run_cli(capsys, "sample", "--what", "a-integral", "--n", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == DEFAULT_MC_SAMPLES == result["report"]["samples"]


_COMMANDS = {
    "volume": ("volume", "--object", "so", "--n", "2"),
    "growth-table": ("growth-table", "--n-max", "3"),
    "decompose": ("decompose", "--input", "m.json"),
    "reduce": ("reduce", "--input", "m.json"),
    "sample": ("sample", "--what", "rotation", "--n", "2"),
    "enumerate-intersections": ("enumerate-intersections", "--n", "2", "--max-height", "1",
                                "--budget", "0"),
    "bounds": ("bounds", "--n", "2"),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_takes_only_the_settings_it_reads(tmp_path, capsys, monkeypatch, command):
    # no command takes --threads; --seed belongs to the two commands that
    # draw random numbers, and only their reports echo a seed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
    argv = _COMMANDS[command]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    seeded = command in ("sample", "enumerate-intersections")
    assert ("seed" in json.loads(out.splitlines()[-1])["config"]) is seeded
    for extra in (argv + ("--threads", "1"), ("--threads", "1") + argv):
        assert run_cli(capsys, *extra)[:2] == (2, "")
    code, out, _ = run_cli(capsys, *argv, "--seed", "5")
    if seeded:
        assert code == 0 and json.loads(out.splitlines()[-1])["config"]["seed"] == 5
    else:
        assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        *[("volume", "--object", obj, "--n", "2", flag, "0.9")
          for obj in ("so", "quotient", "ratio", "symmetric", "harder", "norm-ratio")
          for flag in ("--t", "--lambda")],
        *[("sample", "--what", "rotation", "--n", "2", flag, "0.9")
          for flag in ("--t", "--lambda", "--b-min")],
        ("sample", "--what", "a-integral", "--n", "2", "--count", "2", "--lambda", "0.9"),
    ],
    ids=" ".join,
)
def test_flags_a_mode_does_not_read_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "MalformedConfigError"


def test_siegel_volume_echoes_the_parameters_it_read(capsys):
    argv = ("volume", "--object", "siegel", "--n", "3")
    result = json.loads(run_cli(capsys, *argv)[1])["result"]
    assert (result["t"], result["lambda"]) == (2.0 / math.sqrt(3.0), 0.5)
    result = json.loads(run_cli(capsys, *argv, "--t", "1.7", "--lambda", "0.3")[1])["result"]
    assert (result["t"], result["lambda"]) == (1.7, 0.3)


def test_siegel_volume_states_the_canonical_t_exactly(capsys):
    argv = ("volume", "--object", "siegel", "--n", "3")

    def expression(*flags):
        code, out, _ = run_cli(capsys, *argv, *flags)
        assert code == 0
        return json.loads(out)["result"]["expression"]

    # an absent --t is t^2 = 4/3 exactly, with or without --lambda
    assert expression() == "2^(11/2) * 3^(-2) * pi^2"
    assert expression("--lambda", "0.7") == "2^(11/2) * 3^(-2) * pi^2 * 1.4^3"
    # a float --t is that float: 1.5 folds into 2 and 3, the float of
    # 2/sqrt(3) is a labeled base
    assert expression("--t", "1.5") == "2^(-5/2) * 3^4 * pi^2"
    assert expression("--t", repr(2.0 / math.sqrt(3.0))) == "2^(3/2) * pi^2 * 1.1547005383792517^4"


def test_bounds_report_up_to_the_float_range(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "21")
    assert code == 0
    assert json.loads(out)["result"]["height_bound_variants"]["exponent_n2_minus_1"] < math.inf
    code, out, err = run_cli(capsys, "bounds", "--n", "22")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "ToleranceNotMetError" and "log_height_bound" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [*_COMMANDS.values(), ("volume", "--object", "ratio", "--n", "21"),
     ("volume", "--object", "quotient", "--n", "25")],
    ids=" ".join,
)
def test_every_document_is_strict_json(tmp_path, capsys, monkeypatch, argv):
    # run_cli parses every document strictly; a volume outside the double
    # range once printed "value":Infinity or "value":0.0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    result = _documents(out)[-1].get("result", {})
    if argv[1:3] == ("--object", "ratio"):
        assert result["value"] is None and result["log_value"] > 709.0
    elif argv[1:3] == ("--object", "quotient"):
        assert result["value"] is None and result["log_value"] < -745.0


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_pretty_writes_the_json_documents_indented(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
    code, out, _ = run_cli(capsys, *_COMMANDS[command])
    assert code == 0
    code, pretty, _ = run_cli(capsys, *_COMMANDS[command], "--format", "pretty")
    assert code == 0
    docs = _documents(out)
    assert _documents(pretty) == docs
    assert docs[-1]["command"] == command and "config" in docs[-1]
    assert pretty == "".join(json.dumps(d, sort_keys=True, indent=2) + "\n" for d in docs)
    if command == "enumerate-intersections":
        assert len(docs) > 1 and all("config" not in d for d in docs[:-1])


@pytest.mark.parametrize("command", [c for c in _COMMANDS if c != "growth-table"])
def test_only_growth_table_writes_csv(tmp_path, capsys, monkeypatch, command):
    # refused before anything is computed: decompose and reduce would
    # otherwise fail on their missing input file
    monkeypatch.chdir(tmp_path)
    argv = _COMMANDS[command]
    for extra in (("--format", "csv") + argv, argv + ("--format", "csv")):
        code, out, err = run_cli(capsys, *extra)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "MalformedConfigError"


@pytest.mark.parametrize("flag", ["--t", "--lambda"])
def test_enumerate_takes_no_siegel_parameters(capsys, flag):
    # its bounds are those of the canonical Siegel set alone
    argv = _COMMANDS["enumerate-intersections"] + (flag, "0.4")
    assert run_cli(capsys, *argv)[:2] == (2, "")


def test_sample_echoes_the_parameters_it_read(capsys):
    def result(*argv):
        code, out, _ = run_cli(capsys, "sample", "--n", "2", "--count", "2", *argv)
        assert code == 0
        return json.loads(out)["result"]

    point = result("--what", "point", "--t", "1.4", "--lambda", "0.7")
    assert (point["t"], point["lambda"], point["b_min"]) == (1.4, 0.7, 1.4 / 16)
    point = result("--what", "point")
    assert (point["t"], point["lambda"]) == (2.0 / math.sqrt(3.0), 0.5)
    estimate = result("--what", "a-integral", "--t", "1.4")
    assert estimate["t"] == 1.4 and "lambda" not in estimate
    rotation = result("--what", "rotation")
    assert "t" not in rotation and "lambda" not in rotation


def test_rotation_samples_are_sequential_haar_draws(capsys):
    code, out, _ = run_cli(capsys, "sample", "--what", "rotation", "--n", "3",
                           "--count", "4", "--seed", "7")
    assert code == 0
    stream = SharedStream(RngStream(7, 0).generator())
    expected = [matrix_to_json_dict(sample_haar_so_batch(3, 1, stream)[0]) for _ in range(4)]
    assert json.loads(out)["result"]["samples"] == expected


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_sample_refuses_a_seed_outside_the_seed_words(capsys, seed):
    # 2**64 drew the samples of seed 0, and -1 those of 2**64 - 1, each
    # echoing its own seed
    code, out, err = run_cli(capsys, "sample", "--what", "rotation", "--n", "2", "--seed", seed)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidArgumentError"


def test_report_lines_are_reports_to_jsonl_byte_for_byte(capsys):
    # a replay of the search may rebuild the CLI's report lines from the
    # library; every JSON document the CLI writes has the one compact layout
    code, out, _ = run_cli(capsys, "enumerate-intersections", "--n", "2", "--budget", "40",
                           "--seed", "1")
    assert code == 0
    *lines, summary = out.splitlines(keepends=True)
    reports, want = enumerate_intersections(2, budget_per_candidate=40, rng=RngStream(1, 0))
    assert "".join(lines) == reports_to_jsonl(reports)
    doc = json.loads(summary)
    assert doc["summary"] == want
    assert summary == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert any(json.loads(line)["witness"] for line in lines)


def test_sample_point_writes_a_log_weight_that_does_not_underflow(capsys):
    code, out, _ = run_cli(capsys, "sample", "--what", "point", "--n", "20", "--seed", "0")
    assert code == 0
    (sample,) = json.loads(out)["result"]["samples"]
    assert set(sample) == {"b", "u", "k", "log_weight"}
    assert -math.inf < sample["log_weight"] < 0.0
