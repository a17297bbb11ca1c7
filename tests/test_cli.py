import json
import math

import numpy as np
import pytest

from siegel.cli import DEFAULT_MC_SAMPLES, RunConfig, load_config, run
from siegel.haar import RngStream, sample_haar_so_batch
from siegel.errors import MalformedConfigError
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
    assert doc["config"]["seed"] == 7
    assert doc["config"]["tool_version"]
    assert "tolerances" in doc["config"]
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


def test_load_config_defaults_and_overrides(tmp_path):
    assert load_config(None) == RunConfig()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 42}))
    cfg = load_config(str(path))
    assert cfg.seed == 42 and cfg.output_format == "json"
    path.write_text(json.dumps({"seed": 1, "membership_tol": 1e-8, "max_iter": 50}))
    cfg = load_config(str(path))
    assert cfg.tolerances == {"membership_tol": 1e-8}
    assert cfg.budgets == {"max_iter": 50}


@pytest.mark.parametrize("key", ["det_tol", "ortho_tol", "recon_tol", "singular_tol", "witness_tol"])
def test_config_rejects_tolerances_nothing_applies(tmp_path, capsys, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 1e-8}))
    with pytest.raises(MalformedConfigError):
        load_config(str(path))
    code, _, err = run_cli(capsys, "--config", str(path), "bounds", "--n", "2")
    assert code == 1
    assert json.loads(err)["error"] == "MalformedConfigError"


def test_config_membership_tol_is_echoed_and_applied(tmp_path, capsys):
    # |u| sits 1e-4 inside lambda = 1/2: inside at the default slack of
    # 1e-9, on the boundary once the slack is 1e-3
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(matrix_to_json_dict(np.array([[1.0, 0.4999], [0.0, 1.0]]))))
    code, out, _ = run_cli(capsys, "decompose", "--input", str(matrix))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["tolerances"] == {}
    assert doc["result"]["membership"] == "inside"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"membership_tol": 1e-3}))
    code, out, _ = run_cli(capsys, "--config", str(path), "decompose", "--input", str(matrix))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["tolerances"] == {"membership_tol": 1e-3}
    assert doc["result"]["membership"] == "boundary"
    # no other command applies the slack, so none echoes it
    code, out, _ = run_cli(capsys, "--config", str(path), "reduce", "--input", str(matrix))
    assert code == 0
    assert json.loads(out)["config"]["tolerances"] == {}


@pytest.mark.parametrize(
    "config",
    [{"max_iter": 2.7}, {"seed": 1.9}, {"membership_tol": True}, {"membership_tol": "abc"},
     {"seed": True}],
)
def test_config_rejects_wrong_types(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(MalformedConfigError, match=repr(next(iter(config)))):
        load_config(str(path))
    code, _, err = run_cli(capsys, "--config", str(path), "bounds", "--n", "2")
    assert code == 1
    assert json.loads(err)["error"] == "MalformedConfigError"


@pytest.mark.parametrize(
    "key, flag_argv, value",
    [
        ("max_iter", ("reduce", "--input", "m.json", "--max-iter"), -1),
        ("budget_per_candidate", ("enumerate-intersections", "--n", "2", "--budget"), -3),
        ("mc_samples", ("sample", "--what", "a-integral", "--n", "2", "--count"), 0),
        ("mc_samples", ("sample", "--n", "2", "--count"), -2),
        ("mc_samples", ("sample", "--what", "rotation", "--n", "2", "--count"), 0),
        ("mc_samples", ("sample", "--what", "a-integral", "--n", "2", "--count"), 1),
    ],
)
def test_flags_follow_the_config_bounds(tmp_path, capsys, monkeypatch, key, flag_argv, value):
    # a budget below its least value fails alike as a flag and as a config
    # key, before any input is read, and nothing is printed on stdout; a
    # point or rotation --count is held to 1 on its own (mc_samples does
    # not apply to it)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
    code, out, err = run_cli(capsys, *flag_argv, str(value))
    assert code == 1 and out == ""
    least = {"max_iter": 0, "budget_per_candidate": 0, "mc_samples": 2}[key]
    message = f"budget {key} must be >= {least}"
    if key == "mc_samples" and "a-integral" not in flag_argv:
        message = "--count must be >= 1"
    assert json.loads(err) == {"error": "MalformedConfigError", "message": message}
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    with pytest.raises(MalformedConfigError, match=key):
        load_config("cfg.json")
    code, out, err = run_cli(capsys, "--config", "cfg.json", *flag_argv[:-1])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "MalformedConfigError"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(MalformedConfigError):
        load_config(str(path))


def test_load_config_reports_parse_position(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": }')
    with pytest.raises(MalformedConfigError) as exc_info:
        load_config(str(path))
    assert exc_info.value.line == 1
    assert exc_info.value.column is not None


def test_config_file_drives_run(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 11, "output_format": "pretty"}))
    sample = ("sample", "--what", "point", "--n", "2")
    code, out, _ = run_cli(capsys, "--config", str(path), *sample)
    assert code == 0
    assert '"seed": 11' in out  # pretty-printed
    # an explicit --seed beats the config's
    code, out, _ = run_cli(capsys, "--config", str(path), *sample, "--seed", "5")
    assert code == 0
    assert '"seed": 5' in out
    path.write_text(json.dumps({"seed": 11}))
    code, out, _ = run_cli(capsys, "--config", str(path), "enumerate-intersections",
                           "--n", "2", "--max-height", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == doc["summary"]["seed"] == 11


def test_malformed_config_is_a_clean_failure(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": }')
    code, _, err = run_cli(capsys, "--config", str(path), "bounds", "--n", "2")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "MalformedConfigError"
    assert doc["line"] == 1


def test_parser_rejects_global_flag_anywhere(capsys):
    # global flags are accepted both before and after the subcommand
    code1, out1, _ = run_cli(capsys, "--format", "csv", "growth-table", "--n-max", "3")
    code2, out2, _ = run_cli(capsys, "growth-table", "--n-max", "3", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2


def test_explicit_zero_budget_is_honoured(tmp_path, capsys):
    def budget(*argv):
        code, out, _ = run_cli(capsys, "enumerate-intersections", "--n", "2",
                               "--max-height", "1", "--seed", "3", *argv)
        assert code == 0
        return json.loads(out.strip().split("\n")[-1])["summary"]["budgets"]

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budget_per_candidate": 7}))
    assert budget("--budget", "0") == {"budget_per_candidate": 0}
    assert budget("--config", str(path), "--budget", "0") == {"budget_per_candidate": 0}
    assert budget("--config", str(path)) == {"budget_per_candidate": 7}
    assert budget() == {"budget_per_candidate": 400}
    path.write_text(json.dumps({"budget_per_candidate": 0}))
    assert budget("--config", str(path)) == {"budget_per_candidate": 0}


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
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_iter": 0}))
    code, out, _ = run_cli(capsys, "--config", str(config), "reduce", "--input", str(path))
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["iterations"] == 0 and doc["status"] != "reduced"


def test_explicit_count_beats_config_mc_samples(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mc_samples": 300}))

    def samples(*argv):
        code, out, _ = run_cli(capsys, "--config", str(path), "sample", "--what",
                               "a-integral", "--n", "2", *argv)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == result["report"]["samples"]
        return result["count"]

    assert samples("--count", "200") == 200
    assert samples() == 300


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
    (tmp_path / "cfg.json").write_text(json.dumps({"output_format": "csv"}))
    argv = _COMMANDS[command]
    for extra in (("--format", "csv") + argv, argv + ("--format", "csv"),
                  ("--config", "cfg.json") + argv):
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
