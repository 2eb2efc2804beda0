import json
import os
import shlex
from pathlib import Path

import pytest

from sposchur import asymptotics, cli, measures
from sposchur.cli import main
from sposchur.kernels import kernel_bessel_with_error

GOLDEN = Path(__file__).parent / "golden"


def run_cli(tmp_path, *argv) -> tuple[int, str]:
    out = tmp_path / "out.csv"
    code = main([*argv, "--output", str(out)])
    return code, (out.read_text() if out.exists() else "")


def test_verify_identities_golden(tmp_path):
    code, text = run_cli(
        tmp_path, "verify-identities", "--degree", "3", "--trials", "1", "--seed", "7"
    )
    assert code == 0
    assert text == (GOLDEN / "verify_identities_d3.csv").read_text()


def test_verify_identities_readme_golden(tmp_path):
    # the README command
    code, text = run_cli(
        tmp_path, "verify-identities", "--degree", "8", "--trials", "5", "--seed", "0"
    )
    assert code == 0
    assert text == (GOLDEN / "verify_identities_d8.csv").read_text()


def test_kernel_golden(tmp_path):
    code, text = run_cli(
        tmp_path, "kernel-eval", "--family", "o", "--rep", "bessel", "--theta", "0.5",
        "--range=-1:1",
    )
    assert code == 0
    assert text == (GOLDEN / "kernel_o_bessel.csv").read_text()


def test_th_dets_golden(tmp_path):
    code, text = run_cli(
        tmp_path, "th-dets", "--theta", "0.25", "--sizes", "1:3", "--which", "D1,D3"
    )
    assert code == 0
    assert text == (GOLDEN / "th_dets_plancherel.csv").read_text()


def _powersum_measure_argv(family: str) -> tuple:
    doc = {
        "family": family,
        "rho_plus": {"powersums": {"1": "1/3", "2": "-1/5"}},
        "rho_minus": {"powersums": {"1": "1/4", "3": "-1/7"}},
    }
    return ("--measure", json.dumps(doc), "--points", "0;-1,1;2", "--tol", "1e-6")


@pytest.mark.parametrize(
    "golden, argv",
    [
        # exact rational power sums: characters from integer Jacobi-Trudi rows
        ("correlations_powersum_sp.csv", _powersum_measure_argv("sp")),
        ("correlations_powersum_o_dual.csv", _powersum_measure_argv("o-dual")),
        # the README command: a float theta, so float rows and LU
        (
            "correlations_sp_float.csv",
            ("--family", "sp", "--theta", "0.3", "--points", "0;-1,1", "--tol", "1e-8"),
        ),
    ],
)
def test_correlations_golden(tmp_path, golden, argv):
    code, text = run_cli(tmp_path, "correlations", *argv)
    assert code == 0
    assert text == (GOLDEN / golden).read_text()


def test_plancherel_symbol_document_prints_the_theta_rows(tmp_path):
    # the kernel route follows the symbol's content, so the Plancherel pair
    # spelled out as power sums prints the rows of --theta 0.5, tail bounds
    # of the Bessel route (~1e-21) included
    pair = {"rho_plus": {"powersums": {"1": "1"}}, "rho_minus": {"powersums": {"1": "1/2"}}}
    doc = json.dumps(pair)
    code, text = run_cli(tmp_path, "bo-check", "--symbol", doc, "--m", "2:4")
    assert code == 0
    golden = (GOLDEN / "bo_check_plancherel.csv").read_text()
    assert text.splitlines()[1:] == golden.splitlines()[1:]  # all but the config line


_POWERSUM_SYMBOL = json.dumps({
    "rho_plus": {"powersums": {"1": "1/3", "2": "-1/5"}},
    "rho_minus": {"powersums": {"1": "1/4", "3": "-1/7"}},
})


@pytest.mark.parametrize(
    "golden, argv",
    [
        # a Plancherel symbol: Fredholm sections of the Bessel kernel
        ("bo_check_plancherel.csv", ("bo-check", "--theta", "0.5", "--m", "2:4")),
        # a power-sum symbol: Fredholm sections of the Fourier-mode kernel
        ("bo_check_powersum.csv", ("bo-check", "--symbol", _POWERSUM_SYMBOL, "--m", "2:4")),
        # the discrete column is a finite section at theta = 50
        ("tw_cdf_discrete_o.csv", ("tw-cdf", "--sign", "-", "--s=-1:0:1", "--theta", "50")),
    ],
)
def test_fredholm_golden(tmp_path, golden, argv):
    code, text = run_cli(tmp_path, *argv)
    assert code == 0
    assert text == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("command", ["th-dets", "bo-check"])
def test_alphabet_symbol_documents(command, capsys):
    # a BC alphabet rho+ puts |z| = 1 outside the annulus of f: the float
    # coefficients would belong to another symbol, so no row is printed
    bc = {"rho_plus": {"x": ["1/2"]}, "rho_minus": {"y": ["1/3", "-1/4"]}}
    assert main([command, "--symbol", json.dumps(bc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unit circle lies outside the annulus" in err
    plain = {"rho_plus": {"y": ["1/3", "1/7"]}, "rho_minus": {"y": ["1/4"]}}
    assert main([command, "--symbol", json.dumps(plain)]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[1] == "family,n_or_m,lhs,rhs,gap,tail_bound"
    assert len(out.splitlines()) > 2


def test_bc_symbol_documents_have_d2_d4_rows(capsys):
    # f~ = E(rho+; z) E(rho-; 1/z) has no pole off 0 and infinity, so the
    # width-bounded rows of a BC alphabet rho+ are printed
    bc = {"rho_plus": {"x": ["1/2"]}, "rho_minus": {"y": ["1/3", "-1/4"]}}
    assert main(["th-dets", "--which", "D2,D4", "--symbol", json.dumps(bc)]) == 0
    out, _ = capsys.readouterr()
    rows = out.splitlines()[2:]
    assert [row.split(",")[:2] for row in rows] == [
        [which, str(n)] for which in ("D2", "D4") for n in range(2, 13)
    ]


@pytest.mark.parametrize(
    "good, bad, message",
    [
        # the string "false" is truthy: read as a flag it would add the letter 1
        ({"x": ["1/2"], "include_one": False}, {"x": ["1/2"], "include_one": "false"},
         "include_one must be true or false"),
        # JSON true is a Python int, so it would read as the power sum 1
        ({"powersums": {"1": 1}}, {"powersums": {"1": True}}, "must be numbers"),
    ],
)
def test_symbol_documents_refuse_non_boolean_flags_and_boolean_values(good, bad, message, capsys):
    argv = ["th-dets", "--which", "D2,D4", "--sizes", "1:3", "--symbol"]
    rho_minus = {"y": ["1/3", "-1/4"]}
    assert main([*argv, json.dumps({"rho_plus": good, "rho_minus": rho_minus})]) == 0
    capsys.readouterr()
    assert main([*argv, json.dumps({"rho_plus": bad, "rho_minus": rho_minus})]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def _readme_commands() -> list[str]:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sposchur ")]


def test_readme_has_eight_commands():
    assert len(_readme_commands()) == 8


# the echoes of the two scans, which no golden file pins
_README_ECHOES = {
    "bulk-scan": '# config: {"alpha": 0.0, "command": "bulk-scan", "family": "sp", '
    '"offsets": "-3:3:1", "theta": "50,200,800"}',
    "edge-scan": '# config: {"command": "edge-scan", "family": "o", "grid": "-2:2:1", '
    '"theta": "50,200,800"}',
}


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_runs(tmp_path, command):
    argv = shlex.split(command)[1:]
    code, text = run_cli(tmp_path, *argv)
    assert code == 0, command
    assert text.startswith("# config: "), command
    if argv[0] in _README_ECHOES:
        assert text.split("\n", 1)[0] == _README_ECHOES[argv[0]]


def test_byte_identical_reruns(tmp_path):
    args = ("verify-identities", "--degree", "2", "--trials", "1", "--seed", "3")
    _, first = run_cli(tmp_path, *args)
    _, second = run_cli(tmp_path, *args)
    assert first == second


def test_kernel_eval_routes_agree_entry_by_entry(tmp_path):
    code, text = run_cli(
        tmp_path, "kernel-eval", "--family", "sp", "--rep", "contour,bessel,fourier",
        "--theta", "1", "--range=-5:5",
    )
    assert code == 0
    rows = {}
    for line in text.strip().split("\n")[2:]:
        _, rep, a, b, value, err = line.split(",")
        rows[rep, int(a), int(b)] = (value, err)
    assert len(rows) == 3 * 11 * 11
    for a in range(-5, 6):
        for b in range(-5, 6):
            value, err = rows["bessel", a, b]
            assert (value, err) == tuple(map(str, kernel_bessel_with_error(1.0, "sp", a, b)))
            assert abs(float(rows["fourier", a, b][0]) - float(value)) <= 1e-15
            contour, contour_err = map(float, rows["contour", a, b])
            assert abs(contour - float(value)) <= contour_err + 1e-12


def test_kernel_eval_rejects_bad_rep_lists_before_evaluating(tmp_path, capsys, monkeypatch):
    def evaluated(*args):
        raise AssertionError("a kernel was evaluated")

    for name in ("kernel_bessel_with_error", "kernel_contour_with_error",
                 "kernel_fourier_with_error"):
        monkeypatch.setattr(cli, name, evaluated)
    for rep, message in (("bessel,bessel", "twice"), ("contour,foo", "'foo'")):
        code, text = run_cli(tmp_path, "kernel-eval", "--rep", rep, "--theta", "1")
        assert code == 2 and text == "", rep
        assert message in capsys.readouterr().err, rep


def test_csv_schema_and_config_echo(tmp_path):
    code, text = run_cli(
        tmp_path, "correlations", "--family", "sp", "--theta", "0.2", "--points", "0"
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config: ")
    echoed = json.loads(lines[0][len("# config: "):])
    assert echoed["command"] == "correlations"
    assert lines[1] == "points,cutoff,value,est_tail"
    fields = lines[2].split(",")
    assert len(fields) == 4
    float(fields[2])  # parseable value column


def test_bo_exit_code_on_tolerance_failure(tmp_path):
    code, _ = run_cli(
        tmp_path, "bo-check", "--family", "sp", "--theta", "0.5", "--m", "2:2",
        "--tol", "1e-30",
    )
    assert code == 1


def test_config_error_exit_codes(tmp_path):
    code, _ = run_cli(tmp_path, "correlations", "--points", "0")
    assert code == 2
    code2, _ = run_cli(tmp_path, "correlations", "--points", "0", "--measure", "{bad json")
    assert code2 == 2
    assert main(["not-a-command"]) == 2


def test_measure_json_file(tmp_path):
    doc = {
        "family": "sp",
        "rho_plus": {"powersums": {"1": "1"}, "truncation_degree": None},
        "rho_minus": {"powersums": {"1": "1/2"}, "truncation_degree": None},
    }
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(
        tmp_path, "correlations", "--measure", str(path), "--points", "0"
    )
    assert code == 0
    assert "points,cutoff,value,est_tail" in text


def test_verify_identities_degree_zero_vacuous(tmp_path):
    code, text = run_cli(
        tmp_path, "verify-identities", "--degree", "0", "--trials", "1", "--seed", "1"
    )
    assert code == 0
    assert "FAIL" not in text


def test_verify_identities_rejects_negative_counts(tmp_path, capsys):
    for flag in ("--degree", "--trials"):
        code, text = run_cli(tmp_path, "verify-identities", flag, "-1")
        assert code == 2 and text == ""
        assert f"{flag} must be >= 0" in capsys.readouterr().err


def test_empty_ranges_and_zero_steps_are_config_errors(tmp_path, capsys):
    for argv in (
        ("edge-scan", "--theta", "50", "--grid=-2:2:0"),
        ("edge-scan", "--theta", "50", "--grid=-2:2:-1"),
        ("bulk-scan", "--theta", "50", "--offsets=-3:3:0"),
        ("tw-cdf", "--s=-6:4:0"),
        ("tw-cdf", "--s=0:inf:1"),
        ("bo-check", "--theta", "0.5", "--m", "8:2"),
        ("th-dets", "--theta", "0.25", "--sizes", "3:1"),
        ("kernel-eval", "--theta", "1", "--range=5:1"),
        ("kernel-eval", "--theta", "1", "--range=1"),
        ("kernel-eval", "--theta", "1", "--radii", "1.2"),
        ("kernel-eval", "--theta", "1", "--radii", "1.2,0.8,3"),
    ):
        code, text = run_cli(tmp_path, *argv)
        assert code == 2 and text == "", argv
        err = capsys.readouterr().err
        assert argv[-1].split("=")[-1] in err
        if argv[-2] == "--radii":
            assert "--radii" in err
    # a descending grid is a valid one
    code, text = run_cli(tmp_path, "tw-cdf", "--sign", "+", "--s", "1:0:-1")
    assert code == 0
    assert [line.split(",")[0] for line in text.strip().split("\n")[2:]] == ["1.0", "0.0"]


def test_bulk_scan_rejects_non_integer_offsets(tmp_path, capsys):
    code, text = run_cli(tmp_path, "bulk-scan", "--theta", "50", "--offsets=-1:1:0.5")
    assert code == 2 and text == ""
    assert "--offsets" in capsys.readouterr().err


def test_stepped_integer_ranges_name_the_accepted_forms(tmp_path, capsys):
    for argv in (
        ("th-dets", "--theta", "0.25", "--sizes", "2:8:2"),
        ("bo-check", "--theta", "0.5", "--m", "2:8:2"),
    ):
        code, text = run_cli(tmp_path, *argv)
        assert code == 2 and text == "", argv
        assert "expected lo:hi, a comma list, or one integer" in capsys.readouterr().err


def _config_error(tmp_path, capsys, *argv) -> str:
    code, text = run_cli(tmp_path, *argv)
    assert code == 2 and text == "", argv
    return capsys.readouterr().err


def test_malformed_grids_name_the_flag_and_forms(tmp_path, capsys):
    for argv in (
        ("edge-scan", "--theta", "50", "--grid=-2:2"),
        ("tw-cdf", "--s=-1:1"),
        ("bulk-scan", "--theta", "50", "--offsets=-1:1"),
        ("edge-scan", "--theta", "50", "--grid=a,b"),
    ):
        err = _config_error(tmp_path, capsys, *argv)
        flag, value = argv[-1].split("=")
        assert f"{flag} {value!r}: expected lo:hi:step or a comma list" in err, argv


def test_malformed_kernel_range_names_the_flag(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, "kernel-eval", "--theta", "1", "--range=a:b")
    assert "--range 'a:b': need lo:hi, two integers" in err


def test_malformed_integer_ranges_name_the_flag(tmp_path, capsys):
    for argv in (
        ("th-dets", "--theta", "0.25", "--sizes", "a"),
        ("bo-check", "--theta", "0.5", "--m", "2,x"),
    ):
        err = _config_error(tmp_path, capsys, *argv)
        assert f"{argv[-2]} {argv[-1]!r}: expected lo:hi, a comma list" in err, argv


def test_malformed_number_lists_name_the_flag(tmp_path, capsys):
    for command in ("bulk-scan", "edge-scan"):
        err = _config_error(tmp_path, capsys, command, "--theta", "50,abc")
        assert "--theta '50,abc': expected a comma list of numbers" in err, command


def test_malformed_point_sets_name_the_flag(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, "correlations", "--theta", "0.3", "--points", "0;a")
    assert "--points '0;a'" in err


@pytest.mark.parametrize("tol", ["0", "-1e-8", "nan"])
def test_correlations_tol_that_cannot_be_met_exits_2(tmp_path, capsys, monkeypatch, tol):
    # a small budget makes an enumeration that never stops fail fast instead
    monkeypatch.setattr(measures, "_PARTITION_BUDGET", 10)
    err = _config_error(
        tmp_path, capsys, "correlations", "--theta", "0.3", "--points", "0", f"--tol={tol}"
    )
    assert "tol must be a positive finite number" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bo_tol_that_is_not_positive_and_finite_exits_2(tmp_path, capsys, monkeypatch, tol):
    # refused before any symbol or window is built
    monkeypatch.setattr(cli, "bo_check", None)
    err = _config_error(tmp_path, capsys, "bo-check", "--theta", "0.5", f"--tol={tol}")
    assert "--tol must be a positive finite number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("correlations", "--theta=inf", "--points", "0"),
        ("correlations", "--theta=nan", "--points", "0"),
        ("th-dets", "--theta=nan"),
        ("bo-check", "--theta=-inf"),
        ("kernel-eval", "--theta=nan"),
    ],
)
def test_non_finite_theta_exits_2(tmp_path, capsys, monkeypatch, argv):
    # a small budget makes an enumeration that would never stop fail fast instead
    monkeypatch.setattr(measures, "_PARTITION_BUDGET", 10)
    err = _config_error(tmp_path, capsys, *argv)
    assert "specialization values must be finite" in err


def test_single_integer_and_comma_list_ranges(tmp_path):
    code, text = run_cli(tmp_path, "th-dets", "--theta", "0.25", "--which", "D1", "--sizes", "3")
    assert code == 0
    assert [row.split(",")[:2] for row in text.splitlines()[2:]] == [["D1", "3"]]
    code, text = run_cli(tmp_path, "bo-check", "--family", "sp", "--theta", "0.5", "--m", "2,4")
    assert code == 0
    assert [row.split(",")[:2] for row in text.splitlines()[2:]] == [["sp", "2"], ["sp", "4"]]


@pytest.mark.parametrize("command", ["th-dets", "bo-check"])
def test_symbol_commands_need_a_symbol_or_theta(tmp_path, capsys, command):
    err = _config_error(tmp_path, capsys, command)
    assert "either --symbol or --theta is required" in err


def test_edge_scaling_rejects_nonpositive_theta(tmp_path, capsys):
    for argv in (
        ("edge-scan", "--theta", "-5"),
        ("tw-cdf", "--theta", "-1"),
        ("tw-cdf", "--theta", "0"),
    ):
        code, text = run_cli(tmp_path, *argv)
        assert code == 2 and text == "", argv
        assert "theta" in capsys.readouterr().err


def test_non_finite_edge_coordinates_exit_2(tmp_path, capsys):
    for argv in (
        ("tw-cdf", "--s=inf"),
        ("tw-cdf", "--s=nan"),
        ("tw-cdf", "--s=-inf", "--theta", "200"),
        ("tw-cdf", "--s=nan", "--theta", "200"),
        ("edge-scan", "--theta", "50", "--grid=inf"),
        ("edge-scan", "--theta", "50", "--grid=0,nan"),
    ):
        code, text = run_cli(tmp_path, *argv)
        assert code == 2 and text == "", argv
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err, argv


def test_edge_scan_below_the_airy_domain_exits_2(tmp_path, capsys):
    # airy_2to1 integrates Ai(y + s) for s up to 80, so y must be >= -64
    code, text = run_cli(tmp_path, "edge-scan", "--theta", "50", "--grid=-70:-69:1")
    assert code == 2 and text == ""
    assert "y >= -64" in capsys.readouterr().err


def test_tw_command_without_theta(tmp_path):
    code, text = run_cli(tmp_path, "tw-cdf", "--sign", "+", "--s", "0:1:1")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == "s,s_eff,discrete,limit,abs_error"
    assert len(lines) == 4
    # the limit is taken at s itself; no discrete side, no s_eff
    for line in lines[2:]:
        s, s_eff, disc, lim, err = line.split(",")
        assert (s_eff, disc, err) == ("", "", "")
        assert float(lim) == asymptotics.tw_2to1_cdf("+", float(s))


def test_tw_command_rows_check_themselves(tmp_path):
    # with --theta every row's limit is taken at its s_eff, so abs_error is
    # |discrete - limit| of the printed columns, bit for bit
    for sign, family in (("+", "sp"), ("-", "o")):
        code, text = run_cli(tmp_path, "tw-cdf", "--sign", sign, "--s=-2:1:1", "--theta", "50")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[1] == "s,s_eff,discrete,limit,abs_error"
        assert len(lines) == 6
        for line in lines[2:]:
            s, s_eff, disc, lim, err = map(float, line.split(","))
            assert s_eff == asymptotics.edge_cdf_effective_s(family, 50.0, s)
            assert err == abs(disc - lim), line


def test_config_file_defaults_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 0.5, "sizes": "1:2", "which": "D1"}))
    code, text = run_cli(tmp_path, "th-dets", "--config", str(cfg))
    assert code == 0
    assert text.count("\nD1,") == 2
    # flag overrides config, abbreviated too
    for flag in ("--which", "--whi"):
        code2, text2 = run_cli(tmp_path, "th-dets", "--config", str(cfg), flag, "D3")
        assert code2 == 0
        assert "\nD3," in text2 and "\nD1," not in text2, flag
    code3, _ = run_cli(tmp_path, "th-dets", "--config", str(tmp_path / "nope.json"))
    assert code3 == 2


def test_config_file_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # file values go through the option's type: the report is the flag form's
    for doc, argv in (
        ({"theta": "0.5", "sizes": "1:2"}, ("th-dets", "--theta", "0.5", "--sizes", "1:2")),
        ({"theta": "50", "s": "0:1:1"}, ("tw-cdf", "--theta", "50", "--s", "0:1:1")),
        ({"theta": 50, "offsets": "0:1:1"}, ("bulk-scan", "--theta", "50", "--offsets", "0:1:1")),
    ):
        cfg.write_text(json.dumps(doc))
        from_file = run_cli(tmp_path, argv[0], "--config", str(cfg))
        assert from_file[0] == 0 and from_file == run_cli(tmp_path, *argv), doc
    # a value argparse rejects is a config error, like a bad flag
    cfg.write_text(json.dumps({"degree": "x"}))
    assert main(["verify-identities", "--config", str(cfg)]) == 2
    assert "--degree" in capsys.readouterr().err


def test_config_file_shapes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for doc, message in (
        (["theta", 0.5], "config file must hold a JSON object"),
        ({"theta": 0.5, "colour": "red"}, "config key 'colour' unknown for this command"),
    ):
        cfg.write_text(json.dumps(doc))
        assert message in _config_error(tmp_path, capsys, "th-dets", "--config", str(cfg))
    # `output` and `config` keys are ignored: the report goes to stdout
    ignored = tmp_path / "ignored.csv"
    doc = {"theta": 0.25, "sizes": "1:2", "output": str(ignored), "config": "other.json"}
    cfg.write_text(json.dumps(doc))
    assert main(["th-dets", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["th-dets", "--theta", "0.25", "--sizes", "1:2"]) == 0
    assert from_file == capsys.readouterr().out
    assert not ignored.exists()
