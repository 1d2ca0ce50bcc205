"""Command-line interface: schemas, round trips, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from treefrac import coloring
from treefrac.cli import main
from treefrac.thompson import parse_element


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_group_mul_inverse_pair_gives_identity(capsys):
    doc = run_json(capsys, "group", "mul", "((..).)|(.(..))", "(.(..))|((..).)")
    assert doc["result"] == {"element": ".|.", "kind": "F"}


def test_group_kind_mismatch_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, "group", "mul", "(..)|(..)@1", "((..).)|(.(..))")
    assert code == 2
    assert "error:" in err


def test_parse_error_exits_2_with_position(capsys):
    code, _, err = run_cli(capsys, "plmap", "((..)|(.(..))")
    assert code == 2
    assert "position" in err


def test_coeff_edge3_x0(capsys):
    doc = run_json(capsys, "coeff", "--model", "edge3", "((..).)|(.(..))")
    assert doc["result"]["coefficient"] == "1/2"
    assert doc["result"]["count"] == 6


def test_coeff_face_and_chromatic_models(capsys):
    doc = run_json(capsys, "coeff", "--model", "face:3", "((..).)|(.(..))")
    assert doc["result"] == {"count": 0, "coefficient": "0"}
    doc = run_json(capsys, "coeff", "--model", "chromatic", "--d", "3", "((..).)|(.(..))")
    assert doc["result"]["value"] == "3/2"


def test_coeff_edge3_sweeps_once(capsys, monkeypatch):
    literal = "(((.((..).))(..)).)|((((..).)(..))(..))"
    calls = []
    count = coloring.count_proper_colorings

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(coloring, "count_proper_colorings", counted)
    code, out, _ = run_cli(capsys, "coeff", "--model", "edge3", literal)
    assert code == 0
    assert len(calls) == 1
    assert out == (
        '{\n  "config": {\n    "command": "coeff",\n    "format": "json",\n'
        '    "digits": null,\n    "nmax": null,\n    "model": "edge3",\n'
        f'    "d": null,\n    "element": "{literal}"\n  }},\n'
        '  "result": {\n    "count": 6,\n    "coefficient": "1/32"\n  }\n}\n'
    )


@pytest.mark.parametrize("model", ["face:0", "face:-1"])
def test_coeff_face_model_without_colors_exits_2(capsys, model):
    code, out, err = run_cli(capsys, "coeff", "--model", model, "((..).)|(.(..))")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_coeff_sweep_cap_exits_2(capsys, monkeypatch):
    literal = "(.(.((..).)))|(((.(..)).).)"
    assert run_json(capsys, "coeff", literal)["result"]["count"] > 0
    monkeypatch.setattr(coloring, "MAX_SWEEP_STATES", 2)
    code, out, err = run_cli(capsys, "coeff", literal)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "states" in err


def test_deeply_nested_literal_exits_2(capsys):
    depth = 1200
    comb = "(" * depth + "..)" + ".)" * (depth - 1)
    code, out, err = run_cli(capsys, "group", "reduce", f"{comb}|{comb}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_renorm_certify_d3_schema(capsys):
    doc = run_json(capsys, "renorm", "certify", "--d", "3")
    assert doc["result"]["M"] == "15/4"
    assert doc["result"]["certificate"] == {"n": 2, "K": "7/32", "MK": "105/128"}
    assert doc["result"]["steps"] == [
        {"n": 1, "l1": "3/4"},
        {"n": 2, "l1": "7/32"},
    ]
    assert doc["config"]["nmax"] == 64


def test_renorm_certify_failure_at_d2(capsys):
    doc = run_json(capsys, "renorm", "certify", "--d", "2", "--nmax", "8")
    assert "failure" in doc["result"]["certificate"]
    assert doc["result"]["certificate"]["failure"]["best_MK"] == "3"


def test_renorm_iterate(capsys):
    doc = run_json(capsys, "renorm", "iterate", "--d", "3", "--steps", "2")
    assert doc["result"]["steps"] == [
        {"n": 1, "l1": "3/4"},
        {"n": 2, "l1": "7/32"},
    ]


def test_renorm_iterate_stops_at_the_default_bit_guard(capsys):
    code, out, err = run_cli(capsys, "renorm", "iterate", "--d", "201/100", "--steps", "40")
    assert code == 2 and out == ""
    assert "exact norm at step 17 has 1745404 bits, past the 1048576-bit guard" in err


def test_renorm_scan_row_count_and_verdict(capsys):
    doc = run_json(
        capsys,
        "renorm",
        "scan",
        "--variant",
        "both",
        "--m-from",
        "5",
        "--m-to",
        "7",
        "--d3",
        "--digits",
        "40",
    )
    assert len(doc["result"]["rows"]) == 7  # 3 per variant + d3
    assert "minus" in doc["result"]["verdict"]


def test_scan_single_failure_row_at_d2(capsys):
    doc = run_json(
        capsys, "renorm", "scan", "--variant", "minus", "--m-from", "6", "--m-to", "6"
    )
    (row,) = doc["result"]["rows"]
    assert row["d"] == "2"
    assert "failure" in row


def test_byte_identical_reruns_in_exact_mode(capsys):
    _, out1, _ = run_cli(capsys, "renorm", "certify", "--d", "3")
    _, out2, _ = run_cli(capsys, "renorm", "certify", "--d", "3")
    assert out1 == out2
    _, scan1, _ = run_cli(capsys, "renorm", "scan", "--variant", "minus", "--m-from", "6", "--m-to", "8")
    _, scan2, _ = run_cli(capsys, "renorm", "scan", "--variant", "minus", "--m-from", "6", "--m-to", "8")
    assert scan1 == scan2


def test_duration_goes_to_stderr_not_stdout(capsys):
    code, out, err = run_cli(capsys, "renorm", "certify", "--d", "3")
    assert code == 0
    assert "completed in" in err
    assert "completed in" not in out


def test_plmap_output(capsys):
    doc = run_json(capsys, "plmap", "((..).)|(.(..))")
    assert doc["result"]["breakpoints"] == ["0->0", "1/2->1/4", "3/4->1/2", "1->1"]


def test_tree_subcommands(capsys):
    doc = run_json(capsys, "tree", "partition", "((..).)")
    assert doc["result"]["breakpoints"] == ["0", "1/4", "1/2", "1"]
    doc = run_json(capsys, "tree", "count", "8")
    assert doc["result"] == {"leaves": 8, "trees": 429}
    doc = run_json(capsys, "tree", "refine", "((..).)", "(.(..))")
    assert doc["result"]["refinement"] == "((..)(..))"
    doc = run_json(capsys, "tree", "compose", "(..)", "(..),.")
    assert doc["result"]["forest"] == "((..).)"


def test_tree_count_of_a_thousand_leaves(capsys):
    doc = run_json(capsys, "tree", "count", "1000")
    # C(999) by the reflection formula binom(2n, n) - binom(2n, n + 1).
    assert doc["result"]["trees"] == math.comb(1998, 999) - math.comb(1998, 1000)


def test_element_literals_printed_by_cli_reparse(capsys):
    for literal in ("((..).)|(.(..))", "(..)|(..)@1", "((..).)|((..).)%2 0 1"):
        doc = run_json(capsys, "group", "reduce", literal)
        el = parse_element(doc["result"]["element"])
        assert str(el) == doc["result"]["element"]


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "renorm", "iterate", "--d", "3", "--steps", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert "# command=renorm iterate" in lines[0]
    assert lines[-2:] == ["1,3/4", "2,7/32"]


def test_decay_subcommand(capsys):
    doc = run_json(capsys, "renorm", "decay", "--d", "3", "--steps", "4")
    assert doc["result"]["rows"][0]["l1"] == "3/4"
    code, _, err = run_cli(capsys, "renorm", "decay", "--d", "2", "--steps", "4")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv, rows",
    [
        (("decay", "--d", "3", "--steps", "13"), "rows"),
        (("iterate", "--d", "9/4", "--steps", "12"), "steps"),
    ],
)
def test_long_exact_rows_print_in_full(capsys, argv, rows):
    from decimal import Decimal
    from fractions import Fraction

    from treefrac.renorm import B1, iterate_norms

    # Interpreters before 3.10.7 have no int-string limit to respect.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)
    limit = digit_limit()
    doc = run_json(capsys, "renorm", *argv)
    assert digit_limit() == limit
    num, den = doc["result"][rows][-1]["l1"].split("/")
    assert max(len(num), len(den)) > limit
    # Decimal reads the digits back without the int-string limit too.  The
    # comparison is reduced to a bool so that a failure never prints an
    # integer past that limit.
    printed = Fraction(int(Decimal(num)), int(Decimal(den)))
    d, steps = Fraction(argv[2]), int(argv[4])
    same = printed == iterate_norms(B1, d, steps)[-1][1]
    assert same


def test_precision_error_exits_2(capsys, monkeypatch):
    from treefrac import renorm

    def blow_up(*args):
        raise renorm.PrecisionError("exact iteration exceeded 8 bits")

    monkeypatch.setattr(renorm, "iterate_norms", blow_up)
    code, out, err = run_cli(capsys, "renorm", "iterate", "--d", "9/4", "--steps", "3")
    assert code == 2 and out == ""
    assert err == "error: exact iteration exceeded 8 bits\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["renorm", "scan", "--m-from", "7", "--m-to", "7", "--digits", "0"], "digits must be at least 1, not 0"),
        (["renorm", "scan", "--m-from", "7", "--m-to", "7", "--digits", "-3"], "digits must be at least 1, not -3"),
        (["coeff", "--model", "chromatic", "--d", "1", "((..).)|(.(..))"], "the loop parameter must exceed 1"),
        (["renorm", "certify", "--d", "1/2"], "the loop parameter must exceed 1"),
        (["renorm", "certify", "--d", "x"], "cannot parse loop parameter 'x' as a rational"),
        (["renorm", "iterate", "--d", "1/0", "--steps", "2"], "cannot parse loop parameter '1/0' as a rational"),
    ],
)
def test_refusals_name_the_violated_domain(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_seed_environment_is_not_read(capsys, monkeypatch):
    # No command draws random numbers, so the CLI reads no seed variable
    # and takes no seed flag.
    monkeypatch.setenv("TREEFRAC_SEED", "x")
    doc = run_json(capsys, "tree", "count", "3")
    assert doc["result"] == {"leaves": 3, "trees": 2}
    assert "seed" not in doc["config"]
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "11", "tree", "count", "3"])
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["renorm", "certify", "--d", "3", "--bogus"])
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "treefrac.cli", "coeff", "((..).)|(.(..))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["coefficient"] == "1/2"
