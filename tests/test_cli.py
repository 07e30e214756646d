import argparse
import dataclasses
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ulamset import Bound, cli, core, generate, validate_config
from ulamset.cli import (
    parse_point_list,
    parse_symbol_table,
    parse_symbolic_vectors,
    run,
    scatter_svg,
    set_to_csv,
)
from ulamset.cyclic import generate_cyclic

README = Path(__file__).resolve().parents[1] / "README.md"


def _usage_error(capsys, argv) -> str:
    """Run argv, check it exits 2 with an error and no output; return stderr."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err
    return captured.err


def test_parse_point_list():
    assert parse_point_list("(1,0),(2,0),(0,1)") == [(1, 0), (2, 0), (0, 1)]
    assert parse_point_list("1,2") == [(1,), (2,)]
    assert parse_point_list("(1,0,0),(0,1,0)") == [(1, 0, 0), (0, 1, 0)]


@pytest.mark.parametrize("text", ["", ",", " , "])
def test_parse_point_list_rejects_text_without_points(text):
    with pytest.raises(ValueError, match="could not parse point list"):
        parse_point_list(text)


@pytest.mark.parametrize("text", [
    "(1,0),(0,1", "(1,0),(0,1),(1,1", "(1,0)x(0,1)", "((1,0),(0,1))", "(1,0),0,1",
])
def test_malformed_vector_lists_are_refused(text):
    with pytest.raises(ValueError, match="malformed vector list"):
        parse_point_list(text)
    with pytest.raises(ValueError, match="malformed vector list"):
        parse_symbolic_vectors(text, {})


def test_vector_lists_may_space_their_groups():
    for text in (" (1,0) , (0,1) ", "(1,0) (0,1)", "(1,0),(0,1),"):
        assert parse_point_list(text) == [(1, 0), (0, 1)]
        assert len(parse_symbolic_vectors(text, {})) == 2


def test_parse_symbolic_vectors():
    symbols = parse_symbol_table("sqrt2=1.41421356")
    vecs = parse_symbolic_vectors("(1,0),(1,1*sqrt2)", symbols)
    assert vecs[1].entries[1][1] == 1  # coefficient on sqrt2
    vecs = parse_symbolic_vectors("(2+1*sqrt2,0),(1,sqrt2)", symbols)
    assert vecs[0].entries[0] == (2, 1)


def test_csv_round_trip():
    s = generate(validate_config([(1, 0), (2, 0), (0, 1)], 2), Bound.box((15, 15)))
    header, *rows = set_to_csv(s).splitlines()
    assert header == "x,y"
    assert tuple(tuple(map(int, row.split(","))) for row in rows) == s.points


def test_generate_csv_golden_head(capsys):
    assert run(["generate", "--init", "(1,0),(0,1)", "--box", "6,6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:6] == ["x,y", "0,1", "1,0", "1,1", "1,2", "2,1"]


def test_generate_json_includes_reproducibility_fields(capsys):
    assert run(
        ["generate", "--init", "(1,0),(0,1)", "--box", "5,5", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == {"box": [5, 5]}
    assert doc["size"] == "coordinate-sum"
    assert "version" in doc and doc["config"]["initials"] == [[1, 0], [0, 1]]


def test_config_file_input(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dim": 2,
        "initials": [[1, 0], [0, 1]],
        "bound": {"box": [6, 6]},
        "size": "sum",
    }))
    assert run(["generate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x,y"


def test_config_file_bound_yields_to_box_and_level(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"initials": [[1, 0], [0, 1]], "bound": {"box": [6, 6]}}))
    assert run(["generate", "--config", str(cfg), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == {"box": [6, 6]}
    assert run(["generate", "--config", str(cfg), "--box", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == {"box": [4, 4]}
    assert run(["generate", "--config", str(cfg), "--level", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == {"level": 3}


def test_config_file_weights_match_the_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "initials": [[1, 0], [0, 1]],
        "bound": {"level": 12},
        "size": "weighted",
        "weights": [1, "3/2"],
    }))
    assert run(["generate", "--config", str(cfg), "--format", "json"]) == 0
    from_file = capsys.readouterr().out
    assert run(["generate", "--init", "(1,0),(0,1)", "--level", "12",
                "--size", "weighted", "--weights", "1,3/2", "--format", "json"]) == 0
    assert from_file == capsys.readouterr().out
    assert json.loads(from_file)["size"] == "weighted-sum"


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"bound": {"box": [5, 5]}},
    {"initials": [], "bound": {"box": [5, 5]}},
    {"initials": [[1, 0], [0, 1]], "bound": {"box": "5,5"}},
    {"initials": [[1, 0], [0, 1]], "bound": {"level": "5"}},
    {"initials": [[1, 0], [0, 1]], "bound": [5, 5]},
    {"initials": [[1, "a"], [0, 1]], "bound": {"box": [5, 5]}},
    {"initials": [[1, 0], [0, 1]], "bound": {"box": [5, 5]}, "weights": [[1]]},
    {"initials": [[1, 0], [0, 1]], "bound": {"box": [5, 5]}, "weights": [0.5]},
    {"initials": [[1, 3]], "modulus": "6"},
    {"dim": 3, "initials": [[1, 0], [0, 1]], "bound": {"box": [5, 5]}},
])
def test_malformed_config_file_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert _usage_error(capsys, ["generate", "--config", str(cfg)]).startswith("error: ")


def test_verify_exit_codes(capsys):
    assert run(["verify", "theorem1", "--box", "20,20"]) == 0
    assert run(["verify", "two-generators", "--box", "20,20"]) == 0
    capsys.readouterr()


def test_verify_degenerate_extra_vector_generates_the_requested_set(monkeypatch, capsys):
    # (5,7) lies in the two-generator set, so the oracle is the plain
    # lattice, but the set generated is still {(1,0),(0,1),(5,7)}
    seen = []

    def recording_generate(cfg, bound, *rest):
        seen.append(cfg.initials)
        return generate(cfg, bound, *rest)

    monkeypatch.setattr(cli, "generate", recording_generate)
    assert run(["verify", "extra-vector", "--m", "5", "--n", "7", "--box", "30,30"]) == 0
    assert seen == [((1, 0), (0, 1), (5, 7))]
    assert capsys.readouterr().out.startswith("verified: two-generators on ")


def test_equiv_exit_codes(capsys):
    assert run(["equiv", "--a", "(1,0),(0,1),(1,1)", "--b", "(2,0),(0,2),(2,2)"]) == 0
    assert run(["equiv", "--a", "(1,0),(0,1),(1,1)", "--b", "(1,0),(0,1),(1,2)"]) == 1
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run(["generate"]) == 2  # no initials, no config
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bound", [["--box", "9,9"], ["--level", "30", "--size", "euclidean"]])
def test_generate_over_the_cell_limit_exits_2(monkeypatch, capsys, bound):
    monkeypatch.setattr(core, "_MAX_BYTES", 20)
    assert run(["generate", "--init", "(1,0),(0,1)", *bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "limit of 20" in captured.err


@pytest.mark.parametrize("size,named", [
    (["--size", "euclidean"], "euclidean-norm-squared level 100000000 in dimension 2, "
     "the 10001x10001 box, a 10001x20001 grid: 400060002 bytes"),
    (["--size", "weighted", "--weights", "1,2"], "weighted-sum level 100000000 in dimension 2, "
     "the 100000001x50000001 box, a 100000001x100000001 grid: 20000000400000002 bytes"),
])
def test_a_refused_level_bound_names_its_level_and_size(capsys, size, named):
    assert run(["generate", "--init", "(1,0),(0,1)", "--level", "100000000", *size]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}, over the limit of 300000000\n"


def test_columns_cli_json(capsys):
    code = run([
        "columns", "--init", "(1,0),(0,1)", "--box", "9,60", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == []
    periods = {p["index"]: p["period"] for p in doc["profiles"]}
    assert periods[3] == 2


def test_columns_cli_table_summaries(capsys):
    code = run(["columns", "--init", "(1,0),(2,0),(0,1)", "--box", "20,400"])
    assert code == 0
    tail = capsys.readouterr().out.splitlines()[-3:]
    assert tail == [
        "nonempty columns: [1, 4, 6, 9, 14, 20]",
        "period   1: 16 columns (0, 1, 2, 3, 5, 7, 8, 10, 11, 12, 13, 15, 16, 17...)",
        "period   2: 5 columns (4, 6, 9, 14, 20)",
    ]


def test_signal_cli_alpha(capsys):
    code = run([
        "signal", "--init", "1,2", "--terms", "3000", "--alpha", "2.5714474995",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sign_exceptions"] == [2, 3, 47, 69]
    assert -0.85 < doc["normalized_sum"] < -0.70


def test_signal_cli_scan(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code = run(["signal", "--init", "1,2", "--terms", "5000", "--csv-out", str(csv)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["best_alpha"] - 2.571447) < 1e-4
    assert doc["sign_exceptions"] == [2, 3, 47, 69]
    rows = csv.read_text().splitlines()
    assert rows[0] == "alpha,normalized_sum"
    assert len(rows) > 1000


@pytest.mark.parametrize("step", ["--coarse-step=0", "--coarse-step=-1e-5"])
def test_signal_cli_rejects_nonpositive_coarse_step(capsys, step):
    assert run(["signal", "--init", "1,2", "--terms", "200", step]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_signal_cli_refuses_a_scan_over_the_budget(capsys):
    """At the step 1e-9 the scan needs M = 2**33, about 240 GB: one error
    line, no traceback."""
    assert run(["signal", "--terms", "200", "--coarse-step", "1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: a scan of 200 terms up to 1792 at step 1e-09: ")
    assert line.endswith("bytes, over the limit of 300000000")


def test_signal_cli_rejects_zero_csv_points(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code = run(["signal", "--init", "1,2", "--terms", "200",
                "--csv-out", str(csv), "--csv-points", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv.exists()


def test_signal_cli_row_mode(capsys):
    # row 1 of {(1,0),(0,1)} is (x,1) for every x, so the scanned sequence
    # is 1..40; just below pi the cosine is about (-1)^x
    code = run(["signal", "--set-init", "(1,0),(0,1)", "--box", "40,40", "--row", "1",
                "--alpha", "3.141592653589793"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"] == 40
    assert doc["sign_exceptions"] == list(range(2, 41, 2))
    assert abs(doc["normalized_sum"]) < 1e-12
    # row 0 holds only (1,0)
    assert run(["signal", "--set-init", "(1,0),(0,1)", "--box", "40,40", "--row", "0"]) == 1
    assert "too few members" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-2"])
def test_columns_cli_rejects_step_below_one(capsys, step):
    assert run(["columns", "--init", "(1,0),(0,1)", "--box", "5,20", "--step", step]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("period", ["0", "-1"])
def test_columns_cli_rejects_max_period_below_one(capsys, period):
    assert run(["columns", "--init", "(1,0),(0,1)", "--box", "5,20",
                "--max-period", period]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_period" in captured.err


def test_generate_cli_names_zero_term_count(capsys):
    assert run(["generate", "--init", "1,2", "--terms", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_terms=0 is smaller than the 2 initial terms" in captured.err


def test_embed_and_normalize_cli(capsys):
    assert run(["embed", "--init", "(1,0),(1,1*sqrt2)",
                "--symbols", "sqrt2=1.4142135623730951"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2
    assert run(["normalize", "--init", "(2,5),(3,1)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, doc["initials"])) == [(0, 13), (9, 0)]


def test_svg_deterministic():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((12, 12)))
    a = scatter_svg(s.points, s.dim)
    b = scatter_svg(s.points, s.dim)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert a.count("<circle") == len(s)


def test_svg_empty_and_3d_projection(tmp_path):
    import dataclasses

    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((5, 5)))
    empty = dataclasses.replace(s, coords=())
    text = scatter_svg(empty.points, empty.dim)
    assert "<circle" not in text and "<line" in text

    s3 = generate(validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
                  Bound.level(12))
    text = scatter_svg(s3.points, s3.dim, projection="complement")
    assert text.count("<circle") == len(s3)


@pytest.mark.parametrize("dim,projection", [(4, "xy"), (2, "oblique")])
def test_scatter_svg_refuses_what_it_cannot_draw(dim, projection):
    with pytest.raises(ValueError, match="cannot render"):
        scatter_svg([(1,) * dim], dim, projection=projection)


def test_plot_cli(tmp_path):
    out = tmp_path / "s.svg"
    assert run(["generate", "--init", "(1,0),(0,1)", "--box", "10,10",
                "--format", "svg", "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_svg_out_file_matches_stdout(tmp_path, capsys):
    argv = ["generate", "--init", "(1,0,0),(0,1,0),(0,0,1)", "--level", "10",
            "--format", "svg", "--projection", "complement", "--radius", "2"]
    assert run(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "s.svg"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == text
    s3 = generate(validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3), Bound.level(10))
    assert text == scatter_svg(s3.points, 3, 2.0, "complement")


def test_cyclic_svg_cli(capsys):
    assert run(["generate", "--cyclic", "6", "--init", "(1,3),(3,4)",
                "--x-bound", "20", "--format", "svg"]) == 0
    cset = generate_cyclic([(1, 3), (3, 4)], 6, 20)
    assert capsys.readouterr().out == scatter_svg(cset.points, 2)


def test_svg_of_a_term_sequence_exits_2_before_generating(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("the sequence was generated")

    monkeypatch.setattr(cli, "ulam_sequence", fail)
    err = _usage_error(capsys, ["generate", "--init", "1,2", "--terms", "10",
                                "--format", "svg"])
    assert "--terms" in err


@pytest.mark.parametrize("init,dim", [("1,2", 1), ("(1,0,0,0),(0,0,0,1)", 4)])
def test_svg_of_an_unplottable_dimension_exits_2_before_generating(
        monkeypatch, capsys, init, dim):
    def fail(*args):
        raise AssertionError("the set was generated")

    monkeypatch.setattr(cli, "generate", fail)
    err = _usage_error(capsys, ["generate", "--init", init, "--box", "6",
                                "--format", "svg"])
    assert f"dimension {dim}" in err


@pytest.mark.parametrize("argv,flag", [
    (["--init", "(1,0),(0,1)", "--box", "3,4", "--terms", "5"], "--terms"),
    (["--cyclic", "6", "--init", "(1,3),(3,4)", "--box", "5,5"], "--box"),
    (["--cyclic", "6", "--init", "(1,3),(3,4)", "--level", "9"], "--level"),
    (["--init", "1,2", "--terms", "8", "--box", "3"], "--box"),
    (["--init", "1,2", "--terms", "8", "--level", "3"], "--level"),
    (["--cyclic", "6", "--init", "(1,3),(3,4)", "--x-bound", "8", "--size", "euclidean"],
     "--size"),
    (["--init", "1,2", "--terms", "8", "--size", "weighted", "--weights", "2"], "--weights"),
    (["--init", "(1,0),(0,1)", "--box", "3,3", "--weights", "1,2"], "--weights"),
    (["--init", "(1,0),(0,1)", "--box", "3,3", "--radius", "4", "--projection", "complement"],
     "--radius"),
    (["--init", "(1,0),(0,1)", "--box", "3,3", "--radius", "4", "--projection", "complement"],
     "--projection"),
    (["--init", "(1,0),(0,1)", "--box", "3,3", "--level", "1"], "--level"),
    (["--init", "(1,0),(0,1)", "--box", "3,3", "--x-bound", "5"], "--x-bound"),
    (["--init", "1,2", "--terms", "8", "--x-bound", "5"], "--x-bound"),
    (["--init", "1,2", "--terms", "8", "--projection", "complement"], "--projection"),
    (["--init", "1,2", "--terms", "8", "--cyclic", "6"], "--cyclic"),
    (["--cyclic", "6", "--init", "(1,3),(3,4)", "--x-bound", "8", "--format", "svg",
      "--projection", "complement"], "--projection"),
    (["--init", "(1,0),(0,1)", "--box", "5,5", "--format", "svg", "--projection", "complement"],
     "--projection"),
])
def test_generate_rejects_flags_it_does_not_use(monkeypatch, capsys, argv, flag):
    def fail(*args):
        raise AssertionError("work started before the flags were checked")

    for name in ("generate", "ulam_sequence", "generate_cyclic"):
        monkeypatch.setattr(cli, name, fail)
    assert flag in _usage_error(capsys, ["generate"] + argv)


def test_generate_size_flag_still_serves_lattice_sets(capsys):
    assert run(["generate", "--init", "(1,0),(0,1)", "--level", "12", "--size", "sum",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == "coordinate-sum"


def test_readme_command_lines_parse():
    lines, in_code = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_code = not in_code
        elif in_code and line.startswith("ulamset "):
            lines.append(line)
    assert len(lines) >= 20
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_cyclic_cli(capsys):
    assert run(["generate", "--cyclic", "6", "--init", "(1,3),(3,4)",
                "--x-bound", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x,r"
    assert "4,1" in out


def test_cyclic_cli_zero_modulus(capsys):
    err = _usage_error(capsys, ["generate", "--cyclic", "0", "--init", "(1,0)"])
    assert "modulus must be >= 1, got 0" in err


def test_cyclic_cli_rejects_initials_that_are_not_pairs(capsys):
    err = _usage_error(capsys, ["generate", "--cyclic", "3", "--init", "1,2"])
    assert "not an (x, residue) pair" in err


@pytest.mark.parametrize("argv, flag", [
    (["columns", "--init", "", "--box", "5,5"], "--init"),
    (["generate", "--init", ",", "--box", "5,5"], "--init"),
    (["signal", "--set-init", "", "--box", "5,5"], "--set-init"),
    (["verify", "theorem1", "--init", "", "--box", "5,5"], "--init"),
], ids=[f"argv{i}" for i in range(4)])  # keeps the test ids argv0..argv3
def test_empty_point_list_exits_2(capsys, argv, flag):
    # the usage line lists every flag; the error line must name the one refused
    err = _usage_error(capsys, argv)
    (line,) = [ln for ln in err.splitlines() if "error: " in ln]
    assert f"error: argument {flag}: " in line


def test_signal_cli_rejects_alpha_outside_float_range(monkeypatch, capsys):
    _fail_on_work(monkeypatch)
    err = _usage_error(capsys, ["signal", "--init", "1,2", "--terms", "100",
                                "--alpha", "1e400"])
    assert "--alpha is outside the float range" in err


# sha256 of the standard output of README command lines, recorded before the
# set consumers read the coordinate array
README_OUTPUT_SHA256 = [
    (["columns", "--init", "(2,0),(3,0),(0,1)", "--box", "70,3000"], 2978,
     "b61e1a17340368d499010ffe244daeb5f14bd06ec7f7eb8b5aa5fec8208e4edf"),
    (["columns", "--init", "(2,0),(3,0),(0,1)", "--box", "70,3000", "--format", "json"], 13599,
     "3da0f2a23db421addfd4654b559af4117962b54798c24161f7ef3517449a0fbe"),
    (["verify", "theorem1", "--box", "25,25"], 58,
     "d3992e3fa32cd5f604935b73c6ce591080c48561527800e8ee1c2028c76822f1"),
    (["verify", "extra-vector", "--m", "6", "--n", "4", "--box", "40,40"], 67,
     "526738b6c417608e7432546dc22f5583119dfcd27bea573e60b74e1cf756f59c"),
    (["verify", "unit3d-hyperplane", "--level", "30"], 61,
     "0fec011c6ccdc4df0e9682f8049aef5bb4bfeae49e9060082cc571d84c31bc2b"),
    (["generate", "--init", "(1,0),(2,0),(0,1)", "--box", "60,2000", "--format", "csv"], 99394,
     "a8122cd9ac71795af8aef0ee11a5fce509c049166524d4d86b6a544887328a45"),
]


@pytest.mark.parametrize("argv,size,digest", README_OUTPUT_SHA256)
def test_readme_outputs_match_frozen_checksums(capsys, argv, size, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the standard output of command lines that no other test runs,
# with their exit codes, recorded before the generate writers were merged
PATH_OUTPUT_SHA256 = [
    (["generate", "--init", "1,2", "--terms", "25"], 0, 71,
     "b3814386a2093dde354137624ec32d4980ee45f56d3eecd9f99166c52e323895"),
    (["generate", "--init", "1,2", "--terms", "25", "--format", "json"], 0, 285,
     "9e674bc0543247dcbcbdd01a5074263d92c6a191ea80409ef06d913465e937f7"),
    (["generate", "--cyclic", "6", "--init", "(1,3),(3,4)", "--x-bound", "40",
      "--format", "json"], 0, 1774,
     "4b68ab37c52d85b1b5c8dad38fdb53610e1d1c16f508f0b43744c756c9b5d244"),
    (["verify", "theorem1", "--init", "(1,0),(0,1),(2,3)", "--box", "10,10"], 1, 1103,
     "2ee3ef399c67106da781001a781a3c20015fb38452ea12c2636ba2c53b5cc4d1"),
    (["embed", "--init", "(1,0),(0,1)", "--target", "line"], 0, 141,
     "a02540862d55e1dcb014b0cb9c071ba1d31575938e1606637167691eb2afe65c"),
    (["columns", "--init", "(1,0),(0,3)", "--box", "6,8"], 0, 347,  # an inconclusive row
     "b977b7438042f4c1242be9bc2708bcf38fb0bfa648da238b2dacfc6971fc8c9b"),
    (["columns", "--init", "(1,0),(0,3)", "--box", "6,60"], 1, 749,  # VIOLATION rows
     "56ae772ae33af85a3555ceae19700ce4bae0b622a28804a20f42faf5854c3cf1"),
]


@pytest.mark.parametrize("argv,code,size,digest", PATH_OUTPUT_SHA256)
def test_path_outputs_match_frozen_checksums(capsys, argv, code, size, digest):
    assert run(argv) == code
    out = capsys.readouterr().out
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the flags were checked")


_WORK = ("generate", "ulam_sequence", "generate_cyclic", "alpha_scan")


def _fail_on_work(monkeypatch, names=_WORK):
    for name in names:
        monkeypatch.setattr(cli, name, _no_work)


_SCAN = ["signal", "--init", "1,2", "--terms", "200"]


@pytest.mark.parametrize("argv,flag", [
    (["verify", "theorem1", "--m", "3", "--n", "5", "--box", "10,10"], "--m"),
    (["verify", "extra-vector", "--m", "6", "--n", "4", "--box", "40,40", "--level", "3"],
     "--level"),
    (_SCAN + ["--row", "3", "--box", "5,5"], "--row"),
    (_SCAN + ["--alpha", "2.57", "--csv-out", "scan.csv"], "--csv-out"),
    (_SCAN + ["--alpha", "2.57", "--coarse-step", "1e-6"], "--coarse-step"),
    (["signal", "--set-init", "(1,0),(0,1)", "--box", "40,40", "--row", "1",
      "--terms", "7", "--init", "1,3"], "--terms"),
    (["embed", "--init", "(1,0),(0,1)", "--target", "line", "--symbols", "s=1.5"],
     "--symbols"),
    (["columns", "--init", "(1,0),(2,0),(0,1)", "--level", "30"], "--box"),
])
def test_other_subcommands_reject_flags_they_do_not_read(
        monkeypatch, tmp_path, capsys, argv, flag):
    _fail_on_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("doc,named", [
    ({"initials": [[1, 0], [0, 1]], "bound": {"box": [3, 3]}, "sise": "sum"}, "'sise'"),
    ({"initials": [[1, 0], [0, 1]], "bound": {"box": [3, 3], "level": 2}}, "'bound'"),
    ({"initials": [[1, 0], [0, 1]], "bound": {"boxx": [3, 3]}}, "'bound'"),
])
def test_config_file_unknown_key_or_two_bounds_exits_2(
        monkeypatch, tmp_path, capsys, doc, named):
    _fail_on_work(monkeypatch)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert named in _usage_error(capsys, ["generate", "--config", str(cfg)])


_LATTICE_FILE = {"initials": [[1, 0], [0, 1]], "bound": {"box": [5, 5]}}


@pytest.mark.parametrize("doc,flags", [
    ({**_LATTICE_FILE, "size": "sum"}, ["--size", "euclidean"]),
    ({**_LATTICE_FILE, "size": "weighted", "weights": [1, 2]}, ["--weights", "1,3"]),
    ({"initials": [[1, 3], [3, 4]], "modulus": 6}, ["--cyclic", "5"]),
    (_LATTICE_FILE, ["--init", "(1,0),(0,1)"]),
])
def test_config_file_and_a_flag_for_the_same_value_exit_2(
        monkeypatch, tmp_path, capsys, doc, flags):
    _fail_on_work(monkeypatch)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert run(["generate", "--config", str(cfg)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flags[0] in captured.err


@pytest.mark.parametrize("argv", [
    ["generate", "--init", "(1,0),(0,1)", "--box", "3,3", "--size", "weighted",
     "--weights", "1/0,1"],
    ["signal", "--init", "1,2", "--terms", "50", "--alpha", "1/0"],
    ["equiv", "--a", "(1/0,1),(0,1)", "--b", "(1,0),(0,1)"],
    ["embed", "--init", "(1/0,1),(0,1)"],
    ["generate", "--config", "run.json"],
], ids=["weights", "alpha", "equiv", "embed", "config-weights"])
def test_zero_denominator_exits_2(monkeypatch, tmp_path, capsys, argv):
    _fail_on_work(monkeypatch)
    _fail_on_work(monkeypatch, ("structurally_equivalent", "embed_integer_lattice"))
    monkeypatch.chdir(tmp_path)
    doc = {**_LATTICE_FILE, "size": "weighted", "weights": ["1/0", 1]}
    (tmp_path / "run.json").write_text(json.dumps(doc))
    _usage_error(capsys, argv)


@pytest.mark.parametrize("argv,named", [
    (["embed", "--init", "(1,0),(1,1*sqrt2)", "--symbols", "sqrt2"],
     "symbol 'sqrt2' needs a numeric value"),
    (["embed", "--init", "(1,0),(1,1*sqrt3)", "--symbols", "sqrt2=1.4142135623730951"],
     "undeclared symbol 'sqrt3'"),
])
def test_symbol_refusals_exit_2(monkeypatch, capsys, argv, named):
    _fail_on_work(monkeypatch, ("embed_integer_lattice",))
    assert named in _usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["generate", "--init", "(1,0),(0,1", "--box", "3,3"],
    ["equiv", "--a", "(1,0),(0,1),(1,1", "--b", "(1,0),(0,1)"],
], ids=["generate", "equiv"])
def test_malformed_point_list_exits_2(monkeypatch, capsys, argv):
    _fail_on_work(monkeypatch)
    _fail_on_work(monkeypatch, ("structurally_equivalent",))
    _usage_error(capsys, argv)


@pytest.mark.parametrize("argv,reason", [
    (["signal", "--init", "1,2", "--terms", "50", "--alpha", "1/0"],
     "argument --alpha: zero denominator in '1/0'"),
    (["generate", "--init", "(1,0),(0,1", "--box", "3,3"],
     "argument --init: malformed vector list '(1,0),(0,1'"),
    (["generate", "--init", "(1,0),(0,1)", "--box", "3,3", "--size", "weighted",
      "--weights", "1/0,1"], "argument --weights: zero denominator in '1/0'"),
    (["columns", "--init", "(2,0),(3,0),(0,1)", "--box", "70,x"],
     "argument --box: invalid literal for int() with base 10: 'x'"),
    (["signal", "--set-init", " , ", "--box", "5,5"],
     "argument --set-init: could not parse point list from ' , '"),
], ids=["alpha", "init", "weights", "box", "set-init"])
def test_bad_typed_values_name_the_reason(monkeypatch, capsys, argv, reason):
    _fail_on_work(monkeypatch)
    err = _usage_error(capsys, argv)
    assert reason in err
    assert not re.search(r"invalid \w+ value", err)


@pytest.mark.parametrize("target", ["lattice", "line"])
def test_a_bare_list_embeds_as_one_dimensional_points(capsys, target):
    outs = []
    for init in ("1,2", "(1),(2)"):
        assert run(["embed", "--init", init, "--target", target]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert [v.entries for v in parse_symbolic_vectors("1,2", {})] == [
        v.entries for v in parse_symbolic_vectors("(1),(2)", {})]


@pytest.mark.parametrize("init", ["(0,0)", "(1,-1)", "(1,0),(1,0)", "(1,0),(0,1,2)"],
                         ids=["zero", "negative", "duplicate", "mixed-dimension"])
def test_line_embedding_refuses_what_the_lattice_target_refuses(capsys, init):
    _usage_error(capsys, ["embed", "--init", init, "--target", "lattice"])
    _usage_error(capsys, ["embed", "--init", init, "--target", "line"])


_COLUMNS = ["columns", "--init", "(2,0),(3,0),(0,1)", "--box", "70,3000"]


# Values that a library function refuses: the command checks them with the
# same rule before it generates anything.  A config file, when given, is
# written to run.json.
@pytest.mark.parametrize("argv,doc,named", [
    (["signal", "--set-init", "1,2", "--box", "10"], None, "dimension 2"),
    (["signal", "--set-init", "(1,0,0),(0,1,0)", "--box", "4,4,4", "--row", "1"], None,
     "dimension 2"),
    (["signal", "--init", "1,2", "--terms", "50000", "--coarse-step", "0"], None, "got 0.0"),
    (_COLUMNS + ["--step", "0"], None, "step"),
    (_COLUMNS + ["--max-period", "0"], None, "max_period"),
    (_COLUMNS + ["--min-evidence", "2"], None, "min_evidence"),
    (["columns", "--init", "(1,0,0),(0,1,0)", "--box", "60,60,60"], None, "dimension 2"),
    (["verify", "theorem1", "--init", "(1,0,0),(0,1,0)", "--box", "60,60,60"], None,
     "dimension 2"),
    (["generate", "--config", "run.json"],
     {"initials": [[1, 0], [0, 1]], "bound": {"level": True}}, "'bound.level'"),
    (["generate", "--config", "run.json"],
     {"initials": [[True, 0], [0, 1]], "bound": {"box": [5, 5]}}, "'initials'"),
    (["generate", "--config", "run.json"],
     {"initials": [[1, 3], [3, 4]], "modulus": True}, "'modulus'"),
    # regions that miss the oracle's x = 2 slab, so they would check no cell
    (["verify", "unit3d-hyperplane", "--box", "1,5,5"], None, "x = 2 slab"),
    (["verify", "unit3d-hyperplane", "--level", "1"], None, "x = 2 slab"),
    (["generate", "--init", "(1,0),(0,1)", "--box", "2,2", "--format", "svg",
      "--radius", "-1"], None, "--radius must be a positive finite number"),
    (["generate", "--init", "(1,0),(0,1)", "--box", "2,2", "--format", "svg",
      "--radius", "nan"], None, "--radius must be a positive finite number"),
    (["generate", "--config", "run.json"],
     {"initials": [[1, 0], [0, 1]], "bound": {"box": [3, 3]}, "size": "max"},
     "unknown size function 'max'"),
    # a scanned row outside the bound's rows
    (["signal", "--set-init", "(1,0),(0,1)", "--box", "10,10", "--row", "50"], None,
     "--row 50 is outside the bound's rows 0..10"),
    (["signal", "--set-init", "(1,0),(0,1)", "--box", "10,10", "--row", "-1"], None,
     "--row -1 is outside the bound's rows 0..10"),
    (["signal", "--set-init", "(1,0),(0,1)", "--level", "10", "--row", "11"], None,
     "--row 11 is outside the bound's rows 0..10"),
    # a --box of the wrong length is refused for its length; one value holds on every axis
    (["verify", "unit3d-hyperplane", "--box", "1,5"], None, "box has 2 limits for dimension 3"),
    (["signal", "--set-init", "(1,0),(0,1)", "--box", "3,3,50", "--row", "40"], None,
     "box has 3 limits for dimension 2"),
    (["signal", "--set-init", "(1,0),(0,1)", "--box", "7", "--row", "8"], None,
     "--row 8 is outside the bound's rows 0..7"),
    (["verify", "unit3d-hyperplane", "--box", "1"], None, "x = 2 slab"),
])
def test_refused_values_exit_2_before_any_work(
        monkeypatch, tmp_path, capsys, argv, doc, named):
    _fail_on_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "run.json").write_text(json.dumps(doc))
    assert named in _usage_error(capsys, argv)


@pytest.mark.parametrize("command", ["generate", "signal"])
def test_an_impossible_sequence_exits_2_before_it_allocates(monkeypatch, capsys, command):
    monkeypatch.setattr(np, "zeros", _no_work)
    monkeypatch.setattr(np, "empty", _no_work)
    argv = [command, "--init", "1000000000000000,1000000000000001", "--terms", "5"]
    assert "bytes, over the limit" in _usage_error(capsys, argv)


@pytest.mark.parametrize("argv,message", [
    (["--init", "(1,0),(0,1)", "--terms", "5"],
     "--terms needs one-dimensional initials, not dimension 2"),
    (["--init", "(1,0),(0,1)", "--box", "3,3", "--size", "weighted"],
     "--size weighted requires --weights"),
    (["--init", "(1,0),(0,1)"], "one of --box or --level is required"),
])
def test_generate_refusals_raise_value_error(argv, message):
    args = cli.build_parser().parse_args(["generate"] + argv)
    with pytest.raises(ValueError) as info:
        args.func(args)
    assert str(info.value) == message


# One valid command line per mode of each subcommand: the flags a mode reads
# depend on the others (a --terms sequence has no bound, --weights needs
# --size weighted, only a 3-D SVG has a projection, ...).
_MODES = {
    "generate": [
        ["--init", "(1,0),(0,1)", "--box", "3,3"],
        ["--init", "(1,0),(0,1)", "--level", "4", "--size", "weighted", "--weights", "1,2"],
        ["--init", "(1,0),(0,1)", "--box", "3,3", "--format", "svg"],
        ["--init", "(1,0,0),(0,1,0),(0,0,1)", "--level", "5", "--format", "svg"],
        ["--init", "1,2", "--terms", "8", "--format", "json"],
        ["--cyclic", "6", "--init", "(1,3),(3,4)"],
        ["--cyclic", "6", "--init", "(1,3),(3,4)", "--format", "svg"],
    ],
    "columns": [["--init", "(1,0),(0,1)", "--box", "5,20"]],
    "signal": [
        ["--init", "1,2", "--terms", "200"],
        ["--init", "1,2", "--terms", "200", "--csv-out", "scan.csv"],
        ["--init", "1,2", "--terms", "200", "--alpha", "2.57"],
        ["--set-init", "(1,0),(0,1)", "--box", "40,40", "--row", "1"],
        ["--set-init", "(1,0),(0,1)", "--level", "40", "--row", "1", "--alpha", "3"],
    ],
    "verify": [["theorem1", "--box", "10,10"],
               ["extra-vector", "--m", "6", "--n", "4", "--box", "40,40"]],
    "equiv": [["--a", "(1,0),(0,1)", "--b", "(2,0),(0,2)"]],
    "embed": [["--init", "(1,0),(0,1)"], ["--init", "(1,0),(0,1)", "--target", "line"]],
    "normalize": [["--init", "(2,5),(3,1)"]],
}

# a value away from the default for every flag that some mode does not read
_OTHER_VALUE = {
    "--init": "1,3", "--config": "run.json", "--box": "5,5", "--level": "5",
    "--terms": "7", "--cyclic": "6", "--x-bound": "9", "--size": "euclidean",
    "--weights": "1,2", "--projection": "complement", "--radius": "2", "--out": "o.txt",
    "--alpha": "2.5", "--coarse-step": "2e-5", "--csv-out": "scan.csv",
    "--csv-points": "10", "--set-init": "(1,0),(0,1)", "--row": "2", "--m": "6",
    "--n": "4", "--symbols": "s=1.5",
}


def _subcommands(parser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_flag_a_mode_does_not_read_exits_2_before_any_work(
        monkeypatch, tmp_path, capsys):
    _fail_on_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    assert set(_MODES) == set(_subcommands(parser))
    for command, sub in _subcommands(parser).items():
        flags = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        read_somewhere = set()
        for base in _MODES[command]:
            args = parser.parse_args([command] + base)
            reads = args.reads(args).split()
            read_somewhere.update(reads)
            for a in flags:
                if a.dest in reads:
                    continue
                flag = a.option_strings[0]
                case = (command, base, flag)
                assert run([command] + base + [flag, _OTHER_VALUE[flag]]) == 2, case
                captured = capsys.readouterr()
                assert captured.out == "" and flag in captured.err, case
        # a flag that no mode reads would be refused everywhere
        assert {a.dest for a in flags} <= read_somewhere, command
    assert not list(tmp_path.iterdir())  # no --out, --csv-out or scan file written


def test_csv_of_a_replaced_set_uses_its_points():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((4, 4)))
    pts = ((3, 1), (0, 2))
    text = set_to_csv(dataclasses.replace(s, coords=pts))
    assert text == "x,y\n3,1\n0,2\n"
    empty = dataclasses.replace(s, coords=())
    assert set_to_csv(empty) == "x,y\n"
    s4 = generate(validate_config([(1, 0, 0, 0), (0, 0, 0, 1)], 4), Bound.box((2, 0, 0, 2)))
    assert set_to_csv(s4).splitlines()[:2] == ["c0,c1,c2,c3", "0,0,0,1"]
