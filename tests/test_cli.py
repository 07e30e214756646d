import dataclasses
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from ulamset import Bound, cli, core, generate, validate_config
from ulamset.cli import (
    parse_point_list,
    parse_symbol_table,
    parse_symbolic_vectors,
    points_from_csv,
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


def test_parse_symbolic_vectors():
    symbols = parse_symbol_table("sqrt2=1.41421356")
    vecs = parse_symbolic_vectors("(1,0),(1,1*sqrt2)", symbols)
    assert vecs[1].entries[1][1] == 1  # coefficient on sqrt2
    vecs = parse_symbolic_vectors("(2+1*sqrt2,0),(1,sqrt2)", symbols)
    assert vecs[0].entries[0] == (2, 1)


def test_csv_round_trip():
    s = generate(validate_config([(1, 0), (2, 0), (0, 1)], 2), Bound.box((15, 15)))
    text = set_to_csv(s)
    assert text.splitlines()[0] == "x,y"
    assert tuple(points_from_csv(text)) == s.points


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
    monkeypatch.setattr(core, "_DENSE_CELL_LIMIT", 10)
    assert run(["generate", "--init", "(1,0),(0,1)", *bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "limit of 10" in captured.err


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
    empty = dataclasses.replace(s, points=(), members=frozenset())
    text = scatter_svg(empty.points, empty.dim)
    assert "<circle" not in text and "<line" in text

    s3 = generate(validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
                  Bound.level(12))
    text = scatter_svg(s3.points, s3.dim, projection="complement")
    assert text.count("<circle") == len(s3)


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


@pytest.mark.parametrize("argv", [
    ["columns", "--init", "", "--box", "5,5"],
    ["generate", "--init", ",", "--box", "5,5"],
    ["signal", "--set-init", "", "--box", "5,5"],
    ["verify", "theorem1", "--init", "", "--box", "5,5"],
])
def test_empty_point_list_exits_2(capsys, argv):
    assert "--init" in _usage_error(capsys, argv)


def test_signal_cli_rejects_alpha_outside_float_range(capsys):
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


def test_csv_of_a_replaced_set_uses_its_points():
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((4, 4)))
    pts = ((3, 1), (0, 2))
    text = set_to_csv(dataclasses.replace(s, points=pts, members=frozenset(pts)))
    assert text == "x,y\n3,1\n0,2\n"
    empty = dataclasses.replace(s, points=(), members=frozenset())
    assert set_to_csv(empty) == "x,y\n"
    s4 = generate(validate_config([(1, 0, 0, 0), (0, 0, 0, 1)], 4), Bound.box((2, 0, 0, 2)))
    assert set_to_csv(s4).splitlines()[:2] == ["c0,c1,c2,c3", "0,0,0,1"]
