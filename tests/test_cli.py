import json

import pytest

from ulamset import Bound, cli, core, generate, validate_config
from ulamset.cli import (
    export_svg,
    parse_point_list,
    parse_symbol_table,
    parse_symbolic_vectors,
    points_from_csv,
    run,
    set_to_csv,
)


def test_parse_point_list():
    assert parse_point_list("(1,0),(2,0),(0,1)") == [(1, 0), (2, 0), (0, 1)]
    assert parse_point_list("1,2") == [(1,), (2,)]
    assert parse_point_list("(1,0,0),(0,1,0)") == [(1, 0, 0), (0, 1, 0)]


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
    assert run(["generate", "--dim", "1", "--init", "1,2", "--terms", "0"]) == 2
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


def test_svg_deterministic(tmp_path):
    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((12, 12)))
    a = export_svg(s, None)
    b = export_svg(s, None)
    assert a == b
    path = tmp_path / "plot.svg"
    export_svg(s, str(path))
    assert path.read_text() == a
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert a.count("<circle") == len(s)


def test_svg_empty_and_3d_projection(tmp_path):
    import dataclasses

    s = generate(validate_config([(1, 0), (0, 1)], 2), Bound.box((5, 5)))
    empty = dataclasses.replace(s, points=(), members=frozenset())
    text = export_svg(empty, None)
    assert "<circle" not in text and "<line" in text

    s3 = generate(validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
                  Bound.level(12))
    text = export_svg(s3, None, projection="complement")
    assert text.count("<circle") == len(s3)


def test_plot_cli(tmp_path):
    out = tmp_path / "s.svg"
    assert run(["plot", "--init", "(1,0),(0,1)", "--box", "10,10",
                "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_cyclic_cli(capsys):
    assert run(["generate", "--cyclic", "6", "--init", "(1,3),(3,4)",
                "--x-bound", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x,r"
    assert "4,1" in out
