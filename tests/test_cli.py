import json

import pytest

from ulamset import Bound, generate, validate_config
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


def test_equiv_exit_codes(capsys):
    assert run(["equiv", "--a", "(1,0),(0,1),(1,1)", "--b", "(2,0),(0,2),(2,2)"]) == 0
    assert run(["equiv", "--a", "(1,0),(0,1),(1,1)", "--b", "(1,0),(0,1),(1,2)"]) == 1
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run(["generate"]) == 2  # no initials, no config
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_columns_cli_json(capsys):
    code = run([
        "columns", "--init", "(1,0),(0,1)", "--box", "9,60", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == []
    periods = {p["index"]: p["period"] for p in doc["profiles"]}
    assert periods[3] == 2


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
