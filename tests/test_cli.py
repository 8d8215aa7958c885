import io
import json
from contextlib import redirect_stdout

import pytest

from schubert_blowup import cli, selfcheck


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_classify_gr24_point():
    code, out = run(["classify", "--type", "A", "--rank", "3",
                     "--parabolic", "1,3", "--codim", "4"])
    assert code == 0
    assert "verdict     : FANO" in out


def test_classify_gr25_point():
    code, out = run(["classify", "--type", "A", "--rank", "4",
                     "--parabolic", "1,3,4", "--codim", "6"])
    assert code == 0
    assert "WEAK_FANO_NOT_FANO" in out


def test_classify_codim_out_of_range_exits_2():
    code, _ = run(["classify", "--type", "A", "--rank", "2",
                   "--parabolic", "", "--codim", "5"])
    assert code == 2


def test_classify_invalid_parabolic_exits_2():
    code, _ = run(["cones", "--type", "A", "--rank", "2",
                   "--parabolic", "7", "--codim", "2"])
    assert code == 2


def test_classify_invalid_rank_exits_2():
    code, _ = run(["classify", "--type", "G", "--rank", "5",
                   "--parabolic", "", "--codim", "2"])
    assert code == 2


def test_cones_identity_matrix():
    code, out = run(["cones", "--type", "A", "--rank", "3",
                     "--parabolic", "1,3", "--codim", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["intersection_matrix"] == [[1, 0], [0, 1]]


def test_cones_full_flag_a2():
    code, out = run(["cones", "--type", "A", "--rank", "2",
                     "--parabolic", "", "--codim", "2", "--format", "json"])
    assert code == 0
    m = json.loads(out)["intersection_matrix"]
    assert m == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_json_round_trip():
    _, out = run(["classify", "--type", "B", "--rank", "3",
                  "--parabolic", "1,2", "--codim", "3", "--format", "json"])
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out


def test_text_and_json_agree():
    args = ["classify", "--type", "A", "--rank", "4",
            "--parabolic", "1,3,4", "--codim", "6"]
    _, text = run(args)
    _, js = run(args + ["--format", "json"])
    data = json.loads(js)
    assert data["verdict"] in text
    for a, beta in data["betas"].items():
        assert "beta_%-2s     : %d" % (a, beta) in text
    assert str(data["anticanonical"]["basis1"]["exceptional"]) in text


def test_table_grassmannian_boundary():
    code, out = run(["table", "--families", "A", "--max-rank", "4",
                     "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        n = int(row["type"][1:]) + 1
        assert row["weak_fano_boundary_c"] == n + 1


def test_table_full_flag_boundary():
    code, out = run(["table", "--families", "G", "--max-rank", "2",
                     "--full-flag", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert rows[0]["weak_fano_boundary_c"] == 3


def test_table_empty_families_exits_2():
    code, _ = run(["table", "--families", "", "--max-rank", "3"])
    assert code == 2


def test_table_deterministic():
    args = ["table", "--families", "A,B,C,D", "--max-rank", "5"]
    assert run(args) == run(args)


def test_check_passes_and_is_deterministic():
    code1, out1 = run(["check"])
    code2, out2 = run(["check"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "FAIL" not in out1


def test_check_detects_corruption(monkeypatch):
    # negative control: corrupt one Cartan entry and the suite must fail
    from schubert_blowup import conventions

    real = conventions.cartan_entries

    def corrupted(family, rank):
        C = [list(row) for row in real(family, rank)]
        if family == "A" and rank == 2:
            C[0][1] = -2
        return tuple(tuple(row) for row in C)

    monkeypatch.setattr(conventions, "cartan_entries", corrupted)
    code, out = run(["check"])
    assert code == 1
    assert "FAIL" in out


def test_table_runs_to_rank_cap():
    code, out = run(["table", "--families", "A,B,C,D,E,F,G", "--max-rank", "16",
                     "--format", "json"])
    assert code == 0
    types = {row["type"] for row in json.loads(out)["rows"]}
    assert {"A16", "B16", "C16", "D16", "E8", "F4", "G2"} <= types


def test_table_beyond_rank_cap_exits_2():
    code, out = run(["table", "--families", "A", "--max-rank", "17"])
    assert code == 2
    assert out == ""
