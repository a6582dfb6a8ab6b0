import json

import numpy as np
import pytest

from bosonbudget import haar_unitary
from bosonbudget.cli import (
    load_schema,
    main,
    read_matrix_csv,
    read_matrix_json,
    read_samples,
    validate_report,
    write_matrix_csv,
    write_matrix_json,
    write_samples,
)


def _run(*args) -> int:
    return main(list(args))


def _report(path):
    report = json.loads(path.read_text())
    validate_report(report)
    return report


# ------------------------------------------------------------------ file I/O


def test_matrix_json_roundtrip_is_byte_identical(tmp_path):
    u = haar_unitary(5, np.random.default_rng(0)).matrix
    p1, p2 = tmp_path / "u1.json", tmp_path / "u2.json"
    write_matrix_json(p1, u)
    m = read_matrix_json(p1)
    write_matrix_json(p2, m)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(m, u)


def test_matrix_csv_roundtrip(tmp_path):
    u = haar_unitary(4, np.random.default_rng(1)).matrix
    p1, p2 = tmp_path / "u1.csv", tmp_path / "u2.csv"
    write_matrix_csv(p1, u)
    m = read_matrix_csv(p1)
    write_matrix_csv(p2, m)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(m, u)


def test_sample_file_roundtrip(tmp_path):
    patterns = [(1, 0, 1), (0, 0, 0), (1, 1, 1)]
    path = tmp_path / "s.txt"
    write_samples(path, patterns)
    assert path.read_text() == "101\n000\n111\n"
    assert read_samples(path) == patterns


def test_sample_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("10x\n")
    with pytest.raises(Exception):
        read_samples(path)


# ----------------------------------------------------------------- commands


def test_distribution_beamsplitter(tmp_path):
    from bosonbudget import fourier_matrix

    upath = tmp_path / "bs.json"
    write_matrix_json(upath, fourier_matrix(2).matrix)
    out = tmp_path / "report.json"
    rc = _run("distribution", "--unitary", str(upath), "--photons", "2", "--out", str(out))
    assert rc == 0
    rep = _report(out)
    probs = dict(zip(map(tuple, rep["results"]["outcomes"]), rep["results"]["probs"]))
    assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(1, 1)] == pytest.approx(0.0, abs=1e-12)


def test_distribution_csv_table(tmp_path):
    out = tmp_path / "report.json"
    rc = _run("distribution", "--modes", "4", "--photons", "2", "--seed", "5",
              "--format", "csv", "--out", str(out))
    assert rc == 0
    table = (tmp_path / "report.csv").read_text().splitlines()
    assert table[0] == "n_0,n_1,n_2,n_3,prob"
    assert len(table) == 1 + 10  # C(5,2) outcomes


def test_distance_ideal_device(tmp_path):
    out = tmp_path / "d.json"
    rc = _run("distance", "--modes", "12", "--sources", "2", "--seed", "4", "--out", str(out))
    assert rc == 0
    res = _report(out)["results"]
    assert res["v2"] <= 1e-12
    assert res["v1"] == pytest.approx(res["vb"], abs=1e-12)


def test_budget_worked_example(tmp_path):
    out = tmp_path / "b.json"
    rc = _run("budget", "--sources", "20", "--modes", "8000", "--epsilon", "0.1",
              "--delta", "0.1", "--out", str(out))
    assert rc == 0
    res = _report(out)["results"]
    assert res["noiseBound"] == pytest.approx(0.075, rel=1e-12)
    assert res["noiseOk"] is False
    assert res["mismatchOk"] is True


def test_verify_suppression(tmp_path):
    out = tmp_path / "v.json"
    rc = _run("verify", "--test", "suppression", "--photons", "3", "--g", "0.9",
              "--out", str(out))
    assert rc == 0
    res = _report(out)["results"]
    assert res["lawValid"] is True
    assert res["suppressedMass"] > 0


def test_verify_witness_pipeline(tmp_path):
    upath = tmp_path / "u.json"
    write_matrix_json(upath, haar_unitary(9, np.random.default_rng(8)).matrix)
    spath = tmp_path / "samples.txt"
    out1 = tmp_path / "s_report.json"
    rc = _run("sample", "--unitary", str(upath), "--sources", "3", "--count", "5000",
              "--seed", "11", "--samples-out", str(spath), "--out", str(out1))
    assert rc == 0
    out2 = tmp_path / "w_report.json"
    rc = _run("verify", "--test", "witness", "--unitary", str(upath), "--sources", "3",
              "--samples", str(spath), "--out", str(out2))
    assert rc == 0
    res = _report(out2)["results"]
    assert res["decision"] == "bs-like"


def test_bench_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run("bench", "--sizes", "2,4,6", "--seed", "1", "--out", str(a)) == 0
    assert _run("bench", "--sizes", "2,4,6", "--seed", "1", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modes": 4, "photons": 2, "seed": 3}))
    out = tmp_path / "r.json"
    rc = _run("distribution", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    assert _report(out)["results"]["totalMass"] == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------------- errors


def test_missing_seed_is_usage_error(tmp_path):
    rc = _run("sample", "--modes", "4", "--sources", "2", "--count", "5",
              "--samples-out", str(tmp_path / "s.txt"))
    assert rc == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        _run("distribution", "--frobnicate", "1")
    assert err.value.code == 1


def test_resource_error_exit_code(tmp_path):
    rc = _run("distribution", "--modes", "40", "--photons", "12", "--seed", "1",
              "--out", str(tmp_path / "r.json"))
    assert rc == 2


def test_numeric_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"modes": 1, "entries": [[[1e400, 0]]]}')
    rc = _run("distribution", "--unitary", str(bad), "--photons", "1",
              "--out", str(tmp_path / "r.json"))
    assert rc == 3


@pytest.mark.parametrize(
    "given, argv, code, needle",
    [
        (("--unitary", "u.json", '{"entries": [[[1, 0]]]}'), ["distribution", "--photons", "1"], 1, "modes"),
        (("--unitary", "u.json", '{"modes": 1}'), ["distribution", "--photons", "1"], 1, "entries"),
        (("--unitary", "u.csv", "re_0,im_0,re_1,im_1\n1,0,0,0\n0,0\n"), ["distribution", "--photons", "1"],
         1, "square"),
        (("--unitary", "u.csv", "re_0,im_0\nnan,0\n"), ["distribution", "--photons", "1"], 3, "non-finite"),
        (None, ["sample", "--modes", "4", "--sources", "2", "--count", "-5", "--seed", "1",
                "--samples-out", "s.txt"], 1, "--count"),
        (("--unitary", "u.json", '{"modes": 1, "entries": [[[1]]]}'), ["distribution", "--photons", "1"],
         1, "matrix file u.json is malformed"),
        (("--config", "c.json", '{"modes": "abc", "photons": 2, "seed": 1}'), ["distribution"], 1, "modes"),
        (("--config", "c.json", '{"modes": 4, "photons": "x", "seed": 1}'), ["distribution"], 1, "photons"),
        (None, ["sample", "--modes", "5", "--sources", "7", "--population", "uniform", "--count", "3",
                "--seed", "1", "--samples-out", "s.txt"], 1, "--sources"),
    ],
    ids=["json-no-modes", "json-no-entries", "csv-short-row", "csv-nan", "negative-count",
         "json-short-entry", "config-modes-not-int", "config-photons-not-int",
         "uniform-sources-over-modes"],
)
def test_bad_input_gives_one_json_error(tmp_path, monkeypatch, capsys, given, argv, code, needle):
    monkeypatch.chdir(tmp_path)
    if given is not None:
        flag, name, text = given
        (tmp_path / name).write_text(text)
        argv = argv + [flag, name]
    rc = _run(*argv, "--out", "r.json")
    assert rc == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == {1: "usage", 3: "numeric"}[code]
    assert needle in error["message"]


def test_roundtrip_many_single_photon_sources(tmp_path):
    # 12 clicks, each source empty with p0 > 0: one collapsed input, 4096 permanents
    out = tmp_path / "r.json"
    rc = _run("verify", "--test", "roundtrip", "--modes", "24", "--sources", "12",
              "--p0", "0.02", "--p1", "0.98", "--seed", "1", "--out", str(out))
    assert rc == 0
    assert 0.0 < _report(out)["results"]["returnProbability"] <= 1.0


def test_schema_rejects_malformed_report():
    schema = load_schema()
    with pytest.raises(ValueError):
        validate_report({"schemaVersion": "1"}, schema)
    with pytest.raises(ValueError):
        validate_report(
            {"schemaVersion": "2", "command": "bench", "seed": 1, "threads": 1,
             "parameters": {}, "results": {}},
            schema,
        )
