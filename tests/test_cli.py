import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bosonbudget import DimensionError, cli, fock, haar_unitary, ideal_sampler, verify
from bosonbudget.cli import (
    UsageError,
    _fmt,
    build_parser,
    load_schema,
    main,
    read_matrix_csv,
    read_matrix_json,
    read_samples,
    report_text,
    validate_report,
    write_matrix_csv,
    write_matrix_json,
    write_samples,
)
from bosonbudget.ideal_sampler import full_distribution, sample_ideal
from bosonbudget.permanent import STACK
from bosonbudget.random_ensembles import spawn_rngs


def _run(*args) -> int:
    return main(list(args))


def _exit_code(argv) -> int:
    """main's return code, or the code of the parser's own SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
    assert read_samples(path).tolist() == [list(p) for p in patterns]


@pytest.mark.parametrize("population", ["device", "uniform"])
def test_sample_peak_bytes_per_click_bit(tmp_path, population):
    # 300,000 draws of 10 modes: the uint8 click table (device rows are indices into it,
    # uniform rows set STACK at a time) and its text, written from the text array's own buffer
    argv = ["sample", "--modes", "10", "--sources", "3", "--count", "300000", "--seed", "7",
            "--population", population, "--samples-out", str(tmp_path / "s.txt"), "--out", str(tmp_path / "r.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 300_000 * 10


def test_sample_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("10x\n")
    with pytest.raises(Exception):
        read_samples(path)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(hnp.arrays(np.uint8, st.tuples(st.integers(0, 20), st.integers(1, 8)), elements=st.integers(0, 1)))
def test_sample_file_roundtrip_any_table(patterns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        write_samples(path, patterns)
        got = read_samples(path)
        text = path.read_text()
    lines = "".join("".join(map(str, p)) + "\n" for p in patterns.tolist())
    assert text == (lines or "\n")  # a file with no patterns holds one newline
    assert got.dtype == np.uint8
    assert got.shape == (patterns.shape if len(patterns) else (0, 0))
    assert np.array_equal(got, patterns.reshape(got.shape))


def test_read_samples_reads_a_written_file_as_one_array(tmp_path, monkeypatch):
    # the file write_samples writes is read from its bytes; other text still reaches the line parser
    patterns = np.random.default_rng(4).integers(0, 2, (3_000, 12), dtype=np.uint8)
    path = tmp_path / "s.txt"
    write_samples(path, patterns)
    read_text = cli._read_text
    monkeypatch.setattr(cli, "_read_text", _no_text)
    got = read_samples(path)
    assert got.dtype == np.uint8 and got.flags.writeable
    np.testing.assert_array_equal(got, patterns)
    for text in (b"101\r\n011\r\n", b"101\n011", b"101\n0110\n", b"101\n0x1\n", b"\n", b""):
        path.write_bytes(text)
        with pytest.raises(AssertionError, match="line parser"):
            read_samples(path)
    monkeypatch.setattr(cli, "_read_text", read_text)
    path.write_bytes(b"101\r\n011\r\n")
    assert read_samples(path).tolist() == [[1, 0, 1], [0, 1, 1]]


def _no_text(path):
    raise AssertionError("line parser")


def _line_parser(text):
    # the line-by-line sample reader, kept as the oracle of read_samples
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if any(c not in "01" for c in line):
            raise UsageError(f"sample line is not a 0/1 string: {line!r}")
        out.append(tuple(int(c) for c in line))
    return out


def _decorated_lines(width):
    """Files of equal-width 0/1 lines with blank lines, whitespace and mixed line ends."""
    line = st.tuples(st.sampled_from(["", " ", "\t", " \t"]), st.text("01", min_size=width, max_size=width),
                     st.sampled_from(["", " ", "\t"]), st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \n"]))
    return st.lists(line.map("".join), max_size=6).map("".join)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.one_of(st.text("01 \t\r\nx", max_size=40), st.integers(1, 5).flatmap(_decorated_lines)))
def test_read_samples_matches_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        path.write_bytes(text.encode())
        try:
            want = _line_parser(path.read_text())
        except UsageError as exc:
            with pytest.raises(UsageError) as err:
                read_samples(path)
            assert str(err.value) == str(exc)
            return
        if len({len(p) for p in want}) > 1:  # the witness refused these before the reader did
            with pytest.raises(DimensionError, match="sample pattern length must equal the mode count"):
                read_samples(path)
            return
        got = read_samples(path)
    assert got.dtype == np.uint8
    assert got.shape == (len(want), len(want[0]) if want else 0)
    assert got.tolist() == [list(p) for p in want]


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
    res = _report(out)["results"]
    rows = [",".join(map(str, o)) + "," + _fmt(p) for o, p in zip(res["outcomes"], res["probs"])]
    assert (tmp_path / "report.csv").read_text() == "\n".join([table[0], *rows]) + "\n"


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


def test_witness_on_an_empty_sample_file(tmp_path):
    upath, spath, out = tmp_path / "u.json", tmp_path / "s.txt", tmp_path / "w.json"
    write_matrix_json(upath, haar_unitary(6, np.random.default_rng(3)).matrix)
    spath.write_text("")
    rc = _run("verify", "--test", "witness", "--unitary", str(upath), "--sources", "2",
              "--samples", str(spath), "--out", str(out))
    assert rc == 0
    res = _report(out)["results"]
    assert res["decision"] == "inconclusive"
    assert res["nUsed"] == 0 and res["nRejected"] == 0


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


def test_config_defaults_stay_with_their_run(tmp_path, monkeypatch, capsys):
    # the parser of runs without --config is built once and shared; a --config run sets its
    # defaults on a parser of its own, so the same command without --config lacks them
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps({"modes": 4, "photons": 2, "seed": 3}))
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._shared_parser.cache_clear()
    assert _run("distribution", "--config", "c.json", "--out", "a.json") == 0
    capsys.readouterr()
    assert _exit_code(["distribution", "--out", "b.json"]) == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "the following arguments are required: --photons"
    assert _run("distribution", "--modes", "4", "--photons", "2", "--seed", "3", "--out", "c.json") == 0
    assert Path("a.json").read_bytes() == Path("c.json").read_bytes()
    assert len(builds) == 2  # one shared parser, one for the --config run
    cli._shared_parser.cache_clear()


def test_wide_sweep_refused_by_the_pattern_cap(tmp_path, capsys):
    # C(400, 3) = 10,586,800 patterns: refused before the subset table or any permanent
    assert _run("distance", "--modes", "400", "--sources", "3", "--seed", "1", "--out", str(tmp_path / "r.json")) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"kind": "resource", "message": "3-click pattern table: 10586800 patterns, over the 'patterns' "
                                                     "limit; capped at 4000000 patterns"}
    assert not (tmp_path / "r.json").exists()


# ------------------------------------------------------- streamed exact tables


def _table_route_distribution(modes, photons, seed):
    """The distribution report and CSV table of ``--modes --photons --seed``, made from ``full_distribution``."""
    u = haar_unitary(modes, np.random.default_rng(seed))
    dist = full_distribution(u, (1,) * photons + (0,) * (modes - photons))
    results = {"outcomes": dist.outcomes, "probs": dist.probs, "totalMass": dist.total_mass,
               "unitarityDefect": u.unitarity_defect}
    report = {"schemaVersion": cli.SCHEMA_VERSION, "command": "distribution", "seed": seed,
              "parameters": {"modes": modes, "nSources": photons, "unitary": None}, "results": results}
    rows = [",".join(map(str, o)) + "," + _fmt(p) for o, p in zip(dist.outcomes.tolist(), dist.probs.tolist())]
    header = ",".join(f"n_{j}" for j in range(modes)) + ",prob"
    return report_text(report), "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("modes, photons, stack", [
    (1, 1, None),  # one outcome
    (5, 0, None),  # no photons: one outcome, all zeros
    (4, 3, None),  # photons above M / 2
    (3, 3, None),
    (20, 4, None),  # 8,855 outcomes: three chunks
    (4, 2, 10),  # exactly STACK outcomes
    (4, 2, 9),  # STACK + 1 outcomes
])
def test_streamed_distribution_is_the_table_report(tmp_path, monkeypatch, capsys, modes, photons, stack):
    # JSON to a file, JSON to stdout and the CSV table are the bytes the in-memory table gives;
    # the table route is computed first, at the real STACK
    want_json, want_csv = _table_route_distribution(modes, photons, 7)
    if stack is not None:  # the chunk size of the probability pass and of the writer
        monkeypatch.setattr(ideal_sampler, "STACK", stack)
        monkeypatch.setattr(cli, "STACK", stack)
    argv = ["distribution", "--modes", str(modes), "--photons", str(photons), "--seed", "7"]
    assert _run(*argv, "--out", str(tmp_path / "r.json")) == 0
    assert (tmp_path / "r.json").read_text() == want_json
    capsys.readouterr()
    assert _run(*argv) == 0
    assert capsys.readouterr().out == want_json
    assert _run(*argv, "--format", "csv", "--out", str(tmp_path / "c.json")) == 0
    assert (tmp_path / "c.json").read_text() == want_json
    assert (tmp_path / "c.csv").read_text() == want_csv


@pytest.mark.parametrize("modes, photons, seed, count", [
    (4, 3, 1, 0),
    (4, 3, 2, 1),
    (4, 3, 3, STACK + 1),
    (3, 3, 4, STACK + 1),
    (6, 2, 5, STACK + 1),
    (9, 3, 6, 5000),
    (7, 0, 7, 10),
])
def test_device_sample_is_the_table_route(tmp_path, modes, photons, seed, count):
    # the sample file and report are those of sample_ideal over full_distribution, on the same RNG stream
    samples, out, want = tmp_path / "s.txt", tmp_path / "r.json", tmp_path / "want.txt"
    assert _run("sample", "--modes", str(modes), "--sources", str(photons), "--count", str(count), "--seed", str(seed),
                "--samples-out", str(samples), "--out", str(out)) == 0
    net_rng, rng = spawn_rngs(seed, 2)
    rows = sample_ideal(full_distribution(haar_unitary(modes, net_rng), (1,) * photons + (0,) * (modes - photons)),
                        count, rng)
    write_samples(want, rows != 0)
    assert samples.read_bytes() == want.read_bytes()
    clicks = np.bincount(np.count_nonzero(rows, axis=1))
    results = {"count": count, "population": "device", "samplesPath": str(samples),
               "clickCounts": {str(k): int(v) for k, v in enumerate(clicks) if v}}
    report = {"schemaVersion": cli.SCHEMA_VERSION, "command": "sample", "seed": seed,
              "parameters": {"modes": modes, "nSources": photons, "unitary": None}, "results": results}
    assert out.read_text() == report_text(report)
    if count > STACK and photons > 1:
        assert rows.max() > 1  # outcomes with a repeated mode were drawn


# M = 24, N = 5: C(28, 5) = 118,755 outcomes, whose intp occupation table alone is 22.8 MB
_OUTCOMES = math.comb(28, 5)


@pytest.mark.parametrize("command", ["distribution", "sample"])
def test_exact_table_commands_hold_only_probabilities(tmp_path, command):
    # the probabilities and, for sample, their running sum: 16 bytes per outcome, plus kernel stacks
    # and the text of one chunk, a few MB; no outcome table and no whole report
    argv = {"distribution": ["distribution", "--photons", "5", "--format", "csv"],
            "sample": ["sample", "--sources", "5", "--count", "1000", "--samples-out", str(tmp_path / "s.txt")]}[command]
    tracemalloc.start()
    try:
        assert main([*argv, "--modes", "24", "--seed", "3", "--out", str(tmp_path / "r.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * _OUTCOMES + 8_000_000


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("argv", [["distribution", "--photons", "12"],
                                  ["distribution", "--photons", "12", "--format", "csv"],
                                  ["sample", "--sources", "12", "--count", "3", "--samples-out", "s.txt"]])
def test_exact_tables_refused_over_the_outcome_cap(tmp_path, monkeypatch, capsys, argv):
    # C(51, 12) outcomes: refused with the enumeration's message before any row or permanent
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fock, "_pattern_chunks", _no_work)
    monkeypatch.setattr(ideal_sampler, "_permanent_batch", _no_work)
    assert _run(*argv, "--modes", "40", "--seed", "1", "--out", "r.json") == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"kind": "resource", "message": f"output enumeration: {math.comb(51, 12)} outcomes, over the "
                                                     f"'outcomes' limit; capped at 2000000 outcomes"}
    assert os.listdir() == []


def test_witness_refused_over_the_permanent_order(tmp_path, monkeypatch, capsys):
    # 31 sources on 32 modes: 32 patterns, each a permanent of order 31, refused before any pattern or permanent
    monkeypatch.chdir(tmp_path)
    write_matrix_json("u.json", haar_unitary(32, np.random.default_rng(1)).matrix)
    Path("s.txt").write_text("")
    monkeypatch.setattr(verify, "_pattern_chunks", _no_work)
    monkeypatch.setattr(ideal_sampler, "_permanent_batch", _no_work)
    assert _run("verify", "--test", "witness", "--unitary", "u.json", "--sources", "31", "--samples", "s.txt",
                "--out", "r.json") == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"kind": "resource",
                     "message": "permanent: 31 rows, over the 'permanent_order' limit; capped at 30 rows"}
    assert sorted(os.listdir()) == ["s.txt", "u.json"]


def test_device_sample_takes_every_network_distribution_takes(tmp_path, monkeypatch):
    # defect 9.8e-9, under the 1e-8 a --unitary file may carry, moves the total mass by N d = 4.9e-8
    monkeypatch.chdir(tmp_path)
    write_matrix_json("u.json", haar_unitary(16, np.random.default_rng(0)).matrix * (1 + 4.9e-9))
    assert _run("distribution", "--unitary", "u.json", "--photons", "5", "--out", "d.json") == 0
    assert _report(Path("d.json"))["results"]["totalMass"] > 1 + 4e-8
    assert _run("sample", "--unitary", "u.json", "--sources", "5", "--count", "10", "--seed", "1",
                "--samples-out", "s.txt", "--out", "r.json") == 0
    assert read_samples("s.txt").shape == (10, 16)


def test_device_sample_refuses_mass_off_the_network(tmp_path, monkeypatch, capsys):
    # a kernel that moves the total mass by 1e-6 on a Haar network (defect near 1e-15): exit 3, no file
    real = ideal_sampler._permanent_batch
    monkeypatch.setattr(ideal_sampler, "_permanent_batch", lambda stack: real(stack) * math.sqrt(1 + 1e-6))
    monkeypatch.chdir(tmp_path)
    assert _run("sample", "--modes", "6", "--sources", "3", "--count", "10", "--seed", "1", "--samples-out", "s.txt",
                "--out", "r.json") == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "numeric"
    named = re.fullmatch(r"device distribution has total mass (\S+), further from 1 than the network's "
                         r"unitarity defect (\S+) allows", error["message"])
    assert float(named[1]) == pytest.approx(1 + 1e-6, abs=1e-12) and 0 < float(named[2]) < 1e-12
    assert os.listdir() == []


@pytest.mark.parametrize("argv", [["distribution", "--photons", "3"],
                                  ["distribution", "--photons", "3", "--format", "csv"],
                                  ["sample", "--sources", "3", "--count", "10", "--samples-out", "s.txt"]])
def test_non_finite_probability_leaves_no_file(tmp_path, monkeypatch, capsys, argv):
    # one infinite permanent: a numeric error (exit 3) before the first byte of any output
    real = ideal_sampler._permanent_batch

    def kernel(stack):
        out = real(stack)
        out[-1] = np.inf
        return out

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ideal_sampler, "_permanent_batch", kernel)
    assert _run(*argv, "--modes", "6", "--seed", "1", "--out", "r.json") == 3
    assert json.loads(capsys.readouterr().err)["error"] == {"kind": "numeric", "message": "probabilities must be finite"}
    assert os.listdir() == []


@pytest.mark.parametrize("argv", [["distribution", "--modes", "3", "--photons", "2", "--seed", "1"],
                                  ["budget", "--sources", "10", "--modes", "4000", "--epsilon", "0.1", "--delta", "0.1",
                                   "--scaling", "5,10"]])
def test_csv_table_never_overwrites_its_report(tmp_path, monkeypatch, capsys, argv):
    # an --out path ending in .csv is the side table's own path: refused before any work
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(cli, "_resolve_unitary", _no_work)
        m.setattr(cli, "evaluate_budget", _no_work)
        assert _run(*argv, "--format", "csv", "--out", "t.csv") == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"kind": "usage", "message": "--format csv writes its table to t.csv, the --out report path: "
                                                  "give a report path that does not end in .csv"}
    assert os.listdir() == []
    assert _run(*argv, "--format", "csv", "--out", "t.json") == 0
    assert sorted(os.listdir()) == ["t.csv", "t.json"]
    assert _report(Path("t.json"))["command"] == argv[0]
    assert not Path("t.csv").read_text().startswith("{")


# ------------------------------------------------------------ report writer


def _plain(obj):
    """obj with every numpy array replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_STRINGS = st.text() | st.text(st.sampled_from("\x00\x1f\x7f\"\\/\n\t\u00e9\u2028\ud800\U0001f600a"))
_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), _FLOATS, _STRINGS,
    hnp.arrays(np.float64, st.integers(0, 5), elements=_FLOATS),
    hnp.arrays(np.intp, st.tuples(st.integers(0, 4), st.integers(0, 4)), elements=st.integers(0, 12)),
    hnp.arrays(np.int64, st.tuples(st.integers(0, 3), st.integers(0, 3))),
    hnp.arrays(np.intp, st.tuples(st.integers(0, 3), st.integers(0, 3)), elements=st.integers(0, 10**18)),
    # a float64 scalar is a float; json refuses other numpy scalars
    _FLOATS.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats(width=32).map(np.float32),
)
_REPORTS = st.recursive(
    _REPORT_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_REPORTS)
def test_report_text_matches_json_dumps(obj):
    try:
        want = json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            report_text(obj)
    else:
        assert report_text(obj) == want


@pytest.mark.parametrize("sizes", [(), (1,), (3, 1), (4, 4, 2)])
def test_row_chunks_are_written_as_their_table(sizes):
    # a RowChunks leaf is the list of its rows, whatever the chunk sizes, and is rendered afresh each time
    rng = np.random.default_rng(len(sizes))
    chunks = [rng.integers(0, 120, (size, 3)) for size in sizes]
    obj = {"b": cli.RowChunks(lambda: iter(chunks)), "a": [cli.RowChunks(lambda: iter(chunks)), 1.5]}
    rows = np.concatenate(chunks).tolist() if chunks else []
    want = json.dumps({"b": rows, "a": [rows, 1.5]}, sort_keys=True, indent=2) + "\n"
    assert report_text(obj) == want
    assert report_text(obj) == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_text_refuses_non_finite_floats(bad):
    for obj in (bad, {"a": [1.0, bad]}, {"a": np.array([0.5, bad])}):
        with pytest.raises(ValueError):
            json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            report_text(obj)


def test_reports_reencode_to_the_same_text(tmp_path):
    # every report is exactly the standard library's indented, key-sorted JSON of itself
    write_matrix_json(tmp_path / "u.json", haar_unitary(8, np.random.default_rng(9)).matrix)
    net = ["--unitary", str(tmp_path / "u.json"), "--sources", "3"]
    commands = {
        "sample": ["sample", "--modes", "6", "--sources", "2", "--count", "200", "--seed", "5",
                   "--samples-out", str(tmp_path / "c13.txt")],
        "distribution": ["distribution", "--modes", "5", "--photons", "2", "--seed", "6"],
        "distance": ["distance", "--modes", "10", "--sources", "2", "--p1", "0.99", "--p0", "0.01",
                     "--loss", "0.01", "--dark", "1e-5", "--seed", "7"],
        "budget": ["budget", "--sources", "10", "--modes", "4000", "--epsilon", "0.1", "--delta", "0.1",
                   "--g", "0.99", "--scaling", "5,10,20"],
        "suppression": ["verify", "--test", "suppression", "--photons", "4", "--g", "0.95"],
        "bench": ["bench", "--sizes", "2,4,8", "--seed", "8"],
        "distribution_m8": ["distribution", "--unitary", str(tmp_path / "u.json"), "--photons", "3"],
        "sample_device": ["sample", *net, "--count", "2000", "--seed", "1", "--samples-out", str(tmp_path / "d.txt")],
        "sample_uniform": ["sample", *net, "--count", "2000", "--seed", "2", "--population", "uniform",
                           "--samples-out", str(tmp_path / "n.txt")],
        "witness_device": ["verify", "--test", "witness", *net, "--samples", str(tmp_path / "d.txt")],
        "witness_uniform": ["verify", "--test", "witness", *net, "--samples", str(tmp_path / "n.txt")],
    }
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        assert _run(*argv, "--out", str(out)) == 0, name
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


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


_UNIT = ("--unitary", "u.json", '{"modes": 1, "entries": [[[1, 0]]]}')  # a valid 1 x 1 network
_WITNESS = ["verify", "--test", "witness", "--sources", "1"]
_BUDGET = ["budget", "--sources", "3", "--modes", "50", "--epsilon", "0.1", "--delta", "0.5"]
_TWO_NETWORKS = "--unitary and --modes are alternative networks: give one"


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
        (("--unitary", "u.json", None), ["distribution", "--photons", "1"], 1, "Is a directory"),
        (("--config", "c.json", None), ["distribution", "--modes", "3", "--photons", "1", "--seed", "1"],
         1, "Is a directory"),
        (("--out", "r.json", None), ["distribution", "--modes", "3", "--photons", "1", "--seed", "1"],
         1, "Is a directory"),
        (None, ["verify", "--test", "suppression", "--photons", "8", "--g", "0.9"], 2, "capped at 7 photons"),
        (("--config", "c.json", b"\xff{}"), ["distribution"], 1, "file c.json is not UTF-8 text"),
        (("--unitary", "u.json", b"\xff{}"), ["distribution", "--photons", "1"], 1, "file u.json is not UTF-8 text"),
        ((_UNIT, ("--samples", "s.txt", b"1\n\xff\n")), _WITNESS, 1, "file s.txt is not UTF-8 text"),
        (("--config", "c.json", '{"modes": 4,}'), ["distribution"], 1, "config file c.json is not valid JSON"),
        ((_UNIT, ("--samples", "s.txt", "1\n10\n")), _WITNESS, 1, "sample pattern length must equal the mode count"),
        ((_UNIT, ("--samples", "s.txt", "1\n 1x \n")), _WITNESS, 1, "sample line is not a 0/1 string: '1x'"),
        (None, _BUDGET + ["--sigma-omega", "1.0"], 1, "--sigma-omega and --sigma-tau"),
        (None, _BUDGET + ["--sigma-tau", "0.1"], 1, "--sigma-omega and --sigma-tau"),
        (None, _BUDGET + ["--g", "0.9", "--fidelity", "0.5"], 1, "--g and --fidelity are alternative"),
        (None, _BUDGET + ["--fidelity", "0.99", "--sigma-omega", "1", "--sigma-tau", "0.1"], 1,
         "--fidelity and --sigma-omega/--sigma-tau are alternative"),
        (None, ["budget", "--sources", "1", "--modes", "10", "--epsilon", "0.1", "--delta", "0.5",
                "--g", "0.5,0.4"], 1, "--g takes a single value at N = 1"),
        (_UNIT, _BUDGET, 1, "unrecognized arguments: --unitary u.json"),
        (None, ["distribution", "--modes", "3", "--photons", "1", "--seed", "1", "--loss", "0.5"], 1,
         "unrecognized arguments: --loss 0.5"),
        (("--config", "c.json", '{"p0": 0.1}'), ["distribution", "--modes", "3", "--photons", "1", "--seed", "1"],
         1, "unknown config key 'p0'"),
        (None, ["sample", "--modes", "4", "--sources", "2", "--count", "3", "--seed", "1", "--samples-out", "s.txt",
                "--p1", "0.9"], 1, "unrecognized arguments: --p1 0.9"),
        (None, ["sample", "--modes", "4", "--sources", "2", "--count", "3", "--seed", "1", "--samples-out", "s.txt",
                "--p2", "0.1"], 1, "unrecognized arguments: --p2 0.1"),
        (None, ["sample", "--modes", "4", "--sources", "2", "--count", "3", "--seed", "1", "--samples-out", "s.txt",
                "--dark", "1e-5"], 1, "unrecognized arguments: --dark 1e-5"),
        (("--config", "c.json", '{"config": "d.json"}'), ["distribution"], 1, "unknown config key 'config'"),
        (None, ["verify", "--test", "roundtrip", "--modes", "20", "--sources", "13", "--p1", "0.97", "--p2", "0.01",
                "--seed", "1"], 2,
         "8192 slot permanents of order 26: 274877906944 Gray steps, over the 'gray_steps' limit"),
        (None, ["distance", "--modes", "16", "--sources", "12", "--p1", "0.97", "--p2", "0.01", "--seed", "1"], 2,
         "64839 slot permanents of order 24: 543908954112 Gray steps, over the 'gray_steps' limit"),
        (None, ["distance", "--modes", "2", "--sources", "2", "--dark", "inf", "--seed", "1"], 1,
         "dark_rate must be finite and non-negative"),
        (_UNIT, ["distance", "--sources", "1", "--modes", "99"], 1, _TWO_NETWORKS),
        # C(1001, 1000) patterns pass the pattern cap; the walk's 1000-deep set-up must not run before the table's
        (None, ["distance", "--modes", "1001", "--sources", "1000", "--seed", "1"], 2, "subset table"),
        (_UNIT, ["verify", "--test", "roundtrip", "--sources", "1", "--modes", "99"], 1, _TWO_NETWORKS),
        ((_UNIT, ("--config", "c.json", '{"modes": 99}')), ["distribution", "--photons", "1"], 1, _TWO_NETWORKS),
        ((_UNIT, ("--config", "c.json", '{"modes": 99}')), ["sample", "--sources", "1", "--count", "3", "--seed", "1",
                                                            "--samples-out", "s.txt"], 1, _TWO_NETWORKS),
        (None, _BUDGET + ["--p1", "0.8", "--p2", "0.3"], 1, "p1 + p2 exceeds 1"),
        (None, _BUDGET + ["--p0", "0.1", "--p1", "0.8", "--p2", "0.3"], 1, "photon probabilities sum to"),
        (None, ["sample", "--modes", "4", "--sources", "2", "--count", "3000000000", "--seed", "1",
                "--samples-out", "s.txt"], 2,
         "3000000000 samples of 4 modes: 12000000000 click bits, over the 'sample_bits' limit"),
        (None, ["sample", "--modes", "4", "--sources", "2", "--count", "5", "--samples-out", "s.txt"], 1,
         "the following arguments are required: --seed"),
        (None, ["bench", "--sizes", "2"], 1, "the following arguments are required: --seed"),
    ],
    ids=["json-no-modes", "json-no-entries", "csv-short-row", "csv-nan", "negative-count",
         "json-short-entry", "config-modes-not-int", "config-photons-not-int",
         "uniform-sources-over-modes", "unitary-is-directory", "config-is-directory", "out-is-directory",
         "suppression-over-photon-cap", "config-not-utf8", "unitary-not-utf8", "samples-not-utf8",
         "config-not-json", "samples-ragged", "samples-not-01",
         "jitter-without-tau", "jitter-without-omega", "g-and-fidelity", "fidelity-and-jitter",
         "g-list-at-one-photon", "budget-unitary", "distribution-loss", "distribution-config-p0",
         "sample-p1", "sample-p2", "sample-dark", "config-names-config", "roundtrip-term-cap",
         "distance-support-cap", "distance-dark-inf", "distance-unitary-modes", "distance-deep-walk",
         "roundtrip-unitary-modes",
         "distribution-unitary-config-modes", "sample-unitary-config-modes", "source-p1-p2-over-one",
         "source-p0-p1-p2-over-one", "sample-count-over-bit-cap", "sample-no-seed", "bench-no-seed"],
)
def test_bad_input_gives_one_json_error(tmp_path, monkeypatch, capsys, given, argv, code, needle):
    monkeypatch.chdir(tmp_path)
    files = [] if given is None else [given] if isinstance(given[0], str) else given
    for flag, name, text in files:  # a file with this text or these bytes, or a directory when None
        if text is None:
            (tmp_path / name).mkdir()
        elif isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
        argv = argv + [flag, name]
    rc = _exit_code(argv + ["--out", "r.json"])
    assert rc == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == {1: "usage", 2: "resource", 3: "numeric"}[code]
    assert needle in error["message"]


# the options each command, and each verify test, reads besides --config, --seed and --out
_READS = {
    "distribution": {"--modes", "--unitary", "--photons", "--format"},
    "sample": {"--modes", "--unitary", "--sources", "--count", "--samples-out", "--population"},
    "distance": {"--modes", "--unitary", "--sources", "--p0", "--p1", "--p2", "--loss", "--dark"},
    "budget": {"--modes", "--sources", "--p0", "--p1", "--p2", "--loss", "--dark", "--epsilon", "--delta", "--g",
               "--fidelity", "--sigma-omega", "--sigma-tau", "--scaling", "--format"},
    "verify --test witness": {"--unitary", "--sources", "--photons", "--samples"},
    "verify --test roundtrip": {"--modes", "--unitary", "--sources", "--p0", "--p1", "--p2", "--loss", "--dark"},
    "verify --test suppression": {"--photons", "--sources", "--g"},
    "bench": {"--sizes"},
}
_ALL_OPTIONS = sorted(set().union(*_READS.values(), {"--test"}))
_TESTS = ("witness", "roundtrip", "suppression")
# the options that one verify test reads and another does not
_VERIFY_UNREAD = {t: sorted(set().union(*(_READS[f"verify --test {u}"] for u in _TESTS)) - _READS[f"verify --test {t}"])
                  for t in _TESTS}


@pytest.mark.parametrize("via", ["argv", "config"])
@pytest.mark.parametrize("test, option", [(t, o) for t, options in _VERIFY_UNREAD.items() for o in options])
def test_verify_refuses_options_its_test_does_not_read(tmp_path, monkeypatch, capsys, test, option, via):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--test", test]
    if via == "argv":
        argv += [option, "1"]
        needle = f"unrecognized arguments: {option} 1"
    else:
        Path("c.json").write_text(json.dumps({option[2:]: "1"}))
        argv += ["--config", "c.json"]
        needle = f"unknown config key {option[2:]!r}"
    assert _exit_code(argv + ["--out", "r.json"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"kind": "usage", "message": needle}
    assert not Path("r.json").exists()


def test_python_m_writes_the_cli_report(tmp_path):
    argv = ["budget", "--sources", "9", "--modes", "900", "--epsilon", "0.1", "--delta", "0.5", "--g", "0.98",
            "--scaling", "9,10"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "bosonbudget", *argv, "--out", str(tmp_path / "m.json")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert _run(*argv, "--out", str(tmp_path / "main.json")) == 0
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_roundtrip_many_single_photon_sources(tmp_path):
    # 12 clicks, each source empty with p0 > 0: one collapsed input, 4096 permanents
    out = tmp_path / "r.json"
    rc = _run("verify", "--test", "roundtrip", "--modes", "24", "--sources", "12",
              "--p0", "0.02", "--p1", "0.98", "--seed", "1", "--out", str(out))
    assert rc == 0
    assert 0.0 < _report(out)["results"]["returnProbability"] <= 1.0


def test_distance_over_eleven_sources(tmp_path):
    # one pattern: 2^11 permanents of 11 x 11, about 2M Gray steps; for the ideal device the
    # mass off the one 11-click pattern is the ideal bunched mass
    out = tmp_path / "d.json"
    assert _run("distance", "--modes", "11", "--sources", "11", "--seed", "1", "--out", str(out)) == 0
    parts = _report(out)["results"]
    assert parts["v2"] < 1e-12 and abs(parts["v1"] - parts["vb"]) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_two_photon_sources_at_every_n(tmp_path, n):
    # one slot matrix of 2N rows per kept-click subset, from one source to eight
    common = ["--modes", "8", "--sources", str(n), "--p1", "0.97", "--p2", "0.03", "--loss", "0.01",
              "--dark", "1e-4", "--seed", "1"]
    assert _run("distance", *common, "--out", str(tmp_path / "d.json")) == 0
    assert _run("verify", "--test", "roundtrip", *common, "--out", str(tmp_path / "r.json")) == 0
    parts = _report(tmp_path / "d.json")["results"]
    assert min(parts["v1"], parts["v2"], parts["vb"]) >= 0.0 and parts["total"] <= 2.0
    assert 0.0 < _report(tmp_path / "r.json")["results"]["returnProbability"] <= 1.0


def test_verify_photons_beats_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sources": 4}))
    out = tmp_path / "v.json"
    rc = _run("verify", "--test", "suppression", "--photons", "3", "--g", "0.9",
              "--config", str(cfg), "--out", str(out))
    assert rc == 0
    assert _report(out)["parameters"]["photons"] == 3


def test_config_fills_options_that_have_defaults(tmp_path):
    # --p1 defaults to 1.0 and --seed 0 is falsy: the file sets the one, the command line keeps the other
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p1": 0.9, "seed": 3}))
    out = tmp_path / "d.json"
    rc = _run("distance", "--modes", "4", "--sources", "2", "--seed", "0", "--config", str(cfg),
              "--out", str(out))
    assert rc == 0
    report = _report(out)
    assert report["parameters"]["p1"] == 0.9
    assert report["seed"] == 0


# a command's required options, and values for them
_REQUIRED = {
    "sample": (["sample", "--modes", "5", "--sources", "2", "--seed", "4"], {"count": 30, "samples-out": "s.txt"}),
    "budget": (["budget", "--sources", "3", "--modes", "100", "--scaling", "2,3"], {"epsilon": 0.1, "delta": 0.5}),
}


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_required_options_may_come_from_config(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv, required = _REQUIRED[command]
    typed = [word for key, value in required.items() for word in (f"--{key}", str(value))]
    outputs = []
    for extra in (typed, ["--config", "c.json"]):
        for path in tmp_path.iterdir():
            path.unlink()
        Path("c.json").write_text(json.dumps(required))
        assert _run(*argv, *extra, "--out", "r.json") == 0
        outputs.append({path.name: path.read_bytes() for path in tmp_path.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, config, missing",
    [
        (["sample", "--modes", "5", "--seed", "4"], None, ["--sources", "--count", "--samples-out"]),
        (["sample", "--modes", "5", "--sources", "2", "--seed", "4"], {"count": None, "samples-out": "s.txt"},
         ["--count"]),
        (["budget", "--sources", "3"], {"epsilon": 0.1, "delta": None}, ["--modes", "--delta"]),
        (["budget"], {}, ["--modes", "--sources", "--epsilon", "--delta"]),
        (["verify", "--test", "witness", "--photons", "2"], None, ["--unitary", "--samples"]),
        (["distance", "--modes", "3", "--seed", "1"], {"sources": None}, ["--sources"]),
        (["verify", "--test", "suppression", "--g", "0.9"], None, ["--photons"]),
    ],
    ids=["sample", "sample-null-count", "budget-null-delta", "budget-none", "witness", "distance-null-sources",
         "suppression"],
)
def test_missing_required_options_give_one_usage_error(tmp_path, monkeypatch, capsys, argv, config, missing):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("c.json").write_text(json.dumps(config))
        argv = argv + ["--config", "c.json"]
    assert _exit_code(argv + ["--out", "r.json"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = "the following arguments are required: " + ", ".join(missing)
    assert json.loads(lines[0])["error"] == {"kind": "usage", "message": message}
    assert not Path("r.json").exists()


def test_report_keys_are_pinned(tmp_path, monkeypatch):
    # report keys are made from result field names, so renaming a field would rename a key
    monkeypatch.chdir(tmp_path)
    write_matrix_json("u.json", haar_unitary(6, np.random.default_rng(3)).matrix)
    Path("empty.txt").write_text("")
    runs = {
        "witness": ["verify", "--test", "witness", "--unitary", "u.json", "--sources", "2", "--samples", "s.txt"],
        "witness-empty": ["verify", "--test", "witness", "--unitary", "u.json", "--sources", "2",
                          "--samples", "empty.txt"],
        "suppression": ["verify", "--test", "suppression", "--photons", "3", "--g", "0.9"],
        "budget": ["budget", "--sources", "3", "--modes", "100", "--epsilon", "0.1", "--delta", "0.5",
                   "--scaling", "2,3", "--format", "csv"],
        "budget-one": ["budget", "--sources", "1", "--modes", "1", "--epsilon", "0.1", "--delta", "0.5",
                       "--scaling", "1"],
    }
    assert _run("sample", "--unitary", "u.json", "--sources", "2", "--count", "50", "--seed", "1",
                "--samples-out", "s.txt", "--out", "sample.json") == 0
    results = {}
    for name, argv in runs.items():
        assert _run(*argv, "--out", f"{name}.json") == 0, name
        results[name] = _report(Path(f"{name}.json"))["results"]
    witness = {"test", "sampleMean", "sampleSe", "referenceUniform", "referenceDevice", "midpoint", "decision",
               "nUsed", "nRejected"}
    assert set(results["witness"]) == set(results["witness-empty"]) == witness
    assert results["witness-empty"]["sampleMean"] is None and results["witness-empty"]["sampleSe"] == "inf"
    assert set(results["suppression"]) == {"test", "suppressedMass", "lawViolations", "nSuppressed", "lawValid"}
    assert set(results["budget"]) == {
        "epsilon", "delta", "nSources", "modes", "noiseBound", "noiseBoundClamped", "noiseBoundAdditive",
        "clickProb", "badInputProb", "mismatchBound", "mismatchBoundSmall", "noiseOk", "mismatchOk",
        "maxTolerable", "networksPerHardInstance", "notes", "scalingTable"}
    assert set(results["budget"]["maxTolerable"]) == {"dark_rate", "loss_prob", "p1_deficit", "fidelity_deficit"}
    row = {"nSources", "requiredModes", "maxDarkRate", "maxLossProb", "maxP1Deficit", "maxFidelityDeficit",
           "elementFidelity"}
    assert [set(r) for r in results["budget"]["scalingTable"]] == [row, row]
    header = Path("budget.csv").read_text().splitlines()[0]
    assert header == "nSources,requiredModes,maxDarkRate,maxLossProb,maxP1Deficit,maxFidelityDeficit"
    # one photon has no mismatch error, so its tolerance is unbounded: written as "inf"
    one = results["budget-one"]
    assert one["maxTolerable"] == {"dark_rate": None, "loss_prob": None, "p1_deficit": None, "fidelity_deficit": "inf"}
    assert one["scalingTable"][0]["maxFidelityDeficit"] == "inf"


def test_threads_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        _run("bench", "--seed", "1", "--threads", "2")
    assert err.value.code == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_schema_rejects_malformed_report():
    schema = load_schema()
    with pytest.raises(ValueError):
        validate_report({"schemaVersion": "2"}, schema)
    with pytest.raises(ValueError):  # version 1, with its threads key
        validate_report(
            {"schemaVersion": "1", "command": "bench", "seed": 1, "threads": 1,
             "parameters": {}, "results": {}},
            schema,
        )
    with pytest.raises(ValueError):
        validate_report(
            {"schemaVersion": "2", "command": "bench", "seed": 1, "threads": 1,
             "parameters": {}, "results": {}},
            schema,
        )
    validate_report({"schemaVersion": "2", "command": "bench", "seed": 1, "parameters": {}, "results": {}}, schema)


def test_validate_report_leaves_the_parsed_schema_unchanged(tmp_path):
    # the schema is parsed once per process and shared by every report, so validation only reads it
    schema = load_schema()
    assert load_schema() is schema
    before = json.loads(json.dumps(schema))
    reports = [{"schemaVersion": "2", "command": "bench", "seed": 1, "parameters": {}, "results": {}},
               {"schemaVersion": "2"}, {"schemaVersion": "1", "extra": [1, {"a": None}]}, [], None]
    for argv in (["budget", "--sources", "4", "--modes", "40", "--epsilon", "0.1", "--delta", "0.5"],
                 ["distribution", "--modes", "4", "--photons", "2", "--seed", "1"]):
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    for report in reports:
        with contextlib.suppress(ValueError):
            validate_report(report)
    assert load_schema() is schema and schema == before


# ------------------------------------------------------- the error contract

_KINDS = {1: "usage", 2: "resource", 3: "numeric"}
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.sampled_from([0.5, 1e300, float("nan")]),
    st.sampled_from(["", "x", "1", "csv", "uniform", "witness", "2,3"]),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["modes", "entries", "x"]), inner, max_size=3),
    max_leaves=10,
)
_CONFIG_KEYS = ["modes", "photons", "sources", "seed", "count", "p1", "loss", "dark", "threads",
                "format", "population", "sizes", "test", "g", "epsilon", "delta", "samples-out", "bogus"]


def _mostly(good, bad):
    """Valid values three times as often as invalid ones, so runs get past the checks."""
    return st.sampled_from(good * 3 + bad)


_SIZES = _mostly([1, 2, 3, 4, 5, 6, 7, 8], [-3, -1, 0])
_PHOTONS = _mostly([1, 2, 3, 4, 5], [-3, -1, 0, 8])  # suppression at 6 or 7 photons takes seconds
_PROBS = _mostly(["0", "1e-4", "0.03", "0.5", "0.97", "1"], ["-0.5", "2", "nan", "inf", "x"])


@functools.cache
def _unitary_text(modes: int, csv: bool) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u"
        (write_matrix_csv if csv else write_matrix_json)(path, haar_unitary(modes, np.random.default_rng(modes)).matrix)
        return path.read_bytes()


def _lines(alphabet, length):
    return st.lists(st.text(alphabet, min_size=length, max_size=length), max_size=8).map("\n".join)


def _matrix_bytes(name, modes):
    valid = st.just(_unitary_text(modes, name.endswith(".csv")))
    return st.one_of(st.binary(max_size=48), _JSON.map(lambda v: json.dumps(v).encode()), valid, valid)


def _sample_bytes(modes):
    return st.one_of(
        st.binary(max_size=48),
        _lines("01", modes).map(str.encode),
        _lines("01", modes).map(str.encode),
        st.integers(1, 6).flatmap(lambda n: _lines("01 x", n)).map(str.encode),
    )


_CONFIG_BYTES = st.one_of(
    st.binary(max_size=48),
    st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON_SCALARS, max_size=3).map(lambda v: json.dumps(v).encode()),
)


def _declared_options() -> dict[str, set[str]]:
    """The options of each command's parser besides --config, --seed, --out and --help."""
    common = {"-h", "--help", "--config", "--seed", "--out"}
    return {p.prog.removeprefix("bosonbudget "): {s for a in p._actions for s in a.option_strings} - common
            for p in build_parser().commands.values()}


def _readme_options() -> dict[str, set[str]]:
    """The option table of README's "Command line" section: command -> the options in its row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return {command.strip("| `"): set(re.findall(r"--[a-z0-9-]+", options)) for command, options, _ in rows}


def test_readme_option_table_matches_the_parser():
    assert _readme_options() == _declared_options() == _READS


@st.composite
def _invocations(draw):
    """(argv, files, unread): one command line with small sizes, the files it names, and the one option
    that its command does not read, given in about 1 run in 10, or None."""
    files = {}

    def present(p):
        return draw(st.integers(0, 9)) < 10 * p

    def maybe(flag, values, p=0.5):
        return [flag, str(draw(values))] if present(p) else []

    def option(flag, values, p=0.5):  # drawn only when the command reads it
        return maybe(flag, values, p) if flag in reads else []

    def file_flag(flag, name, content, p=0.5):
        if flag not in reads or not present(p):
            return []
        files[name] = draw(content)
        return [flag, name]

    modes = draw(st.integers(1, 6))  # of the network file, if one is written
    command = draw(st.sampled_from(["distribution", "sample", "distance", "budget", "verify", "bench"]))
    argv = [command]
    test = draw(st.sampled_from(_TESTS)) if command == "verify" else None
    if test:
        argv += ["--test", test]
        command = f"verify --test {test}"
    reads = _READS[command]
    sources = draw(_PHOTONS if test == "suppression" else _SIZES)
    has_sources = present(0.9)
    if has_sources and reads & {"--sources", "--photons"}:
        argv += [draw(st.sampled_from(sorted(reads & {"--sources", "--photons"}))), str(sources)]
    if "--modes" in reads and ("--unitary" not in reads or draw(st.booleans())):
        argv += option("--modes", _SIZES, 0.9)
    else:
        name = draw(st.sampled_from(["u.json", "u.csv"]))
        argv += file_flag("--unitary", name, _matrix_bytes(name, modes), 0.9)
    for flag in ("--p0", "--p1", "--loss", "--dark"):
        argv += option(flag, _PROBS, 0.3)
    argv += option("--p2", _PROBS, 0.3)
    argv += maybe("--seed", _mostly([0, 1, 7], [-1]), 0.8)
    if command == "sample":
        argv += ["--count", str(draw(_mostly([0, 1, 20, 50], [-3, -1]))), "--samples-out", "s.txt"]
    if command == "budget":
        argv += ["--epsilon", draw(_PROBS), "--delta", draw(_PROBS)]
    argv += option("--population", st.sampled_from(["device", "uniform"]))
    argv += option("--fidelity", _PROBS, 0.2)
    argv += option("--sigma-omega", _PROBS, 0.2) + option("--sigma-tau", _PROBS, 0.2)
    argv += option("--scaling", st.sampled_from(["2,4", "3,30", "0", "-1", "a"]), 0.3)
    argv += option("--g", _mostly(["0.9", "0.9,0.8", "1,1,1,1"], ["1.5", "-0.2", "x", ""]), 0.5)
    argv += option("--format", st.sampled_from(["json", "csv"]))
    argv += file_flag("--samples", "s.txt", _sample_bytes(modes), 0.9)
    argv += option("--sizes", st.lists(_SIZES, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))))
    unread = draw(st.sampled_from([o for o in _ALL_OPTIONS if o not in reads])) if present(0.1) else None
    if unread and draw(st.booleans()):
        argv += [unread, "1"]
    elif unread:
        files["c.json"] = json.dumps({unread[2:]: 1}).encode()
        argv += ["--config", "c.json"]
    elif present(0.2):
        files["c.json"] = draw(_CONFIG_BYTES)
        argv += ["--config", "c.json"]
    return argv + ["--out", "r.json"], files, unread


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_invocations())
def test_every_run_exits_cleanly(invocation):
    # in-process, as a user runs the CLI: exit 0-3 or the parser's SystemExit(1),
    # and a refusal writes exactly one JSON error line whose kind matches its code;
    # an option the command does not read is always refused as a usage error
    argv, files, unread = invocation
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, content in files.items():
            Path(name).write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                assert exc.code == 1, argv
                rc = 1
    assert rc in (0, 1, 2, 3), argv
    if unread:
        assert rc == 1, argv
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["error"]["kind"] == _KINDS[rc], (argv, lines)


def _hundredths(draw, most):
    return draw(st.integers(0, most)) / 100


@st.composite
def _valid_invocations(draw):
    """(argv, files): a valid run of distance, verify --test roundtrip|witness or budget, with small sizes.

    Source probabilities sum to at most 1, epsilon and delta lie in their ranges, a network file is a
    unitary, a sample file is as wide as the network, and a two-photon source reaches N = 8."""
    files = {}
    command = draw(st.sampled_from(["distance", "verify --test roundtrip", "verify --test witness", "budget"]))
    argv = command.split()
    if command == "budget":
        sources = draw(st.integers(1, 30))
        argv += ["--sources", str(sources), "--modes", str(draw(st.integers(sources, 10**5))),
                 "--epsilon", draw(st.sampled_from(["0.01", "0.1", "0.5", "1", "2"])),
                 "--delta", draw(st.sampled_from(["0.01", "0.1", "0.5", "0.99"]))]
    else:
        sources = draw(st.sampled_from(range(1, 9)))
        modes = draw(st.sampled_from(range(sources, 9)))
        flag = draw(st.sampled_from(["--sources", "--photons"])) if command.endswith("witness") else "--sources"
        argv += [flag, str(sources)]
        if command.endswith("witness") or draw(st.booleans()):
            name = draw(st.sampled_from(["u.json", "u.csv"]))
            files[name] = _unitary_text(modes, name.endswith(".csv"))
            argv += ["--unitary", name]
        else:
            argv += ["--modes", str(modes)]
    argv += ["--seed", str(draw(st.integers(0, 7)))]
    if command.endswith("witness"):
        files["s.txt"] = draw(_lines("01", modes)).encode()
        return argv + ["--samples", "s.txt", "--out", "r.json"], files
    p2 = draw(st.sampled_from([0, 0, 1, 3, 50])) / 100
    p1 = _hundredths(draw, 100 - round(100 * p2))
    argv += ["--p1", str(p1)]
    if p2 or draw(st.booleans()):
        argv += ["--p2", str(p2)]
    if draw(st.booleans()):
        argv += ["--p0", str(_hundredths(draw, 100 - round(100 * (p1 + p2))))]
    if draw(st.booleans()):
        argv += ["--loss", draw(st.sampled_from(["0", "0.01", "0.5", "1"]))]
    if draw(st.booleans()):
        argv += ["--dark", draw(st.sampled_from(["0", "1e-4", "0.1", "2"]))]
    if command == "budget":
        overlap = draw(st.sampled_from(["none", "g", "g-list", "fidelity", "jitter"]))
        fractions = st.sampled_from(["0", "0.5", "0.99", "1"])
        if overlap == "g" or (overlap == "g-list" and sources == 1):
            argv += ["--g", draw(fractions)]
        elif overlap == "g-list":
            argv += ["--g", ",".join(draw(st.lists(fractions, min_size=sources - 1, max_size=sources - 1)))]
        elif overlap == "fidelity":
            argv += ["--fidelity", draw(fractions)]
        elif overlap == "jitter":
            argv += ["--sigma-omega", draw(st.sampled_from(["0.5", "1", "2"])),
                     "--sigma-tau", draw(st.sampled_from(["0", "0.01", "0.1"]))]
        if draw(st.booleans()):
            argv += ["--scaling", ",".join(map(str, draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))))]
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv + ["--out", "r.json"], files


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_valid_invocations())
def test_every_valid_run_succeeds(invocation):
    # the success paths that the error-contract property test seldom reaches
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, content in files.items():
            Path(name).write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc == 0, (argv, err.getvalue())
        assert _report(Path("r.json"))["command"] == argv[0]
