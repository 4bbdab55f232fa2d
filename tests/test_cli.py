"""CLI behavior end to end, run in process via main()."""

import csv
import json

import numpy as np
import pytest

from gcnsim import runtime
from gcnsim.cli import EXIT_DATA, EXIT_INVALID, EXIT_OK, main
from gcnsim.formats import read_meta
from gcnsim.pcoo import deserialize_stream
from gcnsim.report import read_report
from gcnsim.schedule import config_for_tile


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    d = tmp_path_factory.mktemp("wl")
    rc = main(["gen", "--nodes", "300", "--degree", "4", "--features", "32",
               "--density", "0.15", "--seed", "11", "--out", str(d / "w")])
    assert rc == EXIT_OK
    return d


def test_gen_writes_deterministic_bundle(tmp_path, capsys):
    args = ["gen", "--nodes", "50", "--degree", "2", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "generated 50 nodes" in out
    for name in ("edges.txt", "features.txt"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
    assert main(["gen", "--nodes", "4", "--degree", "9", "--out",
                 str(tmp_path / "c")]) == EXIT_INVALID


def test_preprocess_streams_and_identity(workload, capsys):
    out = workload / "pp"
    rc = main(["preprocess", str(workload / "w"), "--pe", "4", "--tile", "64",
               "--out", str(out)])
    assert rc == EXIT_OK
    meta = read_meta(out / "meta.json")
    assert meta["config"]["pe_count"] == 4
    assert meta["streams"], "no streams written"
    for stream in meta["streams"]:
        header, sched = deserialize_stream((out / stream["file"]).read_bytes())
        assert header.pe_count == 4
        assert header.tile_width == 64
        assert header.cycle_count == stream["cycles"] == sched.cycles
        slots = (stream["valid"] + stream["empty_row"]
                 + stream["stall_idle"] + stream["pad_idle"])
        assert slots == stream["cycles"] * 4
    kinds = {s["kind"] for s in meta["streams"]}
    assert kinds == {"adjacency", "features"}
    table = capsys.readouterr().out
    assert "total" in table and "stall" in table


def test_simulate_report_and_logits(workload, capsys):
    out = workload / "sim"
    rc = main(["simulate", str(workload / "w"), "--pe", "4", "--tile", "64",
               "--hidden", "8", "--classes", "3", "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "efficiency" in text and "exact_match=True" in text
    doc = read_report(out / "report.json")
    ph = doc["phases"]
    assert ph["total_cycles"] == ph["load_cycles"] + ph["compute_cycles"] + ph["move_cycles"]
    slots = doc["sdmm"]["slots"]
    assert sum(slots.values()) == doc["sdmm"]["compute_cycles"] * 4
    assert doc["verify"]["exact_match"] is True
    lines = (out / "logits.txt").read_text().splitlines()
    assert lines[0].startswith("# logits 300 3")
    grid = np.loadtxt(lines[1:], dtype=np.int64)
    assert grid.shape == (300, 3)

    rc = main(["report", str(out / "report.json")])
    assert rc == EXIT_OK
    assert "worst PE idle fraction" in capsys.readouterr().out


def test_sweep_grid_and_monotonicity(workload, capsys):
    csv_path = workload / "r.csv"
    rc = main(["sweep", str(workload / "w"), "--pe", "8",
               "--replicas", "1,2,4,8", "--tile", "64",
               "--hidden", "8", "--classes", "3", "--out", str(csv_path)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 4
    for row in rows:
        config_for_tile(int(row["pe"]), int(row["tile"]), int(row["lanes"]),
                        replicas=int(row["replicas"]))
        assert row["exact_match"] == "True"
    cycles = [int(r["sdmm_compute_cycles"]) for r in rows]
    assert all(a >= b for a, b in zip(cycles, cycles[1:])), cycles
    capsys.readouterr()


def test_single_point_sweep_matches_simulate(workload, capsys):
    sim_out = workload / "sim1"
    flags = ["--pe", "2", "--tile", "128", "--hidden", "8", "--classes", "3"]
    assert main(["simulate", str(workload / "w"), *flags,
                 "--out", str(sim_out)]) == EXIT_OK
    doc = read_report(sim_out / "report.json")
    csv_path = workload / "one.csv"
    assert main(["sweep", str(workload / "w"), "--pe", "2", "--replicas", "1",
                 "--tile", "128", "--hidden", "8", "--classes", "3",
                 "--out", str(csv_path)]) == EXIT_OK
    row = next(csv.DictReader(open(csv_path)))
    assert int(row["total_cycles"]) == doc["phases"]["total_cycles"]
    assert int(row["sdmm_compute_cycles"]) == doc["sdmm"]["compute_cycles"]
    assert float(row["efficiency"]) == pytest.approx(doc["sdmm"]["efficiency"])
    capsys.readouterr()


def test_sweep_parallel_jobs_match_serial(workload, capsys):
    base = ["sweep", str(workload / "w"), "--pe", "2,4", "--replicas", "1,2",
            "--tile", "64", "--hidden", "8", "--classes", "3"]
    a, b = workload / "serial.csv", workload / "parallel.csv"
    assert main(base + ["--out", str(a)]) == EXIT_OK
    assert main(base + ["--jobs", "3", "--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()
    rows = list(csv.DictReader(open(a)))
    assert len(rows) == 4
    capsys.readouterr()


def test_sweep_computes_references_once(workload, monkeypatch, capsys):
    calls = {"run_oracle": 0, "real_reference": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted
    for name in calls:
        monkeypatch.setattr(runtime, name, counting(name, getattr(runtime, name)))
    assert main(["sweep", str(workload / "w"), "--pe", "2,4", "--replicas", "1,2",
                 "--tile", "64", "--model", "graphsage-mean", "--hidden", "8",
                 "--classes", "3", "--out", str(workload / "once.csv")]) == EXIT_OK
    rows = list(csv.DictReader(open(workload / "once.csv")))
    assert len(rows) == 4 and all(r["exact_match"] == "True" for r in rows)
    assert calls == {"run_oracle": 1, "real_reference": 1}
    capsys.readouterr()


def test_config_file_and_flag_precedence(workload, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pe": 4, "tile": 64}))
    out = tmp_path / "sim"
    assert main(["simulate", str(workload / "w"), "--config", str(cfg),
                 "--hidden", "8", "--classes", "3",
                 "--out", str(out)]) == EXIT_OK
    assert read_report(out / "report.json")["config"]["pe_count"] == 4
    assert main(["simulate", str(workload / "w"), "--config", str(cfg),
                 "--pe", "2", "--hidden", "8", "--classes", "3",
                 "--out", str(out)]) == EXIT_OK
    assert read_report(out / "report.json")["config"]["pe_count"] == 2
    cfg.write_text(json.dumps({"pe": 4, "tile": 64, "value_bits": None}))
    assert main(["simulate", str(workload / "w"), "--config", str(cfg),
                 "--hidden", "8", "--classes", "3"]) == EXIT_OK
    capsys.readouterr()


def test_report_label_is_the_bundle_name(workload, tmp_path, monkeypatch, capsys):
    # the same bundle reached through two relative paths writes the same report
    flags = ["--pe", "2", "--tile", "64", "--hidden", "8", "--classes", "3"]
    monkeypatch.chdir(workload)
    assert main(["simulate", "w", *flags, "--out", str(tmp_path / "a")]) == EXIT_OK
    monkeypatch.chdir(workload / "w")
    assert main(["simulate", ".", *flags, "--out", str(tmp_path / "b")]) == EXIT_OK
    a, b = (tmp_path / d / "report.json" for d in ("a", "b"))
    assert read_report(a)["label"] == "w"
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_graphsage_simulation_via_cli(workload, capsys):
    rc = main(["simulate", str(workload / "w"), "--model", "graphsage-mean",
               "--pe", "4", "--tile", "64", "--hidden", "8", "--classes", "3"])
    assert rc == EXIT_OK
    assert "exact_match=True" in capsys.readouterr().out


def test_error_exit_categories(workload, tmp_path, capsys):
    assert main(["report", str(workload / "w" / "edges.txt")]) == EXIT_DATA
    assert main(["simulate", str(tmp_path / "nope")]) == EXIT_DATA
    assert main(["preprocess", str(workload / "w"), "--pe", "5",
                 "--replicas", "3", "--tile", "64",
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    # T = 65536 does not fit the u16 tile-width field of the stream header
    assert main(["preprocess", str(workload / "w"), "--tile", "65536",
                 "--out", str(tmp_path / "y")]) == EXIT_INVALID
    assert main(["gen", "--nodes", "10"]) == EXIT_INVALID  # no --out
    assert main(["sweep", str(workload / "w"), "--jobs", "0",
                 "--out", str(tmp_path / "z.csv")]) == EXIT_INVALID
    assert not (tmp_path / "z.csv").exists()
    bad = tmp_path / "bad.json"
    bad.write_text('{"pe": 4, "mystery": 1}')
    assert main(["simulate", str(workload / "w"), "--config",
                 str(bad)]) == EXIT_DATA
    for value in ('"4"', "true", "4.0", "[4]"):  # only plain integers are settings
        bad.write_text(f'{{"pe": {value}}}')
        assert main(["simulate", str(workload / "w"), "--config",
                     str(bad)]) == EXIT_DATA
    capsys.readouterr()
    # model shapes are checked before any work, with a plain message
    for flag, message in (("--lanes", "lanes must be >= 1"),
                          ("--layers", "--layers must be >= 1"),
                          ("--hidden", "--hidden must be >= 1"),
                          ("--classes", "--classes must be >= 1")):
        assert main(["simulate", str(workload / "w"), flag, "0"]) == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert main(["sweep", str(workload / "w"), flag, "0",
                     "--out", str(tmp_path / "z.csv")]) == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert not (tmp_path / "z.csv").exists()
    bad.write_text("{broken")
    assert main(["simulate", str(workload / "w"), "--config",
                 str(bad)]) == EXIT_DATA
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(workload / "w"), "--value-bits", "7"])
    assert exc.value.code == 2
    capsys.readouterr()


TINY_EDGES = "0 1\n1 2\n2 3\n"
REPORT_WITHOUT_CONFIG = json.dumps({"version": 1, "label": "x", "config": {},
                                    "phases": {}, "steps": [], "sdmm": {}})
REPORT_WITH_TEXT_ERROR = json.dumps({
    "version": 1, "label": "x", "steps": [], "sdmm": {"compute_cycles": 0},
    "config": dict.fromkeys(("pe_count", "lanes", "tile_width", "groups", "replicas"), 1),
    "phases": dict.fromkeys(("total_cycles", "load_cycles", "compute_cycles",
                             "move_cycles"), 0),
    "verify": {"exact_match": True, "max_abs_err": "small", "argmax_agreement": 1.0}})


@pytest.mark.parametrize("name, text, message", [
    ("r.json", REPORT_WITHOUT_CONFIG, "malformed report field 'pe_count'"),
    ("r.json", REPORT_WITH_TEXT_ERROR, "malformed report field"),
    ("features.txt", "sparse 4 4 4 0\n0 0 7\n1 1 2\n0 0 7\n",
     "features.txt:4: repeated position"),
    ("features.txt", "sparse 4 4 4 0\n0 0 7\n1 1 8\n",
     "features.txt:3: value outside the 4-bit range"),
    ("features.txt", "sparse 4 4 4 0\n0 0 99999999999999999999\n",
     "does not fit 64 bits"),
    ("features.txt", "sparse 4 4 4 9\n0 0 1\n", "features.txt:1: sparse header needs"),
    ("features.txt", "sparse -1 4 4 0\n", "features.txt:1: sparse header needs"),
    ("features.txt", "0.5 1\n1 0\n2 nan\n0 0\n", "features.txt:3: feature value is nan"),
], ids=["report-without-config", "report-text-error", "repeated-position", "value-over-width",
        "value-over-int64", "frac-not-below-bits", "negative-rows", "dense-nan"])
def test_malformed_inputs_exit_3(tmp_path, capsys, name, text, message):
    # a report reaches render, a feature file ingest; neither may end in a traceback
    (tmp_path / "edges.txt").write_text(TINY_EDGES)
    (tmp_path / name).write_text(text)
    argv = (["report", str(tmp_path / name)] if name.endswith(".json")
            else ["preprocess", str(tmp_path), "--out", str(tmp_path / "o")])
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
