"""CLI behavior end to end, run in process via main()."""

import contextlib
import csv
import io
import json
import re
import resource
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gcnsim import runtime, simulator
from gcnsim.cli import EXIT_DATA, EXIT_INVALID, EXIT_OK, main
from gcnsim.formats import export_bundle, ingest_bundle_dir, read_meta, write_weights
from gcnsim.graphs import gen_powerlaw, random_weights
from gcnsim.pcoo import StreamFormatError, deserialize_stream
from gcnsim.report import read_report
from gcnsim.schedule import config_for_tile
from gcnsim.simulator import plan_step
from test_formats import agrees, reader_and_spec


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


def test_preprocess_writes_the_checked_plan(workload, tmp_path, monkeypatch, capsys):
    # every stream is a plan_step schedule, checked once, with its census in meta.json
    checked = []
    check = simulator.check_arbitration
    monkeypatch.setattr(simulator, "check_arbitration",
                        lambda sched, *args: checked.append(sched) or check(sched, *args))
    flags = ["--pe", "4", "--replicas", "2", "--tile", "64", "--lanes", "8"]
    assert main(["preprocess", str(workload / "w"), *flags,
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(simulator, "check_arbitration", check)
    bundle = ingest_bundle_dir(workload / "w")
    cfg = config_for_tile(4, 64, 8, replicas=2)
    plans = {"adjacency": list(plan_step(bundle.adjacency, cfg)),
             "features": list(plan_step(bundle.features, cfg))}
    streams = read_meta(tmp_path / "meta.json")["streams"]
    assert [(s["kind"], s["tile_index"]) for s in streams] == \
        [(kind, i) for kind, plan in plans.items() for i in range(len(plan))]
    assert len(checked) == len(streams)
    columns = ("sor", "eor", "vld", "col", "value")
    for stream, written_check in zip(streams, checked):
        _, sched, stats = plans[stream["kind"]][stream["tile_index"]]
        _, back = deserialize_stream((tmp_path / stream["file"]).read_bytes())
        for name in columns:
            assert np.array_equal(getattr(back, name), getattr(sched, name)), \
                (stream["file"], name)
            assert np.array_equal(getattr(written_check, name), getattr(sched, name))
        row = {k: v for k, v in stream.items()
               if k not in ("file", "kind", "tile_index", "value_bits")}
        assert row == stats.totals()


def test_preprocess_holds_one_tile_schedule_at_a_time(tmp_path, monkeypatch, capsys):
    # the adjacency of 8192 nodes in 2 or in 16 column tiles: a plan held whole
    # grows with the tile count, since every schedule has a slot per row
    bundle = tmp_path / "w"
    export_bundle(bundle, gen_powerlaw(8192, 4, 2.1, seed=5, n_features=16,
                                       feature_density=0.1))
    peaks, biggest = {}, {}
    for tile in (4096, 512):
        cfg = config_for_tile(8, tile, replicas=2)
        flags = ["--pe", "8", "--replicas", "2", "--tile", str(tile)]
        tracemalloc.start()
        try:
            assert main(["preprocess", str(bundle), *flags,
                         "--out", str(tmp_path / f"t{tile}")]) == EXIT_OK
            peaks[tile] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        biggest[tile] = max(sum(getattr(sched, name).nbytes for name in
                                ("sor", "eor", "vld", "col", "value"))
                            for _, sched, _ in plan_step(ingest_bundle_dir(bundle).adjacency, cfg))
        assert len(read_meta(tmp_path / f"t{tile}" / "meta.json")["streams"]) == 1 + 8192 // tile
    capsys.readouterr()
    assert peaks[512] - peaks[4096] < biggest[512], (peaks, biggest)
    # the first entry is built alone, before any later tile is asked for
    built = []
    build = simulator.build_sdmm_schedule
    monkeypatch.setattr(simulator, "build_sdmm_schedule",
                        lambda tile, cfg: built.append(tile) or build(tile, cfg))
    c0, _, _ = next(plan_step(ingest_bundle_dir(bundle).adjacency, config_for_tile(8, 512)))
    assert (c0, len(built)) == (0, 1)


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
    spec = io.StringIO()  # the bytes np.savetxt writes for the same grid
    np.savetxt(spec, grid, fmt="%d")
    assert (out / "logits.txt").read_text() == lines[0] + "\n" + spec.getvalue()

    rc = main(["report", str(out / "report.json")])
    assert rc == EXIT_OK
    assert "worst PE idle fraction" in capsys.readouterr().out


def test_sweep_grid_and_monotonicity(workload, capsys):
    csv_path = workload / "r.csv"
    rc = main(["sweep", str(workload / "w"), "--pe", "8",
               "--replicas", "1,2,4,8", "--tile", "64",
               "--hidden", "8", "--classes", "3", "--out", str(csv_path)])
    assert rc == EXIT_OK
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
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
    with open(csv_path, newline="") as fh:
        row = next(csv.DictReader(fh))
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
    with open(a, newline="") as fh:
        rows = list(csv.DictReader(fh))
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
    with open(workload / "once.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
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
                          ("--load-bw", "bandwidths must be >= 1"),
                          ("--move-bw", "bandwidths must be >= 1"),
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
        main(["preprocess", str(workload / "w"), "--value-bits", "7"])
    assert exc.value.code == 2
    capsys.readouterr()


def usage_error(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_commands_take_only_the_flags_they_read(workload, tmp_path, capsys):
    gen = ["gen", "--nodes", "8", "--out", str(tmp_path / "g")]
    for flag, value in (("--lanes", "3"), ("--load-bw", "9"), ("--move-bw", "9"),
                        ("--jobs", "5"), ("--value-bits", "16")):
        assert usage_error(gen + [flag, value]) == 2, flag
    assert not (tmp_path / "g").exists()
    # the packet value width is a stream property: only preprocess sets it
    bundle = str(workload / "w")
    assert usage_error(["simulate", bundle, "--value-bits", "16"]) == 2
    assert usage_error(["sweep", bundle, "--value-bits", "16",
                        "--out", str(tmp_path / "s.csv")]) == 2
    assert main(["preprocess", bundle, "--value-bits", "16", "--seed", "1",
                 "--jobs", "1", "--out", str(tmp_path / "p")]) == EXIT_OK
    assert {s["value_bits"] for s in read_meta(tmp_path / "p" / "meta.json")["streams"]
            if s["kind"] == "features"} == {16}
    capsys.readouterr()


def test_value_width_contract(tmp_path, capsys):
    # 16-bit packets carry 7000 but not 70000, whatever the header's width
    (tmp_path / "edges.txt").write_text(TINY_EDGES)
    features = tmp_path / "features.txt"
    flags = ["--pe", "2", "--tile", "32", "--hidden", "4", "--classes", "2"]
    features.write_text("sparse 4 4 32 0\n0 0 70000\n1 2 1\n")
    assert main(["simulate", str(tmp_path), *flags]) == EXIT_INVALID
    assert "operand values exceed the 16-bit packet field" in capsys.readouterr().err
    features.write_text("sparse 4 4 32 0\n0 0 7000\n1 2 1\n")
    assert main(["simulate", str(tmp_path), *flags]) == EXIT_OK
    assert "exact_match=True" in capsys.readouterr().out
    # an explicit width the features do not fit fails in the codec
    out = ["--out", str(tmp_path / "o")]
    assert main(["preprocess", str(tmp_path), "--value-bits", "0", *out]) == EXIT_INVALID
    assert "not representable in 0 bits" in capsys.readouterr().err
    assert main(["preprocess", str(tmp_path), "--value-bits", "4", *out]) == EXIT_INVALID
    assert "outside 4-bit range" in capsys.readouterr().err
    assert main(["preprocess", str(tmp_path), "--value-bits", "16", *out]) == EXIT_OK
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"value_bits": 7}))
    assert main(["preprocess", str(tmp_path), "--config", str(config), *out]) == EXIT_INVALID
    assert "value bits 7" in capsys.readouterr().err


def test_preprocess_checks_widths_before_writing(workload, tmp_path, capsys):
    # a width no header carries, and a width the 4-bit features do not
    # fit, both exit before ingest or before the first stream is written
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"value_bits": 7}))
    cases = ((["--config", str(config)], "value bits 7"),
             (["--value-bits", "0"], "not representable in 0 bits"))
    for i, (flags, message) in enumerate(cases):
        out = tmp_path / f"o{i}"
        assert main(["preprocess", str(workload / "w"), *flags,
                     "--out", str(out)]) == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.pcoo"))
        assert not out.exists()


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
     "features.txt:2: value outside the 4-bit range in '0 0 99999999999999999999'"),
    ("features.txt", "sparse 4 4 4 9\n0 0 1\n", "features.txt:1: sparse header needs"),
    ("features.txt", "sparse -1 4 4 0\n", "features.txt:1: sparse header needs"),
    ("features.txt", "sparse 4294967296 16 4 3\n0 0 1\n",
     "features.txt:1: sparse header sizes must be <= 134217728"),
    ("features.txt", f"sparse {1 << 63} 16 4 3\n0 0 1\n",
     "features.txt:1: sparse header sizes must be <= 134217728"),
    ("features.txt", "0.5 1\n1 0\n2 nan\n0 0\n", "features.txt:3: feature value is nan"),
], ids=["report-without-config", "report-text-error", "repeated-position", "value-over-width",
        "value-over-int64", "frac-not-below-bits", "negative-rows", "rows-2^32", "rows-2^63",
        "dense-nan"])
def test_malformed_inputs_exit_3(tmp_path, capsys, name, text, message):
    # a report reaches render, a feature file ingest; neither may end in a traceback
    (tmp_path / "edges.txt").write_text(TINY_EDGES)
    (tmp_path / name).write_text(text)
    argv = (["report", str(tmp_path / name)] if name.endswith(".json")
            else ["preprocess", str(tmp_path), "--out", str(tmp_path / "o")])
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("name, data, message", [
    ("edges.txt", b"0 1\n1 \xff2\n", "edges.txt:2: not UTF-8 text"),
    ("features.txt", b"sparse 4 4 4 0\n0 0 1\r\xe9 1 1\n", "features.txt:3: not UTF-8 text"),
    ("config.json", b'{"pe": 4, "tile": 6\xff4}', "config.json: not valid JSON"),
    ("report.json", b'{"version": \xc31}', "report.json: not valid JSON"),
    ("config.json", b'{"pe": ' + b"1" * 5000 + b"}", "config.json: not valid JSON"),
    ("report.json", b'{"version": ' + b"1" * 5000 + b"}", "report.json: not valid JSON"),
], ids=["edges", "features", "config", "report", "config-5000-digits", "report-5000-digits"])
def test_undecodable_inputs_exit_3(tmp_path, capsys, name, data, message):
    # bytes that are not UTF-8, and an integer past Python's 4300-digit
    # conversion limit, used to exit 4 with a message that named no file
    (tmp_path / "edges.txt").write_text(TINY_EDGES)
    (tmp_path / "features.txt").write_text("sparse 4 4 4 0\n0 0 1\n")
    (tmp_path / name).write_bytes(data)
    out = ["--out", str(tmp_path / "o")]
    argv = {"report.json": ["report", str(tmp_path / name)],
            "config.json": ["simulate", str(tmp_path), "--config", str(tmp_path / name), *out]
            }.get(name, ["simulate", str(tmp_path), *out])
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_zero_node_bundle_runs(tmp_path, capsys):
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "edges.txt").write_text("")
    (tmp_path / "b" / "features.txt").write_text("sparse 0 4 4 3\n")
    assert main(["preprocess", str(tmp_path / "b"), "--out", str(tmp_path / "p")]) == EXIT_OK
    assert [s["cycles"] for s in read_meta(tmp_path / "p" / "meta.json")["streams"]] == [0, 0]
    for model in ("gcn", "graphsage-mean"):
        assert main(["simulate", str(tmp_path / "b"), "--model", model,
                     "--out", str(tmp_path / model)]) == EXIT_OK
        assert (tmp_path / model / "logits.txt").read_text().splitlines()[1:] == []
        assert read_report(tmp_path / model / "report.json")["verify"]["exact_match"]
    assert "Traceback" not in capsys.readouterr().err


def test_overflowing_real_reference_writes_null(tmp_path, capsys):
    # 400 layers overflow the float64 real reference while the fixed-point
    # run stays exact; no warning escapes and no NaN reaches the document.
    # The overflowed reference's rows hold NaNs, so neither the error nor the
    # argmax agreement against it says anything: both are null
    assert main(["gen", "--nodes", "512", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert main(["simulate", str(tmp_path / "b"), "--layers", "400",
                 "--out", str(tmp_path / "o")]) == EXIT_OK

    def strict(name):
        raise ValueError(f"{name} in a written document")

    doc = json.loads((tmp_path / "o" / "report.json").read_text(), parse_constant=strict)
    assert doc["verify"]["exact_match"]
    assert doc["verify"]["max_abs_err"] is None and doc["verify"]["argmax_agreement"] is None
    capsys.readouterr()
    assert main(["report", str(tmp_path / "o" / "report.json")]) == EXIT_OK
    assert "max_abs_err=n/a argmax_agreement=n/a" in capsys.readouterr().out
    assert main(["sweep", str(tmp_path / "b"), "--layers", "400", "--pe", "16",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    with open(tmp_path / "s.csv", newline="") as fh:
        row, = csv.DictReader(fh)
    assert row["exact_match"] == "True"
    assert row["max_abs_err"] == row["argmax_agreement"] == ""


def test_out_of_memory_exits_4_in_one_line(workload, tmp_path, capsys):
    # 10^12 nodes ask for 7.28 TiB, hidden 10^9 for 238 GiB of weights, and
    # the largest legal sparse header for a 1 GiB row_ptr
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "edges.txt").write_text("")
    (tmp_path / "b" / "features.txt").write_text("sparse 134217728 134217728 4 0\n")
    for argv in (["gen", "--nodes", "1000000000000", "--out", str(tmp_path / "g")],
                 ["simulate", str(workload / "w"), "--hidden", "1000000000"],
                 ["preprocess", str(tmp_path / "b"), "--out", str(tmp_path / "p")]):
        with address_space_cap(1 << 28):
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_INVALID, err
        assert err.startswith(f"invalid: {argv[0]} ran out of memory")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_config_is_checked_before_the_bundle_is_read(tmp_path, capsys):
    # malformed data would exit 3, so exit 4 shows the settings were checked first
    (tmp_path / "edges.txt").write_text(TINY_EDGES)
    (tmp_path / "features.txt").write_text("sparse 4 4 4 0\n0 0 oops\n")
    for command in ("simulate", "preprocess"):
        assert main([command, str(tmp_path), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "features.txt:2: non-integer triplet" in capsys.readouterr().err
        assert main([command, str(tmp_path), "--load-bw", "0",
                     "--out", str(tmp_path / "o")]) == EXIT_INVALID
        assert "bandwidths must be >= 1" in capsys.readouterr().err


# -- seeded mutation contract -----------------------------------------------------

EXTREME_TOKENS = (str(1 << 63), str(-(1 << 63)), str(1 << 32), "65536",
                  "nan", "inf", "1e400", "")
EXTREME_FIELDS = (b"\xff\xff\xff\xff", b"\x00\x00\x01\x00", b"\x00\x00\x00\x80")
TOKEN = re.compile(rb"\S+")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
MUTATIONS = ("truncate", "flip", "swap", "extreme")
MUTATION_NODES = 64


def mutate(rng, data: bytes, kind: str, text: bool) -> bytes:
    """One seeded corruption; a binary file's tokens are single bytes and its
    extreme values are 4-byte fields."""
    if kind == "truncate":
        return data[:int(rng.integers(len(data)))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if kind == "swap":
        spans = ([m.span() for m in TOKEN.finditer(data)] if text
                 else [(i, i + 1) for i in range(len(data))])
        (a0, a1), (b0, b1) = sorted(spans[i] for i in rng.choice(len(spans), 2, replace=False))
        return data[:a0] + data[b0:b1] + data[a1:b0] + data[a0:a1] + data[b1:]
    if text:
        spans = [m.span() for m in NUMBER.finditer(data)]
        new = EXTREME_TOKENS[int(rng.integers(len(EXTREME_TOKENS)))].encode()
    else:
        start = int(rng.integers(len(data) - 3))
        spans = [(start, start + 4)]
        new = EXTREME_FIELDS[int(rng.integers(len(EXTREME_FIELDS)))]
    a0, a1 = spans[int(rng.integers(len(spans)))]
    return data[:a0] + new + data[a1:]


def mutation_inputs(d: Path) -> dict:
    """A 64-node bundle with weights, a config, a report and a stream."""
    bundle = gen_powerlaw(MUTATION_NODES, 3, 2.1, 5, 16, 0.2)
    export_bundle(d / "b", bundle)
    write_weights(d / "b" / "weights.bin", random_weights([16, 8, 3], 1))
    (d / "config.json").write_text(json.dumps(
        {"pe": 4, "replicas": 2, "tile": 32, "lanes": 4, "load_bw": 8,
         "move_bw": 4, "seed": 3, "jobs": 1, "value_bits": 4}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", str(d / "b"), "--config", str(d / "config.json"),
                     "--hidden", "8", "--classes", "3", "--out", str(d / "s")]) == EXIT_OK
        assert main(["preprocess", str(d / "b"), "--config", str(d / "config.json"),
                     "--out", str(d / "p")]) == EXIT_OK
    shutil.copy(d / "s" / "report.json", d / "report.json")
    shutil.copy(d / "p" / "adjacency0000.pcoo", d / "stream.pcoo")
    return {path: path.read_bytes() for path in (
        d / "b" / "edges.txt", d / "b" / "features.txt", d / "b" / "weights.bin",
        d / "config.json", d / "report.json", d / "stream.pcoo")}


@contextlib.contextmanager
def address_space_cap(extra: int):
    """A runaway allocation fails at once as MemoryError instead of taking
    the host's memory; Linux only, a no-op elsewhere."""
    try:
        with open("/proc/self/statm") as fh:
            used = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = used + extra if soft == resource.RLIM_INFINITY else min(used + extra, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def mutation_escapes(d: Path, seed: int, count: int) -> list[str]:
    """Run count seeded corruptions; each ends in a documented exit code with
    no traceback (CLI inputs) or in StreamFormatError (streams), and the
    reader gives an edges.txt or features.txt case the line-parser spec's
    matrix or message, or it is returned as an escape."""
    originals = mutation_inputs(d)
    targets = sorted(originals)
    rng = np.random.default_rng(seed)
    escapes = []
    for case in range(count):
        path = targets[int(rng.integers(len(targets)))]
        kind = MUTATIONS[int(rng.integers(len(MUTATIONS)))]
        data = mutate(rng, originals[path], kind, path.suffix not in (".bin", ".pcoo"))
        what = f"case {case}: {kind} {path.name}"
        if path.suffix == ".pcoo":
            try:
                deserialize_stream(data)
            except StreamFormatError:
                pass
            except Exception as exc:  # any other class is an escape
                escapes.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        if path.name == "report.json":
            argv = ["report", str(path)]
        elif rng.random() < 0.5:
            argv = ["simulate", str(d / "b"), "--config", str(d / "config.json"),
                    "--hidden", "8", "--classes", "3"]
        else:
            argv = ["preprocess", str(d / "b"), "--config", str(d / "config.json"),
                    "--out", str(d / "o")]
        path.write_bytes(data)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # recorded, so one run lists every escape
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            if path.suffix == ".txt":  # the reader against the line parser it replaced
                shipped, spec = reader_and_spec(path, MUTATION_NODES)
                if not agrees(path, shipped, spec):
                    escapes.append(f"{what}: reader {shipped!r}, spec {spec!r}")
            path.write_bytes(originals[path])
        if rc not in (0, 2, 3, 4, 5) or "Traceback" in err.getvalue():
            escapes.append(f"{what} ({argv[0]}): {rc}")
    return escapes


def test_seeded_mutations_end_in_documented_exit_codes(tmp_path):
    with address_space_cap(1 << 30):
        escapes = mutation_escapes(tmp_path, seed=8, count=300)
    assert not escapes, "\n".join(escapes)
