"""The cycle contract in tier-1: a seeded golden census.

Every simulated number of a small seeded workload is pinned in
golden_census.json: each model step's phase cycles and per-PE slot census,
the report's sdmm block, a digest of the logits, and the streams and totals
of preprocess's meta.json. The configs span K in {8, 16}, r in {1, 2, 4},
several column tiles and fewer lanes than the hidden width, so a scheduler
change that moves a stall, a pad or a lane block shows here even when the
result stays legal.

A change that means to move these numbers re-records the file and says why:

    PYTHONPATH=src python tests/test_golden_census.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gcnsim.cli import EXIT_OK, build_model, main
from gcnsim.formats import export_bundle
from gcnsim.graphs import gen_powerlaw
from gcnsim.pcoo import deserialize_stream
from gcnsim.report import report_document
from gcnsim.runtime import KIND_GCN, KIND_SAGE, run_model
from gcnsim.schedule import config_for_tile
from gcnsim.simulator import check_arbitration
from helpers import read_meta

GOLDEN = Path(__file__).with_name("golden_census.json")

# (nodes, mean degree, exponent, seed, features, feature density)
BUNDLE = (1536, 4.0, 2.1, 5, 48, 0.12)
HIDDEN, CLASSES, LAYERS = 32, 4, 2

MODELS = {
    "gcn-binary": (KIND_GCN, "binary"),
    "gcn-sym_norm": (KIND_GCN, "sym_norm"),
    "sage-mean": (KIND_SAGE, "mean"),
}

# (PE count K, replicas r, tile width T, lanes C); 1536 nodes make 6, 3, 6
# and 2 adjacency column tiles, and C < HIDDEN replays each tile per lane block
CONFIGS = {
    "K8-r1-T256-C16": (8, 1, 256, 16),
    "K8-r2-T512-C8": (8, 2, 512, 8),
    "K16-r4-T256-C16": (16, 4, 256, 16),
    "K16-r2-T1024-C16": (16, 2, 1024, 16),
}

CASES = [f"{m} {c}" for m in MODELS for c in CONFIGS] + \
        [f"preprocess {c}" for c in CONFIGS]


def make_bundle():
    return gen_powerlaw(*BUNDLE)


def arch(name):
    pe, replicas, tile, lanes = CONFIGS[name]
    return config_for_tile(pe, tile, lanes, replicas=replicas)


def model_census(bundle, model_name, config_name) -> dict:
    """Every simulated number of one model run, under the report's names."""
    kind, adjacency = MODELS[model_name]
    model, a = build_model(bundle, kind, adjacency, HIDDEN, CLASSES, LAYERS, BUNDLE[3])
    cfg = arch(config_name)
    logits, run = run_model(model, a, bundle.features, cfg)
    doc = report_document(run)
    digest = hashlib.sha256(logits.data.astype("<i8").tobytes()).hexdigest()[:16]
    census = {"logits": f"{logits.rows}x{logits.cols} frac_bits={logits.frac_bits} "
                        f"sha256={digest}",
              "phases": doc["phases"], "sdmm": doc["sdmm"]}
    for step in doc["steps"]:
        census[f"step {step.pop('label')}"] = step
    return census


def preprocess_census(bundle_dir: Path, out: Path, config_name) -> dict:
    """preprocess's meta.json streams and totals, and a digest of its streams."""
    pe, replicas, tile, lanes = CONFIGS[config_name]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["preprocess", str(bundle_dir), "--pe", str(pe), "--replicas",
                   str(replicas), "--tile", str(tile), "--lanes", str(lanes),
                   "--out", str(out)])
    assert rc == EXIT_OK
    meta = read_meta(out / "meta.json")
    h = hashlib.sha256()
    for stream in meta["streams"]:
        h.update((out / stream["file"]).read_bytes())
    return {"totals": meta["totals"], "pcoo_sha256": h.hexdigest()[:16],
            **{f"stream {s['file']}": s for s in meta["streams"]}}


def census_of(case: str, bundle, bundle_dir: Path, work: Path) -> dict:
    model_name, config_name = case.split()
    if model_name == "preprocess":
        return preprocess_census(bundle_dir, work / config_name, config_name)
    return model_census(bundle, model_name, config_name)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    bundle = make_bundle()
    d = tmp_path_factory.mktemp("golden")
    export_bundle(d / "bundle", bundle)
    return bundle, d


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_census_matches_golden(case, workload, golden):
    bundle, d = workload
    got = census_of(case, bundle, d / "bundle", d)
    want = golden[case]
    moved = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not moved, f"{case}: simulated numbers moved in {moved}"


@pytest.mark.parametrize("config_name", CONFIGS)
def test_streams_round_trip_their_census(config_name, workload, tmp_path):
    # a stream holds the five packet columns only, so its census, stalls
    # included, must come back from the bits as meta.json recorded it
    bundle, d = workload
    preprocess_census(d / "bundle", tmp_path, config_name)
    cfg = arch(config_name)
    operands = {"adjacency": bundle.adjacency, "features": bundle.features}
    streams = read_meta(tmp_path / "meta.json")["streams"]
    assert {s["kind"] for s in streams} == set(operands)
    for row in streams:
        x = operands[row["kind"]]
        dense_rows = min(cfg.tile_width, x.cols - row["tile_index"] * cfg.tile_width)
        _, sched = deserialize_stream((tmp_path / row["file"]).read_bytes())
        got = check_arbitration(sched, cfg, x.rows, dense_rows).totals()
        assert got == {k: row[k] for k in got}, row["file"]


def dump(golden: dict) -> str:
    """JSON with one line per pinned field, so a re-record diffs by field."""
    blocks = []
    for case in sorted(golden):
        fields = golden[case]
        lines = [f"  {json.dumps(k)}: {json.dumps(fields[k], sort_keys=True)}"
                 for k in fields]
        blocks.append(f" {json.dumps(case)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def record() -> None:
    bundle = make_bundle()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        export_bundle(d / "bundle", bundle)
        golden = {case: census_of(case, bundle, d / "bundle", d) for case in CASES}
    GOLDEN.write_text(dump(golden))
    print(f"recorded {len(golden)} cases in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
