"""The benchmark's own checks: golden guard, seeded set-up, trace accounting.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def small(name):
    """The workload's command on a 512-node bundle."""
    return replace(workloads.WORKLOADS[name], nodes=512)


def int_leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from int_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from int_leaves(value, path + (i,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


def perturbed(census, path):
    out = copy.deepcopy(census)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_guard_flags_every_perturbed_golden_number(name):
    golden = workloads.load_golden()[name]
    assert {str(workloads.DEFAULT_SEED), str(workloads.HELD_OUT_SEED)} <= set(golden)
    census = golden[str(workloads.DEFAULT_SEED)]
    assert workloads.census_diff(census, copy.deepcopy(census)) is None
    paths = list(int_leaves(census))
    assert len(paths) > 10
    for path in paths:
        diff = workloads.census_diff(census, perturbed(census, path))
        assert diff is not None and str(path[-1]) in diff


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_golden_census_fails_the_job(name, tmp_path, monkeypatch):
    wl = small(name)
    workloads.setup(wl, 5, tmp_path / "bundle")
    job = workloads.run_job(wl, tmp_path / "bundle", tmp_path, 5)
    assert job.problems == [] and job.slots > 0
    path = next(int_leaves(job.census))
    for golden, failed in ((job.census, 0), (perturbed(job.census, path), 1)):
        monkeypatch.setattr(workloads, "load_golden",
                            lambda: {wl.name: {"5": golden}})
        result, _ = worker.measure(wl, tmp_path / "bundle", tmp_path, 5, 0, False)
        assert [j["failed"] for j in result["jobs"]] == [bool(failed)]
        assert len(result["problems"]) == failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bundle_bytes(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    runs = {d: workloads.setup(wl, seed, tmp_path / d)
            for d, seed in (("a", 3), ("b", 3), ("c", 4))}
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files and files == sorted(p.name for p in (tmp_path / "c").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert runs["a"]["digest"] == runs["b"]["digest"] != runs["c"]["digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_self_times_add_up_to_job_time(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "load_golden", lambda: {})
    wl = small(name)
    workloads.setup(wl, 1, tmp_path / "bundle")
    result, spans = worker.measure(wl, tmp_path / "bundle", tmp_path, 1, 0, True)
    assert result["problems"] == []
    assert [j["kind"] for j in result["jobs"]] == ["probe", "untraced", "traced"]
    assert tracer.unpatched_problems() == []
    layers = result["layers"]
    self_s = sum(layers[f"{layer}.s"] for layer in tracer.LAYERS)
    traced_s = result["jobs"][-1]["seconds"]
    assert self_s + layers["unattributed.s"] == pytest.approx(traced_s, rel=1e-9)
    assert 0 <= layers["unattributed.s"] < traced_s
    assert spans[0]["seconds"] == traced_s and spans[0]["spans"]
    assert layers["schedule.build_sdmm_schedule.calls"] >= \
        layers["schedule.build_sdmm_schedule.distinct"] >= 1


def test_wrappers_are_installed_only_while_traced():
    assert tracer.unpatched_problems() == []
    for patches in (tracer.Tracer(), tracer.Probe()):
        patches.install()
        try:
            assert tracer.unpatched_problems()
        finally:
            patches.restore()
        assert tracer.unpatched_problems() == []
    for (mod, attr), fn in tracer.ORIGINALS.items():
        current = getattr(sys.modules[f"gcnsim.{mod}"], attr)
        assert current is fn and not hasattr(current, "__wrapped__")


def test_benchmark_json_matches_the_emitted_metrics(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    monkeypatch.setattr(workloads, "load_golden", lambda: {})
    wl = small("simulate-gcn")
    workloads.setup(wl, 1, tmp_path / "bundle")
    result, _ = worker.measure(wl, tmp_path / "bundle", tmp_path, 1, 0, True)
    emitted = set(result["layers"]) | {"graphs.gen_powerlaw.s", "formats.export_bundle.s",
                                        "trace.job_s", "trace.untraced_job_s",
                                        "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in emitted}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "simulate-gcn", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
