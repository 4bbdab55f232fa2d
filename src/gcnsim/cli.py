"""Batch command-line front-end.

Subcommands: gen (synthetic workload), preprocess (compress and schedule
sparse tiles to .pcoo streams), simulate (full inference with oracle check),
sweep (grid of configs to CSV), report (render saved report documents).
Array parameters come from flags or a JSON config file; flags win.

Exit codes: 0 success, 2 usage, 3 unreadable or malformed data, 4 invalid
configuration or operands (also a request too large for memory), 5
accumulator overflow.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

from .formats import (MAX_SPARSE_DIM, FileFormatError, _write_lines, export_bundle,
                      ingest_bundle_dir, write_meta)
from .graphs import degree_stats, gen_powerlaw, random_weights
from .matrix import OverflowTrap, ShapeError, normalize_adjacency
from .pcoo import (
    PACKET_VALUE_WIDTHS,
    StreamFormatError,
    make_header,
    packet_bits_for,
    serialize_stream,
)
from .report import (
    ReportFormatError,
    read_report,
    render_report,
    report_document,
    write_report,
)
from .runtime import (
    KIND_GCN,
    KIND_SAGE,
    make_gcn,
    make_graphsage,
    mean_adjacency,
    references,
    run_model,
    verify_against_oracle,
)
from .schedule import ScheduleStats, config_for_tile
# not called here: the benchmark tracer (perfbench/tracer.py SITES) binds both in cli
from .schedule import build_sdmm_schedule, tile_columns  # noqa: F401
from .simulator import plan_step

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INVALID = 4
EXIT_OVERFLOW = 5

MAX_GEN_ENTRIES = 1 << 30  # stubs or expected feature nonzeros gen builds (CHANGES.md)
MAX_DENSE_ENTRIES = 1 << 28  # entries of one dense grid simulate or sweep builds (CHANGES.md)

DEFAULTS = {
    "pe": 16, "replicas": 1, "tile": 512, "lanes": 16, "value_bits": None,
    "load_bw": 64, "move_bw": 16, "seed": 0,
}

SWEEP_FIELDS = [
    "pe", "replicas", "tile", "lanes", "total_cycles", "load_cycles",
    "compute_cycles", "move_cycles", "sdmm_compute_cycles", "sdmm_work",
    "ideal_cycles", "efficiency", "valid", "empty_row", "collision",
    "imbalance", "exact_match", "max_abs_err", "argmax_agreement",
]


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, a 5000-digit int
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: config must be a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise FileFormatError(f"{path}: unknown config keys {sorted(unknown)}")
    # type(), not isinstance(): a bool is an int subclass and is rejected too
    bad = {k: v for k, v in doc.items() if type(v) is not int
           and not (k == "value_bits" and v is None)}
    if bad:
        raise FileFormatError(f"{path}: config values must be integers, got {bad}")
    return doc


def resolve_settings(args) -> dict:
    """Defaults, then config file, then explicit flags."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        merged.update(load_config(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def arch_from(settings):
    return config_for_tile(settings["pe"], settings["tile"], settings["lanes"],
                           replicas=settings["replicas"], load_bw=settings["load_bw"],
                           move_bw=settings["move_bw"])


def _require_out(args) -> Path:
    if not args.out:
        raise ValueError("--out is required for this command")
    return Path(args.out)


# -- model assembly -----------------------------------------------------------


def build_model(bundle, kind: str, adjacency_mode: str | None, hidden: int,
                classes: int, layers: int, seed: int):
    """Model and adjacency operand for one bundle and its flags.

    adjacency_mode None is the model's own: binary for GCN, mean for
    GraphSAGE, which takes no other. Weights come from the bundle (a GCN
    chain, or GraphSAGE self/neighbor blocks interleaved), else a seeded
    random chain. ModelSpec checks their chain and pairs, and the run the
    first against the features. The operand follows model.adjacency_mode.
    """
    if kind == KIND_SAGE and adjacency_mode not in (None, "mean"):
        raise ValueError(f"--model {kind} aggregates with the mean adjacency, "
                         f"not --adjacency {adjacency_mode}")
    dims = [bundle.features.cols] + [hidden] * (layers - 1) + [classes]
    ws = bundle.weights
    _check_dense_size(bundle, dims)
    if kind == KIND_GCN:
        model = make_gcn(ws or random_weights(dims, seed), adjacency_mode or "binary")
    elif ws:
        if len(ws) % 2:
            raise ValueError("GraphSAGE weight container must hold self/neighbor pairs")
        model = make_graphsage(list(zip(ws[0::2], ws[1::2])))
    else:
        model = make_graphsage(list(zip(random_weights(dims, seed),
                                        random_weights(dims, seed + 1))))
    if model.adjacency_mode == "mean":
        return model, mean_adjacency(bundle.adjacency)
    return model, normalize_adjacency(bundle.adjacency, model.adjacency_mode)


def _check_dense_size(bundle, dims: list) -> None:
    """Refuse, before it is allocated, a dense grid the request fixes above
    MAX_DENSE_ENTRIES: an activation (nodes x widest layer) or, without
    bundle weights, a random weight block (one layer's width x the next's)."""
    ws = bundle.weights
    widest = max([bundle.features.cols] + [w.cols for w in ws]) if ws else max(dims)
    sizes = [("nodes x widest layer", bundle.features.rows * widest)]
    if not ws:
        sizes.append(("widest weight block", max(a * b for a, b in zip(dims, dims[1:]))))
    for product, size in sizes:
        if size > MAX_DENSE_ENTRIES:
            raise ValueError(f"{product} is {size} entries, over the dense cap of "
                             f"{MAX_DENSE_ENTRIES}")


# -- commands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    s = resolve_settings(args)
    out = _require_out(args)
    if max(args.nodes, args.features) > MAX_SPARSE_DIM:  # before any work on a bundle
        raise ValueError(f"--nodes {args.nodes} and --features {args.features} must be "
                         f"<= {MAX_SPARSE_DIM}, the largest sparse header a reader accepts")
    for product, size in (("--nodes x --degree stubs", args.nodes * args.degree),
                          ("--nodes x --features x --density expected feature nonzeros",
                           args.nodes * args.features * args.density)):
        if size > MAX_GEN_ENTRIES:
            raise ValueError(f"{product} are {size:.0f}, over gen's cap of {MAX_GEN_ENTRIES}")
    out.mkdir(parents=True, exist_ok=True)
    bundle = gen_powerlaw(args.nodes, args.degree, args.exponent, s["seed"],
                          args.features, args.density)
    paths = export_bundle(out, bundle)
    st = degree_stats(bundle.adjacency)
    print(f"generated {args.nodes} nodes, {st['edges']} edges "
          f"(mean degree {st['mean']:.2f}, max {st['max']}), "
          f"{bundle.features.nnz} feature nonzeros")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    s = resolve_settings(args)
    cfg = arch_from(s)
    out = _require_out(args)
    h = s["value_bits"]
    # every stream header field but the cycle count is known: check it now
    make_header(cfg.tile_width, 0 if h is None else h, cfg.pe_count, 0)
    bundle = ingest_bundle_dir(args.bundle)
    operands = [("adjacency", bundle.adjacency, packet_bits_for(bundle.adjacency)),
                ("features", bundle.features, packet_bits_for(bundle.features, h))]
    out.mkdir(parents=True, exist_ok=True)
    rows, census = [], ScheduleStats.zero(cfg.pe_count)
    for kind, mat, bits in operands:
        for c0, sched, stats in plan_step(mat, cfg):
            i = c0 // cfg.tile_width
            name = f"{kind}{i:04d}.pcoo"
            (out / name).write_bytes(serialize_stream(sched, cfg.tile_width, bits))
            del sched  # written: the next tile is planned without it
            census += stats
            rows.append({"file": name, "kind": kind, "tile_index": i,
                         "value_bits": bits, **stats.totals()})
    totals = census.totals()
    write_meta(out / "meta.json", {
        "config": {"pe_count": cfg.pe_count, "tile_width": cfg.tile_width,
                   "lanes": cfg.lanes, "groups": cfg.groups,
                   "replicas": cfg.replicas},
        "streams": rows,
        "totals": totals,
    })
    hdr = f"{'stream':<18}{'cycles':>8}{'valid':>8}{'empty':>8}{'stall':>8}{'pad':>8}"
    print(hdr)
    for r in rows:
        print(f"{r['file']:<18}{r['cycles']:>8}{r['valid']:>8}"
              f"{r['empty_row']:>8}{r['stall_idle']:>8}{r['pad_idle']:>8}")
    print(f"{'total':<18}{totals['cycles']:>8}{totals['valid']:>8}"
          f"{totals['empty_row']:>8}{totals['stall_idle']:>8}{totals['pad_idle']:>8}")
    return EXIT_OK


def _check_model_shape(args) -> None:
    for flag in ("layers", "hidden", "classes"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {getattr(args, flag)}")


def _point_runner(args, settings):
    """One config point's simulator; what the points share is built once."""
    bundle = ingest_bundle_dir(args.bundle)
    model, a = build_model(bundle, args.model, args.adjacency, args.hidden,
                           args.classes, args.layers, settings["seed"])
    refs = references(model, a, bundle.features)
    label = Path(args.bundle).resolve().name

    def simulate(point):
        logits, run = run_model(model, a, bundle.features, arch_from(point))
        verify = verify_against_oracle(logits, run, refs)
        return logits, report_document(run, label=label, verify=verify)
    return simulate


def cmd_simulate(args) -> int:
    s = resolve_settings(args)
    _check_model_shape(args)
    arch_from(s)  # surfaces invalid settings before the bundle is read
    logits, doc = _point_runner(args, s)(s)
    print(render_report(doc), end="")
    if args.out:
        out = _require_out(args)
        out.mkdir(parents=True, exist_ok=True)
        write_report(doc, out / "report.json")
        _write_lines(out / "logits.txt", f"# logits {logits.rows} {logits.cols} "
                     f"bits={logits.bits} frac_bits={logits.frac_bits}\n", *logits.data.T)
        print(f"wrote {out / 'report.json'} and {out / 'logits.txt'}")
    return EXIT_OK


def _sweep_row(point, doc) -> dict:
    """One CSV row: a point's geometry and its report's headline numbers."""
    sd, ph, v = doc["sdmm"], doc["phases"], doc["verify"]
    return {
        "pe": point["pe"], "replicas": point["replicas"],
        "tile": point["tile"], "lanes": point["lanes"],
        "total_cycles": ph["total_cycles"], "load_cycles": ph["load_cycles"],
        "compute_cycles": ph["compute_cycles"], "move_cycles": ph["move_cycles"],
        "sdmm_compute_cycles": sd["compute_cycles"], "sdmm_work": sd["work"],
        "ideal_cycles": sd["ideal_cycles"], "efficiency": sd["efficiency"],
        **{k: sd["slots"][k] for k in ("valid", "empty_row", "collision",
                                       "imbalance")},
        "exact_match": v["exact_match"], "max_abs_err": v["max_abs_err"],
        "argmax_agreement": v["argmax_agreement"],
    }


def cmd_sweep(args) -> int:
    s = resolve_settings(args)
    out_path = _require_out(args)
    _check_model_shape(args)
    points = []
    # a grid flag left out sweeps the one value the config or defaults give
    grid = (args.pe or [s["pe"]], args.replicas or [s["replicas"]], args.tile or [s["tile"]])
    for pe, r, t in itertools.product(*grid):
        point = {**s, "pe": pe, "replicas": r, "tile": t}
        arch_from(point)  # surfaces invalid settings before the CSV exists
        points.append(point)
    simulate = _point_runner(args, s)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        fh.flush()
        for point in points:
            writer.writerow(_sweep_row(point, simulate(point)[1]))
            fh.flush()
    print(f"swept {len(points)} configs -> {out_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    for i, path in enumerate(args.files):
        if i:
            print()
        doc = read_report(path)
        try:
            text = render_report(doc)
        except (KeyError, TypeError, ValueError) as exc:  # six keys, but bad fields
            raise ReportFormatError(f"{path}: malformed report field {exc}") from None
        print(text, end="")
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------


def _run_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file with this command's settings")
    p.add_argument("--out", help="output file or directory")
    return p


def _array_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--lanes", type=int, help="MAC lanes per PE")
    p.add_argument("--load-bw", dest="load_bw", type=int)
    p.add_argument("--move-bw", dest="move_bw", type=int)
    # kept so existing "--jobs 1" command lines parse; sweep points run in order
    p.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
    return p


def _geometry_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--pe", type=int, help="PE count")
    p.add_argument("--replicas", type=int, help="dense data replicas")
    p.add_argument("--tile", type=int, help="tile width (columns)")
    return p


def _model_flags(sp) -> None:
    sp.add_argument("--model", choices=(KIND_GCN, KIND_SAGE), default=KIND_GCN)
    sp.add_argument("--adjacency", choices=("binary", "sym_norm", "mean"),
                    help="default: binary for gcn, mean for graphsage-mean, "
                         "which takes no other")
    sp.add_argument("--hidden", type=int, default=16)
    sp.add_argument("--classes", type=int, default=4)
    sp.add_argument("--layers", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    run, array, geometry = _run_parent(), _array_parent(), _geometry_parent()
    p = argparse.ArgumentParser(prog="gcnsim",
                                description="sparse GCN accelerator model")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[run],
                       help="generate a synthetic power-law workload")
    g.add_argument("--nodes", type=int, default=256)
    g.add_argument("--degree", type=float, default=4.0)
    g.add_argument("--exponent", type=float, default=2.1)
    g.add_argument("--features", type=int, default=64)
    g.add_argument("--density", type=float, default=0.1)
    g.set_defaults(func=cmd_gen)

    pp = sub.add_parser("preprocess", parents=[run, array, geometry],
                        help="compress and schedule sparse operands")
    pp.add_argument("bundle", help="workload directory (from gen or export)")
    pp.add_argument("--value-bits", dest="value_bits", type=int,
                    choices=PACKET_VALUE_WIDTHS,
                    help="features packet value width (default: narrowest that fits)")
    pp.set_defaults(func=cmd_preprocess)

    sim = sub.add_parser("simulate", parents=[run, array, geometry],
                         help="run quantized inference on the cycle model")
    sim.add_argument("bundle")
    _model_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", parents=[run, array],
                        help="simulate a grid of configs, emit CSV")
    sw.add_argument("bundle")
    _model_flags(sw)
    sw.add_argument("--pe", type=_int_list)
    sw.add_argument("--replicas", type=_int_list)
    sw.add_argument("--tile", type=_int_list)
    sw.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("report", help="render saved report documents")
    rp.add_argument("files", nargs="+")
    rp.set_defaults(func=cmd_report)
    return p


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, StreamFormatError, ReportFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OverflowTrap as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (ShapeError, ValueError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"invalid: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
