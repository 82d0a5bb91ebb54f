"""Command-line interface.

Subcommands: analyze (full per-song pipeline and aggregate tables),
nullmodel (randomized replicas of one graph), report (re-run all
aggregate tables from an existing songs.jsonl).

Exit code 0 on success; on failure a JSON error summary goes to stderr
and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as catalog_mod
from .errors import BadEdgeList, NotegraphError, not_utf8
from .graph import parse_edge_list, graph_from_onsets
from .midi import onset_stream, parse_midi
from .nullmodels import RandomizerConfig, rewired_replicas, shuffled_replicas
from .pipeline import (
    SETTING_TYPES, PipelineConfig, SongsFile, make_output_dir, read_settings, run_pipeline,
    write_aggregates,
)

# flags spelled otherwise than their setting's name with dashes
FLAG_NAMES = {
    "catalog_path": "--catalog", "output_dir": "--output", "gs_min_group_size": "--gs-min-group",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for name, kind in SETTING_TYPES.items():
        if name != "inputs":
            flag = FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
            parser.add_argument(flag, type=kind, dest=name, default=argparse.SUPPRESS)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings overlaid with the flags given; a flag
    not given is not in ``args``."""
    settings = read_settings(args.config) if args.config else {}
    settings.update((k, v) for k, v in vars(args).items() if k in SETTING_TYPES)
    return PipelineConfig(**settings)


def _load_graph(path: str):
    p = Path(path)
    if p.suffix.lower() in (".mid", ".midi"):
        return graph_from_onsets(onset_stream(parse_midi(p.read_bytes())), song_id=p.stem)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(BadEdgeList, p) from None
    try:
        return parse_edge_list(text, song_id=p.stem)
    except BadEdgeList as exc:  # it names the line; the file is named here
        raise BadEdgeList(f"{p}, {exc}") from None


def cmd_analyze(args: argparse.Namespace) -> int:
    summary = run_pipeline(_build_config(args))
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_nullmodel(args: argparse.Namespace) -> int:
    cfg = RandomizerConfig(
        seed=args.seed, swap_multiplier=args.swap_multiplier, null_samples=args.samples
    )
    g = _load_graph(args.graph)
    out = make_output_dir(args.output_dir or "nullmodel-out")
    for i, rep in enumerate(rewired_replicas(g, cfg)):
        (out / f"rewired_{i:03d}.edges").write_text(rep.dump_edge_list())
    for i, rep in enumerate(shuffled_replicas(g, cfg)):
        (out / f"shuffled_{i:03d}.edges").write_text(rep.dump_edge_list())
    print(json.dumps({"graph": g.song_id, "replicas": args.samples, "output": str(out)}))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    # the catalog is read whole first; the songs file streams through the tables
    catalog = catalog_mod.load_catalog(cfg.catalog_path) if cfg.catalog_path else None
    records = SongsFile(args.songs)
    if catalog is not None:
        records = (catalog_mod.join_catalog(record, catalog) for record in records)
    notes = write_aggregates(records, cfg.output_dir, cfg)
    print(json.dumps(notes, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="notegraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full corpus pipeline")
    p.add_argument("inputs", nargs="*", default=argparse.SUPPRESS, help="MIDI files or directories")
    _add_config_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("nullmodel", help="emit randomized replicas of one graph")
    p.add_argument("graph", help="a .mid file or an edge-list dump")
    p.add_argument("--seed", type=int, default=RandomizerConfig.seed)
    p.add_argument("--samples", type=int, default=RandomizerConfig.null_samples)
    p.add_argument("--swap-multiplier", type=int, default=RandomizerConfig.swap_multiplier)
    p.add_argument("--output", dest="output_dir")
    p.set_defaults(func=cmd_nullmodel)

    p = sub.add_parser("report", help="rebuild aggregate tables from songs.jsonl")
    p.add_argument("songs", help="songs.jsonl from a previous analyze run")
    _add_config_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotegraphError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
