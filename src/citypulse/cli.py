"""Command-line interface: batch subcommands over a flat config file.

Exit codes: 0 success, 1 internal error, 2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import ingest, pipeline, synth
from .config import PipelineConfig, apply_item, load_config
from .errors import CityPulseError, ConfigError
from .tables import write_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2


# (flag, config-file key, help): each flag given is read by the config-file parser
_SETTINGS = (
    ("--events", "events", "events file (ndjson or csv)"),
    ("--zones", "zones", "zones GeoJSON file"),
    ("--census", "census", "census CSV (zone_id,population)"),
    ("--out", "output_dir", "output directory"),
    ("--format", "format", "events file format, ndjson or csv (default: by extension)"),
    ("--timezone", "timezone", "IANA timezone of the study city"),
    ("--centre-lon", "centre_lon", "city centre longitude"),
    ("--centre-lat", "centre_lat", "city centre latitude"),
    ("--slots", "slots", "major slots, e.g. morning=08:00-14:00,..."),
    ("--night-range", "night_range", "home-inference night range, e.g. 22:00-24:00"),
    ("--normalization-total", "normalization_total",
     "per-slot normalization constant (default 100000)"),
    ("--alpha", "alpha", "stepwise significance level"),
    ("--threshold", "predominance_threshold", "predominant land-use threshold (default 0.666)"),
)

# (subcommand, pipeline steps, help)
_PIPELINE_COMMANDS = (
    ("run", pipeline.ALL_STEPS, "full pipeline: ingest, aggregate, profiles, regress"),
    ("ingest", {"ingest"}, "parse and workday-filter events; write clean NDJSON"),
    ("aggregate", {"aggregate"}, "activity matrix, slot counts, normalization"),
    ("profiles", {"profiles"}, "land-use classification and temporal profiles"),
    ("regress", {"regress"}, "bivariate comparisons and per-slot OLS models"),
)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    for _flag, key, _help in _SETTINGS:
        value = getattr(args, key)
        if value is not None:
            config = apply_item(config, key, value)
    return config


def _run_steps(args: argparse.Namespace) -> int:
    result = pipeline.run_pipeline(_build_config(args), args.steps)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {len(result.manifest['outputs']) + 1} artifacts to {result.output_dir}")
    return EXIT_OK


def _parse_class_mix(text: str) -> dict[str, float]:
    """Items like ``residential:0.5`` or ``activity:retail:0.25``."""
    mix: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, frac = item.rpartition(":")
        if not key:
            raise ConfigError(f"bad class mix item {item!r} (expected class:fraction)")
        try:
            mix[key] = float(frac)
        except ValueError as exc:
            raise ConfigError(f"bad class mix fraction in {item!r}") from exc
    return mix


def _cmd_synth(args) -> int:
    # only the flags given reach SynthConfig, which holds every default
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(synth.SynthConfig)
                if hasattr(args, f.name)}
    if "class_mix" in settings:
        settings["class_mix"] = _parse_class_mix(settings["class_mix"])
    config = synth.SynthConfig(**settings)
    city = synth.generate_city(config)
    events, truth = synth.generate_events(city)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    zones_path = out / "zones.geojson"
    zones_path.write_text(json.dumps(synth.city_geojson(city), ensure_ascii=False),
                          encoding="utf-8")
    events_path = out / "events.ndjson"
    ingest.write_events_ndjson(events, events_path)
    pipeline.write_profiles_csv(out / "profiles_truth.csv",
                                {label: truth.profiles[label] for label in sorted(truth.profiles)})
    users = sorted(truth.homes)
    write_csv(out / "homes_truth.csv", ["user_id", "zone_id"],
              [users, [truth.homes[user] for user in users]])
    run_config = out / "pipeline.config"
    run_config.write_text(
        "\n".join([
            f"events = {events_path}",
            f"zones = {zones_path}",
            f"output_dir = {out / 'run'}",
            f"timezone = {config.timezone}",
            f"centre_lon = {city.centre.lon}",
            f"centre_lat = {city.centre.lat}",
        ]) + "\n", encoding="utf-8")
    print(f"synthesized {len(city.zones)} zones and {len(events)} events in {out}")
    print(f"run the pipeline with: citypulse run --config {run_config}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citypulse",
        description="Spatiotemporal demographics from geotagged event streams.")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, steps, help_text in _PIPELINE_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for flag, key, flag_help in _SETTINGS:
            p.add_argument(flag, dest=key, help=flag_help)
        p.set_defaults(handler=_run_steps, steps=steps)

    p = sub.add_parser("synth", help="generate a synthetic city with ground truth",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-zones", type=int)
    p.add_argument("--n-users", type=int)
    p.add_argument("--events-per-day", type=float, dest="events_per_user_per_day")
    p.add_argument("--days", type=int, dest="n_days")
    p.add_argument("--home-bias", type=float)
    p.add_argument("--centre-decay", type=float, dest="centre_decay_per_km",
                   help="activity decay per km from the centre")
    p.add_argument("--ensure-night-event", action="store_true",
                   help="guarantee each user at least one night event at home")
    p.add_argument("--class-mix", help="e.g. residential:0.5,mixed:0.25,activity:retail:0.25")
    p.add_argument("--timezone")
    p.set_defaults(handler=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.handler(args)
    except CityPulseError as exc:  # a config, data or singular-design error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - last-resort guard
        logger.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
