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
from .config import PipelineConfig, load_config, parse_slots, parse_time_range
from .errors import CityPulseError, ConfigError, DataError, SingularityError
from .tables import write_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--events", help="events file (ndjson or csv)")
    parser.add_argument("--zones", help="zones GeoJSON file")
    parser.add_argument("--census", help="census CSV (zone_id,population)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=["ndjson", "csv"], dest="events_format",
                        help="events file format (default: by extension)")
    parser.add_argument("--timezone", help="IANA timezone of the study city")
    parser.add_argument("--centre-lon", type=float, help="city centre longitude")
    parser.add_argument("--centre-lat", type=float, help="city centre latitude")
    parser.add_argument("--slots", help="major slots, e.g. morning=08:00-14:00,...")
    parser.add_argument("--night-range", help="home-inference night range, e.g. 22:00-24:00")
    parser.add_argument("--normalization-total", type=float,
                        help="per-slot normalization constant (default 100000)")
    parser.add_argument("--alpha", type=float, help="stepwise significance level")
    parser.add_argument("--threshold", type=float, dest="predominance_threshold",
                        help="predominant land-use threshold (default 0.666)")


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    updates: dict = {}
    if args.events is not None:
        updates["events_path"] = Path(args.events)
    if args.zones is not None:
        updates["zones_path"] = Path(args.zones)
    if args.census is not None:
        updates["census_path"] = Path(args.census)
    if args.out is not None:
        updates["output_dir"] = Path(args.out)
    for name in ("events_format", "timezone", "centre_lon", "centre_lat",
                 "normalization_total", "alpha", "predominance_threshold"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if args.slots is not None:
        updates["slots"] = parse_slots(args.slots)
    if args.night_range is not None:
        updates["night_range"] = parse_time_range(args.night_range)
    return dataclasses.replace(config, **updates)


def _run_steps(args: argparse.Namespace, steps, write_clean_events=False) -> int:
    config = _build_config(args)
    result = pipeline.run_pipeline(config, steps, write_clean_events=write_clean_events)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {len(result.manifest['outputs']) + 1} artifacts to {result.output_dir}")
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run_steps(args, pipeline.ALL_STEPS)


def _cmd_ingest(args) -> int:
    return _run_steps(args, {"ingest"}, write_clean_events=True)


def _cmd_aggregate(args) -> int:
    return _run_steps(args, {"aggregate"})


def _cmd_profiles(args) -> int:
    return _run_steps(args, {"profiles"})


def _cmd_regress(args) -> int:
    return _run_steps(args, {"regress"})


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
    mix = _parse_class_mix(args.class_mix) if args.class_mix else None
    kwargs = dict(
        seed=args.seed, n_zones=args.n_zones, n_users=args.n_users,
        events_per_user_per_day=args.events_per_day, n_days=args.days,
        home_bias=args.home_bias, centre_decay_per_km=args.centre_decay,
        ensure_night_event=args.ensure_night_event, timezone=args.timezone or "Europe/Madrid",
    )
    if mix:
        kwargs["class_mix"] = mix
    config = synth.SynthConfig(**kwargs)
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

    for name, handler, help_text in (
            ("run", _cmd_run, "full pipeline: ingest, aggregate, profiles, regress"),
            ("ingest", _cmd_ingest, "parse and workday-filter events; write clean NDJSON"),
            ("aggregate", _cmd_aggregate, "activity matrix, slot counts, normalization"),
            ("profiles", _cmd_profiles, "land-use classification and temporal profiles"),
            ("regress", _cmd_regress, "bivariate comparisons and per-slot OLS models")):
        p = sub.add_parser(name, help=help_text)
        _add_pipeline_flags(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("synth", help="generate a synthetic city with ground truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-zones", type=int, default=100)
    p.add_argument("--n-users", type=int, default=500)
    p.add_argument("--events-per-day", type=float, default=8.0)
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--home-bias", type=float, default=0.7)
    p.add_argument("--centre-decay", type=float, default=0.0,
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
    except (ConfigError, DataError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CityPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        logger.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
