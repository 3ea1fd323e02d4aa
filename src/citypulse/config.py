"""Pipeline configuration: flat key=value files with command-line overrides.

Slot boundaries are half-open local time ranges like ``08:00-14:00`` on a
15-minute grid; ``24:00`` is a valid end. The defaults are morning
08:00-14:00, afternoon 14:00-19:00, evening 19:00-22:00, night 22:00-24:00.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .activity import DEFAULT_SLOTS, MajorSlot, NORMALIZATION_TOTAL, validate_slots
from .errors import ConfigError
from .ingest import get_timezone
from .landuse import PREDOMINANCE_THRESHOLD

_TIME_RANGE = re.compile(r"^(\d{1,2}):(\d{2})-(\d{1,2}):(\d{2})$")


def parse_time_range(text: str) -> tuple[int, int]:
    """Half-open ``HH:MM-HH:MM`` to an inclusive (start_bin, end_bin) pair."""
    m = _TIME_RANGE.match(text.strip())
    if not m:
        raise ConfigError(f"bad time range {text!r} (expected HH:MM-HH:MM)")
    h1, m1, h2, m2 = (int(g) for g in m.groups())
    for h, mm in ((h1, m1), (h2, m2)):
        if mm % 15 != 0 or mm > 59 or h > 24 or (h == 24 and mm != 0):
            raise ConfigError(f"time range {text!r} must lie on the 15-minute grid")
    start = h1 * 4 + m1 // 15
    end = h2 * 4 + m2 // 15 - 1
    if not 0 <= start <= end <= 95:
        raise ConfigError(f"time range {text!r} is empty or out of day bounds")
    return start, end


def parse_slots(text: str) -> tuple[MajorSlot, ...]:
    """Parse ``name=HH:MM-HH:MM`` items separated by commas."""
    slots = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad slot spec {item!r} (expected name=HH:MM-HH:MM)")
        name, rng = item.split("=", 1)
        start, end = parse_time_range(rng)
        slots.append(MajorSlot(name.strip(), start, end))
    validate_slots(slots)
    return tuple(slots)


def slots_to_text(slots) -> str:
    def clock(b: int) -> str:
        return f"{b // 4:02d}:{b % 4 * 15:02d}"
    return ",".join(f"{s.name}={clock(s.start_bin)}-{clock(s.end_bin + 1)}" for s in slots)


@dataclass
class PipelineConfig:
    """All knobs of one pipeline run."""

    events_path: Path | None = None
    zones_path: Path | None = None
    census_path: Path | None = None
    output_dir: Path = Path("out")
    events_format: str | None = None  # ndjson | csv; None infers from the extension
    timezone: str = "Europe/Madrid"
    centre_lon: float | None = None
    centre_lat: float | None = None
    slots: tuple[MajorSlot, ...] = DEFAULT_SLOTS
    night_range: tuple[int, int] = (88, 95)  # home inference, 22:00-24:00
    normalization_total: float = NORMALIZATION_TOTAL
    alpha: float = 0.01
    predominance_threshold: float = PREDOMINANCE_THRESHOLD

    def validate(self) -> None:
        get_timezone(self.timezone)
        validate_slots(self.slots)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.5 <= self.predominance_threshold < 1.0:
            raise ConfigError("predominance_threshold must be in [0.5, 1)")
        if self.normalization_total <= 0:
            raise ConfigError("normalization_total must be positive")
        if not 0 <= self.night_range[0] <= self.night_range[1] <= 95:
            raise ConfigError("night_range bins must satisfy 0 <= start <= end <= 95")
        if (self.centre_lon is None) != (self.centre_lat is None):
            raise ConfigError("centre_lon and centre_lat must be given together")

    @property
    def night_bins(self) -> range:
        return range(self.night_range[0], self.night_range[1] + 1)


_PATH_KEYS = {"events": "events_path", "zones": "zones_path", "census": "census_path",
              "output_dir": "output_dir"}
_FLOAT_KEYS = {"centre_lon", "centre_lat", "normalization_total", "alpha",
               "predominance_threshold"}


def _apply_item(config: PipelineConfig, key: str, value: str) -> PipelineConfig:
    if key in _PATH_KEYS:
        return replace(config, **{_PATH_KEYS[key]: Path(value)})
    if key in _FLOAT_KEYS:
        try:
            return replace(config, **{key: float(value)})
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {value!r} is not a number") from exc
    if key == "format":
        if value not in ("ndjson", "csv"):
            raise ConfigError(f"format must be ndjson or csv, got {value!r}")
        return replace(config, events_format=value)
    if key == "timezone":
        return replace(config, timezone=value)
    if key == "slots":
        return replace(config, slots=parse_slots(value))
    if key == "night_range":
        return replace(config, night_range=parse_time_range(value))
    raise ConfigError(f"unknown config key {key!r}")


def load_config(path) -> PipelineConfig:
    """Read a flat key=value config file (# comments, blank lines allowed)."""
    config = PipelineConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{n}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        config = _apply_item(config, key, value)
    return config


def config_echo(config: PipelineConfig) -> dict:
    """JSON-friendly echo of every setting, for the run manifest."""
    echo = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Path):
            value = str(value)
        elif f.name == "slots":
            value = slots_to_text(value)
        elif f.name == "night_range":
            value = list(value)
        echo[f.name] = value
    return echo
