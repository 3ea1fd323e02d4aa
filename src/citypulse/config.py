"""Pipeline configuration: flat key=value files with command-line overrides,
each setting read by :func:`apply_item` and checked by :meth:`PipelineConfig.validate`.

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
from .stats import DEFAULT_ALPHA, DEFAULT_NIGHT_BINS

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


# In this range every sum of squares of normalized values is a normal double, so
# the models' p-values and retained predictors do not depend on the total.
NORMALIZATION_RANGE = (1.0, 1e100)


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
    night_range: tuple[int, int] = (DEFAULT_NIGHT_BINS[0], DEFAULT_NIGHT_BINS[-1])  # home inference
    normalization_total: float = NORMALIZATION_TOTAL
    alpha: float = DEFAULT_ALPHA
    predominance_threshold: float = PREDOMINANCE_THRESHOLD

    def validate(self) -> None:
        get_timezone(self.timezone)
        validate_slots(self.slots)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.5 <= self.predominance_threshold < 1.0:
            raise ConfigError("predominance_threshold must be in [0.5, 1)")
        if not NORMALIZATION_RANGE[0] <= self.normalization_total <= NORMALIZATION_RANGE[1]:
            raise ConfigError("normalization_total must be a number in [%g, %g]"
                              % NORMALIZATION_RANGE)
        if not 0 <= self.night_range[0] <= self.night_range[1] <= 95:
            raise ConfigError("night_range bins must satisfy 0 <= start <= end <= 95")
        if (self.centre_lon is None) != (self.centre_lat is None):
            raise ConfigError("centre_lon and centre_lat must be given together")
        if self.centre_lon is not None and not (-180.0 <= self.centre_lon <= 180.0
                                                and -90.0 <= self.centre_lat <= 90.0):
            raise ConfigError("centre_lon must be in [-180, 180] and centre_lat in [-90, 90]")

    @property
    def night_bins(self) -> range:
        return range(self.night_range[0], self.night_range[1] + 1)


def _events_format(text: str) -> str:
    if text not in ("ndjson", "csv"):
        raise ConfigError(f"format must be ndjson or csv, got {text!r}")
    return text


# each config-file key: the PipelineConfig field it sets and the parser of its text
KEYS = {"events": ("events_path", Path), "zones": ("zones_path", Path),
        "census": ("census_path", Path), "output_dir": ("output_dir", Path),
        "format": ("events_format", _events_format), "timezone": ("timezone", str),
        "centre_lon": ("centre_lon", float), "centre_lat": ("centre_lat", float),
        "slots": ("slots", parse_slots), "night_range": ("night_range", parse_time_range),
        "normalization_total": ("normalization_total", float), "alpha": ("alpha", float),
        "predominance_threshold": ("predominance_threshold", float)}


def apply_item(config: PipelineConfig, key: str, value: str) -> PipelineConfig:
    """``config`` with the setting ``key`` read from its text ``value``."""
    if key not in KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    name, parse = KEYS[key]
    try:
        return replace(config, **{name: parse(value)})
    except ValueError as exc:  # only float raises it; the other parsers raise ConfigError
        raise ConfigError(f"config key {key!r}: {value!r} is not a number") from exc


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
        config = apply_item(config, key, value)
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
