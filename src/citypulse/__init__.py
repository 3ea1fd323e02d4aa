"""citypulse: spatiotemporal demographics from geotagged event streams.

Turns raw geotagged posts into unique-active-user counts per city zone and
time bin, normalized per-slot distributions, land-use activity profiles, and
OLS models linking activity to land-use composition.
"""

from .activity import (AssignedEvents, DEFAULT_SLOTS, MajorSlot, QuarterCounts,
                       aggregate_major_slots, count_unique_users, density_per_hectare,
                       landuse_profile, normalize_counts)
from .config import PipelineConfig, load_config
from .errors import CityPulseError, ConfigError, DataError, SingularityError
from .ingest import EventBatch, GeoEvent, RejectionReport, filter_workdays, read_event_blocks
from .pipeline import export_geojson, run_pipeline
from .spatial import CityCentre, ZoneIndex, ZoneTable, build_zone_index, load_zones_geojson
from .stats import OlsFit, bivariate_slot_ols, census_correlation, fit_ols, stepwise_fit
from .synth import SynthConfig, generate_city, generate_events

__version__ = "0.1.0"
