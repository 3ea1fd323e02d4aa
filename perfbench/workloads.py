"""The benchmark's workloads: generator parameters and why each one exists.

Every workload is a synth city (``citypulse.synth``) generated from the
benchmark's ``--seed``; the pipeline under test only ever sees the files that
``inputs.py`` writes. This module holds data only, so the measuring parent can
read it without importing numpy or citypulse.
"""

ALL_CLASS_KEYS = ("residential", "mixed", "activity:office", "activity:industry",
                  "activity:retail", "activity:health", "activity:education",
                  "activity:culture", "activity:transport", "activity:park",
                  "activity:other")

# Generator parameters (SynthConfig fields; ``seed`` comes from the command
# line), input format, row mutations, and why each workload exists.
WORKLOADS: dict[str, dict] = {
    "city-253k": {
        "why": "half the ROADMAP scale, clean NDJSON (~253k events, 400 zones): the per-event "
               "hot path of parse, spatial assign, dedup and home inference",
        "format": "ndjson",
        "synth": {"n_zones": 400, "n_users": 5000, "events_per_user_per_day": 17,
                  "n_days": 3, "home_bias": 0.3, "centre_decay_per_km": 0.12},
        "mutate": {},
    },
    "city-509k": {
        "why": "ROADMAP scale, clean NDJSON (~509k events, 400 zones): the per-event "
               "hot path of parse, spatial assign, dedup and home inference",
        "format": "ndjson",
        "synth": {"n_zones": 400, "n_users": 10000, "events_per_user_per_day": 17,
                  "n_days": 3, "home_bias": 0.3, "centre_decay_per_km": 0.12},
        "mutate": {},
    },
    "fine-grid": {
        "why": "4900 zones with every land-use class and ~30k events: per-zone work "
               "(zone load, index, classify, 96-column export, OLS) and import time dominate",
        "format": "ndjson",
        "synth": {"n_zones": 4900, "n_users": 300, "events_per_user_per_day": 33,
                  "n_days": 3, "home_bias": 0.7, "centre_decay_per_km": 0.1,
                  "user_rate_sigma": 0.0,
                  "class_mix": {"residential": 0.2, "mixed": 0.17,
                                **{k: 0.07 for k in ALL_CLASS_KEYS[2:]}}},
        "mutate": {},
    },
    "messy-csv": {
        "why": "CSV with quoted/multi-line text and mixed offsets; known shares of rows "
               "re-dated, moved off the map or malformed: reader, workday filter and rejects",
        "format": "csv",
        "synth": {"n_zones": 225, "n_users": 3000, "events_per_user_per_day": 10,
                  "n_days": 3, "home_bias": 0.5, "centre_decay_per_km": 0.1},
        # shares of all rows; the rest stay clean
        "mutate": {"redate": 0.08, "outside": 0.05, "malformed": 0.06},
    },
}
