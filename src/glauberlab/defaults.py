"""All numeric defaults in one place, overridable by a JSON config file.

Flags override config values, which override these defaults.  The config
file is a flat JSON object using exactly the keys below, each of its
default's type, the keys in CHOICES one of their listed values, the
counts at least 1 and the log base finite and above 1; unknown keys are
rejected so typos surface instead of silently falling back.
"""

import json
import math

DEFAULTS = {
    # RNG base seed for commands that don't receive one.
    "seed": 0,
    # Vertex-expansion budget for graph searches (hypothesis checking,
    # skeleton rule scans).
    "node_budget": 10 ** 8,
    # Most rows any level of an exact enumeration may hold: partial
    # assignments count as well as complete states, so it caps memory.
    "state_budget": 200_000,
    # Step cap for exact mixing-time searches.
    "mixing_horizon": 10 ** 6,
    # Update cap for simulated chains and couplings.
    "chain_horizon": 10 ** 8,
    # Boundary sample count for correlation-decay checks.
    "decay_boundary_samples": 1000,
    # Base of the logarithms in all length scales (L log n etc.).
    "log_base": math.e,
    # Skeleton rule scan order: "low" or "high".
    "scan_order": "low",
    # Output format when --format is not given.
    "format": "json",
}

# The values a string key may take; the CLI flags offer the same.
CHOICES = {"scan_order": ("low", "high"), "format": ("json", "csv")}

# The keys that count something; none of them may be below 1.
_COUNTS = ("node_budget", "state_budget", "mixing_horizon", "chain_horizon",
           "decay_boundary_samples")


def _check_count(value, name="value"):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _check_log_base(base):
    # NaN fails both comparisons, so it is rejected too.
    if not 1.0 < base < math.inf:
        raise ValueError("log base must exceed 1 and be finite")


def load_config(path=None):
    """DEFAULTS merged with the JSON object at path (if given)."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        want = type(DEFAULTS[key])
        # a bool is not an int, but an int may stand for a float
        if type(value) is not want and (want, type(value)) != (float, int):
            raise ValueError(f"config key {key} must be a {want.__name__}, "
                             f"got {value!r}")
        if key in CHOICES and value not in CHOICES[key]:
            raise ValueError(f"config key {key} must be one of "
                             f"{', '.join(CHOICES[key])}, got {value!r}")
        if key in _COUNTS:
            _check_count(value, f"config key {key}")
        if key == "log_base":
            _check_log_base(value)
    cfg.update(data)
    return cfg
