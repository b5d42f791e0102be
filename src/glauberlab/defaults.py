"""All numeric defaults in one place, overridable by a JSON config file.

Flags override config values, which override these defaults.  The config
file is a flat JSON object using exactly the keys below, each of its
default's type; unknown keys are rejected so typos surface instead of
silently falling back.
"""

import json
import math

DEFAULTS = {
    # RNG base seed for commands that don't receive one.
    "seed": 0,
    # Vertex-expansion budget for graph searches (hypothesis checking,
    # skeleton rule scans).
    "node_budget": 10 ** 8,
    # Maximum number of configurations an exact enumeration may hold.
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
    cfg.update(data)
    return cfg
