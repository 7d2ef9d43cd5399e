"""Scenario configuration: structured-text files, presets, and overrides.

A scenario file is line-oriented `key = value` text with dotted keys for
nesting and `#` comments.  `preset = table-5.1` pulls a named table in:
each of its values sets the dotted key whose last part is the value's name,
and later lines override it.  Unknown keys and ill-typed values are
rejected with the offending line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .presets import PRESETS, table61_classes
from .queueing import Ch6QueueParams, TwoTierParams, chain_dimensions
from .radio import PropagationParams
from .topology import MacroGeometry


class ScenarioError(ValueError):
    def __init__(self, message, line=None, column=None, path=None):
        loc = ""
        if path:
            loc += f"{path}:"
        if line is not None:
            loc += f"{line}"
            if column is not None:
                loc += f":{column}"
        super().__init__(f"{loc + ': ' if loc else ''}{message}")
        self.line = line
        self.column = column


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_name(text: str) -> str:
    """A scenario name is the first field of every CSV row."""
    if "," in text or len(text.splitlines()) > 1:
        raise ValueError(f"a name may not hold a comma or a line break, got {text!r}")
    return text


# key -> (type constructor, default)
SCENARIO_KEYS: dict[str, tuple] = {
    "name": (_parse_name, "ad-hoc"),
    "preset": (str, ""),
    "seed": (int, 7),
    "trials": (int, 20),
    # topology
    "topology.macro_radius_m": (float, 1000.0),
    "topology.femto_radius_m": (float, 10.0),
    "topology.neighbor_threshold_m": (float, 60.0),
    "topology.min_separation_m": (float, 2.0),
    "topology.macro_ue_walls": (int, 1),
    "topology.inter_femto_walls": (int, 1),
    # spectrum
    "spectrum.total_hz": (float, 18e6),
    "spectrum.femto_fraction": (float, 1.0 / 3.0),
    "spectrum.edge_fraction": (float, 0.6),
    # radio
    "radio.sir_threshold_db": (float, 9.0),
    "radio.sir_cap_db": (float, 30.0),
    "radio.tx_power_macro_w": (float, 1500.0),
    "radio.tx_power_femto_w": (float, 0.01),
    "radio.ue_fap_distance_m": (float, 5.0),
    # traffic (two-tier and single-cell)
    "traffic.total_arrival_per_s": (float, 6.0),
    "traffic.arrival_grid": (_parse_float_list, ()),
    "traffic.mean_call_duration_s": (float, 120.0),
    "traffic.femto_dwell_s": (float, 360.0),
    "traffic.macro_dwell_s": (float, 240.0),
    "traffic.arrival_density_ratio": (float, 20.0),
    "traffic.alpha": (float, 0.8),
    "traffic.beta": (float, 0.2),
    "traffic.femto_capacity_calls": (int, 4),
    "traffic.capacity_kbps": (float, 6000.0),
    "traffic.guard_fraction": (float, 0.05),
    "traffic.macro_base_states": (int, 100),
    "traffic.macro_adaptive_states": (int, 30),
    # neighbor list
    "neighborlist.s_t0_dbm": (float, -90.0),
    "neighborlist.s_t1_dbm": (float, -75.0),
    "neighborlist.d_max_m": (float, 40.0),
    "neighborlist.obstruction_prob": (float, 0.3),
    # sweeps
    "sweep.femto_counts": (_parse_float_list, ()),
    "sweep.session_counts": (_parse_float_list, ()),
}

@dataclass
class Scenario:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: default for k, (_, default) in SCENARIO_KEYS.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def name(self) -> str:
        return self.values["name"]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def _duration(self, key: str) -> float:
        """A mean time whose inverse is a rate: it must be > 0 with a finite
        inverse.  inf gives a rate of 0; an infinite dwell means no mobility."""
        value = self[key]
        if not value > 0:
            raise ValueError(f"{key} must be > 0, got {value!r}")
        if 1.0 / value == math.inf:
            raise ValueError(f"{key} must have a finite inverse, got {value!r}")
        return value

    def _call_duration(self) -> float:
        """A call must end: unlike a dwell time, its mean must be finite."""
        value = self._duration("traffic.mean_call_duration_s")
        if value == math.inf:
            raise ValueError(f"traffic.mean_call_duration_s must be finite, got {value!r}")
        return value

    def macro_geometry(self):
        return MacroGeometry(
            macro_radius_m=self["topology.macro_radius_m"],
            femto_radius_m=self["topology.femto_radius_m"],
            neighbor_threshold_m=self["topology.neighbor_threshold_m"],
            min_separation_m=self["topology.min_separation_m"],
            macro_ue_walls=self["topology.macro_ue_walls"],
            inter_femto_walls=self["topology.inter_femto_walls"],
        )

    def propagation(self):
        return PropagationParams(
            tx_power_macro_w=self["radio.tx_power_macro_w"],
            tx_power_femto_w=self["radio.tx_power_femto_w"],
            sir_cap_db=self["radio.sir_cap_db"],
        )

    def _rate(self, key: str) -> float:
        """A rate or ratio the two-tier split derives from: finite and >= 0."""
        value = self[key]
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{key} must be finite and >= 0, got {value!r}")
        return value

    def two_tier_params(self, n: int, lam_total: float | None = None):
        macro = self.macro_geometry()
        lam = self._rate("traffic.total_arrival_per_s") if lam_total is None else lam_total
        frac = n * (macro.femto_radius_m / macro.macro_radius_m) ** 2
        weight_f = self._rate("traffic.arrival_density_ratio") * frac
        weight_m = max(1.0 - frac, 0.0)
        lam_f = lam * weight_f / (weight_f + weight_m) if weight_f else 0.0
        return TwoTierParams(
            lambda_o_f=lam_f,
            lambda_o_m=lam - lam_f,
            mu=1.0 / self._call_duration(),
            eta_f=1.0 / self._duration("traffic.femto_dwell_s"),
            eta_m=1.0 / self._duration("traffic.macro_dwell_s"),
            n=n,
            r_f=macro.femto_radius_m,
            r_m=macro.macro_radius_m,
            femto_capacity=self["traffic.femto_capacity_calls"],
            macro_base_states=self["traffic.macro_base_states"],
            macro_adaptive_states=self["traffic.macro_adaptive_states"],
            alpha=self["traffic.alpha"],
            beta_prob=self["traffic.beta"],
        )

    def ch6_params(self, lam_new: float):
        duration = self._call_duration()
        classes = tuple(replace(c, duration_s=duration) for c in table61_classes())
        capacity = self["traffic.capacity_kbps"]
        # N >= 1, so that the guard scheme's one guard channel fits.  The Table
        # 6.1 classes' shares sum to 1 and each gamma_h is below 1, so
        # chain_dimensions raises for no finite capacity > 0
        n = chain_dimensions(classes, capacity)[0] if 0.0 < capacity < math.inf else 0
        if n < 1:
            raise ValueError(f"traffic.capacity_kbps must be finite and hold at least "
                             f"one call, got {capacity!r}")
        fraction = self["traffic.guard_fraction"]
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"traffic.guard_fraction must lie in [0, 1], got {fraction!r}")
        guard = max(1, int(fraction * n))
        return Ch6QueueParams(
            lam_new=lam_new, capacity=capacity, classes=classes,
            eta=1.0 / self._duration("traffic.macro_dwell_s"), guard_channels=guard)


_PRESET_KEYS = {key.rpartition(".")[2]: key for key in SCENARIO_KEYS if "." in key}


def _apply_preset(values: dict, preset_name: str, line: int, path) -> None:
    if preset_name not in PRESETS:
        raise ScenarioError(f"unknown preset {preset_name!r} "
                            f"(known: {', '.join(sorted(PRESETS))})",
                            line, None, path)
    for name, value in PRESETS[preset_name].items():
        key = _PRESET_KEYS.get(name)
        if key is not None:
            values[key] = SCENARIO_KEYS[key][0](value)
    values["preset"] = preset_name


def parse_assignment(text: str, line_no: int = 0, path=None) -> tuple[str, object]:
    """Parse one `key = value` line against the key registry."""
    if "=" not in text:
        raise ScenarioError("expected 'key = value'", line_no,
                            len(text.rstrip()) + 1, path)
    key, _, raw = text.partition("=")
    key = key.strip()
    raw = raw.strip()
    if key == "preset":
        return key, raw
    if key not in SCENARIO_KEYS:
        raise ScenarioError(f"unknown key {key!r}", line_no,
                            text.index(key) + 1, path)
    try:
        return key, SCENARIO_KEYS[key][0](raw)
    except ValueError as exc:
        raise ScenarioError(f"bad value for {key}: {exc}", line_no,
                            text.index("=") + 2, path) from None


def _assign(values: dict, text: str, line_no: int = 0, path=None) -> None:
    """Parse one `key = value` line into values; a preset sets its keys."""
    key, value = parse_assignment(text, line_no, path)
    if key == "preset":
        _apply_preset(values, value, line_no, path)
    else:
        values[key] = value


def load_scenario(path) -> Scenario:
    """Load and validate a structured-text scenario file."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ScenarioError(str(exc)) from None

    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            _assign(values, text, line_no, path)
    if "name" not in values:
        raise ScenarioError("missing required field 'name'", path=path)
    return Scenario(values)


def scenario_from_preset(preset_name: str) -> Scenario:
    values: dict = {}
    if preset_name:
        _apply_preset(values, preset_name, 0, None)
    return Scenario(values)


def apply_overrides(scenario: Scenario, assignments: list[str]) -> Scenario:
    """Apply --set key=value pairs on top of a scenario."""
    values = dict(scenario.values)
    for text in assignments:
        _assign(values, text)
    return Scenario(values)
