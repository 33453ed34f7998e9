"""Simulation configuration: defaults, validation, and the flat key-value file format.

Every field carries its unit in the name. The defaults reproduce the reference
scenario: 40 UEs, 36 four-antenna O-RUs under 9 O-DUs on a 1 x 1 km grid,
-94 dBm noise, 100-symbol pilots, 0.5 s sampling, 16-O-RU serving clusters,
10 s episodes, 25 setups, 10 degree angular spread.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, replace
from functools import partial

from .clustering import HandoverConfig
from .errors import ConfigurationError
from .geometry import DeploymentConfig
from .signaling import FrameConfig

ENV_CONFIG_PATH = "CFMIMO_CONFIG"


@dataclass
class SimConfig:
    deployment: DeploymentConfig = field(
        default_factory=lambda: DeploymentConfig(
            grid_side_m=1000.0, num_orus=36, num_odus=9, antennas_per_oru=4, num_ues=40
        )
    )
    handover: HandoverConfig = field(default_factory=HandoverConfig)
    frame: FrameConfig = field(default_factory=FrameConfig)
    ts_s: float = 0.5
    sim_time_s: float = 10.0
    speeds_kmh: tuple = (3.0, 30.0, 60.0, 120.0)
    n_setups: int = 25
    n_mc: int = 100
    seed: int = 1
    tau_p: int = 100
    power_mw: float = 100.0
    sigma2_ul_dbm: float = -94.0
    sigma_sf_db: float = 4.0
    shadow_alpha_per_m: float = 0.05
    angle_spread_deg: float = 10.0
    antenna_spacing_wl: float = 0.5
    min_distance_m: float = 1.0
    se_prelog: bool = False
    check_quadrature: bool = True

    @property
    def sigma2_mw(self) -> float:
        return 10.0 ** (self.sigma2_ul_dbm / 10.0)

    @property
    def angle_spread_rad(self) -> float:
        return math.radians(self.angle_spread_deg)

    @property
    def n_steps(self) -> int:
        return int(round(self.sim_time_s / self.ts_s))

    @property
    def prelog(self) -> float:
        """Optional pilot-overhead factor tau_u / (tau_p + tau_u); 1 when disabled."""
        if not self.se_prelog:
            return 1.0
        return self.frame.tau_u / (self.tau_p + self.frame.tau_u)

    def resolve(self) -> "SimConfig":
        """Validate and normalize; clamps the measurement size to the O-RU count."""
        for key, (section, attr, parser) in _FIELDS.items():
            if parser in (float, _parse_speeds):
                value = _field_value(self, section, attr)
                values = value if parser is _parse_speeds else (value,)
                if not all(math.isfinite(v) for v in values):
                    raise ConfigurationError(f"{key} must be finite, got {value!r}")
        cfg = replace(
            self,
            handover=replace(
                self.handover,
                measurement_size=min(self.handover.measurement_size, self.deployment.num_orus),
            ),
        )
        try:
            cfg.deployment.validate()
            cfg.handover.validate(cfg.deployment.num_orus)
            cfg.frame.validate()
        except ConfigurationError as exc:
            raise ConfigurationError(_with_key_names(str(exc))) from None
        if cfg.ts_s <= 0:
            raise ConfigurationError("sample_time_s must be > 0")
        if cfg.sim_time_s <= 0 or cfg.n_steps < 1:
            raise ConfigurationError("sim_time_s must cover at least one step")
        if not cfg.speeds_kmh or any(v < 0 for v in cfg.speeds_kmh):
            raise ConfigurationError("speeds_kmh must be a non-empty list of values >= 0")
        if cfg.n_setups < 1:
            raise ConfigurationError("n_setups must be >= 1")
        if cfg.n_mc < 1:
            raise ConfigurationError("n_mc must be >= 1")
        if cfg.tau_p < 1:
            raise ConfigurationError("tau_p must be >= 1")
        if cfg.power_mw <= 0:
            raise ConfigurationError("power_mw must be > 0")
        if cfg.sigma_sf_db < 0:
            raise ConfigurationError("sigma_sf_db must be >= 0")
        if cfg.shadow_alpha_per_m <= 0:
            raise ConfigurationError("shadow_alpha_per_m must be > 0")
        if cfg.angle_spread_deg < 0:
            raise ConfigurationError("angle_spread_deg must be >= 0")
        if cfg.antenna_spacing_wl <= 0:
            raise ConfigurationError("antenna_spacing_wl must be > 0")
        if cfg.min_distance_m <= 0:
            raise ConfigurationError("min_distance_m must be > 0")
        return cfg


# Flat file keys -> (section, attribute, parser). Units are part of the key names.
def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_list(text: str, name: str, item=float) -> tuple:
    """The non-empty items of a comma list; a malformed item is reported under ``name``."""
    try:
        return tuple(item(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigurationError(f"{name} expects a comma list of {item.__name__} values, got {text!r}") from None


_parse_speeds = partial(parse_list, name="speeds_kmh")


_FIELDS = {
    "grid_side_m": ("deployment", "grid_side_m", float),
    "num_orus": ("deployment", "num_orus", int),
    "num_odus": ("deployment", "num_odus", int),
    "antennas_per_oru": ("deployment", "antennas_per_oru", int),
    "num_ues": ("deployment", "num_ues", int),
    "strategy": ("handover", "strategy", str),
    "threshold_db": ("handover", "threshold_db", float),
    "serving_cluster_size": ("handover", "serving_size", int),
    "measurement_cluster_size": ("handover", "measurement_size", int),
    "cellular_hysteresis_db": ("handover", "cellular_hysteresis_db", float),
    "tau_u": ("frame", "tau_u", int),
    "blocks_per_step": ("frame", "blocks_per_step", int),
    "sample_time_s": (None, "ts_s", float),
    "sim_time_s": (None, "sim_time_s", float),
    "speeds_kmh": (None, "speeds_kmh", _parse_speeds),
    "n_setups": (None, "n_setups", int),
    "n_mc": (None, "n_mc", int),
    "seed": (None, "seed", int),
    "tau_p": (None, "tau_p", int),
    "power_mw": (None, "power_mw", float),
    "noise_dbm": (None, "sigma2_ul_dbm", float),
    "sigma_sf_db": (None, "sigma_sf_db", float),
    "shadow_alpha_per_m": (None, "shadow_alpha_per_m", float),
    "angle_spread_deg": (None, "angle_spread_deg", float),
    "antenna_spacing_wl": (None, "antenna_spacing_wl", float),
    "min_distance_m": (None, "min_distance_m", float),
    "se_prelog": (None, "se_prelog", _parse_bool),
    "check_quadrature": (None, "check_quadrature", _parse_bool),
}


def _with_key_names(message: str) -> str:
    """``message`` with every attribute name that differs from its key replaced by the key."""
    for key, (_, attr, _) in _FIELDS.items():
        if attr != key:
            message = re.sub(rf"\b{attr}\b", key, message)
    return message


def _field_value(config: SimConfig, section, attr: str):
    return getattr(config if section is None else getattr(config, section), attr)


def apply_setting(config: SimConfig, key: str, raw_value: str) -> SimConfig:
    """Set one flat key on a copy of ``config``; unknown keys are rejected."""
    if key not in _FIELDS:
        raise ConfigurationError(f"unknown configuration key: {key!r}")
    section, attr, parser = _FIELDS[key]
    try:
        value = parser(raw_value) if isinstance(raw_value, str) else raw_value
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r}: {raw_value!r} ({exc})") from exc
    if section is None:
        return replace(config, **{attr: value})
    return replace(config, **{section: replace(getattr(config, section), **{attr: value})})


def from_file(path: str, base: SimConfig | None = None) -> SimConfig:
    """Parse a flat `key = value` file (# starts a comment) onto ``base``."""
    config = base if base is not None else SimConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        config = apply_setting(config, key.strip(), value.strip())
    return config


def default_config() -> SimConfig:
    """Defaults, optionally overlaid with the file named by $CFMIMO_CONFIG."""
    path = os.environ.get(ENV_CONFIG_PATH)
    if path:
        return from_file(path)
    return SimConfig()


def to_text(config: SimConfig) -> str:
    """Render the resolved configuration in the flat file format."""
    lines = []
    for key, (section, attr, _) in _FIELDS.items():
        value = _field_value(config, section, attr)
        if key == "speeds_kmh":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
