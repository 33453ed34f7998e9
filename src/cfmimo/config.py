"""Simulation configuration: defaults, validation, and the flat key-value file format.

Every field carries its unit in the name. The defaults reproduce the reference
scenario: 40 UEs, 36 four-antenna O-RUs under 9 O-DUs on a 1 x 1 km grid,
-94 dBm noise, 100-symbol pilots, 0.5 s sampling, 16-O-RU serving clusters,
10 s episodes, 25 setups, 10 degree angular spread.

Flat keys are the dataclass fields (four renamed in ``_RENAMED``); sweep-cell values are checked by the
rules of the keys they override, a margin of inf never hands over, sim_time_s is at most MAX_STEPS whole samples.
"""

from __future__ import annotations

import math
import operator
import os
import re
from dataclasses import dataclass, field, fields, replace
from functools import partial

from .clustering import HandoverConfig
from .errors import ConfigurationError
from .geometry import DeploymentConfig
from .signaling import FrameConfig

ENV_CONFIG_PATH = "CFMIMO_CONFIG"
MAX_STEPS = 100_000  # steps per episode; every cell keeps an (n_steps, K) SE array


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
            value = _field_value(self, section, attr)
            values = value if parser is _parse_speeds else (value,)
            margin = attr in HandoverConfig.MARGINS  # +inf is a margin that never triggers
            if parser in (float, _parse_speeds) and not all(
                math.isfinite(v) or (margin and v == math.inf) for v in values
            ):
                raise ConfigurationError(f"{key} must be finite{' or +inf' if margin else ''}, got {value!r}")
            op, bound = _LOWER_BOUNDS.get(key, (None, None))
            if op and not (values and all(_COMPARE[op](v, bound) for v in values)):
                raise ConfigurationError(f"{key} must be {op} {bound}, got {value!r}")
        if not self.sim_time_s / self.ts_s <= MAX_STEPS:  # an overflow to inf included
            raise ConfigurationError(
                f"sim_time_s / sample_time_s must be at most {MAX_STEPS} steps, got {self.sim_time_s!r} / {self.ts_s!r}"
            )
        if not math.isclose(self.n_steps * self.ts_s, self.sim_time_s, rel_tol=1e-9):
            raise ConfigurationError(
                f"sim_time_s must be a whole number of sample_time_s, got {self.sim_time_s!r} and {self.ts_s!r}"
            )
        measurement_size = min(self.handover.measurement_size, self.deployment.num_orus)
        cfg = replace(self, handover=replace(self.handover, measurement_size=measurement_size))
        try:
            cfg.deployment.validate()
            cfg.handover.validate(cfg.deployment.num_orus, cfg.deployment.num_ues, cfg.deployment.antennas_per_oru)
        except ConfigurationError as exc:
            raise ConfigurationError(_with_key_names(str(exc))) from None
        return cfg


# Lower bounds of FrameConfig and of SimConfig's scalars, by flat key. The
# deployment and handover rules relate several fields and stay with their classes.
_LOWER_BOUNDS = {
    **dict.fromkeys(("tau_u", "blocks_per_step", "n_setups", "n_mc", "tau_p"), (">=", 1)),
    **dict.fromkeys(("speeds_kmh", "sigma_sf_db", "angle_spread_deg"), (">=", 0)),
    **dict.fromkeys(
        ("sample_time_s", "sim_time_s", "power_mw", "shadow_alpha_per_m", "antenna_spacing_wl", "min_distance_m"),
        (">", 0),
    ),
}
_COMPARE = {">": operator.gt, ">=": operator.ge}


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


# Flat keys that differ from their attribute's name.
_RENAMED = {
    "serving_size": "serving_cluster_size",
    "measurement_size": "measurement_cluster_size",
    "ts_s": "sample_time_s",
    "sigma2_ul_dbm": "noise_dbm",
}
# Parsers by annotation text (every config module postpones its annotations).
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool, "tuple": _parse_speeds}
_SECTIONS = {"deployment": DeploymentConfig, "handover": HandoverConfig, "frame": FrameConfig}

# Flat file keys -> (section, attribute, parser): the sections' fields, then SimConfig's own.
_FIELDS = {
    _RENAMED.get(f.name, f.name): (section, f.name, _PARSERS[f.type])
    for section, cls in [*_SECTIONS.items(), (None, SimConfig)]
    for f in fields(cls)
    if f.name not in _SECTIONS
}


def _with_key_names(message: str) -> str:
    """``message`` with every attribute name that differs from its key replaced by the key."""
    for attr, key in _RENAMED.items():
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
