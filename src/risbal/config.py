"""Scenario configuration: geometry, arrays, link statistics, sweep defaults.

Defaults follow the reference operating point: two 4x4 base stations, an
8x16 reflecting surface, 4 users per cell, 30 dBm transmit power, -104 dBm
noise, pi/6 inter-band phase offset and a 20 dB balancing weight.

Config files are flat UTF-8 ``key = value`` text. Keys are ScenarioConfig
field names, each given at most once; unknown keys are rejected. A key's
syntax follows its field's declared type ('@' must be followed by a spacing):

    bs1_array     = 4x4@0.5       ArrayGeometry: vertical x horizontal [@spacing]
    bs1_pos       = 0,0,15        Position3D: x,y,z meters
    cell1_center  = 45,15         tuple[float, float]: x,y meters
    direct_link   = 4.2,3,8       RicianLinkParams: exponent, rician dB, paths [,spread deg]
    num_drops     = 100           int
    lambda_db     = 20            float; -inf selects a zero balancing weight
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, fields, is_dataclass
from typing import get_type_hints

from .errors import ConfigError


def _require_ints(obj: object, *names: str) -> None:
    """Counts are Python or numpy integers; a bool or a float is rejected."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Position3D:
    """Point in meters; z is height above ground."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ConfigError(f"height must be nonnegative, got z={self.z}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array in the xz-plane, spacing in wavelengths."""

    vertical_count: int
    horizontal_count: int
    element_spacing: float = 0.5

    def __post_init__(self) -> None:
        _require_ints(self, "vertical_count", "horizontal_count")
        if self.vertical_count < 1 or self.horizontal_count < 1:
            raise ConfigError("array counts must be positive")
        if self.element_spacing <= 0:
            raise ConfigError("element spacing must be positive")

    @property
    def size(self) -> int:
        return self.vertical_count * self.horizontal_count


@dataclass(frozen=True)
class RicianLinkParams:
    """Per-link fading statistics.

    angular_spread_deg bounds the uniform perturbation of each scattered
    path's departure/arrival angles around the direct-path angles.
    """

    path_loss_exponent: float
    rician_factor_db: float
    nlos_path_count: int
    angular_spread_deg: float = 10.0

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0:
            raise ConfigError("path_loss_exponent must be positive")
        _require_ints(self, "nlos_path_count")
        if self.nlos_path_count < 0:
            raise ConfigError("nlos_path_count must be nonnegative")
        if self.angular_spread_deg < 0:
            raise ConfigError("angular_spread_deg must be nonnegative")


@dataclass(frozen=True)
class ScenarioConfig:
    """Whole scenario; building one (also by ``replace``) raises ConfigError
    if any value is invalid, so every instance is valid."""

    bs1_array: ArrayGeometry = ArrayGeometry(4, 4)
    bs2_array: ArrayGeometry = ArrayGeometry(4, 4)
    ris_array: ArrayGeometry = ArrayGeometry(8, 16)
    bs1_pos: Position3D = Position3D(0.0, 0.0, 15.0)
    bs2_pos: Position3D = Position3D(80.0, 0.0, 15.0)
    ris_pos: Position3D = Position3D(40.0, 25.0, 10.0)
    cell1_center: tuple[float, float] = (45.0, 15.0)
    cell1_radius: float = 10.0
    cell2_center: tuple[float, float] = (75.0, 10.0)
    cell2_radius: float = 10.0
    user_height: float = 1.0
    users_per_cell: int = 4
    direct_link: RicianLinkParams = RicianLinkParams(4.2, 3.0, 8)
    ris_user_link: RicianLinkParams = RicianLinkParams(2.4, 5.0, 4)
    bs_ris_link: RicianLinkParams = RicianLinkParams(2.5, 5.0, 8)
    pathloss_ref_db: float = -30.0
    pathloss_ref_distance_m: float = 1.0
    p_t_dbm: float = 30.0
    noise_dbm: float = -104.0
    theta_rad: float = math.pi / 6
    lambda_db: float = 20.0
    num_drops: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _require_ints(self, "users_per_cell", "num_drops", "seed")
        if self.users_per_cell < 1:
            raise ConfigError("users_per_cell must be >= 1")
        if self.num_drops < 1:
            raise ConfigError("num_drops must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.cell1_radius <= 0 or self.cell2_radius <= 0:
            raise ConfigError("serving-area radii must be positive")
        if self.user_height < 0:
            raise ConfigError("user_height must be nonnegative")
        if self.pathloss_ref_distance_m <= 0:
            raise ConfigError("pathloss_ref_distance_m must be positive")
        if math.isnan(self.lambda_db) or self.lambda_db == math.inf:
            raise ConfigError("lambda_db must be finite or -inf")
        for f in fields(self):
            value = getattr(self, f.name)
            parts = astuple(value) if is_dataclass(value) else value
            if not isinstance(parts, tuple):
                parts = (parts,)
            bad = [v for v in parts if isinstance(v, float) and not math.isfinite(v)]
            if bad and f.name != "lambda_db":
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # (name, dB value, zero allowed): a weight or Rician factor may be
        # 0 in linear scale, a power or the path-loss reference may not
        in_db = [
            ("p_t_dbm", self.p_t_dbm, False),
            ("noise_dbm", self.noise_dbm, False),
            ("pathloss_ref_db", self.pathloss_ref_db, False),
            ("lambda_db", self.lambda_db, True),
        ] + [
            (f"{key} Rician factor", getattr(self, key).rician_factor_db, True)
            for key in ("direct_link", "ris_user_link", "bs_ris_link")
        ]
        for key, db, zero_ok in in_db:
            try:
                linear = 10.0 ** (db / 10.0)
            except OverflowError:
                linear = math.inf
            if linear == math.inf or (linear == 0.0 and not zero_ok):
                raise ConfigError(f"{key} = {db} is out of range in linear scale")

    @property
    def lambda_linear(self) -> float:
        return 10.0 ** (self.lambda_db / 10.0)

    @property
    def transmit_power_w(self) -> float:
        return 10.0 ** ((self.p_t_dbm - 30.0) / 10.0)

    @property
    def noise_var_w(self) -> float:
        return 10.0 ** ((self.noise_dbm - 30.0) / 10.0)


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from exc


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc


def _parse_numbers(text: str, key: str, form: str) -> list[float]:
    """Numbers of a comma list with as many entries as ``form`` (e.g. 'x,y,z')."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != form.count(",") + 1:
        raise ConfigError(f"{key}: expected {form!r}, got {text!r}")
    return [_parse_float(p, key) for p in parts]


def _parse_array(text: str, key: str) -> ArrayGeometry:
    body, at, spacing = text.partition("@")
    parts = body.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'VxH' or 'VxH@spacing', got {text!r}")
    v = _parse_int(parts[0].strip(), key)
    h = _parse_int(parts[1].strip(), key)
    s = _parse_float(spacing.strip(), key) if at else 0.5
    return ArrayGeometry(v, h, s)


def _parse_link(text: str, key: str) -> RicianLinkParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"{key}: expected 'exponent,rician_db,paths[,spread_deg]', got {text!r}"
        )
    spread = [_parse_float(p, key) for p in parts[3:]]
    return RicianLinkParams(
        _parse_float(parts[0], key), _parse_float(parts[1], key), _parse_int(parts[2], key),
        *spread,
    )


# one parser per declared field type; a key's syntax follows its field's type
_TYPE_PARSERS = {
    ArrayGeometry: _parse_array,
    Position3D: lambda text, key: Position3D(*_parse_numbers(text, key, "x,y,z")),
    tuple[float, float]: lambda text, key: tuple(_parse_numbers(text, key, "x,y")),
    RicianLinkParams: _parse_link,
    int: _parse_int,
    float: _parse_float,
}
_FIELD_PARSERS = {
    name: _TYPE_PARSERS[tp] for name, tp in get_type_hints(ScenarioConfig).items()
}


def parse_config_text(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from flat key=value text over the defaults."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        overrides[key] = _FIELD_PARSERS[key](value.strip(), key)
    return ScenarioConfig(**overrides)


def load_config(path: str) -> ScenarioConfig:
    """Read and parse a scenario config file; a leading byte-order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text)
