"""Scenario configuration: geometry, arrays, link statistics, sweep defaults.

Defaults follow the reference operating point: two 4x4 base stations, an
8x16 reflecting surface, 4 users per cell, 30 dBm transmit power, -104 dBm
noise, pi/6 inter-band phase offset and a 20 dB balancing weight.

Config files are flat UTF-8 ``key = value`` text; keys match ScenarioConfig
field names and unknown keys are rejected. Composite values:

    bs1_array     = 4x4           vertical x horizontal [@spacing]
    bs1_pos       = 0,0,15        x,y,z meters
    cell1_center  = 45,15         x,y meters
    direct_link   = 4.2,3,8       exponent, rician dB, nlos paths [,spread deg]
    lambda_db     = 20            -inf selects a zero balancing weight
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, is_dataclass

from .errors import ConfigError


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


def _parse_array(text: str, key: str) -> ArrayGeometry:
    body, _, spacing = text.partition("@")
    parts = body.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'VxH' or 'VxH@spacing', got {text!r}")
    v = _parse_int(parts[0].strip(), key)
    h = _parse_int(parts[1].strip(), key)
    s = _parse_float(spacing.strip(), key) if spacing else 0.5
    return ArrayGeometry(v, h, s)


def _parse_pos(text: str, key: str) -> Position3D:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected 'x,y,z', got {text!r}")
    return Position3D(*(_parse_float(p, key) for p in parts))


def _parse_xy(text: str, key: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'x,y', got {text!r}")
    return (_parse_float(parts[0], key), _parse_float(parts[1], key))


def _parse_link(text: str, key: str) -> RicianLinkParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"{key}: expected 'exponent,rician_db,paths[,spread_deg]', got {text!r}"
        )
    kwargs = {}
    if len(parts) == 4:
        kwargs["angular_spread_deg"] = _parse_float(parts[3], key)
    return RicianLinkParams(
        _parse_float(parts[0], key),
        _parse_float(parts[1], key),
        _parse_int(parts[2], key),
        **kwargs,
    )


_PARSERS = {
    "bs1_array": _parse_array,
    "bs2_array": _parse_array,
    "ris_array": _parse_array,
    "bs1_pos": _parse_pos,
    "bs2_pos": _parse_pos,
    "ris_pos": _parse_pos,
    "cell1_center": _parse_xy,
    "cell2_center": _parse_xy,
    "direct_link": _parse_link,
    "ris_user_link": _parse_link,
    "bs_ris_link": _parse_link,
    "users_per_cell": _parse_int,
    "num_drops": _parse_int,
    "seed": _parse_int,
}


def parse_config_text(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from flat key=value text over the defaults."""
    known = {f.name for f in fields(ScenarioConfig)}
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = _PARSERS.get(key)
        overrides[key] = parser(value, key) if parser else _parse_float(value, key)
    return ScenarioConfig(**overrides)


def load_config(path: str) -> ScenarioConfig:
    """Read and parse a scenario config file; a leading byte-order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text)
