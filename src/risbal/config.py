"""Scenario configuration: geometry, arrays, link statistics, sweep defaults.

Defaults follow the reference operating point: two 4x4 base stations, an
8x16 reflecting surface, 4 users per cell, 30 dBm transmit power, -104 dBm
noise, pi/6 inter-band phase offset and a 20 dB balancing weight.

Every config class checks itself when built, also by ``replace``: each value
must have its field's annotated type (Python or numpy numbers, a float finite
but lambda_db may be -inf, never a bool) and range, or ConfigError is raised;
a number is kept as its field's Python type.

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

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError

# each config class's field types, read once: the checker and the parser use it
_field_types = functools.cache(get_type_hints)
_KINDS = {int: "an integer", float: "a finite number", tuple[float, float]: "two finite numbers"}


def _fits(value: object, tp: object, minus_inf_ok: bool = False) -> bool:
    """Whether value has the declared type tp (see the module docstring)."""
    if tp is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if tp is float:  # finite as a float: an int too large for one is not
        if isinstance(value, numbers.Integral):
            return not isinstance(value, bool) and abs(value) <= sys.float_info.max
        return isinstance(value, numbers.Real) and (math.isfinite(value)
                                                    or minus_inf_ok and value == -math.inf)
    if get_origin(tp) is tuple:
        args = get_args(tp)
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    return isinstance(value, tp)  # a nested config, which checked itself when built


def _db_to_linear(db: float) -> float:
    """10^(db/10), or inf where that overflows: the one conversion of a dB setting."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _check_types(obj: object, *minus_inf_ok: str) -> None:
    """Raise ConfigError unless each field has its declared type; minus_inf_ok may be -inf.
    Each number is then stored as its field's Python type, so a numpy float32
    setting computes in double precision like the same Python float."""
    for name, tp in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if not _fits(value, tp, name in minus_inf_ok):
            kind = _KINDS.get(tp, f"of type {tp.__name__}")
            kind += " or -inf" if name in minus_inf_ok else ""
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if tp in (int, float):
            object.__setattr__(obj, name, tp(value))
        elif get_origin(tp) is tuple:
            object.__setattr__(obj, name, tuple(t(v) for t, v in zip(get_args(tp), value)))


@dataclass(frozen=True)
class Position3D:
    """Point in meters; z is height above ground."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _check_types(self)
        if self.z < 0:
            raise ConfigError(f"height must be nonnegative, got z={self.z}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array in the xz-plane, spacing in wavelengths."""

    vertical_count: int
    horizontal_count: int
    element_spacing: float = 0.5

    def __post_init__(self) -> None:
        _check_types(self)
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
        _check_types(self)
        if self.path_loss_exponent <= 0:
            raise ConfigError("path_loss_exponent must be positive")
        if self.nlos_path_count < 0:
            raise ConfigError("nlos_path_count must be nonnegative")
        if self.angular_spread_deg < 0:
            raise ConfigError("angular_spread_deg must be nonnegative")
        if _db_to_linear(self.rician_factor_db) == math.inf:
            raise ConfigError(
                f"rician_factor_db = {self.rician_factor_db} is out of range in linear scale")


@dataclass(frozen=True)
class ScenarioConfig:
    """Whole scenario; building one (also by ``replace``) checks every value's
    type and range, nested configs included, so every instance is valid."""

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
        """Raise ConfigError unless every value has its field's type and range."""
        _check_types(self, "lambda_db")
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
        linear = {"p_t_dbm": self.transmit_power_w, "noise_dbm": self.noise_var_w,
                  "pathloss_ref_db": _db_to_linear(self.pathloss_ref_db),
                  "lambda_db": self.lambda_linear}
        for key, value in linear.items():
            if value == math.inf or (value == 0.0 and key != "lambda_db"):
                raise ConfigError(f"{key} = {getattr(self, key)} is out of range in linear scale")

    @property
    def lambda_linear(self) -> float:
        return _db_to_linear(self.lambda_db)

    @property
    def transmit_power_w(self) -> float:
        return _db_to_linear(self.p_t_dbm - 30.0)

    @property
    def noise_var_w(self) -> float:
        return _db_to_linear(self.noise_dbm - 30.0)


def _parse_number(text: str, kind: type = float) -> float:
    """One number of a config value; kind is float or int."""
    try:
        return kind(text.strip())
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"expected {noun}, got {text.strip()!r}") from exc


def _parse_numbers(text: str, form: str) -> list[float]:
    """Numbers of a comma list with as many entries as ``form`` (e.g. 'x,y,z')."""
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise ConfigError(f"expected {form!r}, got {text!r}")
    return [_parse_number(p) for p in parts]


def _parse_array(text: str) -> ArrayGeometry:
    body, at, spacing = text.partition("@")
    parts = body.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"expected 'VxH' or 'VxH@spacing', got {text!r}")
    v, h = (_parse_number(p, int) for p in parts)
    return ArrayGeometry(v, h, _parse_number(spacing) if at else 0.5)


def _parse_link(text: str) -> RicianLinkParams:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ConfigError(f"expected 'exponent,rician_db,paths[,spread_deg]', got {text!r}")
    exponent, rician_db, paths, *spread = parts
    return RicianLinkParams(_parse_number(exponent), _parse_number(rician_db),
                            _parse_number(paths, int), *map(_parse_number, spread))


# one parser per declared field type; a key's syntax follows its field's type
_TYPE_PARSERS = {
    ArrayGeometry: _parse_array,
    Position3D: lambda text: Position3D(*_parse_numbers(text, "x,y,z")),
    tuple[float, float]: lambda text: tuple(_parse_numbers(text, "x,y")),
    RicianLinkParams: _parse_link,
    int: functools.partial(_parse_number, kind=int),
    float: _parse_number,
}


def parse_config_text(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from flat key=value text over the defaults."""
    types, overrides = _field_types(ScenarioConfig), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        try:
            overrides[key] = _TYPE_PARSERS[types[key]](value.strip())
        except ConfigError as exc:  # the parsers and nested configs do not name the key
            raise ConfigError(f"{key}: {exc}") from exc
    return ScenarioConfig(**overrides)


def load_config(path: str) -> ScenarioConfig:
    """Read and parse a scenario config file; a leading byte-order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text)
