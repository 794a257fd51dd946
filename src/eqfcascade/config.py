"""Scenario configuration and its flat key-value file format.

The file format is one `key = value` pair per line with `#` comments.
Pairs of numbers (ranges) and 3-vectors are whitespace separated. Every
field has a default, so an empty file is a valid configuration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .filter_base import FilterGains
from .geom import cross3
from .models import COLLINEAR_TOL, SensorConfig

INPUT_MODES = ("unbiased_cascade", "biased_passthrough")
_POSITIVE = (
    "duration_s", "gyro_rate_hz", "star_rate_hz", "feature_rate_hz",
    "update_iterations", "state_gain", "output_gain", "sigma0",
)
_NON_NEGATIVE = ("seed", "gyro_noise_std", "direction_noise_std", "attitude_init_max_deg")


class ConfigError(ValueError):
    """Malformed configuration file or inconsistent field values."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run needs besides the per-run RNG stream.

    Angles are degrees in the `_deg`/`_dps` fields and radians elsewhere;
    rates are Hz. `attitude_init_max_deg` bounds the initial chaser and
    relative attitudes away from identity for convergence studies; when
    None both attitudes are uniformly random on SO(3).

    Gains: `output_gain` sets N for both stages and `state_gain` sets
    stage 2's process gain M. Stage 1's M follows from the gyro and star
    noise levels and rates (see `stage1_gains`); `state_gain` sets it only
    when either noise level is zero.
    """

    seed: int = 0
    duration_s: float = 15.0
    gyro_rate_hz: float = 100.0
    star_rate_hz: float = 1.0
    feature_rate_hz: float = 10.0
    update_iterations: int = 20
    state_gain: float = 1.0
    output_gain: float = 0.1
    sigma0: float = 1.0
    gyro_noise_std: float = 0.01
    direction_noise_std: float = 0.01
    omega_target_range_dps: tuple[float, float] = (0.5, 3.0)
    chaser_rate_range_dps: tuple[float, float] = (0.5, 3.0)
    gyro_bias_range_dps: tuple[float, float] = (0.5, 2.0)
    attitude_init_max_deg: float | None = None
    input_mode: str = "unbiased_cascade"
    ref_dir_1: tuple[float, float, float] = (1.0, 0.0, 0.0)
    ref_dir_2: tuple[float, float, float] = (0.0, 1.0, 0.0)

    def __post_init__(self):
        for name, hint in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _holds(hint, value):
                raise ConfigError(f"{name} must be {_KIND_WORDS.get(hint, 'a number')}")
            if hint not in (int, str) and value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite")
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in _NON_NEGATIVE:
            if (getattr(self, name) or 0) < 0:
                raise ConfigError(f"{name} must be non-negative")
        ticks = self.duration_s * self.gyro_rate_hz
        if not math.isfinite(ticks):
            raise ConfigError("duration_s * gyro_rate_hz (the tick count) must be finite")
        if self.steps_per_run() < 1:
            raise ConfigError("duration_s must cover at least one gyro tick (1 / gyro_rate_hz)")
        if abs(ticks - round(ticks)) > 1e-9:
            raise ConfigError("duration_s must be a whole number of gyro ticks (1 / gyro_rate_hz)")
        if self.input_mode not in INPUT_MODES:
            raise ConfigError(f"input_mode must be one of {INPUT_MODES}")
        for name in ("star_rate_hz", "feature_rate_hz"):
            ratio = self.gyro_rate_hz / getattr(self, name)
            if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"{name} must divide gyro_rate_hz evenly")
        if (self.attitude_init_max_deg or 0) > 180:
            raise ConfigError("attitude_init_max_deg must be at most 180, the largest rotation angle")
        # at most half a turn per gyro tick: a faster rate aliases, and past ~1e154 rad a tick's rotation overflows
        for name in ("omega_target_range_dps", "chaser_rate_range_dps", "gyro_bias_range_dps"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi <= 180 * self.gyro_rate_hz:
                raise ConfigError(f"{name} must satisfy 0 <= lo <= hi <= 180 * gyro_rate_hz (half a turn per tick)")
        for name in ("ref_dir_1", "ref_dir_2"):
            with np.errstate(over="ignore"):  # an overflowing length is rejected, not warned about
                length = np.linalg.norm(getattr(self, name))
            if not 0 < length < math.inf:
                raise ConfigError(f"{name} must be non-zero with a finite length")
        # TruthWorld's rule, on the unit directions
        if np.linalg.norm(cross3(*self.ref_dirs())) <= COLLINEAR_TOL:
            raise ConfigError("reference directions are (nearly) collinear")
        if not 0 < self._stage1_m_scale() < math.inf:
            raise ConfigError(
                "gyro_noise_std and direction_noise_std (with output_gain and the gyro and star rates) "
                "must give stage 1 a finite, positive process gain M"
            )

    def sensors(self) -> SensorConfig:
        return SensorConfig(
            gyro_noise_std=self.gyro_noise_std,
            direction_noise_std=self.direction_noise_std,
            gyro_rate=self.gyro_rate_hz,
            star_rate=self.star_rate_hz,
            feature_rate=self.feature_rate_hz,
        )

    def stage1_gains(self) -> FilterGains:
        """Stage-1 gains with the process gain M set from the sensor noise model.

        N = output_gain * I stays a design gain. Each update integrates the
        correction over the star interval in sub-steps tau with an explicit
        state step, which needs roughly Sigma * tau / N < 1; at Sigma0 = I
        and tau = 0.05 s an N equal to the star-fix noise (about 3e-5)
        diverges. M is stated in N's units instead, as the ratio of the two
        noise densities the filter weighs against each other:

            M = output_gain * (sigma_g^2 / f_gyro) / (sigma_d^2 / 3 / f_star) * I

        sigma_g^2 / f_gyro is the gyro noise density. sigma_d^2 / 3 is the
        variance of each tangent component of a star direction rotated by
        an angle ~ N(0, sigma_d^2) about a uniformly random axis, held over
        the 1 / f_star star interval. The truth bias is constant, so the
        bias block has no noise-model value of its own; it takes the
        attitude block's value, which still lets the bias converge within
        the metric window.

        With either noise level at zero the ratio is undefined, and M falls
        back to state_gain * I.
        """
        return FilterGains.identity_scaled(
            9, self._stage1_m_scale(), self.output_gain, self.sigma0, self.update_iterations
        )

    def _stage1_m_scale(self) -> float:
        """The factor of I in stage 1's M (see stage1_gains); inf or NaN when
        a density overflows or the star density underflows, 0 when the
        gyro density or the ratio underflows."""
        if self.gyro_noise_std == 0 or self.direction_noise_std == 0:
            return self.state_gain
        # products, not powers: a float power raises OverflowError
        gyro_density = self.gyro_noise_std * self.gyro_noise_std / self.gyro_rate_hz
        star_density = self.direction_noise_std * self.direction_noise_std / 3.0 / self.star_rate_hz
        if star_density == 0:
            return math.inf
        return self.output_gain * gyro_density / star_density

    def stage2_gains(self) -> FilterGains:
        return FilterGains.identity_scaled(
            6, self.state_gain, self.output_gain, self.sigma0, self.update_iterations
        )

    def ref_dirs(self) -> np.ndarray:
        """The two reference directions as the unit rows of a (2, 3) array."""
        dirs = np.array([self.ref_dir_1, self.ref_dir_2], dtype=float)
        return np.array([d / np.linalg.norm(d) for d in dirs])

    def steps_per_run(self) -> int:
        return round(self.duration_s * self.gyro_rate_hz)

    def star_every(self) -> int:
        return round(self.gyro_rate_hz / self.star_rate_hz)

    def feature_every(self) -> int:
        return round(self.gyro_rate_hz / self.feature_rate_hz)


_FIELD_TYPES = get_type_hints(ScenarioConfig)
_COUNT_WORDS = {2: "two numbers", 3: "three numbers"}
_KIND_WORDS = {int: "an integer", str: "a string"} | {
    hint: f"a tuple of {_COUNT_WORDS[len(get_args(hint))]}" for hint in _FIELD_TYPES.values() if get_origin(hint) is tuple
}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _holds(hint, value) -> bool:
    """Whether value is of the field type hint, as write_config can write it and read_config read it
    back: a bool is no number, an int field takes integers (numpy's too) and a tuple field tuples."""
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if hint is str:
        return isinstance(value, str)
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and len(value) == len(get_args(hint)) and all(map(_is_number, value))
    return _is_number(value) or (value is None and hint == float | None)


def _parse_value(key: str, raw: str, line_no: int):
    def fail(expected: str):
        raise ConfigError(f"line {line_no}: field '{key}' expects {expected}, got '{raw}'")

    hint = _FIELD_TYPES[key]
    if hint is str:
        return raw
    if hint == float | None and raw.lower() in ("none", ""):
        return None
    parts = raw.split()
    if get_origin(hint) is tuple and len(parts) != len(get_args(hint)):
        fail(_COUNT_WORDS[len(get_args(hint))])
    try:
        if hint is int:
            return int(raw)
        if get_origin(hint) is tuple:
            return tuple(float(p) for p in parts)
        return float(raw)
    except ValueError:
        fail("a number")


def read_config(path) -> ScenarioConfig:
    """Parse a flat key-value configuration file; unset fields keep defaults."""
    values = {}
    known = {f.name for f in fields(ScenarioConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {line_no}: expected 'key = value', got '{stripped}'")
            key, raw = (s.strip() for s in stripped.split("=", 1))
            if key not in known:
                raise ConfigError(f"line {line_no}: unknown field '{key}'")
            if key in values:
                raise ConfigError(f"line {line_no}: field '{key}' is set again")
            values[key] = _parse_value(key, raw, line_no)
    return ScenarioConfig(**values)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, (str, numbers.Integral)):
        return str(value)
    return repr(float(value))  # numpy's floats too, whose repr names their type


def write_config(cfg: ScenarioConfig, path) -> None:
    """Write every field so that read_config round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# scenario configuration\n")
        for f in fields(ScenarioConfig):
            fh.write(f"{f.name} = {_format_value(getattr(cfg, f.name))}\n")


def apply_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Replace fields given as non-None keyword values."""
    actual = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **actual) if actual else cfg
