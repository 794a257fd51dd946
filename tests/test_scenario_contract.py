"""The scenario contract: a ScenarioConfig either raises ConfigError, or
run_single returns a completed or diverged run; no other exception and no
warning escapes. Checked with hypothesis over magnitudes up to 1e300, on
scenarios of at most 50 gyro ticks."""

import math
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from eqfcascade.config import INPUT_MODES, ConfigError, ScenarioConfig
from eqfcascade.harness import run_single
from eqfcascade.metrics import RunMetrics

MAX_TICKS = 50

AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
EXTREME = st.floats(1e-300, 1e300)
# each field's moderate values, and its values when drawn from 1e-300..1e300
FIELDS = {
    "gyro_rate_hz": (st.sampled_from([1.0, 10.0, 100.0, 1000.0]), EXTREME),
    "state_gain": (st.floats(1e-3, 10.0), EXTREME),
    "output_gain": (st.floats(1e-3, 10.0), EXTREME),
    "sigma0": (st.floats(1e-3, 10.0), EXTREME),
    "gyro_noise_std": (st.floats(0.0, 0.1), EXTREME),
    "direction_noise_std": (st.floats(0.0, 0.1), EXTREME),
    "omega_target_range_dps": (st.floats(0.0, 10.0), EXTREME),
    "chaser_rate_range_dps": (st.floats(0.0, 10.0), EXTREME),
    "gyro_bias_range_dps": (st.floats(0.0, 10.0), EXTREME),
    "attitude_init_max_deg": (st.none() | st.floats(0.0, 180.0), EXTREME),
    "ref_dir_1": (st.just(AXES[0]), st.tuples(*[st.floats(-1e300, 1e300)] * 3)),
    "ref_dir_2": (st.sampled_from(AXES[1:]), st.tuples(*[st.floats(-1e300, 1e300)] * 3)),
}


@st.composite
def scenarios(draw) -> dict:
    """ScenarioConfig fields, valid and invalid, of at most MAX_TICKS ticks:
    up to three fields take extreme values, the others moderate ones."""
    extreme = draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=3))
    fields = {name: draw(values[name in extreme]) for name, values in FIELDS.items()}
    for name in ("omega_target_range_dps", "chaser_rate_range_dps", "gyro_bias_range_dps"):
        fields[name] = (fields[name] * draw(st.floats(0.0, 1.0)), fields[name])
    gyro_rate = fields["gyro_rate_hz"]
    return fields | {
        "seed": draw(st.integers(0, 2**32)),
        "duration_s": draw(st.integers(1, MAX_TICKS)) / gyro_rate,
        "star_rate_hz": gyro_rate / draw(st.integers(1, MAX_TICKS + 5)),
        "feature_rate_hz": gyro_rate / draw(st.integers(1, MAX_TICKS + 5)),
        "update_iterations": draw(st.integers(1, 30)),
        "input_mode": draw(st.sampled_from(INPUT_MODES)),
    }


def _rejected_or_run(fields: dict) -> RunMetrics | None:
    """run_single's result, or None for a ConfigError; warnings raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = ScenarioConfig(**fields)
        except ConfigError:
            return None
        assert cfg.steps_per_run() <= MAX_TICKS
        return run_single(cfg)


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_a_scenario_is_rejected_or_runs(fields):
    m = _rejected_or_run(fields)
    event("rejected" if m is None else "diverged" if m.diverged else "completed")
    assert m is None or (isinstance(m, RunMetrics) and m.diverged in (True, False))


def test_rates_too_large_for_a_norm_complete_without_warning():
    # at 1e155 Hz half a turn per tick allows 1e156 deg/s, whose norm in
    # rad/s overflows when squared; the run completes all the same, its
    # relative errors undefined
    rate = 1e155
    fields = dict(
        gyro_rate_hz=rate,
        star_rate_hz=rate,
        feature_rate_hz=rate,
        duration_s=2 / rate,
        omega_target_range_dps=(1e156, 1e156),
        gyro_bias_range_dps=(1e157, 1e157),
    )
    m = _rejected_or_run(fields)
    assert m is not None and not m.diverged and math.isnan(m.omega_mean_rel_pct)
