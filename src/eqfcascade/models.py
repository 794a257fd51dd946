"""Ground-truth kinematics and noisy sensor models for the simulator.

The truth consists of two inertial attitudes (target and chaser), the two
constant angular velocities, a constant gyro bias and two reference
directions fixed in the target frame. Propagation is by exact exponential
flow, which is the closed-form solution for piecewise-constant rates, so
integration error never contaminates filter-accuracy numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .geom import MIN_DRAW_NORM, StageState, cross3, exp_so3, random_unit_vector, require_rotation

COLLINEAR_TOL = 1e-3

# the known directions of the star tracker, one per row: the inertial basis
STAR_DIRS = np.eye(3)
STAR_DIRS.flags.writeable = False


@dataclass(frozen=True)
class TruthWorld:
    """Simulation ground truth.

    att_target, att_chaser: body-to-inertial attitude matrices, or
        (n, 3, 3) stacks of them over a run's ticks (truth_trajectory).
    omega_target: target angular velocity, target frame, rad/s (constant).
    omega_chaser: chaser angular velocity, chaser frame, rad/s.
    gyro_bias: additive gyro bias, rad/s (constant).
    ref_dirs: (2, 3) array, two non-collinear unit rows fixed in the target frame.

    R runs' worlds may share one TruthWorld as lanes: attitudes (R, 3, 3),
    or (n, R, 3, 3) over the ticks, and rates (R, 3); ref_dirs is shared.
    """

    att_target: np.ndarray
    att_chaser: np.ndarray
    omega_target: np.ndarray
    omega_chaser: np.ndarray
    gyro_bias: np.ndarray
    ref_dirs: np.ndarray

    def __post_init__(self):
        require_rotation(self.att_target)
        require_rotation(self.att_chaser)
        d1, d2 = self.ref_dirs
        if np.linalg.norm(cross3(d1, d2)) <= COLLINEAR_TOL:
            raise ValueError("reference directions are (nearly) collinear")

    @classmethod
    def stack(cls, worlds: list["TruthWorld"]) -> "TruthWorld":
        """The worlds as the lanes of one; they share the first one's ref_dirs."""
        rows = [[getattr(w, f.name) for w in worlds] for f in fields(cls)[:-1]]
        return cls(*map(np.stack, rows), ref_dirs=worlds[0].ref_dirs)

    def lane(self, j: int) -> "TruthWorld":
        """Lane j of a lane-stacked world, as views. Its rows were checked
        with the stack's, so they are not checked again."""
        views = (
            self.att_target[..., j, :, :],
            self.att_chaser[..., j, :, :],
            self.omega_target[j],
            self.omega_chaser[j],
            self.gyro_bias[j],
            self.ref_dirs,
        )
        lane = object.__new__(TruthWorld)
        for f, view in zip(fields(self), views):
            object.__setattr__(lane, f.name, view)
        return lane


@dataclass(frozen=True)
class SensorConfig:
    """Sensor rates (Hz) and noise levels.

    direction_noise_std is the perturbation angle sigma (radians) shared by
    the star tracker and the feature measurements; gyro_noise_std is in
    rad/s. Built by ScenarioConfig.sensors(), which has checked the values:
    measurement rates divide the gyro rate evenly.
    """

    gyro_noise_std: float = 0.01
    direction_noise_std: float = 0.01
    gyro_rate: float = 100.0
    star_rate: float = 1.0
    feature_rate: float = 10.0


@dataclass(frozen=True)
class MeasurementBundle:
    """Sensor output for one gyro tick; star (3, 3) / features (2, 3), one direction per row, are None off-schedule."""

    t: float
    gyro: np.ndarray
    star: np.ndarray | None = None
    features: np.ndarray | None = None


def propagate_truth(world: TruthWorld, dt: float) -> TruthWorld:
    """Advance both attitudes by dt under the constant body rates."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return TruthWorld(
        att_target=world.att_target @ exp_so3(world.omega_target * dt),
        att_chaser=world.att_chaser @ exp_so3(world.omega_chaser * dt),
        omega_target=world.omega_target,
        omega_chaser=world.omega_chaser,
        gyro_bias=world.gyro_bias,
        ref_dirs=world.ref_dirs,
    )


def truth_trajectory(world: TruthWorld, dt: float, n_steps: int) -> TruthWorld:
    """The world at t = k dt for k = 0..n_steps, as one TruthWorld whose
    attitudes are (n_steps + 1, 3, 3) stacks; (n_steps + 1, R, 3, 3) for a
    world of R lanes, each lane the one-lane result bit for bit.

    Row k equals k iterations of propagate_truth bit for bit: each attitude
    is right-multiplied by the same exp_so3(omega dt) every tick, computed
    once here; both attitudes of every lane advance in one stacked product
    per tick. Every row is checked with require_rotation's tolerance.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = np.empty((n_steps + 1, *world.att_chaser.shape[:-2], 2, 3, 3))
    out[0] = np.stack((world.att_target, world.att_chaser), axis=-3)
    step = exp_so3(np.stack((world.omega_target, world.omega_chaser), axis=-2) * dt)
    for k in range(n_steps):
        np.matmul(out[k], step, out=out[k + 1])
    return replace(world, att_target=out[..., 0, :, :], att_chaser=out[..., 1, :, :])


def relative_state(world: TruthWorld) -> StageState:
    """Chaser-to-target relative attitude and the target rate in the chaser
    frame; stacked when the world's attitudes are."""
    rel = world.att_target.mT @ world.att_chaser
    return StageState(rel, np.matvec(rel.mT, world.omega_target))


def measure_gyro(world: TruthWorld, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Biased, noisy chaser angular velocity."""
    noise = noise_std * rng.normal(size=3) if noise_std > 0 else np.zeros(3)
    return world.omega_chaser + world.gyro_bias + noise


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle, out=None) -> np.ndarray:
    """Rotate v about the unit vector axis by angle (rad); row by row for
    stacks (..., 3) of vectors and axes with (...) angles."""
    return np.matvec(exp_so3(np.expand_dims(angle, -1) * axis), v, out=out)


def perturb_direction(v: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate the unit vector v about a uniformly random axis by an angle ~ N(0, sigma^2)."""
    if sigma <= 0:
        return np.array(v, dtype=float)
    axis = random_unit_vector(rng)
    return _rotate_about(v, axis, sigma * rng.normal())


def observed_directions(rot: np.ndarray, dirs: np.ndarray, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """The known directions, the rows of dirs, seen in the body frame of attitude
    rot: the (k, 3) rows d_i^T rot = (rot^T d_i)^T, each independently perturbed in row order."""
    return np.array([perturb_direction(y, noise_std, rng) for y in dirs @ rot])


def measure_star_tracker(world: TruthWorld, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Star-tracker directions for the world's chaser attitude, (3, 3)."""
    return observed_directions(world.att_chaser, STAR_DIRS, noise_std, rng)


def measure_features(world: TruthWorld, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Feature directions for the world's relative attitude, (2, 3)."""
    return observed_directions(relative_state(world).rot, world.ref_dirs, noise_std, rng)


@dataclass(frozen=True)
class SensorStreams:
    """A run's measurements: gyro (n, 3), one row per tick 1..n; star
    (n_star, 3, 3) and features (n_feat, 2, 3), one set of directions per
    scheduled tick, in tick order."""

    gyro: np.ndarray
    star: np.ndarray
    features: np.ndarray


def noiseless_streams(truth: TruthWorld, rel_rot: np.ndarray, star_every: int, feature_every: int) -> SensorStreams:
    """Every measurement of ticks 1..n without noise, from the truth stacks
    over ticks 0..n (truth_trajectory, and rel_rot = relative_state(truth).rot):
    the true chaser rate plus the bias on every tick, and the known
    directions in the body frame on each sensor's ticks. The star tracker
    reads every star_every-th tick, the features every feature_every-th.
    With add_sensor_noise's noise, row for row the streams equal the
    per-tick calls of measure_gyro, measure_star_tracker and
    measure_features on an identically seeded generator, bit for bit."""
    gyro = np.empty((len(truth.att_chaser) - 1, 3))
    gyro[:] = truth.omega_chaser + truth.gyro_bias
    return SensorStreams(
        gyro,
        STAR_DIRS @ truth.att_chaser[star_every::star_every],
        truth.ref_dirs @ rel_rot[feature_every::feature_every],
    )


def add_sensor_noise(
    streams: SensorStreams, sensors: SensorConfig, star_every: int, feature_every: int, rng: np.random.Generator
) -> SensorStreams:
    """The streams, noiseless on entry, with the sensors' noise added in place.

    The normals come from rng as one block, in the order in which
    measure_gyro, measure_star_tracker and measure_features draw them tick
    by tick: the gyro's 3, then 3 axis normals and 1 angle normal per star
    direction, then the same per feature direction; a sensor whose noise
    level is 0 draws nothing.
    """
    gyro, dirs = streams.gyro, [streams.star, streams.features]
    n, sigma = len(gyro), sensors.direction_noise_std
    # a row of slots per tick: the gyro's 3, then 4 per direction of each
    # direction sensor on its ticks; the block fills the used slots row by row
    g = 3 if sensors.gyro_noise_std > 0 else 0
    spans, start = [], g  # each direction sensor's (buffer rows, slot columns)
    for every, y in zip((star_every, feature_every), dirs):
        width = 4 * y.shape[-2] if sigma > 0 else 0
        spans.append((slice(every - 1, None, every), slice(start, start + width)))
        start += width
    mask = np.zeros((n, start), dtype=bool)
    mask[:, :g] = True
    for span in spans:
        mask[span] = True
    block = rng.normal(size=np.count_nonzero(mask))
    buf = np.zeros(mask.shape)
    while True:
        buf[mask] = block
        draws = [buf[span].reshape(y.shape[:-1] + (4,)) for span, y in zip(spans, dirs)] if sigma > 0 else []
        norms = [np.sqrt(np.vecdot(d[..., :3], d[..., :3])) for d in draws]
        if all(np.all(norm > MIN_DRAW_NORM) for norm in norms):
            break
        # random_unit_vector drops the first rejected axis draw and takes
        # the next 3 normals: the stream without it, 3 more at the end
        rejected = np.zeros(mask.shape, dtype=bool)
        for (rows, cols), norm in zip(spans, norms):
            rejected[rows, cols.start : cols.stop : 4] = norm <= MIN_DRAW_NORM
        at = np.count_nonzero(mask.ravel()[: np.argmax(rejected)])
        block = np.concatenate((np.delete(block, np.s_[at : at + 3]), rng.normal(size=3)))
    del block, mask
    noise = sensors.gyro_noise_std * buf[:, :3] if g else np.zeros((n, 3))
    np.add(gyro, noise, out=gyro)
    for y, d, norm in zip(dirs, draws, norms):
        _rotate_about(y, d[..., :3] / norm[..., None], sigma * d[..., 3], out=y)
    return streams
