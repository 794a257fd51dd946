"""Ground-truth kinematics and noisy sensor models for the simulator.

The truth consists of two inertial attitudes (target and chaser), the two
constant angular velocities, a constant gyro bias and two reference
directions fixed in the target frame. Propagation is by exact exponential
flow, which is the closed-form solution for piecewise-constant rates, so
integration error never contaminates filter-accuracy numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geom import MIN_DRAW_NORM, StageState, cross3, exp_so3, random_unit_vector, require_rotation

COLLINEAR_TOL = 1e-3

# the known directions of the star tracker, one per row: the inertial basis
STAR_DIRS = np.eye(3)
STAR_DIRS.flags.writeable = False


@dataclass(frozen=True)
class TruthWorld:
    """Simulation ground truth: a run's initial conditions.

    att_target, att_chaser: body-to-inertial attitude matrices at t = 0.
    omega_target: target angular velocity, target frame, rad/s (constant).
    omega_chaser: chaser angular velocity, chaser frame, rad/s.
    gyro_bias: additive gyro bias, rad/s (constant).
    ref_dirs: (2, 3) array, two non-collinear unit rows fixed in the target frame.

    R runs' worlds may share one TruthWorld as lanes: attitudes (R, 3, 3)
    and rates (R, 3); ref_dirs is shared.
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


def truth_trajectory(world: TruthWorld, dt: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The attitudes of the two stages' truths at t = k dt for k = 0..n_steps:
    the chaser's (stage 1), and the chaser-to-target relative one of
    relative_state (stage 2), as (n_steps + 1, 3, 3) stacks; lane-major
    (R, n_steps + 1, 3, 3) ones for a world of R lanes, like the streams,
    each lane the one-lane result bit for bit. stage_truths adds their
    vector parts.

    Row k equals k iterations of propagate_truth bit for bit: each attitude
    is right-multiplied by the same exp_so3(omega dt) every tick, computed
    once here; both attitudes of every lane advance in one stacked product
    per tick, into a tick-major buffer, so that each product writes whole
    rows; the stacks are lane-major views of it. The world's attitudes were
    checked, and the rows derived from them are not checked again: products
    of rotations stay rotations to rounding (test_models).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = np.empty((n_steps + 1, *world.att_chaser.shape[:-2], 2, 3, 3))
    out[0] = np.stack((world.att_target, world.att_chaser), axis=-3)
    step = exp_so3(np.stack((world.omega_target, world.omega_chaser), axis=-2) * dt)
    for k in range(n_steps):
        np.matmul(out[k], step, out=out[k + 1])
    # the relative attitude over the target's rows, which nothing reads
    # again; a lane at a time, so that the temporary is one lane's
    for lane in out.reshape(n_steps + 1, -1, 2, 3, 3).swapaxes(0, 1):
        lane[:, 0] = lane[:, 0].mT @ lane[:, 1]
    return np.moveaxis(out[..., 1, :, :], 0, -3), np.moveaxis(out[..., 0, :, :], 0, -3)


def stage_truths(
    chaser: np.ndarray, rel: np.ndarray, gyro_bias: np.ndarray, omega_target: np.ndarray
) -> tuple[StageState, StageState]:
    """The two stages' true states at the ticks of the attitude stacks
    chaser and rel (truth_trajectory's, or a lane of them with that lane's
    gyro_bias and omega_target): the chaser attitude with the constant gyro
    bias, as a per-tick view, and the relative attitude with the target rate
    in the chaser frame."""
    bias = np.broadcast_to(gyro_bias, chaser.shape[:-1])
    return StageState(chaser, bias), StageState(rel, np.matvec(rel.mT, omega_target))


def relative_state(world: TruthWorld) -> StageState:
    """Chaser-to-target relative attitude and the target rate in the chaser
    frame; stacked when the world's attitudes are."""
    rel = world.att_target.mT @ world.att_chaser
    return stage_truths(world.att_chaser, rel, world.gyro_bias, world.omega_target)[1]


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


def noiseless_streams(world: TruthWorld, chaser: np.ndarray, rel: np.ndarray, star_every: int, feature_every: int) -> SensorStreams:
    """Every measurement of ticks 1..n without noise, from the world and its
    stage-truth attitudes over ticks 0..n (truth_trajectory's (n + 1, 3, 3)
    stacks): the true chaser rate plus the bias on every tick, and the known
    directions in the body frame on each sensor's ticks, every star_every-th
    tick for the star tracker and every feature_every-th for the features.
    A world of R lanes, with (R, n + 1, 3, 3) attitudes, gives (R, ...)
    streams, each lane the one-lane result bit for bit. With
    add_sensor_noise's noise, a run's streams equal the per-tick calls of
    measure_gyro, measure_star_tracker and measure_features on an
    identically seeded generator, row for row and bit for bit."""
    n = chaser.shape[-3] - 1
    star = STAR_DIRS @ chaser[..., star_every::star_every, :, :]
    features = world.ref_dirs @ rel[..., feature_every::feature_every, :, :]
    return SensorStreams(np.repeat(np.expand_dims(world.omega_chaser + world.gyro_bias, -2), n, axis=-2), star, features)


def add_sensor_noise(
    streams: SensorStreams, gyro_noise_std: float, direction_noise_std: float, star_every: int, feature_every: int,
    rng: np.random.Generator,
) -> SensorStreams:
    """One run's streams, noiseless on entry, with the noise of the two
    levels added in place: gyro_noise_std (rad/s) on the gyro, and the
    perturbation angle sigma direction_noise_std (rad) on every direction.

    The normals come from rng as one block, in the order in which
    measure_gyro, measure_star_tracker and measure_features draw them tick
    by tick: the gyro's 3, then 3 axis normals and 1 angle normal per star
    direction, then the same per feature direction; a sensor whose noise
    level is 0 draws nothing.
    """
    gyro, dirs = streams.gyro, [streams.star, streams.features]
    n, sigma = len(gyro), direction_noise_std
    # a row of slots per tick: the gyro's 3, then 4 per direction of each
    # direction sensor on its ticks; the block fills the used slots row by row
    g = 3 if gyro_noise_std > 0 else 0
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
    noise = gyro_noise_std * buf[:, :3] if g else np.zeros((n, 3))
    np.add(gyro, noise, out=gyro)
    for y, d, norm in zip(dirs, draws, norms):
        _rotate_about(y, d[..., :3] / norm[..., None], sigma * d[..., 3], out=y)
    return streams
