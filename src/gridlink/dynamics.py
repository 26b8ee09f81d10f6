"""Controlled nonlinear swing dynamics and fixed-step time integration.

Per machine: m * dw/dt = P_m(delta) - d*(w - w_s) - P_e(delta), with the
communication-link control entering mechanical power as phase-difference
feedback.  SwingOperator evaluates the whole right-hand side on the stacked
state x = [delta, omega] as dx/dt = H z: one matrix-vector product with a
vector z that holds x, the electrical power terms w * (W w) with
w = [cos delta, sin delta], and a constant 1, whose column of H holds the
constant drive.  Integration is classical fixed-step RK4, bitwise
deterministic for fixed inputs, in one loop: integrate yields the stacked
rows a block at a time from one reused buffer, and simulate copies them
into one Trajectory.  DecayFit.feed passes the blocks on once it has
folded their deviation norms, at their grid_times, into a few running sums.
The CLI's simulate and validate stream integrate's blocks through it, and
decay_rate a stored trajectory's rows, so no subcommand keeps an array that
grows with the rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from gridlink.case import InputError
from gridlink.model import SystemModel
from gridlink.reduction import OperatingPoint, ReducedNetwork

Link = tuple[int, int]
Blocks = Iterator[tuple[slice, np.ndarray]]  # integrate's (rows, block) pairs

# Cap on the RK4 steps of one run.  Only the library's simulate stores the whole (steps + 1) x 2n array; every
# subcommand streams integrate's blocks through DecayFit.feed and keeps no array that grows with the rows.
MAX_STEPS = 10**6
# Trajectory rows per block: integrate checks its rows for a blow-up and yields them a block at a time, both
# trajectory documents render each block's rows as it comes, and DecayFit.feed fits a block at a time.
ROWS_PER_BLOCK = 1024


class SimulationBlowUp(RuntimeError):
    """Trajectory left the finite range; carries the failure time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time:.6f} s")
        self.time = time


def normalize_link(link: Link) -> Link:
    i, k = int(link[0]), int(link[1])
    if i == k:
        raise InputError(f"self-link {link}")
    return (i, k) if i < k else (k, i)


@dataclass(frozen=True)
class MachineState:
    delta: np.ndarray  # rotor angles, rad
    omega: np.ndarray  # rotor speeds, rad/s


@dataclass(frozen=True)
class ControlConfig:
    """Communication links with one common feedback gain, acting about the operating point.

    The links are stored normalized (i < k) and sorted; a self-link or a pair
    given twice, in either orientation, raises InputError (a ValueError), and
    link_laplacian checks the endpoints against n.  The gain is pu power per
    radian, negative for stabilizing feedback.  The control adds
    L_h (delta - model.op.delta_s) to the mechanical power, L_h being the
    gain-weighted link Laplacian (see link_laplacian), so it vanishes at the
    operating point and (delta_s, omega_s) stays a fixed point for every link
    set and gain.
    """

    links: tuple[Link, ...] = ()
    gain: float = 0.0

    def __post_init__(self):
        links = tuple(sorted(normalize_link(l) for l in self.links))
        if len(set(links)) != len(links):
            raise InputError("duplicate links")
        object.__setattr__(self, "links", links)


@dataclass(frozen=True)
class DisturbanceSpec:
    """One event on one machine at t_apply: simulate adds the angle and speed offsets to its state
    and the mechanical power step to its drive from then on."""

    target: int  # generator index, 0-based
    d_delta: float = 0.0  # rad
    d_omega: float = 0.0  # rad/s
    d_pm: float = 0.0  # pu power
    t_apply: float = 0.0  # s

    def apply_index(self, dt: float, steps: int) -> int:
        """The disturbance-time rule: the row of the first grid time >= t_apply, InputError if not in the run."""
        index = np.ceil(self.t_apply / dt - 1e-9)  # infinite or NaN for such a t_apply
        if not (self.t_apply >= 0 and index <= steps):
            raise InputError(f"disturbance time {self.t_apply:.9g} s outside the run, 0 to {steps * dt:.9g} s")
        return int(index)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # (T,), uniform spacing, times[0] = 0
    delta: np.ndarray  # (T, n) rad
    omega: np.ndarray  # (T, n) rad/s
    dt: float


def horizon_steps(t_max: float, dt: float) -> int:
    """The horizon rule: the steps to the last grid time k dt <= t_max (within 1e-9 steps), or InputError."""
    if not 0 < dt <= t_max < math.inf:
        raise InputError("dt must be a finite number > 0 and tmax a finite number >= dt")
    if t_max / dt > MAX_STEPS:
        raise InputError(f"tmax / dt exceeds {MAX_STEPS} steps")
    return math.floor(t_max / dt + 1e-9)


def row_blocks(rows: int) -> Iterator[slice]:
    """Slices of ROWS_PER_BLOCK consecutive rows covering range(rows); the last may be shorter."""
    return (slice(start, min(start + ROWS_PER_BLOCK, rows)) for start in range(0, rows, ROWS_PER_BLOCK))


def grid_times(rows: slice, dt: float) -> np.ndarray:
    """The times k dt of the rows k in rows (a slice with a start and a stop), s: for any number of rows N,
    bit for bit (np.arange(N) * dt)[rows], the time grid of every trajectory."""
    return np.arange(rows.start, rows.stop) * dt


def link_laplacian(ctl: ControlConfig, n: int) -> np.ndarray:
    """Gain-weighted Laplacian L_h of the link graph on n machines, (n, n).

    With h the common gain, L_h[i, i] is h times the number of links at i and
    L_h[i, k] = -h for each link (i, k), so the control adds
    L_h (delta - model.op.delta_s) to the mechanical power and L_h / m is the
    Jacobian's control block.  A link with an endpoint outside 0..n-1 raises
    InputError.  An overflowing gain is left as an infinite entry without a
    warning; callers check finiteness.
    """
    lap = np.zeros((n, n))
    h = ctl.gain
    with np.errstate(over="ignore"):
        for i, k in ctl.links:  # i < k
            if i < 0 or k >= n:
                raise InputError(f"link {(i, k)} has an endpoint outside 0..{n - 1}")
            lap[i, i] += h
            lap[k, k] += h
            lap[i, k] -= h
            lap[k, i] -= h
    return lap


def control_matrix(ctl: ControlConfig, m: np.ndarray) -> np.ndarray:
    """Link-feedback block L_h / m_i: -h_ik/m_i off-diagonal, row-sum-zero diagonal.

    With a negative gain this is a weighted Laplacian scaled by 1/m_i:
    negative diagonal, positive off-diagonals.  An overflowing gain gives
    infinite entries, which spectral evaluation rejects.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):
        return link_laplacian(ctl, m.size) / m[:, None]


def swing_matrix(model: SystemModel, ctl: ControlConfig) -> np.ndarray:
    """G = [[0, I], [L_h / m, -diag(d / m)]], the linear part of the swing equations, (2n, 2n)."""
    n = model.n
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = np.eye(n)
    g[n:, :n] = control_matrix(ctl, model.m)
    g[n:, n:] = np.diag(-model.d / model.m)
    return g


def electrical_power(delta: np.ndarray, net: ReducedNetwork) -> np.ndarray:
    """P_e[i] = sum_k d[i,k] cos(delta_i - delta_k) + c[i,k] sin(delta_i - delta_k).

    Evaluated as Re(E_i conj((y_g E)_i)) with E = e_mag e^{j delta}: n complex
    exponentials instead of n^2 cosines and sines.  The k = i term contributes
    the self-conductance power e_i^2 Re(y_g[i,i]).
    """
    e = net.e_mag * np.exp(1j * np.asarray(delta, dtype=float))
    return (e * np.conj(net.y_g @ e)).real


class SwingOperator:
    """The controlled swing equations on the stacked state x = [delta, omega] (2n floats).

    dx/dt = H z on one vector z = [x, w * (W w), 1] with w = [cos delta, sin delta] and
      H = [G, -F, c - G x_ref],  G = swing_matrix(model, ctl),  F = [[0, 0], [I, I]],
      W = [[Re Y, -Im Y], [Im Y, Re Y]],  Y = diag(e_mag / m) y_g diag(e_mag),
      x_ref = [model.op.delta_s, omega_s ... omega_s],  c = [0, p_m / m].
    The two halves of w * (W w) sum to electrical_power / m, so
    H z = G (x - x_ref) + c - [0, P_e / m]: the link control acts about the
    operating point.  The drive c, for the constant mechanical power p_m, is
    H's last column: model.op.p_m_const until set_drive changes it.  The
    state is read from ``state``, the view z[:2n]; rate(out) writes dx/dt
    there into out, by five numpy calls on preallocated buffers bound once
    here, which makes an instance not reentrant.
    """

    def __init__(self, model: SystemModel, ctl: ControlConfig):
        n = model.n
        m, e_mag = model.m, model.net.e_mag
        self.n, self.m = n, m
        self.h = h = np.zeros((2 * n, 4 * n + 1))
        h[:, : 2 * n] = g = swing_matrix(model, ctl)
        h[n:, 2 * n : 3 * n] = h[n:, 3 * n : 4 * n] = -np.eye(n)
        x_ref = np.concatenate([model.op.delta_s, np.full(n, model.op.omega_s)])
        # An overflowing gain leaves a non-finite entry, which simulate reports as a blow-up.
        with np.errstate(over="ignore", invalid="ignore"):
            self._g_x_ref = g @ x_ref
        self.set_drive(model.op.p_m_const)
        y = (e_mag / m)[:, None] * model.net.y_g * e_mag[None, :]
        w_dot = np.block([[y.real, -y.imag], [y.imag, y.real]]).dot
        z = np.zeros(4 * n + 1)
        z[-1] = 1.0
        self.state = z[: 2 * n]
        delta, power, w = z[:n], z[2 * n : 4 * n], np.empty(2 * n)
        cos_w, sin_w = w[:n], w[n:]
        cos, sin, multiply, h_dot = np.cos, np.sin, np.multiply, h.dot

        def rate(out: np.ndarray) -> np.ndarray:
            """Write dx/dt at ``state`` into out (2n floats) and return it."""
            cos(delta, cos_w)
            sin(delta, sin_w)
            w_dot(w, power)
            multiply(power, w, power)
            return h_dot(z, out)

        self.rate = rate

    def set_drive(self, p_m: np.ndarray) -> None:
        """Make p_m (n floats) the constant mechanical power: H's last column becomes c - G x_ref."""
        self.h[:, -1] = np.concatenate([np.zeros(self.n), p_m / self.m]) - self._g_x_ref


def swing_rhs(
    state: MachineState, model: SystemModel, ctl: ControlConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(d delta/dt, d omega/dt) of the controlled swing equations, by a SwingOperator entered as simulate
    enters it for each k1: the stacked state copied into ``state``, then ``rate``."""
    op = SwingOperator(model, ctl)
    np.copyto(op.state, np.concatenate([state.delta, state.omega]))
    rate = op.rate(np.empty(2 * model.n))
    return rate[: model.n], rate[model.n :]


def integrate(
    initial: MachineState,
    model: SystemModel,
    ctl: ControlConfig,
    disturbance: DisturbanceSpec | None,
    t_max: float,
    dt: float = 1e-3,
) -> Blocks:
    """Integrate with classical RK4 at fixed step dt over [0, t_max], horizon_steps(t_max, dt) steps,
    and yield the rows a block at a time.

    The horizon, the target and the disturbance time are checked here, before
    the first block is asked for.  The returned iterator then yields
    (rows, block) for each slice of row_blocks(steps + 1): block[i] is the
    stacked state [delta, omega] at time (rows.start + i) dt, finite, and a
    view of one (ROWS_PER_BLOCK + 1, 2n) buffer that the next block
    overwrites, whose row 0 carries the previous block's last row.

    The stacked state is stepped by the rate of one SwingOperator, built once
    per call, with stage buffers reused across steps, and each step is
    written straight into the buffer.  Stage inputs x + (0.5 dt) k are
    written straight into the operator's state, and the update is
    x + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4), with k1..k4 the rows of one
    array (k2 and k3 doubled by one multiply) and the scalar factors held in
    0-d arrays, so the result equals RK4 driven by swing_rhs bit for bit: a
    step is 33 numpy calls.

    The disturbance's angle and speed offsets are added to the recorded state
    at its apply_index, the first grid time >= t_apply, and its power step to
    the operator's drive from that grid time onward (set_drive); only the
    target entries are written, so an infinite disturbance is a blow-up at
    t_apply, not a warning.  A target outside 0..n-1 raises InputError.  Each
    block is checked for finiteness once it is complete; a non-finite row
    raises SimulationBlowUp at the time of the first one, after at most one
    block of further steps, and that block is not yielded.
    """
    n = model.n
    steps = horizon_steps(t_max, dt)
    dist = disturbance or DisturbanceSpec(target=0)  # no disturbance is a zero one
    if not 0 <= dist.target < n:
        raise InputError(f"target {dist.target} out of range 0..{n - 1}")
    apply_index = dist.apply_index(dt, steps)
    op = SwingOperator(model, ctl)
    stepped_p_m = model.op.p_m_const.copy()
    stepped_p_m[dist.target] += dist.d_pm

    def blocks() -> Blocks:
        z, rate = op.state, op.rate
        states = np.empty((ROWS_PER_BLOCK + 1, 2 * n))  # row j holds the state at time (rows.start + j - 1) dt
        states[1, :n] = initial.delta
        states[1, n:] = initial.omega
        ks, stage, total = np.empty((4, 2 * n)), np.empty(2 * n), np.empty(2 * n)
        (k1, k2, k3, k4), k2_k3 = ks, ks[1:3]
        # 0-d arrays: numpy converts a Python float operand on every call.
        half, full, two, sixth = (np.array(f) for f in (0.5 * dt, dt, 2.0, dt / 6.0))
        copyto, multiply, add = np.copyto, np.multiply, np.add
        for rows in row_blocks(steps + 1):
            # Overflow here is the blow-up signal, not a numerics bug to warn about.
            with np.errstate(over="ignore", invalid="ignore"):
                for j, k in enumerate(range(rows.start, rows.stop), start=1):
                    if k:
                        x = states[j - 1]
                        copyto(z, x)
                        rate(k1)
                        multiply(k1, half, stage)
                        add(x, stage, z)
                        rate(k2)
                        multiply(k2, half, stage)
                        add(x, stage, z)
                        rate(k3)
                        multiply(k3, full, stage)
                        add(x, stage, z)
                        rate(k4)
                        multiply(k2_k3, two, k2_k3)
                        add(k1, k2, total)
                        add(total, k3, total)
                        add(total, k4, total)
                        multiply(total, sixth, total)
                        add(x, total, states[j])
                    if k == apply_index:
                        states[j, dist.target] += dist.d_delta
                        states[j, n + dist.target] += dist.d_omega
                        op.set_drive(stepped_p_m)
            block = states[1 : rows.stop - rows.start + 1]
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                raise SimulationBlowUp((rows.start + int(finite.argmin())) * dt)
            yield rows, block
            states[0] = block[-1]

    return blocks()


def simulate(
    initial: MachineState,
    model: SystemModel,
    ctl: ControlConfig,
    disturbance: DisturbanceSpec | None,
    t_max: float,
    dt: float = 1e-3,
) -> Trajectory:
    """The trajectory of integrate(...), its blocks copied into one (steps + 1, 2n) array of which the
    returned delta and omega are views; the same checks, rows and blow-up."""
    blocks = integrate(initial, model, ctl, disturbance, t_max, dt)
    times = grid_times(slice(0, horizon_steps(t_max, dt) + 1), dt)
    states = np.empty((times.size, 2 * model.n))
    for rows, block in blocks:
        states[rows] = block
    return Trajectory(times=times, delta=states[:, : model.n], omega=states[:, model.n :], dt=dt)


def deviation_norms(traj: Trajectory, op: OperatingPoint) -> np.ndarray:
    """Per-sample 2-norm of the state deviation with the uniform angle shift removed.

    Angles are measured relative to the last machine, which projects out the
    rigid rotation that the dynamics cannot damp.  Each row's norm depends on
    that row alone, so DecayFit.feed computes them a block at a time.
    """
    d_delta = traj.delta - op.delta_s[None, :]
    d_delta = d_delta - d_delta[:, [-1]]
    d_omega = traj.omega - op.omega_s
    return np.sqrt(np.sum(d_delta**2, axis=1) + np.sum(d_omega**2, axis=1))


def decay_rate(traj: Trajectory, op: OperatingPoint, t_start: float) -> float:
    """Least-squares slope of log of the deviation norm over [t_start, end], 1/s: streamed_decay_rate of the
    trajectory's rows, stacked a row_blocks block at a time as integrate yields them."""
    blocks = ((rows, np.hstack([traj.delta[rows], traj.omega[rows]])) for rows in row_blocks(traj.times.size))
    return streamed_decay_rate(blocks, op, traj.dt, t_start)


def streamed_decay_rate(blocks: Blocks, op: OperatingPoint, dt: float, t_start: float) -> float:
    """DecayFit(t_start)'s slope over the rows of blocks, fed through DecayFit.feed and dropped once fed."""
    fit = DecayFit(t_start)
    for _ in fit.feed(blocks, op, dt):
        pass
    return fit.rate()


# The centred sums of a run of samples (t, y): count, mean t, mean y, S_tt and S_ty.
_Sums = tuple[int, float, float, float, float]


class DecayFit:
    """Least-squares slope of log(norm) against time over [t_start, end], 1/s, fed a block of samples at a time.

    add(times, norms) takes the next block, in time order; rate() is the slope
    over every sample added so far.  A sample counts if its time is in the
    window (time >= t_start - 1e-12) and its norm is 1e-13 or more.  Each
    block's usable samples are reduced to their centred sums: the count, the
    means of t and of y = log(norm), S_tt and S_ty.  Those of two runs of
    samples merge by the pairwise update of Chan, Golub & LeVeque (1983), and
    the runs merge as a binary tree: a run merges with the one before it
    while that one holds as many blocks.  So the fit keeps the sums of about
    log2(blocks) runs, not the samples, and its rounding grows with that
    depth, not with the block count.  The slope is S_ty / S_tt.
    """

    def __init__(self, t_start: float):
        self.t_start = t_start
        self.t_end = -math.inf  # the last time added
        self._runs: list[tuple[int, _Sums]] = []  # (blocks, sums) of each run of blocks, oldest first
        self._overflow: FloatingPointError | None = None  # the first that feed kept for rate

    def feed(self, blocks: Blocks, op: OperatingPoint, dt: float) -> Blocks:
        """Yield each of blocks, of step dt, once its grid_times and its deviation_norms about op are added.  A
        FloatingPointError from the norms (numpy's overflow) is kept for rate(), so a later blow-up wins."""
        for rows, block in blocks:
            view = Trajectory(grid_times(rows, dt), *np.hsplit(block, 2), dt)
            try:
                self.add(view.times, deviation_norms(view, op))
            except FloatingPointError as exc:
                self._overflow = self._overflow or exc
            yield rows, block

    def add(self, times: np.ndarray, norms: np.ndarray) -> None:
        """Fold in the samples (times[i], norms[i]), which follow every sample added before."""
        if not times.size:
            return
        self.t_end = float(times[-1])
        usable = (times >= self.t_start - 1e-12) & (norms >= 1e-13)
        t, y = times[usable], np.log(norms[usable])
        if not t.size:
            return
        mean_t, mean_y = float(t.mean()), float(y.mean())
        t -= mean_t
        y -= mean_y
        blocks, sums = 1, (t.size, mean_t, mean_y, float(t @ t), float(t @ y))
        while self._runs and self._runs[-1][0] == blocks:
            blocks, sums = 2 * blocks, _merged(self._runs.pop()[1], sums)
        self._runs.append((blocks, sums))

    def rate(self) -> float:
        """The fitted slope; the FloatingPointError that feed kept, or a ValueError if t_start is past the last
        time added or fewer than two samples count."""
        if self._overflow is not None:
            raise self._overflow
        if self.t_start > self.t_end:
            raise ValueError(f"t_start {self.t_start} beyond trajectory end {self.t_end}")
        if not self._runs:
            raise ValueError("deviation underflow: all norms in the fit window are below 1e-13")
        sums = self._runs[-1][1]
        for _, earlier in reversed(self._runs[:-1]):
            sums = _merged(earlier, sums)
        count, _, _, s_tt, s_ty = sums
        if count < 2:
            raise ValueError("fewer than two usable samples in the fit window")
        return s_ty / s_tt


def _merged(a: _Sums, b: _Sums) -> _Sums:
    """The centred sums (count, mean t, mean y, S_tt, S_ty) of two runs of samples, a's then b's."""
    count_a, mean_t_a, mean_y_a, s_tt_a, s_ty_a = a
    count_b, mean_t_b, mean_y_b, s_tt_b, s_ty_b = b
    count = count_a + count_b
    gap_t, gap_y = mean_t_b - mean_t_a, mean_y_b - mean_y_a
    weight = count_a * count_b / count
    return (
        count,
        mean_t_a + gap_t * count_b / count,
        mean_y_a + gap_y * count_b / count,
        s_tt_a + s_tt_b + gap_t * gap_t * weight,
        s_ty_a + s_ty_b + gap_t * gap_y * weight,
    )
