"""Per-frequency integration, synthesis and energy traces.

Space is one-dimensional and periodic: the box is sized so that the causal
cone of the compactly supported data never meets its periodic images within
the time horizon, making the discrete transform an exact stand-in for the
line transform.  Each frequency carries an independent companion ODE,
integrated with fixed-step fourth-order Runge-Kutta; constant stretches are
crossed in powers of the RK4 step map, so an epsilon's cost follows its
layers, 2 omega(epsilon) / T of the steps.  The epsilons of a sweep share
the grids and step as one batch in a single thread; no operation mixes
epsilons or frequencies, so each epsilon's bits equal its solo run's and
each frequency's bits do not depend on which others share the batch.
Every last-row read, by the integrator and the stability check, goes
through a system's one row table, and the energy traces read its root
values; the integrator, which alone knows the stage times a step reads,
owns the blocks it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, DivergenceError,
                     InvalidParameterError, StabilityError, WeakHypError,
                     numerical_errors)
from .mollifiers import (GevreyCutoffMollifier, convolve_profile,
                         friedrichs_mollifier, scale_mollifier,
                         vanishing_moment_mollifier)
from .profiles import RoughProfile, extend_profile
from .recovery import recover_coefficients
from .reduction import (CompanionSystem, Index, LowerOrderPart,
                        RootValuePrincipal, SeparablePart, companion_matrix)
from .roots import (EDGE_PAD, OmegaScale, RegularisedRoots, RootFamily,
                    bracket, speed_bound)
from .symmetrisers import build_symmetriser

Array = np.ndarray


#: clearance between the causal cone and the box edge that every run keeps;
#: ``grid.margin`` may not ask for less
CONE_MARGIN = 0.5


@dataclass(frozen=True)
class FrequencyGrid:
    """Periodic frequency grid: K points on a box of length L around 0."""

    points: int
    box_length: float

    def __post_init__(self):
        if self.points < 2 or self.points & (self.points - 1):
            raise ConfigurationError("grid points must be a power of two",
                                     field="grid.points")
        if not 0 < self.box_length < math.inf:
            raise ConfigurationError("box length must be positive and finite",
                                     field="grid.box_length")

    @property
    def frequencies(self) -> Array:
        return 2.0 * math.pi * np.fft.fftfreq(self.points,
                                              d=self.box_length / self.points)

    @property
    def x_nodes(self) -> Array:
        return -0.5 * self.box_length \
            + self.box_length * np.arange(self.points) / self.points

    def positions(self, xi: Array) -> Array:
        """Indices into :attr:`frequencies` of the grid frequencies ``xi``."""
        xi = np.asarray(xi, dtype=float)
        k = np.rint(xi * self.box_length / (2.0 * math.pi)).astype(int) \
            % self.points
        if not np.array_equal(self.frequencies[k], xi):
            raise InvalidParameterError("frequencies must lie on the grid")
        return k

    def check_fit(self, support_radius: float, max_speed: float,
                  horizon: float) -> None:
        needed = auto_box_length(support_radius, max_speed, horizon,
                                 CONE_MARGIN)
        if needed > self.box_length:
            raise ConfigurationError(
                f"box length {self.box_length:g} too small: causal cone "
                f"needs at least {needed:g}", field="grid.box_length")

    def synthesise(self, uhat: Array) -> Array:
        """Inverse transform of line-transform samples onto the x nodes.

        The x nodes start at -L/2, which shows up as the phase factor
        exp(i xi x0) relative to the raw FFT convention.
        """
        phase = np.exp(1j * self.frequencies * self.x_nodes[0])
        return (self.points / self.box_length) * np.fft.ifft(uhat * phase,
                                                             axis=-1)

    def analyse(self, u: Array) -> Array:
        phase = np.exp(-1j * self.frequencies * self.x_nodes[0])
        return (self.box_length / self.points) * np.fft.fft(u, axis=-1) * phase


def data_support_radius(data: Sequence[RoughProfile],
                        forcing: tuple[RoughProfile, RoughProfile] | None
                        ) -> float:
    """Largest |x| over the supports of the data and of the forcing's
    space factor; the causal cone starts from it."""
    supports = [abs(g.support[0]) for g in data] \
        + [abs(g.support[1]) for g in data]
    if forcing is not None:
        supports += [abs(forcing[1].support[0]), abs(forcing[1].support[1])]
    return max(supports, default=0.0)


def auto_box_length(support_radius: float, max_speed: float, horizon: float,
                    margin: float) -> float:
    """Length of the box that holds the causal cone up to ``horizon``, with
    ``margin`` to spare on each side."""
    return 2.0 * (support_radius + max_speed * horizon + margin)


# -- integrator -----------------------------------------------------------------


@dataclass
class IntegrationResult:
    traces: Array           # (m, n_tracked, n_trace)
    first_component: Array  # (n_out, K)
    final_state: Array      # (m, K)
    step_doubling_max: float


# bytes of last rows that one block of staged steps may read: w x K entries
# (complex where an entry's time values or factor are) at two stage times
# a step, four on a step-doubling step, counted for each member that takes
# the staged steps, whose rows are all the block holds
_ROW_BLOCK_BYTES = 1 << 17


#: relative margin below the limit under which the Frobenius screen clears
#: an entry: more than the rounding of the screen and of the SVD, so an
#: entry within rounding of the limit gets its exact norm
_SCREEN_MARGIN = 1e-9


def _estimate_norm(rows: Callable[[Index], Array], index: Array,
                   br: Array, limit: float) -> float:
    """A bound on the largest spectral norm of A + B, whose last rows
    ``rows`` gives, at the times ``index`` selects, equal to it whenever it
    exceeds ``limit``: each entry (time, frequency) counts with its
    Frobenius norm, ``sqrt((m - 1) <xi>^2 + sum_h |row_h|^2)``, unless that
    does not clear the limit, when it gets its largest singular value."""
    block = rows(index)                                  # (T, m, K)
    m = block.shape[1]
    frobenius = np.sqrt((m - 1) * br * br
                        + np.square(np.abs(block)).sum(axis=1))
    flagged = frobenius > (1.0 - _SCREEN_MARGIN) * limit
    cleared = float(frobenius[~flagged].max(initial=0.0))
    if not flagged.any():
        return cleared
    times, freqs = np.nonzero(flagged)
    mats = companion_matrix(block[times, :, freqs].T.astype(complex),
                            br[freqs])
    return max(cleared,
               float(np.linalg.svd(mats, compute_uv=False)[:, 0].max()))


def _rk4(stages: tuple, dt: float, ibr: Array, state: Array) -> Array:
    """One RK4 step of length dt for the states (..., w, K), whose stages
    read the last rows (..., w, K) ``stages``: i<xi> ``ibr`` (m - 1, K)
    shifts the first m - 1 components, component m - 1 reads the last row,
    and the rest, a forced state's unit component, stays constant."""
    n = ibr.shape[0]

    def rhs(rows: Array, y: Array) -> Array:
        out = np.empty_like(y)
        out[..., :n, :] = ibr * y[..., 1:n + 1, :]
        out[..., n, :] = 1j * (rows * y).sum(axis=-2)
        out[..., n + 1:, :] = 0.0
        return out

    k1 = rhs(stages[0], state)
    k2 = rhs(stages[1], state + 0.5 * dt * k1)
    k3 = rhs(stages[1], state + 0.5 * dt * k2)
    k4 = rhs(stages[2], state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _staged_step(stage: Callable[[int], Array], i: int, doubled: bool,
                 h: float, ibr: Array, state: Array) -> tuple:
    """Step i by staged RK4, reading ``stage(q)`` at lattice point q, and on
    a step-doubling step also as two half steps (else None)."""
    q = 4 * i
    full = _rk4((stage(q), stage(q + 2), stage(q + 4)), h, ibr, state)
    if not doubled:
        return full, None
    half = _rk4((stage(q), stage(q + 1), stage(q + 2)), 0.5 * h, ibr, state)
    return full, _rk4((stage(q + 2), stage(q + 3), stage(q + 4)), 0.5 * h,
                      ibr, half)


def _apply(step_map: Array, state: Array) -> Array:
    """The states (..., w, K) under ``step_map`` (w, w, K), slice j the
    image of basis vector j; a map as ``state`` gives the composite."""
    out = step_map[0] * state[..., :1, :]
    for j in range(1, step_map.shape[0]):
        out += step_map[j] * state[..., j:j + 1, :]
    return out


def integrate_companion(systems: Sequence[CompanionSystem], xi: Array,
                        t_grid: Array,
                        epsilons: Sequence[float | None] | None = None,
                        tracked_indices: Sequence[int] = (),
                        output_steps: Sequence[int] = (),
                        trace_steps: Sequence[int] = ()
                        ) -> list[IntegrationResult | WeakHypError]:
    """Fixed-step RK4 for D_t V = (A + B) V + F over a batch of systems.

    The members of the batch, one companion system each (one epsilon of a
    sweep, named by ``epsilons``), share the frequencies ``xi``, the time
    grid, their order, width and row dtype.  No operation mixes
    members or frequencies, so a member's bits depend only on its own rows
    and the schedule.  Step i has stages at t_i, t_i + h/2 and t_i + h;
    every ``stride = max(1, nt // 100)``-th step is repeated as two half
    steps, adding t_i + h/4 and t_i + 3h/4, to spot-check the local error.
    The row tables hold only these stage times.  A member keeps the first
    component of the state landing on each of ``output_steps``, the
    columns ``tracked_indices`` of that on each of ``trace_steps``.

    A member reads one provider, its principal part's ``row_provider``: the
    last row of A + B, then F in column m.  A forced member steps the
    homogeneous system D_t (V, 1) = [[A + B, F], [0, 0]] (V, 1): its state
    has w = m + 1 components, the last a unit one that no output, error or
    budget reads.  Each member keeps its own step position.  Where its
    provider reports ``steady`` over a step's lattice intervals, as outside
    the layers of width 2 omega around each jump of a mollified
    piecewise-constant profile, an RK4 step is a fixed linear map P, which
    pushing the w basis vectors through the staged step builds, with the
    half-step map, from the rows at the stretch's entry.  The member crosses
    the stretch in powers of P: P and the half-step check on each
    step-doubling step, and between them one P^n (n < stride, by repeated
    squaring of the per-frequency w x w maps) to the next step-doubling,
    output or trace step, or to the stretch's end.  So its cost follows its
    layers, 2 omega / T of the steps, and its outputs differ from the staged
    steps' by rounding only.  Only the members whose rows vary take the
    staged step, on the steps where they vary, reading their rows in blocks
    (see ``_ROW_BLOCK_BYTES``).

    Failures are per member.  A member that fails h * max||A + B|| <= 0.5
    at nine grid times (see :func:`_estimate_norm`) gets a
    :class:`StabilityError` that reports the required step.  A non-finite
    state, checked every 64 staged steps, after the last step and at each
    jump's end (a finite map keeps it non-finite), stops its member with a
    :class:`DivergenceError`.  A package error while a member sets up
    (``LinAlgError`` raised as :class:`NumericalError`) is its failure too;
    any other exception propagates.  Returns, per member in order, its
    result or its error.
    """
    xi = np.asarray(xi, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    nt = t_grid.size - 1
    if nt < 1:
        raise InvalidParameterError("time grid needs at least two points")
    h = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), h, rtol=1e-12, atol=1e-14):
        raise InvalidParameterError("time grid must be uniform")
    eps = list(epsilons) if epsilons is not None else [None] * len(systems)
    if len(eps) != len(systems):
        raise InvalidParameterError("need one epsilon per system")
    if not systems:
        return []
    # one row dtype and state width for the batch keeps each member's bits
    m, w = systems[0].order, systems[0].width
    if any((s.order, s.width) != (m, w) for s in systems):
        raise InvalidParameterError("batched systems must share their order "
                                    "and width")

    columns = [int(i) for i in tracked_indices]
    stride = max(1, nt // 100)
    # step -> the output and the trace column its landing state fills
    out_at, trace_at = ({int(s): n for n, s in enumerate(steps)}
                        for steps in (output_steps, trace_steps))
    if len(out_at) < len(output_steps) or len(trace_at) < len(trace_steps):
        raise InvalidParameterError("output and trace steps must be distinct")
    if columns and not trace_at:
        raise InvalidParameterError("tracked columns need trace steps")
    # the steps no jump crosses, ending in nt
    marks = np.array(sorted({*range(0, nt, stride), nt, *out_at, *trace_at}))

    # stage times as indices q on the quarter-step lattice t_0 + q h / 4: the
    # half-step grid, plus the quarter steps of the step-doubling steps
    on_lattice = np.arange(4 * nt + 1) % 2 == 0
    on_lattice[4 * np.arange(0, nt, stride)[:, None] + [1, 3]] = True
    lattice = np.flatnonzero(on_lattice)
    stage_times = t_grid[0] + 0.25 * h * lattice
    # position[q] is the index of lattice point q in ``lattice``
    position = np.searchsorted(lattice, np.arange(4 * nt + 1))
    starts = position[::4]

    br = bracket(xi)
    ibr = np.broadcast_to(1j * br, (m - 1, xi.size))  # superdiagonal, by row
    sample = starts[::max(1, nt // 8)]

    def set_up(system: CompanionSystem, epsilon: float | None
               ) -> Callable[[Index], Array]:
        rows = system.principal.row_provider(stage_times, xi)
        # the first m columns are A + B, all the budget reads
        norm = _estimate_norm(lambda q: rows(q)[:, :m], sample, br,
                              (0.5 + 1e-12) / h)
        if h * norm > 0.5 + 1e-12:
            required_step = 0.5 / norm
            required = int(math.ceil((t_grid[-1] - t_grid[0]) / required_step))
            raise StabilityError(
                f"step {h:.3e} violates stability budget at epsilon "
                f"{epsilon}: h*||A+B|| = {h * norm:.3f} > 0.5; need at least "
                f"{required} steps", required_step=required_step,
                required_steps=required, epsilon=epsilon)
        v[len(readers), :m] = system.V0(xi)  # the next live slot
        return rows

    # outputs by live slot, one array each for the batch, small enough to
    # take heap pages already in use; taken before the set-up's tables and
    # the loop's temporaries, they let those be freed from the top of the heap
    traces = np.zeros((len(systems), m, len(columns), len(trace_steps)),
                      complex)
    first = np.zeros((len(systems), len(output_steps), xi.size), complex)
    v = np.zeros((len(systems), w, xi.size), dtype=complex)  # final states
    v[:, m:] = 1.0  # a forced state's unit component
    outcome: list = [None] * len(systems)
    readers = []  # row providers by live slot
    for member, system in enumerate(systems):
        try:
            with numerical_errors():
                readers.append(set_up(system, eps[member]))
        except WeakHypError as exc:
            outcome[member] = exc
    live = [e for e, done in enumerate(outcome) if done is None]
    # (live members, nt): whether each member's rows vary on each step, step
    # i reading the lattice points from starts[i] to starts[i + 1]
    varying = ~np.array([np.logical_and.reduceat(r.steady, starts[:-1])
                         for r in readers], bool).reshape(len(live), nt)
    # rows are complex only where an entry's values or factor are complex-typed
    dtype, *others = {r.dtype for r in readers} or {np.dtype(float)}
    if others:
        raise InvalidParameterError("batched systems must share their row "
                                    "dtype")
    units = np.eye(w, dtype=complex)[:, :, None] * np.ones(xi.size)
    # per member: worst step-doubling error, whether it lives, step reached
    worst_double, alive, at = (np.zeros(len(live)), np.ones(len(live), bool),
                               np.zeros(len(live), int))

    def land(slots: Sequence[int], step: int, x: Array, half: Array | None,
             check: bool) -> bool:
        """Record the states x that ``slots`` reach at ``step``, with their
        doubling error against ``half``; if ``check``, stop any non-finite."""
        y = x[:, :m]  # never the unit component
        if step in trace_at:
            traces[slots, ..., trace_at[step]] = y[..., columns]
        if step in out_at:
            first[slots, out_at[step]] = y[:, 0]
        if half is not None:
            scale = np.abs(y).max(axis=(1, 2))
            # fmax, like max() on floats, ignores a NaN estimate
            worst_double[slots] = np.fmax(
                worst_double[slots], np.abs(y - half[:, :m]).max(axis=(1, 2))
                / np.where(scale == 0.0, 1.0, scale))
        if not check or np.isfinite(x.view(float)).all():
            return False
        for slot, state in zip(slots, x):
            bad = ~np.isfinite(state).all(axis=0)
            if bad.any():
                outcome[live[slot]] = DivergenceError(
                    f"non-finite state at t={t_grid[step]:g}",
                    xi=float(xi[np.argmax(bad)]), epsilon=eps[live[slot]])
                alive[slot] = False
        return True

    def cross(slot: int, stop: int) -> None:
        """Carry member ``slot`` over its constant stretch from the step it
        has reached to ``stop`` in powers of the stretch's step map, each
        jump ending on the next step-doubling, output or trace step."""
        i, slots = int(at[slot]), [slot]
        entry = readers[slot](slice(starts[i], starts[i] + 1))
        full, half = (_rk4((entry,) * 3, dt, ibr, units)
                      for dt in (h, 0.5 * h))
        squares, powers = [full], {}  # P^(2^b) by b, P^n by n
        x = v[slots]
        while i < stop:
            doubled = i % stride == 0
            n = 1 if doubled else min(stop, marks[marks > i][0]) - i
            halves = _apply(half, _apply(half, x)) if doubled else None
            if n not in powers:
                while 1 << len(squares) <= n:
                    squares.append(_apply(squares[-1], squares[-1]))
                powers[n] = reduce(_apply, [sq for b, sq in enumerate(squares)
                                            if n >> b & 1])
            i, x = i + n, _apply(powers[n], x)
            if land(slots, i, x, halves, True):
                return
        v[slots], at[slot] = x, stop

    def stage(q: int) -> Array:
        return block[:, position[q] - lo]

    land(np.arange(len(live)), 0, v[:len(live)], None, False)
    i = 0
    # a diverging state's overflow is a DivergenceError, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        while i < nt and alive.any():
            # the run of steps from i on over which the same members vary
            act = varying[:, i:] & alive[:, None]
            run = int(np.argmax((act != act[:, :1]).any(axis=0))) or nt - i
            movers = np.flatnonzero(act[:, 0])
            if not movers.size:
                i += run
                continue
            for slot in movers[at[movers] < i]:
                cross(slot, i)
            if not alive[movers].all():
                continue
            block_steps = max(1, _ROW_BLOCK_BYTES // (
                2 * dtype.itemsize * w * max(movers.size * xi.size, 1)))
            # one buffer holds every block's rows; no block holds more
            # step-doubling steps, and so lattice points, than the first one
            buffer = np.empty((movers.size, starts[min(nt, block_steps)] + 1,
                               w, xi.size), dtype)
            x, a = v[movers], i
            for i in range(a, a + run):
                if (i - a) % block_steps == 0:
                    lo, hi = starts[i], starts[min(a + run, i + block_steps)]
                    block = buffer[:, :hi - lo + 1]
                    for row, slot in zip(block, movers):
                        row[:] = readers[slot](slice(lo, hi + 1))
                x, half = _staged_step(stage, i, i % stride == 0, h, ibr, x)
                if land(movers, i + 1, x, half, i % 64 == 0 or i == nt - 1):
                    break
            v[movers], at[movers] = x, i + 1
            i += 1
        for slot in np.flatnonzero(alive & (at < nt)):
            cross(slot, nt)

    for slot in np.flatnonzero(alive):
        outcome[live[slot]] = IntegrationResult(
            traces[slot], first[slot], v[slot, :m], float(worst_double[slot]))
    return outcome


# -- problem description and the sweep pipeline -----------------------------------


@dataclass
class VeryWeakProblem:
    """Everything needed to run the regularise/recover/reduce/solve pipeline.

    ``lower_terms`` holds the rough lower-order coefficients as profiles;
    each epsilon mollifies them on its own scale.

    The problem owns the schedule every epsilon shares, all grid values:
    at construction each output time snaps to its nearest step of
    :attr:`time_grid` and each tracked frequency to its nearest grid
    frequency, once each, and the tracked frequencies' states are kept
    only at the energy samples, the steps :attr:`trace_steps`.
    """

    family: RootFamily
    data: tuple[RoughProfile, ...]
    grid: FrequencyGrid
    time_steps: int
    omega: OmegaScale
    horizon: float = 1.0
    lower_terms: LowerOrderPart | None = None
    forcing: tuple[RoughProfile, RoughProfile] | None = None
    output_times: tuple[float, ...] = (0.0, 0.5, 1.0)
    tracked_frequencies: tuple[float, ...] = ()

    def __post_init__(self):
        self.output_times = _snap(self.time_grid, self.output_times)
        self.tracked_frequencies = _snap(self.grid.frequencies,
                                         self.tracked_frequencies)

    @property
    def order(self) -> int:
        return self.family.order

    @cached_property
    def time_grid(self) -> Array:
        return np.linspace(0.0, self.horizon, self.time_steps + 1)

    @property
    def output_steps(self) -> Array:
        """Indices into :attr:`time_grid` of the output times."""
        return np.searchsorted(self.time_grid, self.output_times)

    @property
    def trace_steps(self) -> Array:
        """Indices into :attr:`time_grid` of the energy samples: every
        ``max(1, time_steps // 64)``-th step from 0."""
        return np.arange(0, self.time_steps + 1, max(1, self.time_steps // 64))

    @property
    def tracked_indices(self) -> Array:
        """Indices into the grid frequencies of the tracked frequencies."""
        return self.grid.positions(self.tracked_frequencies)

    @cached_property
    def grid_transforms(self) -> tuple[tuple[Array, ...], Array | None]:
        """Transforms on the frequency grid of the data and of the forcing's
        space factor, computed once per problem; each epsilon multiplies
        them by its own cut-off transform."""
        xi = self.grid.frequencies
        data = tuple(g.fourier_transform(xi) for g in self.data)
        space = self.forcing[1].fourier_transform(xi) \
            if self.forcing is not None else None
        return data, space


def _snap(points: Array, targets: Sequence[float]) -> tuple[float, ...]:
    """Each target's nearest value among ``points``, each value once, in
    the order the targets first reach it."""
    nearest = (float(points[np.argmin(np.abs(points - t))]) for t in targets)
    return tuple(dict.fromkeys(nearest))


@dataclass
class SolveRecord:
    """One epsilon's output and diagnostics, or its error: only what varies
    with epsilon, on the problem's schedule; the net keys it by epsilon."""

    omega: float
    u: Array | None = None            # (n_out, K) complex
    uhat: Array | None = None         # (n_out, K) complex
    traces: Array | None = None       # (m, n_tracked, n_trace), at trace_steps
    system: CompanionSystem | None = None
    step_doubling_max: float | None = None
    imag_fraction: float | None = None
    # reconstruction residual of the recovered coefficients, per order j
    recovery_residuals: dict[int, float] = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.u)))


@dataclass
class SolutionNet:
    """The epsilon-indexed family of regularised solutions."""

    epsilons: tuple[float, ...]
    records: dict[float, SolveRecord]
    grid: FrequencyGrid

    def record(self, epsilon: float) -> SolveRecord:
        return self.records[epsilon]

    def ok_epsilons(self) -> tuple[float, ...]:
        return tuple(e for e in self.epsilons if self.records[e].ok)

    def sup_norms(self) -> dict[float, float]:
        return {e: self.records[e].sup_norm() for e in self.ok_epsilons()}


#: fewest epsilons a sweep may solve: the net's analyses compare epsilons
MIN_SWEEP = 3


def build_regularised_system(problem: VeryWeakProblem, epsilon: float
                             ) -> CompanionSystem:
    """Regularise coefficients, data and forcing at one epsilon and reduce.
    The system's regularised roots, ``system.principal.regularised``, carry
    the scale omega(epsilon), the one number through which epsilon enters.

    The regularised data and forcing are defined on the problem's frequency
    grid: they read the problem's cached transforms, times this epsilon's
    cut-off transform, at the grid positions of the frequencies asked for.
    The lower-order coefficients and the forcing's time profile are
    continued constantly past [0, T] before mollification, as the roots
    are, so that convolution sees no jump at t = 0 or t = T.
    """
    phi = friedrichs_mollifier()
    w = problem.omega(epsilon)
    reg = RegularisedRoots(problem.family, phi, w)
    phi_w = scale_mollifier(phi, w)
    grid = problem.grid
    rho_hat = GevreyCutoffMollifier(vanishing_moment_mollifier(2), w) \
        .fourier_transform(grid.frequencies)

    def on_grid(transform: Array) -> Callable[[Array], Array]:
        values = transform * rho_hat
        return lambda xi: values[grid.positions(xi)]

    def continued(profile: RoughProfile) -> Callable[[Array], Array]:
        return convolve_profile(extend_profile(
            profile, EDGE_PAD, (0.0, problem.horizon)), phi_w)

    data_hats, space_hat = problem.grid_transforms
    m = problem.order
    entries = [] if problem.lower_terms is None \
        else problem.lower_terms.entries(continued)
    if problem.forcing is not None:
        entries.append((m, continued(problem.forcing[0]), on_grid(space_hat)))
    separable = SeparablePart(m + (problem.forcing is not None),
                              tuple(entries)) if entries else None
    return CompanionSystem(RootValuePrincipal(reg, separable),
                           tuple(on_grid(g) for g in data_hats))


def _prepare(problem: VeryWeakProblem, epsilon: float) -> CompanionSystem:
    """The regularised system at one epsilon, once its box is checked."""
    system = build_regularised_system(problem, epsilon)
    problem.grid.check_fit(data_support_radius(problem.data, problem.forcing),
                           speed_bound(problem.family,
                                       system.principal.regularised.omega),
                           problem.horizon)
    return system


def _integrate(problem: VeryWeakProblem, systems: Sequence[CompanionSystem],
               epsilons: Sequence[float]
               ) -> list[IntegrationResult | WeakHypError]:
    """One :func:`integrate_companion` batch of the prepared systems, on
    the problem's schedule."""
    return integrate_companion(
        systems, problem.grid.frequencies, problem.time_grid, epsilons,
        tracked_indices=problem.tracked_indices,
        output_steps=problem.output_steps, trace_steps=problem.trace_steps)


def _record(problem: VeryWeakProblem, system: CompanionSystem,
            result: IntegrationResult) -> SolveRecord:
    """Synthesise one epsilon's integration and add its diagnostics."""
    reg = system.principal.regularised
    m = problem.order
    grid = problem.grid
    uhat = result.first_component * bracket(grid.frequencies) ** (1 - m)
    u = grid.synthesise(uhat)
    t_diag = np.linspace(0.0, problem.horizon, 9)
    return SolveRecord(
        omega=reg.omega, u=u, uhat=uhat, traces=result.traces, system=system,
        step_doubling_max=result.step_doubling_max,
        imag_fraction=float(np.max(np.abs(u.imag))
                            / max(np.max(np.abs(u)), 1e-300)),
        recovery_residuals={
            j: recover_coefficients(reg, j, 1).reconstruction_residual(t_diag)
            for j in range(1, m + 1)})


def solve_single(problem: VeryWeakProblem, epsilon: float) -> SolveRecord:
    """Run the full pipeline at one epsilon, as the sweep's batch of one."""
    system = _prepare(problem, epsilon)
    result, = _integrate(problem, [system], [epsilon])
    if isinstance(result, WeakHypError):
        raise result
    return _record(problem, system, result)


def solve_very_weak(problem: VeryWeakProblem,
                    epsilons: Sequence[float]) -> SolutionNet:
    """Solve the regularised family over a decreasing epsilon sweep.

    Each epsilon's system is built on its own; then one
    :func:`integrate_companion` call steps every built system as a batch on
    the problem's schedule, and each epsilon is synthesised from its
    member's result into a :class:`SolveRecord` that holds only what
    varies with epsilon.  Package errors (:class:`WeakHypError`, with
    numpy's ``LinAlgError`` raised as :class:`NumericalError`) are attached
    to their epsilon as stage failures and the sweep continues; any other
    exception is a bug and propagates.  Outputs are deterministic given the
    problem.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < MIN_SWEEP:
        raise InvalidParameterError(
            f"epsilon sweep needs at least {MIN_SWEEP} values")
    if any(not 0.0 < e <= 1.0 for e in eps):
        raise InvalidParameterError("epsilon values must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise InvalidParameterError("epsilon sweep must decrease strictly")

    def failed(exc: WeakHypError) -> SolveRecord:
        return SolveRecord(omega=float("nan"),
                           error=f"{type(exc).__name__}: {exc}")

    def attempt(stage: Callable, *args):
        """``stage(*args)``, or a failed record on a package error."""
        try:
            with numerical_errors():
                return stage(*args)
        except WeakHypError as exc:
            return failed(exc)

    records: dict[float, SolveRecord] = {}
    prepared = {}
    for e in eps:
        built = attempt(_prepare, problem, e)
        if isinstance(built, SolveRecord):
            records[e] = built
        else:
            prepared[e] = built
    results = _integrate(problem, list(prepared.values()), list(prepared))
    for (e, built), result in zip(prepared.items(), results):
        records[e] = failed(result) if isinstance(result, WeakHypError) \
            else attempt(_record, problem, built, result)
    return SolutionNet(epsilons=tuple(eps),
                       records={e: records[e] for e in eps},
                       grid=problem.grid)


# -- energy ---------------------------------------------------------------------


@dataclass
class EnergyTrace:
    """E(t) = (S(t) V, V), (n_tracked, n), at the n sampled times."""

    times: Array
    energies: Array


def energy_trace(system: CompanionSystem, traces: Array, times: Array,
                 xis: Sequence[float]) -> EnergyTrace:
    """Energy time series along the traces (m, n_tracked, n) of the
    frequencies ``xis``, whose states were recorded at the n ``times``.

    The principal root values at all of them come from one ``roots`` call,
    and one batched symmetriser over them gives every energy.
    """
    times = np.asarray(times, dtype=float)
    xis = np.asarray(xis, dtype=float)
    lam = np.moveaxis(system.principal.roots(times, xis), 2, 0)  # (K, T, m)
    sym = build_symmetriser(np.sort(lam, axis=-1) / bracket(xis)[:, None, None])
    energies = sym.quadratic_form(np.moveaxis(np.asarray(traces), 0, -1))
    return EnergyTrace(times=times, energies=np.asarray(energies))


# -- classical references -------------------------------------------------------------


def dalembert_reference(g0: RoughProfile, speed: float, t: float,
                        x: Array) -> Array:
    """Zero-velocity wave solution 0.5 (g0(x - ct) + g0(x + ct))."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (np.real(g0.density(x - speed * t))
                  + np.real(g0.density(x + speed * t)))


def transport_reference(g0: RoughProfile, speed: float, t: float,
                        x: Array) -> Array:
    """Solution g0(x + a t) of D_t u - a D_x u = 0."""
    x = np.asarray(x, dtype=float)
    return np.real(g0.density(x + speed * t))
