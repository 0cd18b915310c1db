"""Per-frequency integration, synthesis and energy traces.

Space is one-dimensional and periodic: the box is sized so that the causal
cone of the compactly supported data never meets its periodic images within
the time horizon, making the discrete transform an exact stand-in for the
line transform.  Each frequency carries an independent companion ODE,
integrated with fixed-step fourth-order Runge-Kutta.  The epsilons of a
sweep share the time and frequency grids, so all epsilons and frequencies
are stepped as one batch in a single thread; no operation mixes either, so
each epsilon's bits equal its solo run's and each frequency's bits do not
depend on which others share the batch.  Every coefficient read, by the
integrator, the stability check and the energy traces, goes through the
companion parts' one tabulation call each; the integrator, which alone
knows the stage times a step reads, owns the blocks it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, DivergenceError,
                     InvalidParameterError, StabilityError, WeakHypError,
                     numerical_errors)
from .mollifiers import (GevreyCutoffMollifier, convolve_profile,
                         friedrichs_mollifier, scale_mollifier,
                         vanishing_moment_mollifier)
from .profiles import RoughProfile
from .recovery import recover_coefficients
from .reduction import (CompanionSystem, ForcingPart, Index, InitialData,
                        LowerOrderPart, RootValuePrincipal,
                        build_companion, companion_matrix)
from .roots import (OmegaScale, RegularisedRoots, RootFamily, bracket,
                    speed_bound)
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
    traces: Array           # (m, n_tracked, nt + 1)
    first_component: Array  # (n_out, K)
    final_state: Array      # (m, K)
    step_doubling_max: float


# bytes of the last rows and forcing values that one block of steps reads
# for the whole batch: a step reads each member's m x K rows (real, or
# complex with lower-order terms) and its K complex forcing values at two
# stage times, four on a step-doubling step
_ROW_BLOCK_BYTES = 1 << 18


def _estimate_norm(rows: Callable[[Index], Array], index: Array,
                   br: Array) -> float:
    """Largest spectral norm of A + B at the times ``index`` selects;
    ``rows`` gives the last rows of A + B."""
    mats = companion_matrix(np.moveaxis(rows(index), 1, 0).astype(complex),
                            br)
    return float(np.linalg.svd(mats, compute_uv=False)[..., 0].max())


def integrate_companion(systems: Sequence[CompanionSystem], xi: Array,
                        t_grid: Array,
                        epsilons: Sequence[float | None] | None = None,
                        tracked_indices: Sequence[int] = (),
                        output_steps: Sequence[int] = ()
                        ) -> list[IntegrationResult | WeakHypError]:
    """Fixed-step RK4 for D_t V = (A + B) V + F over a batch of systems.

    The members of the batch, one companion system each (one epsilon of a
    sweep, named by ``epsilons``), share the frequencies ``xi`` and the time
    grid; a lone system is the batch of one.  One step loop advances the
    state (members, m, K) of all epsilons and frequencies, and no operation
    mixes either, so each member's bits equal its solo run's and do not
    depend on which frequencies share the batch.  Members must share their
    order and whether they have lower-order terms and forcing.

    Step i evaluates its stages at t_i, t_i + h/2 and t_i + h.  Every
    ``max(1, nt // 100)``-th step is repeated as two half steps, which add
    the stage times t_i + h/4 and t_i + 3h/4, and the difference spot-checks
    each member's local error.  The companion parts tabulate only these
    stage times.  This function owns the blocks: it walks the steps in
    blocks of at most ``_ROW_BLOCK_BYTES`` of last rows and forcing for the
    whole batch, reads each block's rows (principal plus lower, summed once)
    and forcing once, and the stages index them.

    Where the coefficients are constant, as outside the layers of width
    2 omega around each jump of a mollified piecewise-constant coefficient,
    one RK4 step is a fixed linear map V -> P V.  A member takes it on step
    i only when its row providers report ``steady`` over every lattice
    interval the step reads, quarter points included, so that its rows are
    bitwise equal there at every frequency; this is read once from the time
    profiles while the member sets up, and no rows are compared.  P and the
    half-step map of the step-doubling check come from pushing the m basis
    vectors through the staged step, from the rows at the step where some
    member enters a constant stretch, and are applied as m broadcast
    multiply-adds; the other members take the staged step.  All of this is
    elementwise in (member, frequency), so a member's bits never depend on
    the batch, the frequencies or the block length.  The map is the RK4
    map, so the stability budget below governs it too, and its outputs
    differ from the staged steps' by rounding only.  A forced problem
    always takes the staged steps.

    Failures are per member, and the others step on.  Before stepping,
    each member must satisfy h * max||A + B|| <= 0.5 at nine grid times,
    read as one block, or it gets a :class:`StabilityError` that reports
    the required step.  A non-finite state, checked every 64 steps and
    after the last one, gives its member a :class:`DivergenceError`; the
    member keeps its slot with its state zeroed, and since every operation
    is elementwise the others' bits do not change.  Stepping stops once no
    member is left.  A package error while a member sets up (``LinAlgError``
    raised as :class:`NumericalError`) is its failure too; any other
    exception propagates.  Returns, per member in order, its result or its
    error.
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
    # one row and one forcing dtype for the batch keeps each member's bits
    m = systems[0].order
    lowered = systems[0].lower is not None
    forced = systems[0].forcing is not None
    if any((s.order, s.lower is not None, s.forcing is not None)
           != (m, lowered, forced) for s in systems):
        raise InvalidParameterError("batched systems must share their order "
                                    "and which parts they have")

    tracked = tuple(int(i) for i in tracked_indices)
    out_steps = tuple(int(i) for i in output_steps)
    stride = max(1, nt // 100)

    # stage times as indices q on the quarter-step lattice t_0 + q h / 4: the
    # half-step grid, plus the quarter steps of the step-doubling steps
    doubled = 4 * np.arange(0, nt, stride)
    lattice = np.union1d(np.arange(0, 4 * nt + 1, 2),
                         np.concatenate([doubled + 1, doubled + 3]))
    stage_times = t_grid[0] + 0.25 * h * lattice
    # position[q] is the index of lattice point q in ``lattice``
    position = np.searchsorted(lattice, np.arange(4 * nt + 1))
    starts = position[::4]

    br = bracket(xi)
    ibr = 1j * br
    sample = starts[::max(1, nt // 8)]

    def set_up(system: CompanionSystem, epsilon: float | None) -> tuple:
        prow = system.principal.row_provider(stage_times, xi)
        brow = system.lower.row_provider(stage_times, xi) \
            if lowered else None

        def rows(index: Index) -> Array:
            block = prow(index)
            return block if brow is None else block + brow(index)

        norm = _estimate_norm(rows, sample, br)
        if h * norm > 0.5 + 1e-12:
            required_step = 0.5 / norm
            required = int(math.ceil((t_grid[-1] - t_grid[0]) / required_step))
            raise StabilityError(
                f"step {h:.3e} violates stability budget at epsilon "
                f"{epsilon}: h*||A+B|| = {h * norm:.3f} > 0.5; need at least "
                f"{required} steps", required_step=required_step,
                required_steps=required, epsilon=epsilon)
        fprov = system.forcing.values_provider(stage_times, xi) \
            if forced else None
        steady = prow.steady if brow is None else prow.steady & brow.steady
        # step i reads the lattice points from starts[i] to starts[i + 1]
        constant = np.logical_and.reduceat(steady, starts[:-1]) & (not forced)
        return (rows, fprov, constant), system.V0(xi).astype(complex)

    # outputs by live slot; taken before the set-up's tables and the loop's
    # temporaries, they let those be freed from the top of the heap
    traces = np.zeros((len(systems), m, len(tracked), nt + 1), dtype=complex)
    first = np.zeros((len(systems), len(out_steps), xi.size), dtype=complex)
    outcome: list[IntegrationResult | WeakHypError | None] = \
        [None] * len(systems)
    readers = {}   # member -> (rows, forcing values, constant steps)
    initial = {}   # member -> V0
    for member, system in enumerate(systems):
        try:
            with numerical_errors():
                readers[member], initial[member] = set_up(system, eps[member])
        except WeakHypError as exc:
            outcome[member] = exc
    live = np.array(list(readers), dtype=int)  # members that set up
    # (live members, nt): whether each member takes the step map on each step
    constant = np.array([readers[e][2] for e in live]).reshape(live.size, nt)
    # principal rows are real, lower-order rows and forcing values complex
    row_bytes = (16 if lowered else 8) * m + (16 if forced else 0)
    block_steps = max(1, _ROW_BLOCK_BYTES // (2 * row_bytes * max(live.size, 1)
                                             * max(xi.size, 1)))
    # one buffer holds every block's rows; no block holds more step-doubling
    # steps, and so more lattice points, than the first, which starts on one
    buffer = np.empty((live.size, starts[min(nt, block_steps)] + 1, m,
                       xi.size), dtype=complex if lowered else float)

    def read_block(index: slice) -> tuple:
        rows = buffer[:, :index.stop - index.start]
        for slot, member in enumerate(live):
            rows[slot] = readers[member][0](index)
        force = np.stack([readers[e][1](index) for e in live]) \
            if forced else None
        return index.start, rows, force

    def rhs(block: tuple, q: int, state: Array, members: Index) -> Array:
        lo, row_block, force_block = block
        k = position[q] - lo
        out = np.empty_like(state)
        out[:, :-1] = ibr * state[:, 1:]
        last = (row_block[members, k] * state).sum(axis=1)
        if force_block is not None:
            last = last + force_block[members, k]
        out[:, -1] = 1j * last
        return out

    def rk4_step(block: tuple, q0: int, dq: int, dt: float, state: Array,
                 members: Index = slice(None)) -> Array:
        """One step of length dt with stages at lattice q0, q0+dq, q0+2dq,
        for the block's ``members`` whose states are ``state``."""
        k1 = rhs(block, q0, state, members)
        k2 = rhs(block, q0 + dq, state + 0.5 * dt * k1, members)
        k3 = rhs(block, q0 + dq, state + 0.5 * dt * k2, members)
        k4 = rhs(block, q0 + 2 * dq, state + dt * k3, members)
        return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def staged_step(block: tuple, i: int, doubled: bool, state: Array,
                    members: Index = slice(None)) -> tuple:
        """Step i by staged RK4, and on a step-doubling step also as two
        half steps (else None)."""
        full = rk4_step(block, 4 * i, 2, h, state, members)
        if not doubled:
            return full, None
        half = rk4_step(block, 4 * i, 1, 0.5 * h, state, members)
        return full, rk4_step(block, 4 * i + 2, 1, 0.5 * h, half, members)

    def step_maps(block: tuple, q: int, shape: tuple) -> tuple[Array, Array]:
        """The RK4 maps of a full and of a half step, (m, members, m, K)
        each, for rows held constant at their values at lattice point q:
        slice j is the image of the j-th basis vector.  Every operation is
        elementwise in (member, frequency), so an entry's map depends on
        its rows alone."""
        full = np.empty((m,) + shape, dtype=complex)
        half = np.empty_like(full)
        for j in range(m):
            unit = np.zeros(shape, dtype=complex)
            unit[:, j] = 1.0
            full[j] = rk4_step(block, q, 0, h, unit)
            half[j] = rk4_step(block, q, 0, 0.5 * h, unit)
        return full, half

    def apply(step_map: Array, state: Array) -> Array:
        out = step_map[0] * state[:, :1]
        for j in range(1, m):
            out += step_map[j] * state[:, j:j + 1]
        return out

    columns = list(tracked)
    worst_double = np.zeros(live.size)

    def record(step: int, v: Array) -> None:
        traces[:live.size, ..., step] = v[:, :, columns]
        if step in out_steps:
            first[:live.size, out_steps.index(step)] = v[:, 0]

    v = np.array([initial[e] for e in live]).reshape(live.size, m, xi.size)
    record(0, v)
    # which members were constant on the previous step, and the step maps
    # built when one of them last entered a constant stretch
    previous = np.zeros(live.size, dtype=bool)
    maps = None
    diverged = 0  # members whose state went non-finite
    # overflow of a diverging state is reported via DivergenceError, not as
    # a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nt):
            if diverged == live.size:
                break
            if i % block_steps == 0:
                block = read_block(slice(starts[i],
                                         starts[min(nt, i + block_steps)] + 1))
            doubled = i % stride == 0
            const = constant[:, i]
            if not const.any():
                v_new, half = staged_step(block, i, doubled, v)
            else:
                if (const > previous).any():
                    maps = step_maps(block, 4 * i, v.shape)
                v_new = apply(maps[0], v)
                if doubled:
                    half = apply(maps[1], apply(maps[1], v))
                # members off their constant stretch take the staged step
                staged = np.flatnonzero(~const)
                if staged.size:
                    v_new[staged], s_half = staged_step(block, i, doubled,
                                                        v[staged], staged)
                    if doubled:
                        half[staged] = s_half
            previous = const
            if doubled:
                scale = np.abs(v_new).max(axis=(1, 2))
                scale[scale == 0.0] = 1.0
                # fmax, like max() on floats, ignores a NaN estimate
                worst_double = np.fmax(
                    worst_double, np.abs(v_new - half).max(axis=(1, 2)) / scale)
            v = v_new
            if i % 64 == 0 or i == nt - 1:
                finite = np.isfinite(v.view(float)).all(axis=(1, 2))
                for slot in np.flatnonzero(~finite):
                    if outcome[live[slot]] is None:
                        bad = np.flatnonzero(
                            ~np.isfinite(v[slot]).all(axis=0))[0]
                        outcome[live[slot]] = DivergenceError(
                            f"non-finite state at t={t_grid[i + 1]:g}",
                            xi=float(xi[bad]), epsilon=eps[live[slot]])
                        diverged += 1
                    # a diverged member keeps its slot with a zero state
                    v[slot] = 0.0
            record(i + 1, v)

    for slot, member in enumerate(live):
        if outcome[member] is None:
            outcome[member] = IntegrationResult(
                traces=traces[slot],
                first_component=first[slot], final_state=v[slot],
                step_doubling_max=float(worst_double[slot]))
    return outcome


# -- problem description and the sweep pipeline -----------------------------------


@dataclass
class VeryWeakProblem:
    """Everything needed to run the regularise/recover/reduce/solve pipeline.

    ``lower_terms`` holds the rough lower-order coefficients as profiles;
    each epsilon mollifies them on its own scale.

    The problem owns the schedule every epsilon shares: at construction
    each output time snaps to its nearest step of :attr:`time_grid` and
    each tracked frequency to its nearest grid frequency, once each, so the
    solution, its energy traces and any reference are taken at grid values.
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
    traces: Array | None = None       # (m, n_tracked, nt + 1)
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
                             ) -> tuple[CompanionSystem, RegularisedRoots]:
    """Regularise coefficients, data and forcing at one epsilon and reduce;
    returns the system and the regularised roots, which carry the scale
    omega(epsilon), the one number through which epsilon enters.

    The regularised data and forcing are defined on the problem's frequency
    grid: they read the problem's cached transforms, times this epsilon's
    cut-off transform, at the grid positions of the frequencies asked for.
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

    data_hats, space_hat = problem.grid_transforms
    principal = RootValuePrincipal(reg)
    lower = problem.lower_terms
    if lower is not None:
        lower = replace(lower, terms=tuple(
            replace(term, coefficient=convolve_profile(term.coefficient,
                                                       phi_w))
            for term in lower.terms))
    forcing = None
    if problem.forcing is not None:
        forcing = ForcingPart(
            time_values=convolve_profile(problem.forcing[0], phi_w),
            xhat=on_grid(space_hat))
    data = InitialData(tuple(on_grid(g) for g in data_hats))
    system = build_companion(principal, lower=lower, forcing=forcing, data=data)
    return system, reg


def _prepare(problem: VeryWeakProblem, epsilon: float) -> tuple:
    """The regularised system at one epsilon, once its box is checked."""
    system, reg = build_regularised_system(problem, epsilon)
    problem.grid.check_fit(data_support_radius(problem.data, problem.forcing),
                           speed_bound(problem.family, reg.omega),
                           problem.horizon)
    return system, reg


def _integrate(problem: VeryWeakProblem, prepared: Sequence[tuple],
               epsilons: Sequence[float]
               ) -> list[IntegrationResult | WeakHypError]:
    """One :func:`integrate_companion` batch of the prepared systems, on
    the problem's schedule."""
    return integrate_companion(
        [system for system, _ in prepared], problem.grid.frequencies,
        problem.time_grid, epsilons, tracked_indices=problem.tracked_indices,
        output_steps=problem.output_steps)


def _record(problem: VeryWeakProblem, prepared: tuple,
            result: IntegrationResult) -> SolveRecord:
    """Synthesise one epsilon's integration and add its diagnostics."""
    system, reg = prepared
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
    prepared = _prepare(problem, epsilon)
    result, = _integrate(problem, [prepared], [epsilon])
    if isinstance(result, WeakHypError):
        raise result
    return _record(problem, prepared, result)


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
    """E(t) = (S(t) V, V) at one tracked frequency, at the sampled times."""

    times: Array
    energies: Array


def energy_trace(system: CompanionSystem, trace: Array, times: Array,
                 xi: float, sample_stride: int = 1) -> EnergyTrace:
    """Energy time series along the trace of the frequency ``xi``, at every
    ``sample_stride``-th time.

    The principal root values at all sampled times come from one ``roots``
    call, and one batched symmetriser over them gives every sampled energy.
    """
    times = np.asarray(times, dtype=float)
    trace = np.asarray(trace)
    idx = np.arange(0, times.size, sample_stride)
    br = float(bracket(np.array(xi)))
    lam = system.principal.roots(times[idx], np.array([float(xi)]))[:, :, 0]
    sym = build_symmetriser(np.sort(lam, axis=-1) / br)
    energies = np.asarray(sym.quadratic_form(trace[:, idx].T))
    return EnergyTrace(times=times[idx], energies=energies)


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
