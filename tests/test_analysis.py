import numpy as np
import pytest

from weakhyp.analysis import (convergence_study, fit_moderateness,
                              gevrey_fourier_check, proxy_seminorm)
from weakhyp.errors import (AlignmentError, InsufficientDataError,
                            InvalidParameterError)
from weakhyp.solver import FrequencyGrid, SolutionNet, SolveRecord


def _synthetic_net(eps_values, u_fn, grid=None):
    grid = grid or FrequencyGrid(32, 8.0)
    records = {}
    for e in eps_values:
        u = u_fn(e, grid)
        records[e] = SolveRecord(omega=e, u=u, uhat=grid.analyse(u),
                                 output_times=(1.0,))
    return SolutionNet(epsilons=tuple(eps_values), records=records,
                       grid=grid, output_times=(1.0,))


def _flat_net(sups):
    """A net whose record at each epsilon is the constant ``sups[e]``, so
    that its sup norm is ``sups[e]``."""
    return _synthetic_net(tuple(sups),
                          lambda e, g: np.full((1, g.points), sups[e]))


def test_exact_power_law_exponent():
    eps = (0.5, 0.25, 0.125, 0.0625, 0.03125)
    report = fit_moderateness(_flat_net({e: e ** -2.0 * 3.0 for e in eps}),
                              s=2.0)
    assert report.n_hat == pytest.approx(2.0, abs=0.1)
    assert report.r_squared > 0.999
    assert abs(report.n_hat - report.n_hat_drop_largest) <= 0.1


def test_constant_net_exponent_zero():
    eps = (0.5, 0.25, 0.125, 0.0625)
    report = fit_moderateness(_flat_net({e: 7.0 for e in eps}), s=2.0)
    assert abs(report.n_hat) <= 0.05


def test_zero_net_trivially_moderate():
    eps = (0.5, 0.25, 0.125, 0.0625)
    report = fit_moderateness(_flat_net({e: 0.0 for e in eps}), s=2.0)
    assert report.trivially_moderate and report.n_hat == 0.0


def test_needs_four_samples():
    with pytest.raises(InsufficientDataError):
        fit_moderateness(_flat_net({0.5: 1.0, 0.25: 2.0, 0.125: 4.0}), s=2.0)


def test_regularised_net_adapter():
    net = _flat_net({0.5: 1.0, 0.25: 2.0, 0.125: 4.0, 0.0625: 8.0})
    report = fit_moderateness(net, s=2.0)
    assert report.n_hat == pytest.approx(1.0, abs=0.01)


def test_envelope_fit_on_synthetic_solution_net():
    grid = FrequencyGrid(64, 10.0)

    def u_fn(e, g):
        x = g.x_nodes
        # widths shrink with eps: transform envelopes open up accordingly
        return np.exp(-(x / (2.0 * e ** 0.25)) ** 2)[None, :] / e

    net = _synthetic_net((0.5, 0.25, 0.125, 0.0625), u_fn, grid)
    report = fit_moderateness(net, s=2.0)
    assert report.envelope_ok and report.envelope_c > 0.0
    assert report.envelope_prefactor > 0.0


def test_gevrey_fourier_decay_and_growth():
    xi = np.linspace(-40.0, 40.0, 401)
    br = np.sqrt(1.0 + xi ** 2)
    decaying = 2.0 * np.exp(-0.7 * br ** 0.5)
    fit = gevrey_fourier_check(decaying, xi, s=2.0)
    assert fit.decay_ok
    assert fit.decay_delta == pytest.approx(0.7, rel=1e-6)

    flat = np.ones_like(xi)
    fit_flat = gevrey_fourier_check(flat, xi, s=2.0)
    assert not fit_flat.decay_ok
    assert fit_flat.growth_nu == pytest.approx(0.0, abs=1e-12)

    zero = gevrey_fourier_check(np.zeros_like(xi), xi, s=2.0)
    assert zero.zero


def test_gevrey_fourier_rejects_empty_grid():
    with pytest.raises(InvalidParameterError):
        gevrey_fourier_check(np.array([]), np.array([]), s=2.0)


def test_proxy_seminorm_monotone_in_nu():
    xi = np.linspace(-10.0, 10.0, 101)
    uhat = np.exp(1j * xi) * (1.0 + np.abs(xi))
    small = proxy_seminorm(uhat, xi, nu=2.0, s=2.0)
    large = proxy_seminorm(uhat, xi, nu=0.5, s=2.0)
    assert small <= large


def test_convergence_identical_entries_zero_distance():
    grid = FrequencyGrid(32, 8.0)
    net = _synthetic_net((0.5, 0.25, 0.125),
                         lambda e, g: np.ones((1, g.points)), grid)
    report = convergence_study(net, seminorm="sup")
    assert all(d == 0.0 for _, _, d in report.pairwise)
    assert not report.non_cauchy


def test_convergence_flags_non_cauchy():
    grid = FrequencyGrid(32, 8.0)
    sizes = {0.5: 1.0, 0.25: 1.1, 0.125: 2.0, 0.0625: 6.0, 0.03125: 20.0}

    def u_fn(e, g):
        return np.full((1, g.points), sizes[e])

    net = _synthetic_net(tuple(sizes), u_fn, grid)
    report = convergence_study(net, seminorm="sup")
    assert report.non_cauchy


def test_convergence_alignment_error():
    grid = FrequencyGrid(32, 8.0)
    net = _synthetic_net((0.5, 0.25, 0.125),
                         lambda e, g: np.ones((1, g.points)), grid)
    with pytest.raises(AlignmentError):
        convergence_study(net, reference=np.ones((2, 7)), seminorm="sup")


def test_convergence_requires_ratio_two():
    grid = FrequencyGrid(32, 8.0)
    net = _synthetic_net((0.5, 0.3, 0.1),
                         lambda e, g: np.ones((1, g.points)), grid)
    with pytest.raises(InvalidParameterError):
        convergence_study(net, seminorm="sup")
    # explicit opt-out accepted
    report = convergence_study(net, seminorm="sup", require_ratio_two=False)
    assert len(report.pairwise) == 2
