"""Moderateness exponents, Gevrey-type transform envelopes, net convergence.

These are the quantitative readouts of a solution net: how fast sup-norms
blow up along the sweep (the moderateness exponent), whether transforms obey
decay or growth envelopes of Gevrey type, and whether the net is Cauchy in a
computable seminorm, optionally against a classical reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import AlignmentError, InsufficientDataError, InvalidParameterError
from .roots import bracket
from .solver import SolutionNet

Array = np.ndarray

#: transform amplitudes at or below this fraction of the largest are left out
#: of the envelope fits, which regress their logarithms
_AMPLITUDE_FLOOR = 1e-14

#: fewest epsilon samples the moderateness fit regresses
MIN_FIT_SAMPLES = 4


def linear_fit(x: Array, y: Array) -> tuple[float, float, float]:
    """Ordinary least squares y ~ intercept + slope*x; returns (slope,
    intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("linear fit needs at least 2 samples")
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise InsufficientDataError("linear fit needs distinct abscissae")
    slope = float(xm @ ym) / sxx
    intercept = float(y.mean() - slope * x.mean())
    syy = float(ym @ ym)
    r2 = 1.0 if syy == 0.0 else float((xm @ ym) ** 2 / (sxx * syy))
    return slope, intercept, r2


# -- moderateness ------------------------------------------------------------------


@dataclass(frozen=True)
class ModeratenessReport:
    n_hat: float
    r_squared: float
    sup_table: tuple[tuple[float, float], ...]
    n_hat_drop_largest: float | None
    span_decades: float
    trivially_moderate: bool
    envelope_prefactor: float | None = None
    envelope_c: float | None = None
    envelope_ok: bool = False


def fit_moderateness(net: SolutionNet, s: float) -> ModeratenessReport:
    """Regress the log sup-norms of the solved records on log(1/eps), plus
    the transform envelope.

    The envelope |u_hat| <= c' eps^-N exp(-c eps^(1/s) <xi>^(1/s)) is fitted
    with N pinned to the sup-norm exponent, leaving the two parameters
    (c', c) to least squares over the (eps, xi) samples.  An identically
    zero net short-circuits to the trivially moderate report.
    """
    table = tuple(sorted(net.sup_norms().items(), reverse=True))
    if len(table) < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"moderateness fit needs >= {MIN_FIT_SAMPLES} epsilon samples")
    eps = np.array([row[0] for row in table])
    sups = np.array([row[1] for row in table])
    span = float(np.log10(eps.max() / eps.min()))
    if np.all(sups <= 0.0):
        return ModeratenessReport(n_hat=0.0, r_squared=1.0,
                                  sup_table=table, n_hat_drop_largest=0.0,
                                  span_decades=span, trivially_moderate=True)
    positive = sups > 0.0
    slope, _, r2 = linear_fit(np.log(1.0 / eps[positive]),
                              np.log(sups[positive]))
    drop = None
    if np.count_nonzero(positive) > 2:
        keep = positive.copy()
        keep[int(np.argmax(eps))] = False
        if np.count_nonzero(keep) >= 2:
            drop, _, _ = linear_fit(np.log(1.0 / eps[keep]),
                                    np.log(sups[keep]))
    report = ModeratenessReport(n_hat=float(slope),
                                r_squared=float(r2), sup_table=table,
                                n_hat_drop_largest=drop, span_decades=span,
                                trivially_moderate=False)
    return _with_envelope(report, net, s)


def _with_envelope(report: ModeratenessReport, net: SolutionNet,
                   s: float) -> ModeratenessReport:
    xi = net.grid.frequencies
    br_pow = bracket(xi) ** (1.0 / s)
    rows_y = []
    rows_w = []
    for e in net.ok_epsilons():
        rec = net.record(e)
        amp = np.max(np.abs(rec.uhat), axis=0)
        mask = amp > _AMPLITUDE_FLOOR * max(float(amp.max()), 1e-300)
        y = np.log(amp[mask]) - report.n_hat * np.log(1.0 / e)
        rows_y.append(y)
        rows_w.append(e ** (1.0 / s) * br_pow[mask])
    y_all = np.concatenate(rows_y)
    w_all = np.concatenate(rows_w)
    c_fit, log_prefactor, _ = linear_fit(-w_all, y_all)
    prefactor = float(math.exp(min(log_prefactor, 700.0)))
    return replace(report, envelope_prefactor=prefactor, envelope_c=c_fit,
                   envelope_ok=c_fit > 0.0)


# -- Gevrey transform envelopes -------------------------------------------------------


@dataclass(frozen=True)
class GevreyFourierFit:
    """The fitted rate of the transform envelope: ``decay_delta`` as a decay
    rate, ``growth_nu`` as a growth rate clipped at zero."""

    decay_delta: float
    decay_ok: bool
    growth_nu: float
    zero: bool


def gevrey_fourier_check(uhat: Array, xi: Array, s: float) -> GevreyFourierFit:
    """Fit |u_hat(xi)| against exp(+/- rate <xi>^(1/s)) envelopes.

    A positive fitted decay rate marks Gevrey-function-type data; absent
    decay (rate <= 0) the growth envelope of compactly supported
    ultradistribution type is reported instead, with nu clipped at zero.
    """
    uhat = np.asarray(uhat)
    xi = np.asarray(xi, dtype=float)
    if xi.size == 0 or uhat.size == 0:
        raise InvalidParameterError("empty frequency grid")
    amp = np.abs(uhat)
    top = float(amp.max())
    if top == 0.0:
        return GevreyFourierFit(decay_delta=math.inf, decay_ok=True,
                                growth_nu=0.0, zero=True)
    mask = amp > _AMPLITUDE_FLOOR * top
    weight = bracket(xi[mask]) ** (1.0 / s)
    slope, _, _ = linear_fit(weight, np.log(amp[mask]))
    decay_delta = -float(slope)
    return GevreyFourierFit(decay_delta=decay_delta,
                            decay_ok=decay_delta > 1e-12,
                            growth_nu=max(float(slope), 0.0), zero=False)


def proxy_seminorm(uhat: Array, xi: Array, nu: float, s: float) -> float:
    """sup_xi |u_hat(xi)| exp(-nu <xi>^(1/s)): the computable stand-in for
    ultradistributional smallness."""
    weight = np.exp(-nu * bracket(np.asarray(xi, float)) ** (1.0 / s))
    return float(np.max(np.abs(uhat) * weight))


# -- convergence -------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    seminorm: str
    pairwise: tuple[tuple[float, float, float], ...]  # (eps_hi, eps_lo, d)
    mean_ratio: float | None
    non_cauchy: bool
    limit_epsilon: float
    reference_errors: tuple[tuple[float, float], ...] | None


def _record_distance(net: SolutionNet, a, b, seminorm: str, nu: float,
                     s: float) -> float:
    if seminorm == "sup":
        return float(np.max(np.abs(a.u - b.u)))
    return proxy_seminorm(a.uhat - b.uhat, net.grid.frequencies, nu, s)


def check_seminorm(seminorm: str) -> None:
    """Raise unless ``seminorm`` names a distance the study computes."""
    if seminorm not in ("sup", "fourier_proxy"):
        raise InvalidParameterError(f"unknown seminorm {seminorm!r}")


def check_halving(epsilons: Sequence[float]) -> None:
    """Raise unless each epsilon is half the one before, to within 5 %."""
    for a, b in zip(epsilons, epsilons[1:]):
        if abs(a / b - 2.0) > 0.05:
            raise InvalidParameterError(
                f"sweep must halve epsilon: got ratio {a / b:g}")


def convergence_study(net: SolutionNet, reference: Array | None = None,
                      seminorm: str = "fourier_proxy", nu: float = 1.0,
                      s: float = 2.0,
                      require_ratio_two: bool = True) -> ConvergenceReport:
    """Pairwise seminorm differences along the sweep, plus reference errors.

    Flags non-Cauchy behaviour when consecutive difference ratios exceed one
    twice in a row.  ``reference`` must share the gridded shape of the
    records.
    """
    check_seminorm(seminorm)
    eps = list(net.ok_epsilons())
    if len(eps) < 3:
        raise InsufficientDataError("convergence study needs >= 3 solved epsilons")
    if require_ratio_two:
        check_halving(eps)
    pairwise = []
    for a, b in zip(eps, eps[1:]):
        d = _record_distance(net, net.record(a), net.record(b), seminorm, nu, s)
        pairwise.append((a, b, d))
    ratios = []
    for (_, _, d0), (_, _, d1) in zip(pairwise, pairwise[1:]):
        ratios.append(d1 / d0 if d0 > 0.0 else 0.0)
    non_cauchy = any(r0 > 1.0 and r1 > 1.0
                     for r0, r1 in zip(ratios, ratios[1:]))
    mean_ratio = float(np.mean(ratios)) if ratios else None
    ref_errors = None
    if reference is not None:
        reference = np.asarray(reference)
        ref_errors = []
        for e in eps:
            rec = net.record(e)
            if np.shape(rec.u) != reference.shape:
                raise AlignmentError(
                    f"reference shape {reference.shape} does not match "
                    f"solution shape {np.shape(rec.u)}")
            if seminorm == "sup":
                err = float(np.max(np.abs(rec.u - reference)))
            else:
                err = proxy_seminorm(rec.uhat - net.grid.analyse(reference),
                                     net.grid.frequencies, nu, s)
            ref_errors.append((e, err))
        ref_errors = tuple(ref_errors)
    return ConvergenceReport(seminorm=seminorm, pairwise=tuple(pairwise),
                             mean_ratio=mean_ratio,
                             non_cauchy=non_cauchy, limit_epsilon=eps[-1],
                             reference_errors=ref_errors)
