"""Noise-adjusted bounds and detection-efficiency thresholds.

With imperfect preparation the local-realistic side of the inequality picks
up a tolerance term and the quantum side a mixing loss:

    beta_epr' = 2**N + 4**N * eps        beta_qm' = p * 4**N + (1 - p)

where eps bounds the residual error of the certainty relations and p is the
weight of the intended state in the prepared mixture.

Detectors that fire independently with probability eta, combined with the
coincidence estimator that keeps single-sided detections in its denominator,
rescale every measured correlation by eta**2 / (1 - (1-eta)**2) = eta/(2-eta).
A violation survives iff  eta/(2-eta) * beta_qm' > beta_epr'  (strict), which
solves to the threshold  eta_min = 2r/(1+r)  with r = beta_epr'/beta_qm'.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .pauli import _check_integer, _check_real, _Checked

# largest N for which 4.0**N is a finite float (4**511 = 2**1022)
FLOAT_BLOCK_CAP = 511


class NoViolationError(ValueError):
    """No detection efficiency in (0, 1] can produce a violation."""


class NoiseParams(_Checked, namedtuple("NoiseParams", "epsilon p eta", defaults=(0.15, 0.98, 0.33))):
    """Noise model parameters, any real numbers kept as Python floats; defaults match the reference figures."""

    __slots__ = ()

    def _check(self) -> NoiseParams:
        # built by tuple.__new__, as the class would check the checked floats again
        floats = _check_real("epsilon", self.epsilon), _check_real("p", self.p), _check_real("eta", self.eta, positive=True)
        return tuple.__new__(type(self), floats)


def noisy_bounds(n_blocks: int, eps: float, p: float) -> tuple[float, float]:
    """(beta_epr', beta_qm') for N blocks at tolerance eps and mixture weight p."""
    n_blocks = _check_integer("n_blocks", n_blocks, 1, FLOAT_BLOCK_CAP)
    eps, p = _check_real("eps", eps), _check_real("p", p)
    return 2.0**n_blocks + 4.0**n_blocks * eps, p * 4.0**n_blocks + (1.0 - p)


def visibility_factor(eta: float) -> float:
    """Correlation rescaling of the singles-in-denominator estimator: eta/(2-eta)."""
    eta = _check_real("eta", eta, positive=True)
    return eta / (2.0 - eta)


def expected_estimate(n_blocks: int, noise: NoiseParams) -> float:
    """Mean of the simulator's beta_hat: v * (1 - eps) * (4p)**N, v = eta/(2-eta).

    The simulator's noise model is not the one behind beta_qm'.  It draws a
    term's counts from one multinomial, the per-term law derived in
    ``montecarlo``'s docstring, under which a coincidence's outcome product
    has mean c = s (1 - eps) p**N for a term of sign s.  The term's estimate
    (n_pp - n_mm) / (n_total - n_00) then has mean v c, exactly, given a
    nonempty denominator: each of the d runs with a detection is a
    coincidence with probability eta**2 / (eta (2 - eta)) = v, independently
    of its outcomes, so E[num | d] = d v c.  The signed estimate of every one
    of the 4**N terms is therefore v (1 - eps) p**N on average, and so is a
    uniform subsample scaled up.
    """
    n_blocks = _check_integer("n_blocks", n_blocks, 1, FLOAT_BLOCK_CAP)
    return visibility_factor(noise.eta) * (1.0 - noise.epsilon) * (4.0 * noise.p) ** n_blocks


class BoundsReport(NamedTuple):
    """Ideal and noise-adjusted bounds for one scenario size."""

    n_blocks: int
    beta_epr: int
    beta_qm: int
    beta_epr_noisy: float
    beta_qm_noisy: float
    ratio: float
    eta_min: float

    def violated(self, eta: float) -> bool:
        """Strict violation test at efficiency eta: eta/(2-eta) * beta_qm' > beta_epr'."""
        return visibility_factor(eta) * self.beta_qm_noisy > self.beta_epr_noisy


def bounds_report(n_blocks: int, eps: float, p: float) -> BoundsReport:
    """Assemble the full report; eta_min > 1 means no efficiency suffices."""
    n_blocks = _check_integer("n_blocks", n_blocks, 1, FLOAT_BLOCK_CAP)
    epr_noisy, qm_noisy = noisy_bounds(n_blocks, eps, p)
    r = epr_noisy / qm_noisy
    return BoundsReport(
        n_blocks=n_blocks,
        beta_epr=2**n_blocks,
        beta_qm=4**n_blocks,
        beta_epr_noisy=epr_noisy,
        beta_qm_noisy=qm_noisy,
        ratio=r,
        eta_min=2.0 * r / (1.0 + r),
    )


class MinBlocksResult(NamedTuple):
    n_star: int
    table: tuple[BoundsReport, ...]
    visibility: float


def min_blocks(eta: float, eps: float, p: float, n_cap: int = 64) -> MinBlocksResult:
    """Smallest N whose noise-adjusted bounds are beaten at efficiency eta.

    Scans N = 1, 2, ... for the first strict crossing and returns it together
    with the bound table for N = 1 .. n_star + 2, clipped at FLOAT_BLOCK_CAP,
    which also caps ``n_cap``.  The ratio r(N) approaches eps/p from above as
    N grows, so eps/p >= eta/(2-eta) rules a crossing out for every N.
    """
    n_cap = _check_integer("n_cap", n_cap, 1, FLOAT_BLOCK_CAP)
    eta, p, eps = _check_real("eta", eta, positive=True), _check_real("p", p, positive=True), _check_real("eps", eps)
    v = visibility_factor(eta)
    if eps / p >= v:
        raise NoViolationError(
            f"asymptotic ratio eps/p = {eps / p:.6g} is not below the "
            f"visibility factor {v:.6g}: no block count admits a violation"
        )
    table = []
    for n in range(1, n_cap + 1):
        table.append(bounds_report(n, eps, p))
        if table[-1].violated(eta):
            break
    else:
        raise NoViolationError(f"no violation found for N up to {n_cap}")
    n_star = len(table)
    table += [bounds_report(n, eps, p) for n in range(n_star + 1, min(n_star + 2, FLOAT_BLOCK_CAP) + 1)]
    return MinBlocksResult(n_star, tuple(table), v)
