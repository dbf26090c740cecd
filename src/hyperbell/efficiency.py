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

from dataclasses import dataclass


# largest N for which 4.0**N is a finite float (4**511 = 2**1022)
FLOAT_BLOCK_CAP = 511


class NoViolationError(ValueError):
    """No detection efficiency in (0, 1] can produce a violation."""


@dataclass(frozen=True, slots=True)
class NoiseParams:
    """Noise model parameters; defaults match the reference experimental figures."""

    epsilon: float = 0.15
    p: float = 0.98
    eta: float = 0.33

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


def noisy_bounds(n_blocks: int, eps: float, p: float) -> tuple[float, float]:
    """(beta_epr', beta_qm') for N blocks at tolerance eps and mixture weight p."""
    if not 1 <= n_blocks <= FLOAT_BLOCK_CAP:
        raise ValueError(f"n_blocks must be in [1, {FLOAT_BLOCK_CAP}], got {n_blocks}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return 2.0**n_blocks + 4.0**n_blocks * eps, p * 4.0**n_blocks + (1.0 - p)


def visibility_factor(eta: float) -> float:
    """Correlation rescaling of the singles-in-denominator estimator: eta/(2-eta)."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return eta / (2.0 - eta)


def expected_estimate(n_blocks: int, noise: NoiseParams) -> float:
    """Mean of the simulator's beta_hat: v * (1 - eps) * (4p)**N, v = eta/(2-eta).

    The simulator's noise model is not the one behind beta_qm'.  In a run of
    one term each block is ideal with probability p, independently of the
    other blocks; an ideal block's outcome product has mean s_c (the menu
    sign of its choice c, since every signed term has quantum value +1) and a
    white-noise block's has mean 0, so E[A B] = prod_c p s_c, p**N times
    the term's sign.  The symmetric flip negates B with probability eps/2:
    E[A B] gains a factor 1 - eps.

    The term's estimate is the ratio (n_pp - n_mm) / (n_total - n_00).  Its
    mean is E[num] / E[den] to first order in 1/shots, and here exactly,
    given a nonempty denominator: the detectors fire independently of the
    outcomes, so each of the d runs with a detection is a coincidence with
    probability eta**2 / (eta (2 - eta)) = v, and E[num | d] = d v E[A B].
    The signed estimate of every one of the 4**N terms is therefore
    v (1 - eps) p**N on average, and so is a uniform subsample scaled up.
    """
    if not 1 <= n_blocks <= FLOAT_BLOCK_CAP:
        raise ValueError(f"n_blocks must be in [1, {FLOAT_BLOCK_CAP}], got {n_blocks}")
    return visibility_factor(noise.eta) * (1.0 - noise.epsilon) * (4.0 * noise.p) ** n_blocks


def eta_threshold(beta_epr: float, beta_qm: float) -> float:
    """Minimum detection efficiency for violation: 2r/(1+r), r = beta_epr/beta_qm.

    r = 1 is allowed and returns 1.0 (no quantum advantage, so only a perfect
    detector reaches even equality); r > 1 admits no violation at all.
    """
    if beta_epr <= 0 or beta_qm <= 0:
        raise ValueError("bounds must be positive")
    r = beta_epr / beta_qm
    if r > 1.0:
        raise NoViolationError(f"bound ratio {r} exceeds 1: no violation at any efficiency")
    return 2.0 * r / (1.0 + r)


@dataclass(frozen=True, slots=True)
class BoundsReport:
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


@dataclass(frozen=True, slots=True)
class MinBlocksResult:
    n_star: int
    table: tuple[BoundsReport, ...]
    eta: float
    eps: float
    p: float
    visibility: float


def min_blocks(eta: float, eps: float, p: float, n_cap: int = 64) -> MinBlocksResult:
    """Smallest N whose noise-adjusted bounds are beaten at efficiency eta.

    Scans N = 1, 2, ... for the first strict crossing and returns it together
    with the bound table for N = 1 .. n_star + 2, clipped at FLOAT_BLOCK_CAP,
    which also caps ``n_cap``.  The ratio r(N) approaches eps/p from above as
    N grows, so eps/p >= eta/(2-eta) rules a crossing out for every N.
    """
    if n_cap > FLOAT_BLOCK_CAP:
        raise ValueError(f"n_cap must be at most {FLOAT_BLOCK_CAP}, got {n_cap}")
    v = visibility_factor(eta)
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if eps / p >= v:
        raise NoViolationError(
            f"asymptotic ratio eps/p = {eps / p:.6g} is not below the "
            f"visibility factor {v:.6g}: no block count admits a violation"
        )
    n_star = next((n for n in range(1, n_cap + 1) if bounds_report(n, eps, p).violated(eta)), None)
    if n_star is None:
        raise NoViolationError(f"no violation found for N up to {n_cap}")
    last = min(n_star + 2, FLOAT_BLOCK_CAP)
    table = tuple(bounds_report(n, eps, p) for n in range(1, last + 1))
    return MinBlocksResult(n_star, table, eta, eps, p, v)
