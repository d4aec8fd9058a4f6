"""Divergence functions and the threshold equations that bound them.

Four closely related divergences drive everything here:

* the rate divergence ``p*ln(p/q) - (p - q)`` (the KL divergence between
  Poisson intensities p and q),
* its dual with the two arguments swapped,
* its reflection with both parameters complemented, ``(1-p, 1-q)``,
* the Bernoulli KL divergence, which is exactly rate + reflected rate.

For a finite level ``m > 0`` ``solve_thresholds`` finds the points on the edges
of an off-diagonal square where the one-sided divergences against the
diagonal corner reach ``m``.  The two-sided divergence at that threshold
pair stays within a uniform constant factor of ``m`` (it tends to 4 as
``m -> 0``, and to 2 / 0 as ``m -> oo`` in the lower / upper regime);
``divergence_ratio`` measures the factor.  This bounded ratio is what
keeps the separated-approximation degree poly-logarithmic in the target
accuracy.

It solves by bracketed bisection: each of its four defining equations is
strictly monotone on its bracket, so bisection is guaranteed and the cost is
irrelevant at setup time.

Caution for extreme levels: the lower-regime threshold ``q_m`` behaves
like ``exp(-(m+1))`` and underflows float64 once ``m`` exceeds roughly
708.  ``ThresholdPair`` therefore carries ``neg_log_q_m`` exactly; the
``q_m`` field is its (possibly underflowed) exponential.  Ratio
evaluation works in the log form and is accurate for all ``m``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DivergenceKind",
    "DivergenceDomainError",
    "Regime",
    "SolverError",
    "ThresholdPair",
    "divergence",
    "divergence_ratio",
    "solve_thresholds",
    "P_CLAMP_LEVEL",
    "Q_CLAMP_LEVEL",
]

ArrayLike = Union[float, np.ndarray]

# Closed-form clamp levels: rate(2||1) = 2 ln 2 - 1 and rate(1||2) = 1 - ln 2.
P_CLAMP_LEVEL = 2.0 * math.log(2.0) - 1.0
Q_CLAMP_LEVEL = 1.0 - math.log(2.0)

_MAX_BISECT = 200
# a root is accepted where |f(x) - m| <= _BISECT_TOL * max(1, m)
_BISECT_TOL = 1e-12


class DivergenceDomainError(ValueError):
    """Raised when a divergence is infinite or undefined at the input."""


class SolverError(ArithmeticError):
    """Raised when a threshold equation cannot be solved to tolerance."""


class DivergenceKind(enum.Enum):
    """Which divergence a kernel exponent uses."""

    RATE = "rate"
    RATE_DUAL = "rate-dual"
    RATE_REFLECTED = "rate-reflected"
    BERNOULLI = "bernoulli"


class Regime(enum.Enum):
    """Which off-diagonal square a threshold pair lives on.

    LOWER is the below-diagonal configuration (1,2)x(0,1); UPPER is the
    above-diagonal configuration (0,1)x(1,2).
    """

    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class ThresholdPair:
    """Threshold points (p_m, q_m) at level m for one regime.

    ``neg_log_q_m`` equals ``-ln(q_m)`` computed without underflow; for the
    lower regime it is large and positive once m is large, for the upper
    regime it is in ``[-ln 2, 0)``.
    """

    m: float
    p_m: float
    q_m: float
    regime: Regime
    neg_log_q_m: float


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _rate(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # p ln(p/q) - (p - q) in C. Loader's bd0 form, whose terms are of size
    # |p - q|, so nothing cancels near p = q.  (p - q)/q rounds to -1 once
    # p < 2^-54 q; held at the next double above -1, the error left,
    # p (ln(q/p) - 36.7), is below q's rounding, and p = 0 gives the limit q.
    d = p - q
    return p * np.log1p(np.maximum(d / q, -1.0 + 2.0 ** -53)) - d


def _bernoulli(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # p ln(p/q) + (1-p) ln((1-p)/(1-q)) = rate + reflected rate
    return _rate(p, q) + _rate(1.0 - p, 1.0 - q)


def divergence(kind: DivergenceKind, p: ArrayLike, q: ArrayLike) -> ArrayLike:
    """Evaluate a divergence, elementwise over broadcast inputs.

    Domains: RATE needs p >= 0, q > 0; RATE_DUAL the same with roles
    swapped; RATE_REFLECTED needs p <= 1, q < 1; BERNOULLI needs
    p in [0, 1] and q in (0, 1).  The rate divergence is evaluated in
    the bd0 form ``p log1p((p - q)/q) - (p - q)``, accurate to rounding
    near p = q; its limit at p = 0 is q, so boundary values of p need no
    branch of their own.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    q_arr = np.asarray(q, dtype=np.float64)
    scalar = p_arr.ndim == 0 and q_arr.ndim == 0
    if not (np.all(np.isfinite(p_arr)) and np.all(np.isfinite(q_arr))):
        raise DivergenceDomainError("divergence infinite/undefined at input: non-finite argument")

    if kind is DivergenceKind.RATE:
        if np.any(p_arr < 0.0) or np.any(q_arr <= 0.0):
            raise DivergenceDomainError("divergence infinite/undefined at input: need p >= 0, q > 0")
        out = _rate(p_arr, q_arr)
    elif kind is DivergenceKind.RATE_DUAL:
        if np.any(q_arr < 0.0) or np.any(p_arr <= 0.0):
            raise DivergenceDomainError("divergence infinite/undefined at input: need q >= 0, p > 0")
        out = _rate(q_arr, p_arr)
    elif kind is DivergenceKind.RATE_REFLECTED:
        if np.any(p_arr > 1.0) or np.any(q_arr >= 1.0):
            raise DivergenceDomainError("divergence infinite/undefined at input: need p <= 1, q < 1")
        out = _rate(1.0 - p_arr, 1.0 - q_arr)
    elif kind is DivergenceKind.BERNOULLI:
        if np.any((p_arr < 0.0) | (p_arr > 1.0)) or np.any((q_arr <= 0.0) | (q_arr >= 1.0)):
            raise DivergenceDomainError(
                "divergence infinite/undefined at input: need p in [0,1], q in (0,1)")
        out = _bernoulli(p_arr, q_arr)
    else:  # pragma: no cover
        raise ValueError(f"unknown divergence kind {kind!r}")

    if scalar:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# threshold solvers
# ---------------------------------------------------------------------------

def _bisect_increasing(f, lo: float, hi: float, m: float) -> float:
    """Root of the increasing function f(x) = m on [lo, hi] by bisection."""
    scale = max(1.0, abs(m))
    x = lo
    for _ in range(_MAX_BISECT):
        # halves first: lo + hi overflows on the bracket [0, m + 1] near the top of the range
        x = 0.5 * lo + 0.5 * hi
        r = f(x) - m
        if abs(r) <= _BISECT_TOL * scale:
            return x
        if r < 0.0:
            lo = x
        else:
            hi = x
    if abs(f(x) - m) <= 1e3 * _BISECT_TOL * scale:
        return x
    raise SolverError(
        f"threshold equation not solved to tol={_BISECT_TOL:g} within {_MAX_BISECT} iterations; "
        f"bracket [{lo!r}, {hi!r}], level m={m!r}")


def _rate_against_one(p: float) -> float:
    # rate(p || 1) = p ln p - p + 1, with the limit 1 at p = 0
    if p <= 0.0:
        return 1.0
    return p * math.log(p) - p + 1.0


def solve_thresholds(m: float, regime: Regime) -> ThresholdPair:
    """Both threshold points at level m, with the underflow-safe log form.

    The four defining equations, each solved by bisection on a bracket
    where it is strictly monotone:

    * lower p-edge: ``min(2, p')`` where p' > 1 solves
      ``p' ln p' - (p' - 1) = m``; clamped to 2 exactly when
      ``m >= 2 ln 2 - 1`` (``P_CLAMP_LEVEL``);
    * lower q-edge: the q in (0, 1) with ``ln(1/q) - (1 - q) = m``, solved
      for ``t = -ln q`` as ``t - 1 + e^{-t} = m``, so ``neg_log_q_m`` stays
      exact where ``q_m`` underflows (m beyond ~708);
    * upper p-edge: the smallest p >= 0 with ``p ln p - (p - 1) <= m``;
      clamped to 0 exactly when m >= 1;
    * upper q-edge: ``min(2, q')`` where q' > 1 solves
      ``q' - 1 - ln q' = m``; clamped to 2 exactly when ``m >= 1 - ln 2``
      (``Q_CLAMP_LEVEL``).

    Each root is accepted once its equation holds to ``1e-12 * max(1, m)``.
    Raises ValueError unless m is finite and > 0.
    """
    if not (0.0 < m < math.inf):
        raise ValueError(f"level m must be finite and positive, got {m!r}")
    if regime is Regime.LOWER:
        p_m = 2.0 if m >= P_CLAMP_LEVEL else _bisect_increasing(_rate_against_one, 1.0, 2.0, m)
        t = _bisect_increasing(lambda t: t - 1.0 + math.exp(-t), 0.0, m + 1.0, m)
        return ThresholdPair(m=m, p_m=p_m, q_m=math.exp(-t), regime=regime, neg_log_q_m=t)
    # rate(p || 1) decreases from 1 to 0 on (0, 1); flip sign to bisect
    p_m = 0.0 if m >= 1.0 else _bisect_increasing(lambda p: -_rate_against_one(p), 0.0, 1.0, -m)
    q_m = (2.0 if m >= Q_CLAMP_LEVEL
           else _bisect_increasing(lambda q: q - 1.0 - math.log(q), 1.0, 2.0, m))
    return ThresholdPair(m=m, p_m=p_m, q_m=q_m, regime=regime, neg_log_q_m=-math.log(q_m))


def threshold_residual(pair: ThresholdPair) -> tuple[float, float]:
    """Forward-evaluated defining equations minus m, (p-side, q-side).

    Sides with an active clamp report 0.  The q-side of the lower regime
    is evaluated in the log parameterization, so it stays meaningful when
    q_m itself has underflowed.
    """
    m = pair.m
    if pair.regime is Regime.LOWER:
        p_res = 0.0 if pair.p_m >= 2.0 else _rate_against_one(pair.p_m) - m
        t = pair.neg_log_q_m
        q_res = (t - 1.0 + math.exp(-t)) - m
        return p_res, q_res
    p_res = 0.0 if pair.p_m <= 0.0 else _rate_against_one(pair.p_m) - m
    q_res = 0.0 if pair.q_m >= 2.0 else (pair.q_m - 1.0 - math.log(pair.q_m)) - m
    return p_res, q_res


def divergence_ratio(m: float, regime: Regime) -> float:
    """Two-sided divergence at the threshold pair, relative to the level m.

    Returns ``rate(p_m || q_m) / m``.  Tends to 4 as m -> 0 in both
    regimes; tends to 2 (lower) and 0 (upper) as m -> oo.
    """
    pair = solve_thresholds(m, regime)
    if regime is Regime.LOWER:
        # rate(p||q) = p (ln p + t) - p + e^{-t} with t = -ln q; exact in t,
        # so no loss when q_m underflows
        p, t = pair.p_m, pair.neg_log_q_m
        value = p * (math.log(p) + t) - p + math.exp(-t)
        if math.isinf(value):
            # t ~ m overflows the product near the top of the range: divide by m first
            return p * ((math.log(p) + t) / m) - (p - math.exp(-t)) / m
    else:
        value = divergence(DivergenceKind.RATE, pair.p_m, pair.q_m)
    return value / m
