"""Reaction laws: monotone rate curves mapping density to net removal rate.

A reaction law is the derivative data of a convex reaction potential: a
strictly increasing rate curve rho -> rate(rho, x), its slope, its inverse,
and its infimum as rho -> 0+. Coefficients may vary (affinely) in space.

Three families are registered:

  "power"        rate = w * rho^(1+beta) - q          (w > 0, beta > -1, q >= 0)
  "log"          rate = w * log(rho) - q              (w > 0)
  "signed-power" rate = w * sgn(rho-1)|rho-1|^alpha - q   (w > 0, 0 < alpha <= 1)

The rate floor (infimum over densities) is -q, -inf and -(w+q) respectively;
it bounds from below how fast mass can be injected by the reaction channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Coefficient",
    "ReactionLaw",
    "REACTION_KINDS",
    "as_coefficient",
    "make_reaction",
]

# A spatial coefficient is c0 + c1 * x, stored as the pair (c0, c1).
Coefficient = tuple[float, float]


def as_coefficient(value: float | tuple[float, float] | list[float]) -> Coefficient:
    """Normalize a scalar or (intercept, slope) pair into a Coefficient."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(
                f"coefficient pair must have exactly 2 entries, got {len(value)}"
            )
        return (float(value[0]), float(value[1]))
    return (float(value), 0.0)


def _coeff_values(coeff: Coefficient, x: np.ndarray | float) -> np.ndarray:
    c0, c1 = coeff
    return c0 + c1 * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ReactionLaw:
    """Strictly increasing rate curve with explicit inverse and slope.

    rate(rho, x) is the net removal rate the reaction produces at density
    rho; negative values mean mass creation. All callables broadcast over
    numpy arrays in both arguments.
    """

    label: str
    params: Mapping[str, Coefficient] = field(repr=False)
    rate: Callable[..., np.ndarray] = field(repr=False)
    rate_derivative: Callable[..., np.ndarray] = field(repr=False)
    density_at_rate: Callable[..., np.ndarray] = field(repr=False)
    rate_floor: Callable[..., np.ndarray] = field(repr=False)

    def canonical_key(self) -> str:
        """Deterministic string identifying the law, used in report hashes."""
        parts = [self.label]
        for name in sorted(self.params):
            c0, c1 = self.params[name]
            parts.append(f"{name}={c0!r},{c1!r}")
        return ";".join(parts)


def _require_positive(name: str, values: np.ndarray) -> None:
    if np.any(values <= 0.0):
        raise ValueError(f"reaction coefficient {name} must stay positive on the domain")


def _make_power(w: Coefficient, beta: Coefficient, q: Coefficient) -> ReactionLaw:
    def rate(rho, x):
        rho = np.asarray(rho, dtype=float)
        wv, bv, qv = _coeff_values(w, x), _coeff_values(beta, x), _coeff_values(q, x)
        return wv * np.power(rho, 1.0 + bv) - qv

    def rate_derivative(rho, x):
        rho = np.asarray(rho, dtype=float)
        wv, bv = _coeff_values(w, x), _coeff_values(beta, x)
        return wv * (1.0 + bv) * np.power(rho, bv)

    def density_at_rate(z, x):
        z = np.asarray(z, dtype=float)
        wv, bv, qv = _coeff_values(w, x), _coeff_values(beta, x), _coeff_values(q, x)
        u = (z + qv) / wv
        if np.any(u < 0.0):
            raise ValueError("rate below the reaction floor has no preimage density")
        return np.power(u, 1.0 / (1.0 + bv))

    def rate_floor(x):
        return -_coeff_values(q, x)

    return ReactionLaw(
        label="power",
        params={"w": w, "beta": beta, "q": q},
        rate=rate,
        rate_derivative=rate_derivative,
        density_at_rate=density_at_rate,
        rate_floor=rate_floor,
    )


def _make_log(w: Coefficient, q: Coefficient) -> ReactionLaw:
    def rate(rho, x):
        rho = np.asarray(rho, dtype=float)
        return _coeff_values(w, x) * np.log(rho) - _coeff_values(q, x)

    def rate_derivative(rho, x):
        rho = np.asarray(rho, dtype=float)
        return _coeff_values(w, x) / rho

    def density_at_rate(z, x):
        z = np.asarray(z, dtype=float)
        return np.exp((z + _coeff_values(q, x)) / _coeff_values(w, x))

    def rate_floor(x):
        return np.full_like(np.asarray(x, dtype=float), -np.inf)

    return ReactionLaw(
        label="log",
        params={"w": w, "q": q},
        rate=rate,
        rate_derivative=rate_derivative,
        density_at_rate=density_at_rate,
        rate_floor=rate_floor,
    )


def _make_signed_power(w: Coefficient, alpha: Coefficient, q: Coefficient) -> ReactionLaw:
    def rate(rho, x):
        rho = np.asarray(rho, dtype=float)
        wv, av, qv = _coeff_values(w, x), _coeff_values(alpha, x), _coeff_values(q, x)
        u = rho - 1.0
        return wv * np.sign(u) * np.power(np.abs(u), av) - qv

    def rate_derivative(rho, x):
        # Unbounded at rho = 1 when alpha < 1; callers only evaluate at
        # densities the inverse produced, which stay off the kink.
        rho = np.asarray(rho, dtype=float)
        wv, av = _coeff_values(w, x), _coeff_values(alpha, x)
        u = np.abs(rho - 1.0)
        with np.errstate(divide="ignore"):
            return wv * av * np.power(u, av - 1.0)

    def density_at_rate(z, x):
        z = np.asarray(z, dtype=float)
        wv, av, qv = _coeff_values(w, x), _coeff_values(alpha, x), _coeff_values(q, x)
        u = (z + qv) / wv
        rho = 1.0 + np.sign(u) * np.power(np.abs(u), 1.0 / av)
        if np.any(rho < 0.0):
            raise ValueError("rate below the reaction floor has no preimage density")
        return rho

    def rate_floor(x):
        return -(_coeff_values(w, x) + _coeff_values(q, x))

    return ReactionLaw(
        label="signed-power",
        params={"w": w, "alpha": alpha, "q": q},
        rate=rate,
        rate_derivative=rate_derivative,
        density_at_rate=density_at_rate,
        rate_floor=rate_floor,
    )


REACTION_KINDS = ("power", "log", "signed-power")


def make_reaction(kind: str, **params) -> ReactionLaw:
    """Build a registered reaction law.

    Coefficients accept a float (constant in space) or an (intercept, slope)
    pair for affine spatial variation. Positivity of w (and of 1+beta, alpha)
    is checked at the endpoints of a unit probe; model assembly re-validates
    on the actual domain.
    """
    coeffs = {name: as_coefficient(value) for name, value in params.items()}
    probe = np.array([0.0, 1.0])
    if kind == "power":
        expected = {"w", "beta", "q"}
        if set(coeffs) != expected:
            raise ValueError(f"power reaction needs exactly {sorted(expected)}, got {sorted(coeffs)}")
        _require_positive("w", _coeff_values(coeffs["w"], probe))
        _require_positive("1+beta", 1.0 + _coeff_values(coeffs["beta"], probe))
        if np.any(_coeff_values(coeffs["q"], probe) < 0.0):
            raise ValueError("power reaction requires q >= 0")
        return _make_power(coeffs["w"], coeffs["beta"], coeffs["q"])
    if kind == "log":
        expected = {"w", "q"}
        if set(coeffs) != expected:
            raise ValueError(f"log reaction needs exactly {sorted(expected)}, got {sorted(coeffs)}")
        _require_positive("w", _coeff_values(coeffs["w"], probe))
        return _make_log(coeffs["w"], coeffs["q"])
    if kind == "signed-power":
        expected = {"w", "alpha", "q"}
        if set(coeffs) != expected:
            raise ValueError(
                f"signed-power reaction needs exactly {sorted(expected)}, got {sorted(coeffs)}"
            )
        _require_positive("w", _coeff_values(coeffs["w"], probe))
        alpha = _coeff_values(coeffs["alpha"], probe)
        if np.any(alpha <= 0.0) or np.any(alpha > 1.0):
            raise ValueError("signed-power reaction requires 0 < alpha <= 1")
        if np.any(_coeff_values(coeffs["q"], probe) < 0.0):
            raise ValueError("signed-power reaction requires q >= 0")
        return _make_signed_power(coeffs["w"], coeffs["alpha"], coeffs["q"])
    raise ValueError(f"unknown reaction kind {kind!r}; registered kinds: {REACTION_KINDS}")
