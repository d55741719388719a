"""Reaction laws: monotone rate curves and the convex cost they induce.

A reaction law is the derivative data of a convex reaction potential: a
strictly increasing rate curve rho -> rate(rho, x), its slope, its inverse,
its infimum as rho -> 0+, and the closed-form cost of running the reaction
channel at a given rate. Coefficients may vary (affinely) in space.

Three families are registered:

  "power"        rate = w * rho^(1+beta) - q          (w > 0, beta > -1, q >= 0)
  "log"          rate = w * log(rho) - q              (w > 0)
  "signed-power" rate = w * sgn(rho-1)|rho-1|^alpha - q   (w > 0, 0 < alpha <= 1)

The rate floor (infimum over densities) is -q, -inf and -(w+q) respectively;
it bounds from below how fast mass can be injected by the reaction channel.
Each law's cost integrates its price log(density_at_rate(s)) + v from the
zero rate, so its slope is the free-energy slope (the signed-power family
through Gauss hypergeometric antiderivatives). One table maps each kind to
its parameter names and builder; everything that needs either reads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy import special

__all__ = [
    "Coefficient",
    "ReactionLaw",
    "REACTION_KINDS",
    "REACTION_PARAMS",
    "as_coefficient",
    "coefficient_at",
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


def coefficient_at(coeff: Coefficient, x: np.ndarray | float) -> np.ndarray:
    """Value c0 + c1 * x of an affine spatial coefficient at positions x."""
    c0, c1 = coeff
    return c0 + c1 * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ReactionLaw:
    """Strictly increasing rate curve with explicit inverse, slope and cost.

    rate(rho, x) is the net removal rate the reaction produces at density
    rho; negative values mean mass creation. cost(z, x, v) is the convex
    cost of rate z at or above the floor, given the drift value v at x.
    check_coefficients(x) raises ValueError unless the coefficient
    constraints hold at the positions x; for affine coefficients the two
    endpoints of an interval decide. All callables broadcast over numpy
    arrays in their arguments.
    """

    label: str
    params: Mapping[str, Coefficient] = field(repr=False)
    rate: Callable[..., np.ndarray] = field(repr=False)
    rate_derivative: Callable[..., np.ndarray] = field(repr=False)
    density_at_rate: Callable[..., np.ndarray] = field(repr=False)
    rate_floor: Callable[..., np.ndarray] = field(repr=False)
    cost: Callable[..., np.ndarray] = field(repr=False)
    check_coefficients: Callable[[np.ndarray], None] = field(repr=False)

    def canonical_key(self) -> str:
        """Deterministic string identifying the law, used in report hashes."""
        parts = [self.label]
        for name in sorted(self.params):
            c0, c1 = self.params[name]
            parts.append(f"{name}={c0!r},{c1!r}")
        return ";".join(parts)


def _require(holds: np.ndarray, constraint: str) -> None:
    if not np.all(holds):
        raise ValueError(f"reaction coefficients must satisfy {constraint} on the whole interval")


def _hyp_plus_integral(u, alpha) -> np.ndarray:
    """Antiderivative of log(1 + v**(1/alpha)) on [0, u], u >= 0."""
    u = np.asarray(u, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    y = np.power(u, 1.0 / alpha)
    hyp = special.hyp2f1(1.0, alpha, alpha + 1.0, -y)
    return u * (np.log1p(y) - (1.0 - hyp) / alpha)


def _hyp_minus_integral(u, alpha) -> np.ndarray:
    """Antiderivative of log(1 - v**(1/alpha)) on [0, u], 0 <= u <= 1.

    The hypergeometric form degrades right at u = 1, where the exact value
    -(digamma(alpha + 1) + gamma) is used instead.
    """
    u = np.asarray(u, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    u = np.clip(u, 0.0, 1.0)
    at_edge = u >= 1.0 - 1e-12
    u_safe = np.where(at_edge, 0.5, u)
    y = np.power(u_safe, 1.0 / alpha)
    hyp = special.hyp2f1(1.0, alpha, alpha + 1.0, y)
    inner = u_safe * (np.log1p(-y) + (hyp - 1.0) / alpha)
    edge_value = -(special.digamma(alpha + 1.0) + np.euler_gamma)
    return np.where(at_edge, edge_value, inner)


def _make_power(w: Coefficient, beta: Coefficient, q: Coefficient) -> dict:
    def rate(rho, x):
        rho = np.asarray(rho, dtype=float)
        wv, bv, qv = coefficient_at(w, x), coefficient_at(beta, x), coefficient_at(q, x)
        return wv * np.power(rho, 1.0 + bv) - qv

    def rate_derivative(rho, x):
        rho = np.asarray(rho, dtype=float)
        wv, bv = coefficient_at(w, x), coefficient_at(beta, x)
        return wv * (1.0 + bv) * np.power(rho, bv)

    def density_at_rate(z, x):
        z = np.asarray(z, dtype=float)
        wv, bv, qv = coefficient_at(w, x), coefficient_at(beta, x), coefficient_at(q, x)
        u = (z + qv) / wv
        if np.any(u < 0.0):
            raise ValueError("rate below the reaction floor has no preimage density")
        return np.power(u, 1.0 / (1.0 + bv))

    def rate_floor(x):
        return -coefficient_at(q, x)

    def cost(z, x, v):
        wv, bv, qv = coefficient_at(w, x), coefficient_at(beta, x), coefficient_at(q, x)
        one_b = 1.0 + bv

        def primitive(r):
            r = np.asarray(r, dtype=float)
            safe = np.where(r > 0.0, r, 1.0)
            return np.where(
                r > 0.0,
                wv * np.power(safe, one_b) * (np.log(safe) - 1.0 / one_b + v),
                0.0,
            )

        rho1 = np.power(np.maximum((z + qv) / wv, 0.0), 1.0 / one_b)
        rho0 = np.power(qv / wv, 1.0 / one_b)
        return primitive(rho1) - primitive(rho0)

    def check_coefficients(x):
        _require(coefficient_at(w, x) > 0.0, "w > 0")
        _require(1.0 + coefficient_at(beta, x) > 0.0, "1 + beta > 0")
        _require(coefficient_at(q, x) >= 0.0, "q >= 0")

    return dict(rate=rate, rate_derivative=rate_derivative, density_at_rate=density_at_rate,
                rate_floor=rate_floor, cost=cost, check_coefficients=check_coefficients)


def _make_log(w: Coefficient, q: Coefficient) -> dict:
    def rate(rho, x):
        rho = np.asarray(rho, dtype=float)
        return coefficient_at(w, x) * np.log(rho) - coefficient_at(q, x)

    def rate_derivative(rho, x):
        rho = np.asarray(rho, dtype=float)
        return coefficient_at(w, x) / rho

    def density_at_rate(z, x):
        z = np.asarray(z, dtype=float)
        return np.exp((z + coefficient_at(q, x)) / coefficient_at(w, x))

    def rate_floor(x):
        return np.full_like(np.asarray(x, dtype=float), -np.inf)

    def cost(z, x, v):
        wv, qv = coefficient_at(w, x), coefficient_at(q, x)
        l1 = (z + qv) / wv
        l0 = qv / wv
        return wv * (0.5 * (l1 * l1 - l0 * l0) + v * (l1 - l0))

    def check_coefficients(x):
        _require(coefficient_at(w, x) > 0.0, "w > 0")

    return dict(rate=rate, rate_derivative=rate_derivative, density_at_rate=density_at_rate,
                rate_floor=rate_floor, cost=cost, check_coefficients=check_coefficients)


def _make_signed_power(w: Coefficient, alpha: Coefficient, q: Coefficient) -> dict:
    def rate(rho, x):
        rho = np.asarray(rho, dtype=float)
        wv, av, qv = coefficient_at(w, x), coefficient_at(alpha, x), coefficient_at(q, x)
        u = rho - 1.0
        return wv * np.sign(u) * np.power(np.abs(u), av) - qv

    def rate_derivative(rho, x):
        # Unbounded at rho = 1 when alpha < 1; callers only evaluate at
        # densities the inverse produced, which stay off the kink.
        rho = np.asarray(rho, dtype=float)
        wv, av = coefficient_at(w, x), coefficient_at(alpha, x)
        u = np.abs(rho - 1.0)
        with np.errstate(divide="ignore"):
            return wv * av * np.power(u, av - 1.0)

    def density_at_rate(z, x):
        z = np.asarray(z, dtype=float)
        wv, av, qv = coefficient_at(w, x), coefficient_at(alpha, x), coefficient_at(q, x)
        u = (z + qv) / wv
        rho = 1.0 + np.sign(u) * np.power(np.abs(u), 1.0 / av)
        if np.any(rho < 0.0):
            raise ValueError("rate below the reaction floor has no preimage density")
        return rho

    def rate_floor(x):
        return -(coefficient_at(w, x) + coefficient_at(q, x))

    def cost(z, x, v):
        wv, av, qv = coefficient_at(w, x), coefficient_at(alpha, x), coefficient_at(q, x)
        u1 = (z + qv) / wv  # signed offset coordinate of the target density
        u0 = qv / wv
        up = np.maximum(u1, 0.0)
        plus0 = _hyp_plus_integral(u0, av)
        above = wv * (_hyp_plus_integral(up, av) - plus0 + v * (up - u0))
        u1_neg = np.clip(-u1, 0.0, 1.0)
        a_part = wv * (plus0 + v * u0)
        b_part = wv * (_hyp_minus_integral(u1_neg, av) + v * u1_neg)
        below = -(a_part + b_part)
        return np.where(u1 >= 0.0, above, below)

    def check_coefficients(x):
        _require(coefficient_at(w, x) > 0.0, "w > 0")
        av = coefficient_at(alpha, x)
        _require((av > 0.0) & (av <= 1.0), "0 < alpha <= 1")
        _require(coefficient_at(q, x) >= 0.0, "q >= 0")

    return dict(rate=rate, rate_derivative=rate_derivative, density_at_rate=density_at_rate,
                rate_floor=rate_floor, cost=cost, check_coefficients=check_coefficients)


# kind -> (parameter names in canonical order, builder taking them by name
# and returning the law's callables keyed by ReactionLaw field)
_LAWS = {
    "power": (("w", "beta", "q"), _make_power),
    "log": (("w", "q"), _make_log),
    "signed-power": (("w", "alpha", "q"), _make_signed_power),
}
REACTION_KINDS = tuple(_LAWS)
REACTION_PARAMS = {kind: names for kind, (names, _) in _LAWS.items()}


def make_reaction(kind: str, **params) -> ReactionLaw:
    """Build a registered reaction law.

    Coefficients accept a float (constant in space) or an (intercept, slope)
    pair for affine spatial variation. The kind, the parameter names and
    that every coefficient is finite are checked here; the coefficient
    constraints (w > 0, 1 + beta > 0, 0 < alpha <= 1, q >= 0) depend on the
    interval, so build_model checks them through check_coefficients at the
    interval's endpoints.
    """
    if kind not in _LAWS:
        raise ValueError(f"unknown reaction kind {kind!r}; registered kinds: {REACTION_KINDS}")
    names, builder = _LAWS[kind]
    if set(params) != set(names):
        raise ValueError(f"{kind} reaction needs exactly {sorted(names)}, got {sorted(params)}")
    coeffs = {name: as_coefficient(params[name]) for name in names}
    for name, coeff in coeffs.items():
        if not np.all(np.isfinite(coeff)):
            raise ValueError(f"{kind} reaction coefficient {name} must be finite, "
                             f"got {params[name]!r}")
    return ReactionLaw(label=kind, params=coeffs, **builder(**coeffs))
