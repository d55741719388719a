"""Model assembly: drift, boundary data, and the reaction-cost calculus.

A Model bundles everything a solver step needs on a fixed interval:

  * the drift potential and its gradient,
  * positive Dirichlet boundary densities and the reservoir potential they
    induce (log density + drift at each endpoint, extended affinely inside),
  * a reaction law together with the convex cost of running the reaction
    channel at a given rate, its slope (a price), and the inverse map from
    price back to rate.

The cost is built so that its slope at the rate produced by density r equals
the free-energy slope log r + drift; this single identity ties the transport
substeps to the reaction-diffusion-drift evolution and is what the audit
verifies on samples.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import integrate, special

from .reactions import Coefficient, ReactionLaw, as_coefficient

logger = logging.getLogger(__name__)

__all__ = [
    "AuditCheck",
    "ModelAudit",
    "FreeEnergy",
    "Model",
    "build_model",
    "reservoir_potential_from_boundary",
    "validate_assumptions",
]

_ROUNDTRIP_TOL = 1e-8
_CONVEXITY_SLACK = -1e-9


@dataclass(frozen=True)
class AuditCheck:
    """One audited assumption: identifier, verdict, and the worst sample seen."""

    check_id: str
    ok: bool
    worst: float
    note: str = ""


@dataclass(frozen=True)
class ModelAudit:
    """Constants and sampled checks backing the structural estimates.

    s is the smallest zero-rate (equilibrium) density over the domain, s1 the
    barrier window edge, b0 a magnitude scale for the rate near density one,
    and c0 bounds the destruction rate per unit density on (0, s1] — the
    constant driving the lower density envelope. A non-finite c0 is recorded
    as a failed check rather than an abort.
    """

    lip_drift: float
    lip_reservoir: float
    lip_boundary_density: float
    s: float
    s1: float
    b0: float
    c0: float
    checks: tuple[AuditCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


@dataclass(frozen=True)
class FreeEnergy:
    """Boltzmann-type free energy density z log z - z + drift * z + 1.

    Normalized so the drift-weighted equilibrium exp(-drift) has density
    value 1 - exp(-drift) and the uniform state at zero drift has zero total
    energy on a unit interval.
    """

    drift: Callable[[np.ndarray], np.ndarray]

    def density(self, z, x) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0):
            raise ValueError("free energy is undefined for negative densities")
        v = self.drift(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            zlogz = np.where(z > 0.0, z * np.log(np.where(z > 0.0, z, 1.0)), 0.0)
        return zlogz - z + v * z + 1.0

    def total(self, rho, x, cell_width: float) -> float:
        """Midpoint-rule total energy of cell densities rho at centers x."""
        return float(np.sum(self.density(rho, x)) * cell_width)

    def slope(self, z, x) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if np.any(z <= 0.0):
            raise ValueError("free-energy slope is undefined at zero density")
        return np.log(z) + self.drift(np.asarray(x, dtype=float))

    def slope_inv(self, p, x) -> np.ndarray:
        return np.exp(np.asarray(p, dtype=float) - self.drift(np.asarray(x, dtype=float)))

    def conjugate(self, p, x) -> np.ndarray:
        """Legendre transform: sup_z (p z - density(z, x)) = exp(p - drift) - 1."""
        return self.slope_inv(p, x) - 1.0


def _affine_callable(coeff: Coefficient) -> Callable[[np.ndarray], np.ndarray]:
    c0, c1 = coeff

    def evaluate(x):
        return c0 + c1 * np.asarray(x, dtype=float)

    return evaluate


def reservoir_potential_from_boundary(
    boundary_density: tuple[float, float],
    drift: Callable[[float], float],
    x_lo: float,
    x_hi: float,
) -> tuple[float, float]:
    """Endpoint reservoir potentials log(rho) + drift for Dirichlet data.

    Raises ValueError when either boundary density is non-positive, since the
    reservoir price of such data would be undefined.
    """
    lo, hi = float(boundary_density[0]), float(boundary_density[1])
    if lo <= 0.0 or hi <= 0.0:
        raise ValueError(
            f"boundary densities must be positive, got ({lo!r}, {hi!r})"
        )
    return (
        math.log(lo) + float(drift(x_lo)),
        math.log(hi) + float(drift(x_hi)),
    )


def _coeff_at(coeff: Coefficient, x) -> np.ndarray:
    c0, c1 = coeff
    return c0 + c1 * np.asarray(x, dtype=float)


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


@dataclass(frozen=True)
class Model:
    """Interval model: drift, reservoir data, reaction and its cost calculus."""

    x_lo: float
    x_hi: float
    reaction: ReactionLaw
    drift_coeff: Coefficient
    boundary_density: tuple[float, float]
    psi_lo: float
    psi_hi: float
    audit: ModelAudit | None = field(default=None, compare=False)

    # -- drift ---------------------------------------------------------

    def drift(self, x) -> np.ndarray:
        return _coeff_at(self.drift_coeff, x)

    def drift_gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.drift_coeff[1])

    # -- reservoir -----------------------------------------------------

    def reservoir_potential(self, x) -> np.ndarray:
        """Endpoint potentials extended affinely across the interval."""
        x = np.asarray(x, dtype=float)
        t = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.psi_lo + t * (self.psi_hi - self.psi_lo)

    @property
    def reservoir_lipschitz(self) -> float:
        return abs(self.psi_hi - self.psi_lo) / (self.x_hi - self.x_lo)

    # -- reaction-cost calculus ----------------------------------------

    def rate_floor(self, x) -> np.ndarray:
        return self.reaction.rate_floor(x)

    def cost_slope(self, z, x) -> np.ndarray:
        """Marginal cost of the reaction channel at rate z: log density + drift."""
        r = self.reaction.density_at_rate(z, x)
        if np.any(r <= 0.0):
            raise ValueError("cost slope diverges at the rate floor")
        return np.log(r) + self.drift(x)

    def rate_at_price(self, p, x) -> np.ndarray:
        """Inverse of cost_slope: the rate whose marginal cost equals p."""
        p = np.asarray(p, dtype=float)
        r = np.exp(p - self.drift(x))
        return self.reaction.rate(r, x)

    def rate_at_price_derivative(self, p, x) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        r = np.exp(p - self.drift(x))
        return self.reaction.rate_derivative(r, x) * r

    def cost(self, z, x) -> np.ndarray:
        """Convex cost of running the reaction channel at rate z.

        Rates below the floor return +inf; the floor itself gets the finite
        limiting value. Registered laws evaluate in closed form (the
        signed-power family through Gauss hypergeometric antiderivatives);
        other laws fall back to adaptive quadrature of the slope.
        """
        z = np.asarray(z, dtype=float)
        x = np.asarray(x, dtype=float)
        z_b, x_b = np.broadcast_arrays(z, x)
        floor = self.reaction.rate_floor(x_b)
        below = z_b < floor
        z_clip = np.where(below, floor, z_b)
        label = self.reaction.label
        if label == "power":
            out = self._cost_power(z_clip, x_b)
        elif label == "log":
            out = self._cost_log(z_clip, x_b)
        elif label == "signed-power":
            out = self._cost_signed_power(z_clip, x_b)
        else:
            out = self._cost_quadrature(z_clip, x_b)
        out = np.where(below, np.inf, out)
        if out.ndim == 0:
            return out[()]
        return out

    def _cost_power(self, z, x) -> np.ndarray:
        p = self.reaction.params
        w = _coeff_at(p["w"], x)
        beta = _coeff_at(p["beta"], x)
        q = _coeff_at(p["q"], x)
        v = self.drift(x)
        one_b = 1.0 + beta

        def primitive(r):
            r = np.asarray(r, dtype=float)
            safe = np.where(r > 0.0, r, 1.0)
            return np.where(
                r > 0.0,
                w * np.power(safe, one_b) * (np.log(safe) - 1.0 / one_b + v),
                0.0,
            )

        rho1 = np.power(np.maximum((z + q) / w, 0.0), 1.0 / one_b)
        rho0 = np.power(q / w, 1.0 / one_b)
        return primitive(rho1) - primitive(rho0)

    def _cost_log(self, z, x) -> np.ndarray:
        p = self.reaction.params
        w = _coeff_at(p["w"], x)
        q = _coeff_at(p["q"], x)
        v = self.drift(x)
        l1 = (z + q) / w
        l0 = q / w
        return w * (0.5 * (l1 * l1 - l0 * l0) + v * (l1 - l0))

    def _cost_signed_power(self, z, x) -> np.ndarray:
        p = self.reaction.params
        w = _coeff_at(p["w"], x)
        alpha = _coeff_at(p["alpha"], x)
        q = _coeff_at(p["q"], x)
        v = self.drift(x)
        u1 = (z + q) / w  # signed offset coordinate of the target density
        u0 = q / w
        above = self._signed_power_branch(np.maximum(u1, 0.0), u0, alpha, v, w)
        u1_neg = np.clip(-u1, 0.0, 1.0)
        a_part = w * (_hyp_plus_integral(u0, alpha) + v * u0)
        b_part = w * (_hyp_minus_integral(u1_neg, alpha) + v * u1_neg)
        below = -(a_part + b_part)
        return np.where(u1 >= 0.0, above, below)

    @staticmethod
    def _signed_power_branch(u1, u0, alpha, v, w) -> np.ndarray:
        return w * (
            _hyp_plus_integral(u1, alpha)
            - _hyp_plus_integral(u0, alpha)
            + v * (u1 - u0)
        )

    def _cost_quadrature(self, z, x) -> np.ndarray:
        out = np.empty(np.shape(z), dtype=float)
        it = np.nditer([np.asarray(z), np.asarray(x)], flags=["multi_index"])
        for z_i, x_i in it:
            val, _ = integrate.quad(
                lambda s: float(self.cost_slope(s, float(x_i))),
                0.0,
                float(z_i),
                epsabs=1e-12,
                epsrel=1e-10,
                limit=200,
            )
            out[it.multi_index] = val
        return out

    def cost_conjugate(self, p, x) -> np.ndarray:
        """Legendre transform of the cost: p * rate_at_price(p) - cost(...)."""
        h = self.rate_at_price(p, x)
        return np.asarray(p, dtype=float) * h - self.cost(h, x)

    # -- misc ------------------------------------------------------------

    @property
    def free_energy(self) -> FreeEnergy:
        return FreeEnergy(drift=self.drift)

    def with_audit(self, audit: ModelAudit) -> "Model":
        return replace(self, audit=audit)


def build_model(
    x_lo: float,
    x_hi: float,
    reaction: ReactionLaw,
    *,
    drift: float | tuple[float, float] | list[float] = 0.0,
    boundary_density: float | tuple[float, float] | list[float] = 1.0,
    audit_budget: int = 128,
    run_audit: bool = True,
) -> Model:
    """Assemble and audit a model on the interval (x_lo, x_hi).

    drift and boundary_density accept scalars or pairs; a scalar drift means
    a flat potential, a scalar boundary density applies to both endpoints.
    Raises ValueError when no density produces rate zero anywhere on the
    domain (the reaction could then never sit still and the cost calculus
    would have an empty interior).
    """
    x_lo = float(x_lo)
    x_hi = float(x_hi)
    if not x_hi > x_lo:
        raise ValueError(f"interval is empty: ({x_lo!r}, {x_hi!r})")
    drift_coeff = as_coefficient(drift)
    if isinstance(boundary_density, (tuple, list)):
        bd = (float(boundary_density[0]), float(boundary_density[1]))
    else:
        bd = (float(boundary_density), float(boundary_density))

    probe_x = np.linspace(x_lo, x_hi, 5)
    floor = np.asarray(reaction.rate_floor(probe_x), dtype=float)
    if np.any(floor >= 0.0):
        raise ValueError(
            "no positive density produces rate zero on part of the domain "
            f"(rate floor {float(np.max(floor))!r}); the model's equilibrium density is undefined"
        )

    drift_fn = _affine_callable(drift_coeff)
    psi_lo, psi_hi = reservoir_potential_from_boundary(bd, drift_fn, x_lo, x_hi)
    model = Model(
        x_lo=x_lo,
        x_hi=x_hi,
        reaction=reaction,
        drift_coeff=drift_coeff,
        boundary_density=bd,
        psi_lo=psi_lo,
        psi_hi=psi_hi,
    )
    if run_audit:
        model = model.with_audit(validate_assumptions(model, sample_budget=audit_budget))
    return model


def _superlinear_offsets(model: Model, z_grid: np.ndarray, x: float) -> dict[float, float]:
    costs = model.cost(z_grid, x)
    return {
        L: float(np.min(costs - L * np.abs(z_grid))) for L in (0.0, 1.0, 10.0)
    }


def _slope_escapes(model: Model, x: float, L: float) -> bool:
    """True when the marginal cost exceeds +L at some rate and drops below -L
    at some admissible rate, so cost(z) - L|z| is coercive on both sides."""
    z = 1.0
    for _ in range(80):
        if float(model.cost_slope(z, x)) > L:
            break
        z *= 2.0
    else:
        return False
    floor = float(model.rate_floor(x))
    if np.isfinite(floor):
        gap = 1.0
        for _ in range(200):
            z = floor + gap
            if float(model.cost_slope(z, x)) < -L:
                return True
            gap *= 0.5
        return False
    z = -1.0
    for _ in range(80):
        if float(model.cost_slope(z, x)) < -L:
            return True
        z *= 2.0
    return False


def validate_assumptions(model: Model, *, sample_budget: int = 128) -> ModelAudit:
    """Sample the model's structural assumptions and fit its audit constants.

    The checks never abort: a failed assumption is recorded with its worst
    sample so downstream estimates can refuse to certify rather than crash.
    """
    if sample_budget < 100:
        raise ValueError(f"sample_budget must be at least 100, got {sample_budget}")

    n_x = max(8, int(round(math.sqrt(sample_budget))))
    n_r = max(16, sample_budget // n_x)
    xs = np.linspace(model.x_lo, model.x_hi, n_x)
    densities = np.geomspace(1e-6, 1e3, n_r)
    checks: list[AuditCheck] = []

    # Monotonicity of the rate curve on each vertical slice.
    worst_gap = np.inf
    for x in xs:
        rates = model.reaction.rate(densities, x)
        worst_gap = min(worst_gap, float(np.min(np.diff(rates))))
    checks.append(
        AuditCheck("rate-strictly-increasing", worst_gap > 0.0, worst_gap)
    )

    # Inverse consistency: density -> rate -> density.
    worst = 0.0
    for x in xs:
        rates = model.reaction.rate(densities, x)
        back = model.reaction.density_at_rate(rates, x)
        worst = max(worst, float(np.max(np.abs(back - densities) / np.maximum(1.0, densities))))
    checks.append(AuditCheck("rate-inverse-roundtrip", worst <= _ROUNDTRIP_TOL, worst))

    # Cost slope at the rate produced by density r equals the free-energy slope.
    # The slope goes through the numeric rate inversion, whose relative error
    # the log amplifies by 1/r at small densities; budget two extra decades.
    worst = 0.0
    for x in xs:
        rates = model.reaction.rate(densities, x)
        lhs = model.cost_slope(rates, x)
        rhs = np.log(densities) + float(model.drift(x))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(AuditCheck("slope-matches-free-energy", worst <= 1e2 * _ROUNDTRIP_TOL, worst))

    # Price -> rate -> price round trip.
    worst = 0.0
    for x in xs:
        rates = model.reaction.rate(densities, x)
        prices = model.cost_slope(rates, x)
        back = model.rate_at_price(prices, x)
        worst = max(
            worst,
            float(np.max(np.abs(back - rates) / np.maximum(1.0, np.abs(rates)))),
        )
    checks.append(AuditCheck("price-rate-roundtrip", worst <= _ROUNDTRIP_TOL, worst))

    # Convexity of the cost along a rate grid clear of the floor.
    worst = np.inf
    for x in xs:
        floor = float(model.rate_floor(x))
        lo = floor + 1e-3 * (1.0 + abs(floor)) if np.isfinite(floor) else -20.0
        z_grid = np.linspace(lo, 20.0, 201)
        costs = model.cost(z_grid, x)
        second = np.diff(costs, 2)
        worst = min(worst, float(np.min(second)))
    checks.append(AuditCheck("cost-convex", worst >= _CONVEXITY_SLACK, worst))

    # Superlinearity probes: for each slope L the marginal cost must escape
    # past +L at large rates and below -L toward the floor, so cost - L|z|
    # has a finite minimum C(L). The offsets themselves are recorded as the
    # worst sample.
    ok = True
    worst_margin = np.inf
    for x in (model.x_lo, 0.5 * (model.x_lo + model.x_hi), model.x_hi):
        floor = float(model.rate_floor(x))
        lo = floor + 1e-6 * (1.0 + abs(floor)) if np.isfinite(floor) else -40.0
        z_grid = np.linspace(lo, 80.0, 400)
        for L, c_of_l in _superlinear_offsets(model, z_grid, x).items():
            if not np.isfinite(c_of_l):
                ok = False
            worst_margin = min(worst_margin, c_of_l)
            if not _slope_escapes(model, x, L):
                ok = False
    checks.append(AuditCheck("cost-superlinear", ok, worst_margin))

    # Zero-rate density and the barrier constants.
    zero_density = np.array(
        [float(model.reaction.density_at_rate(0.0, x)) for x in xs]
    )
    checks.append(
        AuditCheck(
            "zero-rate-density-positive",
            bool(np.all(zero_density > 0.0) and np.all(np.isfinite(zero_density))),
            float(np.min(zero_density)),
        )
    )

    bd_lo, bd_hi = model.boundary_density
    checks.append(
        AuditCheck(
            "boundary-density-positive", bd_lo > 0.0 and bd_hi > 0.0, min(bd_lo, bd_hi)
        )
    )

    s = float(np.min(zero_density))
    s1 = min(s, bd_lo, bd_hi, 1.0 / max(bd_lo, bd_hi), 1.0)
    r_probe = np.geomspace(max(s1 * 1e-8, 1e-14), s1, 256)
    c0 = 0.0
    for x in xs:
        rates = np.asarray(model.reaction.rate(r_probe, x), dtype=float)
        c0 = max(c0, float(np.max(np.maximum(rates, 0.0) / r_probe)))
    c0_finite = bool(np.isfinite(c0))
    checks.append(AuditCheck("destruction-growth-bounded", c0_finite, c0))

    b0 = max(
        float(np.max(np.abs(model.reaction.rate(1.0, xs)))),
        float(np.max(np.abs(model.reaction.rate(np.maximum(s1, 1e-12), xs)))),
    )

    lip_rho = abs(bd_hi - bd_lo) / (model.x_hi - model.x_lo)
    audit = ModelAudit(
        lip_drift=abs(model.drift_coeff[1]),
        lip_reservoir=model.reservoir_lipschitz,
        lip_boundary_density=lip_rho,
        s=s,
        s1=s1,
        b0=b0,
        c0=c0 if c0_finite else np.inf,
        checks=tuple(checks),
    )
    for check in checks:
        if not check.ok:
            logger.warning(
                "model audit: check %s failed (worst sample %.6g)",
                check.check_id,
                check.worst,
            )
    return audit
