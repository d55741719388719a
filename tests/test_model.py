import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resflow import REACTION_KINDS, build_model, make_reaction

# one affine parameter set per registered law, all constraints met on [0, 1]
AFFINE_LAWS = {
    "power": {"w": (1.0, 0.5), "beta": (0.5, -0.3), "q": (1.0, 0.2)},
    "log": {"w": (1.2, 0.3), "q": (0.3, 0.1)},
    "signed-power": {"w": (1.0, 0.4), "alpha": (0.5, 0.2), "q": (0.2, 0.1)},
}
AFFINE_DRIFT = (0.2, -0.5)


def test_creation_cost_closed_form_linear_rate(unit_model):
    """rate r-1 with no drift: the cost integrand is (z+1)log(z+1) - z."""
    x = np.array([0.5])
    for z in (-0.9, -0.5, 0.0, 0.3, 2.0):
        expected = (z + 1.0) * math.log(z + 1.0) - z if z != 0.0 else 0.0
        assert unit_model.cost(z, x) == pytest.approx(expected, abs=1e-12)


def test_creation_cost_closed_form_log_rate():
    model = build_model(0.0, 1.0, make_reaction("log", w=1.0, q=0.0), run_audit=False)
    x = np.array([0.25])
    for z in (-2.0, -0.4, 0.0, 1.3):
        assert model.cost(z, x) == pytest.approx(z * z / 2.0, abs=1e-12)


def test_relabelled_law_costs_what_the_original_does():
    z = np.linspace(-2.0, 3.0, 41)
    x = np.linspace(0.0, 1.0, 41)
    for kind in REACTION_KINDS:
        law = make_reaction(kind, **AFFINE_LAWS[kind])
        models = [build_model(0.0, 1.0, each, drift=AFFINE_DRIFT, run_audit=False)
                  for each in (law, dataclasses.replace(law, label="custom"))]
        assert np.array_equal(models[0].cost(z, x), models[1].cost(z, x))


@pytest.mark.parametrize("kind", REACTION_KINDS)
def test_cost_calculus_of_every_law(kind):
    """cost(0) = 0, cost' = cost_slope above the floor, +inf below a finite floor."""
    model = build_model(0.0, 1.0, make_reaction(kind, **AFFINE_LAWS[kind]),
                        drift=AFFINE_DRIFT, run_audit=False)
    x = np.linspace(0.05, 0.95, 7)
    assert np.max(np.abs(model.cost(np.zeros_like(x), x))) < 1e-12

    floor = model.rate_floor(x)
    start = np.where(np.isfinite(floor), floor, -3.0)
    eps = 1e-6
    for offset in (0.1, 0.5, 1.5, 4.0):
        z = start + offset
        central = (model.cost(z + eps, x) - model.cost(z - eps, x)) / (2.0 * eps)
        assert np.allclose(central, model.cost_slope(z, x), rtol=1e-6, atol=1e-6)

    if np.all(np.isfinite(floor)):
        assert np.all(np.isfinite(model.cost(floor, x)))
        assert np.all(model.cost(floor - 0.1, x) == np.inf)


def test_cost_vanishes_at_zero(drifty_model, signed_model):
    x = np.linspace(0.05, 0.95, 7)
    for model in (drifty_model, signed_model):
        assert np.max(np.abs(model.cost(np.zeros_like(x), x))) < 1e-12


def test_cost_slope_is_price_of_rate(unit_model):
    """slope(z) equals the entropy price log(rho) + V of the density making rate z."""
    x = np.array([0.3])
    for z in (-0.7, 0.0, 1.5):
        rho = unit_model.reaction.density_at_rate(z, x)
        assert unit_model.cost_slope(z, x) == pytest.approx(np.log(rho), abs=1e-10)


def test_rate_at_price_identity(drifty_model):
    x = np.linspace(0.1, 0.9, 5)
    rho = np.array([0.4, 0.9, 1.0, 1.7, 3.0])
    price = np.log(rho) + drifty_model.drift(x)
    assert np.allclose(
        drifty_model.rate_at_price(price, x),
        drifty_model.reaction.rate(rho, x),
        rtol=1e-10, atol=1e-10,
    )


@given(z=st.floats(-0.9, 4.0), p=st.floats(-3.0, 3.0))
def test_cost_conjugate_fenchel_inequality(z, p):
    model = build_model(0.0, 1.0, make_reaction("power", w=1.0, beta=0.0, q=1.0),
                        run_audit=False)
    x = 0.5
    gap = float(model.cost_conjugate(p, x) + model.cost(z, x) - p * z)
    assert gap >= -1e-10


def test_cost_conjugate_touches_at_matched_rate(unit_model):
    x = 0.5
    p = 0.7
    z = float(unit_model.rate_at_price(p, x))
    touched = p * z - float(unit_model.cost(z, x))
    assert float(unit_model.cost_conjugate(p, x)) == pytest.approx(touched, abs=1e-11)


def test_reservoir_potential_is_affine_extension(drifty_model):
    # wall prices pin the Dirichlet densities against the drift: at the wall
    # the reservoir charges exactly what a unit of mass is worth there
    assert drifty_model.psi_lo == pytest.approx(math.log(1.0) + 0.0)
    assert drifty_model.psi_hi == pytest.approx(math.log(0.8) + 0.3)
    x = np.linspace(0.0, 1.0, 9)
    vals = drifty_model.reservoir_potential(x)
    assert vals[0] == pytest.approx(drifty_model.psi_lo)
    assert vals[-1] == pytest.approx(drifty_model.psi_hi)
    assert np.allclose(np.diff(vals, 2), 0.0, atol=1e-14)  # affine in between


def test_free_energy_minimized_at_equilibrium(unit_model):
    x = np.array([0.5])
    fe = unit_model.free_energy
    assert fe.density(1.0, x) == pytest.approx(0.0, abs=1e-14)
    for r in (0.3, 0.8, 1.5, 4.0):
        assert fe.density(r, x) > 0.0
    # the density of zero free-energy slope is 1
    assert fe.slope_inv(0.0, x) == pytest.approx(1.0, abs=1e-14)


def test_free_energy_conjugate_pair(drifty_model):
    x = np.array([0.4])
    fe = drifty_model.free_energy
    for p in (-1.0, 0.0, 0.8):
        r = fe.slope_inv(p, x)
        # the slope is log density + drift
        assert np.log(r) + fe.drift(x) == pytest.approx(p, abs=1e-12)
        # Fenchel equality at the matched point
        assert fe.conjugate(p, x) == pytest.approx(p * r - fe.density(r, x), abs=1e-11)


def test_total_free_energy_of_equilibrium_is_zero(unit_model, grid16):
    total = unit_model.free_energy.total(
        np.ones(grid16.n_cells), grid16.cell_centers, grid16.cell_width
    )
    assert total == pytest.approx(0.0, abs=1e-14)


def test_audits_pass_on_fixture_models(unit_model, drifty_model, signed_model):
    for model in (unit_model, drifty_model, signed_model):
        assert model.audit is not None
        failed = [c.check_id for c in model.audit.checks if not c.ok]
        assert not failed, failed


def test_audit_constants_have_expected_signs(unit_model):
    audit = unit_model.audit
    assert audit.s == pytest.approx(1.0)      # zero-rate density
    assert audit.c0 >= 0.0


def test_build_model_rejects_bad_inputs():
    law = make_reaction("power", w=1.0, beta=0.0, q=1.0)
    with pytest.raises(ValueError):
        build_model(1.0, 0.0, law)
    with pytest.raises(ValueError):
        build_model(0.0, 1.0, law, boundary_density=0.0)
    with pytest.raises(ValueError):
        build_model(0.0, 1.0, law, boundary_density=(1.0, -2.0))
    # non-finite data has no reservoir price or drift
    with pytest.raises(ValueError, match="finite"):
        build_model(0.0, 1.0, law, boundary_density=math.nan)
    with pytest.raises(ValueError, match="finite"):
        build_model(0.0, 1.0, law, boundary_density=(1.0, math.inf))
    with pytest.raises(ValueError, match="finite"):
        build_model(0.0, 1.0, law, drift=(0.0, math.nan))


def test_cost_slope_raises_below_rate_floor(unit_model):
    with pytest.raises(ValueError):
        unit_model.cost_slope(-1.0, np.array([0.5]))
