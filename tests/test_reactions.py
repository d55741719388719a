import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resflow import build_model
from resflow.reactions import REACTION_KINDS, make_reaction


def test_registry_lists_all_kinds():
    assert set(REACTION_KINDS) == {"power", "log", "signed-power"}


def test_unknown_kind_names_the_options():
    with pytest.raises(ValueError, match="power"):
        make_reaction("cubic", w=1.0)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("power", {"w": 1.0, "beta": 0.5}),             # missing q
        ("power", {"w": 1.0, "beta": 0.5, "q": 1.0, "extra": 2.0}),
        ("log", {"w": 1.0, "q": 0.1, "beta": 0.0}),     # beta not accepted
        ("signed-power", {"w": 1.0, "q": 0.1}),         # missing alpha
    ],
)
def test_parameter_sets_are_exact(kind, params):
    with pytest.raises(ValueError):
        make_reaction(kind, **params)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("power", {"w": -1.0, "beta": 0.0, "q": 1.0}),
        ("power", {"w": 1.0, "beta": -1.5, "q": 1.0}),
        ("power", {"w": 1.0, "beta": 0.0, "q": -0.1}),
        ("log", {"w": 0.0, "q": 0.1}),
        ("signed-power", {"w": 1.0, "alpha": 0.0, "q": 0.1}),
        ("signed-power", {"w": 1.0, "alpha": 1.5, "q": 0.1}),
    ],
)
def test_positivity_constraints(kind, params):
    # the constraints depend on the interval, so the model checks them
    law = make_reaction(kind, **params)
    with pytest.raises(ValueError, match="whole interval"):
        build_model(0.0, 1.0, law, run_audit=False)


@pytest.mark.parametrize("kind,params", [
    ("power", {"w": 1.0, "beta": 0.5, "q": 0.8}),
    ("log", {"w": 1.2, "q": 0.3}),
    ("signed-power", {"w": 1.0, "alpha": 0.5, "q": 0.4}),
])
def test_non_finite_coefficients_are_refused(kind, params):
    """nan passes every comparison's negation and inf passes w > 0 and q >= 0:
    make_reaction refuses both, in the intercept or the slope, naming the parameter."""
    for name in params:
        for bad in (math.nan, math.inf, -math.inf, (params[name], math.nan)):
            with pytest.raises(ValueError, match=f"coefficient {name} must be finite"):
                make_reaction(kind, **{**params, name: bad})


def test_power_rate_closed_form():
    law = make_reaction("power", w=2.0, beta=1.0, q=0.5)
    x = np.array([0.3])
    assert law.rate(2.0, x) == pytest.approx(2.0 * 4.0 - 0.5)
    assert law.rate_derivative(2.0, x) == pytest.approx(2.0 * 2.0 * 2.0)
    assert law.rate_floor(x) == pytest.approx(-0.5)


def test_signed_power_is_odd_around_one():
    law = make_reaction("signed-power", w=1.0, alpha=0.5, q=0.0)
    x = np.zeros(1)
    up = law.rate(1.0 + 0.09, x)
    down = law.rate(1.0 - 0.09, x)
    assert up == pytest.approx(0.3)
    assert down == pytest.approx(-0.3)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("power", {"w": 1.0, "beta": 0.0, "q": 1.0}),
        ("power", {"w": 0.7, "beta": 0.8, "q": 0.4}),
        ("log", {"w": 1.3, "q": 0.2}),
        ("signed-power", {"w": 1.0, "alpha": 0.5, "q": 0.3}),
    ],
)
@given(rho=st.floats(0.05, 20.0))
def test_inverse_roundtrip(kind, params, rho):
    law = make_reaction(kind, **params)
    x = np.array([0.5])
    z = law.rate(rho, x)
    back = law.density_at_rate(z, x)
    assert back == pytest.approx(rho, rel=1e-9, abs=1e-9)


@given(lo=st.floats(0.1, 5.0), gap=st.floats(0.01, 5.0))
def test_rate_strictly_increasing(lo, gap):
    law = make_reaction("log", w=1.1, q=0.4)
    x = np.array([0.2])
    assert law.rate(lo + gap, x) > law.rate(lo, x)


def test_rate_below_floor_has_no_preimage():
    law = make_reaction("power", w=1.0, beta=0.0, q=0.5)
    with pytest.raises(ValueError):
        law.density_at_rate(-0.6, np.array([0.1]))


def test_affine_coefficients_vary_in_space():
    law = make_reaction("power", w=(1.0, 1.0), beta=0.0, q=0.0)
    x = np.array([0.0, 1.0])
    rates = law.rate(2.0, x)
    assert rates[1] == pytest.approx(2.0 * rates[0])


def test_canonical_key_is_deterministic():
    a = make_reaction("power", w=1.0, beta=0.5, q=0.9)
    b = make_reaction("power", q=0.9, beta=0.5, w=1.0)
    assert a.canonical_key() == b.canonical_key()
    assert "power" in a.canonical_key()
