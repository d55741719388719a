"""Configuration documents: parsing, validation, canonical rendering."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resflow import ConfigError, ExperimentConfig, parse_config, render_config


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.scheme.tau == 0.05
    assert cfg.domain.n_cells == 64


def test_comments_and_blanks_are_ignored():
    cfg = parse_config(
        """
        # a comment line
        domain.n_cells = 32   # trailing comment

        scheme.tau = 0.1
        """
    )
    assert cfg.domain.n_cells == 32
    assert cfg.scheme.tau == 0.1


def test_full_document_round_trips():
    text = """
    domain.x_lo = -1.0
    domain.x_hi = 2.0
    domain.n_cells = 48
    model.reaction = signed-power
    model.w = 1.5, 0.2
    model.alpha = 0.5
    model.q = 0.4
    model.drift = 0.1, -0.3
    model.boundary_density = 1.2, 0.8
    scheme.tau_list = 0.1, 0.05, 0.025
    scheme.t_final = 0.75
    initial.kind = sine
    initial.base = 1.1
    initial.amplitude = 0.05
    initial.modes = 2
    output.directory = runs/a
    output.diagnostics = false
    """
    cfg = parse_config(text)
    assert cfg.model.params["w"] == (1.5, 0.2)
    assert cfg.scheme.tau_list == (0.1, 0.05, 0.025)
    assert parse_config(render_config(cfg)) == cfg


def test_render_default_round_trips():
    cfg = ExperimentConfig()
    assert parse_config(render_config(cfg)) == cfg


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("domain.n_cells = 0", "n_cells"),
        ("domain.x_hi = -2", "x_hi"),
        ("scheme.tau = -0.1", "positive"),
        ("scheme.tau = 0.1\nscheme.tau_list = 0.1, 0.05", "not both"),
        ("scheme.tau_list = 0.05, 0.1", "decreasing"),
        ("scheme.tau_list = 0.1", "decreasing"),
        ("scheme.t_final = 0", "t_final"),
        ("model.reaction = exotic", "model.reaction"),
        ("model.boundary_density = -1", "boundary_density"),
        ("initial.kind = bump", "initial.kind"),
        ("no_equals_here", "key = value"),
        ("mystery.key = 1", "unknown key"),
        ("domain.n_cells = 8\ndomain.n_cells = 9", "duplicate"),
        ("output.diagnostics = maybe", "boolean"),
        ("domain.n_cells = 8.5", "integer"),
        ("scheme.tau = abc", "number"),
        ("model.drift = 1, 2, 3", "one or two"),
    ],
)
def test_rejections_name_the_problem(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_line_numbers_in_errors():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("domain.n_cells = 8\n# fine\nwhat.ever = 1\n")


def test_reaction_parameter_violations_surface_at_parse():
    with pytest.raises(ConfigError):
        parse_config("model.reaction = log\nmodel.w = -1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        # beta belongs to the power law, not the log law
        parse_config("model.reaction = log\nmodel.beta = 0.5\n")


def test_initial_profiles():
    grid = parse_config("domain.n_cells = 4").build_grid()
    const = parse_config("initial.kind = constant\ninitial.value = 1.3")
    assert np.allclose(const.initial_density(grid), 1.3)
    lin = parse_config("initial.kind = linear\ninitial.value = 1.0, 0.5")
    assert np.allclose(lin.initial_density(grid), 1.0 + 0.5 * grid.cell_centers)
    sine = parse_config(
        "initial.kind = sine\ninitial.base = 2.0\ninitial.amplitude = 0.5"
    )
    got = sine.initial_density(grid)
    assert np.allclose(got, 2.0 + 0.5 * np.sin(np.pi * grid.cell_centers))
    bad = parse_config("initial.kind = linear\ninitial.value = 0.1, -1.0")
    with pytest.raises(ConfigError, match="positive"):
        bad.initial_density(grid)


def test_boundary_density_broadcasts():
    cfg = parse_config("model.boundary_density = 0.9")
    assert cfg.model.boundary_density == (0.9, 0.9)


def test_config_builds_working_objects():
    cfg = parse_config("domain.n_cells = 8\nmodel.drift = 0.0, 0.2")
    grid = cfg.build_grid()
    model = cfg.build_model()
    assert model.audit is not None and model.audit.ok
    rho0 = cfg.initial_density(grid)
    assert rho0.shape == (8,)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(1, 96),
    tau=st.floats(1e-3, 0.5),
    t_final=st.floats(0.1, 2.0),
    w=st.floats(0.2, 3.0),
    q=st.floats(0.1, 2.0),
    drift=st.floats(-0.5, 0.5),
    bd=st.floats(0.3, 2.0),
    diagnostics=st.booleans(),
)
def test_random_valid_configs_round_trip(n, tau, t_final, w, q, drift, bd, diagnostics):
    text = "\n".join([
        f"domain.n_cells = {n}",
        "model.reaction = log",
        f"model.w = {w!r}",
        f"model.q = {q!r}",
        f"model.drift = 0.0, {drift!r}",
        f"model.boundary_density = {bd!r}",
        f"scheme.tau = {tau!r}",
        f"scheme.t_final = {t_final!r}",
        f"output.diagnostics = {'true' if diagnostics else 'false'}",
    ])
    cfg = parse_config(text)
    assert parse_config(render_config(cfg)) == cfg
