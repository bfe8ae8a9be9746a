"""Benchmark problem builders.

Two canonical pure-diffusion problems where the action sets the volatility
directly, plus a coefficient-table escape hatch for simple custom dynamics.
"""

import dataclasses
import math

import numpy as np

from .errors import ConfigInvalid
from .sde import FeasibilityConfig, ModelSpec, dirac_initial

__all__ = [
    "sign_volatility_model",
    "on_off_volatility_model",
    "model_from_tables",
    "CUSTOM_TABLE_KEYS",
]


def _pure_diffusion_model(atoms, x0=0.0):
    """b = 0, sigma(t, x, a) = a, c = 0, g(x) = x^2, point-mass start."""
    growth = FeasibilityConfig(
        L=1.0,
        pbar1=0.0,
        pbar2=1.0,
        pbar3=math.inf,
        pbar=8.0,
        p1=2.0,
        p2=0.0,
        p1_prime=1.0,
        p2_prime=0.0,
        p=2.0,
    )
    return ModelSpec(
        dim_x=1,
        dim_w=1,
        dim_a=1,
        drift=lambda t, x, a: np.zeros((x.shape[0], 1)),
        diffusion=lambda t, x, a: np.full((x.shape[0], 1, 1), a[0]),
        cost=lambda t, x, a: np.zeros(x.shape[0]),
        terminal=lambda x: x[:, 0] ** 2,
        drift_dx=lambda t, x, a: np.zeros((x.shape[0], 1, 1)),
        diffusion_dx=lambda t, x, a: np.zeros((x.shape[0], 1, 1, 1)),
        cost_dx=lambda t, x, a: np.zeros((x.shape[0], 1)),
        terminal_dx=lambda x: 2.0 * x,
        initial=dirac_initial(x0),
        action_grid=np.asarray(atoms, float)[:, None],
        growth=growth,
        constant_coefficients=True,
    )


def sign_volatility_model():
    """Binary volatility-sign problem: actions {-1, +1} drive sigma = a.

    The half/half mixture has exactly zero averaged volatility, so its state
    paths are identically zero while every Dirac control is a Brownian
    motion; minimizing E[x_T^2] separates mixed from strict controls.
    """
    return _pure_diffusion_model([-1.0, 1.0])


def on_off_volatility_model():
    """Volatility on/off problem: actions {0, 1}, sigma = a.

    Blending the off control with any other measure by a fraction eps moves
    the paths by O(eps) in mean square, i.e. an O(eps^2) squared response.
    """
    return _pure_diffusion_model([0.0, 1.0])


# The keys model_from_tables reads, as the custom problem's entry in the
# config schema (riskmp.cli): a required key's entry is its kind, int or list
# (a number table); an optional table's entry is None, and its default is
# model_from_tables'; an object's entry holds its own keys.  model_from_tables
# itself requires drift, diffusion and, in a given growth, every exponent.
CUSTOM_TABLE_KEYS = {
    "dim_x": int,
    "dim_w": int,
    "action_grid": list,
    "x0": None,
    "drift": {"const": list, "x": None},
    "diffusion": {"const": list},
    "cost": {"const": None, "x": None},
    "terminal": {"const": None, "x": None},
    "growth": dict.fromkeys(f.name for f in dataclasses.fields(FeasibilityConfig)),
}


def _table(tables, key, shape=None, required=False):
    """The number table at dotted key of tables as floats of shape.

    A missing optional table is zeros.
    """
    value = tables
    for name in key.split("."):
        value = value.get(name) if isinstance(value, dict) else None
    if value is None:
        if required:
            raise ConfigInvalid(f"{key} is required")
        return np.zeros(shape)
    try:
        table = np.asarray(value, float)
        return table if shape is None else table.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{key} must be a table of shape {shape}: {exc}") from exc


def _dimension(tables, key, table_key, per_unit):
    """tables[key], an integer >= 1 that makes table_key per_unit * key numbers."""
    size = _table(tables, table_key, required=True).size
    dim = tables.get(key)
    if not isinstance(dim, (int, np.integer)) or dim < 1 or dim * per_unit != size:
        raise ConfigInvalid(
            f"{key} must be an integer >= 1, and {table_key} must hold "
            f"{per_unit} * {key} numbers over the action_grid atoms, got "
            f"{key} = {dim!r} and {size} numbers"
        )
    return int(dim)


def model_from_tables(tables):
    """Build a ModelSpec from plain coefficient tables.

    Expected keys:
      dim_x, dim_w, action_grid: list of scalar atoms
      drift:     {"const": (n_atoms, dim_x), "x": (dim_x, dim_x) optional}
      diffusion: {"const": (n_atoms, dim_x, dim_w)}
      cost:      {"const": (n_atoms,), "x": (dim_x,) optional}
      terminal:  {"const": scalar, "x": (dim_x,)}
      x0:        (dim_x,) initial point mass
      growth:    optional feasibility exponent dict

    CUSTOM_TABLE_KEYS lists these keys and their sub-keys.  Atoms must be
    distinct scalars: coefficients are given per atom index, so an atom only
    labels the outputs, which report one mean action per step.  A missing
    optional table is zeros, and each error starts with the key at fault,
    dotted for a sub-key.

    Drift and cost are affine in the state with per-atom intercepts;
    diffusion is a per-atom constant.  Gradients are exact by construction,
    and the model's tables hook evaluates all atoms in closed form, computing
    only the tables it is asked for.
    """
    atoms = _table(tables, "action_grid", required=True)
    if atoms.ndim != 1 or not atoms.size:
        raise ConfigInvalid(
            "action_grid must be a nonempty list of scalar atoms, got shape "
            f"{atoms.shape}"
        )
    n_atoms = atoms.size
    atoms = atoms[:, None]
    dim_x = _dimension(tables, "dim_x", "drift.const", n_atoms)
    dim_w = _dimension(tables, "dim_w", "diffusion.const", n_atoms * dim_x)
    drift_const = _table(tables, "drift.const", (n_atoms, dim_x))
    drift_x = _table(tables, "drift.x", (dim_x, dim_x))
    diff_const = _table(tables, "diffusion.const", (n_atoms, dim_x, dim_w))
    cost_const = _table(tables, "cost.const", (n_atoms,))
    cost_x = _table(tables, "cost.x", (dim_x,))
    term_const = float(_table(tables, "terminal.const", ()))
    term_x = _table(tables, "terminal.x", (dim_x,))
    x0 = _table(tables, "x0", (dim_x,))

    index = {tuple(a): j for j, a in enumerate(atoms)}
    if len(index) < n_atoms:
        raise ConfigInvalid(
            "action_grid repeats an atom; each atom needs its own coefficients"
        )

    def atom_of(a):
        return index[tuple(np.atleast_1d(a))]

    growth = None
    if "growth" in tables:
        exponents = {  # a string "inf" or "Infinity" reads as +inf
            f.name: float(_table(tables, f"growth.{f.name}", (), required=True))
            for f in dataclasses.fields(FeasibilityConfig)
        }
        try:
            growth = FeasibilityConfig(**exponents)
        except ValueError as exc:  # its message starts with the exponent
            raise ConfigInvalid(f"growth.{exc}") from exc

    # The tables that depend on neither t nor x, with their path axis of size 1.
    constant_tabs = {
        "diffusion": diff_const[:, None],
        "drift_dx": drift_x[None, None],
        "diffusion_dx": np.zeros((1, 1, dim_x, dim_w, dim_x)),
        "cost_dx": cost_x[None, None],
    }

    def atom_tables(t, x, keys):
        tabs = {}
        for key in keys:
            if key == "drift":
                tabs[key] = drift_const[:, None] + np.einsum("nl,il->ni", x, drift_x)
            elif key == "cost":
                tabs[key] = cost_const[:, None] + np.einsum("nl,l->n", x, cost_x)
            else:
                tabs[key] = constant_tabs[key]
        return tabs

    return ModelSpec(
        dim_x=dim_x,
        dim_w=dim_w,
        dim_a=1,
        drift=lambda t, x, a: drift_const[atom_of(a)] + x @ drift_x.T,
        diffusion=lambda t, x, a: np.broadcast_to(
            diff_const[atom_of(a)], (x.shape[0], dim_x, dim_w)
        ),
        cost=lambda t, x, a: cost_const[atom_of(a)] + x @ cost_x,
        terminal=lambda x: term_const + x @ term_x,
        drift_dx=lambda t, x, a: np.broadcast_to(
            drift_x, (x.shape[0], dim_x, dim_x)
        ),
        diffusion_dx=lambda t, x, a: np.zeros((x.shape[0], dim_x, dim_w, dim_x)),
        cost_dx=lambda t, x, a: np.broadcast_to(cost_x, (x.shape[0], dim_x)),
        terminal_dx=lambda x: np.broadcast_to(term_x, (x.shape[0], dim_x)),
        initial=dirac_initial(x0),
        action_grid=atoms,
        growth=growth,
        tables=atom_tables,
    )
