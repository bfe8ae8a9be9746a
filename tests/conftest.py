"""Shared builders for small test models, and runs in a fresh process."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import riskmp
from riskmp import ModelSpec, dirac_initial

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(riskmp.__file__)))


def make_model(
    atoms,
    drift=None,
    diffusion=None,
    cost=None,
    terminal=None,
    drift_dx=None,
    diffusion_dx=None,
    cost_dx=None,
    terminal_dx=None,
    x0=0.0,
    dim_x=1,
    dim_w=1,
):
    """1-d-friendly ModelSpec with zero defaults for anything omitted.

    Coefficient arguments are plain scalar-signature callables f(t, x, a)
    with x of shape (n, dim_x) and a an atom vector; omitted maps are zero.
    """
    zn = lambda t, x, a: np.zeros((x.shape[0], dim_x))
    return ModelSpec(
        dim_x=dim_x,
        dim_w=dim_w,
        dim_a=1,
        drift=drift or zn,
        diffusion=diffusion or (lambda t, x, a: np.zeros((x.shape[0], dim_x, dim_w))),
        cost=cost or (lambda t, x, a: np.zeros(x.shape[0])),
        terminal=terminal or (lambda x: np.zeros(x.shape[0])),
        drift_dx=drift_dx or (lambda t, x, a: np.zeros((x.shape[0], dim_x, dim_x))),
        diffusion_dx=diffusion_dx
        or (lambda t, x, a: np.zeros((x.shape[0], dim_x, dim_w, dim_x))),
        cost_dx=cost_dx or zn,
        terminal_dx=terminal_dx or (lambda x: np.zeros((x.shape[0], dim_x))),
        initial=dirac_initial(np.full(dim_x, x0)),
        action_grid=np.asarray(atoms, float).reshape(-1, 1),
    )


def _constant_2d_model():
    """Constant coefficients with dim_x = dim_w = 2 and 5 atoms."""

    def drift(t, x, a):
        return np.tile([a[0], -0.3 * a[0] ** 2], (x.shape[0], 1))

    def diffusion(t, x, a):
        sigma = [[0.2 + a[0], 0.1], [0.05 * a[0], 0.3 - 0.1 * a[0]]]
        return np.broadcast_to(sigma, (x.shape[0], 2, 2))

    model = make_model(
        np.linspace(-1.0, 1.3, 5), drift=drift, diffusion=diffusion,
        cost=lambda t, x, a: np.full(x.shape[0], a[0] ** 2 / 3.0),
        dim_x=2, dim_w=2,
    )
    return dataclasses.replace(model, constant_coefficients=True)


def _strided(a):
    """A non-contiguous view holding a copy of a."""
    view = np.zeros((2 * a.shape[0], 3 * a.shape[1]))[::2, ::3]
    view[...] = a
    return view


# Layouts of an (n, n_atoms) Hamiltonian table.  msa_solve gets an F-ordered
# one, the transpose of an atom-major array; these are copies.
TABLE_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": lambda a: np.array(a, order="F"),
    "strided": _strided,
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# The warnings pyproject.toml's filterwarnings turns into errors.
_ERROR_WARNINGS = (
    "RuntimeWarning",
    "DeprecationWarning",
    "PendingDeprecationWarning",
    "FutureWarning",
)


def python_in_subprocess(args, blas_threads):
    """Run `python <args>` with OpenBLAS pinned to blas_threads; return stdout.

    The BLAS thread count is fixed when numpy loads, so only a fresh process
    can vary it.  The warnings that are errors in the test process
    (_ERROR_WARNINGS) are errors there too.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *(f"-Werror::{w}" for w in _ERROR_WARNINGS), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def solve_in_subprocess(config_path, out_dir, blas_threads):
    """Run `python -m riskmp.cli solve` in a fresh process with OpenBLAS
    pinned to blas_threads.  Returns the output file names.
    """
    python_in_subprocess(
        ["-m", "riskmp.cli", "solve",
         "--config", str(config_path), "--out", str(out_dir)],
        blas_threads,
    )
    return sorted(os.listdir(out_dir))
