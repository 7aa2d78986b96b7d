"""Numerical toolkit for pseudo-differential and Fourier integral operators,
canonical transforms with homogeneous phases, operator-norm estimation on
weighted spaces, and dispersive smoothing functionals, all on periodic-box
grids."""

from fiolab.lattice import (
    Field,
    Grid,
    SpectralField,
    forward_transform,
    inverse_transform,
    make_grid,
    weighted_norm,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "make_grid",
    "forward_transform",
    "inverse_transform",
    "weighted_norm",
    "__version__",
]
