import numpy as np
import pytest

from fiolab.lattice import Field, SpectralField, forward_transform, inverse_transform, nyquist_mask


def random_field(grid, seed=0, nyquist_free=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field(grid, vals)
    if nyquist_free:
        spec = np.where(nyquist_mask(grid), 0, forward_transform(f).values)
        f = inverse_transform(SpectralField(grid, spec))
    return f


def gaussian_field(grid, sigma=1.0, carrier=None):
    mesh = grid.spatial_mesh()
    vals = np.exp(-np.sum(mesh * mesh, axis=-1) / (2.0 * sigma**2))
    if carrier is not None:
        k0 = np.asarray(carrier, dtype=float)
        vals = vals * np.exp(1j * np.einsum("...i,i->...", mesh, k0))
    return Field(grid, vals)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
