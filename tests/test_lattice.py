import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab.lattice import (
    TAIL_SHELL,
    Field,
    SpectralField,
    bracket,
    forward_transform,
    inner_product,
    inverse_transform,
    make_grid,
    norm,
    nyquist_mask,
    spectral_tail_fraction,
    weighted_norm,
)
from fiolab.lattice import _edge_shell
from fiolab.operators import canonical_transform_operator
from fiolab.symbols import scaling_map
from tests.conftest import random_field


class TestMakeGrid:
    def test_spacings_small(self):
        g = make_grid(1, np.pi, 8)
        assert g.dx == pytest.approx(np.pi / 4)
        assert g.dxi == pytest.approx(1.0)

    def test_spacings_2d(self):
        g = make_grid(2, 10.0, 64)
        assert g.dx == pytest.approx(0.3125)
        assert g.dxi == pytest.approx(np.pi / 10)

    def test_rejects_odd_points(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(1, 1.0, 7)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(0, 1.0, 8)
        with pytest.raises(ValueError):
            make_grid(1, -2.0, 8)
        with pytest.raises(ValueError):
            make_grid(1, 1.0, 2)

    def test_rejects_fractional_dimension(self):
        # int() would truncate it to a 2-D grid
        with pytest.raises(ValueError, match="grid dimension must be an integer"):
            make_grid(2.5, 4.0, 8)

    @pytest.mark.parametrize(
        "dim, half_width, name",
        [(1, 1e308, "dx"), (1, 1e-309, "dxi"), (3, 1e200, "cell_volume"),
         (3, 1e-105, "spectral_weight")],
    )
    def test_rejects_non_finite_spacing_or_weight(self, dim, half_width, name):
        with pytest.raises(ValueError, match=f"grid {name} must be finite and positive"):
            make_grid(dim, half_width, 16)

    def test_frequency_range_symmetric(self):
        g = make_grid(1, 5.0, 16)
        axis = g.frequency_axis()
        assert axis[0] == pytest.approx(-8 * g.dxi)
        assert axis[-1] == pytest.approx(7 * g.dxi)

    def test_mutating_an_axis_changes_no_later_read(self):
        # each call builds a new axis; the meshes, built after the writes, stay exact
        g = make_grid(2, 5.5, 12)
        spatial = -g.half_width + g.dx * np.arange(12)
        frequency = g.dxi * np.arange(-6, 6)
        g.spatial_axis()[:] = np.nan
        g.frequency_axis()[:] = np.nan
        np.testing.assert_array_equal(g.spatial_axis(), spatial)
        np.testing.assert_array_equal(g.frequency_axis(), frequency)
        np.testing.assert_array_equal(g.spatial_mesh()[:, 3, 0], spatial)
        np.testing.assert_array_equal(g.spatial_mesh()[3, :, 1], spatial)
        np.testing.assert_array_equal(g.frequency_mesh()[:, 3, 0], frequency)
        np.testing.assert_array_equal(g.frequency_mesh()[3, :, 1], frequency)


class TestTransforms:
    def test_constant_field_concentrates_at_zero(self):
        g = make_grid(2, 7.0, 16)
        spec = forward_transform(Field(g, np.ones(g.shape))).values
        center = (g.points_per_axis // 2,) * 2
        assert spec[center] == pytest.approx((2 * g.half_width) ** 2)
        spec_off = np.array(spec)
        spec_off[center] = 0.0
        assert np.max(np.abs(spec_off)) < 1e-10

    def test_single_mode_is_spectral_delta(self):
        g = make_grid(1, 6.0, 32)
        k_index = 5
        k = k_index * g.dxi
        mode = Field(g, np.exp(1j * k * g.spatial_mesh()[..., 0]))
        spec = forward_transform(mode).values
        peak = g.points_per_axis // 2 + k_index
        assert spec[peak] == pytest.approx(2 * g.half_width)
        rest = np.delete(spec, peak)
        assert np.max(np.abs(rest)) < 1e-10

    def test_round_trip_identity(self):
        g = make_grid(2, 4.0, 16)
        f = random_field(g, seed=7)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(1, 3),
        n_exp=st.integers(2, 4),
        half_width=st.floats(0.5, 20.0),
        seed=st.integers(0, 10_000),
    )
    def test_plancherel_property(self, dim, n_exp, half_width, seed):
        g = make_grid(dim, half_width, 2**n_exp)
        f = random_field(g, seed=seed)
        spec = forward_transform(f)
        space_mass = np.sum(np.abs(f.values) ** 2) * g.cell_volume
        freq_mass = np.sum(np.abs(spec.values) ** 2) * g.spectral_weight
        assert freq_mass == pytest.approx(space_mass, rel=1e-12)


class TestWeightedNorm:
    def test_zero_exponent_is_plain_norm(self):
        g = make_grid(1, 5.0, 32)
        f = random_field(g, seed=3)
        assert weighted_norm(f, 0.0) == pytest.approx(norm(f), rel=1e-14)

    def test_point_mass_at_origin_ignores_exponent(self):
        g = make_grid(1, 5.0, 32)
        vals = np.zeros(g.shape, dtype=complex)
        vals[g.points_per_axis // 2] = 2.5  # x = 0 where <x> = 1
        f = Field(g, vals)
        for m in (-2.0, 0.0, 3.5):
            assert weighted_norm(f, m) == pytest.approx(2.5 * g.dx**0.5, rel=1e-14)

    def test_gaussian_matches_continuum_quadrature(self):
        # oracle: adaptive quadrature of int (1+x^2) exp(-x^2) dx over the line
        # (scipy.integrate.quad), frozen:
        expected = 1.6305461589167833
        g = make_grid(1, 10.0, 256)
        x = g.spatial_mesh()[..., 0]
        f = Field(g, np.exp(-x * x / 2.0))
        assert weighted_norm(f, 1.0) == pytest.approx(expected, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        m1=st.floats(-3.0, 3.0),
        m2=st.floats(-3.0, 3.0),
        seed=st.integers(0, 10_000),
    )
    def test_pointwise_weight_monotone(self, m1, m2, seed):
        if m2 < m1:
            m1, m2 = m2, m1
        g = make_grid(1, 8.0, 16)
        w = bracket(g.spatial_mesh())
        assert np.all(w**m2 >= w**m1 - 1e-12)
        f = random_field(g, seed=seed)
        assert weighted_norm(f, m2) >= weighted_norm(f, m1) - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        scale_re=st.floats(-5.0, 5.0),
        scale_im=st.floats(-5.0, 5.0),
        m=st.floats(-2.0, 2.0),
    )
    def test_absolute_homogeneity(self, scale_re, scale_im, m):
        g = make_grid(1, 4.0, 16)
        f = random_field(g, seed=11)
        c = scale_re + 1j * scale_im
        assert weighted_norm(f * c, m) == pytest.approx(
            abs(c) * weighted_norm(f, m), rel=1e-12, abs=1e-12
        )


class TestFieldValidation:
    def test_rejects_non_finite(self):
        g = make_grid(1, 1.0, 4)
        with pytest.raises(ValueError, match="finite"):
            Field(g, np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            SpectralField(g, np.array([1.0, np.inf, 0.0, 0.0]))

    def test_values_are_read_only(self):
        g = make_grid(1, 1.0, 4)
        f = Field(g, np.zeros(4))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestInnerProduct:
    def test_sesquilinear_and_matches_norm(self):
        g = make_grid(2, 3.0, 8)
        u, v, w = (random_field(g, seed=s) for s in (1, 2, 3))
        a, b = 0.7 - 1.3j, -2.0 + 0.4j
        assert inner_product(u * a + v * b, w) == pytest.approx(
            a * inner_product(u, w) + b * inner_product(v, w), rel=1e-12
        )
        assert inner_product(w, u * a) == pytest.approx(np.conj(a) * inner_product(w, u), rel=1e-12)
        assert inner_product(v, u) == pytest.approx(np.conj(inner_product(u, v)), rel=1e-14)
        assert inner_product(u, u) == pytest.approx(norm(u) ** 2, rel=1e-14)


# same N, different half width: the values line up but the grids do not
GRID_A, GRID_B = make_grid(1, 4.0, 8), make_grid(1, 5.0, 8)


@pytest.mark.parametrize(
    "combine",
    [lambda u, v: u + v, lambda u, v: u - v, inner_product],
    ids=["add", "sub", "inner_product"],
)
def test_fields_on_different_grids_do_not_combine(combine):
    u, v = random_field(GRID_A, seed=1), random_field(GRID_B, seed=2)
    with pytest.raises(ValueError, match="different grids") as info:
        combine(u, v)
    assert str(GRID_A) in str(info.value) and str(GRID_B) in str(info.value)


class TestNyquistHandling:
    def test_mask_covers_first_row_per_axis(self):
        g = make_grid(2, 3.0, 8)
        mask = nyquist_mask(g)
        assert mask[0, :].all() and mask[:, 0].all()
        assert mask.sum() == 2 * 8 - 1

    def test_tail_fraction(self):
        g = make_grid(1, 3.0, 32)
        spec = np.zeros(g.shape, dtype=complex)
        spec[16] = 1.0  # zero frequency
        assert spectral_tail_fraction(SpectralField(g, spec)) == 0.0
        spec2 = np.zeros(g.shape, dtype=complex)
        spec2[1] = 1.0  # near the band edge
        assert spectral_tail_fraction(SpectralField(g, spec2)) == 1.0
        assert spectral_tail_fraction(SpectralField(g, np.zeros(g.shape))) == 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
    def test_tail_fraction_is_scale_invariant(self, scale):
        # squared raw magnitudes of a rough field underflow to 0 at 1e-170
        # (read as tail-free) and overflow to a NaN at 1e160; a canonical
        # apply reports the same fraction in its meta
        g = make_grid(1, 6.0, 16)
        u = Field(g, np.random.default_rng(6).standard_normal(g.shape) * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = spectral_tail_fraction(forward_transform(u))
            meta = canonical_transform_operator(scaling_map(1.5, 1), g).apply(u).meta
        assert tail == pytest.approx(0.12385466560680596, rel=1e-14)
        assert meta["spectral_tail"] == tail


def _shell_reference(grid, edge: float) -> np.ndarray:
    """Entries with some axis index k at ``|k - N/2| >= edge``, one axis at a time."""
    n = grid.points_per_axis
    outer_1d = np.abs(np.arange(n) - n // 2) >= edge
    mask = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        expand = [np.newaxis] * grid.dim
        expand[axis] = slice(None)
        mask |= outer_1d[tuple(expand)]
    return mask


@pytest.mark.parametrize("n", [4, 6, 8, 10, 16, 20, 32])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_edge_shells_match_a_per_axis_loop(dim, n):
    g = make_grid(dim, 3.0, n)
    np.testing.assert_array_equal(nyquist_mask(g), _shell_reference(g, n // 2))
    tail = _shell_reference(g, TAIL_SHELL * (n // 2))
    np.testing.assert_array_equal(_edge_shell(g, int(np.ceil(TAIL_SHELL * (n // 2)))), tail)
    # distinct powers of 2 per entry (cycled), so a wrong shell changes the fraction
    spec = 2.0 ** (np.arange(g.size) % 40).reshape(g.shape)
    energy = np.abs(spec) ** 2
    assert spectral_tail_fraction(SpectralField(g, spec)) == np.sum(energy[tail]) / np.sum(energy)
