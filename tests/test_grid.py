import numpy as np
import pytest

from sublevy import (
    ConfigurationError,
    GridFunction,
    cyclic_shift,
    forward_transform,
    inverse_transform,
    make_grid,
    read_function_csv,
    sample,
    sup_distance,
    write_function_csv,
)
from conftest import random_trig


class TestMakeGrid:
    def test_points_n8(self):
        g = make_grid(1, 8)
        expected = -np.pi + np.pi / 4 * np.arange(8)
        assert np.allclose(g.axis_points(), expected, atol=0)
        assert g.spacing * g.n == pytest.approx(2 * np.pi, abs=1e-15)

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid(1, 3)

    def test_2d_grid(self):
        g = make_grid(2, 64)
        assert g.size == 4096
        assert g.spacing == pytest.approx(np.pi / 32)

    @pytest.mark.parametrize("dim,n", [(0, 8), (3, 8), (1, 2), (1, 2**17)])
    def test_out_of_range(self, dim, n):
        with pytest.raises(ConfigurationError):
            make_grid(dim, n)


class TestSample:
    def test_cosine(self, grid8):
        f = sample(grid8, "cosine", k=1)
        assert np.allclose(f.values, np.cos(grid8.axis_points()), atol=1e-15)

    def test_constant(self, grid8):
        f = sample(grid8, "constant", value=3.5)
        assert np.all(f.values == 3.5)

    def test_bump(self, grid64):
        f = sample(grid64, "bump", center=0.0, width=np.pi / 2)
        x = grid64.axis_points()
        assert np.all(f.values >= 0)
        assert np.all(f.values[np.abs(x) > np.pi / 2] == 0)
        assert f.values[grid64.nearest_index(np.array([0.0]))] == 1.0

    def test_unknown_builtin(self, grid8):
        with pytest.raises(ConfigurationError):
            sample(grid8, "sawtooth", k=1)

    def test_bad_bump_width(self, grid8):
        with pytest.raises(ConfigurationError):
            sample(grid8, "bump", center=0.0, width=-1.0)

    def test_noninteger_wavenumber(self, grid8):
        with pytest.raises(ConfigurationError):
            sample(grid8, "cosine", k=1.5)


class TestTransforms:
    def test_cosine_coefficients(self, grid8):
        s = forward_transform(sample(grid8, "cosine", k=1))
        expected = np.zeros(8, dtype=complex)
        expected[1] = 0.5
        expected[-1] = 0.5
        assert np.max(np.abs(s.coeffs - expected)) < 1e-15

    def test_constant_coefficients(self, grid8):
        s = forward_transform(sample(grid8, "constant", value=1.0))
        assert s.coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(s.coeffs[1:])) == 0.0

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 128), (2, 32)])
    def test_round_trip_random(self, dim, n):
        rng = np.random.default_rng(7 + n)
        g = make_grid(dim, n)
        f = GridFunction(g, rng.standard_normal(g.shape))
        back = inverse_transform(forward_transform(f))
        assert sup_distance(back, f) <= 1e-12 * (1.0 + f.sup_norm)

    def test_real_gives_conjugate_symmetry(self, grid64):
        rng = np.random.default_rng(3)
        f = GridFunction(grid64, rng.standard_normal(grid64.shape))
        c = forward_transform(f).coeffs
        idx = (-np.arange(grid64.n)) % grid64.n
        assert np.max(np.abs(c[idx] - np.conj(c))) < 1e-14


class TestSupOps:
    def test_sup_distance_self(self, cos128):
        assert sup_distance(cos128, cos128) == 0.0

    def test_sup_distance_constants(self, grid8):
        a = sample(grid8, "constant", value=2.0)
        b = sample(grid8, "constant", value=5.0)
        assert sup_distance(a, b) == 3.0

    def test_sup_distance_cos_negcos(self, grid8):
        f = sample(grid8, "cosine", k=1)
        g = GridFunction(grid8, -f.values)
        assert sup_distance(f, g) == 2.0  # the grid contains x = 0

    def test_grid_mismatch(self, grid8, grid64):
        with pytest.raises(ConfigurationError):
            sup_distance(sample(grid8, "constant", value=0.0),
                         sample(grid64, "constant", value=0.0))


class TestCyclicShift:
    def test_zero_and_full_turn(self, cos128):
        assert np.array_equal(cyclic_shift(cos128, 0).values, cos128.values)
        assert np.array_equal(cyclic_shift(cos128, cos128.grid.n).values, cos128.values)

    def test_half_turn_flips_cos(self, cos128):
        shifted = cyclic_shift(cos128, cos128.grid.n // 2)
        assert np.max(np.abs(shifted.values + cos128.values)) < 1e-15

    def test_isometry_and_commutes_with_max(self, grid64):
        rng = np.random.default_rng(5)
        f, g = random_trig(grid64, rng), random_trig(grid64, rng)
        assert cyclic_shift(f, 13).sup_norm == f.sup_norm
        a = cyclic_shift(GridFunction(grid64, np.maximum(f.values, g.values)), 13)
        b = np.maximum(cyclic_shift(f, 13).values, cyclic_shift(g, 13).values)
        assert np.array_equal(a.values, b)


class TestCsv:
    def test_round_trip_1d(self, tmp_path, grid64):
        rng = np.random.default_rng(2)
        f = random_trig(grid64, rng)
        path = tmp_path / "f.csv"
        write_function_csv(path, f)
        back = read_function_csv(path)
        assert back.grid == grid64
        assert sup_distance(back, f) == 0.0

    def test_round_trip_2d(self, tmp_path):
        g = make_grid(2, 8)
        rng = np.random.default_rng(4)
        f = GridFunction(g, rng.standard_normal(g.shape))
        path = tmp_path / "f.csv"
        write_function_csv(path, f)
        assert sup_distance(read_function_csv(path, grid=g), f) == 0.0

    def test_samples_builtin_reads_csv(self, tmp_path, grid64, cos128):
        f = sample(grid64, "cosine", k=2)
        path = tmp_path / "init.csv"
        write_function_csv(path, f)
        again = sample(grid64, "samples", path=str(path))
        assert sup_distance(again, f) == 0.0

    def test_malformed_file(self, tmp_path, grid64):
        path = tmp_path / "bad.csv"
        path.write_text("index,x,value\n0,0.0,notanumber\n")
        with pytest.raises(ConfigurationError):
            read_function_csv(path)

    def test_nonfinite_rejected(self, grid8):
        with pytest.raises(ConfigurationError):
            GridFunction(grid8, np.full(grid8.shape, np.nan))
