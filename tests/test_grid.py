import math
import re
import warnings

import numpy as np
import pytest

from sublevy import (
    ConfigurationError,
    GridFunction,
    forward_transform,
    inverse_transform,
    make_grid,
    read_function_csv,
    sample,
    sup_distance,
    wrap_point,
    write_function_csv,
)
from sublevy.grid import checked
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

    @pytest.mark.parametrize("dim,n", [(0, 8), (3, 8), (1, 2), (1, 2**17), (2, 4096), (2, 2**16)])
    def test_out_of_range(self, dim, n):
        with pytest.raises(ConfigurationError):
            make_grid(dim, n)

    def test_nearest_index_of_a_batch(self):
        g = make_grid(2, 8)
        h = g.spacing
        # the third point is half a cell past x_2 on the first axis: the tie goes
        # to the even index 2, not 3; pi wraps onto index 0
        pts = np.array([[[-np.pi, 0.0], [np.pi, 0.4 * h]], [[-np.pi + 2.5 * h, -0.6 * h],
                                                           [5 * h - np.pi, np.pi - 0.4 * h]]])
        ix, iy = g.nearest_index(pts)
        assert ix.shape == iy.shape == (2, 2)
        assert ix.tolist() == [[0, 0], [2, 5]] and iy.tolist() == [[4, 4], [3, 0]]
        for point, i, j in zip(pts.reshape(-1, 2), ix.ravel(), iy.ravel()):
            assert g.nearest_index(point) == (i, j)
        with pytest.raises(ConfigurationError):
            g.nearest_index(np.zeros((3, 1)))

    def test_nearest_index_of_far_and_non_finite_points(self):
        # the cast of (p + pi) / h to int64 overflowed past about 1e19 and gave
        # cell 0 with a RuntimeWarning: a far point now takes its wrapped
        # point's cell, and NaN or inf is refused
        g = make_grid(1, 16)
        far = np.array([1e20, -1e20, 1e300, -1e300, 7.0, 1e12 + 0.3, -np.pi - 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = g.nearest_index(far[:, None])[0]
            assert g.nearest_index([1e20]) == (8,)
        assert cells.tolist() == g.nearest_index(wrap_point(far)[:, None])[0].tolist()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="^point coordinates must be finite$"):
                g.nearest_index([[0.0], [bad]])
        # points in [-pi, pi]^d keep the cells of rint((p + pi) / h) mod n, bitwise
        g2 = make_grid(2, 64)
        pts = np.random.default_rng(5).uniform(-np.pi, np.pi, (500, 2))
        pts[:4] = [[-np.pi, np.pi], [np.pi, -np.pi], [0.0, -0.0], [np.pi, np.pi]]
        expect = np.rint((pts + np.pi) / g2.spacing).astype(np.int64) % 64
        assert np.array_equal(np.stack(g2.nearest_index(pts), axis=-1), expect)


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

    @pytest.mark.parametrize("width", [1e-320, 5e-324])
    def test_subnormal_bump_width_warns_nothing(self, grid64, width):
        # pi * d / width overflowed at every point outside the bump, and then
        # cos(inf) was invalid; the one grid point at the centre keeps 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = sample(grid64, "bump", center=0.0, width=width)
        assert f.values[grid64.nearest_index(np.array([0.0]))] == 1.0
        assert np.count_nonzero(f.values) == 1

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


class TestWrapPoint:
    @staticmethod
    def inside(x):
        return (x > -np.pi) & (x <= np.pi)

    def test_moderate_points_keep_the_formula(self):
        # the formula wrap_point has always used; where it lands in (-pi, pi] the
        # result is bit for bit the same, and where it rounds out (at some odd
        # multiples of pi, and at some points beyond 1e11) the result is in range
        two_pi = 2.0 * np.pi
        rng = np.random.default_rng(0)
        odd = np.pi * (2 * np.arange(-2000, 2000) + 1)
        p = np.concatenate([rng.uniform(-s, s, 20_000) for s in (4.0, 1e3, 1e6, 1e9, 1e12, 1e15)]
                           + [odd, np.nextafter(odd, 0), np.nextafter(odd, np.inf),
                              [0.0, -0.0, np.pi, -np.pi, 1e15, -1e15]])
        formula = p - two_pi * np.ceil((p - np.pi) / two_pi)
        kept = self.inside(formula)
        assert kept[:80_000].all()  # every random point up to 1e9
        out = wrap_point(p)
        assert np.array_equal(out[kept].view(np.int64), formula[kept].view(np.int64))
        assert np.all(self.inside(out))

    def test_every_finite_point_wraps_into_range_once(self):
        rng = np.random.default_rng(1)
        big = np.finfo(float).max
        p = np.concatenate([rng.uniform(-1e300, 1e300, 20_000), rng.uniform(-1e18, 1e18, 20_000),
                            [5e17, -5e17, big, -big, np.nextafter(-np.pi, 0), -np.pi, np.pi]])
        out = wrap_point(p)
        assert np.all(self.inside(out))
        assert np.array_equal(wrap_point(out).view(np.int64), out.view(np.int64))
        assert self.inside(wrap_point(5e17)) and wrap_point(wrap_point(5e17)) == wrap_point(5e17)
        assert isinstance(wrap_point(5e17), np.float64)
        assert np.isnan(wrap_point(np.array([np.nan, 5e17]))[0])


class TestCyclicShift:
    def test_half_turn_flips_cos(self, cos128):
        # x_j + pi is the grid point n/2 steps on
        shifted = np.roll(cos128.values, -(cos128.grid.n // 2))
        assert np.max(np.abs(shifted + cos128.values)) < 1e-15


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

    @pytest.mark.parametrize("values, got", [
        (["1.5"] * 8, '"1.5"'),
        ([True] * 8, "true"),
        ([0.0] * 7 + [False], "false"),
        (np.full(8, "1.5"), "an array of <U3"),
        (np.full(8, True), "an array of bool"),
        (np.full(8, 1j), "an array of complex128"),
    ])
    def test_non_numbers_refused(self, grid8, values, got):
        # numpy would parse the strings and read True as 1
        with pytest.raises(ConfigurationError,
                           match=f"^grid function value must be a number, got {re.escape(got)}$"):
            GridFunction(grid8, values)
        ints = GridFunction(grid8, np.arange(8))
        assert ints.values.dtype == np.float64 and ints.values.flags.c_contiguous


class TestChecked:
    @pytest.mark.parametrize("value, bounds", [
        (0, {}), (0.0, {"low": -math.inf}), (10**400, {"integer": True}),
        (2**64 - 1, {"high": 2**64 - 1, "integer": True}), (3.0, {"integer": True}),
        (np.nextafter(np.pi, 0), {"high": np.nextafter(np.pi, 0), "above": True}),
    ])
    def test_returns_a_value_in_range(self, value, bounds):
        # a Python int of any size compares exactly, with no float conversion;
        # a whole-valued float count comes back as the int
        out = checked(value, "x", **bounds)
        if isinstance(value, float) and bounds.get("integer"):
            assert out == value and type(out) is int
        else:
            assert out is value

    @pytest.mark.parametrize("value, bounds, message", [
        (math.nan, {"above": True}, "x must be a finite number in (0, inf), got nan"),
        (-math.inf, {"low": -math.inf}, "x must be a finite number in (-inf, inf), got -inf"),
        (0, {"above": True}, "x must be a finite number in (0, inf), got 0"),
        (2.5, {"high": 20, "integer": True}, "x must be an integer in [0, 20], got 2.5"),
        (2**64, {"high": 2**64 - 1, "integer": True},
         "x must be an integer in [0, 18446744073709551615], got 18446744073709551616"),
        (math.pi, {"high": np.nextafter(np.pi, 0), "above": True},
         "x must be a finite number in (0, 3.1415926535897927], got 3.141592653589793"),
        # no real number, or a bool, which would read as 0 or 1: the same refusal,
        # not a TypeError from the comparisons
        ("3", {"high": 20, "integer": True}, "x must be an integer in [0, 20], got '3'"),
        (None, {}, "x must be a finite number in [0, inf), got None"),
        (1j, {}, "x must be a finite number in [0, inf), got 1j"),
        ([1.0], {}, "x must be a finite number in [0, inf), got [1.0]"),
        (True, {"integer": True}, "x must be an integer in [0, inf), got True"),
        (np.True_, {}, "x must be a finite number in [0, inf), got np.True_"),
    ])
    def test_refusal_names_the_bound_and_the_value(self, value, bounds, message):
        with pytest.raises(ConfigurationError) as exc:
            checked(value, "x", **bounds)
        assert str(exc.value) == message
