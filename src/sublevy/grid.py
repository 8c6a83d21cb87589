"""Uniform periodic grids on the 1- and 2-torus, grid functions, transforms, and
the file formats: every CSV table the package writes and every JSON file it reads.

The torus is represented by (-pi, pi]^d sampled at x_j = -pi + j * (2*pi/n)
per axis.  Spectra follow the convention f(x) = sum_k c_k exp(i k.x) with
integer modes k in {-n/2+1, ..., n/2} per axis; the forward transform is the
unnormalized DFT sum divided by n^d.  Coefficient arrays are stored in FFT
index order.

All containers are immutable values; the operations below are pure functions
and safe to call concurrently on shared inputs.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

MAX_POINTS_PER_AXIS = 2**16
MAX_POINTS = 2**22  # 2D n=2048, where a table and one m=4 envelope step peak near 0.5 GB

TWO_PI = 2.0 * np.pi


@functools.lru_cache(maxsize=None)
def _mode_axis(n: int) -> np.ndarray:
    """Integer Fourier modes in FFT order with the Nyquist mode taken as +n/2."""
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    k[k == -n // 2] = n // 2
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=None)
def _phase_axis(n: int) -> np.ndarray:
    # exp(-i k x_0) = (-1)^k for x_0 = -pi; relates the FFT (indexed from x=-pi)
    # to coefficients in the centered convention.
    p = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid with n points per axis on the d-torus, d in {1, 2}."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", checked(self.dim, "grid dim", 1, 2, integer=True))
        object.__setattr__(self, "n", checked(self.n, "grid size n", 4, MAX_POINTS_PER_AXIS,
                                              integer=True))
        if self.n % 2 != 0:
            raise ConfigurationError(f"grid size must be even, got n={self.n}")
        if self.n**self.dim > MAX_POINTS:
            raise ConfigurationError(
                f"grid of {self.n}^{self.dim} points is above the limit of {MAX_POINTS}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of the half spectrum a real FFT stores: last-axis modes 0..n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    def axis_points(self) -> np.ndarray:
        """Grid coordinates -pi + j*spacing along one axis."""
        return -np.pi + self.spacing * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        x = self.axis_points()
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def mode_axes(self) -> tuple[np.ndarray, ...]:
        """Integer modes (FFT order, Nyquist = +n/2) of each half-spectrum axis,
        shaped to broadcast: (n/2+1,) in 1D, (n, 1) and (1, n/2+1) in 2D."""
        axes = [_mode_axis(self.n)] * self.dim
        return np.ix_(*axes[:-1], axes[-1][: self.n // 2 + 1])

    def nearest_index(self, points) -> tuple[np.ndarray, ...]:
        """Index of the grid point nearest each torus point of an (..., d) array:
        one integer array of shape (...) per axis, ties rounded half to even.
        The only nearest-cell rule; a single point gives a tuple of scalars."""
        p = np.atleast_1d(np.asarray(points, dtype=float))
        if p.shape[-1] != self.dim:
            raise ConfigurationError(f"point must have {self.dim} coordinates")
        cells = np.rint((p + np.pi) / self.spacing).astype(np.int64) % self.n
        return tuple(np.moveaxis(cells, -1, 0))


def make_grid(dim: int, n: int) -> TorusGrid:
    return TorusGrid(dim, n)


@dataclass(frozen=True)
class GridFunction:
    """Real samples of a function on a TorusGrid, with sup-norm semantics."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ConfigurationError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("grid function values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @functools.cached_property
    def sup_norm(self) -> float:
        return _sup_norm(self.values)

    def value_at(self, index: tuple[int, ...]) -> float:
        return float(self.values[index])


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients of a grid function, in FFT index order."""

    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ConfigurationError(
                f"coeffs shape {c.shape} does not match grid shape {self.grid.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def _phase_nd(grid: TorusGrid) -> np.ndarray:
    p = _phase_axis(grid.n)
    if grid.dim == 1:
        return p
    return np.multiply.outer(p, p)


def forward_transform(f: GridFunction) -> Spectrum:
    return Spectrum(f.grid, np.fft.fftn(f.values) * _phase_nd(f.grid) / f.grid.size)


def inverse_transform(s: Spectrum) -> GridFunction:
    return GridFunction(s.grid, (np.fft.ifftn(s.coeffs * _phase_nd(s.grid)) * s.grid.size).real)


def _sup_norm(a: np.ndarray) -> float:
    """max |a| as max(|min a|, |max a|): the same number, without an |a| grid."""
    return max(abs(float(a.min())), abs(float(a.max())))  # methods: no np.min wrapper


def sup_distance(f: GridFunction, g: GridFunction) -> float:
    if f.grid != g.grid:
        raise ConfigurationError("grid functions live on different grids")
    return _sup_norm(f.values - g.values)


def wrap_point(p: np.ndarray) -> np.ndarray:
    """Representative of a torus point in (-pi, pi]^d; wrapping it again returns it."""
    p = np.asarray(p, dtype=float)
    out = p - TWO_PI * np.ceil((p - np.pi) / TWO_PI)
    far = np.isfinite(p) & ~((out > -np.pi) & (out <= np.pi))
    if np.any(far):
        # rounded out near odd multiples of pi and past 1e12; fmod and one shift are exact
        r = np.fmod(np.where(far, p, 0.0), TWO_PI)
        out = np.where(far, r - TWO_PI * (r > np.pi) + TWO_PI * (r <= -np.pi), out)[()]
    return out


# -- named initial functions -------------------------------------------------

def _cosine(grid: TorusGrid, k, phase: float = 0.0) -> np.ndarray:
    ks = np.atleast_1d(np.asarray(k))
    if ks.shape != (grid.dim,):
        raise ConfigurationError(f"cosine needs {grid.dim} wave numbers, got {k!r}")
    if not np.all(ks == np.round(ks)):
        raise ConfigurationError(f"cosine wave numbers must be integers, got {k!r}")
    mesh = grid.meshgrid()
    arg = sum(int(ki) * xi for ki, xi in zip(ks, mesh)) + float(phase)
    return np.cos(arg)


def _bump(grid: TorusGrid, center, width: float) -> np.ndarray:
    checked(width, "bump width", above=True)
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (grid.dim,):
        raise ConfigurationError(f"bump center needs {grid.dim} coordinates")
    for coordinate in c.tolist():
        checked(coordinate, "bump center coordinate", -math.inf)
    out = np.ones(grid.shape)
    for axis, xi in enumerate(grid.meshgrid()):
        d = xi - c[axis]
        d = np.abs(d - TWO_PI * np.round(d / TWO_PI))  # torus arc distance
        # d capped at width: outside the bump the quotient would overflow
        ramp = 0.5 * (1.0 + np.cos(np.pi * np.minimum(d, width) / width))
        out = out * np.where(d <= width, ramp, 0.0)
    return out


def _constant(grid: TorusGrid, value: float) -> np.ndarray:
    return np.full(grid.shape, float(value))


def sample(grid: TorusGrid, kind: str, **params) -> GridFunction:
    """Evaluate a named initial function pointwise at the grid points.

    Builtins: cosine(k, phase), bump(center, width), constant(value),
    samples(path) reading the grid-function CSV format.
    """
    makers = {"cosine": _cosine, "bump": _bump, "constant": _constant}
    if kind in makers:
        for key, value in params.items():
            numbers_only(value, f"{kind} parameter {key!r}")
        try:
            return GridFunction(grid, makers[kind](grid, **params))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"bad {kind} parameters {params!r}: {exc}") from None
    if kind == "samples":
        try:
            path = params["path"]
        except KeyError:
            raise ConfigurationError("samples needs a 'path' parameter") from None
        return read_function_csv(path, grid=grid)
    raise ConfigurationError(f"unknown initial function {kind!r}")


# -- file interchange ---------------------------------------------------------

def read_json(path, what: str):
    """Parsed JSON of a file; an unreadable file or bad JSON is a ConfigurationError
    naming what the file is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}") from exc


def numbers_only(value, what: str):
    """value itself, refused when it is or holds (in nested lists) a JSON boolean
    or string: a number field would otherwise read true and false as 1 and 0,
    "0.2" as 0.2, and a string of digits as a list of them."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (bool, str)):
            raise ConfigurationError(f"{what} must be a number, got {json.dumps(item)}")
        if isinstance(item, (list, tuple)):
            stack.extend(item)
    return value


def checked(value, what: str, low=0, high=math.inf, *, above=False, integer=False):
    """value, refused unless it is a finite number in [low, high] ((low, high]
    when above): a whole one, returned as an int, when integer, and otherwise
    one no larger than the largest float.  The one range rule of every scalar a
    library door or the config takes: each comparison is one that NaN fails,
    and a Python int of any size compares exactly (no float conversion).  A
    value that is no real number (a string, None, a complex, a container) or
    is a bool, which would read as 0 or 1, is refused by the same rule."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and -math.inf < value < math.inf and (value > low if above else value >= low)
            and value <= high
            and (int(value) == value if integer else abs(value) <= sys.float_info.max)):
        interval = (f"{'(' if above or low == -math.inf else '['}{low}, "
                    f"{high}{']' if high < math.inf else ')'}")
        noun = "an integer" if integer else "a finite number"
        raise ConfigurationError(
            f"{what} must be {noun} in {interval}, got {value if number else repr(value)}")
    return int(value) if integer else value


def keys_only(obj: dict, known, prefix: str = "", what: str = "config") -> dict:
    """obj, refused at a key that known lacks (prefix is its place); a non-object passes."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in known:
            raise ConfigurationError(f"{what} field {prefix + str(key)!r} is not known")
    return obj


def _csv_header(dim: int, lead: str | None = None, value: str = "value") -> list[str]:
    return ([lead] if lead else []) + ["index", "x", "y"][:1 + dim] + [value]


def _field(x):
    """A CSV field: floats at 17 significant digits, anything else as it is."""
    return "%.17g" % x if isinstance(x, float) else x


def write_table(path, header, rows) -> None:
    """A small CSV table through csv.writer: CRLF line ends, floats at 17
    significant digits, and a field quoted only where it needs it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_field(x) for x in row] for row in rows)


def write_grid_table(path, grid: TorusGrid, header, snapshots, fmt: str = "%.17g") -> None:
    """A grid table: the header, then one ``[lead,]index,x[,y],value`` row per grid
    point, row-major, for each (lead, values) snapshot; lead None means no lead
    column.  The bytes are those of write_table, with values through fmt.

    Each first-axis grid row is filled with one ``%`` over its values.  The index
    and coordinate strings are formatted once per table: kept for every row when
    several snapshots follow, built row by row when there is one."""
    n = grid.n
    xs = ["%.17g" % x for x in grid.axis_points().tolist()]
    row_x = [""] if grid.dim == 1 else [x + "," for x in xs]
    def parts(i):
        return [f"{i * n + j},{row_x[i]}{y},{fmt}\r\n" for j, y in enumerate(xs)]
    snapshots = list(snapshots)
    kept = [parts(i) for i in range(len(row_x))] if len(snapshots) > 1 else None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lead, values in snapshots:
            lead = "" if lead is None else f"{_field(lead)},"
            for i, row in enumerate(np.reshape(values, (-1, n))):
                fh.write(lead + lead.join(kept[i] if kept else parts(i)) % tuple(row.tolist()))


def write_function_csv(path, f: GridFunction) -> None:
    """One row per grid point, row-major; floats at 17 significant digits."""
    write_grid_table(path, f.grid, _csv_header(f.grid.dim), [(None, f.values)])


def read_function_csv(path, grid: TorusGrid | None = None) -> GridFunction:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigurationError(f"cannot read sample file {path}: {exc}") from exc
    if not rows:
        raise ConfigurationError(f"sample file {path} is empty")
    header = rows[0]
    if header == _csv_header(1):
        dim = 1
    elif header == _csv_header(2):
        dim = 2
    else:
        raise ConfigurationError(f"sample file {path} has unexpected header {header}")
    body = rows[1:]
    count = len(body)
    n = round(count ** (1.0 / dim))
    if n**dim != count:
        raise ConfigurationError(f"sample file {path} has {count} rows, not a {dim}-d grid")
    if grid is None:
        grid = make_grid(dim, n)
    elif grid.dim != dim or grid.size != count:
        raise ConfigurationError(
            f"sample file {path} has {count} rows of dim {dim}, expected grid {grid}"
        )
    try:
        values = np.array([float(r[-1]) for r in body]).reshape(grid.shape)
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"sample file {path} is malformed: {exc}") from exc
    return GridFunction(grid, values)
