"""Uniform-grid function representation with exact spectral operations.

A :class:`GridFunction` samples a real function on the uniform grid
``x_k = -X + k*dx``, ``dx = 2X/n``, and caches its discrete Fourier twin
under the convention ``fhat(t) = int e^{itx} f(x) dx``.  With that
convention:

* convolution is multiplication of spectra,
* the j-th derivative is the multiplier ``(-it)^j``,
* convolution with the sinc kernel of bandwidth ``sigma`` is exactly the
  spectral indicator of ``[-1/sigma, 1/sigma]``.

Frequencies live on the FFT grid ``t_m = 2*pi*m/(n*dx)`` with Nyquist band
``[-pi/dx, pi/dx]``.  Functions are treated as periodic with period ``2X``;
wraparound is the caller's aliasing budget (see :class:`~supermix.errors.AliasingRisk`).
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import AliasingRisk, CutoffAboveNyquist, GridMismatch, InvalidP

DEFAULT_HALF_WIDTH = 40.0
DEFAULT_N_POINTS = 2 ** 14

# fraction of L1 mass in the outer 10% of the grid that triggers AliasingRisk
_ALIAS_MASS_FRACTION = 1e-6


@lru_cache(maxsize=32)
def _grid_arrays(half_width: float, n_points: int):
    dx = 2.0 * half_width / n_points
    x = -half_width + dx * np.arange(n_points)
    t = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    # phase factors aligning the FFT index convention with the grid origin
    fwd_phase = np.exp(-1j * t * half_width)
    inv_phase = np.exp(1j * t * half_width)
    for a in (x, t, fwd_phase, inv_phase):
        a.setflags(write=False)
    return x, t, fwd_phase, inv_phase


class GridFunction:
    """Immutable real function on a uniform symmetric grid.

    Parameters
    ----------
    half_width : float
        The grid spans ``[-half_width, half_width)``.
    values : array_like
        Real samples, length a power of two.
    spectrum : ndarray, optional
        Pre-computed DFT twin.  When supplied it is trusted and cached;
        used by spectral constructors so that e.g. band-limiting is an
        exact projection.
    """

    __slots__ = ("half_width", "n_points", "_values", "_spectrum")

    def __init__(self, half_width: float, values, spectrum=None):
        values = np.asarray(values, dtype=float)
        n = values.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError(f"n_points must be a power of two, got {n}")
        if not half_width > 0:
            raise ValueError("half_width must be positive")
        self.half_width = float(half_width)
        self.n_points = n
        v = values.copy()
        v.setflags(write=False)
        self._values = v
        if spectrum is not None:
            spectrum = np.asarray(spectrum, dtype=complex).copy()
            spectrum.setflags(write=False)
        self._spectrum = spectrum

    # -- constructors -------------------------------------------------

    @classmethod
    def from_spectrum(cls, half_width: float, n_points: int, spectrum) -> "GridFunction":
        """Build from the DFT twin; values are synthesized by inverse DFT."""
        spectrum = np.asarray(spectrum, dtype=complex)
        values = _synthesize(half_width, n_points, spectrum)
        return cls(half_width, values, spectrum=spectrum)

    @classmethod
    def from_callable(cls, half_width: float, n_points: int, fn) -> "GridFunction":
        x, _, _, _ = _grid_arrays(half_width, n_points)
        return cls(half_width, fn(x))

    # -- basic accessors ----------------------------------------------

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            spec = _analyze(self.half_width, self.n_points, self._values)
            spec.setflags(write=False)
            self._spectrum = spec
        return self._spectrum

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def nyquist(self) -> float:
        return math.pi / self.dx

    def grid(self) -> np.ndarray:
        return _grid_arrays(self.half_width, self.n_points)[0]

    def freqs(self) -> np.ndarray:
        return _grid_arrays(self.half_width, self.n_points)[1]

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.half_width == other.half_width and self.n_points == other.n_points
        )

    def integral(self) -> float:
        """Riemann-sum integral; exact against the zero-frequency bin."""
        return float(self._values.sum() * self.dx)

    def outer_mass_fraction(self) -> float:
        """Fraction of L1 mass in the outer 10% of the grid."""
        x = self.grid()
        absv = np.abs(self._values)
        total = absv.sum()
        if total == 0.0:
            return 0.0
        outer = absv[np.abs(x) >= 0.9 * self.half_width].sum()
        return float(outer / total)

    # -- arithmetic (same grid, values domain) ------------------------

    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if not self.same_grid(other):
                raise GridMismatch("operands live on different grids")
            return GridFunction(self.half_width, op(self._values, other._values))
        return GridFunction(self.half_width, op(self._values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"GridFunction(X={self.half_width:g}, n={self.n_points}, "
            f"integral={self.integral():.6g})"
        )


def _analyze(half_width: float, n_points: int, values: np.ndarray) -> np.ndarray:
    _, _, fwd_phase, _ = _grid_arrays(half_width, n_points)
    dx = 2.0 * half_width / n_points
    return dx * fwd_phase * (n_points * np.fft.ifft(values))


def _synthesize(half_width: float, n_points: int, spectrum: np.ndarray) -> np.ndarray:
    _, _, _, inv_phase = _grid_arrays(half_width, n_points)
    dx = 2.0 * half_width / n_points
    return np.fft.fft(spectrum * inv_phase).real / (n_points * dx)


def apply_multiplier(f: GridFunction, multiplier: np.ndarray) -> GridFunction:
    """New GridFunction with spectrum ``multiplier * f.spectrum``.

    The result carries the exact product spectrum so that repeated
    applications of idempotent multipliers are bitwise idempotent.
    """
    spec = f.spectrum * multiplier
    return GridFunction.from_spectrum(f.half_width, f.n_points, spec)


def _warn_if_aliasing(f: GridFunction, where: str) -> None:
    if f.outer_mass_fraction() > _ALIAS_MASS_FRACTION:
        warnings.warn(
            f"{where}: more than {_ALIAS_MASS_FRACTION:g} of L1 mass sits in the "
            "outer 10% of the grid; periodic wraparound may contaminate values",
            AliasingRisk,
            stacklevel=3,
        )


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Continuous convolution realized spectrally.

    The total integral of the result equals the product of the integrals
    exactly (zero-frequency bin).  Emits :class:`AliasingRisk` when either
    input keeps more than 1e-6 of its L1 mass in the outer 10% of the grid.
    """
    if not f.same_grid(g):
        raise GridMismatch("convolve requires a common grid")
    _warn_if_aliasing(f, "convolve")
    _warn_if_aliasing(g, "convolve")
    return GridFunction.from_spectrum(f.half_width, f.n_points, f.spectrum * g.spectrum)


def band_limit(f: GridFunction, cutoff: float) -> GridFunction:
    """Zero the spectrum outside ``[-cutoff, cutoff]`` and re-synthesize.

    Equals convolution with the sinc kernel of bandwidth ``1/cutoff``.
    Exact projection: applying it twice returns bitwise-identical values.
    """
    if cutoff > f.nyquist:
        raise CutoffAboveNyquist(f"cutoff {cutoff:g} exceeds Nyquist {f.nyquist:g}")
    t = f.freqs()
    spec = np.where(np.abs(t) <= cutoff, f.spectrum, 0.0)
    return GridFunction.from_spectrum(f.half_width, f.n_points, spec)


def spectral_derivative(f: GridFunction, order: int) -> GridFunction:
    """j-th derivative via the ``(-it)^j`` multiplier.

    For odd orders the Nyquist bin is zeroed to keep the multiplier
    Hermitian; inputs should be band-limited well inside Nyquist anyway.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    t = f.freqs()
    mult = (-1j * t) ** order
    if order % 2 == 1 and f.n_points % 2 == 0:
        mult = mult.copy()
        mult[f.n_points // 2] = 0.0
    return apply_multiplier(f, mult)


def lp_norm(f: GridFunction, p: float) -> float:
    """Riemann-sum L^p norm (p < inf) or max absolute value (p = inf)."""
    if p == math.inf or p == np.inf:
        return float(np.abs(f.values).max())
    if not p >= 1:
        raise InvalidP(f"p must be >= 1 or inf, got {p}")
    absv = np.abs(f.values)
    return float((absv ** p).sum() * f.dx) ** (1.0 / p)


class BandIndicator:
    """Multiplication by the frequency indicator ``1_{[-T, T]}``.

    Application to a grid function is exactly convolution with
    ``sinc_{1/T}``; the cutoff must not exceed the grid's Nyquist band.
    """

    __slots__ = ("cutoff",)

    def __init__(self, cutoff: float):
        if not cutoff > 0:
            raise ValueError("cutoff must be positive")
        self.cutoff = float(cutoff)

    def __call__(self, f: GridFunction) -> GridFunction:
        return band_limit(f, self.cutoff)

    def __repr__(self):
        return f"BandIndicator(cutoff={self.cutoff:g})"
