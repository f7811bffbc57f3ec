"""Catalog of supersmooth kernels and densities with spectral decay laws.

Each family is one row of ``_CATALOG``: its shape parameters, their
range, and at scale s its transform, density and decay law.  Families are
addressable by string id ``family[:shape...][:scale]`` (``"gaussian:1"``,
``"stable:1.5:1"``, ...).  Where a closed-form Fourier transform exists
the grid function is built spectrally, so that e.g. a compactly
band-limited density is *exactly* invariant under band-limiting at or
above its spectral support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import CutoffAboveNyquist, InvalidP, InvalidShape, ScaleTooSmall, UnknownFamily
from .gridfn import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_N_POINTS,
    GridFunction,
    _grid_arrays,
    apply_multiplier,
    lp_norm,
)


@dataclass(frozen=True)
class SupersmoothClass:
    """Spectral-decay class parameters (rho, r, L) plus the support bound.

    ``integral_bound = 2*pi*L`` dominates the truncated decay integral
    ``int exp(2(rho|t|)^r) |fhat|^2 dt`` on the grid; ``spectral_support``
    is finite for band-limited densities and ``inf`` otherwise.
    """

    rho: float
    r: float
    L: float
    spectral_support: float = math.inf

    def decay_integral(self, f: GridFunction) -> float:
        """Truncated value of the weighted spectral energy integral."""
        t = f.freqs()
        dt = 2.0 * math.pi / (f.n_points * f.dx)
        w = np.exp(np.minimum(2.0 * (self.rho * np.abs(t)) ** self.r, 700.0))
        return float((w * np.abs(f.spectrum) ** 2).sum() * dt)

    def envelope(self, t) -> np.ndarray:
        return np.exp(-((self.rho * np.abs(t)) ** self.r))


def _sinc(x: np.ndarray) -> np.ndarray:
    """(sin x)/(pi x) continued with 1/pi at the origin."""
    return np.sinc(np.asarray(x, dtype=float) / math.pi) / math.pi


def _fvp_density(x: np.ndarray) -> np.ndarray:
    half = np.asarray(x, dtype=float) / 2.0
    core = np.sinc(half / math.pi)  # sin(h)/h with the removable singularity
    return core ** 2 / (2.0 * math.pi)


def _superkernel_density(x: np.ndarray, flat: float, cutoff: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    out = (np.cos(flat * xs) - np.cos(cutoff * xs)) / (math.pi * (cutoff - flat) * xs ** 2)
    out[small] = (cutoff + flat) / (2.0 * math.pi)
    return out


def _student_t_density(s: float, nu: float) -> Callable[[np.ndarray], np.ndarray]:
    c = math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)) / math.sqrt(nu * math.pi)
    return lambda x: (c / s) * (1.0 + (x / s) ** 2 / nu) ** (-(nu + 1) / 2)


@dataclass(frozen=True)
class _Family:
    """One family: ``char``/``density``/``decay`` map ``(s, *shape)`` to the transform,
    the density (None: no closed form) and (rho, r, spectral_support); empty ``defaults``
    make every shape field required; ``invalid`` is formatted with the fields by name."""

    decay: Callable[..., tuple[float, float, float]]
    char: Optional[Callable[..., Callable[[np.ndarray], np.ndarray]]] = None
    density: Optional[Callable[..., Callable[[np.ndarray], np.ndarray]]] = None
    params: tuple[str, ...] = ()
    defaults: tuple[float, ...] = ()
    valid: Callable[..., bool] = lambda *shape: True
    invalid: str = ""


_CATALOG = {
    "gaussian": _Family(
        char=lambda s: lambda t: np.exp(-((s * t) ** 2) / 2.0),
        density=lambda s: lambda x: np.exp(-(x / s) ** 2 / 2.0) / (s * math.sqrt(2 * math.pi)),
        decay=lambda s: (s / math.sqrt(2.0), 2.0, math.inf),
    ),
    "cauchy": _Family(
        char=lambda s: lambda t: np.exp(-s * np.abs(t)),
        density=lambda s: lambda x: s / (math.pi * (x ** 2 + s ** 2)),
        decay=lambda s: (s, 1.0, math.inf),
    ),
    "stable": _Family(  # no closed-form density for general r
        params=("r",), valid=lambda r: 0 < r <= 2,
        invalid="stable exponent must lie in (0, 2], got r={r}",
        char=lambda s, r: lambda t: np.exp(-((s * np.abs(t)) ** r)),
        decay=lambda s, r: (s, r, math.inf),
    ),
    "student_t": _Family(  # transform by DFT; decay: the exp(-sqrt(nu) s |t|) envelope (Hurst)
        params=("nu",), valid=lambda nu: 0 < nu < math.inf,
        invalid="student_t needs finite positive degrees of freedom, got {nu}",
        density=_student_t_density,
        decay=lambda s, nu: (s * math.sqrt(nu), 1.0, math.inf),
    ),
    "fvp": _Family(
        char=lambda s: lambda t: np.clip(1.0 - s * np.abs(t), 0.0, None),
        density=lambda s: lambda x: _fvp_density(x / s) / s,
        decay=lambda s: (s, 1.0, 1.0 / s),
    ),
    "sinc": _Family(
        char=lambda s: lambda t: (np.abs(t) <= 1.0 / s).astype(float),
        density=lambda s: lambda x: _sinc(x / s) / s,
        decay=lambda s: (s, 1.0, 1.0 / s),
    ),
    "superkernel": _Family(
        params=("flat", "cutoff"), defaults=(1.0, 2.0),
        valid=lambda flat, cutoff: 0 < flat < cutoff < math.inf,
        invalid="superkernel needs 0 < flat < cutoff < inf, got flat={flat}, cutoff={cutoff}",
        char=lambda s, flat, cutoff: lambda t: np.clip(
            (cutoff - np.abs(t) * s) / (cutoff - flat), 0.0, 1.0),
        density=lambda s, flat, cutoff: lambda x: _superkernel_density(x / s, flat, cutoff) / s,
        decay=lambda s, flat, cutoff: (s, 1.0, cutoff / s),
    ),
}

FAMILIES = tuple(_CATALOG)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel/density family identifier plus scale.

    ``shape`` is the tuple of the family's shape parameters in catalog
    order: () for the one-scale families, (r,) for stable, (nu,) for
    Student-t and (flat, cutoff) for the superkernel.  A bare number
    means a one-tuple and None means the family's defaults.
    """

    family: str
    scale: float = 1.0
    shape: Union[tuple[float, ...], float, None] = None

    def __post_init__(self):
        row = _CATALOG.get(self.family)
        if row is None:
            raise UnknownFamily(f"unknown kernel family {self.family!r}")
        if not self.scale > 0:
            raise ScaleTooSmall("scale must be positive")
        if not math.isfinite(self.scale * self.scale):
            raise ValueError(f"scale must be finite with a finite square, got {self.scale}")
        shape = row.defaults if self.shape is None else self.shape
        shape = tuple(map(float, shape if isinstance(shape, tuple) else (shape,)))
        if len(shape) != len(row.params):
            raise InvalidShape(f"{self.family} shape must be {row.params}, got {shape}")
        if not row.valid(*shape):
            raise InvalidShape(row.invalid.format(**dict(zip(row.params, shape))))
        object.__setattr__(self, "shape", shape)

    def char_fn(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Closed-form Fourier transform under fhat(t) = int e^{itx} f dx."""
        char = _CATALOG[self.family].char
        return None if char is None else char(self.scale, *self.shape)

    def density_fn(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        density = _CATALOG[self.family].density
        return None if density is None else density(self.scale, *self.shape)

    def supersmooth_parameters(self) -> tuple[float, float, float]:
        """(rho, r, spectral_support) of the scaled kernel's decay law."""
        return _CATALOG[self.family].decay(self.scale, *self.shape)

    def id(self) -> str:
        """``family:shape...:scale`` in shortest round-trip reprs; parse_kernel_id's inverse."""
        texts = [repr(float(v)) for v in (*self.shape, self.scale)]
        return ":".join([self.family, *(t[:-2] if t.endswith(".0") else t for t in texts)])


#: the default smoothing kernel of the approximation and transform operators
SINC_KERNEL = KernelSpec("sinc")


def parse_kernel_id(text: str) -> KernelSpec:
    """Parse ``family[:shape...][:scale]``: ``gaussian:1``, ``stable:1.5:1``,
    ``superkernel:1:2:1``.  Every shape field is given, or none where the
    family has defaults, then at most one scale (default 1)."""
    family, *fields = text.strip().split(":")
    if family not in _CATALOG:
        raise UnknownFamily(f"unknown kernel family {family!r}")
    n = len(_CATALOG[family].params)
    if fields and not n <= len(fields) <= n + 1:
        raise InvalidShape(
            f"malformed id {text!r}: {family} takes {n} shape fields, then at most one scale"
        )
    values = [float(v) for v in fields]
    return KernelSpec(family, values[n] if len(values) > n else 1.0, tuple(values[:n]) or None)


def check_resolution(spec: KernelSpec, half_width: float = DEFAULT_HALF_WIDTH,
                     n_points: int = DEFAULT_N_POINTS) -> float:
    """The grid step dx; a scale below 4 dx, which the grid does not resolve
    (0.01953125 on the default grid), raises ``ScaleTooSmall``."""
    dx = 2.0 * half_width / n_points
    if spec.scale < 4.0 * dx:
        raise ScaleTooSmall(f"scale {spec.scale:g} below grid resolution 4*dx = {4 * dx:g}")
    return dx


def kernel_grid(
    spec: KernelSpec,
    half_width: float = DEFAULT_HALF_WIDTH,
    n_points: int = DEFAULT_N_POINTS,
) -> GridFunction:
    """Materialize a kernel/density on the grid.

    Built from the closed-form transform when one exists (the values are
    then the exact periodization of the density); Student-t is sampled in
    the x-domain and its transform computed by DFT.
    """
    dx = check_resolution(spec, half_width, n_points)
    char = spec.char_fn()
    if char is not None:
        t = _grid_arrays(half_width, n_points)[1]
        nyq = math.pi / dx
        _, _, support = spec.supersmooth_parameters()
        if math.isfinite(support) and support > nyq:
            raise CutoffAboveNyquist(
                f"spectral support {support:g} exceeds Nyquist {nyq:g}"
            )
        return GridFunction.from_spectrum(half_width, n_points, char(t))
    density = spec.density_fn()
    f = GridFunction.from_callable(half_width, n_points, density)
    # no closed-form transform: renormalize away the truncated tail mass
    # so the grid object is a proper density (student_t tails are polynomial)
    return GridFunction(half_width, f.values / f.integral())


def supersmooth_class(spec: KernelSpec, f: GridFunction) -> SupersmoothClass:
    """Decay class of a cataloged density, with L fitted from its grid ``f``.

    L is the truncated decay integral divided by 2*pi (so the defining
    inequality holds on the grid by construction); for band-limited
    families the integral is finite independent of the grid.
    """
    rho, r, support = spec.supersmooth_parameters()
    cls = SupersmoothClass(rho=rho, r=r, L=1.0, spectral_support=support)
    L = cls.decay_integral(f) / (2.0 * math.pi)
    return SupersmoothClass(rho=rho, r=r, L=L, spectral_support=support)


def smoothing_multiplier(kernel: KernelSpec, sigma: float, f: GridFunction) -> np.ndarray:
    """Spectral multiplier of convolution with ``kernel_sigma`` on f's grid.

    The sinc kernel's multiplier is the band indicator at 1/sigma.  sigma
    must be finite and positive, and ``1/sigma`` must lie inside f's
    Nyquist band.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if 1.0 / sigma > f.nyquist:
        raise CutoffAboveNyquist(f"1/sigma = {1/sigma:g} exceeds Nyquist {f.nyquist:g}")
    char = replace(kernel, scale=sigma).char_fn()
    if char is None:
        raise UnknownFamily(f"no spectral form for {kernel.family}")
    return char(f.freqs())


def sinc_approx_error(
    f: GridFunction,
    cls: SupersmoothClass,
    sigma: float,
    p: float,
    kernel: KernelSpec = SINC_KERNEL,
) -> float:
    """L^p distance between f and its sinc (or superkernel) smoothing.

    The caller-side law: the returned error is bounded by
    ``C * exp(-alpha (rho/sigma)^r)`` for sigma small, and vanishes
    identically once ``1/sigma`` covers a finite spectral support.
    For the sinc kernel only p in [2, inf] is controlled; a superkernel
    extends the law to p in [1, 2).
    """
    mult = smoothing_multiplier(kernel, sigma, f)
    if p < 2 and kernel.family == "sinc" and not cls.spectral_support < math.inf:
        raise InvalidP("sinc approximation controls only p >= 2; pass a superkernel")
    return lp_norm(apply_multiplier(f, mult) - f, p)


def sinc_quadratic_variation(n_extrema: int) -> float:
    """Partial quadratic-variation sum of sinc over its extrema.

    Sums ``(sinc(x_k) - sinc(x_{k-1}))^2`` over ``x_k = (2k+1) pi / 2``,
    ``k = 1..n``; nondecreasing in n and bounded (tail like sum 1/k^2).
    """
    if n_extrema < 1:
        raise ValueError("need at least one extremum")
    k = np.arange(0, n_extrema + 1)
    vals = _sinc((2 * k + 1) * math.pi / 2.0)
    return float(((vals[1:] - vals[:-1]) ** 2).sum())


# ---------------------------------------------------------------------
# density catalog for experiments (truths with known decay/tail classes)


@dataclass(frozen=True)
class CatalogDensity:
    """A cataloged truth: grid function plus its decay and tail parameters.

    ``tail_rate``/``tail_power`` describe the sub-exponential tail bound
    ``f0(x) <= M exp(-tail_rate |x|^tail_power)`` when one holds
    (``tail_power = 0`` marks polynomial tails).
    """

    name: str
    f: GridFunction
    smooth: SupersmoothClass
    tail_rate: float = 0.0
    tail_power: float = 0.0


def catalog_density(name: str) -> CatalogDensity:
    """Resolve a density id into a CatalogDensity with class parameters,
    on the default grid."""
    spec = parse_kernel_id(name)
    f = kernel_grid(spec)
    cls = supersmooth_class(spec, f)
    tail_rate, tail_power = 0.0, 0.0
    if spec.family == "gaussian":
        tail_rate, tail_power = 1.0 / (2.0 * spec.scale ** 2), 2.0
    return CatalogDensity(
        name=spec.id(),
        f=f,
        smooth=cls,
        tail_rate=tail_rate,
        tail_power=tail_power,
    )
