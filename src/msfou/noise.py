"""Stationary fractional Gaussian noise (fGn) generator.

The sampler is dimensionless: it produces unit-variance noise per unit lag.
Time scaling (``d**H``) is applied by the path-building layer, not here.

Generation is by circulant embedding of the fGn covariance (Dietrich &
Newsam 1997; Wood & Chan 1994). The embedding of size ``2n`` has
nonnegative eigenvalues for fGn, so the synthesized vector has exactly the
requested covariance. The spectrum depends only on (n, H), so it is
computed once per (n, H) and cached; each sample then costs its ``4n``
normals and one half-length real inverse FFT, computed by ``_fgn_into``
into buffers it is given: ``sample_fgn`` allocates them per call.
"""

from __future__ import annotations

import enum
import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np


__all__ = [
    "HurstRegime",
    "HurstParam",
    "NoiseSpec",
    "fgn_autocovariance",
    "sample_fgn",
]


# Argument checks, written once for the whole library: scalars, bounded
# counts, arrays and vectors, Hurst ranges and, for the closed-form
# constants, the float range of their results. Each returns the converted
# value or raises a ValueError that names the argument; a string, a boolean
# or None is not read as a number.

_NOT_NUMBERS = (str, bytes, bool, np.bool_, type(None))


def _as_float(name: str, value) -> float:
    """float(value); ValueError naming ``name`` for a non-number or an integer past float range."""
    try:
        if isinstance(value, _NOT_NUMBERS):
            raise TypeError
        return float(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise ValueError(
            f"{name} is out of range, got an integer of {int(value).bit_length()} bits"
        ) from None


def _finite(name: str, value) -> float:
    """float(value); ValueError naming ``name`` unless it is finite."""
    x = _as_float(name, value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _positive(name: str, value) -> float:
    """float(value); ValueError naming ``name`` unless it is finite and > 0."""
    x = _finite(name, value)
    if not x > 0.0:
        raise ValueError(f"{name} must be positive, got {x}")
    return x


def _whole_number(name: str, value) -> int:
    """int(value), exact for an integer; ValueError naming ``name`` unless value is whole."""
    if not _as_float(name, value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _count(name: str, value, low: int, high: int | None = None) -> int:
    """_whole_number(name, value); ValueError naming ``name`` unless low <= it (<= high)."""
    n = _whole_number(name, value)
    if n < low or high is not None and n > high:
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {n}")
    return n


def _finite_array(name: str, value) -> np.ndarray:
    """Read-only float copy of value, of any shape; ValueError naming ``name`` unless finite."""
    try:
        arr = np.asarray(value)
        # np.asarray reads a boolean among numbers as a number, and an object
        # array holds Python objects, such as integers past int64, so the
        # entries' types are looked at unless value is already a numeric array;
        # a 0-d array entry is typed by its dtype
        scan_entries = arr.dtype.kind == "O" or not isinstance(value, np.ndarray)
        if arr.dtype.kind not in "iufO" or scan_entries and any(
            issubclass(kind, _NOT_NUMBERS)
            for kind in {
                entry.dtype.type if isinstance(entry, np.ndarray) else type(entry)
                for entry in np.asarray(value, dtype=object).flat
            }
        ):
            raise TypeError
        arr = np.array(arr, dtype=float)
    except (TypeError, ValueError):
        # strings, booleans, None or complex numbers, or ragged input
        raise ValueError(f"{name} must hold numbers") from None
    except OverflowError:
        raise ValueError(f"{name} contains an integer past the float range") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _finite_vector(name: str, value) -> np.ndarray:
    """Read-only 1-d float copy of value; ValueError naming ``name`` unless a finite vector."""
    arr = _finite_array(name, value)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _frozen_vectors(obj, names: tuple[str, ...]) -> int:
    """Freeze fields ``names`` of ``obj`` through ``_finite_vector``; their common length."""
    for name in names:
        object.__setattr__(obj, name, _finite_vector(name, getattr(obj, name)))
    n = getattr(obj, names[0]).size
    if any(getattr(obj, name).size != n for name in names[1:]):
        raise ValueError(f"{', '.join(names)} must share a length")
    return n


def _in_float_range(func):
    """func, with an OverflowError, a ZeroDivisionError or an inf or NaN result
    refused by one ValueError that names func and its arguments ("sigma_H is
    out of the float range at theta=1e-200, H=0.65"); an array result is
    refused if any entry is inf or NaN.
    """
    signature = inspect.signature(func)

    @functools.wraps(func)
    def checked(*args, **kwargs):
        try:
            value = func(*args, **kwargs)
            if math.isfinite(value) if isinstance(value, float) else np.all(np.isfinite(value)):
                return value
        except (OverflowError, ZeroDivisionError):
            pass
        where = ", ".join(
            f"H={v.h}" if isinstance(v, HurstParam) else f"{k}={v}"
            for k, v in signature.bind(*args, **kwargs).arguments.items()
        )
        raise ValueError(f"{func.__name__} is out of the float range at {where}")

    return checked


class HurstRegime(enum.Enum):
    """Qualitative regime of the Hurst index, as used by the asymptotics."""

    SHORT_MEMORY = "short_memory"   # 0 < h < 1/2
    BROWNIAN = "brownian"           # h = 1/2
    ERGODIC_CLT = "ergodic_clt"     # 1/2 < h < 3/4, Gaussian limit at rate sqrt(T)
    BOUNDARY = "boundary"           # h = 3/4, rate sqrt(T/log T)
    ROSENBLATT = "rosenblatt"       # 3/4 < h < 1, rate T^(2-2H), non-Gaussian limit


@dataclass(frozen=True)
class HurstParam:
    """Validated Hurst index in the open interval (0, 1)."""

    h: float

    def __post_init__(self) -> None:
        h = _as_float("Hurst index", self.h)
        if not 0.0 < h < 1.0:
            raise ValueError(f"Hurst index must lie in (0, 1), got {self.h!r}")
        object.__setattr__(self, "h", h)

    @property
    def regime(self) -> HurstRegime:
        if self.h < 0.5:
            return HurstRegime.SHORT_MEMORY
        if self.h == 0.5:
            return HurstRegime.BROWNIAN
        if self.h < 0.75:
            return HurstRegime.ERGODIC_CLT
        if self.h == 0.75:
            return HurstRegime.BOUNDARY
        return HurstRegime.ROSENBLATT


# The Hurst ranges the estimators and their constants hold on, keyed by the
# wording of the error that names them.
_HURST_RANGES = {
    "H >= 1/2": lambda hh: hh >= 0.5,
    "H > 1/2": lambda hh: hh > 0.5,
    "1/2 < H < 3/4": lambda hh: 0.5 < hh < 0.75,
}


def _hurst(name: str, h, needs: str = "") -> HurstParam:
    """h; TypeError unless a HurstParam, ValueError naming ``name`` unless H is in ``needs``."""
    if not isinstance(h, HurstParam):
        raise TypeError(f"expected HurstParam, got {type(h).__name__}")
    if needs and not _HURST_RANGES[needs](h.h):
        raise ValueError(f"{name} requires {needs}, got H={h.h}")
    return h


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic description of one noise vector.

    Identical specs (plus the Hurst index) yield bit-identical output.
    ``n`` >= 1, ``seed`` in [0, 2**64 - 1] and ``stream`` >= 0 must be whole
    numbers; 300.0 reads as 300.
    ``stream`` selects a statistically independent substream of ``seed``;
    callers that need several independent vectors per seed (e.g. the sfBm
    and Brownian components of a mixed path) use distinct stream indices.
    """

    n: int
    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count("n", self.n, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0, 2**64 - 1))
        object.__setattr__(self, "stream", _count("stream", self.stream, 0))

    def rng(self) -> np.random.Generator:
        """Counter-based generator for this (seed, stream) pair."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))


# fgn_autocovariance sums its series in 1/k^2 to this many terms.
_SERIES_TERMS = 26


def fgn_autocovariance(k, H: HurstParam):
    """Autocovariance rho(k) of unit-variance fGn at whole-number lag k.

    rho(k) = ((|k|+1)^(2H) - 2|k|^(2H) + ||k|-1|^(2H)) / 2. Accepts a
    finite scalar, which gives a float, or an array of lags; a lag that
    is not a whole number is refused.

    rho(0) = 1 and rho(1) = 2^(2H-1) - 1, taken by expm1. From |k| = 2 on,
    rho is the series sum_{j>=1} C(2H, 2j) |k|^(2H-2j) of that second
    difference, summed by Horner's rule in 1/k^2. Its terms share one sign
    and each carries the factor 2H - 1, so nothing cancels: H = 1/2 gives
    exact zeros, and there is no power k^(2H) to overflow. Each term is
    about 1/k^2 of the one before, so 26 of them leave less than 1e-17
    relative at k = 2; against mpmath the sum is within 2e-15 relative at
    every H. The direct second difference loses about k^2 / |2H-1| ulps to
    cancellation: 2.8e-10 relative at k <= 7, H = 0.50001, and 1.9e-6 for
    4.9e-7 at k = 1e8, H = 0.65.
    A result below the smallest float (H = 0.3, k = 1e300) reads 0.
    """
    _hurst("fgn_autocovariance", H)
    two_h = 2.0 * H.h
    k_arr = _finite_array("k", k)
    k_abs = np.abs(np.atleast_1d(k_arr))  # a scalar lag runs the vector's operations
    if not np.all(k_abs == np.floor(k_abs)):
        raise ValueError("k must hold whole numbers")
    coef = [H.h * (two_h - 1.0)]  # C(2H, m) for m = 2, 4, ...
    for m in range(4, 2 * _SERIES_TERMS + 1, 2):
        coef.append(coef[-1] * (two_h - m + 2) * (two_h - m + 1) / (m * (m - 1)))
    lag = np.maximum(k_abs, 2.0)  # lags 0 and 1 are overwritten below
    u = (1.0 / lag) ** 2
    rho = np.full_like(lag, coef[-1])
    for c in coef[-2::-1]:
        rho *= u
        rho += c
    rho *= lag ** (two_h - 2.0)
    rho[k_abs == 1.0] = math.expm1((two_h - 1.0) * math.log(2.0))
    rho[k_abs == 0.0] = 1.0
    return float(rho[0]) if k_arr.ndim == 0 else rho


@functools.lru_cache(maxsize=8)
def _circulant_sqrt_eig(n: int, H: HurstParam) -> np.ndarray:
    """Read-only weights sqrt(2n eig_k) / 2, k = 0..n, of the 2n circulant embedding."""
    # First row of the 2n circulant: [rho(0..n), rho(n-1), ..., rho(1)]. It is
    # symmetric, so its eigenvalues are real with eig_k = eig_{2n-k}, and the
    # half k = 0..n that rfft returns holds all of them.
    rho = fgn_autocovariance(np.arange(n + 1), H)
    row = np.concatenate([rho, rho[-2:0:-1]])
    eig = np.fft.rfft(row).real

    # Eigenvalues are provably >= 0 for fGn; anything beyond roundoff means
    # the covariance (or this embedding) is wrong, so fail loudly. The cache
    # stores no exception, so a bad embedding raises on every call.
    tol = 1e-10 * eig.max()
    if eig.min() < -tol:
        raise RuntimeError(
            f"circulant embedding produced negative eigenvalue {eig.min():.3e}"
        )
    weight = 0.5 * math.sqrt(2 * n) * np.sqrt(np.maximum(eig, 0.0))
    weight.setflags(write=False)
    return weight


def _fgn_into(spec: NoiseSpec, H: HurstParam, z: np.ndarray, half: np.ndarray) -> np.ndarray:
    """fGn of ``spec`` at H, written over z[:n]: a view of z, which holds 4n floats.

    ``half`` holds n + 1 complex numbers. Every entry of z and half is
    written before it is read, so their old contents do not matter and
    the same buffers serve call after call. Unchecked: see ``sample_fgn``.
    """
    weight = _circulant_sqrt_eig(spec.n, H)
    n, m = spec.n, 2 * spec.n
    spec.rng().standard_normal(out=z)
    a, b = z[:m], z[m:]
    # x = sqrt(m) Re(ifft(sqrt(eig) (a + ib))) has exactly the circulant
    # covariance: E[(a + ib)_k^2] = 0, so the real part carries half of
    # E|.|^2 = 2 eig / m. That real part is the inverse FFT of the Hermitian
    # part of sqrt(eig) (a + ib); as eig_k = eig_{m-k}, its entry k is
    # sqrt(eig_k) (a_k + a_{m-k} + i (b_k - b_{m-k})) / 2, indices mod m, and
    # irfft reads it at k = 0..n only. The normals are spent once half is
    # built, so the transform is written over them.
    half.real[0], half.imag[0] = 2.0 * a[0], 0.0
    np.add(a[1 : n + 1], a[: n - 1 : -1], out=half.real[1:])
    np.subtract(b[1 : n + 1], b[: n - 1 : -1], out=half.imag[1:])
    np.multiply(half.real, weight, out=half.real)
    np.multiply(half.imag, weight, out=half.imag)
    return np.fft.irfft(half, m, out=a)[:n]


def sample_fgn(spec: NoiseSpec, H: HurstParam) -> np.ndarray:
    """Sample a zero-mean stationary Gaussian vector with fGn covariance.

    The vector is synthesized by circulant embedding, so its covariance is
    exactly ``fgn_autocovariance(., H)``, not an approximation of it. The
    embedding's spectrum is computed once per (n, H) and reused, so a call
    with a seen (n, H) costs only its ``4n`` normals and one half-length
    real inverse FFT. It allocates the ``4n`` normals, which the transform
    overwrites, the ``n + 1`` complex half spectrum and the returned vector.

    Parameters
    ----------
    spec : NoiseSpec
        Length and seed/stream. ``n >= 2`` required.
    H : HurstParam
        Hurst index of the target covariance ``fgn_autocovariance(., H)``.

    Returns
    -------
    numpy.ndarray of shape ``(spec.n,)`` that owns its values: it keeps
    no larger buffer alive. Same spec in, same bytes out.
    """
    _hurst("sample_fgn", H)
    if spec.n < 2:
        raise ValueError(f"need n >= 2 to define fGn, got n={spec.n}")
    return _fgn_into(spec, H, np.empty(4 * spec.n), np.empty(spec.n + 1, dtype=complex)).copy()
