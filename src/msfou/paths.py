"""Sub-fractional and mixed paths, and the Euler scheme for the OU process.

Construction pipeline: a length-2N fGn vector, drawn by exact circulant
embedding, becomes a two-sided fBm on {-Nd, ..., -d} u {d, ..., Nd};
folding the two sides gives a sub-fractional Brownian motion (sfBm); adding
an independent Brownian motion gives the mixed process xi; the
Ornstein-Uhlenbeck recursion driven by xi increments gives the observed
path X. Paths are read from and written to CSV through open text handles.

``euler_msfou`` runs that pipeline in place in 12N + 2 floats: the fGn's
8N normals and its half spectrum. A call makes and drops its own set,
except inside ``_reuse_buffers``, where a thread keeps one set per N: the
harness runs its replication loops in one, so no replication faults in a
fresh set.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .noise import HurstParam, NoiseSpec, _finite_array, _finite_vector, sample_fgn
from .noise import _count, _fgn_into, _finite, _frozen_vectors, _hurst, _in_float_range, _positive

__all__ = [
    "SamplePath",
    "TwoSidedFbm",
    "two_sided_fbm",
    "sfbm_path",
    "sfbm_covariance",
    "euler_msfou",
    "write_path_csv",
    "read_path_csv",
]


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Uniformly sampled realization of a process on t_i = i*d, i = 1..N.

    ``values[i-1]`` is the value at t_i; the value at t_0 = 0 is carried
    separately in ``initial_value``. Paths are immutable after construction.
    """

    d: float
    values: np.ndarray
    initial_value: float = 0.0

    def __post_init__(self) -> None:
        if _frozen_vectors(self, ("values",)) < 1:
            raise ValueError("values must hold at least one point")
        object.__setattr__(self, "d", _positive("d", self.d))
        object.__setattr__(self, "initial_value", _finite("initial_value", self.initial_value))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def span(self) -> float:
        """Total time span T = N*d."""
        return self.n * self.d

    @property
    def times(self) -> np.ndarray:
        """Observation times t_1..t_N (excluding t_0 = 0)."""
        return self.d * np.arange(1, self.n + 1)

    def full_values(self) -> np.ndarray:
        """Values at t_0..t_N including the initial value."""
        return np.concatenate([[self.initial_value], self.values])


@dataclass(frozen=True, eq=False)
class TwoSidedFbm:
    """fBm sampled on both half-lines: pos[i-1] = B(i*d), neg[i-1] = B(-i*d)."""

    pos: np.ndarray
    neg: np.ndarray
    d: float

    def __post_init__(self) -> None:
        if _frozen_vectors(self, ("pos", "neg")) < 1:
            raise ValueError("pos and neg must hold at least one point")
        object.__setattr__(self, "d", _positive("d", self.d))


def two_sided_fbm(fgn2n, d: float, H: HurstParam) -> TwoSidedFbm:
    """Assemble a two-sided fBm from one fGn vector of even length 2N.

    The second half of the increments builds the positive side, the first
    half (reversed, negated) the negative side:

        pos[i] = d^H * (Y[N+1] + ... + Y[N+i])
        neg[i] = -d^H * (Y[N] + Y[N-1] + ... + Y[N-i+1])

    The d^H factor is the self-similarity scaling that turns unit-lag noise
    into increments over lag d.
    """
    y = _finite_vector("fgn2n", fgn2n)
    if y.size < 2 or y.size % 2 != 0:
        raise ValueError("fgn2n must be a 1-d vector of even length >= 2")
    d = _positive("d", d)
    _hurst("two_sided_fbm", H)
    n = y.size // 2
    scale = d**H.h
    pos = scale * np.cumsum(y[n:])
    neg = -scale * np.cumsum(y[n - 1 :: -1])
    return TwoSidedFbm(pos=pos, neg=neg, d=d)


def sfbm_path(tw: TwoSidedFbm) -> SamplePath:
    """Fold a two-sided fBm into a sub-fractional Brownian motion.

    S(t_i) = (B(t_i) + B(-t_i)) / sqrt(2); S(0) = 0.
    """
    values = (tw.pos + tw.neg) / math.sqrt(2.0)
    return SamplePath(d=tw.d, values=values, initial_value=0.0)


@_in_float_range
def sfbm_covariance(s, t, H: HurstParam):
    """Covariance of sfBm: E[S_s S_t] for finite s, t >= 0.

    R(s, t) = t^(2H) + s^(2H) - (|t-s|^(2H) + (t+s)^(2H)) / 2.
    Symmetric in (s, t); zero whenever either argument is zero. ValueError,
    for scalar and array times alike, where a power leaves the float range
    ("sfbm_covariance is out of the float range at s=1e+300, t=1e+300,
    H=0.65").
    """
    _hurst("sfbm_covariance", H)
    s_arr = _finite_array("s", s)
    t_arr = _finite_array("t", t)
    if np.any(s_arr < 0.0) or np.any(t_arr < 0.0):
        raise ValueError("sfbm_covariance requires nonnegative times")
    two_h = 2.0 * H.h
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN is refused by name
        r = (
            t_arr**two_h
            + s_arr**two_h
            - 0.5 * (np.abs(t_arr - s_arr) ** two_h + (t_arr + s_arr) ** two_h)
        )
    return float(r) if np.ndim(r) == 0 else r


# Steps per block of the Euler recursion's blocked solve, and the lag i - j
# of each entry [j, i] of its filter.
_BLOCK = 32
_LAG = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]


@functools.lru_cache(maxsize=8)
def _block_filter(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only powers a^0..a^_BLOCK and the block filter: a^(i-j) at [j, i], j <= i."""
    powers = a ** np.arange(_BLOCK + 1.0)
    filt = np.triu(powers[np.abs(_LAG)])
    powers.setflags(write=False)
    filt.setflags(write=False)
    return powers, filt


def _first_order_recursion(a: float, drive: np.ndarray, work=None) -> np.ndarray:
    """X with X_i = a*X_{i-1} + drive_i for i = 0, 1, ..., and X_{-1} = 0.

    Up to one block this is the plain loop. A longer drive is cut into
    blocks of _BLOCK steps, each filtered from a zero start by one matmul
    with the triangular filter of a^(i-j); the true block ends obey the same
    recursion with a^_BLOCK and are solved by this function, and each block
    then adds its predecessor's end times a^(1.._BLOCK) (Blelloch 1990).
    The filter is built once per a: a Monte Carlo run reuses one a. The
    blocks take 2 * ceil(n / _BLOCK) * _BLOCK floats of ``work`` (made if
    None), not overlapping drive, and a longer X is a view of it.
    """
    n = drive.size
    if n <= _BLOCK:
        out, cur = [], 0.0
        for v in drive.tolist():
            cur = v + a * cur
            out.append(cur)
        return np.array(out)
    powers, filt = _block_filter(a)
    size = -(-n // _BLOCK) * _BLOCK
    flat = np.empty(2 * size) if work is None else work[: 2 * size]
    flat[:n], flat[n:size] = drive, 0.0
    blocks, local = flat.reshape(2, -1, _BLOCK)
    np.matmul(blocks, filt, out=local)
    ends = _first_order_recursion(powers[-1], local[:, -1])
    # the blocks are spent: their room takes the carried-in ends
    np.multiply(ends[:-1, None], powers[1:], out=blocks[1:])
    local[1:] += blocks[1:]
    return local.ravel()[:n]


class _Scope(threading.local):
    sets = None  # euler_msfou's {N: (z, half)} inside _reuse_buffers


_scope = _Scope()


@contextlib.contextmanager
def _reuse_buffers():
    """In the block, euler_msfou on this thread (or a fork) keeps one buffer set per N."""
    outer = _scope.sets
    _scope.sets = {} if outer is None else outer
    try:
        yield
    finally:
        _scope.sets = outer


# Disjoint substream indices of one master seed, so the sfBm and Brownian
# components of a mixed path are independent by construction.
_STREAM_SFBM = 0
_STREAM_BM = 1


def euler_msfou(
    theta: float,
    H: HurstParam,
    d: float,
    N: int,
    seed: int,
    x0: float = 0.0,
) -> SamplePath:
    """Simulate the mixed sub-fractional OU process by the Euler scheme.

    X_{(i+1)d} = X_{id} - theta*d*X_{id} + (S_{(i+1)d} - S_{id})
                 + (W_{(i+1)d} - W_{id}),   X_0 = x0.

    Parameters
    ----------
    theta : finite drift parameter (ergodic for theta > 0, non-ergodic for < 0).
    H, d, N : Hurst index, finite positive grid spacing, whole number of
        steps (path has N points after t=0; 300.0 reads as 300).
    seed : master seed, a whole number; the sfBm component (exact
        circulant-embedding fGn) and the Brownian component draw from
        disjoint substreams of it.
    x0 : finite initial value (0 in the usual setup).
    """
    d = _positive("d", d)
    theta = _finite("theta", theta)
    x0 = _finite("x0", x0)
    N = _count("N", N, 1)
    _hurst("euler_msfou", H)

    sets = {} if _scope.sets is None else _scope.sets
    if N not in sets:
        sets[N] = np.empty(8 * N), np.empty(2 * N + 1, dtype=complex)
    z, half = sets[N]
    # The public route, sfbm_path(two_sided_fbm(sample_fgn(...))), its
    # increments and the Brownian ones, op for op and so byte for byte, in
    # z beyond the fGn z[:2N]; the half spectrum's room takes the recursion.
    fgn = _fgn_into(NoiseSpec(n=2 * N, seed=seed, stream=_STREAM_SFBM), H, z, half)
    s, neg, ds, dw = z[2 * N : 6 * N].reshape(4, N)
    scale = d**H.h
    np.multiply(np.cumsum(fgn[N:], out=s), scale, out=s)
    np.multiply(np.cumsum(fgn[N - 1 :: -1], out=neg), -scale, out=neg)
    np.divide(np.add(s, neg, out=s), math.sqrt(2.0), out=s)
    ds[0] = s[0]
    np.subtract(s[1:], s[:-1], out=ds[1:])

    rng = NoiseSpec(n=N, seed=seed, stream=_STREAM_BM).rng()
    np.multiply(rng.standard_normal(out=dw), math.sqrt(d), out=dw)

    drive = np.add(ds, dw, out=ds)
    a = 1.0 - theta * d
    # X_i = a X_{i-1} + drive_i. Up to 32 steps each one rounds as the plain
    # loop, fl(drive_i + fl(a X_{i-1})); past that the blocked solve sums in
    # another order, within about 1e-14 of max|X| of the exact recursion.
    # An exploding path overflows to inf or nan without a warning, and
    # SamplePath, a copy out of the buffers, refuses it by name.
    drive[0] += a * x0
    with np.errstate(over="ignore", invalid="ignore"):
        values = _first_order_recursion(a, drive, half.view(float))
    return SamplePath(d=d, values=values, initial_value=x0)


def write_path_csv(path: SamplePath, fh) -> None:
    """Write a path to an open text handle as CSV with header ``t,value``.

    Rows are t_0..t_N. Numbers carry 15 significant digits so a read-back
    reproduces the path to full double precision for all practical purposes.
    """
    fh.write("t,value\n")
    fh.write(f"{0.0:.15g},{path.initial_value:.15g}\n")
    for t, v in zip(path.times, path.values):
        fh.write(f"{t:.15g},{v:.15g}\n")


def read_path_csv(fh) -> SamplePath:
    """Read a path written by :func:`write_path_csv` from an open text handle.

    Every row must hold exactly the two numbers t,value; blank lines are
    skipped, and a bad row is reported with its line number. The time
    column must start at 0 and be uniformly spaced (to float tolerance);
    the spacing becomes ``d``.
    """
    header = fh.readline().strip()
    if header != "t,value":
        raise ValueError(f"expected header 't,value', got {header!r}")
    rows = []
    for lineno, line in enumerate(fh, start=2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != 2:
            raise ValueError(f"line {lineno}: expected 2 fields t,value, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if len(rows) < 2:
        raise ValueError("path CSV needs at least the t=0 row and one more")
    data = np.array(rows)
    t, values = data[:, 0], data[:, 1]
    if abs(t[0]) > 0.0:
        raise ValueError("first row must be at t=0")
    d = t[1] - t[0]
    if d <= 0.0:
        raise ValueError("time column must be increasing")
    if not np.allclose(np.diff(t), d, rtol=1e-9, atol=1e-12 * max(1.0, d)):
        raise ValueError("time column must be uniformly spaced")
    return SamplePath(d=d, values=values[1:], initial_value=values[0])
