"""Trend-stationary process models and seeded path simulation.

An observed series decomposes as ``x_t = m*_t + eps_t`` where the trend
``m*_t`` is a deterministic sequence and the noise ``eps_t`` is zero mean
and weakly stationary with autocovariance ``gamma(k) = cov(eps_t,
eps_{t+k})``.  Everything here is 1-indexed: entry ``i`` of an array holds
step ``t = i + 1``.  Plot captions that count from t = 0 are mapped by
evaluating the trend formula at ``t - 1``.

Noise variants:

* ``WhiteGaussian`` - independent N(0, variance) draws.
* ``MA1`` - normalized first-order moving average
  ``(eta_t + a * eta_{t-1}) / sqrt(1 + a^2)``, so gamma(0) equals the
  innovation variance.
* ``AR1`` - first-order autoregression ``eps_{t+1} = theta * eps_t + eta_t``
  with theta in (0, 1), started from the exact stationary law.
* ``MAq`` - un-normalized moving average of order q with coefficients
  b_1..b_q and implicit b_0 = 1, so gamma(0) = variance * sum_j b_j^2.

A constructor types its fields by the scalar rule of ``seeding`` before it
checks their ranges.  Zero innovation variance is accepted and produces
deterministic paths, which the exact-recursion oracles rely on.  Every
variant draws a fixed number of extra initial innovations so that ``eps_1``
already follows the stationary distribution, so no path needs a burn-in.

Each variant states its law once, as a filter over a time slab of a block
of paths: ``_filter(z, out, last)`` turns time-major standard normals ``z``
of shape (h + ``_extra_draws``, B), which it may overwrite, into the noise
``out`` of shape (h, B) of the slab's h steps.  ``last`` is the noise row of
the step before the slab, None on a path's first slab: AR(1) reads it,
while the moving averages take their history from the lead rows of ``z``.
Each stream draws its normals into its own row of a stream-major block,
which one slab loop turns, slab by slab, into time-major observations;
the Monte Carlo blocks sample that way, and ``sample_path`` is the one-row
case.  Its autocovariance is stated once as well, as ``gamma(lag)`` with
``support``, the lag beyond which it vanishes (AR(1) has none, but a
closed-form correlation tail); the bound functions take the model itself, and
``Autocovariance`` carries a user-supplied gamma to them.  Each trend
states its law once too, as ``sequence(horizon)``, the vector of m*_1 ..
m*_horizon that ``trend_sequence`` checks and returns.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, ClassVar, Union

from ._numpy import np
from .seeding import SchemaError, _number, check_count, fill_standard_normals
from .smoothing import InitPolicy, check_init

_SLAB_CELLS = 32 * 1024  # time steps x paths in one slab of a block: 256 KB, which fits L2


def _key(key: str, default=MISSING, flag: tuple[str, str] | None = None):
    """Dataclass field named ``key`` in config files and CLI specs; ``flag``
    is the ``(flag, help)`` pair of an experiment field's run flag."""
    return field(default=default, metadata={"key": key, "flag": flag})


Numbers = tuple[float, ...]  # a list field: a JSON list, indexed keys in a spec


def _finite_nonnegative(value: float, what: str) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{what} must be finite and >= 0, got {value}")
    return value


class _Covariance:
    """What the bound reads from a noise model: ``gamma(lag)`` at a lag >= 0,
    ``support``, the lag beyond which gamma vanishes (None when there is
    none), and ``closed_form_tail(beta)`` = sum_{k>=1} gamma(k) beta^k for
    beta in (0, 1), where the kind has one."""

    support: int | None = None
    closed_form_tail = None

    def autocovariance_fn(self):
        # kept only for the benchmark harness, perfbench/workloads.py, which
        # passes ``model.autocovariance_fn()`` where the model is meant
        return self


@dataclass(frozen=True)
class Autocovariance(_Covariance):
    """A user-supplied even autocovariance ``fn(lag)``, by integer lag.

    Its support is unknown and it has no closed-form tail, so the bound
    always sums its series.  ``gamma(k)`` refuses a non-integer lag and a
    value that is not a finite number (>= 0 at lag 0).  ``gammas(n)`` keeps a
    table of gamma(1) .. gamma(n): the alpha search sums it at many alphas.
    """

    fn: Callable[[int], float]
    # gamma(1), gamma(2), ... as far as tabulated, in a one-item list
    _table: list = field(
        default_factory=lambda: [np.empty(0)], init=False, repr=False, compare=False
    )

    def gamma(self, lag: int) -> float:
        lag = abs(_number(lag, int, "lag"))
        value = _number(self.fn(lag), float, f"gamma({lag})")
        if lag == 0:
            return _finite_nonnegative(value, "gamma(0)")
        if not math.isfinite(value):
            raise ValueError(f"gamma({lag}) must be finite, got {value}")
        return value

    def gammas(self, n: int) -> np.ndarray:
        known = self._table[0]
        if len(known) < n:
            more = np.fromiter(map(self.gamma, range(len(known) + 1, n + 1)), float, n - len(known))
            known = self._table[0] = np.concatenate((known, more))
        return known[:n]


@dataclass(frozen=True)
class WhiteGaussian(_Covariance):
    """Independent Gaussian noise with the given variance."""

    kind: ClassVar[str] = "white"
    support: ClassVar[int] = 0
    _extra_draws: ClassVar[int] = 0
    variance: float = _key("var", 1.0)

    def __post_init__(self) -> None:
        _check_fields(self)
        _finite_nonnegative(self.variance, "innovation variance")

    def gamma(self, lag: int) -> float:
        return self.variance if lag == 0 else 0.0

    def _filter(self, z: np.ndarray, out: np.ndarray, last: np.ndarray | None) -> None:
        np.multiply(z, math.sqrt(self.variance), out=out)


@dataclass(frozen=True)
class MA1(_Covariance):
    """Normalized first-order moving average.

    ``eps_t = (eta_t + coefficient * eta_{t-1}) / sqrt(1 + coefficient^2)``
    with iid N(0, innovation_variance) innovations.  The sqrt normalization
    makes gamma(0) equal to the innovation variance and
    gamma(1) = innovation_variance * coefficient / (1 + coefficient^2);
    all longer lags vanish.  One extra eta_0 is drawn so eps_1 is already
    stationary.
    """

    kind: ClassVar[str] = "ma1"
    support: ClassVar[int] = 1
    _extra_draws: ClassVar[int] = 1
    coefficient: float = _key("a")
    innovation_variance: float = _key("var", 1.0)

    def __post_init__(self) -> None:
        _check_fields(self)
        a = self.coefficient
        if not math.isfinite(a * a):  # the filter's normalization squares it
            raise ValueError(f"MA1 coefficient must be finite, with a finite square, got {a}")
        _finite_nonnegative(self.innovation_variance, "innovation variance")

    def gamma(self, lag: int) -> float:
        lag = abs(lag)
        if lag == 0:
            return self.innovation_variance
        if lag == 1:
            a = self.coefficient
            return self.innovation_variance * a / (1.0 + a * a)
        return 0.0

    def _filter(self, z: np.ndarray, out: np.ndarray, last: np.ndarray | None) -> None:
        np.multiply(z, math.sqrt(self.innovation_variance), out=z)
        np.multiply(z[:-1], self.coefficient, out=out)
        np.add(z[1:], out, out=out)
        np.divide(out, math.sqrt(1.0 + self.coefficient**2), out=out)


@dataclass(frozen=True)
class AR1(_Covariance):
    """First-order autoregression ``eps_{t+1} = theta * eps_t + eta_t``.

    ``theta`` must lie strictly inside (0, 1).  gamma(0) =
    innovation_variance / (1 - theta^2) and gamma(k) = theta^|k| gamma(0).
    eps_1 is drawn from the exact stationary law, then the recursion runs
    step by step from the noise row carried into the slab: on Python floats
    for a single path (``sample_path``; at long horizons faster than a
    ufunc call per step), as one in-place ufunc step per time index over a
    wider block, with the same bits.
    """

    kind: ClassVar[str] = "ar1"
    _extra_draws: ClassVar[int] = 0
    theta: float = _key("theta")
    innovation_variance: float = _key("var", 1.0)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"AR1 coefficient must lie in (0, 1), got {self.theta}")
        _finite_nonnegative(self.innovation_variance, "innovation variance")

    def gamma(self, lag: int) -> float:
        g0 = self.innovation_variance / (1.0 - self.theta**2)
        return g0 * self.theta ** abs(lag)

    def closed_form_tail(self, beta: float) -> float:
        x = self.theta * beta
        return self.gamma(0) * x / (1.0 - x)

    def _filter(self, z: np.ndarray, out: np.ndarray, last: np.ndarray | None) -> None:
        np.multiply(z, math.sqrt(self.innovation_variance), out=out)
        if last is None:  # the path's first step: eps_1 from the stationary law
            np.multiply(z[0], math.sqrt(self.gamma(0)), out=out[0])
            last, out = out[0], out[1:]
        theta = self.theta
        if out.shape[1] == 1:
            def steps(acc, column):  # a memoryview, which yields Python floats
                for eta_t in column:
                    acc = theta * acc + eta_t
                    yield acc

            out[:, 0] = np.fromiter(steps(float(last[0]), memoryview(out[:, 0])), float, len(out))
            return
        carried = np.empty_like(last)
        for row in out:
            np.multiply(last, theta, out=carried)
            np.add(row, carried, out=row)
            last = row


@dataclass(frozen=True)
class MAq(_Covariance):
    """Un-normalized moving average of order q.

    ``eps_t = eta_t + sum_j coefficients[j-1] * eta_{t-j}`` with implicit
    leading coefficient 1, so gamma(k) = innovation_variance *
    sum_j b_j b_{j+k} over the overlap (b_0 = 1).  Unlike MA1 this variant
    is not variance-normalized: gamma(0) = innovation_variance * sum b_j^2.
    """

    kind: ClassVar[str] = "maq"
    coefficients: Numbers = _key("b")
    innovation_variance: float = _key("var", 1.0)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.coefficients:
            raise ValueError("MAq needs at least one coefficient")
        if not all(math.isfinite(b) for b in self.coefficients):
            raise ValueError("MAq coefficients must be finite")
        _finite_nonnegative(self.innovation_variance, "innovation variance")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    support = order

    @property
    def _extra_draws(self) -> int:
        return self.order

    def gamma(self, lag: int) -> float:
        lag = abs(lag)
        if lag > self.order:
            return 0.0
        b = (1.0,) + self.coefficients
        return self.innovation_variance * sum(
            b[j] * b[j + lag] for j in range(self.order - lag + 1)
        )

    def _filter(self, z: np.ndarray, out: np.ndarray, last: np.ndarray | None) -> None:
        # the oldest innovation first, the order np.convolve sums in, so a
        # column is bitwise np.convolve(eta, (1, b_1..b_q), "valid")
        np.multiply(z, math.sqrt(self.innovation_variance), out=z)
        n, q = len(out), self.order
        np.multiply(z[:n], self.coefficients[q - 1], out=out)
        term = np.empty_like(out)
        for j in range(q - 1, 0, -1):
            np.multiply(z[q - j : q - j + n], self.coefficients[j - 1], out=term)
            np.add(out, term, out=out)
        np.add(out, z[q:], out=out)


NoiseModel = Union[WhiteGaussian, MA1, AR1, MAq]


def _check_finite(trend) -> None:
    """Check a trend's field types, then refuse a non-finite one by its key."""
    _check_fields(trend)
    for f in fields(trend):
        values = getattr(trend, f.name)
        for value in values if isinstance(values, tuple) else (values,):
            if not math.isfinite(value):
                key = f.metadata["key"]
                raise ValueError(f"{trend.kind} trend {key} must be finite, got {value}")


@dataclass(frozen=True)
class Constant:
    """Flat trend; one-step increments are all zero."""

    kind: ClassVar[str] = "const"
    level: float = _key("level")

    def __post_init__(self) -> None:
        _check_finite(self)

    @property
    def lipschitz_constant(self) -> float:
        return 0.0

    def sequence(self, horizon: int) -> np.ndarray:
        return np.full(horizon, float(self.level))


@dataclass(frozen=True)
class Linear:
    """Ramp ``start + slope * (t - 1)``; the increment bound is |slope|."""

    kind: ClassVar[str] = "linear"
    start: float = _key("start")
    slope: float = _key("slope")

    def __post_init__(self) -> None:
        _check_finite(self)

    @property
    def lipschitz_constant(self) -> float:
        return abs(self.slope)

    def sequence(self, horizon: int) -> np.ndarray:
        return self.start + self.slope * np.arange(horizon, dtype=float)


@dataclass(frozen=True)
class Sinusoid:
    """``amplitude * sin(rate * (t - 1) + phase)``.

    |sin x - sin y| <= |x - y| certifies |amplitude * rate| as the
    one-step increment bound.
    """

    kind: ClassVar[str] = "sin"
    amplitude: float = _key("amp")
    rate: float = _key("rate")
    phase: float = _key("phase", 0.0)

    def __post_init__(self) -> None:
        _check_finite(self)

    @property
    def lipschitz_constant(self) -> float:
        return abs(self.amplitude * self.rate)

    def sequence(self, horizon: int) -> np.ndarray:
        return self.amplitude * np.sin(
            self.rate * np.arange(horizon, dtype=float) + self.phase
        )


@dataclass(frozen=True)
class Table:
    """Explicit 1-indexed trend values; the increment bound is the largest
    consecutive difference."""

    kind: ClassVar[str] = "table"
    values: Numbers = _key("values")

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.values:
            raise ValueError("Table trend needs at least one value")

    @property
    def lipschitz_constant(self) -> float:
        if len(self.values) == 1:
            return 0.0
        return max(abs(b - a) for a, b in zip(self.values, self.values[1:]))

    def sequence(self, horizon: int) -> np.ndarray:
        if horizon > len(self.values):
            raise IndexError(
                f"table trend has {len(self.values)} entries, horizon {horizon} requested"
            )
        return np.array(self.values[:horizon])


TrendSpec = Union[Constant, Linear, Sinusoid, Table]

# Every model kind is declared once, on its class, which is listed in
# NoiseModel or TrendSpec: ``kind`` names it, each field's metadata gives its
# external key, its default makes it optional and its annotation gives the type
# its constructor enforces first; the config codec, spec tokenizer and grammar read these.
NOISE_KINDS: dict[str, type] = {c.kind: c for c in typing.get_args(NoiseModel)}
TREND_KINDS: dict[str, type] = {c.kind: c for c in typing.get_args(TrendSpec)}
KINDS_OF = {NoiseModel: NOISE_KINDS, TrendSpec: TREND_KINDS}  # the registry of a model field


@functools.cache
def model_fields(cls: type) -> tuple[tuple[str, str, object, object], ...]:
    """``(attribute, key, default, type)`` of each ``_key`` field of a model
    class or ``ExperimentConfig``, in field order: ``default`` is MISSING on a
    required field, ``type`` the resolved annotation (``float``, ``Numbers``...)."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata["key"], f.default, hints[f.name]) for f in fields(cls))


# each declared field type but a number or an init, as a SchemaError words it
_WORDING = {Numbers: "a list of numbers", NoiseModel: "a noise model", TrendSpec: "a trend model"}


def _typed(value, hint, key: str):
    """``value`` as the type ``hint`` declares it, a number by the scalar rule
    and an init by ``check_init``, or a SchemaError naming ``key``."""
    if hint in KINDS_OF:
        if isinstance(value, tuple(KINDS_OF[hint].values())):
            return value
    elif hint == Numbers:
        if isinstance(value, (list, tuple)):
            return tuple(_number(v, float, f"{key}[{i}]") for i, v in enumerate(value))
    elif hint == InitPolicy:
        return check_init(value)
    else:
        return _number(value, hint, key)
    raise SchemaError(f"{key}: expected {_WORDING[hint]}, got {value!r}")


def _check_fields(obj) -> None:
    """Store each declared field of ``obj`` as ``_typed`` returns it."""
    for attr, key, _, hint in model_fields(type(obj)):
        object.__setattr__(obj, attr, _typed(getattr(obj, attr), hint, key))


def trend_sequence(trend: TrendSpec, horizon: int) -> np.ndarray:
    """Vector of m*_1 .. m*_horizon."""
    return np.asarray(trend.sequence(check_count(horizon, "horizon", 1)), dtype=float)


def sample_path(noise: NoiseModel, trend: TrendSpec, horizon: int, seed: int) -> np.ndarray:
    """Simulate x_1..x_horizon = m*_t + eps_t, deterministically in ``seed``."""
    return _path(noise, trend_sequence(trend, horizon), seed)


def _path(noise: NoiseModel, m_star: np.ndarray, seed: int) -> np.ndarray:
    """Observations of one path over the trend vector ``m_star``: one row of
    ``_slabs``, each slab written back into the columns it was drawn from."""
    draws = np.empty((1, len(m_star) + noise._extra_draws))
    for t0, x in _slabs(noise, m_star, [seed], draws):
        draws[0, t0 : t0 + len(x)] = x[:, 0]
    return draws[0, : len(m_star)]


def _slabs(noise: NoiseModel, trend: np.ndarray, seeds, draws: np.ndarray):
    """Sample a block of paths in time slabs, yielding ``(t0, x)`` per slab:
    ``x`` holds the observations x_{t0+1} .. x_{t0+h} of every path, time-major
    (h, B), in a scratch array the next slab reuses.

    Row i of ``draws``, the stream-major (B, n + ``noise._extra_draws``)
    array, gets the standard normals of the stream keyed ``seeds[i]``;
    ``trend`` holds m*_1 .. m*_n.  A slab transposes the columns
    [t0, t0 + h + extra) of ``draws`` into a time-major scratch, filters them
    with the noise row carried from the previous slab and adds the trend.
    No later slab reads the columns [t0, t0 + h), so the caller may write
    its results there.  A slab holds about ``_SLAB_CELLS`` cells, so a wide
    block takes short slabs and a single path long ones.
    """
    width, n, extra = len(seeds), len(trend), noise._extra_draws
    fill_standard_normals(draws, seeds)
    height = min(n, max(1, _SLAB_CELLS // max(width, 1)))
    z = np.empty((height + extra, width))
    x = np.empty((height, width))
    last = None
    for t0 in range(0, n, height):
        h = min(height, n - t0)
        z_slab, x_slab = z[: h + extra], x[:h]
        z_slab[...] = draws[:, t0 : t0 + h + extra].T
        noise._filter(z_slab, x_slab, last)
        last = x_slab[-1].copy()
        x_slab += trend[t0 : t0 + h, None]
        yield t0, x_slab
