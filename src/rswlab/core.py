"""Fundamental types: flow parameters, forward-mode jets, evaluable fields,
diagnostics.

Every type here is immutable from the outside, and every operation returns
the same result for the same inputs.  A field is complete once built: a
read changes nothing in it, so fields can be shared across threads.

Conventions used throughout the package:

* Cartesian coordinates are ``(t, x, y)`` with velocity ``(u, v)`` and depth
  ``h``.
* Polar coordinates are ``(t, r, theta)`` with radial velocity ``U``,
  circular velocity ``V`` and depth ``h``.  ``theta`` is never normalized
  modulo ``2*pi``: trajectory bookkeeping needs accumulated angle.
* A point has one format: plain coordinates.  Evaluation and the
  diagnostics take ``(field_, t, a, b)``, with ``(a, b)`` the position in
  the field's frame; the point maps of :mod:`rswlab.transforms` take and
  return, and the generators of :mod:`rswlab.liealg` take, a length-6
  array ``(t, a, b, c1, c2, h)`` of position and state.
* A :class:`FlowField` evaluates a solution of either the rotating system
  (``system="rsw"``) or the classical, non-rotating one (``system="sw"``,
  i.e. the same equations with the Coriolis term dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Literal

import numpy as np

from .errors import InvalidParams, OriginSingular, WindowViolation, ZeroDepth

Frame = Literal["cartesian", "polar"]
System = Literal["rsw", "sw"]

#: Depths at or below this floor raise :class:`ZeroDepth` instead of
#: producing infinite diagnostics.  The pulsating drop legitimately reaches
#: h = 0 at its boundary, so callers must handle the condition explicitly.
DEPTH_FLOOR = 1e-12

#: Relative step used by finite-difference jets: delta = FD_STEP * max(1, |coord|).
FD_STEP = 1e-5


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value!r}")


def _check_radius(r: float) -> None:
    if r < 0.0:
        raise InvalidParams(f"radius must be nonnegative, got {r!r}")


def _checked_point(point) -> list[float]:
    """A point (t, a, b, c1, c2, h) as six floats, or :class:`InvalidParams`.

    Every entry must be finite and the depth ``h`` nonnegative.
    """
    arr = np.asarray(point, dtype=float)
    if arr.shape != (6,):
        raise InvalidParams(f"a point is six numbers (t, a, b, c1, c2, h), got {point!r}")
    values = arr.tolist()
    _check_finite(**dict(zip(("t", "a", "b", "c1", "c2", "h"), values)))
    if values[5] < 0.0:
        raise InvalidParams(f"depth must be nonnegative, got {values[5]!r}")
    return values


@dataclass(frozen=True)
class FlowParameters:
    """Coriolis parameter ``f`` and gravity ``g`` shared by every operation.

    The package works with dimensional parameters; the nontrivial group
    structure requires ``f > 0``.
    """

    f: float
    g: float

    def __post_init__(self) -> None:
        _check_finite(f=self.f, g=self.g)
        if self.f <= 0.0:
            raise InvalidParams(f"Coriolis parameter f must be positive, got {self.f}")
        if self.g <= 0.0:
            raise InvalidParams(f"gravity g must be positive, got {self.g}")

    @property
    def period(self) -> float:
        """Inertial period 2*pi/f, the natural time scale of the rotation."""
        return 2.0 * math.pi / self.f


def source_params(own: FlowParameters, given: FlowParameters | None) -> FlowParameters:
    """``own``, a source's parameters, once ``given`` (if set) is checked to equal them.

    A map or check run with another system's f or g would return a result
    that solves neither system, so a difference is :class:`InvalidParams`.
    """
    if given is not None and given != own:
        raise InvalidParams(f"parameters {given} differ from the source's {own}")
    return own


@dataclass(frozen=True)
class Window:
    """Validity window of a field: a time interval plus radial bounds.

    Time endpoints are open with a guard band ``t_guard``; evaluation inside
    the band raises :class:`WindowViolation` rather than returning NaN.
    Radial bounds may depend on time (moving boundaries), in which case they
    are callables ``t -> r``.  For Cartesian fields the radial bound applies
    to ``hypot(x, y)``.
    """

    t_lo: float = -math.inf
    t_hi: float = math.inf
    t_guard: float = 0.0
    r_lo: float | Callable[[float], float] = 0.0
    r_hi: float | Callable[[float], float] = math.inf

    def radial_bounds(self, t: float) -> tuple[float, float]:
        lo = self.r_lo(t) if callable(self.r_lo) else self.r_lo
        hi = self.r_hi(t) if callable(self.r_hi) else self.r_hi
        return lo, hi

    def check_time(self, t: float) -> None:
        """Raise WindowViolation unless t lies in the open time interval, guard included."""
        self.check(t, None)

    def check(self, t: float, radius) -> None:
        """Raise WindowViolation outside; an array of radii names its first offender.

        The one definition of the window test: the open time interval with
        its guard first, then the radial bounds at ``t`` (closed).  A
        ``radius`` of None tests the time alone.  Time and bounds are
        decided inline, since the float RHS of every particle path calls
        this once per stage.
        """
        if not (self.t_lo + self.t_guard < t < self.t_hi - self.t_guard):
            raise WindowViolation(
                f"t={t!r} outside validity window "
                f"({self.t_lo!r}, {self.t_hi!r}) with guard {self.t_guard!r}"
            )
        if radius is None:
            return
        lo, hi = self.r_lo, self.r_hi
        if callable(lo):
            lo = lo(t)
        if callable(hi):
            hi = hi(t)
        if isinstance(radius, np.ndarray):
            outside = ~((lo <= radius) & (radius <= hi))
            if not outside.any():
                return
            radius = float(radius[outside][0])
        if not (lo <= radius <= hi):
            raise WindowViolation(
                f"radius {radius!r} outside [{lo!r}, {hi!r}] at t={t!r}"
            )


# ---------------------------------------------------------------------------
# Forward-mode jets
# ---------------------------------------------------------------------------


class Jet:
    """A value ``v`` with its first derivatives ``t``, ``a``, ``b`` along the seeds.

    Forward-mode automatic differentiation (Griewank and Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008).  The slots are floats
    or numpy arrays that broadcast together.  The value slot of every
    operation is the plain operation on the values, so it keeps the bits
    of the plain evaluation.  numpy's ufuncs (``np.cos(jet)``) take the
    value through numpy; :func:`cos` and this module's other functions take
    a float through ``math`` and an array through numpy, as plain calls do.
    """

    __slots__ = ("v", "t", "a", "b")

    def __init__(self, v, t=0.0, a=0.0, b=0.0) -> None:
        self.v, self.t, self.a, self.b = v, t, a, b

    def chain(self, value, slope) -> "Jet":
        """The jet of g(self), given g(self.v) = value and g'(self.v) = slope."""
        return Jet(value, slope * self.t, slope * self.a, slope * self.b)

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(self.v + o.v, self.t + o.t, self.a + o.a, self.b + o.b)
        return Jet(self.v + o, self.t, self.a, self.b)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet):
            return Jet(self.v - o.v, self.t - o.t, self.a - o.a, self.b - o.b)
        return Jet(self.v - o, self.t, self.a, self.b)

    def __rsub__(self, o):
        return Jet(o - self.v, -self.t, -self.a, -self.b)

    def __neg__(self):
        return Jet(-self.v, -self.t, -self.a, -self.b)

    def __mul__(self, o):
        if isinstance(o, Jet):
            v, w = self.v, o.v
            return Jet(v * w, self.t * w + v * o.t, self.a * w + v * o.a, self.b * w + v * o.b)
        return Jet(self.v * o, self.t * o, self.a * o, self.b * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            q, w = self.v / o.v, o.v
            return Jet(q, (self.t - q * o.t) / w, (self.a - q * o.a) / w, (self.b - q * o.b) / w)
        return Jet(self.v / o, self.t / o, self.a / o, self.b / o)

    def __rtruediv__(self, o):
        q = o / self.v
        return self.chain(q, -q / self.v)

    def __pow__(self, p):  # a constant exponent
        return self.chain(self.v ** p, p * self.v ** (p - 1))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _UFUNC_RULES.get(ufunc) if method == "__call__" and not kwargs else None
        return NotImplemented if rule is None else rule(*inputs)


def value_of(x):
    """The value slot of a jet; anything else as it is."""
    return x.v if isinstance(x, Jet) else x


def _slots(x) -> tuple:
    return (x.t, x.a, x.b) if isinstance(x, Jet) else (0.0, 0.0, 0.0)


def _reflected(name: str, rname: str):
    return lambda x, y: getattr(x, name)(y) if isinstance(x, Jet) else getattr(y, rname)(x)


_UFUNC_RULES: dict = {
    np.add: _reflected("__add__", "__radd__"),
    np.subtract: _reflected("__sub__", "__rsub__"),
    np.multiply: _reflected("__mul__", "__rmul__"),
    np.true_divide: _reflected("__truediv__", "__rtruediv__"),
    np.negative: Jet.__neg__,
}


def _elementary(math_fn, np_fn, slope):
    """f as ``math_fn`` on floats and ``np_fn`` on arrays; ``slope(x, f(x))`` is f'(x)."""

    def on_jet(x, fn):
        fx = fn(x.v)
        return x.chain(fx, slope(x.v, fx))

    def elementary(x):
        if type(x) is float:  # the scalar kernels' common case, tested first
            return math_fn(x)
        if isinstance(x, Jet):
            return on_jet(x, elementary)
        return np_fn(x) if isinstance(x, np.ndarray) else math_fn(x)

    _UFUNC_RULES[np_fn] = lambda x: on_jet(x, np_fn)
    elementary.__name__ = elementary.__qualname__ = math_fn.__name__
    return elementary


cos = _elementary(math.cos, np.cos, lambda x, c: -sin(x))
sin = _elementary(math.sin, np.sin, lambda x, s: cos(x))
tan = _elementary(math.tan, np.tan, lambda x, tn: 1.0 + tn * tn)
atan = _elementary(math.atan, np.arctan, lambda x, at: 1.0 / (1.0 + x * x))
sqrt = _elementary(math.sqrt, np.sqrt, lambda x, s: 0.5 / s)
exp = _elementary(math.exp, np.exp, lambda x, e: e)


def _elementary2(math_fn, np_fn, slopes):
    """:func:`_elementary` of two arguments; ``slopes`` gives both partial derivatives."""

    def on_jets(x, y, fn):
        xv, yv = value_of(x), value_of(y)
        fxy = fn(xv, yv)
        sx, sy = slopes(xv, yv, fxy)
        return Jet(fxy, *(sx * dx + sy * dy for dx, dy in zip(_slots(x), _slots(y))))

    def elementary2(x, y):
        if isinstance(x, Jet) or isinstance(y, Jet):
            return on_jets(x, y, elementary2)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return np_fn(x, y)
        return math_fn(x, y)

    _UFUNC_RULES[np_fn] = lambda x, y: on_jets(x, y, np_fn)
    elementary2.__name__ = elementary2.__qualname__ = np_fn.__name__
    return elementary2


hypot = _elementary2(math.hypot, np.hypot, lambda x, y, h: (x / h, y / h))
arctan2 = _elementary2(  # arctan2(y, x)
    math.atan2, np.arctan2, lambda y, x, th: (x / (x * x + y * y), -y / (x * x + y * y))
)


def implicit(root, residual: Jet, slope) -> Jet:
    """Jet of a root x of F(x, p) = 0: x' = -F_p / F_x (implicit-function theorem).

    ``residual`` is the jet of F with x held at ``root``, ``slope`` is F_x there.
    """
    return Jet(root, -residual.t / slope, -residual.a / slope, -residual.b / slope)


ValueFn = Callable[[float, float, float], tuple[float, float, float]]
JetFn = Callable[[float, float, float], tuple[np.ndarray, np.ndarray]]


def derived_jet(value_fn: ValueFn) -> JetFn:
    """The ``jet_fn`` of a ``value_fn``: one call with jets seeded at (t, a, b).

    Positions may be a block at one time, as for ``value_fn``; the result
    is ``(values, grad)`` of shapes ``(3,) + shape`` and ``(3, 3) + shape``.
    """

    def jet(t, a, b):
        state = value_fn(Jet(t, 1.0, 0.0, 0.0), Jet(a, 0.0, 1.0, 0.0), Jet(b, 0.0, 0.0, 1.0))
        rows = [(c.v, c.t, c.a, c.b) if isinstance(c, Jet) else (c, 0.0, 0.0, 0.0) for c in state]
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            point = np.array(rows, dtype=float)
            return point[:, 0], point[:, 1:]
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        values, grad = np.empty((3,) + shape), np.empty((3, 3) + shape)
        for i, (v, *slopes) in enumerate(rows):
            values[i] = v
            for j, slope in enumerate(slopes):
                grad[i, j] = slope
        return values, grad

    return jet


@dataclass(frozen=True)
class FlowField:
    """A solution as an evaluable map (t, position) -> state.

    ``value_fn(t, a, b)`` returns the three state components; ``(a, b)`` is
    ``(x, y)`` or ``(r, theta)`` according to ``frame``.  It takes a float
    ``t`` and float-or-array positions ``a``, ``b`` of one shape, and each
    component it returns broadcasts to that shape (a component that does not
    depend on position may come back as a scalar).  Every family's kernel
    is written on arrays, and a float position gives the same bits as that
    position in an array.  :meth:`eval` and :meth:`jet` take such a block
    at one time too, checked as a whole; scalar calls stay the fast path for
    one point.  A view (:func:`as_cartesian`, :func:`scale_depth`, the maps
    of :mod:`rswlab.transforms`) reads its source's ``value_fn``: values are
    checked by the outermost field's :meth:`eval` and :meth:`jet` alone.

    ``jet_fn(t, a, b)`` returns ``(values, grad)`` with ``grad[i, j]`` the
    derivative of component ``i`` with respect to coordinate ``j`` in the
    order ``(t, a, b)``; it backs the analytic derivative mode and takes a
    block of positions at one time, as ``value_fn`` does.  Left out, it is
    derived from ``value_fn`` by :func:`derived_jet`, so each formula is
    written once: ``value_fn`` must then accept :class:`Jet` arguments,
    which the arithmetic operators, numpy's ufuncs and this module's
    elementary functions do; a copy made by ``dataclasses.replace`` with a
    new ``value_fn`` derives its own only when given ``jet_fn=None``.  With
    ``derivative_mode="fd"`` jets are central differences with relative
    step ``fd_step`` instead.

    Fields capture their defining closures immutably, and a read changes
    nothing in them or in what they capture, so they are safe to share
    across threads.
    """

    frame: Frame
    params: FlowParameters
    value_fn: ValueFn
    jet_fn: JetFn | None = None
    window: Window = Window()
    system: System = "rsw"
    derivative_mode: Literal["analytic", "fd"] = "analytic"
    fd_step: float = FD_STEP
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.jet_fn is None:
            object.__setattr__(self, "jet_fn", derived_jet(self.value_fn))

    # -- evaluation ------------------------------------------------------

    def eval(self, t: float, a, b) -> np.ndarray:
        """State components at a float point or a block; raises WindowViolation outside.

        Array positions ``a``, ``b`` of one shape are one block at the float
        time ``t``: one ``value_fn`` call, with the window and finiteness
        checked on the whole block.  The errors are the scalar call's and
        name an offending point; the result has shape ``(3,) + shape``.
        Float positions are one point, checked by :meth:`_eval_point`; the
        result is its tuple as a ``(3,)`` array.  In both, an
        arithmetic error of the kernel counts as a non-finite value.
        """
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            return np.array(self._eval_point(t, a, b), dtype=float)
        a, b = self._check_block(t, a, b)
        try:
            out = np.array(np.broadcast_arrays(*self.value_fn(t, a, b), a)[:3], dtype=float)
        except ArithmeticError:
            raise self._nonfinite(t, a, b) from None
        bad = ~np.isfinite(out).all(axis=0)
        if bad.any():
            raise self._nonfinite(t, float(a[bad][0]), float(b[bad][0]))
        return out

    def _eval_point(self, t: float, a: float, b: float) -> tuple:
        """``value_fn``'s tuple at one float point, with :meth:`eval`'s checks and errors.

        The window first, then each component by ``math.isfinite``; a
        kernel's :class:`ArithmeticError` counts as a non-finite value.
        """
        self.window.check(t, math.hypot(a, b) if self.frame == "cartesian" else a)
        try:
            out = self.value_fn(t, a, b)
            if all(map(math.isfinite, out)):
                return out
        except ArithmeticError:
            pass
        raise self._nonfinite(t, a, b)

    def _nonfinite(self, t: float, a, b) -> WindowViolation:
        """The error for non-finite values at (t, a, b).

        Float arithmetic raises where arrays give inf or NaN, so a kernel's
        :class:`ArithmeticError` is reported this way too.  Raised in a
        block, it comes from a quantity the whole block shares, such as a
        time factor, so a block of positions is named by its first point.
        """
        if isinstance(a, np.ndarray):
            a, b = (float(c.flat[0]) if c.size else math.nan for c in (a, b))
        return WindowViolation(
            f"field {self.label!r} produced non-finite values at "
            f"(t={t!r}, {a!r}, {b!r})"
        )

    def _check_block(self, t: float, a, b) -> tuple[np.ndarray, np.ndarray]:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        self.window.check(t, np.hypot(a, b) if self.frame == "cartesian" else a)
        return a, b

    def values_unchecked(self, t, a, b):
        """``value_fn(t, a, b)`` without the window or finiteness check.

        For callers that checked the window themselves, such as the FV
        oracle's exact sampling; array positions are evaluated in one call
        under the broadcast contract of the class.
        """
        return self.value_fn(t, a, b)

    def jet(self, t: float, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Values plus first derivatives with respect to (t, a, b).

        Array positions are one block as in :meth:`eval`, checked as a
        whole, giving values of shape ``(3,) + shape`` and ``grad`` of shape
        ``(3, 3) + shape``: one ``jet_fn`` call, or in the FD mode seven
        :meth:`eval` calls.  An arithmetic error of ``jet_fn`` is reported
        as :meth:`eval` reports one of ``value_fn``.
        """
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a, b = self._check_block(t, a, b)
        else:
            self.window.check(t, math.hypot(a, b) if self.frame == "cartesian" else a)
        if self.derivative_mode == "analytic":
            try:
                values, grad = self.jet_fn(t, a, b)
            except ArithmeticError:
                raise self._nonfinite(t, a, b) from None
            return np.asarray(values, dtype=float), np.asarray(grad, dtype=float)
        values = self.eval(t, a, b)
        grad = np.empty((3, 3) + np.shape(a))
        dt = self.fd_step * max(1.0, abs(t))
        grad[:, 0] = (self.eval(t + dt, a, b) - self.eval(t - dt, a, b)) / (2.0 * dt)
        da = self.fd_step * np.maximum(1.0, np.abs(a))
        grad[:, 1] = (self.eval(t, a + da, b) - self.eval(t, a - da, b)) / (2.0 * da)
        db = self.fd_step * np.maximum(1.0, np.abs(b))
        grad[:, 2] = (self.eval(t, a, b + db) - self.eval(t, a, b - db)) / (2.0 * db)
        return values, grad

    # -- derived fields --------------------------------------------------

    def with_derivative_mode(
        self, mode: Literal["analytic", "fd"], fd_step: float | None = None
    ) -> "FlowField":
        """Copy of this field evaluating derivatives in the given mode.

        ``fd_step`` must be finite and > 0.
        """
        kwargs = {"derivative_mode": mode}
        if fd_step is not None:
            if not (math.isfinite(fd_step) and fd_step > 0.0):
                raise InvalidParams(f"fd_step must be finite and > 0, got {fd_step!r}")
            kwargs["fd_step"] = fd_step
        return replace(self, **kwargs)

    @property
    def coriolis(self) -> float:
        """Coriolis parameter entering the equations this field solves."""
        return 0.0 if self.system == "sw" else self.params.f


def scale_depth(field_: FlowField, factor: float) -> FlowField:
    """Corrupted copy of a field with depth scaled by ``factor``.

    Used as a negative control: scaling h breaks the momentum balance, so
    residual checks must flag the result.
    """
    base_value = field_.value_fn

    def value_fn(t, a, b):
        c1, c2, h = base_value(t, a, b)
        return c1, c2, factor * h

    return replace(
        field_,
        value_fn=value_fn,
        jet_fn=None,
        label=f"{field_.label}*corrupt({factor})",
    )


@dataclass(frozen=True)
class Diagnostics:
    """Pointwise flow diagnostics.

    ``omega`` is the potential vorticity (curl of velocity plus Coriolis
    parameter, divided by depth), ``froude`` the local Froude number
    q / sqrt(g h), and ``speed`` the velocity magnitude q.
    """

    omega: float
    froude: float
    speed: float


def _absolute_vorticity(field_: FlowField, a: float, values: list, grad: list) -> float:
    """v_x - u_y + f from a jet's float rows at a point with first coordinate ``a``."""
    f_eff = field_.coriolis
    if field_.frame == "cartesian":
        return grad[1][1] - grad[0][2] + f_eff
    r = a
    if r <= 0.0:
        raise OriginSingular("vorticity in polar form requires r > 0")
    U, V = values[0], values[1]
    U_theta = grad[0][2]
    V_r = grad[1][1]
    return V_r + V / r - U_theta / r + f_eff


def _state_and_pv(field_: FlowField, t: float, a: float, b: float) -> tuple[np.ndarray, float]:
    """State values and potential vorticity at (t, a, b), from one checked jet.

    The coordinates must be finite and a polar radius ``a`` nonnegative, or
    :class:`InvalidParams` is raised.  The vorticity is formed on the
    jet's rows as Python floats (``tolist``): the same IEEE operations,
    and so the same bits, as on numpy scalars, at a fraction of the cost.
    A non-finite value or vorticity raises :meth:`FlowField.eval`'s :class:`WindowViolation`.
    The state comes back as the jet's array.
    """
    _check_finite(t=t, a=a, b=b)
    if field_.frame == "polar":
        _check_radius(a)
    values, grad = field_.jet(t, a, b)
    state = values.tolist()
    if not all(map(math.isfinite, state)):
        raise field_._nonfinite(t, a, b)
    h = state[2]
    if h <= DEPTH_FLOOR:
        raise ZeroDepth(f"depth {h!r} at or below floor {DEPTH_FLOOR!r}")
    pv = _absolute_vorticity(field_, a, state, grad.tolist()) / h
    if not math.isfinite(pv):
        raise field_._nonfinite(t, a, b)
    return values, pv


def potential_vorticity(field_: FlowField, t: float, a: float, b: float) -> float:
    """Potential vorticity (v_x - u_y + f) / h at (t, a, b); materially conserved.

    ``(a, b)`` is ``(x, y)`` or ``(r, theta)`` in the field's frame, as for
    :meth:`FlowField.eval`.  Raises :class:`ZeroDepth` when the depth is at
    or below the depth floor.
    """
    return _state_and_pv(field_, t, a, b)[1]


def diagnostics(field_: FlowField, t: float, a: float, b: float) -> Diagnostics:
    """Speed, Froude number, and potential vorticity at (t, a, b) in the field's frame.

    The flow is supercritical where the Froude number exceeds one and
    subcritical where it is below one.
    """
    values, omega = _state_and_pv(field_, t, a, b)
    speed = math.hypot(float(values[0]), float(values[1]))
    froude = speed / math.sqrt(field_.params.g * float(values[2]))
    return Diagnostics(omega=omega, froude=froude, speed=speed)


def as_cartesian(field_: FlowField, label: str | None = None) -> FlowField:
    """Cartesian view of a polar field.

    Valid away from the origin; the radial window carries over through
    r = hypot(x, y).  Its values broadcast over array positions as the
    source's do.  Its jets compose through the polar chart, which is
    singular at x = y = 0: there, and within 1e-150 of it, where the chart's
    slopes of order 1/r lose their precision, they come from the source's
    jets along the rays theta = 0 and theta = pi/2, exact for a source that
    is smooth in Cartesian coordinates.  Its ``meta`` keeps the source's
    ``path`` and ``boundary_radius`` and adds its ``source``.
    """
    if field_.frame == "cartesian":
        return field_

    src = field_

    def view(t, x, y):
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        U, V, h = src.value_fn(t, r, theta)
        ct, st = np.cos(theta), np.sin(theta)
        return U * ct - V * st, U * st + V * ct, h

    def value_fn(t, x, y):
        if not isinstance(t, Jet):
            return view(t, x, y)
        xv, yv = value_of(x), value_of(y)
        origin = np.hypot(xv, yv) < 1e-150
        if not np.any(origin):
            return view(t, x, y)
        # d/dx from the ray theta = 0 (u = U, v = V), d/dy from theta = pi/2
        # (u = -V, v = U); then the chain rule through (t, x, y)
        along_x = src.value_fn(Jet(t.v, 1.0), Jet(0.0, 0.0, 1.0), 0.0)
        along_y = src.value_fn(Jet(t.v, 1.0), Jet(0.0, 0.0, 1.0), math.pi / 2.0)
        (U, V, h), (Uy, Vy, hy) = (map(_slots, s) for s in (along_x, along_y))
        partials = ((U[0], U[1], -Vy[1]), (V[0], V[1], Uy[1]), (h[0], h[1], hy[1]))
        seeds = list(zip(_slots(t), _slots(x), _slots(y)))
        at_origin = [[pt * st + px * sx + py * sy for st, sx, sy in seeds] for pt, px, py in partials]
        away = view(t, Jet(np.where(origin, 1.0, xv), *_slots(x)), y)
        return [
            Jet(c, *(np.where(origin, d0, d) for d0, d in zip(d_origin, _slots(j))))
            for c, d_origin, j in zip(view(t.v, xv, yv), at_origin, away)
        ]

    def to_view(rows):
        t, r, theta = rows.T
        return np.column_stack([t, r * np.cos(theta), r * np.sin(theta)])

    meta = {key: src.meta[key] for key in ("path", "boundary_radius") if key in src.meta}
    meta["source"] = (src, to_view)
    return replace(
        src,
        frame="cartesian",
        value_fn=value_fn,
        jet_fn=None,
        label=label or f"{src.label}(cartesian)",
        meta=meta,
    )
