"""Symmetry algebra of the rotating shallow water system.

Three generator bases act on the six-dimensional jet space with coordinates
``(t, x, y, u, v, h)``:

* ``X`` -- the natural basis of the rotating-frame algebra: translations,
  two time-helical translations, rotation, scaling, and two trigonometric
  fields mixing time with space.
* ``Y`` -- the canonical basis, fixed linear combinations of the ``X``
  generators chosen so that the Levi decomposition is visible directly in
  the commutator table (abelian nilradical spanned by the first four,
  an sl(2) spanned by the last three).
* ``Z`` -- the classical basis admitted by the non-rotating system:
  translations, Galilean boosts, rotation, scaling, time translation,
  projective transformation, and dilation.

A jet point is a length-6 array-like ``(t, x, y, u, v, h)``; a sample of
``n`` points is an ``(n, 6)`` array.  Every generator is affine in
``w = (1, x, y, u, v, h)`` with coefficients that depend on ``t`` only, and
is stated once, as ``A(t) = sum_m B_m phi_m(t)`` with constant matrices
``B_m`` and time factors ``(1, cos f t, sin f t)`` (X, Y) or
``(1, t, t^2)`` (Z).  Values are ``A(t) @ w`` and the jacobians used by the
commutators, ``[A'(t) @ w | A(t)[:, 1:]]``, follow from the same matrices,
so the bracket values are exact up to rounding.  One kernel forms the
commutators of stacked generators; :func:`lie_bracket` reads it for one
pair and :func:`structure_constants` for all 36.  Structure constants are
recovered by least squares over generic sample points and snapped to exact
values, which makes the comparison with the canonical table sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import ArrayLike

from .core import FlowParameters, Jet
from .errors import FitDegenerate, InvalidParams
from .transforms import _forward_arrays

Family = Literal["X", "Y", "Z"]


@dataclass(frozen=True)
class GeneratorId:
    family: Family
    index: int

    def __post_init__(self) -> None:
        if self.family not in ("X", "Y", "Z"):
            raise InvalidParams(f"unknown generator family {self.family!r}")
        if not 1 <= self.index <= 9:
            raise InvalidParams(f"generator index must be 1..9, got {self.index}")


# ---------------------------------------------------------------------------
# Generators as coefficient matrices
# ---------------------------------------------------------------------------

# Every generator is affine in w = (1, x, y, u, v, h) with coefficients that
# depend on t only: its coefficient 6-vector is A(t) @ w with
# A(t) = sum_m B_m phi_m(t) and constant 6x6 matrices B_m.  The time factors
# are phi = (1, cos f t, sin f t) for X (and hence Y) and phi = (1, t, t^2)
# for Z.  Rows of B_m are the components (t, x, y, u, v, h); column 0 is the
# constant term and column j > 0 multiplies jet coordinate j, so the
# jacobian is [A'(t) @ w | A(t)[:, 1:]].  Entries are listed as
# {(m, row, column): value}; the comment above each gives the closed form
# with c, s = cos f t, sin f t.

_T, _X, _Y, _U, _V, _H = range(6)
_ONE, _COS, _SIN = range(3)
_T1, _T2 = 1, 2  # Z time factors t and t^2

# (0, -y, x, -v, u, 0) in both bases
_ROTATION = {(_ONE, _X, _Y): -1.0, (_ONE, _Y, _X): 1.0, (_ONE, _U, _V): -1.0, (_ONE, _V, _U): 1.0}
# (0, x, y, u, v, 2h) in both bases
_SCALING = {
    (_ONE, _X, _X): 1.0, (_ONE, _Y, _Y): 1.0, (_ONE, _U, _U): 1.0, (_ONE, _V, _V): 1.0,
    (_ONE, _H, _H): 2.0,
}


def _x_terms(f: float) -> list[dict[tuple[int, int, int], float]]:
    g = f / 2.0
    gf = g * f
    return [
        {(_ONE, _X, 0): 1.0},
        {(_ONE, _Y, 0): 1.0},
        # (0, c, -s, -f s, -f c, 0)
        {(_COS, _X, 0): 1.0, (_SIN, _Y, 0): -1.0, (_SIN, _U, 0): -f, (_COS, _V, 0): -f},
        # (0, s, c, f c, -f s, 0)
        {(_SIN, _X, 0): 1.0, (_COS, _Y, 0): 1.0, (_COS, _U, 0): f, (_SIN, _V, 0): -f},
        _ROTATION,
        _SCALING,
        {(_ONE, _T, 0): 1.0},
        # (c, -g (x s - y c), -g (x c + y s), g ((u - f y) s + (v - f x) c),
        #  -g ((u + f y) c - (v + f x) s), f h s) with g = f/2
        {
            (_COS, _T, 0): 1.0,
            (_SIN, _X, _X): -g, (_COS, _X, _Y): g,
            (_COS, _Y, _X): -g, (_SIN, _Y, _Y): -g,
            (_SIN, _U, _U): g, (_SIN, _U, _Y): -gf, (_COS, _U, _V): g, (_COS, _U, _X): -gf,
            (_COS, _V, _U): -g, (_COS, _V, _Y): -gf, (_SIN, _V, _V): g, (_SIN, _V, _X): gf,
            (_SIN, _H, _H): f,
        },
        # (s, g (x c + y s), -g (x s - y c), -g ((u - f y) c - (v - f x) s),
        #  -g ((u + f y) s + (v + f x) c), -f h c)
        {
            (_SIN, _T, 0): 1.0,
            (_COS, _X, _X): g, (_SIN, _X, _Y): g,
            (_SIN, _Y, _X): -g, (_COS, _Y, _Y): g,
            (_COS, _U, _U): -g, (_COS, _U, _Y): gf, (_SIN, _U, _V): g, (_SIN, _U, _X): -gf,
            (_SIN, _V, _U): -g, (_SIN, _V, _Y): -gf, (_COS, _V, _V): -g, (_COS, _V, _X): -gf,
            (_COS, _H, _H): -f,
        },
    ]


_Z_TERMS: list[dict[tuple[int, int, int], float]] = [
    {(_ONE, _X, 0): 1.0},
    {(_ONE, _Y, 0): 1.0},
    {(_T1, _X, 0): 1.0, (_ONE, _U, 0): 1.0},  # (0, t, 0, 1, 0, 0)
    {(_T1, _Y, 0): 1.0, (_ONE, _V, 0): 1.0},  # (0, 0, t, 0, 1, 0)
    _ROTATION,
    _SCALING,
    {(_ONE, _T, 0): 1.0},
    # (t^2, t x, t y, x - t u, y - t v, -2 t h)
    {
        (_T2, _T, 0): 1.0, (_T1, _X, _X): 1.0, (_T1, _Y, _Y): 1.0,
        (_ONE, _U, _X): 1.0, (_T1, _U, _U): -1.0, (_ONE, _V, _Y): 1.0, (_T1, _V, _V): -1.0,
        (_T1, _H, _H): -2.0,
    },
    # (2t, x, y, -u, -v, -2h)
    {
        (_T1, _T, 0): 2.0, (_ONE, _X, _X): 1.0, (_ONE, _Y, _Y): 1.0,
        (_ONE, _U, _U): -1.0, (_ONE, _V, _V): -1.0, (_ONE, _H, _H): -2.0,
    },
]


def _y_combo(f: float) -> np.ndarray:
    """Rows: canonical generators as linear combinations of X1..X9."""
    M = np.zeros((9, 9))
    M[0, 1] = 1.0
    M[0, 3] = -1.0  # Y1 = X2 - X4
    M[1, 2] = 1.0
    M[1, 0] = -1.0  # Y2 = X3 - X1
    M[2, 0] = 1.0
    M[2, 2] = 1.0   # Y3 = X1 + X3
    M[3, 1] = 1.0
    M[3, 3] = 1.0   # Y4 = X2 + X4
    M[4, 4] = 1.0   # Y5 = X5
    M[5, 5] = 1.0   # Y6 = X6
    M[6, 6] = 1.0 / f
    M[6, 4] = -0.5
    M[6, 7] = -1.0 / f  # Y7 = (X7 - f/2 X5 - X8) / f
    M[7, 6] = 1.0 / f
    M[7, 4] = -0.5
    M[7, 7] = 1.0 / f   # Y8 = (X7 - f/2 X5 + X8) / f
    M[8, 8] = -2.0 / f  # Y9 = -(2/f) X9
    return M


def _family_matrices(family: Family, f: float) -> np.ndarray:
    """B[k, m] of the nine generators of a family, shape (9, 3, 6, 6)."""
    B = np.zeros((9, 3, 6, 6))
    for k, terms in enumerate(_Z_TERMS if family == "Z" else _x_terms(f)):
        for (m, i, j), value in terms.items():
            B[k, m, i, j] = value
    if family == "Y":
        B = np.einsum("kl,lmij->kmij", _y_combo(f), B)
    return B


def _affine_jet(
    B: np.ndarray, family: Family, f: float, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and jacobians of the fields ``B`` (shape (..., 3, 6, 6))
    at the jet points ``pts`` (shape (n, 6)).

    Returns arrays of shape (..., n, 6) and (..., n, 6, 6).
    """
    t = pts[:, 0]
    w = pts.copy()
    w[:, 0] = 1.0
    one, zero = np.ones_like(t), np.zeros_like(t)
    if family == "Z":
        phi, dphi = np.stack([one, t, t * t]), np.stack([zero, one, 2.0 * t])
    else:
        c, s = np.cos(f * t), np.sin(f * t)
        phi, dphi = np.stack([one, c, s]), np.stack([zero, -f * s, f * c])
    A = np.einsum("...mij,mn->...nij", B, phi)
    dA_w = np.einsum("...mij,mn,nj->...ni", B, dphi, w)
    values = np.einsum("...nij,nj->...ni", A, w)
    return values, np.concatenate([dA_w[..., None], A[..., 1:]], axis=-1)


def _bracket(values: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Commutators of stacked generators from their values (k, n, 6) and
    jacobians (k, n, 6, 6): out[i, j] = [G_i, G_j] = J_j G_i - J_i G_j,
    shape (k, k, n, 6)."""
    jv = np.einsum("jnkl,inl->ijnk", jac, values)  # jv[i, j] = J_j @ G_i
    return jv - jv.transpose(1, 0, 2, 3)


def _generator_jet(
    gid: GeneratorId, p: ArrayLike, params: FlowParameters
) -> tuple[np.ndarray, np.ndarray]:
    B = _family_matrices(gid.family, params.f)[gid.index - 1]
    values, jac = _affine_jet(B, gid.family, params.f, np.asarray(p, dtype=float).reshape(1, 6))
    return values[0], jac[0]


def generator_eval(gid: GeneratorId, p: ArrayLike, params: FlowParameters) -> np.ndarray:
    """Coefficient 6-vector A(t) @ w of a generator at the jet point ``p``."""
    return _generator_jet(gid, p, params)[0]


def generator_jacobian(gid: GeneratorId, p: ArrayLike, params: FlowParameters) -> np.ndarray:
    """Jacobian of the coefficient functions with respect to (t,x,y,u,v,h),
    derived from the same matrices: [A'(t) @ w | A(t)[:, 1:]]."""
    return _generator_jet(gid, p, params)[1]


def lie_bracket(a: GeneratorId, b: GeneratorId, p: ArrayLike, params: FlowParameters) -> np.ndarray:
    """Commutator [a, b] of two generators of the same family at the jet point ``p``."""
    if a.family != b.family:
        raise InvalidParams("bracket requires generators from the same family")
    B = _family_matrices(a.family, params.f)[[a.index - 1, b.index - 1]]
    values, jac = _affine_jet(B, a.family, params.f, np.asarray(p, dtype=float).reshape(1, 6))
    return _bracket(values, jac)[0, 1, 0]


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------

#: Fitted structure constants within this of a half-integer are snapped to
#: it, and two tables agree when no entry differs by more.
TABLE_TOL = 1e-9

#: Canonical commutator table in the Y basis (identical in the Z basis).
#: Upper-triangle entries only: (i, j) -> ((k, coefficient), ...) meaning
#: [G_i, G_j] = sum coeff * G_k; all other brackets vanish.
CANONICAL_TABLE: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {
    (1, 5): ((2, 1.0),),
    (1, 6): ((1, 1.0),),
    (1, 8): ((3, 1.0),),
    (1, 9): ((1, 1.0),),
    (2, 5): ((1, -1.0),),
    (2, 6): ((2, 1.0),),
    (2, 8): ((4, 1.0),),
    (2, 9): ((2, 1.0),),
    (3, 5): ((4, 1.0),),
    (3, 6): ((3, 1.0),),
    (3, 7): ((1, -1.0),),
    (3, 9): ((3, -1.0),),
    (4, 5): ((3, -1.0),),
    (4, 6): ((4, 1.0),),
    (4, 7): ((2, -1.0),),
    (4, 9): ((4, -1.0),),
    (7, 8): ((9, 1.0),),
    (7, 9): ((7, 2.0),),
    (8, 9): ((8, -2.0),),
}


def canonical_structure_array() -> np.ndarray:
    """The canonical table as a dense antisymmetric (9, 9, 9) array."""
    c = np.zeros((9, 9, 9))
    for (i, j), terms in CANONICAL_TABLE.items():
        for k, w in terms:
            c[i - 1, j - 1, k - 1] = w
            c[j - 1, i - 1, k - 1] = -w
    return c


@dataclass(frozen=True)
class StructureTable:
    """Structure constants c[i, j, k] with [G_i, G_j] = sum_k c[i,j,k] G_k."""

    family: Family
    coeffs: np.ndarray
    fit_residual: float

    def max_antisymmetry_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs + np.transpose(self.coeffs, (1, 0, 2)))))

    def max_jacobi_defect(self) -> float:
        """Worst violation of the Jacobi identity at the level of constants."""
        c = self.coeffs
        # sum_m c[i,j,m] c[m,k,l] + cyclic permutations of (i, j, k)
        term = np.einsum("ijm,mkl->ijkl", c, c)
        total = term + np.transpose(term, (1, 2, 0, 3)) + np.transpose(term, (2, 0, 1, 3))
        return float(np.max(np.abs(total)))

    def matches_canonical(self) -> bool:
        return bool(np.max(np.abs(self.coeffs - canonical_structure_array())) <= TABLE_TOL)


def sample_jet_points(params: FlowParameters, n: int, seed: int = 0) -> np.ndarray:
    """Generic sample points, shape (n, 6): coordinates uniform in [-2, 2],
    t away from the half-period endpoints where the trigonometric frame
    degenerates.  That interval, (0.1, pi/f - 0.1), is empty for f >= 5 pi."""
    t_hi = math.pi / params.f - 0.1
    if not t_hi > 0.1:
        raise InvalidParams(f"sample times need pi/f > 0.2, i.e. f < 5 pi; got f={params.f!r}")
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.1, t_hi, size=n)
    return np.column_stack([t, rng.uniform(-2.0, 2.0, size=(n, 5))])


def structure_constants(
    family: Family, params: FlowParameters, n_points: int = 12, seed: int = 0
) -> StructureTable:
    """Fit every commutator onto the nine-generator frame by least squares.

    All nine generators are evaluated at all sample points at once, and the
    36 brackets are fitted by one least-squares call with 36 right-hand
    sides.  Generic points make the frame pointwise independent; a
    rank-deficient sample is retried with fresh points up to five times and
    then raises :class:`FitDegenerate`.  Fitted coefficients within
    :data:`TABLE_TOL` of a half-integer are snapped, giving exact table
    entries.
    """
    if family == "X":
        raise InvalidParams("structure constants are tabulated for Y and Z bases")
    if n_points < 2:
        raise InvalidParams(f"structure constants need n_points >= 2, got {n_points}")
    B = _family_matrices(family, params.f)
    for attempt in range(6):
        pts = sample_jet_points(params, n_points, seed + attempt)
        values, jac = _affine_jet(B, family, params.f, pts)
        # rows (point, component), one column per generator
        basis = values.transpose(1, 2, 0).reshape(-1, 9)
        if np.linalg.matrix_rank(basis) == 9:
            break
    else:
        raise FitDegenerate("sample matrix rank deficient after 6 attempt(s)")
    upper = np.triu_indices(9, k=1)
    rhs = _bracket(values, jac)[upper].reshape(36, -1).T
    sol, _, _, _ = np.linalg.lstsq(basis, rhs, rcond=None)
    worst = float(np.max(np.abs(basis @ sol - rhs)))
    nearest = np.round(2.0 * sol) / 2.0
    snapped = np.where(np.abs(sol - nearest) <= TABLE_TOL, nearest, sol).T
    coeffs = np.zeros((9, 9, 9))
    coeffs[upper] = snapped
    coeffs[upper[::-1]] = -snapped
    return StructureTable(family=family, coeffs=coeffs, fit_residual=worst)


@dataclass(frozen=True)
class IsomorphismReport:
    """Outcome of comparing the Y- and Z-basis structure tables."""

    ok: bool
    max_difference: float
    mismatches: tuple[tuple[int, int, int, float, float], ...]
    nilradical_abelian: bool
    sl2_closed: bool
    y_matches_canonical: bool
    z_matches_canonical: bool


def verify_isomorphism(
    params: FlowParameters,
    n_points: int = 12,
    seed: int = 0,
) -> IsomorphismReport:
    """Check that both bases share one structure table with the expected shape.

    Besides elementwise equality this asserts the structural claims: the
    first four canonical generators commute pairwise (abelian nilradical)
    and the last three close among themselves (an sl(2) subalgebra), each
    to within :data:`TABLE_TOL`.
    """
    ty = structure_constants("Y", params, n_points, seed)
    tz = structure_constants("Z", params, n_points, seed + 1)
    diff = np.abs(ty.coeffs - tz.coeffs)
    mismatches = tuple(
        (i + 1, j + 1, k + 1, float(ty.coeffs[i, j, k]), float(tz.coeffs[i, j, k]))
        for i, j, k in zip(*np.nonzero(diff > TABLE_TOL))
    )
    nil = bool(np.max(np.abs(ty.coeffs[0:4, 0:4, :])) <= TABLE_TOL)
    sl2 = bool(np.max(np.abs(ty.coeffs[6:9, 6:9, 0:6])) <= TABLE_TOL)
    return IsomorphismReport(
        ok=not mismatches,
        max_difference=float(diff.max()),
        mismatches=mismatches,
        nilradical_abelian=nil,
        sl2_closed=sl2,
        y_matches_canonical=ty.matches_canonical(),
        z_matches_canonical=tz.matches_canonical(),
    )


# ---------------------------------------------------------------------------
# Pushforward through the equivalence transformation
# ---------------------------------------------------------------------------

#: Power n_k in  (pushforward of Y_k) = f**n_k * Z_k.
PUSHFORWARD_POWER: dict[int, int] = {1: 0, 2: 0, 3: 1, 4: 1, 5: 0, 6: 0, 7: -1, 8: 1, 9: 0}


@dataclass(frozen=True)
class PushforwardReport:
    index: int
    multiplier: float
    max_error: float
    ok: bool


def pushforward_check(
    k: int, params: FlowParameters, sample: ArrayLike | None = None
) -> PushforwardReport:
    """Push a canonical generator through the equivalence map exactly.

    The pushforward J Y_k(p) is the derivative of the map at p along
    Y_k(p): one forward-mode pass with the seeds ``Jet(p_i, Y_k(p)_i)``,
    read from the outputs' ``t`` slots.  It must equal the stated multiple
    of the corresponding classical generator at the image point;
    ``max_error`` is the largest difference in units of max(1, |expected|)
    per component, since the pushed components grow like
    1 / sin^2(f t/2) near the singular times, and the report is ``ok`` up
    to 1e-12.  ``sample``, an (n, 6) array-like of jet points, defaults to
    six points of :func:`sample_jet_points` with seed 3.  The error is at
    rounding level while sin(f t/2) >= 0.05; closer to those times the
    generators' own coefficients, sums of 1, cos f t and sin f t, lose about
    eps / sin^2(f t/2) relative, and the report shows it.  A sample point at
    a full-period time, where the map is singular, raises :class:`SingularTime`.
    """
    mult = params.f ** PUSHFORWARD_POWER[k]
    yid = GeneratorId("Y", k)
    zid = GeneratorId("Z", k)
    pts = sample_jet_points(params, 6, seed=3) if sample is None else np.asarray(sample, dtype=float)
    worst = 0.0
    for p in pts:
        seeds = [Jet(x, dx) for x, dx in zip(p, generator_eval(yid, p, params))]
        out = _forward_arrays(seeds, params.f)
        pushed = np.array([c.t for c in out])
        expected = mult * generator_eval(zid, [c.v for c in out], params)
        worst = max(worst, float(np.max(np.abs(pushed - expected) / np.maximum(1.0, np.abs(expected)))))
    return PushforwardReport(index=k, multiplier=mult, max_error=worst, ok=worst <= 1e-12)
