import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rswlab.core import FlowParameters
from rswlab.errors import FitDegenerate, SingularTime
from rswlab.liealg import (
    CANONICAL_TABLE,
    GeneratorId,
    canonical_structure_array,
    generator_eval,
    generator_jacobian,
    lie_bracket,
    pushforward_check,
    sample_jet_points,
    structure_constants,
    verify_isomorphism,
)

P = FlowParameters(1.0, 1.0)

coords = st.floats(-2.0, 2.0)


def jet(t=0.3, x=0.5, y=-0.2, u=0.7, v=-1.1, h=1.3) -> np.ndarray:
    return np.array([t, x, y, u, v, h])


def closures(k):
    """The Y generator k as (coefficients, jacobian) closures of a jet point."""
    gid = GeneratorId("Y", k)
    return lambda arr: generator_eval(gid, arr, P), lambda arr: generator_jacobian(gid, arr, P)


def bracket_values(a_coeff, a_jac, b_coeff, b_jac, arr):
    """[A, B] = J_B A - J_A B at a point from closures: two matrix-vector
    products, independent of ``liealg``'s stacked bracket kernel."""
    return b_jac(arr) @ a_coeff(arr) - a_jac(arr) @ b_coeff(arr)


class TestGeneratorEval:
    def test_x1_is_x_translation(self):
        out = generator_eval(GeneratorId("X", 1), jet(), P)
        assert np.array_equal(out, [0, 1, 0, 0, 0, 0])

    def test_x5_rotation(self):
        out = generator_eval(GeneratorId("X", 5), [0, 1, 2, 3, 4, 5], P)
        assert np.array_equal(out, [0, -2, 1, -4, 3, 0])

    def test_x8_at_time_zero(self):
        _, x, y, u, v, _ = p = (0.0, 0.5, -0.7, 1.1, 0.4, 2.0)
        out = generator_eval(GeneratorId("X", 8), p, P)
        expected = [1.0, y / 2, -x / 2, (v - x) / 2, -(u + y) / 2, 0.0]
        assert np.allclose(out, expected, atol=1e-15)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for family in ("X", "Y", "Z"):
            for k in range(1, 10):
                gid = GeneratorId(family, k)
                arr = rng.uniform(-1.5, 1.5, 6)
                arr[0] = rng.uniform(0.2, 2.0)
                J = generator_jacobian(gid, arr, P)
                Jfd = np.empty((6, 6))
                d = 1e-6
                for j in range(6):
                    hi, lo = arr.copy(), arr.copy()
                    hi[j] += d
                    lo[j] -= d
                    Jfd[:, j] = (
                        generator_eval(gid, hi, P)
                        - generator_eval(gid, lo, P)
                    ) / (2 * d)
                assert np.allclose(J, Jfd, atol=5e-9), (family, k)


class TestSympyOracle:
    """Generators written symbolically from their closed forms and
    differentiated by sympy, against the coefficient-matrix evaluation."""

    @staticmethod
    def closed_forms():
        sp = pytest.importorskip("sympy")
        t, x, y, u, v, h, f = syms = sp.symbols("t x y u v h f")
        c, s, g = sp.cos(f * t), sp.sin(f * t), f / 2
        X = sp.Matrix([
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, c, -s, -f * s, -f * c, 0],
            [0, s, c, f * c, -f * s, 0],
            [0, -y, x, -v, u, 0],
            [0, x, y, u, v, 2 * h],
            [1, 0, 0, 0, 0, 0],
            [c, -g * (x * s - y * c), -g * (x * c + y * s),
             g * ((u - f * y) * s + (v - f * x) * c),
             -g * ((u + f * y) * c - (v + f * x) * s), f * h * s],
            [s, g * (x * c + y * s), -g * (x * s - y * c),
             -g * ((u - f * y) * c - (v - f * x) * s),
             -g * ((u + f * y) * s + (v + f * x) * c), -f * h * c],
        ])
        Z = sp.Matrix([
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, t, 0, 1, 0, 0],
            [0, 0, t, 0, 1, 0],
            [0, -y, x, -v, u, 0],
            [0, x, y, u, v, 2 * h],
            [1, 0, 0, 0, 0, 0],
            [t * t, t * x, t * y, x - t * u, y - t * v, -2 * t * h],
            [2 * t, x, y, -u, -v, -2 * h],
        ])
        out = {}
        for name, M in (("X", X), ("Z", Z)):
            jac = [M[k, :].jacobian(syms[:6]) for k in range(9)]
            out[name] = (sp.lambdify(syms, M, "numpy"), sp.lambdify(syms, jac, "numpy"))
        return out

    def test_values_and_jacobians_match(self):
        import rswlab.liealg as la

        forms = self.closed_forms()
        rng = np.random.default_rng(7)
        for f in (1.0, 0.37, 2.0):
            params = FlowParameters(f, 1.0)
            for _ in range(5):
                arr = rng.uniform(-2.0, 2.0, 6)
                arr[0] = rng.uniform(-5.0, 5.0)
                exact = {}
                for name, (vals, jacs) in forms.items():
                    exact[name] = (np.array(vals(*arr, f), dtype=float),
                                   np.array(jacs(*arr, f), dtype=float))
                combo = la._y_combo(f)
                exact["Y"] = (combo @ exact["X"][0], np.einsum("kl,lij->kij", combo, exact["X"][1]))
                for family, (values, jacobians) in exact.items():
                    for k in range(1, 10):
                        gid = GeneratorId(family, k)
                        assert np.allclose(generator_eval(gid, arr, params), values[k - 1],
                                           rtol=0.0, atol=1e-12), (family, k, f)
                        assert np.allclose(generator_jacobian(gid, arr, params), jacobians[k - 1],
                                           rtol=0.0, atol=1e-12), (family, k, f)


class TestInvarianceCriterion:
    """Each generator, read from ``liealg``'s coefficient matrices, is a
    point symmetry of its equations: its first prolongation applied to them
    vanishes on their solutions (Olver, *Applications of Lie Groups to
    Differential Equations*, 2nd ed., Thm 2.31).  X and Y act on the rotating
    equations, Z on the classical ones; gravity g stays a symbol.

    The matrices are read at dyadic f, whose entries sympy's Rational takes
    exactly.  Y's rows divide by f, and 4/3 is not dyadic, so Y is read at
    f = 1/4 where X and Z are read at f = 3/4.
    """

    @staticmethod
    def generators(family, f):
        """The nine generators' coefficient matrices A with coefficients A @ (1, x, y, u, v, h)."""
        sp = pytest.importorskip("sympy")
        import rswlab.liealg as la

        t, c, s = sp.symbols("t c s")
        phi = (1, t, t * t) if family == "Z" else (1, c, s)  # c, s = cos f t, sin f t
        return [sum((sp.Matrix(B[m]).applyfunc(sp.Rational) * phi[m] for m in range(3)), sp.zeros(6))
                for B in la._family_matrices(family, float(f))]

    @staticmethod
    def residues(family, f, generators):
        """Per generator, the prolonged equations on their solutions, with s^2 = 1 - c^2."""
        sp = pytest.importorskip("sympy")
        t, x, y, u, v, h, c, s, g = sp.symbols("t x y u v h c s g")
        fields, coords = (u, v, h), (t, x, y)
        d = {(q, z): sp.Symbol(f"{q}_{z}") for q in fields for z in coords}
        rot = 0 if family == "Z" else f
        equations = [
            d[u, t] + u * d[u, x] + v * d[u, y] - rot * v + g * d[h, x],
            d[v, t] + u * d[v, x] + v * d[v, y] + rot * u + g * d[h, y],
            d[h, t] + u * d[h, x] + v * d[h, y] + h * (d[u, x] + d[v, y]),
        ]
        on_solutions = sp.solve(equations, [d[q, t] for q in fields], dict=True)[0]

        def total(F, z):  # total derivative, with c' = -f s and s' = f c
            explicit = sp.diff(F, z)
            if z == t and family != "Z":
                explicit = sp.diff(F, c) * (-f * s) + sp.diff(F, s) * (f * c)
            return explicit + sum(sp.diff(F, q) * d[q, z] for q in fields)

        def residue(A, E):
            xi = dict(zip(coords + fields, A * sp.Matrix([1, x, y, u, v, h])))
            pr = sum(xi[q] * sp.diff(E, q) for q in fields)
            for (q, z), slot in d.items():  # eta^(q, z) = D_z eta^q - sum_j q_j D_z xi^j
                if sp.diff(E, slot) != 0:
                    eta = total(xi[q], z) - sum(d[q, j] * total(xi[j], z) for j in coords)
                    pr += eta * sp.diff(E, slot)
            reduced = sp.expand(pr.subs(on_solutions))
            return sp.expand(sp.rem(reduced, s * s + c * c - 1, s))

        return [[residue(A, E) for E in equations] for A in generators]

    @pytest.mark.parametrize("family, f", [("X", "1/2"), ("X", "3/4"), ("Y", "1/2"), ("Y", "1/4"),
                                           ("Z", "1/2"), ("Z", "3/4")])
    def test_every_generator_is_a_symmetry(self, family, f):
        sp = pytest.importorskip("sympy")
        f = sp.Rational(f)
        residues = self.residues(family, f, self.generators(family, f))
        assert residues == [[0, 0, 0]] * 9

    def test_a_sign_flip_is_caught(self):
        sp = pytest.importorskip("sympy")
        f = sp.Rational(1, 2)
        A = self.generators("X", f)[7]
        A[5, :] = -A[5, :]  # X8's h row
        assert all(r != 0 for r in self.residues("X", f, [A])[0])


class TestBrackets:
    def test_y7_y8_gives_y9(self):
        pts = sample_jet_points(P, 5, seed=11)
        for p in pts:
            lhs = lie_bracket(GeneratorId("Y", 7), GeneratorId("Y", 8), p, P)
            rhs = generator_eval(GeneratorId("Y", 9), p, P)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_y1_y2_commute(self):
        out = lie_bracket(GeneratorId("Y", 1), GeneratorId("Y", 2), jet(), P)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_y9_y7_is_minus_two_y7(self):
        for p in sample_jet_points(P, 4, seed=3):
            lhs = lie_bracket(GeneratorId("Y", 9), GeneratorId("Y", 7), p, P)
            rhs = -2.0 * generator_eval(GeneratorId("Y", 7), p, P)
            assert np.allclose(lhs, rhs, atol=1e-12)

    @given(t=st.floats(0.2, 2.9), x=coords, y=coords, u=coords, v=coords, h=coords,
           i=st.integers(1, 9), j=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, t, x, y, u, v, h, i, j):
        p = [t, x, y, u, v, h]
        ab = lie_bracket(GeneratorId("Y", i), GeneratorId("Y", j), p, P)
        ba = lie_bracket(GeneratorId("Y", j), GeneratorId("Y", i), p, P)
        assert np.allclose(ab, -ba, atol=1e-12)

    def test_matches_the_closure_bracket(self):
        pts = sample_jet_points(P, 3, seed=17)
        for i in range(1, 10):
            for j in range(1, 10):
                a, b = closures(i), closures(j)
                for p in pts:
                    out = lie_bracket(GeneratorId("Y", i), GeneratorId("Y", j), p, P)
                    assert np.allclose(out, bracket_values(*a, *b, p), rtol=0.0, atol=1e-12), (i, j)

    def test_bilinearity(self):
        # [A, B + C] = [A, B] + [A, C] via explicit closures
        p = jet()
        a, b, c = closures(5), closures(7), closures(8)
        bc_coeff = lambda arr: b[0](arr) + c[0](arr)
        bc_jac = lambda arr: b[1](arr) + c[1](arr)
        lhs = bracket_values(a[0], a[1], bc_coeff, bc_jac, p)
        rhs = bracket_values(a[0], a[1], b[0], b[1], p) + bracket_values(
            a[0], a[1], c[0], c[1], p
        )
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_jacobi_identity_pointwise(self):
        # [[A,B],C] + [[B,C],A] + [[C,A],B] = 0; the outer bracket needs
        # derivatives of the inner one, taken by central differences.
        rng = np.random.default_rng(5)

        def nested(a, b, c, arr):
            inner = lambda q: bracket_values(a[0], a[1], b[0], b[1], q)

            def inner_jac(q):
                J = np.empty((6, 6))
                d = 3e-6
                for j in range(6):
                    hi, lo = q.copy(), q.copy()
                    hi[j] += d
                    lo[j] -= d
                    J[:, j] = (inner(hi) - inner(lo)) / (2 * d)
                return J

            return bracket_values(inner, inner_jac, c[0], c[1], arr)

        for _ in range(20):
            ids = rng.integers(1, 10, size=3)
            a, b, c = (closures(int(k)) for k in ids)
            arr = rng.uniform(-1.5, 1.5, 6)
            arr[0] = rng.uniform(0.3, 2.7)
            total = nested(a, b, c, arr) + nested(b, c, a, arr) + nested(c, a, b, arr)
            assert np.max(np.abs(total)) < 1e-9


class TestStructureConstants:
    def test_y_table_matches_canonical(self):
        table = structure_constants("Y", P)
        assert table.matches_canonical()
        assert table.fit_residual < 1e-9

    def test_z_table_matches_canonical(self):
        assert structure_constants("Z", P).matches_canonical()

    def test_antisymmetry_of_table(self):
        table = structure_constants("Y", P)
        assert table.max_antisymmetry_defect() == 0.0

    def test_jacobi_at_constant_level(self):
        table = structure_constants("Y", P)
        assert table.max_jacobi_defect() < 1e-9

    def test_independent_samples_agree(self):
        t1 = structure_constants("Y", P, seed=101)
        t2 = structure_constants("Y", P, seed=202)
        assert np.max(np.abs(t1.coeffs - t2.coeffs)) < 1e-9

    def test_f_independence(self):
        for f in (0.37, 2.0):
            assert structure_constants("Y", FlowParameters(f, 1.0)).matches_canonical()

    def test_degenerate_points_raise(self):
        # as f -> 0, X3 and X4 fall onto X1 and X2, so every resampled frame
        # is rank deficient
        with pytest.raises(FitDegenerate, match="after 6 attempt"):
            structure_constants("Y", FlowParameters(1e-300, 1.0))

    def test_canonical_array_antisymmetric(self):
        c = canonical_structure_array()
        assert np.array_equal(c, -np.transpose(c, (1, 0, 2)))
        # entries are small integers
        vals = set(np.unique(c))
        assert vals <= {-2.0, -1.0, 0.0, 1.0, 2.0}
        assert len(CANONICAL_TABLE) == 19


class TestIsomorphism:
    def test_reports_ok(self):
        rep = verify_isomorphism(P)
        assert rep.ok
        assert rep.max_difference < 1e-9
        assert rep.nilradical_abelian
        assert rep.sl2_closed
        assert rep.y_matches_canonical and rep.z_matches_canonical

    def test_second_parameter_value(self):
        rep = verify_isomorphism(FlowParameters(0.37, 1.0))
        assert rep.ok

    def test_fault_injection_detected(self):
        # drop the 1/f prefactor of the seventh canonical generator
        import rswlab.liealg as la

        f = 2.0
        params = FlowParameters(f, 1.0)
        good = la._y_combo(f)

        def bad_combo(ff):
            M = good.copy()
            M[6] *= ff  # removes the 1/f scaling of row 7
            return M

        orig = la._y_combo
        la._y_combo = bad_combo
        try:
            rep = verify_isomorphism(params)
        finally:
            la._y_combo = orig
        assert not rep.ok
        assert rep.mismatches


class TestPushforward:
    @pytest.mark.parametrize("k,mult_of_f", [
        (1, None), (2, None), (5, None), (6, None), (9, None),
        (3, "f"), (4, "f"), (8, "f"), (7, "inv"),
    ])
    def test_stated_multiplier(self, k, mult_of_f):
        f = 2.0
        params = FlowParameters(f, 1.0)
        rep = pushforward_check(k, params)
        assert rep.ok, rep
        if mult_of_f is None:
            assert rep.multiplier == 1.0
        elif mult_of_f == "f":
            assert rep.multiplier == f
        else:
            assert rep.multiplier == pytest.approx(1.0 / f)

    @pytest.mark.parametrize("f", [0.1, 0.37, 1.0, 2.0])
    def test_exact_for_all_nine_generators(self, f):
        # one forward-mode pass per point: rounding level (measured 2.8e-14)
        params = FlowParameters(f, 1.0)
        for k in range(1, 10):
            rep = pushforward_check(k, params)
            assert rep.ok and rep.max_error <= 1e-12, rep
            assert rep.multiplier == {3: f, 4: f, 8: f, 7: 1.0 / f}.get(k, 1.0)

    @pytest.mark.parametrize("f,t", [(0.1, 1.0), (1.0, 0.1), (2.0, 0.1), (2.0, math.pi - 0.05)])
    def test_relative_to_the_pushed_size_near_singular_times(self, f, t):
        # the pushed components grow like 1/sin^2(f t/2) towards the singular
        # times; compared in units of max(1, |expected|) they stay at rounding
        # level while sin(f t/2) >= 0.05 (measured 2.4e-14)
        params = FlowParameters(f, 1.0)
        rng = np.random.default_rng(2)
        sample = [[t, *rng.uniform(-2.0, 2.0, 5)] for _ in range(8)]
        for k in range(1, 10):
            rep = pushforward_check(k, params, sample=sample)
            assert rep.ok and rep.max_error <= 1e-12, rep

    def test_k5_at_specific_time(self):
        params = FlowParameters(1.0, 1.0)
        sample = [[math.pi / 2, 0.4, -0.6, 0.9, 0.1, 1.4]]
        rep = pushforward_check(5, params, sample=sample)
        assert rep.ok and rep.max_error < 1e-6

    def test_singular_sample_rejected(self):
        params = FlowParameters(1.0, 1.0)
        with pytest.raises(SingularTime):
            pushforward_check(1, params, sample=[[2 * math.pi, 0.1, 0.2, 0.3, 0.4, 1.0]])


class TestPeriodicity:
    def test_time_independent_generators(self):
        for k in (1, 2, 5, 6, 7):
            a = generator_eval(GeneratorId("X", k), jet(t=0.4), P)
            b = generator_eval(GeneratorId("X", k), jet(t=1.9), P)
            assert np.array_equal(a, b)

    def test_trigonometric_generators_have_period(self):
        period = 2 * math.pi / P.f
        for k in (3, 4, 8, 9):
            a = generator_eval(GeneratorId("X", k), jet(t=0.4), P)
            b = generator_eval(GeneratorId("X", k), jet(t=0.4 + period), P)
            assert np.allclose(a, b, atol=1e-12)
            c = generator_eval(GeneratorId("X", k), jet(t=0.4 + period / 2), P)
            assert not np.allclose(a, c, atol=1e-6)
