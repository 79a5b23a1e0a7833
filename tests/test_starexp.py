import math
import random
import warnings

import numpy as np
import pytest

from starlog.algebra import scalar_part, star_mul, symmetrization
from starlog.errors import DomainError, ExprError, NoConvergence
from starlog.expr import (
    Add,
    Component,
    IntPow,
    Q,
    ScalarApply,
    StarMul,
    StarSeries,
    Symm,
    UNIT,
    VectPart,
    as_expr,
    const,
    eval_many,
    eval_stem_many,
    evaluate,
    stem_complex,
)
from starlog.quaternion import (
    I_UNIT,
    J_UNIT,
    K_UNIT,
    ONE,
    Quaternion,
    VERIFY_UNITS,
)
from starlog.parse import parse_expr
from starlog.starexp import cos_star, exp_star, exp_star_series, real_power, sin_star

RNG = np.random.default_rng(3)
PSI = UNIT * const(I_UNIT) + const(J_UNIT)

CORPUS = [
    const(0),
    const(Quaternion(0, math.pi, 0, 0)),
    Q,
    Q * const(I_UNIT),
    IntPow(Q, 2) - const(1.5),
    star_mul(Q - const(I_UNIT), Q - const(J_UNIT)),
    (IntPow(Q, 2) + 2) * const(J_UNIT),
    const(-1.0) + IntPow(Q, 2) * const(I_UNIT) + (Q * math.sqrt(2)) * const(J_UNIT) + const(K_UNIT),
]


def sample_points(n=12):
    return RNG.uniform(-1.2, 1.2, n) + 1j * RNG.uniform(0.2, 1.0, n)


def stems_close(f, g, zs, tol):
    c1, c2 = eval_stem_many(f, zs), eval_stem_many(g, zs)
    A1, B1, A2, B2 = c1.real, c1.imag, c2.real, c2.imag
    scale = 1.0 + max(np.abs(A1).max(), np.abs(B1).max())
    return (
        np.max(np.abs(A1 - A2)) <= tol * scale
        and np.max(np.abs(B1 - B2)) <= tol * scale
    )


class TestClosedForm:
    @pytest.mark.parametrize("f", CORPUS, ids=range(len(CORPUS)))
    def test_series_agrees(self, f):
        zs = sample_points()
        assert stems_close(exp_star(f), StarSeries("exp", f), zs, 1e-12)

    @pytest.mark.parametrize("f", CORPUS + [PSI], ids=range(len(CORPUS) + 1))
    def test_inverse_identity(self, f):
        prod = star_mul(exp_star(f), exp_star(-f))
        zs = sample_points()
        assert stems_close(prod, const(1), zs, 1e-12)

    @pytest.mark.parametrize("f", CORPUS + [PSI], ids=range(len(CORPUS) + 1))
    def test_symmetrization_identity(self, f):
        # (exp_* f)^s = exp(2 f0)
        lhs = symmetrization(exp_star(f))
        rhs = ScalarApply("exp", scalar_part(f) * 2)
        zs = sample_points()
        assert stems_close(lhs, rhs, zs, 1e-11)

    def test_point_series_api(self):
        f = IntPow(Q, 2) * const(I_UNIT)
        q = Quaternion(0.3, 0.5, -0.2, 0.8)
        got = exp_star_series(f, q)
        want = evaluate(exp_star(f), q)
        assert abs(got - want) < 1e-12 * (1 + abs(want))


class TestSpecialValues:
    def test_exp_of_psi(self):
        # psi^s = 0, so exp_*(psi) = 1 + psi exactly
        zs = sample_points()
        assert stems_close(exp_star(PSI), const(1) + PSI, zs, 1e-13)

    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 2, 3])
    def test_exp_of_half_turns(self, m):
        f = UNIT * const(m * math.pi)
        zs = sample_points()
        assert stems_close(exp_star(f), const((-1.0) ** m), zs, 1e-12)

    def test_slice_preserving_reduces_to_slicewise_exp(self):
        f = IntPow(Q, 2) - const(0.5)
        zs = sample_points()
        got = stem_complex(exp_star(f), zs)
        want = np.exp(stem_complex(f, zs))
        assert np.max(np.abs(got - want)) < 1e-13 * (1 + np.abs(want).max())

    def test_nonvanishing(self):
        zs = sample_points(40)
        for f in CORPUS:
            for unit in VERIFY_UNITS:
                vals = eval_many(exp_star(f), zs, unit)
                assert np.min(np.sqrt((vals**2).sum(axis=1))) > 1e-6


class TestNonAdditivity:
    def test_witness(self):
        f = const(Quaternion(0, math.pi, 0, 0))
        g = const(Quaternion(0, 0, math.pi, 0))
        zs = sample_points(6)
        sum_exp = eval_stem_many(exp_star(f + g), zs)
        prod_exp = eval_stem_many(star_mul(exp_star(f), exp_star(g)), zs)
        # exp_*(f)*exp_*(g) = (-1)(-1) = 1 while exp_*(f+g) = cos(sqrt2 pi) + ...
        assert np.allclose(prod_exp.real[:, 0], 1.0, atol=1e-12)
        gap = np.abs(sum_exp.real[:, 0] - 1.0)
        assert np.min(gap) > 0.5


class TestTrig:
    def test_pythagorean_slice_preserving(self):
        f = IntPow(Q, 2) - const(0.3)
        ident = star_mul(cos_star(f), cos_star(f)) + star_mul(sin_star(f), sin_star(f))
        zs = sample_points()
        assert stems_close(ident, const(1), zs, 1e-12)

    def test_null_vector_part(self):
        zs = sample_points()
        assert stems_close(cos_star(PSI), const(1), zs, 1e-13)
        assert stems_close(sin_star(PSI), PSI, zs, 1e-13)

    def test_series_for_vectorial_argument(self):
        f = Q * const(I_UNIT)
        zs = sample_points()
        q_vals = stem_complex(Q, zs)
        # (qi)*(qi) = -q^2, so the star power series give hyperbolic functions
        C = eval_stem_many(StarSeries("cos", f), zs)
        A, B = C.real, C.imag
        assert np.allclose(A[:, 0] + 1j * B[:, 0], np.cosh(q_vals), atol=1e-12)
        assert np.max(np.abs(A[:, 1:])) < 1e-12
        assert np.max(np.abs(B[:, 1:])) < 1e-12
        C = eval_stem_many(StarSeries("sin", f), zs)
        A, B = C.real, C.imag
        assert np.allclose(A[:, 1] + 1j * B[:, 1], np.sinh(q_vals), atol=1e-12)
        assert np.max(np.abs(A[:, [0, 2, 3]])) < 1e-12


class TestRealPower:
    def test_square_root_squares_back(self):
        f = IntPow(Q, 2) * const(I_UNIT) + const(0.4)
        g = exp_star(f)
        root = real_power(g, 0.5, log_of_g=f)
        zs = sample_points()
        assert stems_close(star_mul(root, root), g, zs, 1e-11)

    def test_integer_power_matches_star_square(self):
        f = Q * const(K_UNIT)
        g = exp_star(f)
        sq = real_power(g, 2.0, log_of_g=f)
        assert stems_close(sq, star_mul(g, g), sample_points(), 1e-11)


def closed_form(f):
    """exp(f0) (mu(fv^s) + nu(fv^s) fv), the closed-form tree of any f."""
    fv = VectPart(f)
    structure = Add(ScalarApply("mu", Symm(fv)), StarMul(ScalarApply("nu", Symm(fv)), fv))
    return StarMul(ScalarApply("exp", Component(f, 0)), structure)


class TestSlicePreservingExp:
    """exp_* of a slice-preserving f is the slicewise exp: fv is exactly zero,
    so the closed form's mu and nu terms are 1 and 0 and change no value."""

    def assert_slicewise(self, f, zs):
        tree = exp_star(f)
        assert tree == ScalarApply("exp", f)
        # array_equal also holds where the two differ in the sign of a zero
        assert np.array_equal(eval_stem_many(tree, zs), eval_stem_many(closed_form(f), zs))

    def test_exp_shapes(self, wl):
        rng = random.Random(1)
        zs = wl.grid("product", 24, rects=[wl.PRODUCT_RECT]).node_z
        sources = [wl.exp_source(rng, shape) for shape in range(len(wl.EXP_SHAPES))]
        fs = [f for f in map(parse_expr, sources) if f.slice_preserving]
        assert len(fs) == 2  # a*q and a*q^2 + b
        for f in fs:
            self.assert_slicewise(f, zs)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_real_polynomials(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-2.0, 2.0, rng.integers(1, 6))
        f = const(float(coeffs[0]))
        for k, c in enumerate(coeffs[1:], 1):
            f = f + IntPow(Q, k) * const(float(c))
        zs = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
        self.assert_slicewise(f, zs)


class TestSlicePreservingNodes:
    @pytest.mark.parametrize("f", CORPUS + [PSI], ids=range(len(CORPUS) + 1))
    def test_vector_columns_are_exact_zeros(self, f, sp_vectors_vanish):
        trees = [
            exp_star(f),
            StarSeries("exp", f),
            cos_star(f),
            sin_star(f),
            real_power(exp_star(f), 0.5, log_of_g=f),
        ]
        zs = sample_points()
        assert sum(sp_vectors_vanish(tree, zs) for tree in trees) >= 5


class TestSeriesInputs:
    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflow_raises_without_a_warning(self, kind, scale):
        # the squared norm of a term overflows: no stop test may accept it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence):
                eval_stem_many(StarSeries(kind, const(scale) * Q), [0.3 + 0.2j])

    def test_point_series_overflow_raises(self):
        with pytest.raises(NoConvergence):
            exp_star_series(const(1e160) * Q, Quaternion(0.3, 0.2, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [2.5, 0, -3, "10"])
    def test_max_terms_must_be_a_positive_integer(self, bad):
        with pytest.raises(ExprError):
            exp_star_series(Q, Quaternion(0.3, 0.2, 0.0, 0.0), max_terms=bad)

    @pytest.mark.parametrize(
        "q",
        [
            Quaternion(math.inf, 0.0, 0.0, 0.0),
            Quaternion(1.0, math.inf, 0.0, 0.0),
            Quaternion(0.5, 0.2, math.nan, 0.0),
        ],
        ids=["inf-w", "inf-x", "nan"],
    )
    def test_non_finite_point_raises(self, q):
        with pytest.raises(DomainError):
            exp_star_series(Q * const(I_UNIT), q)
