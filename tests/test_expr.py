import math

import numpy as np
import pytest

from starlog.algebra import (
    reg_conj,
    scalar_part,
    split_form,
    star_mul,
    symmetrization,
    vect_part,
)
from starlog.errors import (
    DomainError,
    ExprError,
    SlicePreservingRequired,
    UnitFnOnRealAxis,
)
from starlog.expr import (
    Component,
    Const,
    GridFieldExpr,
    IntPow,
    Q,
    QuotientBySP,
    ScalarApply,
    StarSeries,
    StemValue,
    UNIT,
    VectPart,
    as_expr,
    const,
    eval_many,
    eval_stem,
    eval_stem_many,
    evaluate,
    is_slice_preserving,
    shared_stem,
    stem_complex,
)
from starlog.quaternion import (
    I_UNIT,
    J_UNIT,
    K_UNIT,
    ONE,
    Quaternion,
    split,
)

RNG = np.random.default_rng(42)


def random_points(n, ymin=0.05):
    return RNG.uniform(-2, 2, n) + 1j * RNG.uniform(ymin, 2, n)


def random_quats(n):
    return [Quaternion(*RNG.uniform(-2, 2, 4)) for _ in range(n)]


def poly_star(a, b):
    """Coefficient convolution: star product of right-coefficient polynomials."""
    out = [Quaternion.coerce(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def poly_eval(coeffs, q: Quaternion) -> Quaternion:
    """sum q^n a_n by direct quaternion arithmetic."""
    total = Quaternion.coerce(0)
    power = ONE
    for c in coeffs:
        total = total + power * Quaternion.coerce(c)
        power = power * q
    return total


def poly_expr(coeffs):
    total = as_expr(coeffs[0])
    for n, c in enumerate(coeffs[1:], start=1):
        total = total + IntPow(Q, n) * const(c)
    return total


PSI = UNIT * const(I_UNIT) + const(J_UNIT)  # stem (j, i); value I i + j


class TestBasicNodes:
    def test_var_and_const(self):
        q = Quaternion(0.5, 1.0, -2.0, 0.25)
        assert evaluate(Q, q) == q
        assert evaluate(const(q), Quaternion(1, 1, 0, 0)) == q

    def test_unit_fn(self):
        v = evaluate(UNIT, Quaternion(2.0, 0.0, -3.0, 0.0))
        assert abs(v - (-J_UNIT)) < 1e-15  # split flips the unit upward
        with pytest.raises(UnitFnOnRealAxis):
            evaluate(UNIT, Quaternion(1.0, 0, 0, 0))

    def test_stem_value(self):
        stem = eval_stem(PSI, 0.3 + 0.7j)
        assert abs(stem.a - J_UNIT) < 1e-15
        assert abs(stem.b - I_UNIT) < 1e-15
        assert abs(stem.value(K_UNIT) - (J_UNIT + K_UNIT * I_UNIT)) < 1e-15

    def test_real_axis_rule(self):
        f = poly_expr([2.0, 0.0, 1.0])  # q^2 + 2, real coefficients
        assert abs(evaluate(f, 1.5) - Quaternion.coerce(4.25)) < 1e-14
        g = poly_expr([I_UNIT, 1.0])  # q + i has B = 0 on the axis
        assert abs(evaluate(g, 0.5) - Quaternion(0.5, 1, 0, 0)) < 1e-14
        with pytest.raises(DomainError):
            evaluate(PSI, 1.0)

    def test_intpow_validation(self):
        with pytest.raises(ExprError):
            IntPow(Q, -1)
        with pytest.raises(ExprError):
            Component(Q, 5)


class TestStarProduct:
    @pytest.mark.parametrize("seed", range(5))
    def test_against_convolution_oracle(self, seed):
        rng = np.random.default_rng(seed)
        deg_a, deg_b = rng.integers(1, 4), rng.integers(1, 4)
        a = [Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(deg_a + 1)]
        b = [Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(deg_b + 1)]
        product = star_mul(poly_expr(a), poly_expr(b))
        conv = poly_star(a, b)
        for q in random_quats(6):
            want = poly_eval(conv, q)
            got = evaluate(product, q)
            assert abs(got - want) <= 1e-12 * (1 + abs(want))

    def test_qmi_qmj(self):
        f = star_mul(Q - const(I_UNIT), Q - const(J_UNIT))
        # (q-i)*(q-j) = q^2 - q(i+j) + k by convolution
        expanded = poly_expr([K_UNIT, -(I_UNIT + J_UNIT), ONE])
        assert abs(evaluate(f, I_UNIT)) < 1e-14
        for q in random_quats(4):
            assert abs(evaluate(f, q) - evaluate(expanded, q)) < 1e-13

    def test_left_slice_preserving_factor_is_pointwise(self):
        f = poly_expr([1.0, 0.0, 2.0])  # slice preserving
        g = PSI + Q * const(K_UNIT)
        prod = star_mul(f, g)
        for z in random_points(5):
            for unit in (I_UNIT, split(Quaternion(0, 1, 2, 2))[2]):
                q = Quaternion.coerce(z.real) + unit * z.imag
                want = evaluate(f, q) * evaluate(g, q)
                got = evaluate(prod, q)
                assert abs(got - want) < 1e-13 * (1 + abs(want))

    def test_noncommutative(self):
        ci, cj = const(I_UNIT), const(J_UNIT)
        assert evaluate(star_mul(ci, cj), I_UNIT) == K_UNIT
        assert evaluate(star_mul(cj, ci), I_UNIT) == -K_UNIT


class TestReflection:
    def test_stem_symmetry(self):
        f = star_mul(Q - const(I_UNIT), PSI) + IntPow(Q, 3)
        zs = random_points(8)
        up = eval_stem_many(f, zs)
        dn = eval_stem_many(f, np.conj(zs))
        A_up, B_up = up.real, up.imag
        A_dn, B_dn = dn.real, dn.imag
        assert np.allclose(A_dn, A_up, atol=1e-14)
        assert np.allclose(B_dn, -B_up, atol=1e-14)

    def test_representation_recovers_stem(self):
        f = star_mul(Q - const(I_UNIT), Q - const(J_UNIT))
        z = 0.4 + 1.1j
        stem = eval_stem(f, z)
        for unit in (I_UNIT, J_UNIT, split(Quaternion(0, 2, -1, 1))[2]):
            q_up = Quaternion.coerce(z.real) + unit * z.imag
            q_dn = Quaternion.coerce(z.real) + unit * (-z.imag)
            v_up, v_dn = evaluate(f, q_up), evaluate(f, q_dn)
            a = (v_up + v_dn) / 2
            b = -unit * ((v_up - v_dn) / 2)
            assert abs(a - stem.a) < 1e-11
            assert abs(b - stem.b) < 1e-11


class TestSplitFormAndConj:
    def test_reg_conj_example(self):
        f = Q - const(I_UNIT)
        fc = reg_conj(f)
        for q in random_quats(3):
            assert abs(evaluate(fc, q) - evaluate(Q + const(I_UNIT), q)) < 1e-14

    def test_split_reconstruction(self):
        f = star_mul(Q - const(I_UNIT), PSI) + const(Quaternion(1, 0, 0, 2))
        parts = split_form(f)
        units = (None, I_UNIT, J_UNIT, K_UNIT)
        zs = random_points(6)
        A = eval_stem_many(f, zs).real
        for unit in (I_UNIT, split(Quaternion(0, 1, -2, 0.5))[2]):
            total = np.zeros_like(A)
            for comp, basis in zip(parts.components, units):
                vals = eval_many(comp, zs, unit)
                if basis is not None:
                    vals = np.stack(
                        [
                            (Quaternion.from_array(v) * basis).to_array()
                            for v in vals
                        ]
                    )
                total = total + vals
            direct = eval_many(f, zs, unit)
            assert np.allclose(total, direct, atol=1e-13)

    def test_scalar_vect_sum(self):
        f = star_mul(Q, PSI) + IntPow(Q, 2)
        g = scalar_part(f) + vect_part(f)
        zs = random_points(5)
        cf, cg = eval_stem_many(f, zs), eval_stem_many(g, zs)
        for a, b in ((cf.real, cg.real), (cf.imag, cg.imag)):
            assert np.allclose(a, b, atol=1e-14)

    def test_components_are_slice_preserving(self):
        f = star_mul(Q, PSI)
        for comp in split_form(f).components:
            assert comp.slice_preserving


class TestSymmetrization:
    def test_two_routes_agree(self):
        fs = [
            star_mul(Q - const(I_UNIT), Q - const(J_UNIT)),
            PSI,
            star_mul(Q, PSI) + const(Quaternion(0.5, 1, 0, 0)),
        ]
        zs = random_points(8)
        for f in fs:
            s1 = eval_stem_many(symmetrization(f), zs)
            s2 = eval_stem_many(star_mul(f, reg_conj(f)), zs)
            scale = 1 + max(np.abs(s1.real).max(), np.abs(s1.imag).max())
            assert np.allclose(s1.real, s2.real, atol=1e-11 * scale)
            assert np.allclose(s1.imag, s2.imag, atol=1e-11 * scale)

    def test_symm_is_slice_preserving_node(self):
        f = star_mul(Q, PSI)
        assert symmetrization(f).slice_preserving
        assert not star_mul(f, reg_conj(f)).slice_preserving  # structural, not numeric

    def test_psi_vect_sym_vanishes(self):
        zs = random_points(6)
        vals = stem_complex(symmetrization(vect_part(PSI)), zs)
        assert np.max(np.abs(vals)) < 1e-14

    def test_vect_sym_of_vectorial_square(self):
        # fv * fv = -fv^s for vectorial fv
        fv = vect_part(star_mul(Q, const(I_UNIT)) + const(J_UNIT))
        lhs = star_mul(fv, fv)
        rhs = symmetrization(fv)
        zs = random_points(5)
        c1, c2 = eval_stem_many(lhs, zs), eval_stem_many(rhs, zs)
        A1, B1, A2, B2 = c1.real, c1.imag, c2.real, c2.imag
        assert np.allclose(A1, -A2, atol=1e-13)
        assert np.allclose(B1, -B2, atol=1e-13)


class TestScalarApply:
    def test_requires_slice_preserving(self):
        with pytest.raises(SlicePreservingRequired):
            ScalarApply("exp", PSI)

    def test_exp_matches_series(self):
        f = poly_expr([0.3, -1.0, 0.5])
        closed = ScalarApply("exp", f)
        series = StarSeries("exp", f)
        zs = random_points(6)
        w1 = stem_complex(closed, zs)
        w2 = stem_complex(series, zs)
        assert np.max(np.abs(w1 - w2)) < 1e-12 * (1 + np.abs(w1).max())

    def test_unknown_function(self):
        with pytest.raises(ExprError):
            ScalarApply("tanh", Q)

    def test_cos_sin_slicewise(self):
        f = poly_expr([0.2, 1.0])
        c = ScalarApply("cos", f)
        s = ScalarApply("sin", f)
        zs = random_points(5)
        vals = stem_complex(f, zs)
        assert np.allclose(stem_complex(c, zs), np.cos(vals), atol=1e-14)
        assert np.allclose(stem_complex(s, zs), np.sin(vals), atol=1e-14)
        one = stem_complex(star_mul(c, c) + star_mul(s, s), zs)
        assert np.allclose(one, 1.0, atol=1e-13)


class TestSharedStem:
    def test_trees_holding_the_expression_reuse_its_stem(self):
        f = star_mul(Q, const(I_UNIT)) + star_mul(Q * Q, const(J_UNIT))
        tree = star_mul(symmetrization(vect_part(f)), f) + scalar_part(f)
        nodes = np.array([0.3 + 0.5j, -0.2 - 0.7j, 1.1 + 0.2j, 0.4 - 0.1j])
        want_f, want_tree = eval_stem_many(f, nodes), eval_stem_many(tree, nodes)
        with shared_stem(f, nodes) as C:
            # the stored stem is the one before the reflection, so points
            # below the axis come out right
            assert np.array_equal(C, want_f)
            assert np.array_equal(eval_stem_many(f, nodes), want_f)
            assert np.array_equal(eval_stem_many(tree, nodes), want_tree)
            assert np.array_equal(eval_stem_many(tree, nodes.copy()), want_tree)
        assert np.array_equal(eval_stem_many(tree, nodes), want_tree)

    def test_reuse_needs_the_same_node_array(self, monkeypatch):
        import starlog.expr as expr_module

        f = star_mul(Q, const(I_UNIT))
        nodes = np.array([0.3 + 0.5j, 0.4 - 0.1j])
        evaluate_node = expr_module._eval
        computed = []

        def counting(node, z, cache):
            if node is f and id(node) not in cache:
                computed.append(z.size)
            return evaluate_node(node, z, cache)

        monkeypatch.setattr(expr_module, "_eval", counting)
        with shared_stem(f, nodes):
            eval_stem_many(vect_part(f), nodes)
            eval_stem_many(vect_part(f), nodes.copy())
        eval_stem_many(vect_part(f), nodes)
        assert computed == [2, 2, 2]  # the block's own, the copy's, after the block


class TestQuotient:
    def test_exact_division(self):
        # (q^2+1) * Cj divided by z^2+1 is the constant j, including at the patch
        child = star_mul(poly_expr([1.0, 0.0, 1.0]), const(J_UNIT))
        quot = QuotientBySP(child, (1.0, 0.0, 1.0), (1j,), patch_radius=0.1)
        zs = np.concatenate(
            [random_points(5), np.array([0.02 + 1.01j, 1j + 0.03, 1.05j])]
        )
        C = eval_stem_many(quot, zs)
        A, B = C.real, C.imag
        want_A = np.repeat(J_UNIT.to_array()[None], len(zs), axis=0)
        assert np.allclose(A, want_A, atol=1e-11)
        assert np.allclose(B, 0.0, atol=1e-11)

    def test_real_zero_division(self):
        # (q - 1) * (q - i) / (z - 1) = q - i near and far from the real zero
        child = star_mul(Q - const(1.0), Q - const(I_UNIT))
        quot = QuotientBySP(child, (1.0, -1.0), (1.0 + 0j,), patch_radius=0.1)
        want = Q - const(I_UNIT)
        zs = np.array([1.02 + 0.01j, 1.0 + 0.05j, 0.5 + 0.5j, 1.08 + 0j])
        c1, c2 = eval_stem_many(quot, zs), eval_stem_many(want, zs)
        A1, B1, A2, B2 = c1.real, c1.imag, c2.real, c2.imag
        assert np.allclose(A1, A2, atol=1e-10)
        assert np.allclose(B1, B2, atol=1e-10)


class TestSlicePreservingFlag:
    def test_structural_rules(self):
        assert Q.slice_preserving
        assert UNIT.slice_preserving
        assert const(2.5).slice_preserving
        assert not const(I_UNIT).slice_preserving
        assert (Q * Q + 1).slice_preserving
        assert not PSI.slice_preserving
        assert symmetrization(vect_part(PSI)).slice_preserving

    def test_numeric_disagreement_logged(self, caplog):
        from starlog.domain import BasicDomainSpec

        d = BasicDomainSpec(rects=[(0.3, 1.0, 0.3, 0.8)], kind="product", h=0.05)
        f = star_mul(const(I_UNIT), const(I_UNIT))  # numerically -1, structurally not sp
        with caplog.at_level("WARNING"):
            assert is_slice_preserving(f, d) is False
        assert "disagrees" in caplog.text

    def test_operator_sugar(self):
        f = 2 * Q - Q**3 + I_UNIT
        q = Quaternion(0.5, 0.5, 0, 0)
        want = 2 * q - q * q * q + I_UNIT
        assert abs(evaluate(f, q) - want) < 1e-14
