import math
import random
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from starlog import expr as expr_module
from starlog.algebra import (
    reg_conj,
    scalar_part,
    split_form,
    star_mul,
    symmetrization,
    vect_part,
)
from starlog.branches import SCALAR_FUNCTIONS
from starlog.errors import (
    DomainError,
    ExprError,
    NoConvergence,
    SlicePreservingRequired,
    UnitFnOnRealAxis,
)
from starlog.expr import (
    MAX_SERIES_TERMS,
    SERIES_TOL,
    Add,
    Component,
    Const,
    GridFieldExpr,
    IntPow,
    Neg,
    NodeStem,
    Q,
    QuotientBySP,
    RegConj,
    ScalarApply,
    StarMul,
    StarSeries,
    StemValue,
    Symm,
    UNIT,
    UnitFn,
    VarQ,
    VectPart,
    as_expr,
    const,
    eval_many,
    eval_stem,
    eval_stem_many,
    evaluate,
    is_slice_preserving,
    node_stem,
    slice_range,
    slice_values,
    stem_complex,
)
from starlog.logarithm import log_star
from starlog.parse import parse_expr
from starlog.quaternion import (
    I_UNIT,
    J_UNIT,
    K_UNIT,
    ONE,
    Quaternion,
    qconj,
    qmul,
    qsym,
    VERIFY_UNITS,
    split,
)
from starlog.starexp import exp_star

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

    @pytest.mark.parametrize(
        "q",
        [
            Quaternion(math.inf, 0.0, 0.0, 0.0),
            Quaternion(1.0, math.inf, 0.0, 0.0),
            Quaternion(math.nan, 0.0, 0.0, 0.0),
            Quaternion(0.5, 0.2, math.nan, 0.0),
        ],
        ids=["inf-w", "inf-x", "nan-w", "nan-y"],
    )
    def test_non_finite_point(self, q):
        # an infinite vector part used to read as real and give f(1)
        with pytest.raises(DomainError):
            evaluate(parse_expr("q^2 + 1"), q)

    @pytest.mark.parametrize(
        "q",
        [Quaternion(1.0, 1e200, 1e200, 0.0), Quaternion(1e300, 1e300, 0.0, 0.0)],
        ids=["huge-vector", "huge-point"],
    )
    def test_overflowing_value(self, q):
        # the squared vector norm overflowed, so the first point read as real
        # and gave f(1) = 2; the second ended in an overflow warning
        with pytest.raises(DomainError):
            evaluate(parse_expr("q^2 + 1"), q)

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


class TestNodeStem:
    G = star_mul(Q, const(I_UNIT)) + star_mul(Q * Q, const(J_UNIT))

    @staticmethod
    def points(dom):
        """The nodes, a copy of them, their reflection, and points off the
        lattice, a third of them below the axis."""
        off = dom.node_z[::3] + (0.31 + 0.43j) * dom.h
        off[::3] = off[::3].conj()
        return [dom.node_z, dom.node_z.copy(), dom.node_z.conj(), off]

    def test_trees_holding_the_node_match_the_tree_of_g(self, wl):
        dom = wl.grid("product", 8, rects=[wl.PRODUCT_RECT])
        g = self.G
        pinned = node_stem(g, dom)
        assert np.array_equal(pinned.stem, eval_stem_many(g, dom.node_z))
        assert not pinned.stem.flags.writeable and pinned.slice_preserving == g.slice_preserving

        def mixed(f):
            return star_mul(symmetrization(vect_part(f)), f) + scalar_part(f)

        for build in (lambda f: f, vect_part, mixed):
            tree = build(pinned)
            for zs in self.points(dom):
                got = eval_stem_many(tree, zs)
                assert got.flags.writeable  # the kept stem is not handed out
                assert np.array_equal(got, eval_stem_many(build(g), zs))
                assert np.array_equal(got, recursive_stem(tree, zs))

    def test_a_run_at_the_nodes_reads_the_stem(self, wl, monkeypatch, computed_by):
        dom = wl.grid("product", 8, rects=[wl.PRODUCT_RECT])
        g = star_mul(VarQ(), const(I_UNIT))
        run, computed = expr_module._run, []

        def counting(program, z):
            if id(g) in computed_by(program):
                computed.append(z.size)
            return run(program, z)

        monkeypatch.setattr(expr_module, "_run", counting)
        pinned = node_stem(g, dom)
        assert computed == [dom.n_nodes]
        nodes, copy, reflected, off = self.points(dom)
        for zs in (nodes, copy, reflected, off):
            eval_stem_many(vect_part(pinned), zs)
        assert computed == [dom.n_nodes, off.size]  # one nested run of g, off the nodes

    def test_pins_do_not_stack(self, wl):
        dom = wl.grid("product", 8, rects=[wl.PRODUCT_RECT])
        other = wl.grid("product", 6, rects=[wl.PRODUCT_RECT])
        pinned = node_stem(self.G, dom)
        assert node_stem(pinned, dom) is pinned
        again = node_stem(pinned, other)
        assert again.g is pinned and again.domain is other
        assert np.array_equal(eval_stem_many(again, dom.node_z), pinned.stem)

    def test_the_stem_is_freed_with_the_last_tree_holding_it(self, wl):
        dom = wl.grid("product", 8, rects=[wl.PRODUCT_RECT])
        g = star_mul(Q, const(I_UNIT)) + Q
        pinned = node_stem(g, dom)
        trees = [symmetrization(vect_part(pinned)) + pinned, exp_star(pinned)]
        for tree in trees:
            for zs in self.points(dom):
                eval_stem_many(tree, zs)
        ref = weakref.ref(pinned.stem)
        del pinned, tree
        trees.pop()
        assert ref() is not None  # the first tree still holds it
        trees.pop()
        # g keeps its program, which never saw the stem
        assert ref() is None and expr_module._program(g).steps


class TestLayout:
    F = star_mul(Q, const(I_UNIT)) + star_mul(Q * Q, const(J_UNIT))

    @pytest.mark.parametrize(
        "tree",
        [Q * const(J_UNIT) * Q, StarSeries("exp", F), exp_star(F), symmetrization(F)],
        ids=["product", "series", "exp_star", "symm"],
    )
    def test_components_are_contiguous_columns(self, tree):
        zs = np.linspace(-1.0, 1.0, 40) + 0.5j
        C = eval_stem_many(tree, np.concatenate([zs, zs.conj()]))
        assert C.shape == (80, 4)
        assert all(C[:, l].flags.contiguous for l in range(4))

    def test_constant_tree_fills_every_point(self):
        C = eval_stem_many(const(2.0) * const(I_UNIT) + 1, np.linspace(-1.0, 1.0, 7) + 0.5j)
        assert C.shape == (7, 4) and C.flags.writeable
        assert np.array_equal(C, np.broadcast_to([1.0, 2.0, 0.0, 0.0], (7, 4)))


def random_stem(rng, rows, order, slice_preserving):
    C = rng.uniform(-2, 2, (rows, 4)) + 1j * rng.uniform(-2, 2, (rows, 4))
    if slice_preserving:
        C[:, 1:] = 0.0
    return np.asarray(C, order=order)


def intpow_reference(base, n):
    """Square-and-multiply on full Hamilton products, from the identity up."""
    acc = np.zeros((base.shape[0], 4), dtype=complex)
    acc[:, 0] = 1.0
    while n:
        if n & 1:
            acc = qmul(acc, base)
        n >>= 1
        if n:
            base = qmul(base, base)
    return acc


class TestSlicePreservingProduct:
    """A slice-preserving factor multiplies through its scalar column alone."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "sp", [(True, False), (False, True), (True, True)], ids=["left", "right", "both"]
    )
    @pytest.mark.parametrize(
        "rows", [(9, 9), (1, 9), (9, 1), (1, 1)], ids=["stems", "a-row", "b-row", "rows"]
    )
    def test_kernel_matches_the_hamilton_product(self, order, sp, rows):
        rng = np.random.default_rng(sum(rows) + 3 * sp[0] + 5 * sp[1])
        a = random_stem(rng, rows[0], order, sp[0])
        b = random_stem(rng, rows[1], order, sp[1])
        got = expr_module._KERNELS[sp](a, b)
        assert np.array_equal(got, qmul(a, b))
        assert all(got[:, l].flags.contiguous for l in range(4))

    def test_star_mul_nodes_match_the_hamilton_product(self):
        f = poly_expr([1.0, 0.5, 2.0])  # slice preserving
        g = PSI + Q * const(K_UNIT)
        zs = random_points(11)
        F, G = eval_stem_many(f, zs), eval_stem_many(g, zs)
        row = np.array([[2.5, 0.0, 0.0, 0.0]], dtype=complex)
        cases = [
            (StarMul(f, g), qmul(F, G)),
            (StarMul(g, f), qmul(G, F)),
            (StarMul(f, f), qmul(F, F)),
            (StarMul(const(2.5), g), qmul(row, G)),
            (StarMul(g, const(2.5)), qmul(G, row)),
        ]
        for tree, want in cases:
            assert np.array_equal(eval_stem_many(tree, zs), want)

    @pytest.mark.parametrize("n", range(6))
    def test_intpow_matches_the_hamilton_product(self, n):
        zs = random_points(11)
        for child in (poly_expr([1.0, 0.5, 2.0]), PSI + Q * const(K_UNIT)):
            want = intpow_reference(eval_stem_many(child, zs), n)
            assert np.array_equal(eval_stem_many(IntPow(child, n), zs), want)


def series_reference(kind, F, max_terms=200):
    """The star series as a four-column recursion: one Hamilton product per term."""
    norm = np.linalg.norm
    one = np.zeros(F.shape, dtype=complex)
    one[:, 0] = 1.0

    def negligible(term, total):
        return norm(term, axis=-1).max() <= SERIES_TOL * (1.0 + norm(total, axis=-1).max())

    if kind == "exp":
        total = term = one
        for m in range(1, max_terms):
            term = qmul(term, F) / m
            total = total + term
            if negligible(term, total):
                return total
        raise NoConvergence("exp star series did not converge")
    F2 = qmul(F, F)
    term = one if kind == "cos" else F
    total = term
    for m in range(1, max_terms):
        lo = 2 * m - 1 if kind == "cos" else 2 * m
        term = -qmul(term, F2) / (lo * (lo + 1))
        total = total + term
        if negligible(term, total):
            return total
    raise NoConvergence(f"{kind} star series did not converge")


SERIES_ARGS = [
    Q * const(I_UNIT) + Q * Q * const(J_UNIT),
    PSI,
    poly_expr([0.3, -1.0, 0.5]),
    const(Quaternion(0.2, 1.0, -0.5, 0.3)) * Q + const(K_UNIT),
    UNIT * const(Quaternion(0.0, 0.5, 0.5, 0.0)) + Q * const(Quaternion(0.1, 0.0, 0.7, -0.4)),
]


class TestSeriesKernel:
    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    @pytest.mark.parametrize("f", SERIES_ARGS, ids=range(len(SERIES_ARGS)))
    def test_agrees_with_the_four_column_recursion(self, kind, f):
        zs = RNG.uniform(-1.0, 1.0, 60) + 1j * RNG.uniform(0.05, 1.0, 60)
        got = eval_stem_many(StarSeries(kind, f), zs)
        want = series_reference(kind, eval_stem_many(f, zs))
        norm = np.linalg.norm
        assert (norm(got - want, axis=1) <= 4e-15 * norm(want, axis=1)).all()

    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    def test_series_makes_no_hamilton_product(self, kind, monkeypatch):
        f = SERIES_ARGS[0]
        F = eval_stem_many(f, random_points(20))
        calls = []

        def counting(a, b):
            calls.append(a.shape)
            return qmul(a, b)

        monkeypatch.setattr(expr_module, "qmul", counting)
        expr_module._star_series(kind, MAX_SERIES_TERMS, F)
        assert calls == []


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


def series_oracle(kind, max_terms, F):
    """The star-series loop that reads the partial-sum norm on every term,
    kept as it stood before that read was gated: every stem and raise of
    ``expr._star_series`` must match it bit for bit."""
    f0, fv = F[:, 0], F[:, 1:]
    one, zero = np.ones_like(f0), np.zeros_like(f0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        s = fv[:, 0] * fv[:, 0] + fv[:, 1] * fv[:, 1] + fv[:, 2] * fv[:, 2]
        w = _abs2(fv[:, 0]) + _abs2(fv[:, 1]) + _abs2(fv[:, 2])
        if kind == "exp":
            c, d, a, b = f0, 1.0, one, zero
        else:
            c, d = f0 * f0 - s, 2.0 * f0
            a, b = (one, zero) if kind == "cos" else (f0, one)
        ds, odd = d * s, kind == "sin"
        ta, tb = a.copy(), b.copy()
        for m in range(1, max_terms):
            r = 1.0 / (m if kind == "exp" else -(2 * m - 1 + odd) * (2 * m + odd))
            a, b = (a * c - b * ds) * r, (a * d + b * c) * r
            ta += a
            tb += b
            term = np.sqrt((_abs2(a) + _abs2(b) * w).max())
            total = np.sqrt((_abs2(ta) + _abs2(tb) * w).max())
            if not (np.isfinite(term) and np.isfinite(total)):
                raise NoConvergence(f"{kind} star series has a term that is not finite")
            if term <= SERIES_TOL * (1.0 + total):
                break
        else:
            raise NoConvergence(f"{kind} star series did not converge")
    out = np.empty(F.shape, complex, order="F")
    out[:, 0] = ta
    np.multiply(tb[:, None], fv, out=out[:, 1:])
    return out


# a generator of their own, so that the draws of the other tests stay put
_rng = np.random.default_rng(5)
SERIES_POINTS = _rng.uniform(-1.0, 1.0, 60) + 1j * _rng.uniform(0.05, 1.0, 60)


def series_outcome(series, kind, F, max_terms=MAX_SERIES_TERMS):
    """The stem's bytes and strides, or the NoConvergence message."""
    try:
        out = series(kind, max_terms, F)
    except NoConvergence as err:
        return str(err)
    return out.tobytes(), out.strides


class TestSeriesOracle:
    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    @pytest.mark.parametrize("scale", [1.0, 3.0, 30.0, 355.0])
    @pytest.mark.parametrize("f", SERIES_ARGS, ids=range(len(SERIES_ARGS)))
    def test_matches_the_oracle_bit_for_bit(self, kind, scale, f):
        F = eval_stem_many(const(scale) * f, SERIES_POINTS)
        want = series_outcome(series_oracle, kind, F)
        assert series_outcome(expr_module._star_series, kind, F) == want

    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
    def test_matches_the_oracle_near_overflow(self, kind, unit):
        # constant f0 in [-362, -350]: cos and sin of f0 = x*i sum positive
        # terms, so the partial sum's square overflows terms before any
        # term's does; the raise must come on the same term
        outcomes = set()
        for x in np.arange(-362.0, -349.9, 0.5):
            F = np.zeros((1, 4), complex, order="F")
            F[0, 0] = x * unit
            want = series_outcome(series_oracle, kind, F)
            assert series_outcome(expr_module._star_series, kind, F) == want, x
            outcomes.add(want if isinstance(want, str) else "converged")
        assert len(outcomes) >= (1 if kind == "exp" else 2)

    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    def test_matches_the_oracle_where_w_is_tiny(self, kind):
        # where w = |f_v|^2 is near 0, the term norms bound nothing of |tb|
        for eps in (0.0, 1e-300, 1e-160, 1e-8):
            for x in (-356.0, -200.0, -30.0):
                F = np.zeros((3, 4), complex, order="F")
                F[:, 0] = x * np.array([1j, 0.5j, 0.01])
                F[:, 1] = eps
                want = series_outcome(series_oracle, kind, F)
                assert series_outcome(expr_module._star_series, kind, F) == want, (eps, x)

    def test_partial_sum_norm_is_read_only_near_the_stop(self, monkeypatch):
        # the first call reads the partial sum of term 0; later reads pass
        # the same array, every other call a term
        F = eval_stem_many(SERIES_ARGS[0], SERIES_POINTS)
        norms, calls = expr_module._peak_norms, []

        def counting(a, *args):
            calls.append(a)
            return norms(a, *args)

        monkeypatch.setattr(expr_module, "_peak_norms", counting)
        expr_module._star_series("exp", MAX_SERIES_TERMS, F)
        reads = sum(a is calls[0] for a in calls)
        assert len(calls) - reads >= 10 and reads <= 3


class TestEmptyBatch:
    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    def test_series_at_no_points(self, kind):
        assert eval_stem_many(StarSeries(kind, Q * const(2.0)), []).shape == (0, 4)

    def test_constant_tree_at_no_points(self):
        assert eval_stem_many(const(2.0) * const(I_UNIT) + 1, []).shape == (0, 4)


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


# ---------------------------------------------------------------------------
# slice ranges


def normal_stem(n, rng):
    return np.asfortranarray(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))


def abs_on_slices(C, units):
    """|A + J B| for every row of C (columns) and every unit J (rows)."""
    J = np.zeros((len(units), 1, 4), dtype=complex)
    J[:, 0, 1:] = units
    return np.linalg.norm(C.real[None] + qmul(J, C.imag[None]).real, axis=-1)


def extremal_units(C):
    """The units J = -+v/|v|, v = vec(A conj(B)), where |A + J B| is least and
    greatest, row by row."""
    A, B = C.real, C.imag
    v = B[:, :1] * A[:, 1:] - A[:, :1] * B[:, 1:] - np.cross(A[:, 1:], B[:, 1:])
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestSliceRange:
    def test_bounds_are_reached_at_the_extremal_units(self):
        C = normal_stem(200, np.random.default_rng(1))
        lo, hi = slice_range(C)
        J = extremal_units(C)
        for k in range(C.shape[0]):
            least, most = abs_on_slices(C[k : k + 1], np.array([-J[k], J[k]]))[:, 0]
            assert lo[k] ** 2 == pytest.approx(least**2, rel=1e-14)
            assert hi[k] ** 2 == pytest.approx(most**2, rel=1e-14)

    def test_every_slice_falls_inside_the_bounds(self):
        rng = np.random.default_rng(2)
        C = normal_stem(40, rng)
        C[0] = C[0].real  # a slice-preserving row: one value on every slice
        units = rng.normal(size=(4000, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        mags = abs_on_slices(C, units)
        lo, hi = slice_range(C)
        assert (mags >= lo * (1.0 - 1e-14)).all()
        assert (mags <= hi * (1.0 + 1e-14)).all()
        # the three check units read a range inside the closed form
        three = np.stack([np.linalg.norm(slice_values(C, u), axis=1) for u in VERIFY_UNITS])
        assert (three.min(axis=0) >= lo * (1.0 - 1e-14)).all()
        assert (three.max(axis=0) <= hi * (1.0 + 1e-14)).all()

    def test_every_memory_layout_reads_the_same(self):
        C = normal_stem(50, np.random.default_rng(3))
        want = slice_range(C)
        for layout in (np.ascontiguousarray(C), np.asfortranarray(C), C[::-1][::-1]):
            got = slice_range(layout)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        row = np.array([[1.0, 0.5j, -0.25, 2.0 + 1.0j]])
        lo, hi = slice_range(row)
        assert lo.shape == hi.shape == (1,)
        wide = slice_range(np.repeat(row, 7, axis=0))
        assert np.array_equal(wide[0], np.repeat(lo, 7))
        assert np.array_equal(wide[1], np.repeat(hi, 7))

    def test_a_row_with_no_vector_product_has_one_magnitude(self):
        # vec(A conj(B)) = 0 where B is a real multiple of A, or where A and B
        # are both real (a slice-preserving row)
        A = np.array([[0.3, -1.2, 0.7, 2.0], [1.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        B = np.array([[0.6, -2.4, 1.4, 4.0], [-0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        lo, hi = slice_range(A + 1j * B)
        np.testing.assert_allclose(lo, hi, rtol=1e-15)
        size = np.hypot(np.linalg.norm(A, axis=1), np.linalg.norm(B, axis=1))
        np.testing.assert_allclose(hi, size, rtol=1e-15)
        assert lo[2] == hi[2] == 0.0  # the zero row, with no warning

    def test_a_row_too_large_to_square_reads_an_upper_bound_of_inf(self):
        lo, hi = slice_range(np.array([[1e200, 0.0, 1e200j, 0.0], [1.0, 0.0, 0.0, 0.0]]))
        assert hi[0] == np.inf and lo[0] == 0.0  # lo is a lower bound, hi not finite
        assert lo[1] == hi[1] == 1.0

    def test_a_nearly_vanishing_row_keeps_its_accuracy(self):
        # A = j + eps, B = k: g^s = eps^2 and hi = 1 + sqrt(1 + eps^2), so the
        # least |A + J B| is eps^2 / hi; s - 2|v| would lose it to rounding
        for eps in (1e-3, 1e-5, 1e-7):
            C = np.array([[eps, 0.0, 1.0, 1j]])
            lo, hi = slice_range(C)
            least = eps * eps / (1.0 + math.sqrt(1.0 + eps * eps))
            assert abs(lo[0] - least) <= 4 * np.finfo(float).eps
            assert hi[0] == pytest.approx(1.0 + math.sqrt(1.0 + eps * eps), rel=1e-15)


# ---------------------------------------------------------------------------
# compiled programs


def recursive_eval(expr, z, cache):
    """The recursive evaluator that compiled programs replaced, kept as their
    reference: every call walks the tree again and caches every node's stem
    until it returns."""
    key = id(expr)
    if key in cache:
        return cache[key]
    E = expr_module
    if isinstance(expr, Const):
        out = expr.value.to_array().astype(complex)[None, :]
    elif isinstance(expr, VarQ):
        out = E._scalar(z)
    elif isinstance(expr, UnitFn):
        if (z.imag == 0).any():
            raise UnitFnOnRealAxis("the unit function I has no value on the real axis")
        out = E._scalar(np.full(z.size, 1j))
    elif isinstance(expr, Add):
        out = recursive_eval(expr.left, z, cache) + recursive_eval(expr.right, z, cache)
    elif isinstance(expr, Neg):
        out = -recursive_eval(expr.child, z, cache)
    elif isinstance(expr, StarMul):
        kernel = E._KERNELS[expr.left.slice_preserving, expr.right.slice_preserving]
        out = kernel(recursive_eval(expr.left, z, cache), recursive_eval(expr.right, z, cache))
    elif isinstance(expr, IntPow):
        kernel = E._KERNELS[(expr.child.slice_preserving,) * 2]
        base, out, m = recursive_eval(expr.child, z, cache), None, expr.n
        while m:
            if m & 1:
                out = base if out is None else kernel(out, base)
            m >>= 1
            if m:
                base = kernel(base, base)
        if out is None:
            out = E._scalar(np.ones(z.size))
    elif isinstance(expr, RegConj):
        out = qconj(recursive_eval(expr.child, z, cache))
    elif isinstance(expr, Component):
        out = E._scalar(recursive_eval(expr.child, z, cache)[:, expr.index])
    elif isinstance(expr, VectPart):
        out = recursive_eval(expr.child, z, cache).copy(order="K")
        out[:, 0] = 0.0
    elif isinstance(expr, Symm):
        out = E._scalar(qsym(recursive_eval(expr.child, z, cache)))
    elif isinstance(expr, ScalarApply):
        w = SCALAR_FUNCTIONS[expr.fn](recursive_eval(expr.child, z, cache)[:, 0])
        out = E._scalar(np.asarray(w, dtype=complex))
    elif isinstance(expr, StarSeries):
        out = E._star_series(expr.kind, expr.max_terms, recursive_eval(expr.child, z, cache))
    elif isinstance(expr, GridFieldExpr):
        out = E._scalar(np.asarray(expr.fld.sample(z), dtype=complex))
    elif isinstance(expr, NodeStem):  # g itself, also at the nodes
        out = recursive_eval(expr.g, z, cache)
    else:  # QuotientBySP
        coeffs = np.asarray(expr.coeffs, dtype=float)
        dist = np.full(z.shape, np.inf)
        for r in expr.zeros:
            dist = np.minimum(dist, np.abs(z - r))
            if abs(complex(r).imag) > 1e-14:
                dist = np.minimum(dist, np.abs(z - np.conj(complex(r))))
        near = dist < expr.patch_radius
        denom = np.where(near, 1.0, np.polyval(coeffs, z))
        out = recursive_eval(expr.child, z, cache) / denom[:, None]
        if near.any():
            R = 2.0 * expr.patch_radius
            theta = 2.0 * np.pi * (np.arange(E.PATCH_POINTS) + 0.37) / E.PATCH_POINTS
            pts = (z[near, None] + R * np.exp(1j * theta)).ravel()
            ring = recursive_stem(expr.child, pts) / np.polyval(coeffs, pts)[:, None]
            out[near] = ring.reshape(-1, E.PATCH_POINTS, 4).mean(axis=1)
    cache[key] = out
    return out


def recursive_stem(expr, zs):
    """eval_stem_many by the recursive reference."""
    flat = np.asarray(zs, dtype=complex).ravel()
    zhat = flat.real + 1j * np.abs(flat.imag)
    lower = flat.imag < 0
    C = recursive_eval(expr, zhat, {})
    if C.shape[0] != flat.size:
        C = np.broadcast_to(C, (flat.size, 4)).copy(order="F")
    return np.where(lower[:, None], C.conj(), C) if lower.any() else C


def tree_nodes(tree):
    yield tree
    for kid in expr_module._children(tree):
        yield from tree_nodes(kid)


def steps(tree):
    return len(expr_module._program(tree).steps)


@pytest.fixture
def built(monkeypatch):
    """The nodes whose step functions ``_step`` builds, in order."""
    step, nodes = expr_module._step, []

    def recording(node, *ins):
        nodes.append(node)
        return step(node, *ins)

    monkeypatch.setattr(expr_module, "_step", recording)
    return nodes


def program_test_trees():
    """The trees of TestLayout, TestSlicePreservingProduct, TestSeriesKernel
    and TestQuotient, and star series of a constant argument."""
    f = poly_expr([1.0, 0.5, 2.0])
    g = PSI + Q * const(K_UNIT)
    F, two = TestLayout.F, const(2.5)
    quadratic = star_mul(poly_expr([1.0, 0.0, 1.0]), const(J_UNIT))
    linear = star_mul(Q - const(1.0), Q - const(I_UNIT))
    return (
        [Q * const(J_UNIT) * Q, StarSeries("exp", F), exp_star(F), symmetrization(F)]
        + [const(2.0) * const(I_UNIT) + 1]
        + [StarMul(f, g), StarMul(g, f), StarMul(f, f), StarMul(two, g), StarMul(g, two)]
        + [IntPow(child, n) for child in (f, g) for n in range(6)]
        + [StarSeries(kind, arg) for kind in ("exp", "cos", "sin") for arg in SERIES_ARGS]
        + [StarSeries(kind, const(J_UNIT)) for kind in ("exp", "cos", "sin")]
        + [
            QuotientBySP(quadratic, (1.0, 0.0, 1.0), (1j,), 0.1),
            QuotientBySP(linear, (1.0, -1.0), (1.0 + 0j,), 0.1),
            reg_conj(Q * const(I_UNIT) + const(2.0)),
        ]
    )


class TestProgram:
    """A tree is compiled once into a flat program with folded constants."""

    def test_matches_the_recursive_evaluator(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-1.0, 1.0, 50)
        zs = np.concatenate([zs, [1.02 + 0.01j, 1.05j, 0.02 + 1.01j]])  # quotient patches
        for tree in program_test_trees():
            want = recursive_stem(tree, zs)
            for _ in range(2):  # compiled by the first call, reused by the second
                got = eval_stem_many(tree, zs)
                assert got.shape == (zs.size, 4) and np.array_equal(got, want), tree

    @pytest.mark.parametrize("kind", ["exp", "cos", "sin"])
    def test_series_of_a_constant_fills_every_point(self, kind):
        tree = StarSeries(kind, const(J_UNIT))
        upper = np.array([0.3 + 0.5j, -0.7 + 0.2j, 1.1 + 0.9j])
        for zs in (upper, upper.conj(), np.array([0.3 + 0.5j, -0.7 - 0.2j]), upper[:1]):
            got = eval_stem_many(tree, zs)
            assert got.shape == (zs.size, 4) and got.flags.writeable
            assert np.array_equal(got, recursive_stem(tree, zs))

    def test_a_folded_row_is_not_handed_out(self):
        tree = const(2.0) * const(I_UNIT) + 1
        got = eval_stem_many(tree, [0.5 + 0.5j])
        got[0, 0] = 7.0
        assert eval_stem_many(tree, [0.5 + 0.5j])[0, 0] == 1.0

    def test_overflow_is_not_folded_away(self, wl):
        # compiled first where overflow is ignored, the tree must still meet
        # the overflow at every later evaluation, as a fresh tree does
        tree = ScalarApply("exp", const(800.0)) * Q
        with pytest.raises(DomainError):
            evaluate(tree, Quaternion(0.5, 0.5, 0.0, 0.0))
        node_stem(tree, wl.grid("product", 4, rects=[wl.PRODUCT_RECT]))
        for t in (tree, ScalarApply("exp", const(800.0)) * Q):
            for _ in range(2):
                with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                    eval_stem_many(t, [0.5 + 0.5j])

    @pytest.mark.parametrize("route", ["scalar", "angle", "null-vector", "fold", "exp"])
    def test_matches_the_recursive_evaluator_on_the_benchmark_families(self, route, wl):
        rng = random.Random(7)
        slice_dom = wl.grid("slice", 24, rects=[wl.SLICE_RECT])
        product_dom = wl.grid("product", 24, rects=[wl.PRODUCT_RECT])
        if route == "exp":
            fs = [parse_expr(wl.exp_source(rng, shape)) for shape in range(len(wl.EXP_SHAPES))]
            trees = [exp_star(f) for f in fs] + [StarSeries("exp", f) for f in fs]
            dom, g = product_dom, None
        else:
            if route == "scalar":
                g, dom = parse_expr(wl.scalar_source(rng)[0]), slice_dom
            elif route == "angle":
                g, dom = exp_star(parse_expr(wl.angle_source(rng))), slice_dom
            elif route == "null-vector":
                g, dom = parse_expr(wl.null_vector_source(rng)), product_dom
            else:
                g = parse_expr(wl.fold_source(rng))
                dom = wl.grid("product", 24, discs=[wl.BALL_DISC])
            res = log_star(g, dom)
            assert res.case == route
            trees = [g, symmetrization(vect_part(g)), res.f, exp_star(res.f)]
        zs = dom.node_z
        for tree in trees:
            assert np.array_equal(eval_stem_many(tree, zs), recursive_stem(tree, zs))
        if g is not None:  # g pinned to the nodes
            gvs = symmetrization(vect_part(node_stem(g, dom)))
            for points in (zs, zs.conj()):
                assert np.array_equal(eval_stem_many(gvs, points), recursive_stem(gvs, points))

    def test_a_kept_program_keeps_its_steps_in_a_tree_that_holds_it(self, wl):
        # the steps of g's program name the nodes they compute and read, so a
        # tree over g takes them over unchanged, after the steps of its own
        # nodes visited first
        g = parse_expr(wl.fold_source(random.Random(1)))
        kept = [step[:3] for step in expr_module._program(g).steps]
        tree = star_mul(VarQ(), const(I_UNIT)) + symmetrization(vect_part(g))
        taken = [step[:3] for step in expr_module._program(tree).steps]
        assert [step for step in taken if step in kept] == kept
        zs = np.array([0.3 + 0.5j, 1.1 + 0.2j, -0.4 - 0.7j])
        assert np.array_equal(eval_stem_many(tree, zs), recursive_stem(tree, zs))

    def test_fold_input_folds_its_constants(self, wl, built, computed_by):
        # c p (-1 + q^2 i + sqrt2 q j + k) conj(p): 52 nodes, 42 of them in
        # constant subtrees (the rotated vectors and the scale c)
        source = wl.fold_source(random.Random(1))
        fresh = parse_expr(source)
        assert steps(symmetrization(vect_part(fresh))) == 12  # g compiled inside it
        assert len(built) == 54
        g = parse_expr(source)
        assert steps(g) == 10
        # once g keeps its program, g_v^s takes over g's 10 steps and builds
        # Symm and VectPart only
        built.clear()
        gvs = expr_module._program(symmetrization(vect_part(g)))
        assert len(gvs.steps) == 12 and len(built) == 2
        assert set(computed_by(expr_module._program(g))) <= set(computed_by(gvs))
        assert steps(const(2.0) * const(I_UNIT) + 1) == 0

    @pytest.mark.parametrize("route", ["scalar", "angle", "null-vector", "fold"])
    def test_trees_over_a_compiled_g_run_its_program(self, route, wl, built, computed_by):
        rng = random.Random(9)
        if route == "scalar":
            g, dom = parse_expr(wl.scalar_source(rng)[0]), wl.grid("slice", 24, rects=[wl.SLICE_RECT])
        elif route == "angle":
            g = exp_star(parse_expr(wl.angle_source(rng)))
            dom = wl.grid("slice", 24, rects=[wl.SLICE_RECT])
        elif route == "null-vector":
            g = parse_expr(wl.null_vector_source(rng))
            dom = wl.grid("product", 24, rects=[wl.PRODUCT_RECT])
        else:
            g = parse_expr(wl.fold_source(rng))
            dom = wl.grid("product", 24, discs=[wl.BALL_DISC])
        zs = dom.node_z
        off = zs[::5] + (0.31 + 0.43j) * dom.h  # off the lattice, and some below the axis
        off[::3] = off[::3].conj()
        gv = vect_part(g)
        eval_stem_many(gv, off)  # compiled first: a program that computes g
        eval_stem_many(g, zs)  # g keeps its own program
        kept = {id(node) for node in tree_nodes(gv)}
        trees = [symmetrization(gv), scalar_part(g), symmetrization(g), exp_star(g) * gv]
        for tree in trees:
            built.clear()
            program = expr_module._program(tree)
            # only the nodes outside g and gv are built, each once; g's
            # steps are taken over and computed once
            own = {id(node) for node in tree_nodes(tree)} - kept
            assert sorted(map(id, built)) == sorted(own), tree
            computed = computed_by(program)
            assert set(computed_by(expr_module._program(g))) <= set(computed)
            assert len(computed) == len(set(computed))
            assert np.array_equal(eval_stem_many(tree, off), recursive_stem(tree, off))
            assert np.array_equal(eval_stem_many(tree, zs), recursive_stem(tree, zs))
        pinned = node_stem(g, dom)
        pinned_trees = [
            symmetrization(vect_part(pinned)),
            scalar_part(pinned),
            symmetrization(pinned),
            exp_star(pinned) * vect_part(pinned),
        ]
        for tree in pinned_trees:  # g from the node's stem, not from g's program
            program = expr_module._program(tree)
            assert id(pinned) in computed_by(program) and id(g) not in computed_by(program)
            for points in (zs, off):
                assert np.array_equal(eval_stem_many(tree, points), recursive_stem(tree, points))

    def test_runs_do_not_nest_however_many_subtrees_keep_programs(self, monkeypatch):
        exp, depths = SCALAR_FUNCTIONS["exp"], []

        def recording(w):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.append(depth)
            return exp(w)

        monkeypatch.setitem(SCALAR_FUNCTIONS, "exp", recording)
        zs, q = np.array([0.3 + 0.5j, -0.1 - 0.2j]), VarQ()  # a q that keeps no program
        tree = ScalarApply("exp", q * const(0.5))
        eval_stem_many(tree, zs)
        flat = max(depths)
        for k in range(2, 60):  # every prefix of the chain keeps a program
            tree = tree + ScalarApply("exp", q * const(0.5 / k))
            depths.clear()
            got = eval_stem_many(tree, zs)
            assert max(depths) == flat, k  # one _run, whose steps call exp
        assert np.array_equal(got, recursive_stem(tree, zs))

    def test_every_prefix_of_a_chain_compiles_each_node_once(self, built):
        q, tree, zs = VarQ(), None, np.array([0.3 + 0.5j, -0.2 - 0.7j])
        for k in range(1, 301):  # Q*c1 + Q*c2 + ..., with a q of its own
            term = q * const(1.0 / k)
            tree = term if tree is None else tree + term
            eval_stem_many(tree, zs)
        assert len(built) == len({id(node) for node in tree_nodes(tree)}) == 900
        assert np.array_equal(eval_stem_many(tree, zs), recursive_stem(tree, zs))

    def test_a_tree_holding_g_twice_runs_its_steps_once(self, monkeypatch):
        exp, calls = SCALAR_FUNCTIONS["exp"], []

        def counting(w):
            calls.append(w.size)
            return exp(w)

        monkeypatch.setitem(SCALAR_FUNCTIONS, "exp", counting)
        q = VarQ()  # keeps no program, so g's program is compiled whole
        g = ScalarApply("exp", q * const(0.5)) * const(I_UNIT) + q
        gv, zs = vect_part(g), np.array([0.3 + 0.5j, -0.1 - 0.2j])
        eval_stem_many(gv, zs)  # a program that computes g, compiled first
        eval_stem_many(g, zs)  # g keeps its own
        tree = gv + g
        calls.clear()
        got = eval_stem_many(tree, zs)
        assert calls == [2]
        assert np.array_equal(got, recursive_stem(tree, zs))

    def test_a_second_log_star_call_compiles_no_node_of_g(self, wl, monkeypatch):
        g = parse_expr(wl.fold_source(random.Random(1)))
        dom = wl.grid("product", 24, discs=[wl.BALL_DISC])
        first = log_star(g, dom)
        step, compiled = expr_module._step, []

        def recording(node, *ins):
            compiled.append(node)
            return step(node, *ins)

        monkeypatch.setattr(expr_module, "_step", recording)
        second = log_star(g, dom)
        assert (second.case, repr(second.residual)) == (first.case, repr(first.residual))
        # no step of g is built, so none of its 42 constant nodes is folded again
        g_nodes = {id(node) for node in tree_nodes(g)}
        assert compiled and not any(id(node) in g_nodes for node in compiled)

    def test_intermediates_are_freed_after_their_last_use(self):
        tree = Q * const(1.0)
        for k in range(2, 201):
            tree = tree + Q * const(float(k))
        zs = np.linspace(-1.0, 1.0, 3209) + 0.5j
        eval_stem_many(tree, zs[:1])  # compiled outside the measurement
        tracemalloc.start()
        try:
            C = eval_stem_many(tree, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a cache of every intermediate holds 400 stems
        assert peak < 8 * C.nbytes

    def test_compiling_keeps_equality_hash_and_repr(self, wl):
        source = wl.fold_source(random.Random(2))
        tree, twin = parse_expr(source), parse_expr(source)
        before = hash(tree), repr(tree)
        zs = random_points(9)
        eval_stem_many(tree, zs)
        pinned = node_stem(tree.right, wl.grid("product", 4, rects=[wl.PRODUCT_RECT]))
        eval_stem_many(tree.left + pinned, zs)
        assert expr_module._program(tree).steps  # compiled
        assert repr(pinned) == f"NodeStem(g={tree.right!r})"
        assert tree == twin and hash(tree) == hash(twin)
        assert (hash(tree), repr(tree)) == before == (hash(twin), repr(twin))
