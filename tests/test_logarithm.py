"""Star logarithms across the four construction routes."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from starlog import expr as expr_module
from starlog import logarithm
from starlog.domain import BasicDomainSpec
from starlog.errors import (
    BranchPointHit,
    ConditionFailed,
    DomainError,
    LiftStep,
    NoGlobalLogWitness,
    StarlogError,
    Vanishing,
)
from starlog.expr import Q, UNIT, ScalarApply, const, eval_many, stem_complex
from starlog.logarithm import BranchSpec, check_conditions, log_star
from starlog.parse import parse_expr
from starlog.quaternion import VERIFY_UNITS, Quaternion
from starlog.starexp import exp_star

CI = const(Quaternion(0.0, 1.0, 0.0, 0.0))
CJ = const(Quaternion(0.0, 0.0, 1.0, 0.0))
CK = const(Quaternion(0.0, 0.0, 0.0, 1.0))
PSI = UNIT * CI + CJ  # nilpotent: PSI^s = 0 but PSI != 0


@pytest.fixture(scope="module")
def slice_rect() -> BasicDomainSpec:
    return BasicDomainSpec(rects=[(-1.2, 1.2, 0.0, 1.0)], kind="slice")


@pytest.fixture(scope="module")
def product_rect() -> BasicDomainSpec:
    return BasicDomainSpec(rects=[(0.5, 1.5, 0.3, 1.0)], kind="product")


def isolated_example():
    """-1 + q^2 i + sqrt(2) q j + k: nonvanishing, vectorial part vanishing
    only at (-i - k)/sqrt(2) on the unit sphere."""
    w2 = const(Quaternion(0.0, 0.0, math.sqrt(2.0), 0.0))
    return const(-1.0) + (Q * Q) * CI + Q * w2 + CK


def assert_close(f, g, domain, tol):
    for unit in VERIFY_UNITS:
        a = eval_many(f, domain.node_z, unit)
        b = eval_many(g, domain.node_z, unit)
        assert np.abs(a - b).max() < tol


# ---------------------------------------------------------------------------
# scalar route


def test_scalar_slice_round_trip(slice_rect):
    res = log_star(Q * Q + const(2.0), slice_rect)
    assert res.case == "scalar"
    assert res.branch == BranchSpec(0, 0)
    assert res.residual <= 1e-10
    zs = slice_rect.node_z
    assert np.abs(stem_complex(res.f, zs) - np.log(zs * zs + 2.0)).max() < 1e-12


def test_scalar_negative_trace_rejected(slice_rect):
    with pytest.raises(ConditionFailed) as err:
        log_star(const(-1.0) * (Q * Q + const(2.0)), slice_rect)
    assert err.value.condition == "cond1"


def test_scalar_slice_branch_restrictions(slice_rect):
    g = Q * Q + const(2.0)
    with pytest.raises(ConditionFailed) as err:
        log_star(g, slice_rect, BranchSpec(1, 0))
    assert err.value.condition == "periods"
    with pytest.raises(ConditionFailed) as err:
        log_star(g, slice_rect, BranchSpec(0, 2))
    assert err.value.condition == "representative"


def test_scalar_product_branch_family(product_rect):
    zs = product_rect.node_z
    r0 = log_star(Q, product_rect)
    assert np.abs(stem_complex(r0.f, zs) - np.log(zs)).max() < 1e-12
    r2 = log_star(Q, product_rect, BranchSpec(2, 0))
    d2 = stem_complex(r2.f, zs) - stem_complex(r0.f, zs)
    assert np.abs(d2 - 2j * math.pi).max() < 1e-12
    r1 = log_star(Q, product_rect, BranchSpec(1, 0))
    assert r1.residual <= 1e-10
    d1 = stem_complex(r1.f, zs) - stem_complex(r0.f, zs)
    assert np.abs(np.exp(d1) - 1.0).max() < 1e-12


def test_vanishing_input_rejected(slice_rect):
    with pytest.raises(Vanishing):
        log_star(Q, slice_rect)  # 0 is a grid node


# g overflows at some nodes, or g stays finite while g^s and |g| overflow; the
# last input used to pass as verified with residual 0
OVERFLOWING = ["exp(800*q)", "1e300*q*i + 1e300", "exp(q)*1e300"]


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("source", OVERFLOWING, ids=["exp", "sym", "scaled-exp"])
def test_non_finite_g_is_a_domain_error(source):
    dom = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1.0 / 16.0)
    with pytest.raises(DomainError, match="not finite at"):
        log_star(parse_expr(source), dom)
    with pytest.raises(DomainError, match="not finite at"):
        check_conditions(parse_expr(source), dom)


# ---------------------------------------------------------------------------
# null-vector route


def test_null_vector_closed_form(product_rect):
    res = log_star(Q + PSI, product_rect)
    assert res.case == "null-vector"
    assert res.residual <= 1e-10
    manual = ScalarApply("log", Q) + PSI * ScalarApply("recip", Q)
    assert_close(res.f, manual, product_rect, 1e-11)


def test_null_vector_branches_and_rejections(product_rect):
    r1 = log_star(Q + PSI, product_rect, BranchSpec(1, 0))
    assert r1.residual <= 1e-10
    with pytest.raises(ConditionFailed) as err:
        log_star(Q + PSI, product_rect, BranchSpec(0, 1))
    assert err.value.condition == "periods"
    with pytest.raises(ConditionFailed) as err:
        log_star(Q + PSI, product_rect, rep=CI)
    assert err.value.condition == "representative"


def test_null_vector_needs_symmetrization(product_rect):
    with pytest.raises(Vanishing):
        log_star(PSI, product_rect)  # PSI^s = 0 identically


# ---------------------------------------------------------------------------
# angle route


def test_angle_product_constant_unit(product_rect):
    g = (Q * Q + const(2.0)) * CJ
    res = log_star(g, product_rect)
    assert res.case == "angle"
    assert res.residual <= 1e-10
    manual = ScalarApply("log", Q * Q + const(2.0)) + const(math.pi / 2.0) * CJ
    assert_close(res.f, manual, product_rect, 1e-10)
    r2 = log_star(g, product_rect, BranchSpec(0, 2))
    assert_close(r2.f, manual + const(2.0 * math.pi) * CJ, product_rect, 1e-10)


def test_angle_slice_constant_unit(slice_rect):
    g = (Q * Q + const(2.0)) * CJ
    res = log_star(g, slice_rect)
    assert res.case == "angle"
    assert res.residual <= 1e-10
    manual = ScalarApply("log", Q * Q + const(2.0)) + const(math.pi / 2.0) * CJ
    assert_close(res.f, manual, slice_rect, 1e-10)


def test_angle_parity_rejections(slice_rect, product_rect):
    g = (Q * Q + const(2.0)) * CJ
    with pytest.raises(ConditionFailed) as err:
        log_star(g, slice_rect, BranchSpec(0, 1))
    assert err.value.condition == "parity"
    with pytest.raises(ConditionFailed) as err:
        log_star(g, product_rect, BranchSpec(1, 0))
    assert err.value.condition == "parity"


def test_angle_slice_with_factored_zero():
    dom = BasicDomainSpec(rects=[(-1.05, 1.05, 0.0, 0.9)], kind="slice")
    g = const(2.0) + (Q * Q) * CI
    res = log_star(g, dom)
    assert res.case == "angle"
    assert res.diagnostics["factor_degree"] == 2
    assert res.diagnostics["lift_validity"] <= 1e-10
    assert res.residual <= 1e-9
    # scalar part is half the lifted logarithm of g^s = 4 + z^4
    reals = dom.real_nodes
    vals = stem_complex(logarithm.scalar_part(res.f), dom.node_z[reals])
    xs = dom.node_z[reals].real
    assert np.abs(vals - 0.5 * np.log(4.0 + xs**4)).max() < 1e-11


def test_angle_wrong_representative_rejected(product_rect):
    g = (Q * Q + const(2.0)) * CJ
    with pytest.raises(ConditionFailed) as err:
        log_star(g, product_rect, rep=CI)
    assert err.value.condition == "representative"


def test_negative_trace_rescued_by_representative(slice_rect):
    g = const(-1.0) * (Q * Q + const(2.0))
    res = log_star(g, slice_rect, rep=CI)
    assert res.case == "angle"
    assert res.residual <= 1e-10
    manual = ScalarApply("log", Q * Q + const(2.0)) + const(math.pi) * CI
    assert_close(res.f, manual, slice_rect, 1e-10)


# ---------------------------------------------------------------------------
# constants


def test_constant_phase_slice(slice_rect):
    alpha = Quaternion(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0), 0.0, 0.0)
    res = log_star(const(alpha), slice_rect)
    assert res.case == "angle"
    assert_close(res.f, const(math.pi / 3.0) * CI, slice_rect, 1e-12)
    r2 = log_star(const(alpha), slice_rect, BranchSpec(0, 2))
    assert_close(r2.f, const(math.pi / 3.0 + 2.0 * math.pi) * CI, slice_rect, 1e-12)
    with pytest.raises(ConditionFailed) as err:
        log_star(const(alpha), slice_rect, BranchSpec(0, 1))
    assert err.value.condition == "parity"


def test_constant_one_branches(slice_rect):
    r0 = log_star(const(1.0), slice_rect)
    assert r0.case == "scalar"
    assert_close(r0.f, const(0.0), slice_rect, 1e-14)
    r2 = log_star(const(1.0), slice_rect, BranchSpec(0, 2), rep=CI)
    assert r2.case == "angle"
    assert_close(r2.f, const(2.0 * math.pi) * CI, slice_rect, 1e-12)


def test_constant_minus_one_branches(slice_rect, product_rect):
    with pytest.raises(ConditionFailed) as err:
        log_star(const(-1.0), slice_rect)
    assert err.value.condition == "cond1"
    r = log_star(const(-1.0), slice_rect, rep=CI)
    assert_close(r.f, const(math.pi) * CI, slice_rect, 1e-12)
    rp = log_star(const(-1.0), product_rect, BranchSpec(1, 0))
    assert rp.case == "scalar"
    assert_close(rp.f, const(math.pi) * UNIT, product_rect, 1e-12)
    rm = log_star(const(-1.0), product_rect, BranchSpec(1, 1), rep=CI)
    assert_close(
        rm.f, const(math.pi) * UNIT + const(2.0 * math.pi) * CI, product_rect, 1e-12
    )
    with pytest.raises(ConditionFailed) as err:
        log_star(const(-1.0), product_rect, BranchSpec(1, 2), rep=CI)
    assert err.value.condition == "parity"


# ---------------------------------------------------------------------------
# fold route


def test_isolated_zero_blocks_global_log():
    dom = BasicDomainSpec(discs=[(0.0, 0.0, 1.1)], kind="slice")
    with pytest.raises(BranchPointHit):
        log_star(isolated_example(), dom)


def test_isolated_zero_local_product_log():
    dom = BasicDomainSpec(discs=[(0.0, 1.0, 0.3)], kind="product", h=0.3 / 32.0)
    res = log_star(isolated_example(), dom)
    assert res.case == "fold"
    assert res.residual <= 1e-8
    assert res.diagnostics["sqrt_sign"] == -1.0
    assert abs(complex(*res.diagnostics["seed_fold"])) < 1e-10
    assert res.diagnostics["mu_defect"] < 1e-12
    assert res.diagnostics["slit_margin"] > 0.0


def test_fold_branch_family_and_rejections():
    dom = BasicDomainSpec(discs=[(0.0, 1.0, 0.3)], kind="product", h=0.3 / 32.0)
    g = isolated_example()
    r0 = log_star(g, dom)
    r2 = log_star(g, dom, BranchSpec(2, 0))
    assert r2.residual <= 1e-8
    d = stem_complex(logarithm.scalar_part(r2.f), dom.node_z) - stem_complex(
        logarithm.scalar_part(r0.f), dom.node_z
    )
    assert np.abs(d - 2j * math.pi).max() < 1e-12
    with pytest.raises(ConditionFailed) as err:
        log_star(g, dom, BranchSpec(0, 1))
    assert err.value.condition == "periods"
    with pytest.raises(ConditionFailed) as err:
        log_star(g, dom, rep=CI)
    assert err.value.condition == "representative"


@pytest.mark.xfail(
    strict=True,
    reason="g^s = 1 + (q^2 + 1)^2 vanishes at q = +-0.455 + 1.099i, 0.034 inside the disc "
    "rim and between grid nodes: the vanishing checks sample nodes only",
)
def test_zero_of_g_between_nodes_is_vanishing():
    dom = BasicDomainSpec(discs=[(0.0, 1.0, 0.5)], kind="product", h=1.0 / 64.0)
    z0 = np.sqrt(-1.0 + 1j)  # and -conj(z0), its mirror in the leaf
    assert abs(z0 - 1j) < 0.5 and abs(1.0 + (z0 ** 2 + 1.0) ** 2) < 1e-14
    with pytest.raises(Vanishing):
        log_star(isolated_example(), dom)


def outcome(g, domain) -> str:
    """The route of a verified logarithm, or the class of the error raised."""
    try:
        return log_star(g, domain).case
    except StarlogError as err:
        return type(err).__name__


@pytest.mark.parametrize("radius, want", [(0.5, None), (0.4, "fold")], ids=["ball", "no-zero"])
def test_outcome_does_not_depend_on_the_grid_step(radius, want):
    # on the radius-0.5 disc g^s vanishes between nodes (see the xfail above),
    # so only sameness is asserted there; the radius-0.4 disc leaves both zeros out
    disc = (0.0, 1.0, radius)
    outcomes = {
        outcome(isolated_example(), BasicDomainSpec(discs=[disc], kind="product", h=h))
        for h in (1 / 24, 1 / 32, 1 / 40, 1 / 48, 1 / 64, 1 / 96)
    }
    assert len(outcomes) == 1
    assert want is None or outcomes == {want}


def test_no_witness_when_continuation_stalls(monkeypatch):
    dom = BasicDomainSpec(discs=[(0.0, 1.0, 0.3)], kind="product", h=0.3 / 32.0)

    def stall(*args, **kwargs):
        raise LiftStep("stalled")

    monkeypatch.setattr(logarithm, "_slit_ok", lambda *a: (False, 0.0))
    monkeypatch.setattr(logarithm, "lift_mu", stall)
    with pytest.raises(NoGlobalLogWitness) as err:
        log_star(isolated_example(), dom)
    assert err.value.condition == "counterex"


# ---------------------------------------------------------------------------
# invariants and reporting


@pytest.fixture(scope="module")
def wl():
    """The benchmark's input families, from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("route", ["scalar", "angle", "null-vector", "fold"])
def test_log_star_evaluates_g_once_on_the_grid(route, wl, monkeypatch):
    # the benchmark families at small grids; bisection midpoints, contours
    # and off-node samples are other batches and are not counted
    rng = random.Random(3)
    if route == "scalar":
        g, dom = parse_expr(wl.scalar_source(rng)[0]), wl.grid("slice", 32, rects=[wl.SLICE_RECT])
    elif route == "angle":
        g, dom = exp_star(parse_expr(wl.angle_source(rng))), wl.grid("slice", 32, rects=[wl.SLICE_RECT])
    elif route == "null-vector":
        g, dom = parse_expr(wl.null_vector_source(rng)), wl.grid("product", 32, rects=[wl.PRODUCT_RECT])
    else:
        g, dom = parse_expr(wl.fold_source(rng)), wl.grid("product", 32, discs=[wl.BALL_DISC])
    evaluate = expr_module._eval
    computed = []

    def counting(node, z, cache):
        if node is g and z.size == dom.n_nodes and id(node) not in cache:
            computed.append(z.size)
        return evaluate(node, z, cache)

    monkeypatch.setattr(expr_module, "_eval", counting)
    assert log_star(g, dom).case == route
    assert len(computed) == 1


def test_branch_difference_is_a_period(product_rect):
    g = (Q * Q + const(2.0)) * CJ
    r0 = log_star(g, product_rect, BranchSpec(0, 0))
    r1 = log_star(g, product_rect, BranchSpec(1, 1))
    period = const(math.pi) * UNIT + const(math.pi) * CJ
    for unit in VERIFY_UNITS:
        a = eval_many(r1.f, product_rect.node_z, unit)
        b = eval_many(r0.f, product_rect.node_z, unit)
        p = eval_many(period, product_rect.node_z, unit)
        assert np.abs(a - b - p).max() < 1e-9


def test_exp_round_trip_off_nodes(slice_rect):
    # off-node values continue the lift one edge from a node, so they are exact
    res = log_star(Q * Q + const(2.0), slice_rect)
    E = exp_star(res.f)
    zs = np.array([0.31 + 0.43j, -0.57 + 0.23j, 0.11 + 0.77j])
    for unit in VERIFY_UNITS[:2]:
        a = eval_many(E, zs, unit)
        b = eval_many(Q * Q + const(2.0), zs, unit)
        assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()


def test_result_serializes(product_rect):
    res = log_star((Q * Q + const(2.0)) * CJ, product_rect)
    blob = json.dumps(res.to_json())
    data = json.loads(blob)
    assert data["case"] == "angle"
    assert data["branch"] == {"m": 0, "n": 0}
    assert data["residual"] <= 1e-8
    assert data["classification"]["kind"] == "no-zeros"


# ---------------------------------------------------------------------------
# condition checks


def test_check_conditions_slice(slice_rect):
    s = check_conditions(Q * Q + const(2.0), slice_rect)
    assert s.cond_positive_trace and s.cond_root_trace and s.cond_slit_avoided
    assert s.slit_margin == pytest.approx(2.0, abs=1e-9)
    neg = check_conditions(const(-1.0) * (Q * Q + const(2.0)), slice_rect)
    assert neg.cond_positive_trace is False
    assert neg.cond_slit_avoided is False
    json.dumps(s.to_json())


def test_check_conditions_product(product_rect):
    s = check_conditions(Q, product_rect)
    assert s.cond_positive_trace is None
    assert s.cond_root_trace is None
    assert s.cond_slit_avoided is True


def test_check_conditions_vanishing(slice_rect):
    with pytest.raises(Vanishing):
        check_conditions(Q, slice_rect)


def test_check_conditions_isolated_example():
    dom = BasicDomainSpec(discs=[(0.0, 0.0, 1.1)], kind="slice")
    s = check_conditions(isolated_example(), dom)
    assert s.cond_positive_trace is False
    assert s.cond_slit_avoided is False
