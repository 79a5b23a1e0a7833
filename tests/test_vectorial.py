"""Zero location, classification and factoring of vectorial parts."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from starlog import expr as expr_module, vectorial
from starlog.algebra import symmetrization, vect_part
from starlog.domain import BasicDomainSpec
from starlog.errors import (
    BoundaryZero,
    ClassificationError,
    DomainError,
    SlicePreservingRequired,
    StarlogError,
    Vanishing,
)
from starlog.expr import Q, UNIT, Const, ScalarApply, const, eval_stem_many, node_stem, stem_complex
from starlog.parse import parse_expr
from starlog.quaternion import Quaternion
from starlog.vectorial import (
    SphereZero,
    classify_vectorial,
    factor_minimal,
    find_zeros_sp,
    linearly_dependent,
    normalize,
)

CI = const(Quaternion(0.0, 1.0, 0.0, 0.0))
CJ = const(Quaternion(0.0, 0.0, 1.0, 0.0))
CK = const(Quaternion(0.0, 0.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def slice_rect() -> BasicDomainSpec:
    return BasicDomainSpec(rects=[(-1.5, 1.5, 0.0, 1.2)], kind="slice")


@pytest.fixture(scope="module")
def product_rect() -> BasicDomainSpec:
    return BasicDomainSpec(rects=[(0.3, 1.7, 0.3, 1.3)], kind="product")


def example_isolated():
    """-1 + q^2 i + sqrt(2) q j + k, whose vectorial part vanishes only at
    (-i - k)/sqrt(2) on the unit sphere."""
    return const(-1.0) + (Q * Q) * CI + Q * const(Quaternion(0.0, 0.0, math.sqrt(2.0), 0.0)) + CK


# ---------------------------------------------------------------------------
# zero finding


def test_simple_spherical_zero(slice_rect):
    zeros = find_zeros_sp(Q * Q + const(1.0), slice_rect)
    assert len(zeros) == 1
    assert zeros[0].multiplicity == 1
    assert zeros[0].z == pytest.approx(1j, abs=1e-10)


def test_double_zero_counts_twice(slice_rect):
    p = Q * Q + const(1.0)
    zeros = find_zeros_sp(p * p, slice_rect)
    assert len(zeros) == 1
    assert zeros[0].multiplicity == 2
    assert zeros[0].z == pytest.approx(1j, abs=1e-9)


def test_real_zero_is_snapped(slice_rect):
    zeros = find_zeros_sp(Q - const(0.5), slice_rect)
    assert len(zeros) == 1
    assert zeros[0].z.imag == 0.0
    assert zeros[0].z.real == pytest.approx(0.5, abs=1e-11)


def test_mixed_zero_list(slice_rect):
    p = (Q - const(0.5)) * (Q - const(0.5)) * (Q * Q + const(1.0))
    zeros = sorted(find_zeros_sp(p, slice_rect), key=lambda s: s.z.real)
    assert [(round(z.z.real, 6), round(z.z.imag, 6), z.multiplicity) for z in zeros] == [
        (0.0, 1.0, 1),
        (0.5, 0.0, 2),
    ]


def test_zeros_come_in_depth_first_order(product_rect):
    # one simple zero in each quadrant of the domain's bounding box, listed
    # lower left, lower right, upper left, upper right; 0.7+0.8i sits on the
    # cut at ratio 0.5, so the box is cut at 0.53
    roots = [0.7 + 0.8j, 1.4 + 0.35j, 0.6 + 1.1j, 1.2 + 1.2j]
    p = const(1.0)
    for r in reversed(roots):
        p = p * (Q * Q - const(2.0 * r.real) * Q + const(abs(r) ** 2))
    zeros = find_zeros_sp(p, product_rect)
    assert [z.multiplicity for z in zeros] == [1, 1, 1, 1]
    ref = np.roots(np.poly(roots + [r.conjugate() for r in roots]).real)
    for sz, r in zip(zeros, roots):
        assert abs(sz.z - ref[np.argmin(np.abs(ref - r))]) <= 1e-10


def test_zero_finder_batches_its_stem_calls(monkeypatch):
    # the double zero at z = i sits at the centre of the disc, on a grid node
    dom = BasicDomainSpec(discs=[(0.0, 1.0, 0.5)], kind="product", h=1.0 / 64)
    calls = []

    def counted(expr, zs):
        calls.append(len(zs))
        return stem_complex(expr, zs)

    monkeypatch.setattr(vectorial, "stem_complex", counted)
    zeros = find_zeros_sp(symmetrization(vect_part(example_isolated())), dom)
    (zero,) = zeros
    assert zero.multiplicity == 2
    assert abs(zero.z - 1j) <= 1e-10
    # one call per cell and per Newton point made 335, the box subdivision 108,
    # the node pass with Newton polish 20 and with a moment circle 5
    assert len(calls) <= 8


def _with_zeros(roots):
    """A real-coefficient polynomial with simple zeros at ``roots`` and, off
    the axis, at their conjugates."""
    p = const(1.0)
    for r in roots:
        if r.imag == 0.0:
            p = p * (Q - const(r.real))
        else:
            p = p * (Q * Q - const(2.0 * r.real) * Q + const(abs(r) ** 2))
    return p


def _polar(rho):
    """The point at distance rho from the centre of the disc (0, 1, 0.5), off every node line."""
    return 1j + rho * np.exp(0.52j)


PRODUCT_64 = BasicDomainSpec(rects=[(0.25, 1.75, 0.25, 1.25)], kind="product", h=1 / 64)
PRODUCT_32 = BasicDomainSpec(rects=[(0.25, 1.75, 0.25, 1.25)], kind="product", h=1 / 32)
DISC_32 = BasicDomainSpec(discs=[(0.0, 1.0, 0.5)], kind="product", h=1 / 32)
SLICE_16 = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1 / 16)


@pytest.mark.parametrize(
    "domain, roots, n",
    [
        (PRODUCT_64, [1.013 + 0.731j], 1),
        (PRODUCT_64, [1.0 + 0.75j], 1),
        (DISC_32, [_polar(0.49)], 1),
        (DISC_32, [_polar(0.51)], 0),
        (PRODUCT_32, [1.01 + 0.71j, 1.0101 + 0.7101j], 2),
        (SLICE_16, [0.53 + 0j, -0.21 + 0j, 0.3 + 0.6j], 3),
    ],
    ids=[
        "between-nodes", "on-node", "rim-cell", "outside-disc", "two-in-one-cell", "slice-real-axis"
    ],
)
def test_node_pass_matches_the_box_search(domain, roots, n):
    # the name keeps the box search these cases were once compared with; the
    # known roots are the reference now
    zeros = find_zeros_sp(_with_zeros(roots), domain)
    assert [z.multiplicity for z in zeros] == [1] * n
    assert sorted(z.z.real for z in zeros) == pytest.approx(
        sorted(r.real for r in roots[:n]), abs=1e-10
    )
    assert all(min(abs(z.z - r) for r in roots) <= 1e-10 for z in zeros)


TWO_IN_ONE_CELL = [1.01 + 0.71j, 1.0101 + 0.7101j]


def test_two_zeros_in_one_cell_come_back_simple():
    # 1.4e-4 apart in one cell at h = 1/32: their central power sum is far
    # from 0, so one moment circle reads them as two simple zeros
    zeros = find_zeros_sp(_with_zeros(TWO_IN_ONE_CELL), PRODUCT_32)
    assert [z.multiplicity for z in zeros] == [1, 1]
    for r in TWO_IN_ONE_CELL:
        assert min(abs(z.z - r) for z in zeros) <= 1e-12


def test_moment_fallback_is_logged(monkeypatch, caplog):
    # a cap of one distinct zero per circle refines the cluster's lattice, one
    # level at a time, until each zero has a lattice minimum of |F| and a
    # circle of its own
    monkeypatch.setattr(vectorial, "_MOMENT_CAP", 1)
    with caplog.at_level(logging.DEBUG, logger="starlog.vectorial"):
        zeros = find_zeros_sp(_with_zeros(TWO_IN_ONE_CELL), PRODUCT_32)
    assert [z.multiplicity for z in zeros] == [1, 1]
    for r in TWO_IN_ONE_CELL:
        assert min(abs(z.z - r) for z in zeros) <= 1e-12
    events = [r.getMessage() for r in caplog.records if "guard, refining" in r.getMessage()]
    assert len(events) == 5
    assert all(e.startswith("cluster [") and "counting 2 fails its cap guard" in e for e in events)


PRODUCT_16 = BasicDomainSpec(rects=[(0.25, 1.75, 0.25, 1.25)], kind="product", h=1 / 16)


@pytest.mark.parametrize(
    "domain, pair",
    [(PRODUCT_16, (1.0001 + 0.7j, 1.0 + 0.7j)), (SLICE_16, (0.3001 + 0.4j, 0.3 + 0.4j))],
    ids=["product", "slice"],
)
def test_close_double_zeros_never_come_back_simple(domain, pair):
    # two double zeros 1e-4 apart: np.roots splits each double root of the
    # circle's polynomial by rounding, which must not read as four simple
    # zeros; a cluster that cannot be read is no zero on the boundary
    try:
        zeros = find_zeros_sp(_with_zeros([*pair, *pair]), domain)
    except StarlogError as err:
        assert not isinstance(err, BoundaryZero)
        return
    assert [z.multiplicity for z in zeros] == [2, 2]
    for r in pair:
        assert min(abs(z.z - r) for z in zeros) <= 1e-9


@pytest.mark.parametrize(
    "den", [Q - const(1.02), Q * Q - const(1.0) * Q + const(0.25 + 1.03**2)], ids=["axis", "pair"]
)
def test_pole_between_the_domain_and_the_box_contour_hides_no_zero(den):
    # poles at 1.02 or at 0.5 +- 1.03i lie outside the domain but inside the
    # search box, whose winding counts zeros less poles: at 0.5 +- 1.03i the
    # box counts 0; the poles' clusters are read off circles of their own
    p = (Q * Q + const(0.25)) * ScalarApply("recip", den)
    (zero,) = find_zeros_sp(p, SLICE_16)
    assert zero.multiplicity == 1
    assert abs(zero.z - 0.5j) <= 1e-12


def test_zero_and_pole_in_one_cluster_keep_the_zero():
    # the zero at 0.5 + 0.97i and the pole at 0.5 + 1.03i lie in touching
    # cells, so they form one cluster, which counts 0; the circle about its
    # lattice minimum of |F| misses the zero, its maximum lies on the lattice
    # edge, and only the cluster's first power sum, 0.97i - 1.03i, shows them
    den = Q * Q - const(1.0) * Q + const(0.25 + 1.03**2)
    (zero,) = find_zeros_sp(_with_zeros([0.5 + 0.97j]) * ScalarApply("recip", den), SLICE_16)
    assert zero.multiplicity == 1
    assert abs(zero.z - (0.5 + 0.97j)) <= 1e-12


@pytest.mark.parametrize("c", [2.05, 2.1])
def test_essential_singularity_past_the_domain_hides_no_zero(c):
    # exp(1 / (q - c)) has an essential singularity 0.05 or 0.1 past the edge
    # x = 2, inside the search box a cell past the grid: no circle can read the
    # cluster about it, so the box moves closer to the domain
    p = _with_zeros([0.5 + 0.5j]) * ScalarApply("exp", ScalarApply("recip", Q - const(c)))
    dom = BasicDomainSpec(rects=[(-1.0, 2.0, 0.0, 1.0)], kind="slice", h=1 / 8)
    (zero,) = find_zeros_sp(p, dom)
    assert zero.multiplicity == 1
    assert abs(zero.z - (0.5 + 0.5j)) <= 1e-12


@pytest.mark.parametrize(
    "source, rect, kind, z",
    [
        ("1 + log0(q)*i", (0.05, 2.0, 0.0, 1.0), "slice", 1.0),
        ("1 + (sqrt(q) - 1)*i", (0.05, 2.0, 0.0, 1.0), "slice", 1.0),
        ("1 + log0(q)*i + q*j", (-1.0, 2.0, 0.125, 1.0), "product", None),
        ("1 + (sqrt(q) - 1)*i + q*j", (-1.0, 2.0, 0.125, 1.0), "product", None),
    ],
    ids=["log-slice", "sqrt-slice", "log-product", "sqrt-product"],
)
def test_search_box_stays_where_the_function_is_defined(source, rect, kind, z):
    # log0 and sqrt are not defined on (-inf, 0]: a whole cell past the slice
    # rect's edge x = 0.05 the real axis is negative, so the box moves closer
    # to the domain instead of raising a domain error; a whole cell below the
    # product rect's edge y = h is the real axis, which its frame stays above
    dom = BasicDomainSpec(rects=[rect], kind=kind, h=1 / 8)
    sym = symmetrization(vect_part(parse_expr(source)))
    zeros = find_zeros_sp(sym, dom)
    if z is not None:  # log(q)^2 and (sqrt(q) - 1)^2: a double zero at 1
        assert [(s.z, s.multiplicity) for s in zeros] == [(pytest.approx(z, abs=1e-9), 2)]
        return
    # (log z)^2 + z^2 and (sqrt(z) - 1)^2 + z^2: one simple zero in the rect
    (zero,) = zeros
    assert zero.multiplicity == 1
    assert abs(stem_complex(sym, np.array([zero.z]))[0]) <= 1e-12


def _lattice_passes(monkeypatch) -> list:
    """One entry for each lattice pass of the zero search from now on."""
    lattice, passes = vectorial._lattice, []

    def counted(*args):
        passes.append(1)
        return lattice(*args)

    monkeypatch.setattr(vectorial, "_lattice", counted)
    return passes


@pytest.mark.parametrize("pinned", [False, True], ids=["tree", "node-stem"])
def test_a_count_of_zero_ends_the_search_when_f_has_no_pole_or_cut(pinned, monkeypatch):
    # the zeros 2.5 and -1 lie past the search box, which counts 0, and no
    # node of F is a quotient, a reciprocal, a log or a sqrt
    F = _with_zeros([2.5 + 0j, -1.0 + 0j])
    passes = _lattice_passes(monkeypatch)
    assert find_zeros_sp(node_stem(F, PRODUCT_16) if pinned else F, PRODUCT_16) == []
    assert passes == []


@pytest.mark.parametrize("pinned", [False, True], ids=["tree", "node-stem"])
@pytest.mark.parametrize("fn", ["log", "sqrt"])
def test_a_count_of_zero_keeps_the_lattice_pass_when_f_has_a_cut(fn, pinned, monkeypatch):
    # log z and sqrt z have no zero in the box, which counts 0, but their cut
    # could break the count where the contour crosses it: the pass still runs
    F = ScalarApply(fn, Q + const(0.5))
    passes = _lattice_passes(monkeypatch)
    assert find_zeros_sp(node_stem(F, PRODUCT_16) if pinned else F, PRODUCT_16) == []
    assert len(passes) == 1


def test_node_pass_keeps_the_boundary_band():
    # a zero BOUNDARY_MARGIN / 2 inside the rim is ambiguous
    p = _with_zeros([_polar(0.5 - 0.5 * vectorial.BOUNDARY_MARGIN)])
    with pytest.raises(BoundaryZero, match="of the domain boundary"):
        find_zeros_sp(p, DISC_32)


def test_cluster_on_the_box_contour_keeps_every_zero():
    # double zeros 0.0018 inside the edge x = 1: a box contour that close to
    # them can miss one of the pair between its samples; the search box
    # passes at least h from every zero of the domain
    dom = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1 / 128)
    simple, double = 0.17253540851416127 + 0.26760291711731843j, 0.998156864416248 + 0.0895374183j
    zeros = find_zeros_sp(_with_zeros([simple, double, double]), dom)
    assert [z.multiplicity for z in zeros] == [1, 2]
    assert max(abs(z.z - r) for z, r in zip(zeros, [simple, double])) <= 1e-8


@pytest.mark.parametrize("y", [1.24999, 1.24995, 1.249999])
def test_double_zero_near_a_rect_edge_is_never_halved(y):
    # a double zero 1e-6 to 5e-5 inside the top edge: a box contour that close
    # to it can read it as one zero; the search box passes at least h from it
    double = 1.013 + 1j * y
    zeros = find_zeros_sp(_with_zeros([0.7 + 0.6j, double, double]), PRODUCT_32)
    assert sorted((z.multiplicity, z.z.real) for z in zeros) == pytest.approx(
        [(1, 0.7), (2, double.real)], abs=1e-9
    )


def test_double_zero_of_a_rotated_fold_input_is_exact():
    # a rotated, scaled copy of example_isolated(): Newton steps at the double
    # zero z = i wandered in rounding noise to 2e-6 from it; its moment circle
    # is centred on the node z = i and reads it to rounding
    g = parse_expr(
        "1.3202023303049497*(-1 + q^2*(0.9014148099256483*i - 0.14620083886720656*j"
        " + 0.4075250362385513*k) + 1.4142135623730951*q*(- 0.4058813211662008*i"
        " + 0.04228043673700388*j + 0.9129472699984963*k) + (- 0.15070399322873554*i"
        " - 0.9883509899746411*j - 0.02122797779016894*k))"
    )
    dom = BasicDomainSpec(discs=[(0.0, 1.0, 0.5)], kind="product", h=1.0 / 64)
    (zero,) = find_zeros_sp(symmetrization(vect_part(g)), dom)
    assert zero.multiplicity == 2
    assert abs(zero.z - 1j) <= 1e-12


def test_no_zeros_inside(slice_rect):
    assert find_zeros_sp(Q * Q + const(4.0), slice_rect) == []


def test_product_domain_zero(product_rect):
    p = Q * Q - const(2.0) * Q + const(2.0)  # roots 1 +- i
    zeros = find_zeros_sp(p, product_rect)
    assert len(zeros) == 1
    assert zeros[0].z == pytest.approx(1.0 + 1j, abs=1e-10)


def test_zero_function_is_rejected(slice_rect):
    with pytest.raises(Vanishing):
        find_zeros_sp(const(0.0), slice_rect)


def test_non_sp_input_is_rejected(slice_rect):
    with pytest.raises(SlicePreservingRequired):
        find_zeros_sp(Q * CI, slice_rect)


def test_zero_on_domain_boundary_is_ambiguous():
    dom = BasicDomainSpec(rects=[(-1.5, 1.5, 0.0, 1.0)], kind="slice")
    with pytest.raises(BoundaryZero):
        find_zeros_sp(Q * Q + const(1.0), dom)


# the zero-set property: real-coefficient polynomials with known zeros, some
# double, on rects and discs of both kinds at coarse grid steps
ZERO_SET_DOMAINS = {
    (kind, shape, divisions): BasicDomainSpec(**spec, kind=kind, h=1.0 / divisions)
    for kind, shape, spec in [
        ("slice", "rect", {"rects": [(-1.0, 1.0, 0.0, 1.0)]}),
        ("slice", "disc", {"discs": [(0.0, 0.0, 1.0)]}),
        ("product", "rect", {"rects": [(0.25, 1.75, 0.25, 1.25)]}),
        ("product", "disc", {"discs": [(0.0, 1.0, 0.5)]}),
    ]
    for divisions in (8, 16)
}


def _near_edge(draw, dom) -> complex:
    """A point at a drawn signed distance from the domain's edge, inside
    where the distance is positive."""
    d = draw(st.sampled_from([1e-6, 1e-4, -1e-4, 1e-2]))
    t = draw(st.floats(0.0, 1.0))
    if dom.discs:
        (disc,) = dom.discs
        phi = (math.pi if dom.kind == "slice" else 2.0 * math.pi) * t
        return complex(disc.cx, disc.cy) + (disc.r - d) * complex(math.cos(phi), math.sin(phi))
    (rect,) = dom.rects
    x, y = rect.x0 + t * (rect.x1 - rect.x0), rect.y0 + t * (rect.y1 - rect.y0)
    sides = [complex(x, rect.y1 - d), complex(rect.x0 + d, y), complex(rect.x1 - d, y)]
    if dom.kind == "product":
        sides.append(complex(x, rect.y0 + d))
    return draw(st.sampled_from(sides))


@st.composite
def _zero_sets(draw):
    """A domain key and (zero, multiplicity) pairs: zeros on the upper leaf
    within 0.25 of the domain, half of them near its edge, 1e-4 apart from
    each other and from their conjugates at least."""
    key = draw(st.sampled_from(sorted(ZERO_SET_DOMAINS)))
    dom = ZERO_SET_DOMAINS[key]
    roots = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            z = _near_edge(draw, dom)
        elif dom.kind == "slice" and draw(st.booleans()):
            z = complex(draw(st.floats(dom.xmin - 0.25, dom.xmax + 0.25)), 0.0)
        else:
            z = complex(
                draw(st.floats(dom.xmin - 0.25, dom.xmax + 0.25)),
                draw(st.floats(max(dom.ymin - 0.25, 0.05), dom.ymax + 0.25)),
            )
        assume(z.imag >= 0.0)
        roots.append((z, draw(st.sampled_from([1, 1, 2]))))
    pts = [r for r, _ in roots] + [r.conjugate() for r, _ in roots if r.imag > 0.0]
    assume(all(abs(a - b) >= 1e-4 for i, a in enumerate(pts) for b in pts[:i]))
    return key, roots


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_zero_sets())
def test_zero_set_is_found_or_refused(case):
    key, roots = case
    dom = ZERO_SET_DOMAINS[key]
    margin = vectorial.BOUNDARY_MARGIN
    dists = [float(dom.boundary_dist(r)) for r, _ in roots]
    # a zero this near the edge of the band may land on either side of it
    assume(not any(0.5 * margin <= abs(d) <= 2.0 * margin for d in dists))
    p = const(1.0)
    for r, m in roots:
        for _ in range(m):
            p = p * _with_zeros([r])
    try:
        zeros = find_zeros_sp(p, dom)
    except StarlogError:
        return
    assert all(abs(d) > margin for d in dists), "a zero in the boundary band came back"
    want = [(r, m) for (r, m), d in zip(roots, dists) if d > margin]
    assert len(zeros) == len(want)
    for r, m in want:
        assert sum(abs(z.z - r) <= 1e-9 and z.multiplicity == m for z in zeros) == 1


def test_double_zero_at_a_box_corner_is_not_dropped():
    # a shrunk draw of the zero-set property: a double zero 1.2e-7 and 1e-6
    # inside the corner (-1, 1); a box contour that passes it much closer than
    # its samples lie apart misses its turn, counts 5 zeros, not 9, and the
    # search returns the other three without it
    corner = -0.9999998807907104 + 0.999999j
    roots = [0.25 + 0.3474419710778104j, 0.3474419710778104 + 0.647783705947183j]
    roots.append(0.20799346327452595)
    dom = ZERO_SET_DOMAINS["slice", "rect", 8]
    zeros = find_zeros_sp(_with_zeros(roots + [corner, corner]), dom)
    assert sorted(z.multiplicity for z in zeros) == [1, 1, 1, 2]
    for r in roots + [corner]:
        assert min(abs(z.z - r) for z in zeros) <= 1e-9


def test_two_close_double_zeros_at_the_rim_come_apart():
    # a shrunk draw of the zero-set property: double zeros 1e-4 outside and
    # 1e-6 inside the rim point 0.5 + i of the disc, 1.0001e-4 apart.  A
    # lattice corner there counts as a zero only below 1e-9 of the largest
    # |F| on its own lattice, so the cluster shrinks as its lattice refines
    # until each zero has a minimum of its own; when every corner under
    # 1e-12 of the node scale counted, the cluster filled its refined
    # lattices and failed the close guard
    dom = ZERO_SET_DOMAINS["product", "disc", 8]
    inside = [(0.499999 + 1j, 2), (0.49941294311513523 + 0.9757985072758154j, 1)]
    outside = [(0.5001 + 1j, 2), (0.49118272490039677 + 1.0940188319403146j, 1)]
    zs = [r for r, m in inside + outside for _ in range(m)]
    zeros = find_zeros_sp(_with_zeros(zs), dom)
    assert len(zeros) == len(inside)
    for r, m in inside:
        assert sum(abs(z.z - r) <= 1e-9 and z.multiplicity == m for z in zeros) == 1


# ---------------------------------------------------------------------------
# classification


def test_scalar_function_classifies_as_zero(slice_rect):
    report = classify_vectorial(Q * Q - const(1.5), slice_rect)
    assert report.kind == "zero"
    assert report.zeros == []


@pytest.mark.parametrize("source", ["q^2*j + 2", "-1 + q^2*i + 1.4142135623730951*q*j + k"])
def test_classify_evaluates_g_once_on_the_grid(source, product_rect, monkeypatch, computed_by):
    # g_v^s at the nodes and the zero finder's node pass read the stem of g
    g, run, computed = parse_expr(source), expr_module._run, []

    def counting(program, z):
        if id(g) in computed_by(program) and z.size == product_rect.n_nodes:
            computed.append(z.size)
        return run(program, z)

    monkeypatch.setattr(expr_module, "_run", counting)
    classify_vectorial(g, product_rect)
    assert len(computed) == 1


@pytest.mark.parametrize(
    "source, what", [("exp(800*q)", "g"), ("1e300*q*i + 1e300", "g_v\\^s")], ids=["exp", "sym"]
)
def test_non_finite_input_is_a_domain_error(source, what):
    dom = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 1.0)], kind="slice", h=1.0 / 16.0)
    with pytest.raises(DomainError, match=f"^{what} is not finite at"):
        classify_vectorial(parse_expr(source), dom)


def test_null_symmetrization_on_product(product_rect):
    psi = UNIT * CI + CJ
    report = classify_vectorial(Q + psi, product_rect)
    assert report.kind == "null-symmetrization"
    assert report.vect_scale > 0.5


def test_spherical_zero_classification(slice_rect):
    report = classify_vectorial((Q * Q + const(1.0)) * CI, slice_rect)
    assert report.kind == "no-zeros"
    (zc,) = report.zeros
    assert zc.kind == "spherical"
    assert zc.common_order == 1
    assert zc.multiplicity == 2
    assert zc.location is None
    assert report.residual_zeros() == []


def test_real_zero_classification():
    dom = BasicDomainSpec(rects=[(-1.0, 1.0, 0.0, 0.8)], kind="slice")
    report = classify_vectorial(Q * CI, dom)
    assert report.kind == "no-zeros"
    (zc,) = report.zeros
    assert zc.kind == "real"
    assert zc.z.imag == 0.0
    assert zc.z.real == pytest.approx(0.0, abs=1e-12)
    assert zc.common_order == 1
    assert abs(zc.location - Quaternion(0.0, 0.0, 0.0, 0.0)) <= 1e-10


def test_isolated_zero_classification():
    dom = BasicDomainSpec(discs=[(0.0, 0.0, 1.1)], kind="slice")
    report = classify_vectorial(example_isolated(), dom)
    assert report.kind == "discrete-zeros"
    (zc,) = report.zeros
    assert zc.kind == "isolated"
    assert zc.multiplicity == 2
    # the symmetrization evaluates as a cancelling sum of squares, so the
    # stem point of an isolated zero carries an O(sqrt(eps)) noise floor
    assert zc.z == pytest.approx(1j, abs=5e-8)
    s = 1.0 / math.sqrt(2.0)
    assert abs(zc.location - Quaternion(0.0, -s, 0.0, -s)) <= 1e-6


def test_mixed_common_and_isolated_zeros():
    dom = BasicDomainSpec(rects=[(-0.7, 0.7, 0.0, 1.25)], kind="slice")
    report = classify_vectorial((Q * Q) * CI + Q * CJ, dom)
    assert report.kind == "discrete-zeros"
    assert sorted(zc.kind for zc in report.zeros) == ["isolated", "real"]
    iso = next(zc for zc in report.zeros if zc.kind == "isolated")
    assert iso.z == pytest.approx(1j, abs=5e-8)
    assert abs(iso.location - Quaternion(0.0, 0.0, 0.0, -1.0)) <= 1e-6
    real = next(zc for zc in report.zeros if zc.kind == "real")
    assert real.z == pytest.approx(0.0, abs=1e-10)
    assert [zc.kind for zc in report.residual_zeros()] == ["isolated"]


def test_merged_pair_of_isolated_zeros_is_refused():
    # a shrunk draw of the round-trip property: the zeros of g_v^s at
    # (1 + q + q^2) = +-i eps (q + q^2) lie 1.2e-7 apart, so they come back as
    # one double zero at e^(2 pi i / 3), where the stem of g_v is A = -eps i,
    # B = 0: no unit I makes A + I B vanish
    g = (const(1.0) + Q + Q * Q) * CK + (Q + Q * Q) * const(Quaternion(0.0, 1e-7, 0.0, 0.0))
    with pytest.raises(ClassificationError, match="has no zero on the sphere"):
        classify_vectorial(g, SLICE_16)


def test_report_serializes(slice_rect):
    report = classify_vectorial((Q * Q + const(1.0)) * CI, slice_rect)
    blob = report.to_json()
    assert blob["kind"] == "no-zeros"
    assert blob["zeros"][0]["kind"] == "spherical"
    assert blob["zeros"][0]["location"] is None


# ---------------------------------------------------------------------------
# factoring and normalization


def test_factor_spherical_zero(slice_rect):
    g = (Q * Q + const(1.0)) * CI
    gv = vect_part(g)
    report = classify_vectorial(g, slice_rect)
    coeffs, quotient = factor_minimal(gv, report, slice_rect)
    assert np.allclose(coeffs, [1.0, 0.0, 1.0], atol=1e-12)
    C = eval_stem_many(quotient, slice_rect.node_z)
    A, B = C.real, C.imag
    assert np.abs(A[:, 1] - 1.0).max() <= 1e-10
    assert np.abs(B).max() <= 1e-10
    assert np.abs(A[:, [0, 2, 3]]).max() <= 1e-10


def test_factor_mixed_real_and_spherical():
    dom = BasicDomainSpec(rects=[(-1.5, 1.5, 0.0, 1.2)], kind="slice")
    g = (Q * (Q * Q + const(1.0))) * CI
    report = classify_vectorial(g, dom)
    coeffs, quotient = factor_minimal(vect_part(g), report, dom)
    assert np.allclose(coeffs, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    A = eval_stem_many(quotient, dom.node_z).real
    assert np.abs(A[:, 1] - 1.0).max() <= 1e-9


def test_factor_is_idempotent(slice_rect):
    g = (Q * Q + const(1.0)) * CI
    report = classify_vectorial(g, slice_rect)
    _, quotient = factor_minimal(vect_part(g), report, slice_rect)
    again = classify_vectorial(quotient, slice_rect)
    assert again.kind == "no-zeros"
    assert again.zeros == []
    coeffs, same = factor_minimal(quotient, again, slice_rect)
    assert list(coeffs) == [1.0]
    assert same is quotient


def test_normalize_constant_vector(slice_rect):
    w, _ = normalize(const(Quaternion(0.0, 2.0, 0.0, 0.0)), slice_rect)
    vals = stem_complex(symmetrization(w), slice_rect.node_z)
    assert np.abs(vals - 1.0).max() <= 1e-12


def test_normalize_linear_vector(product_rect):
    w_tilde = Q * CI + CJ
    w, log_field = normalize(w_tilde, product_rect)
    vals = stem_complex(symmetrization(w), product_rect.node_z)
    assert np.abs(vals - 1.0).max() <= 1e-10
    # the log field really is log(z^2 + 1) up to branch bookkeeping
    target = product_rect.node_z ** 2 + 1.0
    assert np.abs(np.exp(log_field.values) - target).max() <= 1e-12 * np.abs(target).max()


def test_normalize_on_slice_gives_real_axis_units():
    dom = BasicDomainSpec(rects=[(0.4, 1.4, 0.0, 0.9)], kind="slice")
    w, _ = normalize(Q * CI, dom)
    C = eval_stem_many(w, dom.node_z[dom.real_nodes])
    A, B = C.real, C.imag
    assert np.abs(A[:, 1] - 1.0).max() <= 1e-12
    assert np.abs(B).max() <= 1e-12


def test_linear_dependence_detects_sp_multiples(product_rect):
    v = Q * CI + CJ
    assert linearly_dependent(v, (Q * Q + const(2.0)) * v, product_rect)
    assert linearly_dependent(v, const(0.0), product_rect)
    assert not linearly_dependent(v, Q * CJ, product_rect)
    assert not linearly_dependent(Q * CI, Q * CJ, product_rect)
    assert linearly_dependent(Q * CI, Q * CI + (Q * Q) * CI, product_rect)
