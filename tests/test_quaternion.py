import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starlog.errors import RealInput
from starlog.quaternion import (
    I_UNIT,
    J_UNIT,
    K_UNIT,
    ONE,
    Quaternion,
    exp_q,
    format_quaternion,
    is_imaginary_unit,
    parse_quaternion,
    qconj,
    qmul,
    split,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def qapprox(a: Quaternion, b: Quaternion, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


class TestAlgebra:
    def test_hamilton_table(self):
        assert I_UNIT * J_UNIT == K_UNIT
        assert J_UNIT * I_UNIT == -K_UNIT
        assert J_UNIT * K_UNIT == I_UNIT
        assert K_UNIT * I_UNIT == J_UNIT
        assert I_UNIT * I_UNIT == -ONE
        assert J_UNIT * J_UNIT == -ONE
        assert K_UNIT * K_UNIT == -ONE

    def test_product_by_distributivity(self):
        # (1+i)(1+j) expanded term by term: 1 + j + i + ij = 1 + i + j + k
        p = ONE + I_UNIT
        q = ONE + J_UNIT
        assert p * q == Quaternion(1, 1, 1, 1)
        assert q * p == Quaternion(1, 1, 1, -1)

    @given(quats, quats)
    def test_conj_antihomomorphism(self, p, q):
        assert qapprox((p * q).conj(), q.conj() * p.conj())

    @given(quats, quats)
    def test_norm_multiplicative(self, p, q):
        assert abs(abs(p * q) - abs(p) * abs(q)) <= 1e-9 * (1 + abs(p) * abs(q))

    @given(quats)
    def test_inverse(self, q):
        if abs(q) < 1e-3:
            return
        assert qapprox(q * q.inverse(), ONE, 1e-10)
        assert qapprox(q.inverse() * q, ONE, 1e-10)

    def test_division(self):
        q = Quaternion(1, 2, -1, 0.5)
        assert qapprox((q / J_UNIT) * J_UNIT, q)


class TestSplit:
    @given(quats)
    def test_reassembly(self, q):
        if q.vec_norm() <= 1e-6 * (1 + abs(q)):
            return
        x, y, unit = split(q)
        assert y > 0
        assert is_imaginary_unit(unit, 1e-12)
        assert qapprox(Quaternion.coerce(x) + unit * y, q, 1e-14)

    def test_real_input(self):
        with pytest.raises(RealInput):
            split(Quaternion(3.0, 0.0, 0.0, 0.0))
        with pytest.raises(RealInput):
            split(Quaternion(1.0, 1e-16, 0.0, 0.0))

    def test_unit_sphere_examples(self):
        _, _, unit = split(Quaternion(2.0, 0.0, -3.0, 0.0))
        assert unit == -J_UNIT  # y > 0 forces the unit to flip


class TestExp:
    def exp_series(self, q: Quaternion, terms: int = 200) -> Quaternion:
        total = ONE
        term = ONE
        for n in range(1, terms):
            term = term * q / n
            total = total + term
            if abs(term) < 1e-18 * (1 + abs(total)):
                break
        return total

    @pytest.mark.parametrize(
        "q",
        [
            Quaternion(0, 0, 0, 0),
            Quaternion(1, 0, 0, 0),
            Quaternion(0, math.pi, 0, 0),
            Quaternion(0.3, -1.2, 0.5, 2.0),
            Quaternion(-2, 3, 3, 3),
        ],
    )
    def test_against_series(self, q):
        assert qapprox(exp_q(q), self.exp_series(q), 1e-13)

    def test_pi_unit_gives_minus_one(self):
        for unit in (I_UNIT, J_UNIT, split(Quaternion(1, 1, 2, -2))[2]):
            assert qapprox(exp_q(unit * math.pi), -ONE, 1e-13)

    @given(quats)
    def test_conjugation_covariance(self, q):
        # exp(p q p^-1) = p exp(q) p^-1
        p = Quaternion(1, 1, 0, -1)
        lhs = exp_q(p * q * p.inverse())
        rhs = p * exp_q(q) * p.inverse()
        assert qapprox(lhs, rhs, 1e-9)


class TestArrays:
    def test_qmul_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 4))
        b = rng.normal(size=(20, 4))
        prod = qmul(a, b)
        for row_a, row_b, row_p in zip(a, b, prod):
            expected = Quaternion.from_array(row_a) * Quaternion.from_array(row_b)
            assert np.allclose(row_p, expected.to_array(), atol=1e-13)

    def test_qconj(self):
        a = np.array([[1.0, 2.0, -3.0, 0.5]])
        assert np.allclose(qconj(a), [[1.0, -2.0, 3.0, -0.5]])


class TestText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", Quaternion(0, 0, 0, 0)),
            ("1+2i-3j+0.5k", Quaternion(1, 2, -3, 0.5)),
            ("-i", Quaternion(0, -1, 0, 0)),
            ("k", Quaternion(0, 0, 0, 1)),
            ("2.5e-1+1e2j", Quaternion(0.25, 0, 100, 0)),
            (" 1 + j ", Quaternion(1, 0, 1, 0)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_quaternion(text) == expected

    @pytest.mark.parametrize("bad", ["", "1+", "q", "2m", "1..2i", "1e999", "1+1e999i"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_quaternion(bad)

    @given(quats)
    def test_roundtrip(self, q):
        assert parse_quaternion(format_quaternion(q)) == q
