import math

import numpy as np
import pytest

from starlog.branches import (
    arccos_k,
    log_branch,
    log_k,
    mu,
    mu_inv,
    mu_prime,
    nu,
    sqrt_principal,
)
from starlog.errors import BranchDomainViolation
from starlog.quaternion import Quaternion, exp_q

RNG = np.random.default_rng(11)


def off_slit_points(n=40):
    """Complex points staying away from (-inf,-1] and [1,inf)."""
    w = RNG.uniform(-4, 4, n) + 1j * RNG.uniform(-4, 4, n)
    keep = np.abs(w.imag) > 1e-3
    return w[keep]


class TestMuNu:
    def test_square_identities(self):
        z = RNG.uniform(-6, 6, 30) + 1j * RNG.uniform(-6, 6, 30)
        assert np.max(np.abs(mu(z * z) - np.cos(z))) < 1e-13
        assert np.max(np.abs(nu(z * z) - np.sin(z) / z)) < 1e-13

    def test_large_arguments(self):
        # mu at z^2 for |z| on both sides of 25: |z^2| runs from 620 to 10^4
        z = np.array([24.9, 25.1, -40 + 3j, 100j, 26 - 26j])
        assert np.max(np.abs(mu(z * z) - np.cos(z))) < 1e-10 * np.max(np.abs(np.cos(z)))

    def test_against_mpmath(self):
        # 40-digit references on the disc |z| <= 25 and near 0; errors are
        # relative to max(1, |value|)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        z = 25 * np.sqrt(rng.uniform(0, 1, 1500)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 1500))
        tiny = rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
        z = np.concatenate([z, tiny * 10.0 ** rng.uniform(-12, 0, 200), [0.0]])
        w = rng.uniform(-4, 4, 500) + 1j * rng.uniform(-4, 4, 500)
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(mpmath.mpc(v)) for v in z]
            cos_ref = np.array([complex(mpmath.cos(r)) for r in roots])
            sinc_ref = np.array([complex(mpmath.sin(r) / r) if r else 1.0 for r in roots])
            acos_ref = np.array([complex(mpmath.acos(mpmath.mpc(v))) for v in w])

        def err(values, ref):
            return float((np.abs(values - ref) / np.maximum(1.0, np.abs(ref))).max())

        assert err(mu(z), cos_ref) <= 2e-15
        assert err(nu(z), sinc_ref) <= 2e-15
        for k in (-2, -1, 0, 1, 2):
            strip = acos_ref + k * math.pi if k % 2 == 0 else -acos_ref + (k + 1) * math.pi
            assert err(arccos_k(w, k), strip) <= 2e-15

    def test_values_at_zero(self):
        assert mu(0.0) == pytest.approx(1.0, abs=1e-15)
        assert nu(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_derivative_at_zero(self):
        h = 1e-6
        fd = (mu(h) - mu(-h)) / (2 * h)
        assert abs(fd - (-0.5)) < 1e-6
        assert mu_prime(0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_mu_prime_is_minus_half_nu(self):
        z = off_slit_points(10)
        h = 1e-6
        fd = (mu(z + h) - mu(z - h)) / (2 * h)
        assert np.max(np.abs(fd - mu_prime(z))) < 1e-7

    def test_branch_points_are_critical(self):
        # mu'(k^2 pi^2) = 0 for k >= 1: the folds between strips
        for k in (1, 2, 3):
            assert abs(mu_prime((k * math.pi) ** 2)) < 1e-13


class TestMuInv:
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_covering(self, k):
        w = off_slit_points()
        g = mu_inv(w, k)
        assert np.max(np.abs(mu(g) - w)) < 1e-11 * (1 + np.abs(w).max())

    def test_nine_pi_squared_over_four(self):
        assert mu_inv(0.0, 1) == pytest.approx((1.5 * math.pi) ** 2, rel=1e-13)

    def test_branches_zero_and_minus_one_coincide(self):
        w = off_slit_points(15)
        assert np.max(np.abs(mu_inv(w, 0) - mu_inv(w, -1))) < 1e-12

    def test_principal_branch_admits_one_to_infinity(self):
        # the [1,inf) slit heals for branches 0/-1: continuity across it
        up = mu_inv(2.0 + 1e-9j, 0)
        dn = mu_inv(2.0 - 1e-9j, 0)
        assert abs(up - dn) < 1e-7
        assert abs(mu(mu_inv(2.0, 0)) - 2.0) < 1e-12

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_near_the_fold(self, k):
        # w = 1 is a critical value of mu: off branches 0 and -1 the inverse lands
        # next to a zero of mu' = -nu/2
        w = 1.0 + 1e-9 * np.exp(1j * np.linspace(0.1, 3.0, 30))
        g = mu_inv(w, k)
        assert np.max(np.abs(mu(g) - w)) < 1e-15
        assert np.max(np.abs(np.cos(arccos_k(w, k)) - w)) < 1e-15
        for one in w:
            assert abs(mu(mu_inv(one, k)) - one) < 1e-15

    @pytest.mark.parametrize("k", [-2, 1, 2])
    def test_other_branches_reject_right_slit(self, k):
        with pytest.raises(BranchDomainViolation):
            mu_inv(2.0, k)

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_all_branches_reject_left_slit(self, k):
        with pytest.raises(BranchDomainViolation):
            mu_inv(-1.0, k)
        with pytest.raises(BranchDomainViolation):
            mu_inv(-7.5, k)


class TestArccos:
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_inverts_cos_in_strip(self, k):
        w = off_slit_points()
        zeta = arccos_k(w, k)
        assert np.max(np.abs(np.cos(zeta) - w)) < 1e-11 * (1 + np.abs(w).max())
        assert np.all(zeta.real >= k * math.pi - 1e-9)
        assert np.all(zeta.real <= (k + 1) * math.pi + 1e-9)

    def test_special_values(self):
        assert arccos_k(0.0, 0) == pytest.approx(math.pi / 2, rel=1e-14)
        assert arccos_k(0.0, 1) == pytest.approx(3 * math.pi / 2, rel=1e-14)
        assert arccos_k(0.0, -1) == pytest.approx(-math.pi / 2, rel=1e-14)

    def test_rejects_both_slits(self):
        for k in (-1, 0, 1):
            with pytest.raises(BranchDomainViolation):
                arccos_k(1.5, k)
            with pytest.raises(BranchDomainViolation):
                arccos_k(-2.0, k)


class TestLogBranches:
    @pytest.mark.parametrize("k", range(-3, 4))
    def test_exp_inverts(self, k):
        q = Quaternion(0.8, -1.0, 0.5, 2.0)
        assert abs(exp_q(log_k(q, k)) - q) < 1e-12

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_pairs_coincide(self, k):
        q = Quaternion(-0.3, 0.4, 1.0, -0.2)
        assert abs(log_k(q, k) - log_k(q, -k - 1)) < 1e-14

    def test_distinct_even_branches_differ_by_full_turns(self):
        q = Quaternion(1.0, 1.0, 0.0, 0.0)
        d = log_k(q, 2) - log_k(q, 0)
        assert abs(d - Quaternion(0, 2 * math.pi, 0, 0)) < 1e-13

    def test_branch_zero_on_positive_reals(self):
        assert log_k(Quaternion(math.e, 0, 0, 0), 0) == Quaternion(1.0, 0, 0, 0)
        with pytest.raises(BranchDomainViolation):
            log_k(Quaternion(-1.0, 0, 0, 0), 0)
        with pytest.raises(BranchDomainViolation):
            log_k(Quaternion(2.0, 0, 0, 0), 1)

    def test_leaf_form_matches_point_map(self):
        for k in range(-2, 3):
            for w in (0.5 + 0.5j, -1.2 + 0.01j, 0.3 - 2.0j):
                lb = log_branch(w, k)
                lq = log_k(Quaternion(w.real, 0.0, w.imag, 0.0), k)
                assert abs(lb.real - lq.w) < 1e-13
                assert abs(lb.imag - lq.y) < 1e-13
                assert lq.x == 0.0 and lq.z == 0.0

    def test_leaf_form_reflection(self):
        w = -0.7 + 0.4j
        for k in range(-2, 3):
            assert log_branch(np.conj(w), k) == pytest.approx(
                np.conj(log_branch(w, k)), abs=1e-14
            )


class TestSqrt:
    def test_principal(self):
        w = off_slit_points(10)
        r = sqrt_principal(w)
        assert np.max(np.abs(r * r - w)) < 1e-13 * (1 + np.abs(w).max())
        assert np.all(r.real >= 0)

    def test_rejects_cut(self):
        with pytest.raises(BranchDomainViolation):
            sqrt_principal(-1.0)
        with pytest.raises(BranchDomainViolation):
            sqrt_principal(0.0)
