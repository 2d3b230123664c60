"""Poisson-Dirichlet sampler: telescoping, CDFs, correlation Monte Carlo."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlab import dickman, pdprocess
from pdlab.boxes import box, box_correlation_exact, box_correlation_quadrature
from pdlab.errors import ValidationError


def test_sticks_from_forced_uniforms():
    # all U_i = 1/2 gives sticks 1/2, 1/4, 1/8, ... already descending
    sticks, residual = pdprocess.sticks_from_uniforms([Fraction(1, 2)] * 6)
    assert sticks == [Fraction(1, 2**j) for j in range(1, 7)]
    assert sum(sticks) + residual == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=12))
def test_stick_telescoping_exact(us):
    sticks, residual = pdprocess.sticks_from_uniforms(us)
    assert sum(sticks) + residual == 1  # exact rational identity
    assert all(s >= 0 for s in sticks)


def test_mass_identity_bulk():
    dev = pdprocess.mass_identity_max_deviation(10**5, seed=7)
    assert dev <= 1e-12


def test_joint_cdf_trivial_threshold():
    est = pdprocess.joint_cdf_mc([1.0], 10**4, seed=0)
    assert est.value == 1.0


def test_joint_cdf_matches_dickman():
    est = pdprocess.joint_cdf_mc([0.5], 10**6, seed=42)
    rho2 = dickman.rho(2.0)
    assert abs(est.value - rho2) <= 3 * est.std_error
    est3 = pdprocess.joint_cdf_mc([1.0 / 3.0], 10**6, seed=42)
    assert abs(est3.value - dickman.rho(3.0)) <= 3 * est3.std_error


def test_joint_cdf_two_estimators_agree():
    a = pdprocess.joint_cdf_mc([0.9, 0.5], 2 * 10**5, seed=9, method="topk")
    b = pdprocess.joint_cdf_mc([0.9, 0.5], 2 * 10**5, seed=10, method="counting")
    joint_se = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) <= 3 * joint_se


def test_corr_mc_single_interval():
    eta = box((0.25, 0.5))
    est = pdprocess.corr_mc(eta, 10**6, seed=3)
    assert abs(est.value - math.log(2)) <= 3 * est.std_error


def test_corr_mc_zero_weight():
    from pdlab.boxes import Box, BoxFunction

    eta = BoxFunction(boxes=(Box((0.25,), (0.5,), weight=0.0),))
    est = pdprocess.corr_mc(eta, 10**4, seed=3)
    assert est.value == 0.0


def test_corr_mc_disjoint_pair_matches_product():
    eta = box((0.1, 0.2), (0.3, 0.4))
    est = pdprocess.corr_mc(eta, 10**6, seed=5)
    want = box_correlation_exact([(0.1, 0.2), (0.3, 0.4)])
    assert abs(est.value - want) <= 3 * est.std_error


def test_corr_mc_simplex_clipped_matches_quadrature():
    eta = box((0.4, 0.6), (0.5, 0.7))
    est = pdprocess.corr_mc(eta, 10**6, seed=6)
    want = box_correlation_quadrature(eta)
    assert abs(est.value - want) <= 3 * est.std_error


def test_corr_mc_symmetry_under_coordinate_permutation():
    a = pdprocess.corr_mc(box((0.1, 0.2), (0.3, 0.4)), 10**5, seed=8)
    b = pdprocess.corr_mc(box((0.3, 0.4), (0.1, 0.2)), 10**5, seed=8)
    assert a.value == b.value  # same samples, symmetric tuple sum


def test_thread_count_never_changes_estimates():
    eta = box((0.2, 0.45))
    a = pdprocess.corr_mc(eta, 3 * 10**5, seed=12, threads=1)
    b = pdprocess.corr_mc(eta, 3 * 10**5, seed=12, threads=8)
    assert a == b
    c = pdprocess.joint_cdf_mc([0.5], 3 * 10**5, seed=12, threads=1)
    d = pdprocess.joint_cdf_mc([0.5], 3 * 10**5, seed=12, threads=8)
    assert c == d


def test_l1_mass_mc_thread_independent_and_near_golomb_dickman():
    a, dev_a = pdprocess.l1_mass_mc(2 * 10**5, seed=3, threads=1)
    b, dev_b = pdprocess.l1_mass_mc(2 * 10**5, seed=3, threads=4)
    assert (a, dev_a) == (b, dev_b)
    assert a.n == 2 * 10**5
    assert abs(a.value - 0.6243299885) <= 5 * a.std_error
    assert dev_a <= 1e-12
    assert dev_a == pdprocess.mass_identity_max_deviation(2 * 10**5, seed=3)


@pytest.mark.parametrize("truncation", [0.0, -1e-12, 1e-3, 2.0])
def test_truncation_outside_range_raises(truncation):
    # truncation 0 never ends the stick loop (the residual underflows to 0),
    # and one above 1e-6 stops rows uncertified after a stick or two
    with pytest.raises(ValidationError):
        pdprocess.mass_identity_max_deviation(10, seed=0, truncation=truncation)
    with pytest.raises(ValidationError):
        pdprocess.l1_mass_mc(10, seed=0, truncation=truncation)
    for method in ("topk", "counting"):
        with pytest.raises(ValidationError):
            pdprocess.joint_cdf_mc([0.5], 1000, seed=0, truncation=truncation, method=method)


def test_validation_errors():
    with pytest.raises(ValidationError):
        pdprocess.joint_cdf_mc([], 10, seed=0)
    with pytest.raises(ValidationError):
        pdprocess.joint_cdf_mc([1.5], 10, seed=0)
    with pytest.raises(ValidationError):
        pdprocess.joint_cdf_mc([0.5], 0, seed=0)
    with pytest.raises(ValidationError):
        pdprocess.joint_cdf_mc([0.5], 10, seed=0, method="psychic")
