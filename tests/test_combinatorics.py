"""Partition enumeration, Bell polynomials, composition derivatives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstpde import checks
from kstpde.combinatorics import bell_polynomial, enumerate_partitions, faa_di_bruno


def count_set_partitions(m):
    """Bell number by direct recursive enumeration of set partitions."""
    if m == 0:
        return 1
    count = 0

    def place(item, blocks):
        nonlocal count
        if item == m:
            count += 1
            return
        for b in blocks:
            b.append(item)
            place(item + 1, blocks)
            b.pop()
        blocks.append([item])
        place(item + 1, blocks)
        blocks.pop()

    place(1, [[0]])
    return count


class TestEnumeration:
    def test_m3_k2(self):
        assert enumerate_partitions(3, 2) == [(1, 1)]

    def test_m_equals_k(self):
        for m in (1, 3, 5):
            assert enumerate_partitions(m, m) == [(m,)]

    def test_m4_k2(self):
        got = set(enumerate_partitions(4, 2))
        assert got == {(1, 0, 1), (0, 2, 0)}

    def test_rejects_k_above_m(self):
        with pytest.raises(ValueError):
            enumerate_partitions(2, 3)

    def test_empty_for_infeasible(self):
        assert enumerate_partitions(3, 0) == []

    @pytest.mark.parametrize("m", range(9))
    def test_completeness_vs_brute_force(self, m):
        # the brute-force filter yields each tuple once, so equality also
        # rules out duplicates
        assert checks.partitions_complete([m])

    def test_constraints_hold_exactly(self):
        for m in range(9):
            for k in range(m + 1):
                for j in enumerate_partitions(m, k):
                    assert sum(j) == k
                    assert sum(i * ji for i, ji in enumerate(j, 1)) == m


class TestBellPolynomial:
    def test_b32(self):
        # B_{3,2}(x1,x2) = 3 x1 x2, frozen from the brute-force expansion
        assert bell_polynomial(3, 2, [2.0, 5.0]) == pytest.approx(30.0)

    def test_diagonal_is_power(self):
        assert bell_polynomial(4, 4, [2.0]) == pytest.approx(16.0)

    @pytest.mark.parametrize("m,expected", list(enumerate(checks.BELL_NUMBERS)))
    def test_bell_numbers_m0_to_m8(self, m, expected):
        assert count_set_partitions(m) == expected  # oracle sanity
        _, values = checks.bell_numbers(m)
        assert values[m] == pytest.approx(expected)

    def test_insufficient_args(self):
        with pytest.raises(ValueError):
            bell_polynomial(4, 2, [1.0, 2.0])

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.1, max_value=10.0),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, m, q, data):
        k = data.draw(st.integers(min_value=1, max_value=m))
        args = data.draw(
            st.lists(
                st.floats(min_value=-3.0, max_value=3.0),
                min_size=m - k + 1,
                max_size=m - k + 1,
            )
        )
        lhs, rhs = checks.bell_scaling(m, k, q, args)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestFaaDiBruno:
    def test_chain_rule_m1(self):
        assert faa_di_bruno(1, (3.0, 5.0), (2.0,)) == pytest.approx(10.0)

    def test_exp_exp_at_zero(self):
        # d2/dx2 e^(e^x) = e^(e^x) (e^x + e^(2x)); at x=0 this is 2e
        e = math.e
        assert faa_di_bruno(2, (e, e, e), (1.0, 1.0)) == pytest.approx(2.0 * e, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", checks.FD_POINTS["exp_sin"])
    def test_exp_sin_matches_finite_differences(self, m, x):
        got, ref = checks.faa_di_bruno_vs_fd("exp_sin", m, x)
        assert got == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", checks.FD_POINTS["log_poly"])
    def test_log_poly_matches_finite_differences(self, m, x):
        got, ref = checks.faa_di_bruno_vs_fd("log_poly", m, x)
        assert got == pytest.approx(ref, rel=1e-4, abs=1e-8)

    def test_jet_length_mismatch(self):
        with pytest.raises(ValueError):
            faa_di_bruno(2, (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            faa_di_bruno(2, (1.0, 1.0, 1.0), (1.0,))
