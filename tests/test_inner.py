"""Inner function: grid, constants, recursion, interpolation, inversion."""

import bisect
import csv
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstpde import inner
from kstpde.inner import (
    MonotonicityError,
    build_grid,
    build_psi,
    build_psi_peak_bytes,
    compute_constants,
    export_derivs_csv,
    export_psi_csv,
    psi_derivative,
    psi_eval,
    psi_inverse,
    psi_jet,
    z_map,
)

# sha256 of psi_k5.csv (gamma=10, n=2, 8 terms) as written by the
# Fraction-recursion build with a csv.writer row loop
PSI_K5_SHA256 = "0aa5104323e1ce3c63dca812a8cdd1a031271f75b8014b02ca751774570d6ce0"


def exact_values(table):
    """The rational node values of a table."""
    return [Fraction(v, table.denominator) for v in table.numerators]


def psi_eval_exact(table, x: Fraction) -> Fraction:
    """The piecewise-linear psi at rational x in exact arithmetic, with
    the periodic extension psi(x) = psi(x - floor(x)) + floor(x)."""
    base = math.floor(x)
    size = len(table.grid)
    pos = (x - base) * size
    m = min(math.floor(pos), size - 1)
    lo, hi = table.numerators[m], table.numerators[m + 1]
    return (lo + (pos - m) * (hi - lo)) / table.denominator + base


def psi_inverse_exact(table, y: Fraction) -> Fraction:
    """Exact inverse of the strictly increasing piecewise-linear psi on [0, 1]."""
    nums, size = table.numerators, len(table.grid)
    yq = y * table.denominator
    m = min(bisect.bisect_right(nums, yq) - 1, size - 1)
    return (m + (yq - nums[m]) / (nums[m + 1] - nums[m])) / size


def exact_rule(table, x: Fraction) -> tuple[Fraction, Fraction]:
    """psi' and psi'' by the forward-difference rule at step gamma**-k,
    (psi(x + D) - psi(x))/D and the same difference of psi', in exact
    arithmetic on the exact table."""
    step = Fraction(1, len(table.grid))

    def dpsi(y):
        return (psi_eval_exact(table, y + step) - psi_eval_exact(table, y)) / step

    return dpsi(x), (dpsi(x + step) - dpsi(x)) / step


def koeppen_reference(m, level, gamma, n):
    """Independent direct evaluator of the recursion, written against the
    digit string rather than integer quotients."""
    if m == gamma**level:
        return Fraction(1)
    digits = []
    rest = m
    for _ in range(level):
        digits.append(rest % gamma)
        rest //= gamma
    digits.reverse()  # digits[0] = i_1
    if level == 1:
        return Fraction(digits[0], gamma)
    i_k = digits[-1]
    beta = (n**level - 1) // (n - 1)
    if i_k < gamma - 1:
        prefix = sum(d * gamma ** (level - 2 - j) for j, d in enumerate(digits[:-1]))
        return koeppen_reference(prefix, level - 1, gamma, n) + Fraction(
            i_k, gamma**beta
        )
    left = koeppen_reference(m - 1, level, gamma, n)
    right = koeppen_reference((m + 1) // gamma, level - 1, gamma, n)
    return (left + right) / 2


class TestGrid:
    def test_gamma10_k1(self):
        grid = build_grid(10, 1)
        assert [float(p) for p in grid.points] == [i / 10 for i in range(10)]

    def test_gamma10_k2(self):
        grid = build_grid(10, 2)
        assert len(grid) == 100
        assert all(
            grid.points[i + 1] - grid.points[i] == Fraction(1, 100)
            for i in range(99)
        )

    def test_gamma6_k2_matches_digit_enumeration(self):
        # oracle: enumerate all digit pairs directly
        expected = sorted(
            Fraction(i1, 6) + Fraction(i2, 36) for i1 in range(6) for i2 in range(6)
        )
        grid = build_grid(6, 2)
        assert list(grid.points) == expected
        assert grid.points[1] - grid.points[0] == Fraction(1, 36)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_grid(1, 2)
        with pytest.raises(ValueError):
            build_grid(10, 0)
        with pytest.raises(TypeError):
            build_grid(10.0, 2)


class TestConstants:
    def test_a_is_exact_rational(self, params_k1):
        assert params_k1.a == Fraction(1, 90)
        assert isinstance(params_k1.a, Fraction)

    def test_alpha1_is_one(self, params_k1):
        assert params_k1.alpha[0] == 1

    def test_alpha2_series(self, params_k1):
        # independent summation of the exponent sequence 1, 3, 7, 15, ...
        expected = sum(
            Fraction(1, 10 ** (2**r - 1)) for r in range(1, params_k1.series_terms + 1)
        )
        assert params_k1.alpha[1] == expected
        # leading digits agree with the published decimal 0.1010001...
        assert ("%.7f" % float(params_k1.alpha[1])) == "0.1010001"

    def test_rejects_small_gamma(self):
        with pytest.raises(ValueError):
            compute_constants(2, 5)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            compute_constants(2, 10, series_terms=3)

    def test_float_views_are_cached_and_exact(self, params_k4, table_k4):
        assert params_k4.alpha_float == tuple(float(a) for a in params_k4.alpha)
        assert params_k4.alpha_float is params_k4.alpha_float
        assert table_k4.delta == float(Fraction(1, 10**4))
        assert table_k4.delta is table_k4.delta


class TestPsiTable:
    def test_k1_is_identity_at_nodes(self, table_k1):
        for d, v in zip(table_k1.grid.points, exact_values(table_k1)):
            assert v == d

    def test_appending_zero_digit_changes_nothing(self):
        p2 = compute_constants(2, 10, 8, k=2)
        t2 = build_psi(p2)
        t1 = build_psi(compute_constants(2, 10, 8, k=1))
        assert exact_values(t2)[::10] == exact_values(t1)

    def test_k4_against_independent_evaluator(self, table_k4):
        vals = exact_values(table_k4)
        for m in range(0, 10000, 37):  # stride keeps this cheap
            assert vals[m] == koeppen_reference(m, 4, 10, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_table_at_every_node(self, k):
        table = build_psi(compute_constants(2, 10, 8, k=k))
        assert len(table.numerators) == 10**k + 1
        for m, v in enumerate(table.numerators):
            assert Fraction(v, table.denominator) == koeppen_reference(m, k, 10, 2)

    def test_exact_values_are_the_numerators_over_q(self, table_k4):
        # the float64 node values are the exact numerators over q, rounded once
        assert table_k4.denominator == 2**3 * 10 ** (1 + 2 + 4 + 8)
        assert len(table_k4.values) == len(table_k4.numerators)
        for v, num in zip(table_k4.values, table_k4.numerators):
            assert v == float(Fraction(num, table_k4.denominator))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_strictly_monotone(self, k):
        table = build_psi(compute_constants(2, 10, 8, k=k))
        vals = exact_values(table)
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_nesting_with_previous_depth(self, k):
        t_prev = build_psi(compute_constants(2, 10, 8, k=k - 1))
        t_k = build_psi(compute_constants(2, 10, 8, k=k))
        fine = exact_values(t_k)
        for m, v in enumerate(exact_values(t_prev)[:-1]):
            assert fine[10 * m] == v

    def test_range_and_origin(self, table_k4):
        vals = exact_values(table_k4)
        assert vals[0] == 0
        assert all(0 <= v <= 1 for v in vals)

    def test_flat_pair_raises_with_exact_arguments(self, monkeypatch):
        # a broken build (second and third node equal) is reported on the
        # first offending pair, with nodes and values as Fractions
        monkeypatch.setattr(inner, "_psi_increments", lambda g, n, k: ([3, 0, 6, 1], 10))
        with pytest.raises(MonotonicityError) as exc:
            build_psi(compute_constants(1, 4, 8, k=1))
        assert exc.value.nodes == (Fraction(1, 4), Fraction(2, 4))
        assert exc.value.values == (Fraction(3, 10), Fraction(3, 10))


class TestBuildPeakModel:
    @pytest.mark.parametrize(
        "gamma, n, k", [(10, 2, k) for k in range(1, 6)] + [(4, 1, 6), (6, 2, 4)]
    )
    def test_matches_the_exact_denominator(self, gamma, n, k):
        # Q_k's bit length from logarithms gives the digit count of Q_k itself
        _, q = inner._psi_increments(gamma, n, k)
        int_bytes = 24 + 4 * math.ceil(q.bit_length() / 30)
        assert build_psi_peak_bytes(gamma, n, k) == 3 * (gamma**k + 1) * int_bytes

    def test_default_depths(self):
        # about 11 MiB at k=5 and 160 MiB at k=6; 2.3 GiB at k=7, 39 GiB at k=8
        peaks = [build_psi_peak_bytes(10, 2, k) for k in (5, 6, 7, 8)]
        assert peaks == [12_000_120, 168_000_168, 2_520_000_252, 42_000_000_420]

    @pytest.mark.parametrize("n", [1, 2])
    def test_huge_depth_is_infinite_not_built(self, n):
        assert build_psi_peak_bytes(10, n, 10**18) == math.inf


class TestExport:
    def test_psi_k5_table_unchanged(self, table_k5, tmp_path):
        path = tmp_path / "psi_k5.csv"
        export_psi_csv(table_k5, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PSI_K5_SHA256

    def test_derivs_match_rowwise_csv_writer(self, table_k4, tmp_path):
        xs = np.linspace(0.0, 1.0 - table_k4.delta, 2001)
        export_derivs_csv(table_k4, xs, tmp_path / "block.csv")
        rows = zip(
            xs,
            psi_eval(table_k4, xs),
            psi_derivative(table_k4, 1, xs),
            psi_derivative(table_k4, 2, xs),
        )
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "psi", "dpsi", "d2psi"])
            for row in rows:
                w.writerow(["%.17g" % v for v in row])
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestPsiEval:
    def test_origin(self, table_k1):
        assert psi_eval(table_k1, 0.0) == 0.0

    def test_periodic_extension(self, table_k4):
        assert psi_eval(table_k4, 1.25) == pytest.approx(
            psi_eval(table_k4, 0.25) + 1.0, abs=1e-15
        )

    def test_interpolation_midpoint(self):
        t2 = build_psi(compute_constants(2, 10, 8, k=2))
        mid = 0.5 * (psi_eval(t2, 0.00) + psi_eval(t2, 0.01))
        assert psi_eval(t2, 0.005) == pytest.approx(mid, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_unit_shift_property(self, table_k4, x):
        assert psi_eval(table_k4, x + 1.0) - psi_eval(table_k4, x) == pytest.approx(
            1.0, abs=1e-12
        )


def recursive_derivative(table, order, x):
    """The forward-difference derivative by recursion: each order the
    forward difference of the order below, psi evaluated at the leaves."""
    d = table.delta
    if order == 1:
        return (psi_eval(table, np.asarray(x, dtype=float) + d) - psi_eval(table, x)) / d
    lower = recursive_derivative(table, order - 1, np.asarray(x, dtype=float) + d)
    return (lower - recursive_derivative(table, order - 1, x)) / d


class TestPsiDerivative:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_float_recursion(self, k):
        # the recursion subtracts float psi values at x and at x + D rounded
        # to a float, so its error grows like gamma**k ulps of the jet's maximum
        table = build_psi(compute_constants(2, 10, 8, k=k))
        d = table.delta
        edges = [0.0, d, 1.0 - 3 * d, 1.0 - 2 * d, 1.0 - d, np.nextafter(1.0, 0.0), 1.0]
        xs = np.concatenate([np.random.default_rng(k).uniform(0.0, 1.0, 5000), edges])
        jet = psi_jet(table, xs)
        scale = max(np.abs(entry).max() for entry in jet)
        tol = 5e-14 * 10 ** max(k - 2, 0) * scale
        for order in (1, 2):
            assert np.abs(jet[order] - recursive_derivative(table, order, xs)).max() <= tol

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_exact_rule_in_fractions(self, k, table_k5):
        # psi' and psi'' against the same rule in exact arithmetic at the
        # same points, random floats read as the rationals they are
        table = table_k5 if k == 5 else build_psi(compute_constants(2, 10, 8, k=k))
        rng = np.random.default_rng(100 + k)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(1.0, 3.0, 20)])
        xs = np.append(xs, [0.0, 0.5, np.nextafter(1.0, 0.0), 1.0])
        _, d1, d2 = psi_jet(table, xs)
        ulp1 = np.spacing(table.slopes.max())
        ulp2 = np.spacing(np.abs(table.derivative_nodes[1]).max())
        for x, got1, got2 in zip(xs, d1, d2):
            want1, want2 = exact_rule(table, Fraction(x))
            assert abs(got1 - want1) <= 4 * ulp1
            assert abs(got2 - want2) <= 4 * ulp2

    def test_k5_psi_prime_positive(self, table_k5):
        # every exact increment is positive (the smallest is 1e-31), so the
        # slopes are too, though most float64 node values do not increase
        xs = np.random.default_rng(5).uniform(0.0, 1.0, 20_000)
        assert np.all(psi_derivative(table_k5, 1, xs) > 0.0)
        assert np.all(psi_derivative(table_k5, 1, table_k5.nodes) > 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_jet_entries_equal_eval_and_derivative(self, k):
        table = build_psi(compute_constants(2, 10, 8, k=k))
        d = table.delta
        edges = [0.0, d, 1.0 - 3 * d, 1.0 - 2 * d, 1.0 - d, np.nextafter(1.0, 0.0), 1.0]
        xs = np.concatenate([np.random.default_rng(k).uniform(0.0, 1.0, 5000), edges])
        jet = psi_jet(table, xs)
        assert len(jet) == 3
        assert np.array_equal(jet[0], psi_eval(table, xs))
        for j in (1, 2):
            assert np.array_equal(jet[j], psi_derivative(table, j, xs))
        for x in edges:
            jet = psi_jet(table, x)
            assert all(type(v) is float for v in jet)
            assert jet == [psi_eval(table, x)] + [psi_derivative(table, j, x) for j in (1, 2)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_psi_evaluation_per_point_set(self, k, monkeypatch):
        table = build_psi(compute_constants(2, 10, 8, k=k))
        sizes = []

        def counting_eval(table, x):
            sizes.append(np.size(x))
            return psi_eval(table, x)

        monkeypatch.setattr(inner, "psi_eval", counting_eval)
        psi_jet(table, np.linspace(0.0, 1.0, 11))
        assert sizes == [11]

    def test_identity_first_derivative(self, table_k1):
        for x in np.linspace(0.0, 0.9, 19):
            assert psi_derivative(table_k1, 1, x) == 1.0

    def test_identity_second_derivative(self, table_k1):
        for x in np.linspace(0.0, 0.8, 17):
            assert psi_derivative(table_k1, 2, x) == 0.0

    def test_k4_matches_hand_quotient(self, table_k4):
        # x = 0.5 is node 5000: psi' is that cell's exact increment over
        # gamma**-k, rounded once
        nums, q = table_k4.numerators, table_k4.denominator
        exact = Fraction(nums[5001] - nums[5000], q) * 10**4
        assert psi_derivative(table_k4, 1, 0.5) == float(exact)

    def test_rejects_bad_order(self, table_k1):
        for order in (0, 3, 4):
            with pytest.raises(ValueError):
                psi_derivative(table_k1, order, 0.5)


class TestPsiInverse:
    def test_node_roundtrip(self, table_k4):
        y = psi_eval(table_k4, 0.3)
        assert psi_inverse(table_k4, y) == pytest.approx(0.3, abs=1e-14)

    def test_k1_identity(self, table_k1):
        for y in np.linspace(0.0, 1.0, 11):
            assert psi_inverse(table_k1, y) == pytest.approx(y, abs=1e-15)

    @given(st.fractions(min_value=0, max_value=Fraction(999999, 1000000)))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, table_k4, x):
        # exact interpolation arithmetic: the piecewise-linear map inverts
        # to within interpolation exactness
        y = psi_eval_exact(table_k4, x)
        assert abs(psi_inverse_exact(table_k4, y) - x) <= Fraction(1, 10**12)

    @given(st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_float_path_stays_in_cell(self, table_k4, x):
        # float64 cannot encode y finer than ~1e-16, and psi rises by only
        # ~1e-15 across most depth-4 cells, so the float roundtrip is
        # conditioning-limited to about one cell width
        xi = psi_inverse(table_k4, psi_eval(table_k4, x))
        assert abs(xi - x) <= table_k4.delta

    def test_roundtrip_float_path_k1(self, table_k1):
        for x in np.linspace(0.0, 0.99, 34):
            xi = psi_inverse(table_k1, psi_eval(table_k1, x))
            assert abs(xi - x) <= 1e-12

    def test_out_of_range_reported(self, table_k4):
        with pytest.raises(ValueError, match=r"range"):
            psi_inverse(table_k4, 1.5)


class TestZMap:
    def test_zero(self, params_k1, table_k1):
        assert z_map(params_k1, table_k1, (0.0, 0.0)) == 0.0

    def test_identity_table(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        assert z_map(params_k1, table_k1, (1.0, 0.5)) == pytest.approx(
            a1 + 0.5 * a2, abs=1e-15
        )

    def test_against_direct_summation(self, params_k4, table_k4):
        a1, a2 = params_k4.alpha_float
        expected = a1 * psi_eval(table_k4, 0.3) + a2 * psi_eval(table_k4, 0.7)
        assert z_map(params_k4, table_k4, (0.3, 0.7)) == pytest.approx(
            expected, rel=1e-15
        )

    def test_length_mismatch(self, params_k1, table_k1):
        with pytest.raises(ValueError):
            z_map(params_k1, table_k1, (0.1,))
