import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from noisyqfi import builtin
from noisyqfi.bloch import ChannelFamily
from noisyqfi.mstate import PauliStrings, initial_state_orders, prep_conjugate
from noisyqfi.protocols import (
    ProtocolSpec,
    build_state,
    compare,
    correlated,
    escher_phase_flip_demo,
    local_measurement_sim,
    measurement_cfi_lowest_order,
    measurement_cfi_lowest_order_general,
    nonunital_corr_equals_sqsc_check,
    protocol_qfi,
    purity_orders,
    sqsc,
    _outcomes,
    _sign_counts,
)
from noisyqfi.series import BranchError, canonical_directions, corr_bounds

from support import (
    as_dense,
    conjugate,
    dense_exact_qfi,
    dense_pair,
    local_measurement_cfi_ungrouped,
    oracle_channel_output_orders,
    oracle_outcomes,
    oracle_qfi_orders,
    oracle_sld_orders,
    permute_qubits,
    perpendicular_pair,
    random_unit,
    random_unital_family,
    u_prep,
)

PF = builtin("phase_flip")
DEPOL = builtin("depolarizing")


def _dip_family() -> ChannelFamily:
    """d = (lam - 1/2)^2 z: a lam-dependent shift that, with its derivative,
    vanishes at lam = 1/2, where the channel is unital."""
    def value(lam):
        return np.diag([1.0 - lam, 1.0 - lam, 0.5]), np.array([0.0, 0.0, (lam - 0.5) ** 2])

    def deriv(lam):
        return np.diag([-1.0, -1.0, 0.0]), np.array([0.0, 0.0, 2.0 * (lam - 0.5)])

    return ChannelFamily("dip", (0.0, 1.0), value, deriv)


class TestProtocolSpec:
    # the qubit count names the protocol: n = 1 without c, n >= 2 with one
    def test_sqsc_forces_single_qubit(self):
        spec = sqsc(PF, 0.3, 0.1, [1, 0, 0])
        assert spec.n == 1 and spec.c is None
        with pytest.raises(ValueError, match="at least one qubit"):
            ProtocolSpec(PF, 0.3, 0, 0.1, np.array([1.0, 0, 0]))

    def test_correlated_needs_pairs(self):
        with pytest.raises(ValueError, match=r"single-qubit protocol \(n = 1\)"):
            correlated(PF, 0.3, 1, 0.1, [1, 0, 0], [0, 1, 0])

    def test_correlated_needs_control(self):
        for n in (2, 3):
            with pytest.raises(ValueError, match="requires a control direction"):
                ProtocolSpec(PF, 0.3, n, 0.1, np.array([1.0, 0, 0]))

    def test_sqsc_takes_no_control(self):
        with pytest.raises(ValueError, match="takes no control direction"):
            ProtocolSpec(PF, 0.3, 1, 0.1, np.array([1.0, 0, 0]),
                         np.array([0.0, 1.0, 0.0]))

    def test_purity_range(self):
        with pytest.raises(ValueError):
            sqsc(PF, 0.3, 1.2, [1, 0, 0])

    def test_unit_vectors_enforced(self):
        with pytest.raises(ValueError):
            sqsc(PF, 0.3, 0.5, [1, 1, 0])
        with pytest.raises(ValueError):
            correlated(PF, 0.3, 2, 0.5, [2, 0, 0], [0, 1, 0])


class TestBuildState:
    def test_sqsc_zero_purity_unital(self):
        rho, _ = dense_pair(build_state(sqsc(PF, 0.3, 0.0, [1, 0, 0])))
        np.testing.assert_allclose(rho, np.eye(2) / 2.0, atol=1e-15)

    def test_correlated_state_is_physical(self):
        spec = correlated(PF, 0.4, 3, 0.3, [1, 0, 0], [0, 1, 0])
        rho, _ = dense_pair(build_state(spec))
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
        assert np.linalg.eigvalsh(rho)[0] > -1e-12

    def test_first_order_matches_closed_form_after_hadamard_rotation(self):
        # c = z with the initial direction rotated into the x axis: the first
        # order of the channel input is (sum over slots of r0 at one slot and
        # c elsewhere) / 2^n for perpendicular directions; order 1 is whole
        # in the orders of a K = 2 series
        c = np.array([0.0, 0.0, 1.0])
        r0 = np.array([1.0, 0.0, 0.0])
        lam = 0.5
        spec = correlated(DEPOL, lam, 2, 0.2, c, r0)
        from support import dense_of, sigma
        rho1 = dense_of(purity_orders(spec, 2).rho[1])
        want = lam * (np.kron(sigma(r0), sigma(c)) + np.kron(sigma(c), sigma(r0))) / 4.0
        np.testing.assert_allclose(rho1, want, atol=1e-13)

    def test_permutation_symmetry_of_spectators(self):
        spec = correlated(PF, 0.3, 4, 0.25, [1, 0, 0], [0, 1, 0])
        prep = build_state(spec)
        for perm in itertools.permutations(range(1, 4)):
            full = (0,) + perm
            moved = permute_qubits(prep.pauli, full)
            np.testing.assert_allclose(moved.coeffs, as_dense(prep.pauli).coeffs, atol=1e-12)

    def test_caps_propagate(self):
        # the dense cap applies at the first dense use, not to the Pauli state
        rng = np.random.default_rng(61)
        spec = correlated(PF, 0.3, 11, 0.1, random_unit(rng), random_unit(rng))
        prep = build_state(spec)
        with pytest.raises(ValueError, match="1..10"):
            dense_pair(prep)
        with pytest.raises(ValueError, match="1..10"):
            protocol_qfi(spec)


class TestProtocolQfi:
    def test_phase_flip_closed_form_value(self):
        res = protocol_qfi(sqsc(PF, 0.2, 0.3, [1, 0, 0]))
        want = 4 * 0.09 / (1.0 - 0.36 * 0.09)
        assert res.exact == pytest.approx(want, rel=1e-10)
        assert res.exact == pytest.approx(0.37205, rel=1e-4)

    def test_zero_purity_unital_has_no_information(self):
        res = protocol_qfi(sqsc(PF, 0.4, 0.0, [1, 0, 0]))
        assert res.exact == pytest.approx(0.0, abs=1e-14)
        assert res.series_estimate == pytest.approx(0.0, abs=1e-14)

    def test_correlated_depolarizing_within_bounds(self):
        lam, n, r = 0.5, 3, 1e-3
        ch = DEPOL.eval(lam)
        c, r0 = canonical_directions(ch)
        res = protocol_qfi(correlated(DEPOL, lam, n, r, c, r0))
        lower, upper = corr_bounds(ch, n)
        assert lower - 0.05 <= res.exact / r ** 2 <= upper + 1e-9

    def test_series_estimate_tracks_exact_at_small_purity(self):
        lam, n, r = 0.3, 3, 2e-3
        ch = PF.eval(lam)
        c, r0 = canonical_directions(ch)
        res = protocol_qfi(correlated(PF, lam, n, r, c, r0), K=4)
        assert res.series_estimate == pytest.approx(res.exact, rel=1e-6)


class TestLocalMeasurement:
    def test_probability_structure_at_small_purity(self):
        # p(+,k) = C(n-1,k)/2^n [1 + r r0.M r0 + r c.M c (2k-n+1)] + O(r^2)
        lam, n, r = 0.3, 3, 1e-4
        c = np.array([1.0, 0.0, 0.0])
        r0 = np.array([0.0, 1.0, 0.0])
        spec = correlated(PF, lam, n, r, c, r0)
        rec = local_measurement_sim(spec)
        ch = PF.eval(lam)
        a = float(r0 @ ch.M @ r0)
        b = float(c @ ch.M @ c)
        for k in range(n):
            base = comb(n - 1, k) / 2 ** n
            want_p = base * (1.0 + r * a + r * b * (2 * k - n + 1))
            want_m = base * (1.0 - r * a + r * b * (2 * k - n + 1))
            assert rec.p_plus[k] == pytest.approx(want_p, abs=5 * r ** 2)
            assert rec.p_minus[k] == pytest.approx(want_m, abs=5 * r ** 2)

    def test_zero_purity_gives_flat_counts_and_no_information(self):
        n = 4
        spec = correlated(PF, 0.35, n, 0.0, [1, 0, 0], [0, 1, 0])
        rec = local_measurement_sim(spec)
        for k in range(n):
            assert rec.p_plus[k] == pytest.approx(comb(n - 1, k) / 2 ** n, abs=1e-14)
        assert rec.cfi == pytest.approx(0.0, abs=1e-12)

    def test_normalization(self):
        spec = correlated(DEPOL, 0.45, 3, 0.2, [1, 0, 0], [0, 1, 0])
        rec = local_measurement_sim(spec)
        total = rec.p_plus.sum() + rec.p_minus.sum()
        assert total == pytest.approx(1.0, abs=1e-10)
        assert float(min(rec.p_plus.min(), rec.p_minus.min())) > -1e-12

    def test_canonical_cfi_approaches_four_n(self):
        lam = 0.3
        ch = PF.eval(lam)
        c, r0 = canonical_directions(ch)
        for n in (2, 3, 4, 5):
            spec = correlated(PF, lam, n, 1e-3, c, r0)
            rec = local_measurement_sim(spec)
            assert rec.cfi / 1e-6 == pytest.approx(4.0 * n, rel=2e-2)

    def test_grouping_is_lossless(self):
        rng = np.random.default_rng(62)
        for fam in (PF, DEPOL, builtin("gad", p=0.8)):
            for n in (2, 3, 4):
                c, r0 = random_unit(rng), random_unit(rng)
                spec = correlated(fam, 0.3, n, 0.05, c, r0)
                rec = local_measurement_sim(spec)
                ungrouped = local_measurement_cfi_ungrouped(spec)
                assert rec.cfi == pytest.approx(ungrouped, abs=1e-10, rel=1e-10)

    def test_classical_never_beats_quantum(self):
        rng = np.random.default_rng(63)
        for _ in range(12):
            fam = (PF, DEPOL)[int(rng.integers(2))]
            n = int(rng.integers(2, 5))
            c, r0 = random_unit(rng), random_unit(rng)
            r = float(rng.uniform(0.0, 0.3))
            spec = correlated(fam, float(rng.uniform(0.1, 0.9)), n, r, c, r0)
            rec = local_measurement_sim(spec)
            q = protocol_qfi(spec, K=0).exact
            assert rec.cfi <= q * (1 + 1e-10) + 1e-15

    def test_saturation_scale_for_equal_singular_values(self):
        # |cfi - qfi| / qfi stays inside the series validity scale 2 n r^2
        for fam in (PF, DEPOL):
            lam = 0.25
            ch = fam.eval(lam)
            c, r0 = canonical_directions(ch)
            for n in (2, 4):
                for r in (1e-3, 1e-2):
                    spec = correlated(fam, lam, n, r, c, r0)
                    rec = local_measurement_sim(spec)
                    q = protocol_qfi(spec, K=0).exact
                    assert abs(rec.cfi - q) / q < 2.0 * n * r ** 2

    def test_sqsc_spec_rejected(self):
        with pytest.raises(ValueError):
            local_measurement_sim(sqsc(PF, 0.3, 0.1, [1, 0, 0]))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_sign_counts_are_exact(self, n):
        # [t^k] (1 + t)^(n-1-m) (t - 1)^m, term by term in integers
        want = [[sum((-1) ** (m - j) * comb(m, j) * comb(n - 1 - m, k - j)
                     for j in range(max(0, k - (n - 1 - m)), min(m, k) + 1))
                 for k in range(n)] for m in range(n)]
        assert _sign_counts(n).tolist() == want

    @pytest.mark.parametrize("n", range(2, 11))
    def test_grouped_outcomes_match_dense_contraction(self, n):
        rng = np.random.default_rng(900 + n)
        # random strings with all four letters, along an axis off the frame's u-z plane
        strings = np.flatnonzero(rng.random(4 ** n) < 0.5)
        states = [PauliStrings(n, strings, rng.normal(size=len(strings)))]
        axes = [random_unit(rng)]
        # and the measured states of oblique cells at high purity
        for fam in (builtin("gad", p=0.8), builtin("phase_shift")):
            prep = build_state(correlated(fam, 0.3, n, 0.95, random_unit(rng),
                                          random_unit(rng)))
            states += [prep_conjugate(prep.pauli), prep_conjugate(prep.dpauli)]
            axes += [prep.r0, prep.r0]
        for st, axis in zip(states, axes):
            got, want = _outcomes(st, axis, _sign_counts(n)), oracle_outcomes(st, axis)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", (2, 3, 6, 10, 12))
    def test_outcomes_sum_to_one_and_derivatives_to_zero(self, n):
        rng = np.random.default_rng(940 + n)
        for fam in (PF, builtin("gad", p=0.8), builtin("phase_shift")):
            ch = fam.eval(0.3)
            for c, r0 in (canonical_directions(ch), (random_unit(rng), random_unit(rng))):
                for r in (1e-3, 0.9):
                    rec = local_measurement_sim(correlated(fam, 0.3, n, r, c, r0))
                    assert abs(rec.p_plus.sum() + rec.p_minus.sum() - 1.0) <= 1e-14
                    scale = max(np.abs(rec.dp_plus).max(), np.abs(rec.dp_minus).max())
                    assert abs(rec.dp_plus.sum() + rec.dp_minus.sum()) <= 1e-14 * scale


class TestScale:
    def test_ten_qubit_protocol_supported(self):
        # the largest supported dense size: one full pipeline pass at n = 10
        lam, r = 0.3, 1e-3
        ch = PF.eval(lam)
        c, r0 = canonical_directions(ch)
        spec = correlated(PF, lam, 10, r, c, r0)
        res = protocol_qfi(spec, K=2)
        assert res.exact / r ** 2 == pytest.approx(40.0, rel=2e-2)
        rec = local_measurement_sim(spec)
        assert rec.cfi / r ** 2 == pytest.approx(40.0, rel=2e-2)

    def test_measurement_beyond_dense_cap(self):
        # the measurement is Pauli-only, so n = 11 runs past the dense cap
        lam, r = 0.3, 1e-3
        ch = PF.eval(lam)
        c, r0 = canonical_directions(ch)
        rec = local_measurement_sim(correlated(PF, lam, 11, r, c, r0))
        assert rec.p_plus.sum() + rec.p_minus.sum() == pytest.approx(1.0, abs=1e-12)
        assert rec.cfi / r ** 2 == pytest.approx(44.0, rel=2e-2)

    def test_oblique_measurement_memory(self):
        # the fixed-purity state holds its 3^11 strings up to the grouped
        # outcomes; with the 4^n gather table and outcome contraction it
        # peaked at 91 MiB, summed from the strings at about 37 MiB
        c = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
        spec = correlated(PF, 0.3, 11, 1e-3, c, [-0.6, 0.0, 0.8])
        tracemalloc.start()
        try:
            rec = local_measurement_sim(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(rec.cfi) and rec.cfi > 0.0
        assert peak < 48 * 2 ** 20

    def test_rank_one_measurement_example(self):
        fam = builtin("custom_diag", mx="0", my="0", mz="1-2*l")
        lam, n, r = 0.3, 4, 1e-3
        ch = fam.eval(lam)
        c, r0 = canonical_directions(ch)
        rec = local_measurement_sim(correlated(fam, lam, n, r, c, r0))
        assert rec.cfi / r ** 2 == pytest.approx(12.0, rel=2e-2)


class TestMeasurementLowestOrder:
    def test_depolarizing_four_qubits(self):
        ch = DEPOL.eval(0.5)
        c, r0 = canonical_directions(ch)
        assert measurement_cfi_lowest_order(ch, 4, c, r0) == pytest.approx(4.0)

    def test_rank_one_family(self):
        fam = builtin("custom_diag", mx="0", my="0", mz="1-2*l")
        ch = fam.eval(0.3)
        c, r0 = canonical_directions(ch)
        assert measurement_cfi_lowest_order(ch, 4, c, r0) == pytest.approx(12.0, rel=1e-7)

    def test_phase_shift_two_qubits(self):
        # at a quarter turn dM is -1 on the plane of rotation: symmetric
        ch = builtin("phase_shift").eval(np.pi / 2)
        c, r0 = canonical_directions(ch)
        assert measurement_cfi_lowest_order(ch, 2, c, r0) == pytest.approx(2.0)
        for n in (2, 3, 5):
            assert measurement_cfi_lowest_order(ch, n, c, r0) == pytest.approx(
                measurement_cfi_lowest_order_general(ch, n, c, r0), rel=1e-12)

    @pytest.mark.parametrize("lam", (0.3, 0.7))
    def test_phase_shift_off_a_quarter_turn_rejected(self, lam):
        # dM turns c and r0 off themselves: (n-1)s1^2 + s2^2 = n, while the
        # general form and the simulation give n sin^2(lam)
        ch = builtin("phase_shift").eval(lam)
        c, r0 = canonical_directions(ch)
        with pytest.raises(ValueError, match="measurement_cfi_lowest_order_general"):
            measurement_cfi_lowest_order(ch, 3, c, r0)
        want = 3 * np.sin(lam) ** 2
        assert measurement_cfi_lowest_order_general(ch, 3, c, r0) == pytest.approx(want)
        rec = local_measurement_sim(correlated(builtin("phase_shift"), lam, 3, 1e-3, c, r0))
        assert rec.cfi / 1e-6 == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("n", (3, 6))
    @pytest.mark.parametrize("lam", (0.3, 0.4, 1.0))
    def test_phase_shift_simulation_matches_the_general_form(self, lam, n):
        # at the canonical directions, both in the plane of rotation,
        # r0^T dM r0 = c^T dM c = -sin(lam), so the general form is
        # n sin^2(lam); the simulation at r = 1e-3 agrees to about 1e-5
        fam, r = builtin("phase_shift"), 1e-3
        ch = fam.eval(lam)
        c, r0 = canonical_directions(ch)
        want = measurement_cfi_lowest_order_general(ch, n, c, r0)
        assert want == pytest.approx(n * np.sin(lam) ** 2, rel=1e-12)
        rec = local_measurement_sim(correlated(fam, lam, n, r, c, r0))
        assert rec.cfi == pytest.approx(want * r ** 2, rel=1e-4)

    def test_non_canonical_directions_rejected(self):
        ch = DEPOL.eval(0.5)
        c, r0 = canonical_directions(ch)
        tilted = (c + r0) / np.linalg.norm(c + r0)
        with pytest.raises(ValueError, match="canonical"):
            measurement_cfi_lowest_order(ch, 3, tilted, r0)

    def test_general_form(self):
        rng = np.random.default_rng(64)
        ch = PF.eval(0.2)
        for _ in range(5):
            c, r0 = random_unit(rng), random_unit(rng)
            want = (float(r0 @ ch.dM @ r0)) ** 2 + 2 * (float(c @ ch.dM @ c)) ** 2
            assert measurement_cfi_lowest_order_general(ch, 3, c, r0) == pytest.approx(want)

    def test_general_form_predicts_simulated_cfi(self):
        rng = np.random.default_rng(65)
        lam, n, r = 0.35, 3, 1e-3
        for _ in range(5):
            c, r0 = perpendicular_pair(rng)
            spec = correlated(PF, lam, n, r, c, r0)
            rec = local_measurement_sim(spec)
            want = measurement_cfi_lowest_order_general(PF.eval(lam), n, c, r0)
            assert rec.cfi / r ** 2 == pytest.approx(want, rel=2e-2, abs=1e-6)


class TestCompare:
    def test_phase_flip_five_qubit_gain(self):
        lam, r = 0.3, 1e-3
        ch = PF.eval(lam)
        c, r0 = canonical_directions(ch)
        rep = compare(correlated(PF, lam, 5, r, c, r0),
                      sqsc(PF, lam, r, r0=canonical_directions(ch)[0]))
        assert rep.status == "ok"
        assert rep.ratio_exact == pytest.approx(5.0, rel=0.02)
        assert rep.gain_lo == pytest.approx(5.0) and rep.gain_hi == 5.0
        assert not rep.violations

    def test_depolarizing_pair_gain(self):
        lam, r = 0.5, 1e-3
        ch = DEPOL.eval(lam)
        c, r0 = canonical_directions(ch)
        rep = compare(correlated(DEPOL, lam, 2, r, c, r0), sqsc(DEPOL, lam, r, r0))
        assert rep.ratio_exact == pytest.approx(2.0, rel=0.02)

    def test_insensitive_channel_reports_undefined(self):
        fam = builtin("custom_diag", mx="0.5", my="0.5", mz="0.5")
        rep = compare(correlated(fam, 0.5, 3, 1e-3, [1, 0, 0], [0, 1, 0]),
                      sqsc(fam, 0.5, 1e-3, [1, 0, 0]))
        assert rep.status == "undefined"
        assert rep.ratio_exact is None
        assert rep.gain_lo is None and rep.gain_hi is None

    def test_report_carries_both_series(self):
        lam, r = 0.3, 1e-3
        ch = PF.eval(lam)
        c, r0 = canonical_directions(ch)
        rep = compare(correlated(PF, lam, 2, r, c, r0), sqsc(PF, lam, r, r0))
        assert rep.status == "ok"
        assert rep.qfi_a.series.orders[2] == pytest.approx(8.0)
        assert rep.qfi_b.series.orders[2] == pytest.approx(4.0)

    def test_evaluates_the_family_once_a_spec(self, monkeypatch):
        # the gain bounds read the single-qubit spec's channel, the channel
        # at lam itself; a third evaluation took them once more
        calls = []
        original = ChannelFamily.eval
        monkeypatch.setattr(ChannelFamily, "eval",
                            lambda self, lam: calls.append(lam) or original(self, lam))
        c, r0 = canonical_directions(original(PF, 0.3))
        rep = compare(correlated(PF, 0.3, 3, 1e-3, c, r0), sqsc(PF, 0.3, 1e-3, r0))
        assert calls == [0.3, 0.3]
        assert rep.gain_lo == pytest.approx(3.0) and rep.gain_hi == 3.0
        calls.clear()
        ch = original(PF, 0.3)
        again = compare(correlated(PF, 0.3, 3, 1e-3, c, r0, ch=ch),
                        sqsc(PF, 0.3, 1e-3, r0, ch=ch))
        assert calls == []
        assert (again.ratio_exact, again.gain_lo) == (rep.ratio_exact, rep.gain_lo)

    def test_unital_point_of_a_shifted_family_has_gain_bounds(self):
        # the class is that of the channel at lam: at lam = 1/2 the dip
        # family is unital and the gain bounds apply; at 0.3 it is not
        fam, r = _dip_family(), 1e-3
        ch = fam.eval(0.5)
        c, r0 = canonical_directions(ch)
        rep = compare(correlated(fam, 0.5, 3, r, c, r0), sqsc(fam, 0.5, r, c))
        s = np.linalg.svd(ch.dM, compute_uv=False)
        assert rep.gain_lo == pytest.approx(3.0 - (1.0 - s[1] ** 2 / s[0] ** 2))
        assert rep.gain_hi == 3.0
        assert rep.status == "ok" and not rep.violations
        rep = compare(correlated(fam, 0.3, 3, r, c, r0), sqsc(fam, 0.3, r, c))
        assert rep.gain_lo is None and rep.gain_hi is None

    def test_mismatched_specs_rejected(self):
        with pytest.raises(ValueError):
            compare(correlated(PF, 0.3, 2, 1e-3, [1, 0, 0], [0, 1, 0]),
                    sqsc(DEPOL, 0.3, 1e-3, [1, 0, 0]))
        with pytest.raises(ValueError):
            compare(correlated(PF, 0.3, 2, 1e-3, [1, 0, 0], [0, 1, 0]),
                    sqsc(PF, 0.4, 1e-3, [1, 0, 0]))


class TestEscherDemo:
    def test_midpoint_values(self):
        rows = escher_phase_flip_demo([0.5], [0.5])
        row = rows[0]
        assert row.bound == pytest.approx(4.0)
        assert row.exact == pytest.approx(1.0)
        assert row.slack == pytest.approx(3.0)

    def test_slack_closes_as_purity_grows(self):
        rows = escher_phase_flip_demo([0.5], [0.9, 0.99, 0.999])
        slacks = [row.slack for row in rows]
        assert slacks[0] > slacks[1] > slacks[2] > 0.0
        assert rows[-1].exact == pytest.approx(4.0, rel=5e-3)

    def test_full_grid_has_positive_slack(self):
        lams = np.linspace(0.05, 0.95, 19)
        rs = np.linspace(0.1, 0.9, 9)
        rows = escher_phase_flip_demo(lams, rs)
        assert len(rows) == 19 * 9
        assert min(row.slack for row in rows) > 0.0

    def test_boundary_parameters_rejected(self):
        with pytest.raises(ValueError):
            escher_phase_flip_demo([0.0], [0.5])
        with pytest.raises(ValueError):
            escher_phase_flip_demo([0.5], [1.0])


class TestNonUnitalNoGain:
    def test_gad_full_damping(self):
        rep = nonunital_corr_equals_sqsc_check(builtin("gad", p=1.0), 0.4, 3)
        assert rep.equal and rep.h0_matches
        assert rep.qfi_sqsc == pytest.approx(1.0 / 0.84, rel=1e-9)
        assert rep.qfi_corr == pytest.approx(rep.qfi_sqsc, rel=1e-8)

    def test_gad_partial_damping(self):
        rep = nonunital_corr_equals_sqsc_check(builtin("gad", p=0.8), 0.55, 2)
        assert rep.equal and rep.h0_matches

    @pytest.mark.parametrize("n", [20, 1000])
    def test_past_the_series_cap(self, n):
        # only the exact QFIs are read: c = z and r0 = x take the 4x4 pieces,
        # so the purity series' n <= 10 does not apply
        rep = nonunital_corr_equals_sqsc_check(builtin("gad", p=0.8), 0.4, n)
        assert rep.equal and rep.h0_matches
        assert rep.qfi_corr == pytest.approx(rep.h0_closed_form, rel=1e-14)

    def test_evaluates_the_channel_once(self, monkeypatch):
        # the class check, the closed form and both specs' frames share one
        # evaluation; specs built without it evaluated the family twice more
        calls = []
        original = ChannelFamily.eval
        monkeypatch.setattr(ChannelFamily, "eval",
                            lambda self, lam: calls.append(lam) or original(self, lam))
        rep = nonunital_corr_equals_sqsc_check(builtin("gad", p=0.8), 0.55, 3)
        assert calls == [0.55]
        assert rep.equal and rep.h0_matches

    def test_unital_input_rejected(self):
        with pytest.raises(BranchError):
            nonunital_corr_equals_sqsc_check(PF, 0.3, 2)
        with pytest.raises(BranchError):
            nonunital_corr_equals_sqsc_check(builtin("gad", p=0.5), 0.3, 2)

    def test_class_is_read_at_lam(self):
        fam = _dip_family()
        rep = nonunital_corr_equals_sqsc_check(fam, 0.3, 3)
        assert rep.equal and rep.h0_matches
        with pytest.raises(BranchError, match="does not have a parameter-dependent shift"):
            nonunital_corr_equals_sqsc_check(fam, 0.5, 3)


def _lab_series(spec, K: int) -> np.ndarray:
    """QFI orders h0..hK in the lab frame: dense u_prep(n, c), the unrotated
    channel and the generic SLD solve in the full eigenbasis of rho^(0)."""
    ordered = initial_state_orders(spec.n, spec.r0, max_order=min(spec.n, K))
    ordered = conjugate(ordered, u_prep(spec.n, spec.c))
    orders = oracle_channel_output_orders(ordered, spec.family.eval(spec.lam))
    return oracle_qfi_orders(orders, oracle_sld_orders(orders, K), K)


class TestLabFrame:
    """Every view, built in the frame of c, against lab-frame oracles that use
    none of the library's frame code."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_views_match_lab_frame(self, n):
        rng = np.random.default_rng(64 + n)
        K = 4
        for fam in (PF, builtin("gad", p=0.8), random_unital_family(rng)):
            c = random_unit(rng)
            r0 = random_unit(rng)
            for c, r0 in ((c, r0), (r0, r0), (-r0, r0)):
                spec = correlated(fam, 0.3, n, 0.05, c, r0)
                res = protocol_qfi(spec, K=K)
                want = dense_exact_qfi(spec)
                assert abs(res.exact - want) <= 1e-12 * abs(want), (fam.name, n, c)
                lab = _lab_series(spec, K)
                scale = float(np.max(np.abs(lab)))
                assert np.max(np.abs(np.asarray(res.series.orders) - lab)) <= 1e-12 * scale
                rec = local_measurement_sim(spec)
                assert rec.cfi == pytest.approx(local_measurement_cfi_ungrouped(spec),
                                                abs=1e-10, rel=1e-10)
