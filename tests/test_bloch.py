import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisyqfi import bloch
from noisyqfi.bloch import (
    BlochChannel,
    ChannelFamily,
    DomainError,
    Unitality,
    builtin,
    classify_unitality,
    fd_derivative,
    svd3,
    validate,
)
from noisyqfi.blocks import exact_qfi
from noisyqfi.protocols import correlated, sqsc
from noisyqfi.series import (
    BranchError,
    corr_h2,
    require_unital,
    sqsc_nonunital_const_h2,
    sqsc_nonunital_h0,
    sqsc_unital_h2,
)

from support import apply_bloch, random_unit


def _channel(M, d, dM=None, dd=None):
    return BlochChannel(M, d,
                        np.zeros((3, 3)) if dM is None else dM,
                        np.zeros(3) if dd is None else dd)


ALL_BUILTINS = [
    builtin("phase_shift"),
    builtin("phase_flip"),
    builtin("depolarizing"),
    builtin("gad", p=1.0),
    builtin("gad", p=0.3),
    builtin("gad", p=0.5),
    builtin("pauli", lam_on="z", px=0.05, py=0.1),
    builtin("custom_diag", mx="1-2*l", my="1-2*l", mz="1"),
]


class TestValidate:
    def test_boundary_shift_with_zero_matrix_passes(self):
        report = validate(_channel(np.zeros((3, 3)), [0, 0, 1]))
        assert report.passed and not report.failures

    def test_unit_shift_with_nonzero_matrix_fails(self):
        report = validate(_channel(np.eye(3), [0, 0, 1]))
        assert not report.passed
        names = [name for name, _ in report.failures]
        assert any("M = 0" in name for name in names)

    def test_identity_channel_passes(self):
        assert validate(_channel(np.eye(3), [0, 0, 0])).passed

    def test_long_shift_fails_with_magnitude(self):
        report = validate(_channel(np.zeros((3, 3)), [0, 0, 1.5]))
        assert not report.passed
        name, magnitude = report.failures[0]
        assert magnitude == pytest.approx(0.5)

    def test_stretching_matrix_fails_with_magnitude(self):
        # |M a| > 1 for some unit a: the image of the Bloch ball leaves it
        for M in (2.0 * np.eye(3), np.diag([1.0, 1.0, 1.5]), np.diag([-1.2, 0.3, 0.1])):
            report = validate(_channel(M, [0, 0, 0]))
            assert not report.passed
            name, magnitude = report.failures[0]
            assert "singular value" in name
            assert magnitude == pytest.approx(np.abs(np.diag(M)).max() - 1.0)

    def test_rotation_passes(self):
        c, s = np.cos(0.7), np.sin(0.7)
        assert validate(_channel(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]), [0, 0, 0]))

    def test_nonfinite_entries_fail(self):
        report = validate(_channel(np.full((3, 3), np.nan), [0, 0, 0]))
        assert not report.passed


class TestApplyBloch:
    def test_phase_flip_example(self):
        ch = builtin("phase_flip").eval(0.25)
        np.testing.assert_allclose(apply_bloch(ch, 1.0, [1, 0, 0]), [0.5, 0, 0], atol=1e-15)

    def test_zero_purity_unital(self):
        ch = builtin("depolarizing").eval(0.7)
        np.testing.assert_allclose(apply_bloch(ch, 0.0, [0, 1, 0]), np.zeros(3), atol=1e-15)

    def test_gad_zero_purity_shows_shift(self):
        ch = builtin("gad", p=1.0).eval(0.5)
        np.testing.assert_allclose(apply_bloch(ch, 0.0, [1, 0, 0]), [0, 0, 0.5], atol=1e-15)

    def test_non_unit_direction_rejected(self):
        ch = builtin("depolarizing").eval(0.5)
        with pytest.raises(ValueError, match="unit 3-vector"):
            apply_bloch(ch, 0.5, [1, 1, 0])
        with pytest.raises(ValueError, match="unit 3-vector"):
            sqsc_unital_h2(ch, [1, 1, 0])
        shifted = BlochChannel(0.5 * np.eye(3), [0.0, 0.0, 0.3], np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="unit 3-vector"):
            sqsc_nonunital_const_h2(shifted, [1, 1, 0])

    @pytest.mark.parametrize("entry", [
        lambda nan: exact_qfi(sqsc(builtin("phase_flip"), 0.3, 0.01, nan)),
        lambda nan: corr_h2(builtin("phase_flip").eval(0.3), 3, [0, 0, 1], nan),
        lambda nan: sqsc_unital_h2(builtin("phase_flip").eval(0.3), nan),
        lambda nan: exact_qfi(correlated(builtin("phase_flip"), 0.3, 3, 0.01, nan, [1, 0, 0])),
    ], ids=["exact_qfi-sqsc-r0", "corr_h2-r0", "sqsc_unital_h2-r0", "exact_qfi-correlated-c"])
    def test_nan_direction_rejected(self, entry):
        # a NaN norm fails every comparison: the check is written so that it
        # fails, where abs(norm - 1) > tol let the direction through to a QFI
        # of 0, a NaN coefficient, or a LinAlgError in eigh
        with pytest.raises(ValueError, match="must be a unit 3-vector"):
            entry([np.nan, 0.0, 0.0])

    def test_contraction_over_builtins(self):
        rng = np.random.default_rng(11)
        for fam in ALL_BUILTINS:
            lo, hi = fam.domain
            lam = 0.5 * (lo + hi)
            ch = fam.eval(lam)
            for _ in range(125):
                out = apply_bloch(ch, 1.0, random_unit(rng))
                assert np.linalg.norm(out) <= 1.0 + 1e-9


class TestBuiltins:
    def test_depolarizing_values(self):
        ch = builtin("depolarizing").eval(0.3)
        np.testing.assert_allclose(ch.M, 0.3 * np.eye(3))
        np.testing.assert_allclose(ch.d, np.zeros(3))
        np.testing.assert_allclose(ch.dM, np.eye(3))

    def test_phase_shift_at_zero(self):
        ch = builtin("phase_shift").eval(0.0)
        np.testing.assert_allclose(ch.M, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(ch.dM, [[0, -1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-15)

    def test_gad_balanced_is_unital(self):
        fam = builtin("gad", p=0.5)
        for lam in np.linspace(0, 0.9, 10):
            np.testing.assert_allclose(fam.eval(lam).d, np.zeros(3), atol=1e-15)
            assert classify_unitality(fam.eval(lam)) is Unitality.UNITAL

    def test_gad_carries_p(self):
        fam = builtin("gad", p=0.8)
        assert fam.params == {"p": 0.8}
        ch = fam.eval(0.5)
        np.testing.assert_allclose(ch.d, [0, 0, 0.5 * 0.6])
        np.testing.assert_allclose(ch.dd, [0, 0, 0.6])

    def test_pauli_reduces_to_phase_flip(self):
        fam = builtin("pauli", lam_on="z")
        ch = fam.eval(0.25)
        np.testing.assert_allclose(ch.M, np.diag([0.5, 0.5, 1.0]))
        np.testing.assert_allclose(ch.dM, np.diag([-2.0, -2.0, 0.0]))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown channel"):
            builtin("amplitude_rectifier")

    def test_unexpected_params(self):
        with pytest.raises(ValueError):
            builtin("phase_flip", p=0.2)

    def test_domain_enforced(self):
        fam = builtin("phase_flip")
        with pytest.raises(DomainError):
            fam.eval(1.5)

    def test_all_builtins_validate_on_random_grid(self):
        rng = np.random.default_rng(23)
        for fam in ALL_BUILTINS:
            lo, hi = fam.domain
            pad = max(2 * fam.fd_step, (hi - lo) * 1e-9)
            for lam in rng.uniform(lo + pad, hi - pad, size=100):
                report = validate(fam.eval(lam))
                assert report.passed, (fam.name, lam, report.failures)

    def test_unitality_flags_consistent(self):
        # a builtin's class is the same across its domain: only gad away from
        # p = 1/2 has a shift, and that shift moves with lam
        for fam in ALL_BUILTINS:
            want = (Unitality.NONUNITAL_PARAM_SHIFT
                    if fam.name == "gad" and fam.params["p"] != 0.5 else Unitality.UNITAL)
            lo, hi = fam.domain
            for t in (0.1, 0.37, 0.9):
                lam = lo + t * (hi - lo)
                assert classify_unitality(fam.eval(lam)) is want, (fam.name, lam)

    @pytest.mark.parametrize("size, kind", [(0.5e-12, Unitality.UNITAL),
                                            (1e-12, Unitality.NONUNITAL_CONST_SHIFT)])
    def test_shift_at_the_zero_tolerance_is_one_branch_everywhere(self, size, kind):
        # |d| = 1e-12 is a shift for the classifier and every branch check,
        # and half of it is none for all of them
        ch = _channel(0.5 * np.eye(3), [0.0, 0.0, size], np.eye(3))
        assert classify_unitality(ch) is kind
        with pytest.raises(BranchError, match="parameter independent"):
            sqsc_nonunital_h0(ch)
        if kind is Unitality.UNITAL:
            require_unital(ch)
            with pytest.raises(BranchError, match="vanishes"):
                sqsc_nonunital_const_h2(ch, [1, 0, 0])
        else:
            with pytest.raises(BranchError, match="not unital"):
                require_unital(ch)
            assert sqsc_nonunital_const_h2(ch, [1, 0, 0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("size, kind", [(0.5e-12, Unitality.UNITAL),
                                            (1e-12, Unitality.NONUNITAL_PARAM_SHIFT)])
    def test_shift_derivative_at_the_zero_tolerance_is_one_branch_everywhere(self, size, kind):
        ch = _channel(0.5 * np.eye(3), np.zeros(3), np.eye(3), [0.0, 0.0, size])
        assert classify_unitality(ch) is kind
        if kind is Unitality.UNITAL:
            require_unital(ch)
            with pytest.raises(BranchError, match="parameter independent"):
                sqsc_nonunital_h0(ch)
            with pytest.raises(BranchError, match="vanishes"):
                sqsc_nonunital_const_h2(ch, [1, 0, 0])
        else:
            with pytest.raises(BranchError, match="not unital"):
                require_unital(ch)
            assert sqsc_nonunital_h0(ch) == pytest.approx(1e-24)
            with pytest.raises(BranchError, match="parameter dependent"):
                sqsc_nonunital_const_h2(ch, [1, 0, 0])


class TestCustomDiag:
    def test_rank_one_family(self):
        fam = builtin("custom_diag", mx="0", my="0", mz="1-2*l")
        ch = fam.eval(0.4)
        np.testing.assert_allclose(ch.M, np.diag([0.0, 0.0, 0.2]), atol=1e-12)
        np.testing.assert_allclose(ch.dM, np.diag([0.0, 0.0, -2.0]), atol=1e-8)
        assert classify_unitality(ch) is Unitality.UNITAL

    def test_expression_domain(self):
        fam = builtin("custom_diag", mx="sqrt(1-l)", my="sqrt(1-l)", mz="1-l",
                      domain=(0.0, 0.99))
        ch = fam.eval(0.19)
        assert ch.M[0, 0] == pytest.approx(0.9)
        with pytest.raises(DomainError):
            fam.eval(1.5)


    def test_complex_value_is_rejected(self):
        # a negative base to a fractional power is complex in Python; its real
        # part must not stand in for it
        fam = builtin("custom_diag", mx="(-l)^0.5", my="0", mz="1")
        with pytest.raises(ValueError, match="M has a complex entry"):
            fam.eval(0.5)
        with pytest.raises(ValueError, match="M has a complex entry"):
            fd_derivative(fam.value, 0.5)
        assert fam.value(0.0)[0][0, 0] == 0.0  # (-0)^0.5 is a real zero

    def test_channel_entries_must_be_real(self):
        M, d = np.eye(3), np.zeros(3)
        with pytest.raises(ValueError, match="dd has a complex entry"):
            BlochChannel(M, d, M, d + 1e-3j)
        # a complex type with zero imaginary parts is its real part
        ch = BlochChannel(M.astype(complex), d, M, d)
        assert ch.M.dtype == float and np.array_equal(ch.M, M)


class TestFdDerivative:
    def test_linear_family_is_exact(self):
        fam = builtin("depolarizing")
        dM, dd = fd_derivative(fam.value, 0.5, h=1e-5)
        np.testing.assert_allclose(dM, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(dd, np.zeros(3), atol=1e-12)

    def test_phase_flip(self):
        fam = builtin("phase_flip")
        dM, _ = fd_derivative(fam.value, 0.3, h=1e-5)
        np.testing.assert_allclose(dM, np.diag([-2.0, -2.0, 0.0]), atol=1e-8)

    def test_constant_family(self):
        def value(lam):
            return np.diag([0.3, 0.2, 0.1]), np.array([0.0, 0.0, 0.4])

        dM, dd = fd_derivative(value, 0.5, h=1e-6)
        np.testing.assert_allclose(dM, np.zeros((3, 3)), atol=1e-12)
        np.testing.assert_allclose(dd, np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), -1.0])
    def test_step_must_be_finite_and_positive(self, h):
        fam = builtin("phase_flip")
        with pytest.raises(ValueError, match="fd step must be finite and positive"):
            fd_derivative(fam.value, 0.3, h=h)

    def test_agrees_with_analytic_builtins(self):
        h = 1e-6
        for fam in ALL_BUILTINS:
            if fam.deriv is None:
                continue
            lo, hi = fam.domain
            for lam in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7):
                dM_fd, dd_fd = fd_derivative(fam.value, lam, h=h)
                dM, dd = fam.deriv(lam)
                scale = max(np.linalg.norm(dM), 1.0)
                assert np.linalg.norm(dM_fd - dM) <= 10 * h ** 2 * scale + 1e-9
                assert np.linalg.norm(dd_fd - dd) <= 10 * h ** 2 + 1e-9


class TestSvd3:
    def test_phase_flip_derivative(self):
        dec = svd3(np.diag([-2.0, -2.0, 0.0]))
        np.testing.assert_allclose(dec.S, [2.0, 2.0, 0.0], atol=1e-14)

    def test_identity(self):
        dec = svd3(np.eye(3))
        np.testing.assert_allclose(dec.S, [1.0, 1.0, 1.0])

    def test_rank_one_axis(self):
        dec = svd3(np.diag([0.0, 0.0, -2.0]))
        np.testing.assert_allclose(dec.S, [2.0, 0.0, 0.0], atol=1e-14)
        assert abs(dec.B[0] @ np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)

    def test_reconstruction_batch(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            M = rng.uniform(-3.0, 3.0, size=(3, 3))
            dec = svd3(M)
            assert np.linalg.norm(dec.reconstruct() - M) < 1e-12
            assert dec.S[0] >= dec.S[1] >= dec.S[2] >= 0.0

    def test_deterministic(self):
        M = np.array([[0.3, -1.2, 0.7], [2.0, 0.1, -0.4], [0.9, 0.9, 0.9]])
        a = svd3(M)
        b = svd3(M.copy())
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.S, b.S)
        np.testing.assert_array_equal(a.B, b.B)

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dec = svd3(rng.normal(size=(3, 3)))
            for row in dec.B:
                assert row[np.argmax(np.abs(row))] > 0.0

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-3, 3)))
    def test_orthogonality(self, M):
        dec = svd3(M)
        np.testing.assert_allclose(dec.A.T @ dec.A, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(dec.B.T @ dec.B, np.eye(3), atol=1e-12)


class TestFamilyFromCallables:
    """A user family is ``ChannelFamily(name, domain, value, deriv=None)``;
    its class at lam is that of its evaluation there."""

    def test_infers_constant_shift(self):
        def value(lam):
            return lam * np.eye(3) * 0.5, np.array([0.0, 0.0, 0.5])

        fam = ChannelFamily("shifted", (0.0, 1.0), value)
        assert classify_unitality(fam.eval(0.5)) is Unitality.NONUNITAL_CONST_SHIFT

    def test_infers_unital(self):
        def value(lam):
            return np.diag([lam, lam, 1.0]), np.zeros(3)

        fam = ChannelFamily("diagish", (0.0, 1.0), value)
        assert classify_unitality(fam.eval(0.5)) is Unitality.UNITAL

    def test_infers_param_shift(self):
        def value(lam):
            return 0.1 * np.eye(3), np.array([0.0, 0.0, 0.5 * lam])

        fam = ChannelFamily("drift", (0.0, 1.0), value)
        assert classify_unitality(fam.eval(0.5)) is Unitality.NONUNITAL_PARAM_SHIFT

    @pytest.mark.parametrize("domain", [(1.0, 0.0), (0.5, 0.5), (0.0, np.inf),
                                        (-np.inf, 0.0), (0.0, np.nan)])
    def test_domain_must_be_finite_and_ordered(self, domain):
        with pytest.raises(ValueError, match="domain must be finite with lo < hi"):
            ChannelFamily("bad", domain, lambda lam: (np.eye(3), np.zeros(3)))

    @pytest.mark.parametrize("fd_step", [0.0, -1.0, np.inf, np.nan])
    def test_fd_step_must_be_positive_and_finite(self, fd_step):
        with pytest.raises(ValueError, match="fd_step must be positive and finite"):
            ChannelFamily("bad", (0.0, 1.0), lambda lam: (np.eye(3), np.zeros(3)),
                          fd_step=fd_step)

    def test_stencil_wider_than_the_domain_is_refused(self):
        # without deriv, a family whose lam -+ fd_step fits nowhere in the
        # domain could be evaluated nowhere; 2 fd_step = hi - lo fits at the
        # midpoint alone
        def value(lam):
            return np.diag([lam, lam, 1.0]), np.zeros(3)

        with pytest.raises(ValueError, match=r"central difference with fd_step=0.6 "
                                             r"fits nowhere in domain \[0.0, 1.0\]"):
            ChannelFamily("wide", (0.0, 1.0), value, fd_step=0.6)
        fam = ChannelFamily("wide", (0.0, 1.0), value, fd_step=0.5)
        assert fam.contains(0.5) and not fam.contains(0.4)
        exact = ChannelFamily("wide", (0.0, 1.0), value,
                              lambda lam: (np.eye(3), np.zeros(3)), fd_step=0.6)
        assert exact.contains(0.0)

    def test_eval_at_the_stencil_edge_is_a_domain_error(self):
        # without deriv, lam -+ fd_step must lie in the domain too; the
        # family refuses before it evaluates anything
        calls = []

        def value(lam):
            calls.append(lam)
            return np.diag([lam, lam, 1.0]), np.zeros(3)

        fam = ChannelFamily("edge", (0.0, 1.0), value, fd_step=1e-3)
        for lam, message in [
                (0.0, r"central difference at 0.0 with h=0.001 leaves domain \[0.0, 1.0\]"),
                (1.0, r"central difference at 1.0 with h=0.001 leaves domain \[0.0, 1.0\]"),
                (1.5, r"lambda=1.5 outside domain \[0.0, 1.0\] of channel 'edge'")]:
            assert not fam.contains(lam)
            with pytest.raises(DomainError, match=message):
                fam.eval(lam)
        assert calls == []
        # the ends take the same 1e-12 of slack as the domain itself
        for lam in (1e-3, 1e-3 - 1e-13, 1.0 - 1e-3):
            assert fam.contains(lam)
            fam.eval(lam)
        # with deriv the domain's ends are evaluable
        exact = ChannelFamily("edge", (0.0, 1.0), value, lambda lam: (np.eye(3), np.zeros(3)))
        assert exact.contains(0.0) and exact.contains(1.0)
        np.testing.assert_array_equal(exact.eval(0.0).dM, np.eye(3))

    def test_fd_fallback_matches_hand_derivative(self):
        def value(lam):
            return np.diag([np.cos(lam), np.cos(lam), 1.0]), np.zeros(3)

        fam = ChannelFamily("cosine", (0.0, 1.0), value)
        ch = fam.eval(0.5)
        np.testing.assert_allclose(ch.dM, np.diag([-np.sin(0.5), -np.sin(0.5), 0.0]),
                                   atol=1e-9)


def test_channel_arrays_are_immutable():
    ch = builtin("phase_flip").eval(0.3)
    with pytest.raises(ValueError):
        ch.M[0, 0] = 5.0
