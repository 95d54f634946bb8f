import numpy as np
import pytest

from noisyqfi import builtin
from noisyqfi.fisher import ProbModel, cfi, in_eigenbasis, qfi_exact
from noisyqfi.protocols import build_state, sqsc

from support import (
    PAULI,
    dense_pair,
    dense_qfi,
    qfi_numeric_derivative,
    random_state,
    sigma,
    sld_eigen_measurement,
    sld_exact,
)


def phase_flip_state(lam: float, r: float, r0=(1.0, 0.0, 0.0)):
    spec = sqsc(builtin("phase_flip"), lam, r, np.asarray(r0))
    return dense_pair(build_state(spec))


class TestSldExact:
    def test_no_information(self):
        rho = np.eye(4) / 4.0
        res = sld_exact(rho, np.zeros((4, 4)))
        assert res.qfi == 0.0
        np.testing.assert_allclose(res.L, np.zeros((4, 4)), atol=1e-15)

    def test_phase_flip_closed_form(self):
        for lam in (0.1, 0.35, 0.8):
            for r in (0.2, 0.6, 0.95):
                rho, drho = phase_flip_state(lam, r)
                want = 4.0 * r ** 2 / (1.0 - (1.0 - 2.0 * lam) ** 2 * r ** 2)
                assert dense_qfi(rho, drho) == pytest.approx(want, rel=1e-10)

    def test_pure_state_phase_shift(self):
        # rotation about z on |+><+|: unit information at every angle
        lam = 0.42
        spec = sqsc(builtin("phase_shift"), lam, 1.0, [1, 0, 0])
        rho, drho = dense_pair(build_state(spec))
        assert dense_qfi(rho, drho) == pytest.approx(1.0, rel=1e-8)

    def test_result_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            rho = random_state(rng, n)
            H = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
            drho = (H + H.conj().T) / 2.0
            drho -= np.trace(drho) * np.eye(rho.shape[0]) / rho.shape[0]
            res = sld_exact(rho, drho)
            assert np.max(np.abs(res.L - res.L.conj().T)) < 1e-10
            assert res.qfi >= -1e-10
            assert abs(np.trace(rho @ res.L).real) < 1e-8
            # defining equation on the support
            residual = drho - 0.5 * (res.L @ rho + rho @ res.L)
            assert np.max(np.abs(residual)) < 1e-8

    def test_dropped_pairs_counted(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = 0.5 * PAULI["Z"]
        res = sld_exact(rho, drho)
        assert res.dropped_pairs == 1  # the (0, 0) null pair

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            sld_exact(np.diag([1.5, -0.5]).astype(complex), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="unit trace"):
            sld_exact(np.eye(2, dtype=complex), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="traceless"):
            sld_exact(np.eye(2, dtype=complex) / 2.0, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            sld_exact(np.array([[0.5, 0.3], [0.0, 0.5]]), np.zeros((2, 2)))

    def test_unitary_invariance(self):
        # conjugating the whole family by a fixed unitary leaves the QFI alone
        rng = np.random.default_rng(32)
        for _ in range(20):
            rho = random_state(rng, 2)
            H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            drho = (H + H.conj().T) / 2.0
            drho -= np.trace(drho) * np.eye(4) / 4.0
            G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            U = np.linalg.qr(G)[0]
            base = dense_qfi(rho, drho)
            moved = dense_qfi(U @ rho @ U.conj().T, U @ drho @ U.conj().T)
            assert moved == pytest.approx(base, rel=1e-9)


def _random_pair(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    rho = random_state(rng, n)
    H = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
    drho = (H + H.conj().T) / 2.0
    return rho, drho - np.trace(drho) * np.eye(rho.shape[0]) / rho.shape[0]


def _stack(rng, count: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Two-qubit (rho, drho) pairs; the last rho has rank 2, so its null pairs drop."""
    pairs = [_random_pair(rng, 2) for _ in range(count - 1)]
    rho, drho = _random_pair(rng, 1)
    pairs.append((np.kron(rho, np.diag([1.0, 0.0])), np.kron(drho, np.diag([1.0, 0.0]))))
    return np.array([r for r, _ in pairs]), np.array([d for _, d in pairs])


class TestStackedQfi:
    def test_stack_equals_its_matrices(self):
        rng = np.random.default_rng(41)
        rho, drho = _stack(rng)
        per_matrix = np.array([1e-14, 0.3, 1e-3, 0.2, 0.05, 0.5])
        for eps in (None, 0.2, per_matrix):
            got = dense_qfi(rho, drho, eps)
            cuts = [eps] * len(rho) if eps is None or np.ndim(eps) == 0 else eps
            assert got.shape == (len(rho),)
            assert got.tolist() == [dense_qfi(r, d, e) for r, d, e in zip(rho, drho, cuts)]
        # the explicit cutoffs drop pairs the default keeps
        assert dense_qfi(rho, drho, per_matrix).tolist() != dense_qfi(rho, drho).tolist()

    def test_stack_of_stacks_keeps_its_shape(self):
        rho, drho = _stack(np.random.default_rng(42))
        got = dense_qfi(rho.reshape(2, 3, 4, 4), drho.reshape(2, 3, 4, 4))
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == dense_qfi(rho, drho).tolist()

    @pytest.mark.parametrize("where", [0, 3, 5])
    @pytest.mark.parametrize("defect", ["hermitian", "trace", "traceless", "psd"])
    def test_bad_matrix_anywhere_raises_its_own_error(self, defect, where):
        rho, drho = _stack(np.random.default_rng(43))
        bad_rho, bad_drho = rho[where].copy(), drho[where].copy()
        if defect == "hermitian":
            bad_rho[0, 1] += 0.3
        elif defect == "trace":
            bad_rho *= 2.0
        elif defect == "traceless":
            bad_drho += 0.1 * np.eye(4)
        else:
            bad_rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError) as alone:
            dense_qfi(bad_rho, bad_drho)
        rho[where], drho[where] = bad_rho, bad_drho
        with pytest.raises(ValueError) as stacked:
            dense_qfi(rho, drho)
        assert str(stacked.value) == str(alone.value)


class TestEigenbasisInput:
    @pytest.mark.parametrize("defect", ["hermitian", "trace", "traceless", "psd"])
    def test_checks_are_those_of_the_matrix_call(self, defect):
        # the eigenbasis form is not checked again: every check of a matrix
        # runs in in_eigenbasis, with an error that names it
        rho, drho = _stack(np.random.default_rng(45))
        if defect == "hermitian":
            rho[2, 0, 1] += 0.3
        elif defect == "trace":
            rho[2] *= 2.0
        elif defect == "traceless":
            drho[2] += 0.1 * np.eye(4)
        else:
            rho[2] = np.diag([1.5, -0.5, 0.0, 0.0])
        message = {"hermitian": "rho is not Hermitian", "trace": "rho must have unit trace",
                   "traceless": "drho must be traceless",
                   "psd": "rho is not positive semidefinite"}[defect]
        with pytest.raises(ValueError, match=message):
            in_eigenbasis(rho, drho)

    def test_eigenvalues_must_match_drho(self):
        p, G = in_eigenbasis(*_stack(np.random.default_rng(46)))
        with pytest.raises(ValueError, match="eigenvalues and drho must have matching"):
            qfi_exact(p[:, :3], G)


class TestNumericDerivative:
    def test_linear_family(self):
        def state_at(lam):
            return 0.5 * (PAULI["I"] + lam * PAULI["Z"])

        got = qfi_numeric_derivative(state_at, 0.2, h=1e-5)
        want = dense_qfi(state_at(0.2), 0.5 * PAULI["Z"])
        assert got == pytest.approx(want, rel=1e-7)

    def test_constant_family(self):
        assert qfi_numeric_derivative(lambda lam: np.eye(2) / 2.0, 0.5, h=1e-5) == 0.0

    def test_phase_flip_family(self):
        r, r0 = 0.4, np.array([1.0, 0.0, 0.0])
        fam = builtin("phase_flip")

        def state_at(lam):
            spec = sqsc(fam, lam, r, r0)
            return dense_pair(build_state(spec))[0]

        lam = 0.3
        want = 4.0 * r ** 2 / (1.0 - (1.0 - 2.0 * lam) ** 2 * r ** 2)
        assert qfi_numeric_derivative(state_at, lam, h=1e-5) == pytest.approx(want, rel=1e-6)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            qfi_numeric_derivative(lambda lam: np.eye(2) / 2.0, 0.5, h=0.0)


class TestCfi:
    def test_binary_coin(self):
        lam = 0.3
        model = ProbModel([lam, 1.0 - lam], [1.0, -1.0])
        assert cfi(model) == pytest.approx(1.0 / (lam * (1.0 - lam)))

    def test_constant_distribution(self):
        model = ProbModel([0.25] * 4, [0.0] * 4)
        assert cfi(model) == 0.0

    def test_skips_null_outcomes(self):
        model = ProbModel([0.5, 0.5, 0.0], [0.3, -0.3, 0.0])
        assert np.isfinite(cfi(model))

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            cfi(ProbModel([0.7, 0.7], [0.0, 0.0]))
        with pytest.raises(ValueError):
            cfi(ProbModel([0.5, 0.5], [0.5, 0.1]))
        with pytest.raises(ValueError):
            cfi(ProbModel([1.1, -0.1], [1.0, -1.0]))

    def test_quantum_bound_random_measurements(self):
        # classical information from any projective measurement stays below the QFI
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            dim = 2 ** n
            rho = random_state(rng, n)
            H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            drho = (H + H.conj().T) / 2.0
            drho -= np.trace(drho) * np.eye(dim) / dim
            G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            U = np.linalg.qr(G)[0]
            p = np.array([ (U[:, k].conj() @ rho @ U[:, k]).real for k in range(dim) ])
            dp = np.array([ (U[:, k].conj() @ drho @ U[:, k]).real for k in range(dim) ])
            model = ProbModel(p / p.sum(), dp - dp.sum() / dim)
            assert cfi(model) <= dense_qfi(rho, drho) + 1e-8

    def test_sld_measurement_saturates_full_rank(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            dim = 2 ** n
            rho = random_state(rng, n)
            H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            drho = (H + H.conj().T) / 2.0
            drho -= np.trace(drho) * np.eye(dim) / dim
            res = sld_exact(rho, drho)
            projs = sld_eigen_measurement(res)
            p = np.array([np.trace(P @ rho).real for P in projs])
            dp = np.array([np.trace(P @ drho).real for P in projs])
            got = cfi(ProbModel(p, dp))
            assert got == pytest.approx(res.qfi, rel=1e-7)


class TestSldMeasurement:
    def test_sigma_z_projectors(self):
        res = sld_exact(0.5 * (PAULI["I"] + 0.3 * PAULI["Z"]), 0.5 * PAULI["Z"])
        projs = sld_eigen_measurement(res)
        assert len(projs) == 2
        np.testing.assert_allclose(sum(projs), np.eye(2), atol=1e-12)
        for P in projs:
            np.testing.assert_allclose(P @ P, P, atol=1e-12)
        basis = {np.argmax(np.abs(np.diag(P))) for P in projs}
        assert basis == {0, 1}
        for P in projs:
            np.testing.assert_allclose(P - np.diag(np.diag(P)), 0.0, atol=1e-12)

    def test_degenerate_zero_operator(self):
        res = sld_exact(np.eye(4, dtype=complex) / 4.0, np.zeros((4, 4)))
        projs = sld_eigen_measurement(res)
        np.testing.assert_allclose(sum(projs), np.eye(4), atol=1e-10)

    def test_phase_flip_optimal_measurement_is_along_r0(self):
        # optimal single-qubit protocol: projectors along the input direction,
        # independent of the parameter value
        r0 = np.array([1.0, 0.0, 0.0])
        expected = [0.5 * (PAULI["I"] + sigma(r0)), 0.5 * (PAULI["I"] - sigma(r0))]
        for lam in (0.2, 0.7):
            rho, drho = phase_flip_state(lam, 0.5, r0)
            projs = sld_eigen_measurement(sld_exact(rho, drho))
            match = [min(np.max(np.abs(P - E)) for P in projs) for E in expected]
            assert max(match) < 1e-10
