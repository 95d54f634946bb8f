import itertools
import tracemalloc

import numpy as np
import pytest

from noisyqfi import builtin, correlated, mstate as ms
from noisyqfi.mstate import (
    OrderedState,
    PauliState,
    apply_channel,
    apply_channel_derivative,
    initial_state,
    initial_state_orders,
    pauli_index,
    pauli_label,
    prep_conjugate,
    to_dense,
)
from noisyqfi.series import canonical_directions

from support import (
    PAULI,
    _mul_two_qubit,
    conjugate,
    from_dense,
    kraus_apply,
    kraus_depolarizing,
    kraus_gad,
    kraus_phase_flip,
    lab_prep_conjugate,
    oracle_initial_state_orders,
    oracle_prep_conjugate,
    oracle_to_dense,
    pair_transfer,
    permute_qubits,
    perpendicular_pair,
    random_unit,
    sigma,
    u_c,
    u_prep,
)


def pauli_term(slots) -> np.ndarray:
    """Pauli-coefficient array of a product operator; None marks an identity slot."""
    out = np.array([1.0])
    for v in slots:
        if v is None:
            out = np.kron(out, np.array([1.0, 0.0, 0.0, 0.0]))
        else:
            out = np.kron(out, np.array([0.0, v[0], v[1], v[2]]))
    return out


class TestInitialState:
    def test_maximally_mixed(self):
        st = initial_state(1, 0.0, [0, 0, 1])
        np.testing.assert_allclose(st.coeffs, [0.5, 0, 0, 0])

    def test_pure_z(self):
        st = initial_state(1, 1.0, [0, 0, 1])
        assert st.coeff("I") == 0.5 and st.coeff("Z") == 0.5
        np.testing.assert_allclose(to_dense(st), [[1, 0], [0, 0]], atol=1e-15)

    def test_two_qubit_coefficients(self):
        st = initial_state(2, 0.1, [1, 0, 0])
        assert st.coeff("XI") == pytest.approx(0.1 / 4)
        assert st.coeff("XX") == pytest.approx(0.01 / 4)
        assert np.trace(to_dense(st)).real == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            initial_state(2, 1.5, [0, 0, 1])
        with pytest.raises(ValueError):
            initial_state(2, 0.5, [0, 0, 2])


class TestOrderDecomposition:
    def test_single_qubit(self):
        ordered = initial_state_orders(1, [0, 1, 0])
        np.testing.assert_allclose(ordered.orders[0].coeffs, [0.5, 0, 0, 0])
        np.testing.assert_allclose(ordered.orders[1].coeffs, [0, 0, 0.5, 0])

    def test_two_qubit_first_order_strings(self):
        ordered = initial_state_orders(2, [0, 0, 1])
        nz = np.nonzero(ordered.orders[1].coeffs)[0]
        assert {pauli_label(i, 2) for i in nz} == {"ZI", "IZ"}

    def test_three_qubit_second_order(self):
        ordered = initial_state_orders(3, [1, 0, 0])
        nz = np.nonzero(ordered.orders[2].coeffs)[0]
        labels = {pauli_label(i, 3) for i in nz}
        assert labels == {"XXI", "XIX", "IXX"}
        for i in nz:
            assert ordered.orders[2].coeffs[i] == pytest.approx(1 / 8)

    def test_zero_order_is_identity_string(self):
        for n in (1, 2, 4):
            ordered = initial_state_orders(n, [0, 0, 1])
            expected = np.zeros(4 ** n)
            expected[0] = 0.5 ** n
            np.testing.assert_allclose(ordered.orders[0].coeffs, expected)

    def test_higher_orders_traceless(self):
        ordered = initial_state_orders(3, random_unit(np.random.default_rng(3)))
        for st in ordered.orders[1:]:
            assert st.coeffs[0] == 0.0

    def test_matches_numeric_state(self):
        rng = np.random.default_rng(4)
        r0 = random_unit(rng)
        for n, r in [(1, 0.3), (2, 0.15), (3, 0.08)]:
            ordered = initial_state_orders(n, r0)
            np.testing.assert_allclose(ordered.at_purity(r).coeffs,
                                       initial_state(n, r, r0).coeffs, atol=1e-15)

    def test_padding_beyond_n(self):
        ordered = initial_state_orders(2, [0, 0, 1], max_order=4)
        assert ordered.max_order == 4
        assert not ordered.orders[3].coeffs.any()
        assert not ordered.orders[4].coeffs.any()

    def test_bit_identical_to_slot_growth(self):
        # signed axes put exact zeros next to negative factors: the orders
        # still hold +0.0, as the slot-by-slot sums do
        rng = np.random.default_rng(6)
        dirs = [[0, 1, 0], [0, 0, -1], [-1, 0, 0], [0.6, -0.8, 0.0]]
        dirs += [random_unit(rng) for _ in range(3)]
        for n in (1, 2, 3, 4, 7, 9):
            for r0 in dirs:
                for max_order in (None, 0, 2, n + 2):
                    got = initial_state_orders(n, r0, max_order)
                    want = oracle_initial_state_orders(n, r0, max_order)
                    assert len(got.orders) == len(want.orders)
                    for a, b in zip(got.orders, want.orders):
                        assert a.coeffs.tobytes() == b.coeffs.tobytes(), (n, max_order)


class TestPairGate:
    def test_control_z(self):
        np.testing.assert_allclose(u_c([0, 0, 1]), np.diag([1, 1, 1, -1]), atol=1e-15)

    def test_self_inverse_and_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            U = u_c(random_unit(rng))
            np.testing.assert_allclose(U @ U, np.eye(4), atol=1e-13)
            np.testing.assert_allclose(U, U.conj().T, atol=1e-13)

    def test_conjugation_of_vector_tensor_identity(self):
        # U_c (a.sigma x I) U_c = a.sigma x c.sigma + (a.c)(c.sigma x I - c.sigma x c.sigma)
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, c = rng.normal(size=3), random_unit(rng)
            U = u_c(c)
            lhs = U @ np.kron(sigma(a), PAULI["I"]) @ U.conj().T
            rhs = (np.kron(sigma(a), sigma(c))
                   + (a @ c) * (np.kron(sigma(c), PAULI["I"])
                                - np.kron(sigma(c), sigma(c))))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_conjugation_of_vector_pair(self):
        # U_c (a.sigma x b.sigma) U_c closed form
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = rng.normal(size=3), rng.normal(size=3), random_unit(rng)
            U = u_c(c)
            lhs = U @ np.kron(sigma(a), sigma(b)) @ U.conj().T
            rhs = (np.kron(sigma(np.cross(a, c)), sigma(np.cross(b, c)))
                   + (a @ c) * np.kron(PAULI["I"], sigma(b))
                   + (b @ c) * np.kron(sigma(a), PAULI["I"])
                   + (a @ c) * (b @ c) * (np.kron(sigma(c), sigma(c))
                                          - np.kron(sigma(c), PAULI["I"])
                                          - np.kron(PAULI["I"], sigma(c))))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_pair_transfer_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = random_unit(rng)
            st = PauliState(2, rng.normal(size=16))
            got = PauliState(2, pair_transfer(c) @ st.coeffs)
            U = u_c(c)
            want = from_dense(U @ to_dense(st) @ U.conj().T)
            np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-12)


class TestPrepUnitary:
    def test_two_qubits_is_single_gate(self):
        c = random_unit(np.random.default_rng(9))
        np.testing.assert_allclose(u_prep(2, c), u_c(c), atol=1e-14)

    def test_three_qubit_cz_product_is_diagonal_signs(self):
        U = u_prep(3, [0, 0, 1])
        diag = np.diag(U)
        np.testing.assert_allclose(U, np.diag(diag), atol=1e-14)
        signs = []
        for bits in itertools.product((0, 1), repeat=3):
            parity = bits[0] * bits[1] + bits[0] * bits[2] + bits[1] * bits[2]
            signs.append((-1.0) ** parity)
        np.testing.assert_allclose(diag.real, signs, atol=1e-14)

    def test_unitary_for_random_direction(self):
        U = u_prep(4, random_unit(np.random.default_rng(10)))
        np.testing.assert_allclose(U @ U.conj().T, np.eye(16), atol=1e-12)

    def test_factor_order_irrelevant(self):
        c = random_unit(np.random.default_rng(12))
        n = 4
        gate = u_c(c)
        forward = np.eye(2 ** n, dtype=complex)
        backward = np.eye(2 ** n, dtype=complex)
        pairs = list(itertools.combinations(range(n), 2))
        for i, j in pairs:
            forward = _mul_two_qubit(gate, forward, n, i, j)
        for i, j in reversed(pairs):
            backward = _mul_two_qubit(gate, backward, n, i, j)
        np.testing.assert_allclose(forward, backward, atol=1e-12)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            u_prep(1, [0, 0, 1])

    def test_pairwise_path_matches_dense_path(self):
        # the gather is the preparation for c = z; a general c goes through
        # the frame identity
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            c = random_unit(rng)
            st = PauliState(n, rng.normal(size=4 ** n))
            np.testing.assert_allclose(prep_conjugate(st).coeffs,
                                       conjugate(st, u_prep(n, [0, 0, 1])).coeffs,
                                       atol=1e-11)
            got = lab_prep_conjugate(st, c)
            want = conjugate(st, u_prep(n, c))
            np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-11)


def _directions(rng) -> list[np.ndarray]:
    axes = [sign * np.eye(3)[k] for k in range(3) for sign in (1.0, -1.0)]
    return [random_unit(rng), random_unit(rng)] + axes


def _random_ordered(rng, n: int, orders: int = 3) -> OrderedState:
    return OrderedState(n, tuple(PauliState(n, rng.normal(size=4 ** n))
                                 for _ in range(orders)))


class TestCliffordGather:
    """prep_conjugate (the CZ signed gather) against the pair passes for c = z,
    and for a general c through the frame identity (tests/support.py)."""

    Z = np.array([0.0, 0.0, 1.0])

    @staticmethod
    def _assert_matches(got, want):
        got_rows = got.orders if isinstance(got, OrderedState) else (got,)
        want_rows = want.orders if isinstance(want, OrderedState) else (want,)
        assert len(got_rows) == len(want_rows)
        for g, w in zip(got_rows, want_rows):
            scale = float(np.max(np.abs(w.coeffs)))
            assert float(np.max(np.abs(g.coeffs - w.coeffs))) <= 1e-13 * scale

    def test_matches_pair_passes(self):
        rng = np.random.default_rng(19)
        for n in range(2, 9):
            for state in (PauliState(n, rng.normal(size=4 ** n)),
                          _random_ordered(rng, n)):
                self._assert_matches(prep_conjugate(state),
                                     oracle_prep_conjugate(state, self.Z))
                for c in _directions(rng):
                    self._assert_matches(lab_prep_conjugate(state, c),
                                         oracle_prep_conjugate(state, c))
            # c parallel to r0, on the physical purity orders
            r0 = random_unit(rng)
            ordered = initial_state_orders(n, r0, max_order=min(n, 4))
            self._assert_matches(lab_prep_conjugate(ordered, r0),
                                 oracle_prep_conjugate(ordered, r0))

    def test_matches_pair_passes_at_ten_qubits(self):
        rng = np.random.default_rng(20)
        c = random_unit(rng)
        for state in (PauliState(10, rng.normal(size=4 ** 10)),
                      _random_ordered(rng, 10, orders=2)):
            self._assert_matches(prep_conjugate(state),
                                 oracle_prep_conjugate(state, self.Z))
            self._assert_matches(lab_prep_conjugate(state, c),
                                 oracle_prep_conjugate(state, c))

    def test_axis_directions_are_exact(self):
        # the gather is free of rounding, and so is a signed-permutation frame
        rng = np.random.default_rng(21)
        for n in (2, 3, 5):
            state = PauliState(n, rng.normal(size=4 ** n))
            assert np.array_equal(prep_conjugate(state).coeffs,
                                  oracle_prep_conjugate(state, self.Z).coeffs)
            for c in _directions(rng)[2:]:
                got = lab_prep_conjugate(state, c).coeffs
                want = oracle_prep_conjugate(state, c).coeffs
                assert np.array_equal(got, want)

    def test_table_follows_weight_rule(self):
        # w = number of X/Y letters.  Even w: X -> Y, Y -> -X.  Odd w: I <-> Z
        # and the string takes the sign (-1)^((w-1)/2).
        for n in (1, 2, 3, 4):
            index, sign = ms._cz_table(n)
            for p in range(4 ** n):
                label = pauli_label(p, n)
                w = sum(ch in "XY" for ch in label)
                if w % 2 == 0:
                    image = label.translate(str.maketrans("XY", "YX"))
                    s = (-1) ** label.count("Y")
                else:
                    image = label.translate(str.maketrans("IZ", "ZI"))
                    s = (-1) ** ((w - 1) // 2)
                q = pauli_index(image)
                assert index[q] == p and sign[q] == s, (label, image)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError, match="two qubits"):
            prep_conjugate(PauliState(1, np.array([0.5, 0.1, 0.0, 0.0])))

    def test_gather_allocates_little_beyond_the_output(self):
        # the cached int32 index is read as it is, not copied to 4^n intp
        st = initial_state(10, 0.3, [0.6, 0.0, 0.8])
        prep_conjugate(st)  # builds the table
        tracemalloc.start()
        try:
            out = prep_conjugate(st)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.coeffs.nbytes


class TestConjugate:
    def test_identity_returns_input(self):
        rng = np.random.default_rng(14)
        st = PauliState(2, rng.normal(size=16))
        out = conjugate(st, np.eye(4))
        np.testing.assert_allclose(out.coeffs, st.coeffs, atol=1e-14)

    def test_zero_order_invariant(self):
        rng = np.random.default_rng(15)
        ordered = initial_state_orders(3, random_unit(rng))
        for out in (prep_conjugate(ordered), lab_prep_conjugate(ordered, random_unit(rng))):
            np.testing.assert_allclose(out.orders[0].coeffs, ordered.orders[0].coeffs,
                                       atol=1e-15)

    def test_first_order_perpendicular_closed_form(self):
        # two qubits, c perpendicular to r0: (r0.sigma x c.sigma + c.sigma x r0.sigma)/4
        rng = np.random.default_rng(16)
        c, r0 = perpendicular_pair(rng)
        ordered = lab_prep_conjugate(initial_state_orders(2, r0), c)
        want = (pauli_term([r0, c]) + pauli_term([c, r0])) / 4.0
        np.testing.assert_allclose(ordered.orders[1].coeffs, want, atol=1e-12)

    def test_first_order_general_closed_form(self):
        # all three term groups, any angle between c and r0
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                c, r0 = random_unit(rng), random_unit(rng)
                got = lab_prep_conjugate(initial_state_orders(n, r0, max_order=1), c)
                N = 2 ** n
                want = np.zeros(4 ** n)
                for k in range(n):
                    want += pauli_term([r0 if s == k else c for s in range(n)])
                    want += (r0 @ c) * pauli_term(
                        [c if s == k else None for s in range(n)])
                want -= n * (r0 @ c) * pauli_term([c] * n)
                np.testing.assert_allclose(got.orders[1].coeffs, want / N, atol=1e-12)

    def test_all_control_string_coefficient(self):
        # the c^(x)n term of the decomposition carries weight -n (r0.c) / 2^n
        rng = np.random.default_rng(18)
        n = 3
        c, r0 = random_unit(rng), random_unit(rng)
        got = lab_prep_conjugate(initial_state_orders(n, r0, max_order=1), c)
        N = 2 ** n
        first_two_groups = np.zeros(4 ** n)
        for k in range(n):
            first_two_groups += pauli_term([r0 if s == k else c for s in range(n)])
            first_two_groups += (r0 @ c) * pauli_term(
                [c if s == k else None for s in range(n)])
        residue = got.orders[1].coeffs - first_two_groups / N
        np.testing.assert_allclose(residue, -n * (r0 @ c) / N * pauli_term([c] * n),
                                   atol=1e-12)


class TestApplyChannel:
    def test_unital_fixes_identity(self):
        ch = builtin("phase_flip").eval(0.3)
        st = initial_state(3, 0.0, [0, 0, 1])
        out = apply_channel(st, ch)
        np.testing.assert_allclose(out.coeffs, st.coeffs, atol=1e-15)

    def test_phase_flip_scales_xz_string(self):
        lam = 0.23
        ch = builtin("phase_flip").eval(lam)
        coeffs = np.zeros(16)
        coeffs[pauli_index("XZ")] = 1.0
        out = apply_channel(PauliState(2, coeffs), ch)
        want = np.zeros(16)
        want[pauli_index("XZ")] = 1.0 - 2.0 * lam
        np.testing.assert_allclose(out.coeffs, want, atol=1e-15)

    def test_gad_shifts_identity(self):
        lam = 0.37
        ch = builtin("gad", p=1.0).eval(lam)
        out = apply_channel(initial_state(1, 0.0, [0, 0, 1]), ch)
        assert out.coeff("I") == pytest.approx(0.5)
        assert out.coeff("Z") == pytest.approx(lam / 2.0)

    @pytest.mark.parametrize("maker,fam", [
        (kraus_phase_flip, builtin("phase_flip")),
        (kraus_depolarizing, builtin("depolarizing")),
        (lambda lam: kraus_gad(lam, 0.8), builtin("gad", p=0.8)),
    ])
    def test_matches_kraus_oracle(self, maker, fam):
        rng = np.random.default_rng(19)
        lam = 0.41
        ch = fam.eval(lam)
        ks = maker(lam)
        for n in (1, 2, 3):
            st = PauliState(n, rng.normal(size=4 ** n))
            got = to_dense(apply_channel(st, ch))
            want = kraus_apply(to_dense(st), ks, n)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_derivative_matches_fd_of_channel(self):
        rng = np.random.default_rng(20)
        fam = builtin("gad", p=0.7)
        lam, h = 0.3, 1e-6
        st = PauliState(2, rng.normal(size=16))
        got = apply_channel_derivative(st, fam.eval(lam))
        hi = apply_channel(st, fam.eval(lam + h))
        lo = apply_channel(st, fam.eval(lam - h))
        np.testing.assert_allclose(got.coeffs, (hi.coeffs - lo.coeffs) / (2 * h),
                                   atol=1e-8)

    def test_commutes_with_order_decomposition(self):
        rng = np.random.default_rng(21)
        fam = builtin("gad", p=0.9)
        ch = fam.eval(0.52)
        r0 = random_unit(rng)
        n, r = 3, 0.2
        whole = apply_channel(initial_state(n, r, r0), ch)
        ordered = apply_channel(initial_state_orders(n, r0), ch)
        np.testing.assert_allclose(ordered.at_purity(r).coeffs, whole.coeffs,
                                   atol=1e-14)


class TestDenseConversion:
    def test_pure_state_matrix(self):
        st = PauliState(1, [0.5, 0.0, 0.0, 0.5])
        np.testing.assert_allclose(to_dense(st), [[1, 0], [0, 0]], atol=1e-15)

    def test_round_trip_random_hermitian(self):
        rng = np.random.default_rng(22)
        n = 3
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        H = (A + A.conj().T) / 2.0
        st = from_dense(H)
        np.testing.assert_allclose(to_dense(st), H, atol=1e-13)

    def test_round_trip_coeffs(self):
        rng = np.random.default_rng(24)
        st = PauliState(2, rng.normal(size=16))
        out = from_dense(to_dense(st))
        np.testing.assert_allclose(out.coeffs, st.coeffs, atol=1e-13)

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            from_dense(M)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            from_dense(np.eye(3))


def _one_string_per_flip_pattern(st: PauliState) -> bool:
    """No two nonzero strings share their X/Y slots, so every dense entry is
    one string's term times +-1 or +-i."""
    digits = np.flatnonzero(st.coeffs)[:, None] // 4 ** np.arange(st.n) % 4
    flips = ((digits == 1) | (digits == 2)) @ 2 ** np.arange(st.n)
    return len(np.unique(flips)) == len(flips)


def _assert_dense_matches_oracle(st: PauliState) -> bool:
    """to_dense against the tensordot oracle: exactly where every entry is a
    single term (the sign of a zero aside), else to 1e-15 * 2^n * max|c|
    (an entry sums up to 2^n strings).  Returns whether it was exact."""
    got, want = to_dense(st), oracle_to_dense(st)
    assert got.shape == want.shape and got.dtype == want.dtype
    if _one_string_per_flip_pattern(st):
        assert np.array_equal(got, want)
        return True
    tol = 1e-15 * 2 ** st.n * float(np.max(np.abs(st.coeffs)))
    assert float(np.max(np.abs(got - want))) <= tol
    return False


def _orders_in_frame(fam, lam, n, c, r0):
    """The purity orders after the preparation, the channel and its
    derivative, as the series builds them in the frame of c."""
    r0_frame, ch = correlated(fam, lam, n, 0.0, c, r0).in_frame()
    prepared = prep_conjugate(initial_state_orders(n, r0_frame, min(n, 4)))
    return [*prepared.orders, *apply_channel(prepared, ch).orders,
            *apply_channel_derivative(prepared, ch).orders]


class TestDenseOracle:
    """to_dense (a Walsh-Hadamard line per flip pattern) against the slot by
    slot tensordot contraction of tests/support.py."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_full_arrays(self, n):
        rng = np.random.default_rng(40 + n)
        _assert_dense_matches_oracle(PauliState(n, rng.uniform(-1.0, 1.0, 4 ** n)))

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_zero_state(self, n):
        got = to_dense(PauliState(n, np.zeros(4 ** n)))
        assert got.shape == (2 ** n, 2 ** n) and not got.any()

    def test_single_strings(self):
        rng = np.random.default_rng(41)
        labels = list("IXYZ") + ["YYYYYYYYYY", "XIZYXYZIIX",
                                 "".join(rng.choice(list("IXYZ"), 10))]
        for label in labels:
            coeffs = np.zeros(4 ** len(label))
            coeffs[pauli_index(label)] = -0.75
            assert _assert_dense_matches_oracle(PauliState(len(label), coeffs)), label

    @pytest.mark.parametrize("n", range(2, 10))
    def test_purity_orders(self, n):
        rng = np.random.default_rng(42 + n)
        exact = 0
        for fam in (builtin("phase_flip"), builtin("depolarizing"), builtin("gad", p=0.8)):
            c, r0 = canonical_directions(fam.eval(0.3))
            for st in _orders_in_frame(fam, 0.3, n, c, r0):
                exact += _assert_dense_matches_oracle(st)
        # r0 with all three components in the frame of c
        for st in _orders_in_frame(builtin("gad", p=0.8), 0.3, n, random_unit(rng),
                                   random_unit(rng)):
            _assert_dense_matches_oracle(st)
        assert exact > 0

    def test_purity_orders_at_ten_qubits(self):
        fam = builtin("phase_flip")
        c, r0 = canonical_directions(fam.eval(0.3))
        for st in _orders_in_frame(fam, 0.3, 10, c, r0):
            _assert_dense_matches_oracle(st)

    def test_single_string_allocates_only_the_output(self):
        # the oracle holds two 2^n x 2^n complex arrays at its peak
        coeffs = np.zeros(4 ** 10)
        coeffs[pauli_index("XIZYXYZIIX")] = 1.0
        st = PauliState(10, coeffs)
        to_dense(st)
        tracemalloc.start()
        try:
            out = to_dense(st)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes


class TestPauliAlgebra:
    def test_product_rule(self):
        # sigma_a sigma_b = (a.b) I + i (a x b).sigma, via dense 2x2 products
        rng = np.random.default_rng(25)
        for _ in range(100):
            a, b = rng.normal(size=3), rng.normal(size=3)
            lhs = sigma(a) @ sigma(b)
            rhs = (a @ b) * PAULI["I"] + 1j * sigma(np.cross(a, b))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_label_index_round_trip(self):
        for n in (1, 2, 3):
            for idx in range(4 ** n):
                assert pauli_index(pauli_label(idx, n)) == idx


class TestPermutation:
    def test_swap_two_qubits(self):
        rng = np.random.default_rng(26)
        st = PauliState(2, rng.normal(size=16))
        swapped = permute_qubits(st, (1, 0))
        assert swapped.coeff("XZ") == st.coeff("ZX")
        assert swapped.coeff("IY") == st.coeff("YI")

    def test_matches_dense_permutation(self):
        rng = np.random.default_rng(27)
        st = PauliState(3, rng.normal(size=64))
        perm = (2, 0, 1)
        got = to_dense(permute_qubits(st, perm))
        t = to_dense(st).reshape((2,) * 6)
        want = t.transpose(perm + tuple(3 + p for p in perm)).reshape(8, 8)
        np.testing.assert_allclose(got, want, atol=1e-13)


class TestCaps:
    def test_pauli_cap(self):
        with pytest.raises(ValueError, match="1..14"):
            PauliState(15, np.zeros(4 ** 15 // 4 ** 15))
        with pytest.raises(ValueError):
            initial_state(0, 0.1, [0, 0, 1])

    def test_dense_cap(self):
        st = initial_state(11, 0.0, [0, 0, 1])
        with pytest.raises(ValueError, match="1..10"):
            to_dense(st)

    def test_immutable_coefficients(self):
        st = initial_state(2, 0.2, [1, 0, 0])
        with pytest.raises(ValueError):
            st.coeffs[0] = 1.0


class TestCoefficientOwnership:
    def test_caller_writes_do_not_reach_the_state(self):
        mine = np.arange(16.0)
        st = PauliState(2, mine)
        mine[0] = 99.0
        # a read-only view of the caller's writable array
        view = mine[:]
        view.flags.writeable = False
        from_view = PauliState(2, view)
        mine[1] = 99.0
        # a read-only array that its owner makes writable again
        frozen = np.arange(16.0)
        frozen.flags.writeable = False
        from_frozen = PauliState(2, frozen)
        frozen.flags.writeable = True
        frozen[2] = 99.0
        assert st.coeffs[0] == 0.0 and from_view.coeffs[1] == 1.0
        assert from_frozen.coeffs[2] == 2.0

    def test_builders_do_not_copy_their_output(self, monkeypatch):
        # the constructor's copy runs in __post_init__, which the builders skip
        copies = []
        post_init = PauliState.__post_init__
        monkeypatch.setattr(PauliState, "__post_init__",
                            lambda self: copies.append(self.n) or post_init(self))
        ch = builtin("gad", p=0.8).eval(0.3)
        ordered = initial_state_orders(3, [0.6, 0.0, 0.8])
        prepared = prep_conjugate(ordered)
        states = [initial_state(3, 0.2, [0, 0, 1]), *ordered.orders, *prepared.orders,
                  *apply_channel(prepared, ch).orders,
                  *apply_channel_derivative(prepared, ch).orders,
                  prepared.at_purity(0.2)]
        assert not copies
        for st in states:
            assert not st.coeffs.flags.writeable
