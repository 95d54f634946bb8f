import itertools
import math
import tracemalloc

import numpy as np
import pytest

from noisyqfi import builtin, correlated, mstate as ms, sqsc
from noisyqfi.bloch import _pauli_maps
from noisyqfi.blocks import PERPENDICULAR_TOL
from noisyqfi.protocols import _frame, _strings_the_series_reads, build_state, purity_orders
from noisyqfi.mstate import (
    OrderedState,
    PauliStrings,
    apply_channel,
    apply_channel_derivative,
    initial_state,
    initial_state_orders,
    prep_conjugate,
    to_dense,
)
from noisyqfi.series import canonical_directions

from support import (
    PAULI,
    PauliState,
    _mul_two_qubit,
    as_dense,
    as_strings,
    at_purity,
    conjugate,
    cz_table,
    dense_of,
    dense_state,
    from_dense,
    full_strings,
    kraus_apply,
    kraus_depolarizing,
    kraus_gad,
    kraus_phase_flip,
    lab_prep_conjugate,
    oracle_initial_state_orders,
    oracle_measured_state,
    oracle_output_orders,
    oracle_prep_conjugate,
    oracle_to_dense,
    pair_transfer,
    pauli_index,
    pauli_label,
    permute_qubits,
    perpendicular_pair,
    random_unit,
    same_coeffs,
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
        assert st.strings.tolist() == [0] and st.coeffs.tolist() == [0.5]

    def test_pure_z(self):
        st = initial_state(1, 1.0, [0, 0, 1])
        assert dense_state(st).coeff("I") == 0.5 and dense_state(st).coeff("Z") == 0.5
        np.testing.assert_allclose(dense_of(to_dense(st)), [[1, 0], [0, 0]], atol=1e-15)

    def test_two_qubit_coefficients(self):
        st = dense_state(initial_state(2, 0.1, [1, 0, 0]))
        assert st.coeff("XI") == pytest.approx(0.1 / 4)
        assert st.coeff("XX") == pytest.approx(0.01 / 4)
        assert np.trace(oracle_to_dense(st)).real == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            initial_state(2, 1.5, [0, 0, 1])
        with pytest.raises(ValueError):
            initial_state(2, 0.5, [0, 0, 2])


class TestOrderDecomposition:
    def test_single_qubit(self):
        ordered = as_dense(initial_state_orders(1, [0, 1, 0]))
        np.testing.assert_allclose(ordered.orders[0].coeffs, [0.5, 0, 0, 0])
        np.testing.assert_allclose(ordered.orders[1].coeffs, [0, 0, 0.5, 0])

    def test_two_qubit_first_order_strings(self):
        ordered = initial_state_orders(2, [0, 0, 1])
        assert {pauli_label(i, 2) for i in ordered.orders[1].strings} == {"ZI", "IZ"}

    def test_three_qubit_second_order(self):
        ordered = initial_state_orders(3, [1, 0, 0])
        st = ordered.orders[2]
        assert {pauli_label(i, 3) for i in st.strings} == {"XXI", "XIX", "IXX"}
        np.testing.assert_allclose(st.coeffs, 1 / 8)

    def test_zero_order_is_identity_string(self):
        for n in (1, 2, 4):
            st = initial_state_orders(n, [0, 0, 1]).orders[0]
            assert st.strings.tolist() == [0] and st.coeffs.tolist() == [0.5 ** n]

    def test_higher_orders_traceless(self):
        ordered = initial_state_orders(3, random_unit(np.random.default_rng(3)))
        for st in ordered.orders[1:]:
            assert 0 not in st.strings

    def test_matches_numeric_state(self):
        rng = np.random.default_rng(4)
        r0 = random_unit(rng)
        for n, r in [(1, 0.3), (2, 0.15), (3, 0.08)]:
            ordered = initial_state_orders(n, r0)
            np.testing.assert_allclose(at_purity(ordered, r).coeffs,
                                       dense_state(initial_state(n, r, r0)).coeffs,
                                       atol=1e-15)

    def test_padding_beyond_n(self):
        ordered = initial_state_orders(2, [0, 0, 1], max_order=4)
        assert ordered.max_order == 4
        assert ordered.orders[3].strings.size == 0 == ordered.orders[4].strings.size

    def test_bit_identical_to_slot_growth(self):
        # signed axes put exact zeros next to negative factors: the orders
        # hold no zero, so their dense form has +0.0 where the slot-by-slot
        # sums do
        rng = np.random.default_rng(6)
        dirs = [[0, 1, 0], [0, 0, -1], [-1, 0, 0], [0.6, -0.8, 0.0]]
        dirs += [random_unit(rng) for _ in range(3)]
        for n in (1, 2, 3, 4, 7, 9):
            for r0 in dirs:
                for max_order in (None, 0, 2, n + 2):
                    got = as_dense(initial_state_orders(n, r0, max_order))
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
            want = from_dense(U @ oracle_to_dense(st) @ U.conj().T)
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
            st = full_strings(rng, n)
            np.testing.assert_allclose(dense_state(prep_conjugate(st)).coeffs,
                                       conjugate(st, u_prep(n, [0, 0, 1])).coeffs,
                                       atol=1e-11)
            got = lab_prep_conjugate(st, c)
            want = conjugate(st, u_prep(n, c))
            np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-11)


def _directions(rng) -> list[np.ndarray]:
    axes = [sign * np.eye(3)[k] for k in range(3) for sign in (1.0, -1.0)]
    return [random_unit(rng), random_unit(rng)] + axes


def _random_ordered(rng, n: int, orders: int = 3) -> OrderedState:
    """Orders on random sets of strings, from a few to all 4^n."""
    out = []
    for _ in range(orders):
        strings = np.flatnonzero(rng.random(4 ** n) < rng.uniform(0.01, 1.0))
        out.append(PauliStrings(n, strings, rng.normal(size=len(strings))))
    return OrderedState(n, tuple(out))


class TestCliffordGather:
    """prep_conjugate (the CZ conjugation decoded string by string) against
    the pair passes for c = z, for a general c through the frame identity,
    and against the signed gather table of all 4^n strings (tests/support.py)."""

    Z = np.array([0.0, 0.0, 1.0])

    @staticmethod
    def _assert_matches(got, want):
        got, want = as_dense(got), as_dense(want)
        got_rows = got.orders if hasattr(got, "orders") else (got,)
        want_rows = want.orders if hasattr(want, "orders") else (want,)
        assert len(got_rows) == len(want_rows)
        for g, w in zip(got_rows, want_rows):
            scale = float(np.max(np.abs(w.coeffs)))
            assert float(np.max(np.abs(g.coeffs - w.coeffs))) <= 1e-13 * scale

    def test_matches_pair_passes(self):
        rng = np.random.default_rng(19)
        for n in range(2, 9):
            for state in (full_strings(rng, n), _random_ordered(rng, n)):
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
        for state in (full_strings(rng, 10), _random_ordered(rng, 10, orders=2)):
            self._assert_matches(prep_conjugate(state),
                                 oracle_prep_conjugate(state, self.Z))
            self._assert_matches(lab_prep_conjugate(state, c),
                                 oracle_prep_conjugate(state, c))

    def test_axis_directions_are_exact(self):
        # the gather is free of rounding, and so is a signed-permutation frame
        rng = np.random.default_rng(21)
        for n in (2, 3, 5):
            state = full_strings(rng, n)
            assert np.array_equal(dense_state(prep_conjugate(state)).coeffs,
                                  oracle_prep_conjugate(state, self.Z).coeffs)
            for c in _directions(rng)[2:]:
                got = lab_prep_conjugate(state, c).coeffs
                want = oracle_prep_conjugate(state, c).coeffs
                assert np.array_equal(got, want)

    def test_image_follows_weight_rule(self):
        # w = number of X/Y letters.  Even w: X -> Y, Y -> -X.  Odd w: I <-> Z
        # and the string takes the sign (-1)^((w-1)/2).
        for n in (2, 3, 4):
            for p in range(4 ** n):
                label = pauli_label(p, n)
                w = sum(ch in "XY" for ch in label)
                if w % 2 == 0:
                    image = label.translate(str.maketrans("XY", "YX"))
                    s = (-1) ** label.count("Y")
                else:
                    image = label.translate(str.maketrans("IZ", "ZI"))
                    s = (-1) ** ((w - 1) // 2)
                out = prep_conjugate(PauliStrings(n, [p], [1.0]))
                assert out.strings.tolist() == [pauli_index(image)], (label, image)
                assert out.coeffs.tolist() == [s], label

    @staticmethod
    def _assert_is_table_gather(st: PauliStrings):
        # the image of P is index[P] (the map is an involution) with P's sign
        index, sign = cz_table(st.n)
        out = prep_conjugate(st)
        assert out.strings.dtype == np.intp
        assert np.array_equal(out.strings, index[st.strings])
        assert out.coeffs.tobytes() == (st.coeffs * sign[st.strings]).tobytes()

    def test_decode_is_the_table_on_every_string(self):
        rng = np.random.default_rng(22)
        for n in range(2, 8):
            self._assert_is_table_gather(full_strings(rng, n))

    def test_decode_is_the_table_at_ten_qubits(self):
        rng = np.random.default_rng(23)
        r0 = random_unit(rng)
        self._assert_is_table_gather(initial_state(10, 0.3, r0))
        for st in initial_state_orders(10, r0, max_order=4).orders:
            self._assert_is_table_gather(st)
        strings = np.flatnonzero(rng.random(4 ** 10) < 0.01)
        self._assert_is_table_gather(PauliStrings(10, strings, rng.normal(size=len(strings))))

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError, match="two qubits"):
            prep_conjugate(PauliStrings(1, [0, 1], [0.5, 0.1]))
        with pytest.raises(ValueError, match="two qubits"):
            prep_conjugate(initial_state_orders(1, [1, 0, 0]))

    def test_orders_decode_in_one_pass(self):
        # every order of an OrderedState decoded at once, empty orders among
        # them, is each order decoded alone, bit for bit
        for r0 in ([0.36, 0.48, 0.8], [1, 0, 0]):
            ordered = initial_state_orders(6, r0, 8)
            got = prep_conjugate(ordered)
            assert len(got.orders) == 9 and not got.orders[8].strings.size
            for a, st in zip(got.orders, ordered.orders):
                b = prep_conjugate(st)
                assert np.array_equal(a.strings, b.strings)
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert prep_conjugate(OrderedState(3, ())).orders == ()

    def test_decode_allocates_little_beyond_the_output(self):
        # decoded in place from the strings: no 4^n table, no warm-up call
        st = initial_state(10, 0.3, [0.6, 0.0, 0.8])
        tracemalloc.start()
        try:
            out = prep_conjugate(st)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (out.strings.nbytes + out.coeffs.nbytes)


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
            np.testing.assert_allclose(as_dense(out).orders[0].coeffs,
                                       as_dense(ordered).orders[0].coeffs, atol=1e-15)

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
        assert out.strings.tolist() == st.strings.tolist() == [0]
        np.testing.assert_allclose(out.coeffs, st.coeffs, atol=1e-15)

    def test_phase_flip_scales_xz_string(self):
        lam = 0.23
        ch = builtin("phase_flip").eval(lam)
        out = apply_channel(PauliStrings(2, [pauli_index("XZ")], [1.0]), ch)
        want = np.zeros(16)
        want[pauli_index("XZ")] = 1.0 - 2.0 * lam
        np.testing.assert_allclose(dense_state(out).coeffs, want, atol=1e-15)

    def test_gad_shifts_identity(self):
        lam = 0.37
        ch = builtin("gad", p=1.0).eval(lam)
        out = dense_state(apply_channel(initial_state(1, 0.0, [0, 0, 1]), ch))
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
            st = full_strings(rng, n)
            got = dense_of(to_dense(apply_channel(st, ch)))
            want = kraus_apply(dense_of(to_dense(st)), ks, n)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_pass_allocates_with_the_strings(self):
        # the qubit-1..n-1 tails are grouped by sorting them: a byte mask and
        # a rank array over all 4^(n-1) tails took 36 MiB here, 577x the
        # output.  The pass holds the four leading digits of each tail and
        # their images, then the images and their strings, 64 bytes a tail
        # against 16 an output string, and phase flip keeps one digit of four
        # here: 0.37 MiB measured, 5.9x the output
        fam = builtin("phase_flip")
        r0, ch = correlated(fam, 0.3, 12, 0.2, *canonical_directions(fam.eval(0.3))).in_frame
        st = prep_conjugate(initial_state(12, 0.2, r0))
        tracemalloc.start()
        try:
            out = apply_channel(st, ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.strings) == 2 ** 12
        assert peak <= 7 * (out.strings.nbytes + out.coeffs.nbytes)

    def test_derivative_matches_fd_of_channel(self):
        rng = np.random.default_rng(20)
        fam = builtin("gad", p=0.7)
        lam, h = 0.3, 1e-6
        st = full_strings(rng, 2)
        got, hi, lo = (dense_state(x) for x in (
            apply_channel_derivative(st, fam.eval(lam)), apply_channel(st, fam.eval(lam + h)),
            apply_channel(st, fam.eval(lam - h))))
        np.testing.assert_allclose(got.coeffs, (hi.coeffs - lo.coeffs) / (2 * h),
                                   atol=1e-8)

    def test_commutes_with_order_decomposition(self):
        rng = np.random.default_rng(21)
        fam = builtin("gad", p=0.9)
        ch = fam.eval(0.52)
        r0 = random_unit(rng)
        n, r = 3, 0.2
        whole = dense_state(apply_channel(initial_state(n, r, r0), ch))
        ordered = apply_channel(initial_state_orders(n, r0), ch)
        np.testing.assert_allclose(at_purity(ordered, r).coeffs, whole.coeffs,
                                   atol=1e-14)


class TestDenseConversion:
    def test_pure_state_matrix(self):
        st = PauliStrings(1, [0, 3], [0.5, 0.5])
        np.testing.assert_allclose(dense_of(to_dense(st)), [[1, 0], [0, 0]], atol=1e-15)

    def test_round_trip_random_hermitian(self):
        rng = np.random.default_rng(22)
        n = 3
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        H = (A + A.conj().T) / 2.0
        st = from_dense(H)
        np.testing.assert_allclose(dense_of(to_dense(as_strings(st))), H, atol=1e-13)

    def test_round_trip_coeffs(self):
        rng = np.random.default_rng(24)
        st = full_strings(rng, 2)
        out = from_dense(dense_of(to_dense(st)))
        np.testing.assert_allclose(out.coeffs, st.coeffs, atol=1e-13)

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            from_dense(M)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            from_dense(np.eye(3))


def _one_string_per_flip_pattern(st: PauliStrings) -> bool:
    """No two nonzero strings share their X/Y slots, so every dense entry is
    one string's term times +-1 or +-i."""
    digits = st.strings[st.coeffs != 0.0, None] // 4 ** np.arange(st.n) % 4
    flips = ((digits == 1) | (digits == 2)) @ 2 ** np.arange(st.n)
    return len(np.unique(flips)) == len(flips)


def _assert_dense_matches_oracle(st: PauliStrings, lines=None) -> bool:
    """to_dense (or the given lines of st) against the tensordot oracle:
    exactly where every entry is a single term (the sign of a zero aside),
    else to 1e-15 * 2^n * max|c| (an entry sums up to 2^n strings).
    Returns whether it was exact."""
    if lines is None:
        lines = to_dense(st)
    assert np.array_equal(lines.flips, np.unique(lines.flips))
    got, want = dense_of(lines), oracle_to_dense(st)
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
    r0_frame, ch = correlated(fam, lam, n, 0.0, c, r0).in_frame
    prepared = prep_conjugate(initial_state_orders(n, r0_frame, min(n, 4)))
    return [*prepared.orders, *apply_channel(prepared, ch).orders,
            *apply_channel_derivative(prepared, ch).orders]


class TestDenseOracle:
    """to_dense (a Walsh-Hadamard line per flip pattern) against the slot by
    slot tensordot contraction of tests/support.py."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_full_arrays(self, n):
        rng = np.random.default_rng(40 + n)
        _assert_dense_matches_oracle(
            PauliStrings(n, np.arange(4 ** n), rng.uniform(-1.0, 1.0, 4 ** n)))

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_zero_state(self, n):
        got = to_dense(PauliStrings(n, [], []))
        assert got.n == n and got.flips.size == 0 and got.lines.shape == (0, 2 ** n)

    def test_single_strings(self):
        rng = np.random.default_rng(41)
        labels = list("IXYZ") + ["YYYYYYYYYY", "XIZYXYZIIX",
                                 "".join(rng.choice(list("IXYZ"), 10))]
        for label in labels:
            st = PauliStrings(len(label), [pauli_index(label)], [-0.75])
            assert _assert_dense_matches_oracle(st), label

    @pytest.mark.parametrize("n", range(2, 10))
    def test_purity_orders(self, n):
        rng = np.random.default_rng(42 + n)
        exact = 0
        for fam in (builtin("phase_flip"), builtin("depolarizing"), builtin("gad", p=0.8)):
            c, r0 = canonical_directions(fam.eval(0.3))
            for st in _orders_in_frame(fam, 0.3, n, c, r0):
                lines = to_dense(st)
                assert lines.lines.dtype == float  # no string has an odd Y count
                exact += _assert_dense_matches_oracle(st, lines)
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
        # the oracle holds two 2^n x 2^n complex arrays at its peak (32 MiB
        # at n = 10); one string fills one line of 2^n entries, and the
        # flip grouping and the Hadamard factors take a few lines more
        # (75 KB measured)
        st = PauliStrings(10, [pauli_index("XIZYXYZIIX")], [1.0])
        to_dense(st)
        tracemalloc.start()
        try:
            out = to_dense(st)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.lines.shape == (1, 2 ** 10)
        assert peak <= 8 * out.lines.nbytes


def _ordered_cases(n: int):
    """Labelled purity orders to transform in one pass: the input, output
    and derivative orders at the canonical directions (K = 4) and at a
    random oblique pair (K = 4, 6, 8), the lab-frame preparation of an
    oblique input (K = 4), empty orders among others, one order and none."""
    rng = np.random.default_rng(60 + n)
    fam = builtin("gad", p=0.8)
    pairs = [("canonical K=4", 4, *canonical_directions(fam.eval(0.3)))]
    pairs += [(f"oblique K={K}", K, random_unit(rng), random_unit(rng)) for K in (4, 6, 8)]
    for label, K, c, r0 in pairs:
        spec = correlated(fam, 0.3, n, 0.0, c, r0) if n > 1 else sqsc(fam, 0.3, 0.0, r0)
        r0_frame, ch = spec.in_frame
        ordered = initial_state_orders(n, r0_frame, min(n, K))
        if n > 1:
            ordered = prep_conjugate(ordered)
        yield f"{label} input", ordered
        yield f"{label} output", apply_channel(ordered, ch)
        yield f"{label} derivative", apply_channel_derivative(ordered, ch)
    if n > 1:
        c, r0 = random_unit(rng), random_unit(rng)
        yield "lab frame", as_strings(lab_prep_conjugate(initial_state_orders(n, r0, 4), c))
    # orders beyond n are empty; an empty order between nonempty ones
    yield "beyond n", initial_state_orders(n, random_unit(rng), n + 2)
    empty = PauliStrings(n, [], [])
    middle = full_strings(rng, n) if n <= 5 else initial_state(n, 0.5, random_unit(rng))
    yield "empty between", OrderedState(n, (empty, middle, empty, empty))
    yield "all empty", OrderedState(n, (empty, empty))
    yield "one order", OrderedState(n, (initial_state(n, 0.3, random_unit(rng)),))
    yield "no orders", OrderedState(n, ())


# the cases checked against the oracle at n = 9 as well (it takes about
# 0.2 s an order there); at n = 10 the orders one at a time stand in for it,
# and TestDenseOracle checks those
_ORACLE_AT_NINE = ("canonical K=4 output", "oblique K=4 output", "lab frame")


class TestOrdersInOnePass:
    """to_dense of an OrderedState (every order in one pass) against the
    orders transformed one at a time, bit for bit, and against the tensordot
    oracle."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 10])
    def test_matches_each_order_alone(self, n):
        for label, ordered in _ordered_cases(n):
            batched = to_dense(ordered)
            assert isinstance(batched, tuple) and len(batched) == len(ordered.orders), label
            for j, (st, got) in enumerate(zip(ordered.orders, batched)):
                want = to_dense(st)
                assert got.n == n
                assert np.array_equal(got.flips, want.flips), (label, j)
                assert got.flips.dtype == want.flips.dtype
                assert np.array_equal(got.lines, want.lines), (label, j)
                assert got.lines.shape == (len(got.flips), 2 ** n)
                if n <= 5 or n == 9 and label in _ORACLE_AT_NINE:
                    _assert_dense_matches_oracle(st, got)

    @pytest.mark.parametrize("entries", [1, 2 ** 7 + 8])
    def test_lines_do_not_depend_on_the_block(self, monkeypatch, entries):
        # one line a block, and blocks of two lines at n = 5, which leave a
        # short last block wherever the line count is odd
        cases = list(_ordered_cases(5))
        want = [to_dense(ordered) for _, ordered in cases]
        monkeypatch.setattr(ms, "_BLOCK_ENTRIES", entries)
        for (label, ordered), expected in zip(cases, want):
            for got, w in zip(to_dense(ordered), expected):
                assert np.array_equal(got.flips, w.flips), label
                assert np.array_equal(got.lines, w.lines), label

    def test_output_is_the_only_full_size_array(self):
        # the lines are transformed a block at a time: beyond the output the
        # pass holds the decoded strings and the high-bit rows (2^(n//2)
        # reals each, at most one row a string) and one block.  Transforming
        # all lines at once held about twice the output (49 MiB against the
        # 29 MiB measured here on the oblique case).  The canonical lines are
        # real, 8 bytes an entry (9.2 MiB measured; 16 bytes an entry held
        # 17 MiB)
        fam = builtin("gad", p=0.8)
        oblique = random_unit(np.random.default_rng(61)), random_unit(np.random.default_rng(62))
        # (n, c, r0, bytes of a line entry)
        for n, c, r0, entry_bytes in ((9, *oblique, 16),
                                      (10, *canonical_directions(fam.eval(0.3)), 8)):
            r0_frame, ch = correlated(fam, 0.3, n, 0.0, c, r0).in_frame
            ordered = apply_channel(prep_conjugate(initial_state_orders(n, r0_frame, 8)), ch)
            strings = sum(len(st.strings) for st in ordered.orders)
            tracemalloc.start()
            try:
                out = to_dense(ordered)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            entries = sum(x.lines.size for x in out)
            assert entries > 10 ** 6
            assert peak <= entry_bytes * entries + 2 * 2 ** (n // 2) * 8 * strings + 2 ** 20, n


def _odd_y(st: PauliStrings) -> bool:
    """Whether some string of st has an odd number of Y letters."""
    digits = st.strings[:, None] // 4 ** np.arange(st.n) % 4
    return bool((np.count_nonzero(digits == 2, axis=1) % 2).any())


class TestRealLines:
    """to_dense writes float64 lines when no string has an odd number of Y
    letters (every entry is real), and complex ones otherwise."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 10])
    def test_dtype_follows_the_y_letters(self, n):
        for label, ordered in _ordered_cases(n):
            lines = to_dense(ordered)
            dtype = complex if _odd_y(ordered) else float
            assert all(x.lines.dtype == dtype for x in lines), label
            if n > 1 and label.startswith("canonical"):
                assert dtype is float, label
            if n > 1 and label.startswith("oblique") and not label.endswith("input"):
                assert dtype is complex, label

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 10])
    def test_real_part_of_the_complex_path(self, n):
        # one more order holding a lone Y sends the same strings through the
        # complex path: their lines come out as its real part, bit for bit
        y = PauliStrings(n, [pauli_index("Y" + "I" * (n - 1))], [0.25])
        real = 0
        for label, ordered in _ordered_cases(n):
            if _odd_y(ordered):
                continue
            real += 1
            got = to_dense(ordered)
            via = to_dense(OrderedState(n, (*ordered.orders, y)))[:-1]
            for j, (a, b) in enumerate(zip(got, via)):
                assert a.lines.dtype == float and b.lines.dtype == complex, (label, j)
                assert np.array_equal(a.flips, b.flips), (label, j)
                assert a.lines.tobytes() == np.ascontiguousarray(b.lines.real).tobytes(), (label, j)
                assert not b.lines.imag.any(), (label, j)
        assert real >= 2


def _assert_same_strings(got: PauliStrings, want: PauliStrings, label) -> None:
    assert got.strings.dtype == want.strings.dtype, label
    assert np.array_equal(got.strings, want.strings), label
    assert got.coeffs.tobytes() == want.coeffs.tobytes(), label


def _one_tail(st: PauliStrings) -> bool:
    """Whether st has two or more strings and all share their qubit-1..n-1
    tail: its channel pass alone multiplies one column, which numpy does by
    gemv, and not by gemm."""
    tails = st.strings & (4 ** (st.n - 1) - 1)
    return len(tails) > 1 and tails.min() == tails.max()


class TestStringPassesInOneCall:
    """prep_conjugate and the channel passes of an OrderedState (all orders
    in one call) against the same function on each order alone: the same
    strings, coefficients and order, bit for bit.

    The one exception is an order of one tail in a stack of wider orders (an
    output order 0 sent through a channel again): alone its column is
    multiplied by gemv, in the stack by gemm, and the two may round the
    four products differently.  The series never meets it: its input order 0 is
    the one identity string, and at n = 1, where every order has one tail,
    the stack multiplies each by gemv, as alone."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 10])
    def test_matches_each_order_alone(self, n):
        rng = np.random.default_rng(70 + n)
        # a diagonal channel, whose derivative zeroes the Z images, and gad
        # in an oblique frame, which mixes every letter
        oblique = correlated(builtin("gad", p=0.8), 0.3, 2, 0.0, random_unit(rng),
                             random_unit(rng)).in_frame[1]
        passes = [(prep_conjugate, None)] if n > 1 else []
        for ch in (builtin("phase_flip").eval(0.3), oblique):
            F, dF = _pauli_maps(ch)
            passes += [(lambda st, ch=ch: apply_channel(st, ch), F),
                       (lambda st, ch=ch: apply_channel_derivative(st, ch), dF)]
        for label, ordered in _ordered_cases(n):
            for k, (fn, F) in enumerate(passes):
                got = fn(ordered)
                assert type(got) is OrderedState and got.n == n, (label, k)
                assert len(got.ends) == len(ordered.ends), (label, k)
                for j, st in enumerate(ordered.orders):
                    want, out = fn(st), got.orders[j]
                    assert type(want) is PauliStrings
                    if F is None or n == 1 or not _one_tail(st):
                        _assert_same_strings(out, want, (label, k, j))
                        continue
                    # only the order 0 of a channel output has one tail here
                    assert label.endswith(("output", "derivative")) and j == 0, label
                    assert np.array_equal(out.strings, want.strings), (label, k, j)
                    tol = 8 * np.finfo(float).eps * np.abs(F).max() * np.abs(st.coeffs).max()
                    assert np.abs(out.coeffs - want.coeffs).max(initial=0.0) <= tol, (label, k, j)

    def test_orders_are_read_only_views(self):
        ordered = prep_conjugate(initial_state_orders(5, [0.36, 0.48, 0.8], 6))
        assert ordered.ends[-2] == ordered.ends[-1] == len(ordered.strings)  # order 6 is empty
        for j, st in enumerate(ordered.orders):
            a, b = ordered.ends[j], ordered.ends[j + 1]
            assert st.strings.base is ordered.strings and st.coeffs.base is ordered.coeffs
            assert np.array_equal(st.strings, ordered.strings[a:b])
            for arr in (st.strings, st.coeffs):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0
        # the public constructor copies the orders back into one pair
        rebuilt = OrderedState(5, ordered.orders)
        assert rebuilt.ends == ordered.ends
        _assert_same_strings(rebuilt, ordered, "rebuilt")
        assert not np.shares_memory(rebuilt.coeffs, ordered.coeffs)
        for got, want in zip(rebuilt.orders, ordered.orders):
            _assert_same_strings(got, want, "rebuilt order")
        assert OrderedState(5, ()).ends == (0,) and OrderedState(5, ()).orders == ()


# (c, r0) pairs by the nonzero components of r0' = (|r0 - (c.r0) c|, 0, c.r0),
# r0 in the frame of c, where the states are built: one when r0 lies along
# c or perpendicular to it (|c.r0| below blocks.PERPENDICULAR_TOL gives
# r0' = x exactly), two otherwise (the tiny one of an oblique c along r0 is
# rounding)
_C = [0.48, 0.6, 0.64]
_C_PERP = np.array([0.0, 0.64, -0.6]) / np.sqrt(0.64 ** 2 + 0.6 ** 2)  # c x x
FRAME_CASES = {
    "axis, c perpendicular": ([0, 0, 1], [1, 0, 0], 1),
    "axis, c parallel": ([0, 0, 1], [0, 0, 1], 1),
    "plane, c perpendicular": ([0, 0, 1], [0.6, 0.8, 0], 1),
    "axis c, oblique": ([0, 0, 1], [0.6, 0, 0.8], 2),
    "oblique c, c perpendicular": (_C, _C_PERP, 1),
    "oblique c, c parallel": (_C, _C, 2),
    "oblique": (_C, [0.36, 0.48, 0.8], 2),
}


def _case_spec(n: int, case: str, r: float = 0.2):
    """A gad spec of the case; n = 1 has no frame and takes r0 as it is."""
    c, r0, nonzero = FRAME_CASES[case]
    fam = builtin("gad", p=0.8)
    if n == 1:
        return sqsc(fam, 0.3, r, r0)
    spec = correlated(fam, 0.3, n, r, c, r0)
    assert np.count_nonzero(spec.in_frame[0]) == nonzero
    return spec


def _string_output_orders(spec, max_order: int, read_only: bool = False):
    """``protocols.purity_orders`` one output order at a time, before
    to_dense: the strings of each input order through the preparation and
    the channel (and its derivative).  With read_only, each input order
    keeps the strings that the QFI series through max_order reads, as
    purity_orders does."""
    r0, ch = spec.in_frame
    ordered = initial_state_orders(spec.n, r0, min(spec.n, max_order))
    if read_only:
        ordered = _strings_the_series_reads(ordered, max_order)
    if spec.c is not None:
        ordered = prep_conjugate(ordered)
    for st in ordered.orders:
        yield apply_channel(st, ch), apply_channel_derivative(st, ch)


class TestStringsAgainstDenseOrders:
    """The purity orders as strings against the dense 4^n orders of
    tests/support.py, bit for bit, for every order and derivative."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_order_and_derivative_is_bit_equal(self, n):
        for case in FRAME_CASES:
            spec = _case_spec(n, case)
            for K in dict.fromkeys((0, 1, 4, n + 2)):
                pairs = itertools.zip_longest(_string_output_orders(spec, K),
                                              oracle_output_orders(spec, K))
                for j, (got, want) in enumerate(pairs):
                    for a, b in zip(got, want):
                        assert same_coeffs(a, b), (case, K, j)
                assert j == min(n, K)

    def test_purity_orders_are_the_stages(self):
        spec = _case_spec(6, "oblique")
        orders = purity_orders(spec, 4)
        for j, (rho, drho) in enumerate(_string_output_orders(spec, 4, read_only=True)):
            for got, want in ((orders.rho[j], to_dense(rho)), (orders.drho[j], to_dense(drho))):
                assert np.array_equal(got.flips, want.flips)
                assert np.array_equal(got.lines, want.lines)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_at_purity_is_the_product_state(self, n):
        for case in FRAME_CASES:
            r0 = _case_spec(n, case).in_frame[0]
            ordered = initial_state_orders(n, r0)
            for r in (0.0, 0.3, 1.0):
                want = dense_state(initial_state(n, r, r0)).coeffs
                got = at_purity(ordered, r).coeffs
                assert np.array_equal(got == 0.0, want == 0.0)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_orders_allocate_their_strings_only(self):
        # the dense orders of n = 10, K = 4 took 5 x 8 MB; the 20,686 strings
        # of an oblique r0 take 0.3 MB, and the CZ table is built beforehand
        r0 = [0.36, 0.48, 0.8]
        prep_conjugate(initial_state_orders(10, r0, 4))
        tracemalloc.start()
        try:
            prepared = prep_conjugate(initial_state_orders(10, r0, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(st.strings) for st in prepared.orders) == 20686
        assert peak < 2 * 2 ** 20


def _string_measured_state(spec):
    """The fixed-purity stages of ``local_measurement_sim`` as strings, in
    the order of ``oracle_measured_state``."""
    r0, ch = spec.in_frame
    state = initial_state(spec.n, spec.r, r0)
    yield state
    if spec.c is not None:
        state = prep_conjugate(state)
        yield state
    out, dout = apply_channel(state, ch), apply_channel_derivative(state, ch)
    yield out
    yield dout
    if spec.c is not None:
        yield prep_conjugate(out)
        yield prep_conjugate(dout)


class TestFixedPurityStrings:
    """The state at fixed purity as strings against the dense 4^n pipeline
    of tests/support.py, bit for bit, stage by stage."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_stage_is_bit_equal(self, n):
        gad = builtin("gad", p=0.8)
        canonical = canonical_directions(gad.eval(0.3))
        for r in (0.0, 1e-3, 0.5, 1.0):
            specs = [_case_spec(n, case, r) for case in FRAME_CASES]
            if n > 1:
                specs.append(correlated(gad, 0.3, n, r, *canonical))
            for spec in specs:
                stages = itertools.zip_longest(_string_measured_state(spec),
                                               oracle_measured_state(spec))
                for k, (got, want) in enumerate(stages):
                    assert same_coeffs(got, want), (spec.c, spec.r0, r, k)
                assert k == (5 if n > 1 else 2)

    def test_build_state_is_the_stages(self):
        spec = _case_spec(5, "oblique")
        prep = build_state(spec)
        _, _, out, dout, _, _ = _string_measured_state(spec)
        for a, b in ((prep.pauli, out), (prep.dpauli, dout)):
            assert np.array_equal(a.strings, b.strings) and np.array_equal(a.coeffs, b.coeffs)

    def test_string_counts(self):
        # (1 + k)^n strings for k nonzero components of r0 in the frame of
        # c, before and after the preparation (a signed permutation)
        for n in range(2, 12):
            for case, (_, _, k) in FRAME_CASES.items():
                spec = _case_spec(n, case, 0.5)
                state = initial_state(n, spec.r, spec.in_frame[0])
                assert len(state.strings) == len(prep_conjugate(state).strings) == (1 + k) ** n
                # at r = 0 every letter but I has a zero coefficient
                assert initial_state(n, 0.0, spec.in_frame[0]).strings.tolist() == [0]
            counts = {case: len(initial_state(n, 0.5, _case_spec(n, case).in_frame[0]).strings)
                      for case in ("oblique", "plane, c perpendicular")}
            assert counts == {"oblique": 3 ** n, "plane, c perpendicular": 2 ** n}


class TestFrame:
    """``protocols._frame(c, r0)``: a rotation that takes z to c and r0 into
    its u-z plane, and ``ProtocolSpec.in_frame``'s r0' = (|r0 - (c.r0) c|, 0, c.r0)."""

    # phase_shift is left out: its canonical pair turns with lambda in the xy plane
    BUILTINS = [builtin("phase_flip"), builtin("depolarizing"), builtin("gad", p=0.5),
                builtin("gad", p=0.8), builtin("gad", p=1.0),
                *(builtin("pauli", lam_on=axis) for axis in "xyz"),
                builtin("custom_diag", mx="1-l", my="1-2*l", mz="1-3*l")]

    @staticmethod
    def _check_rotation(c, r0):
        R = _frame(c, r0)
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-15
        assert np.array_equal(R[:, 2], c)
        r0_frame = correlated(builtin("phase_flip"), 0.3, 2, 0.1, c, r0).in_frame[0]
        assert r0_frame[1] == 0.0
        return R, r0_frame

    @pytest.mark.parametrize("fam", BUILTINS, ids=lambda f: f.name)
    def test_canonical_pairs_enter_exactly(self, fam):
        lo, hi = fam.domain
        for lam in np.linspace(lo, hi, 13)[1:-1]:
            c, r0 = canonical_directions(fam.eval(lam))
            R, r0_frame = self._check_rotation(c, r0)
            assert np.all((R == 0.0) | (np.abs(R) == 1.0)), (lam, R)
            assert r0_frame.tolist() == [1.0, 0.0, 0.0]

    def test_phase_shift_pairs_are_perpendicular(self):
        # phase_shift's canonical pair turns with lambda in the xy plane, so
        # R is a rotation about z rather than a signed permutation, and c.r0
        # comes out as rounding (up to 2.6e-17) at 7 of these 21 points.
        # Below blocks.PERPENDICULAR_TOL r0' is x exactly, as the exact QFI's
        # pieces take it, so the state holds 2^n strings and order j C(n, j)
        fam, n = builtin("phase_shift"), 5
        lo, hi = fam.domain
        for lam in np.linspace(lo, hi, 23)[1:-1]:
            c, r0 = canonical_directions(fam.eval(lam))
            assert abs(c @ r0) < PERPENDICULAR_TOL
            _, r0_frame = self._check_rotation(c, r0)
            assert r0_frame.tolist() == [1.0, 0.0, 0.0], lam
            assert len(initial_state(n, 0.2, r0_frame).strings) == 2 ** n
            orders = initial_state_orders(n, r0_frame).orders
            assert [len(st.strings) for st in orders] == [math.comb(n, j) for j in range(n + 1)]

    def test_random_pairs(self):
        rng = np.random.default_rng(90)
        for _ in range(500):
            c, r0 = random_unit(rng), random_unit(rng)
            _, r0_frame = self._check_rotation(c, r0)
            assert r0_frame[0] >= 0.0 and r0_frame[2] == pytest.approx(c @ r0, abs=1e-15)
            np.testing.assert_allclose(r0_frame[0], np.linalg.norm(r0 - (c @ r0) * c),
                                       atol=1e-15)

    def test_r0_along_c(self):
        # exactly along c, and within 1e-14 of it: the part of r0
        # perpendicular to c is rounding or barely above it
        rng = np.random.default_rng(91)
        for _ in range(200):
            c = random_unit(rng)
            near = c + 1e-14 * random_unit(rng)
            for r0 in (c, -c, near / np.linalg.norm(near)):
                _, r0_frame = self._check_rotation(c, r0)
                assert abs(r0_frame[0]) <= 2e-14
                assert abs(abs(r0_frame[2]) - 1.0) <= 1e-15


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
        st = full_strings(rng, 3)
        perm = (2, 0, 1)
        got = dense_of(to_dense(as_strings(permute_qubits(st, perm))))
        t = dense_of(to_dense(st)).reshape((2,) * 6)
        want = t.transpose(perm + tuple(3 + p for p in perm)).reshape(8, 8)
        np.testing.assert_allclose(got, want, atol=1e-13)


class TestCaps:
    def test_pauli_cap(self):
        with pytest.raises(ValueError, match="1..14"):
            initial_state(15, 0.1, [0, 0, 1])
        with pytest.raises(ValueError):
            initial_state(0, 0.1, [0, 0, 1])

    def test_dense_cap(self):
        st = initial_state(11, 0.0, [0, 0, 1])
        with pytest.raises(ValueError, match="1..10"):
            to_dense(st)

    def test_immutable_coefficients(self):
        st = initial_state(2, 0.2, [1, 0, 0])
        for arr in (st.strings, st.coeffs):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_strings_are_checked(self):
        with pytest.raises(ValueError, match="1..14"):
            PauliStrings(15, [0], [1.0])
        with pytest.raises(ValueError, match=r"0..4\^2 - 1"):
            PauliStrings(2, [3, 16], [1.0, 1.0])
        with pytest.raises(ValueError, match="one coefficient per string"):
            PauliStrings(2, [3, 5], [1.0])
        with pytest.raises(ValueError, match="finite"):
            PauliStrings(2, [3], [np.nan])
        st = initial_state_orders(2, [0.6, 0.0, 0.8]).orders[1]
        for arr in (st.strings, st.coeffs):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestCoefficientOwnership:
    def test_caller_writes_do_not_reach_the_state(self):
        mine, strings = np.arange(16.0), np.arange(16)
        st = PauliStrings(2, strings, mine)
        mine[0] = 99.0
        strings[0] = 5
        # a read-only view of the caller's writable array
        view = mine[:]
        view.flags.writeable = False
        from_view = PauliStrings(2, np.arange(16), view)
        mine[1] = 99.0
        # a read-only array that its owner makes writable again
        frozen = np.arange(16.0)
        frozen.flags.writeable = False
        from_frozen = PauliStrings(2, np.arange(16), frozen)
        frozen.flags.writeable = True
        frozen[2] = 99.0
        assert st.coeffs[0] == 0.0 and st.strings[0] == 0 and from_view.coeffs[1] == 1.0
        assert from_frozen.coeffs[2] == 2.0

    def test_builders_do_not_copy_their_output(self, monkeypatch):
        # the constructor's copy runs in __init__, which the builders skip
        copies = []
        monkeypatch.setattr(PauliStrings, "__init__",
                            lambda self, n, *arrays, init=PauliStrings.__init__:
                            copies.append(n) or init(self, n, *arrays))
        ch = builtin("gad", p=0.8).eval(0.3)
        ordered = initial_state_orders(3, [0.6, 0.0, 0.8])
        prepared = prep_conjugate(ordered)
        fixed = prep_conjugate(initial_state(3, 0.2, [0.6, 0.0, 0.8]))
        states = [fixed, apply_channel(fixed, ch), apply_channel_derivative(fixed, ch),
                  *ordered.orders, *prepared.orders, *apply_channel(prepared, ch).orders,
                  *apply_channel_derivative(prepared, ch).orders]
        assert not copies
        for st in states:
            assert not st.coeffs.flags.writeable
            assert not st.strings.flags.writeable
