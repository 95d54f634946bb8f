import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from noisyqfi import builtin
from noisyqfi import protocols as protocols_module
from noisyqfi import series as series_module
from noisyqfi.bloch import ChannelFamily
from noisyqfi.fisher import ProbModel, cfi
from noisyqfi.mstate import XorLines, initial_state_orders, prep_conjugate
from noisyqfi.protocols import correlated, sqsc
from noisyqfi.series import (
    BranchError,
    GridMax,
    SldSeries,
    StateOrders,
    canonical_directions,
    channel_output_orders,
    corr_bounds,
    corr_gain_ratio,
    corr_h2,
    corr_h2_grid_max,
    corr_h3_h4,
    default_fit_purities,
    fit_qfi_orders,
    qfi_orders,
    sld_orders,
    sphere_directions,
    sqsc_nonunital_const_h2,
    sqsc_nonunital_h0,
    sqsc_unital_h2,
    sqsc_unital_opt,
)

from support import (
    as_strings,
    dense_exact_qfi,
    dense_of,
    dense_orders,
    fit_exact_orders,
    lab_output,
    lab_prep_conjugate,
    line_orders,
    lines_of,
    oracle_channel_output_orders,
    oracle_qfi_orders,
    oracle_to_dense,
    oracle_sld_orders,
    perpendicular_pair,
    random_state,
    random_unit,
    random_unital_family,
    saturating_basis_lowest_order,
    sigma,
)

UNITAL_BUILTINS = [
    builtin("phase_shift"),
    builtin("phase_flip"),
    builtin("depolarizing"),
    builtin("pauli", lam_on="z", px=0.02, py=0.05),
    builtin("custom_diag", mx="1-l", my="1-l", mz="1-2*l"),
]


def final_orders(fam, lam, n, c, r0, K):
    """Purity orders of the channel output in the lab frame."""
    ordered = initial_state_orders(n, r0, max_order=min(n, K))
    if n >= 2:
        ordered = as_strings(lab_prep_conjugate(ordered, c))
    return channel_output_orders(ordered, fam.eval(lam))


class TestSldOrders:
    def test_unital_lowest_orders(self):
        rng = np.random.default_rng(41)
        fam = builtin("phase_flip")
        c, r0 = perpendicular_pair(rng)
        n, K = 2, 2
        orders = final_orders(fam, 0.3, n, c, r0, K)
        L = [dense_of(Lk) for Lk in sld_orders(orders, K).orders]
        rho, drho = (dense_of(A) for A in (orders.rho[1], orders.drho[1]))
        N = 2 ** n
        np.testing.assert_allclose(L[0], np.zeros((N, N)), atol=1e-14)
        np.testing.assert_allclose(L[1], N * drho, atol=1e-12)
        # second order picks up the quadratic correction
        want = N * dense_of(orders.drho[2]) - 0.5 * N ** 2 * (drho @ rho + rho @ drho)
        np.testing.assert_allclose(L[2], want, atol=1e-12)

    def test_orders_are_hermitian(self):
        rng = np.random.default_rng(42)
        fam = random_unital_family(rng)
        c, r0 = perpendicular_pair(rng)
        orders = final_orders(fam, 0.4, 3, c, r0, 4)
        sld = sld_orders(orders, 4)
        for L in map(dense_of, sld.orders):
            assert np.max(np.abs(L - L.conj().T)) < 1e-10

    def test_nonunital_constant_shift_defining_equation(self):
        # single qubit behind a constant-shift channel: the order-1 equation
        # L1 rho0 + rho0 L1 + L0 rho1 + rho1 L0 = 2 drho1 must close
        def value(lam):
            return np.diag([lam, lam, lam]), np.array([0.0, 0.0, 0.5])

        fam = ChannelFamily("const_shift", (0.0, 1.0), value)
        rng = np.random.default_rng(43)
        for _ in range(10):
            r0 = random_unit(rng)
            orders = dense_orders(final_orders(fam, 0.3, 1, None, r0, 1))
            L = [dense_of(Lk) for Lk in sld_orders(line_orders(orders.rho, orders.drho), 1).orders]
            lhs = (L[1] @ orders.rho[0] + orders.rho[0] @ L[1]
                   + L[0] @ orders.rho[1] + orders.rho[1] @ L[0])
            np.testing.assert_allclose(lhs, 2.0 * orders.drho[1], atol=1e-10)

    def test_singular_zero_order_rejected(self):
        def value(lam):
            return np.zeros((3, 3)), np.array([0.0, 0.0, 1.0])

        fam = ChannelFamily("pin", (0.0, 1.0), value)
        orders = final_orders(fam, 0.5, 1, None, np.array([1.0, 0, 0]), 1)
        with pytest.raises(ValueError, match="singular"):
            sld_orders(orders, 1)

    def test_unfactored_zero_order_rejected(self):
        rho0 = random_state(np.random.default_rng(46), 2)
        orders = line_orders((rho0,), (np.zeros_like(rho0),))
        with pytest.raises(ValueError, match=r"does not factor as h \(x\) I/2\^\(n-1\)"):
            sld_orders(orders, 1)

    def test_unfactored_zero_order_derivative_rejected(self):
        # rho^(0) = I/4 factors, but a derivative acting on qubit 1 does not:
        # L^(0) would then not act on qubit 0 alone
        rho0 = np.eye(4, dtype=complex) / 4
        drho0 = np.kron(np.eye(2), sigma([0.0, 0.0, 0.1])) / 2
        orders = line_orders((rho0,), (drho0,))
        with pytest.raises(ValueError, match=r"zeroth-order derivative does not "
                                             r"factor as hdot \(x\) I/2\^\(n-1\)"):
            sld_orders(orders, 1)


OUTPUT_FAMILIES = {
    "phase_shift": builtin("phase_shift"),
    "phase_flip": builtin("phase_flip"),
    "depolarizing": builtin("depolarizing"),
    "gad_p0.8": builtin("gad", p=0.8),
    "gad_p1": builtin("gad", p=1.0),
    "pauli": builtin("pauli", lam_on="x", py=0.03, pz=0.1),
    "custom_diag": builtin("custom_diag", mx="1-l", my="1-2*l", mz="1-l^2"),
    "random_unital": random_unital_family(np.random.default_rng(49)),
}


class TestChannelOutputOrders:
    """One dense matrix per input order and the 2x2 block map, against the
    Pauli channel pass and one dense matrix per output."""

    @pytest.mark.parametrize("name", OUTPUT_FAMILIES)
    def test_matches_pauli_pass(self, name):
        fam = OUTPUT_FAMILIES[name]
        rng = np.random.default_rng(50)
        lo, hi = fam.domain
        for n in range(1, 9):
            lam = lo + rng.uniform(0.1, 0.9) * (hi - lo)
            ordered = initial_state_orders(n, random_unit(rng), max_order=min(n, 4))
            if n >= 2:
                ordered = prep_conjugate(ordered)
            ch = fam.eval(lam)
            got = dense_orders(channel_output_orders(ordered, ch))
            want = oracle_channel_output_orders(ordered, ch)
            for pair in zip(got.rho + got.drho, want.rho + want.drho):
                scale = np.max(np.abs(pair[1]))
                assert np.max(np.abs(pair[0] - pair[1])) <= 1e-14 * scale, n


def _record_solves(monkeypatch, strip_products: bool = False) -> list:
    """Wrap series.sld_orders; the list gets (K, product keys, series) per solve.

    With strip_products the solve hands qfi_orders no products.
    """
    solves = []

    def solve(orders, K):
        sld = sld_orders(orders, K)
        solves.append((K, sorted(sld.products), sld))
        if strip_products:
            return SldSeries(sld.orders, {}, sld.rho0_factor, sld.sld0_factor)
        return sld

    monkeypatch.setattr(series_module, "sld_orders", solve)
    return solves


class TestSharedProducts:
    def test_qfi_orders_take_the_products_of_the_sld_solve(self, monkeypatch):
        fam = builtin("gad", p=0.8)
        ch = fam.eval(0.3)
        orders = final_orders(fam, 0.3, 4, *canonical_directions(ch), 4)
        solves = _record_solves(monkeypatch)
        got = qfi_orders(orders, 4).orders
        [(K, keys, sld)] = solves
        assert K == 2 and keys == [(1, 1)]
        assert sld.products == {}  # taken out, and dropped after its last trace
        # without the products of the solve, qfi_orders forms them itself
        monkeypatch.undo()
        _record_solves(monkeypatch, strip_products=True)
        assert qfi_orders(orders, 4).orders.tolist() == got.tolist()

    def test_qfi_orders_take_the_qubit0_factors_of_the_sld_solve(self, monkeypatch):
        fam = builtin("gad", p=0.8)
        orders = final_orders(fam, 0.3, 4, *canonical_directions(fam.eval(0.3)), 4)
        want = qfi_orders(orders, 4).orders
        checked = []
        factor = series_module._qubit0_factor

        def counted(mat, what, form):
            checked.append(what)
            return factor(mat, what, form)

        monkeypatch.setattr(series_module, "_qubit0_factor", counted)
        assert qfi_orders(orders, 4).orders.tolist() == want.tolist()
        # the solve checks rho^(0) and its derivative; L^(0) it built itself
        assert checked == ["zeroth-order state", "zeroth-order derivative"]


def _line_matrix(rng, n: int, flips, real: bool = False) -> np.ndarray:
    """A 2^n x 2^n complex matrix with random entries on the XOR lines
    D[x ^ f, x] of the given flips f and zeros elsewhere."""
    dim = 2 ** n
    x = np.arange(dim)
    values = rng.uniform(-1.0, 1.0, (len(flips), dim))
    if not real:
        values = values + 1j * rng.uniform(-1.0, 1.0, (len(flips), dim))
    A = np.zeros((dim, dim), dtype=complex)
    A[np.asarray(flips, dtype=np.intp)[:, None] ^ x, x] = values
    return A


def _line_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """series._product on the XOR lines of two matrices, scattered back."""
    return dense_of(series_module._product(lines_of(A), lines_of(B)))


class TestLineProduct:
    """series._product (one 2^n pass per pair of XOR lines) against BLAS's @."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_line_sparse_factors(self, n):
        rng = np.random.default_rng(60 + n)
        dim = 2 ** n
        for count_a, count_b in ((1, 1), (3, 9), (9, 36)):
            fa = rng.choice(dim, min(dim, count_a), replace=False)
            fb = rng.choice(dim, min(dim, count_b), replace=False)
            A, B = _line_matrix(rng, n, fa), _line_matrix(rng, n, fb)
            got, want = _line_product(A, B), A @ B
            assert got.shape == want.shape and got.dtype == want.dtype
            # an entry sums at most 2^n terms
            tol = 1e-15 * dim * np.abs(A).max() * np.abs(B).max()
            assert np.abs(got - want).max() <= tol

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_term_per_entry_is_exact(self, n):
        # flips of A in the low bits and of B in the high bits reach every
        # output entry once; with A real BLAS rounds that one term as the
        # lines do (a complex A can differ in the last bit, fused or not)
        rng = np.random.default_rng(70 + n)
        low, high = 2 ** (n // 2), 2 ** (n - n // 2)
        fa = rng.choice(low, min(low, 4), replace=False)
        fb = low * rng.choice(high, min(high, 6), replace=False)
        A, B = _line_matrix(rng, n, fa, real=True), _line_matrix(rng, n, fb)
        assert np.array_equal(_line_product(A, B), A @ B)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dense_factors_take_blas(self, n):
        # every line of both factors filled: the line product against the
        # BLAS product, which costs the same 8^n there (at n = 10 one factor
        # keeps 32 lines, so the test stays short)
        rng = np.random.default_rng(80 + n)
        dim = 2 ** n
        A = _line_matrix(rng, n, range(dim if n < 10 else 32))
        B = _line_matrix(rng, n, range(dim))
        tol = 1e-15 * dim * np.abs(A).max() * np.abs(B).max()
        assert np.abs(_line_product(A, B) - A @ B).max() <= tol

    @pytest.mark.parametrize("n", range(1, 11))
    def test_zero_factors(self, n):
        rng = np.random.default_rng(90 + n)
        zero = np.zeros((2 ** n, 2 ** n), dtype=complex)
        A = _line_matrix(rng, n, [0, 2 ** n - 1])
        for left, right in ((zero, A), (A, zero), (zero, zero)):
            got = series_module._product(lines_of(left), lines_of(right))
            assert got.flips.size == 0 and got.lines.shape == (0, 2 ** n)
            assert got.lines.dtype == complex


def _random_xor_lines(rng, n: int, count: int, real: bool) -> XorLines:
    """count random lines, real or complex, at random ascending flips."""
    dim = 2 ** n
    flips = np.sort(rng.choice(dim, min(dim, count), replace=False))
    lines = rng.uniform(-1.0, 1.0, (len(flips), dim))
    if not real:
        lines = lines + 1j * rng.uniform(-1.0, 1.0, (len(flips), dim))
    return XorLines(n, flips, lines)


class TestTraceOnlyProduct:
    """_product(A, B, keep) forms only the product's lines at the flips in
    keep, each with the bits of the whole product's line."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_kept_lines_equal_the_whole_products(self, n, real):
        rng = np.random.default_rng(160 + n)
        dim = 2 ** n
        for count_a, count_b, count_keep in ((1, 1, 1), (3, 9, 4), (9, 36, 9), (0, 5, 3),
                                             (5, 0, 3), (4, 6, 0), (dim, dim, dim)):
            A = _random_xor_lines(rng, n, count_a, real)
            B = _random_xor_lines(rng, n, count_b, real)
            whole = series_module._product(A, B)
            # flips the product lacks, and repeats, as qfi_orders passes them
            keep = rng.choice(dim, min(dim, count_keep), replace=False)
            keep = np.concatenate([keep, keep[:2]])
            got = series_module._product(A, B, keep)
            at = np.isin(whole.flips, keep)
            assert np.array_equal(got.flips, whole.flips[at])
            assert got.lines.dtype == whole.lines.dtype
            assert got.lines.shape == (at.sum(), dim)
            assert np.array_equal(got.lines, whole.lines[at])

    def test_qfi_orders_form_the_lines_their_traces_meet(self, monkeypatch):
        # canonical phase_flip at n = 9: L^(1) rho^(2) has the 9 + 84 lines of
        # weight-1 and weight-3 flips, and its one trace meets L^(1)'s 9
        fam = builtin("phase_flip")
        spec = correlated(fam, 0.3, 9, 1e-3, *canonical_directions(fam.eval(0.3)))
        orders = protocols_module.purity_orders(spec, 4)
        L1 = sld_orders(orders, 2).orders[1]
        formed, product = [], series_module._product
        monkeypatch.setattr(series_module, "_product", lambda *args: formed.append(
            product(*args)) or formed[-1])
        qfi_orders(orders, 4)
        assert [len(P.flips) for P in formed] == [37, 9]
        assert np.array_equal(formed[1].flips, L1.flips)
        whole = product(L1, orders.rho[2])
        assert len(whole.flips) == 93
        assert np.array_equal(formed[1].lines, whole.lines[np.isin(whole.flips, L1.flips)])


DIFFERENTIAL_FAMILIES = {
    "phase_shift": builtin("phase_shift"),
    "phase_flip": builtin("phase_flip"),
    "depolarizing": builtin("depolarizing"),
    "pauli": builtin("pauli", lam_on="z", px=0.02, py=0.05),
    "gad_p0.5": builtin("gad", p=0.5),
    "gad_p0.8": builtin("gad", p=0.8),
    "gad_p1": builtin("gad", p=1.0),
    "random_unital": random_unital_family(np.random.default_rng(47)),
}


class TestDenseSolverAgreement:
    """The 2x2 qubit-0 solve and the stationary QFI orders against the
    generic 2^n eigenbasis solver."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_FAMILIES)
    def test_matches_dense_eigenbasis_solver(self, name):
        fam = DIFFERENTIAL_FAMILIES[name]
        rng = np.random.default_rng(48)
        lo, hi = fam.domain
        lam = lo + 0.37 * (hi - lo)
        ch = fam.eval(lam)
        for n in range(1, 9):
            for c, r0 in (canonical_directions(ch), (random_unit(rng), random_unit(rng))):
                full = final_orders(fam, lam, n, c, r0, 6)
                L_ref = oracle_sld_orders(full, 6)
                H_ref = oracle_qfi_orders(full, L_ref, 6)
                L_max = max(np.max(np.abs(L)) for L in L_ref)
                for K in range(7):
                    top = min(n, K) + 1
                    orders = StateOrders(full.rho[:top], full.drho[:top])
                    sld = sld_orders(orders, K)
                    for k, (got, want) in enumerate(zip(map(dense_of, sld.orders), L_ref)):
                        scale = np.max(np.abs(want))
                        if scale < 1e-9 * L_max:
                            # an order that vanishes analytically holds only
                            # rounding noise; measure it against the largest
                            scale = L_max
                        assert np.max(np.abs(got - want)) <= 1e-12 * scale, (n, K, k)
                    # the stationary form at the SLD series through K // 2
                    scale = np.max(np.abs(H_ref[:K + 1]))
                    H = qfi_orders(orders, K).orders
                    assert np.max(np.abs(H - H_ref[:K + 1])) <= 1e-12 * scale, (n, K)


def _random_lines(rng, n: int, count: int) -> np.ndarray:
    """A matrix with random complex entries on `count` random XOR lines."""
    return _line_matrix(rng, n, rng.choice(2 ** n, min(2 ** n, count), replace=False))


# (n, line count) of the operands: empty operators, n = 1, and the top-bit
# pairs f, f ^ 2^(n-1) both present and not
LINE_CASES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 3), (3, 1), (4, 5), (5, 32), (7, 9)]


class TestLineOperations:
    """Each operation of the series on XOR lines against its dense counterpart."""

    @pytest.mark.parametrize("n, count", LINE_CASES)
    def test_qubit0_contraction(self, n, count):
        rng = np.random.default_rng(100 + n + count)
        A = _random_lines(rng, n, count)
        for q in (np.diag([0.3, -0.7]), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))):
            got = series_module._left(q)(lines_of(A))
            want = np.kron(q, np.eye(2 ** (n - 1))) @ A
            assert np.abs(dense_of(got) - want).max(initial=0.0) <= 1e-15
            # a diagonal q keeps the lines; an off-diagonal one pairs f, f ^ 2^(n-1)
            if q[0, 1] == 0.0:
                assert np.array_equal(got.flips, lines_of(A).flips)

    @pytest.mark.parametrize("n, count", LINE_CASES)
    def test_block_map(self, n, count):
        rng = np.random.default_rng(110 + n + count)
        A = _random_lines(rng, n, count)
        m = 2 ** (n - 1)
        T = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
        got = dense_of(series_module._block_map(T)(lines_of(A)))
        want = np.einsum("ijkl,kalb->iajb", T, A.reshape(2, m, 2, m)).reshape(2 * m, 2 * m)
        assert np.abs(got - want).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize("n, count", LINE_CASES)
    def test_adjoint_inner_and_sum(self, n, count):
        rng = np.random.default_rng(120 + n + count)
        A, B = _random_lines(rng, n, count), _random_lines(rng, n, count + 1)
        a, b = lines_of(A), lines_of(B)
        assert np.array_equal(dense_of(series_module._adjoint(a)), A.conj().T)
        assert series_module._re_inner(a, b) == pytest.approx(np.vdot(A, B).real, abs=1e-13)
        total = series_module._sum(n, [(2.0, a), (-1.0, b), (-1.0, a)])
        assert np.array_equal(total.flips, np.unique(np.concatenate([a.flips, b.flips])))
        assert np.abs(dense_of(total) - (2.0 * A - B - A)).max(initial=0.0) <= 1e-15
        assert series_module._sum(n, []).lines.shape == (0, 2 ** n)

    def test_inner_is_dtype_free_and_near_the_exact_sum(self):
        # random n = 10 lines, some flips shared: the real lines, the same
        # lines held as complex, and complex lines, against an exact sum of
        # the entry products in fractions
        rng = np.random.default_rng(170)
        n, dim = 10, 2 ** 10
        for trial in range(4):
            real = trial < 2
            A = _random_xor_lines(rng, n, 40, real)
            # half of A's flips and 20 that A lacks
            flips = np.sort(np.concatenate([A.flips[::2],
                                            np.setdiff1d(np.arange(dim), A.flips)[:20]]))
            B = XorLines(n, flips, _random_xor_lines(rng, n, len(flips), real).lines)
            got = series_module._re_inner(A, B)
            shared, ia, ib = np.intersect1d(A.flips, B.flips, return_indices=True)
            a, b = A.lines[ia], B.lines[ib]
            pairs = [(a.real, b.real)] + ([(a.imag, b.imag)] if not real else [])
            exact = sum(Fraction(x) * Fraction(y) for u, v in pairs
                        for x, y in zip(u.ravel().tolist(), v.ravel().tolist()))
            bound = 2.0 ** -52 * sum(float(np.abs(u * v).sum()) for u, v in pairs)
            assert len(shared) and abs(Fraction(got) - exact) <= Fraction(bound)
            assert series_module._re_inner(B, A) == got
            if real:
                as_complex = [XorLines(n, X.flips, X.lines.astype(complex)) for X in (A, B)]
                assert series_module._re_inner(*as_complex) == got
                assert series_module._re_inner(as_complex[0], B) == got
                assert series_module._re_inner(A, as_complex[1]) == got

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_product_of_empty_and_n1(self, n):
        rng = np.random.default_rng(130 + n)
        A = _random_lines(rng, n, 2)
        for left, right in ((A, A), (A, 0 * A), (0 * A, A)):
            got = series_module._product(lines_of(left), lines_of(right))
            assert np.abs(dense_of(got) - left @ right).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_zeroth_order_factor(self, n):
        rng = np.random.default_rng(140 + n)
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = np.kron(q, np.eye(2 ** (n - 1)))
        got = series_module._qubit0_factor(lines_of(A), "state", "q (x) I")
        assert np.abs(got - q).max() <= 1e-15
        # lines 0 and 2^(n-1) only; each constant on the halves of x
        assert np.array_equal(series_module._qubit0_factor(lines_of(0 * A), "s", "f"),
                              np.zeros((2, 2)))
        if n == 1:
            return
        spread = A.copy()
        spread[1, 1] += 1e-9
        with pytest.raises(ValueError, match=r"state does not factor as q \(x\) I"):
            series_module._qubit0_factor(lines_of(spread), "state", "q (x) I")
        other = A.copy()
        other[0, 1] = 1e-9  # line 1, which qubit 0 does not reach
        with pytest.raises(ValueError, match=r"state does not factor as q \(x\) I"):
            series_module._qubit0_factor(lines_of(other), "state", "q (x) I")


def _as_complex(orders: StateOrders) -> StateOrders:
    """The same orders with their lines cast to complex."""
    def cast(ops):
        return tuple(XorLines(A.n, A.flips, A.lines.astype(complex)) for A in ops)
    return StateOrders(cast(orders.rho), cast(orders.drho))


def _same_lines(got: XorLines, want: XorLines) -> bool:
    return np.array_equal(got.flips, want.flips) and np.array_equal(got.lines, want.lines)


# unital and not, diagonal and not: at the canonical directions each holds
# strings with an even number of Y letters only
REAL_FAMILIES = {
    "gad": builtin("gad", p=0.8),
    "phase_flip": builtin("phase_flip"),
    "depolarizing": builtin("depolarizing"),
    "phase_shift": builtin("phase_shift"),
}


class TestRealLines:
    """The series keeps the dtype of its input lines: the canonical orders
    are real, and the series on them equals the series on the same lines
    cast to complex, bit for bit."""

    @pytest.mark.parametrize("K", [4, 8])
    @pytest.mark.parametrize("n", [2, 5, 9, 10])
    @pytest.mark.parametrize("name", REAL_FAMILIES)
    def test_matches_the_series_on_complex_lines(self, name, n, K):
        fam = REAL_FAMILIES[name]
        spec = correlated(fam, 0.3, n, 0.0, *canonical_directions(fam.eval(0.3)))
        orders = protocols_module.purity_orders(spec, K)
        assert all(A.lines.dtype == float for A in orders.rho + orders.drho)
        cast = _as_complex(orders)
        L, L_complex = sld_orders(orders, K // 2).orders, sld_orders(cast, K // 2).orders
        for k, (got, want) in enumerate(zip(L, L_complex)):
            assert got.lines.dtype == float and want.lines.dtype == complex, k
            assert _same_lines(got, want), k
        assert np.array_equal(qfi_orders(orders, K).orders, qfi_orders(cast, K).orders)

    def test_canonical_series_memory(self):
        # real lines take half the bytes of complex ones, orders 3 and 4
        # hold only the lines the series reads, and a product that only the
        # traces read holds only the lines they meet: gad at n = 9, K = 4
        # peaks at 1.49 MiB (1.59 MiB with the whole product and complex
        # copies in each trace, 3.27 MiB with every string, 6.50 MiB with
        # every operator complex)
        fam = REAL_FAMILIES["gad"]
        ch = fam.eval(0.3)
        spec = correlated(fam, 0.3, 9, 1e-3, *canonical_directions(ch), ch=ch)
        qfi_orders(protocols_module.purity_orders(spec, 4), 4)
        tracemalloc.start()
        try:
            H = qfi_orders(protocols_module.purity_orders(spec, 4), 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(H.orders).all()
        assert peak <= 2.0 * 2 ** 20

    def test_one_complex_operand_makes_a_complex_result(self):
        rng = np.random.default_rng(150)
        A = lines_of(_random_lines(rng, 4, 5))
        real = XorLines(4, A.flips, A.lines.real.copy())
        T = rng.normal(size=(2, 2, 2, 2))
        for left, right in ((real, A), (A, real)):
            assert series_module._product(left, right).lines.dtype == complex
            assert series_module._sum(4, [(1.0, left), (-1.0, right)]).lines.dtype == complex
        assert series_module._product(real, real).lines.dtype == float
        assert series_module._sum(4, [(1.0, real), (-1.0, real)]).lines.dtype == float
        assert series_module._sum(4, []).lines.dtype == float
        # real lines and complex weights, and the other way round
        assert series_module._block_map(T + 1e-3j)(real).lines.dtype == complex
        assert series_module._block_map(T)(A).lines.dtype == complex
        assert series_module._block_map(T)(real).lines.dtype == float


# directions of the differential test: the canonical pair (c perpendicular
# to r0), an oblique pair, and r0 along c
DIRECTIONS = {
    "canonical": None,
    "oblique": (np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8]),
                np.array([-0.6, 0.0, 0.8])),
    "parallel": (np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.6, 0.8])),
}


def _direction_spec(fam, n, direction):
    """The spec at lam = 0.3, r = 0.1 with the directions named."""
    pair = DIRECTIONS[direction] or canonical_directions(fam.eval(0.3))
    return sqsc(fam, 0.3, 0.1, pair[1]) if n == 1 else correlated(fam, 0.3, n, 0.1, *pair)


class TestLinesAgainstDenseOracle:
    """sld_orders and qfi_orders on XOR lines against the dense eigenbasis
    solver, for the orders that protocols.purity_orders builds (n <= 10)."""

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_matches_oracle(self, n, direction):
        spec = _direction_spec(builtin("gad", p=0.8), n, direction)
        # at n = 10 the dense oracle costs about 0.2 s per product: K <= 4
        ks = (2, 4) if n == 10 else (2, 4, 5, 6)
        orders = protocols_module.purity_orders(spec, max(ks))
        L_ref = oracle_sld_orders(orders, max(ks))
        for K in ks:
            H_ref = oracle_qfi_orders(orders, L_ref, K)
            H = qfi_orders(orders, K).orders
            assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max(), K
            L = sld_orders(orders, K // 2).orders
            L_max = max(np.abs(Lk).max() for Lk in L_ref[:K // 2 + 1])
            for k in range(K // 2 + 1):
                assert np.abs(dense_of(L[k]) - L_ref[k]).max() <= 1e-12 * L_max, (K, k)


def _whole_orders(spec, K):
    """The purity orders of every string: the stages of purity_orders
    without its selection of the strings the series reads."""
    r0, ch = spec.in_frame
    ordered = initial_state_orders(spec.n, r0, max_order=min(spec.n, K))
    if spec.c is not None:
        ordered = prep_conjugate(ordered)
    return channel_output_orders(ordered, ch)


class TestOrdersTheSeriesReads:
    """purity_orders keeps order a's strings with at most K - a spectator
    flips: the QFI series on them equals the series on every string, bit for
    bit, and orders through K // 2 are whole."""

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("name", REAL_FAMILIES)
    def test_series_equals_the_series_on_every_string(self, name, n):
        fam = REAL_FAMILIES[name]
        for direction in (["canonical"] if n == 1 else DIRECTIONS):
            spec = _direction_spec(fam, n, direction)
            whole = _whole_orders(spec, 8)  # every order through 8 is whole
            for K in (2, 3, 4, 5, 6, 8):
                orders = protocols_module.purity_orders(spec, K)
                for a in range(min(n, K // 2) + 1):
                    assert _same_lines(orders.rho[a], whole.rho[a]), (direction, K, a)
                    assert _same_lines(orders.drho[a], whole.drho[a]), (direction, K, a)
                assert np.array_equal(qfi_orders(orders, K).orders,
                                      qfi_orders(whole, K).orders), (direction, K)

    def test_canonical_line_counts(self):
        # n = 9, K = 4: orders 3 and 4 hold 84 and 126 lines of rho, none read
        counts = {}
        for name in ("phase_flip", "gad"):
            fam = REAL_FAMILIES[name]
            orders = protocols_module.purity_orders(_direction_spec(fam, 9, "canonical"), 4)
            counts[name] = ([len(A.flips) for A in orders.rho],
                            [len(A.flips) for A in orders.drho])
        assert counts == {"phase_flip": ([1, 9, 36, 0, 0], [0, 9, 0, 0, 0]),
                          "gad": ([1, 9, 36, 0, 0], [1, 9, 36, 0, 0])}

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_orders_serve_every_lower_k(self, direction):
        for name, fam in REAL_FAMILIES.items():
            for n in (3, 6):
                spec = _direction_spec(fam, n, direction)
                orders = protocols_module.purity_orders(spec, 8)
                for K in range(9):
                    want = qfi_orders(protocols_module.purity_orders(spec, K), K).orders
                    assert np.array_equal(qfi_orders(orders, K).orders, want), (name, n, K)

    @pytest.mark.parametrize("name", REAL_FAMILIES)
    def test_one_qubit_and_parallel_keep_every_string(self, name):
        # no spectator (n = 1), or r0 along c: no string flips a spectator
        fam = REAL_FAMILIES[name]
        for n, direction in ((1, "canonical"), (4, "parallel"), (7, "parallel")):
            spec = _direction_spec(fam, n, direction)
            for K in (1, 2, 4):
                orders, whole = protocols_module.purity_orders(spec, K), _whole_orders(spec, K)
                for got, want in zip(orders.rho + orders.drho, whole.rho + whole.drho,
                                     strict=True):
                    assert _same_lines(got, want), (n, K)


class TestQfiOrders:
    def test_reads_sld_orders_through_half_of_k(self, monkeypatch):
        # the stationary form needs L^(0)..L^(K // 2): one solve through
        # K // 2 gives the orders of the full SLD series
        fam = builtin("gad", p=0.8)
        ch = fam.eval(0.3)
        orders = final_orders(fam, 0.3, 3, *canonical_directions(ch), 5)
        full = oracle_sld_orders(orders, 6)
        solves = _record_solves(monkeypatch)
        for K in range(7):
            H = qfi_orders(orders, K).orders
            assert solves.pop()[0] == K // 2 and not solves
            want = oracle_qfi_orders(orders, full, K)
            np.testing.assert_allclose(H, want, rtol=0, atol=1e-13 * np.max(np.abs(H)))

    def test_unital_h2_is_trace_of_derivative_squared(self):
        rng = np.random.default_rng(44)
        fam = random_unital_family(rng)
        c, r0 = perpendicular_pair(rng)
        n = 2
        orders = final_orders(fam, 0.35, n, c, r0, 2)
        series = qfi_orders(orders, 2)
        drho = dense_of(orders.drho[1])
        want = 2 ** n * np.trace(drho @ drho).real
        assert series.orders[2] == pytest.approx(want, rel=1e-12)

    def test_zero_derivatives_give_zero(self):
        fam = builtin("custom_diag", mx="0.5", my="0.5", mz="0.5")
        orders = final_orders(fam, 0.5, 1, None, np.array([1.0, 0, 0]), 2)
        series = qfi_orders(orders, 2)
        np.testing.assert_allclose(series.orders, np.zeros(3), atol=1e-14)

    def test_unital_zero_lowest_orders(self):
        rng = np.random.default_rng(45)
        for fam in UNITAL_BUILTINS:
            lo, hi = fam.domain
            lam = lo + 0.4 * (hi - lo)
            c, r0 = perpendicular_pair(rng)
            for n in (1, 3):
                orders = final_orders(fam, lam, n, c, r0, 2)
                series = qfi_orders(orders, 2)
                assert abs(series.orders[0]) < 1e-12
                assert abs(series.orders[1]) < 1e-12

    def test_depolarizing_two_qubit_fourth_order(self):
        # the n = 2 fourth-order coefficient has the closed form 1 - 6l + 8l^2,
        # confirmed by polynomial fits of the exact oracle
        fam = builtin("depolarizing")
        for lam in (0.1, 0.3, 0.45):
            ch = fam.eval(lam)
            c, r0 = canonical_directions(ch)
            orders = final_orders(fam, lam, 2, c, r0, 4)
            series = qfi_orders(orders, 4)
            assert series.orders[4] == pytest.approx(1 - 6 * lam + 8 * lam ** 2,
                                                     abs=1e-10)

    def test_single_qubit_phase_flip_series(self):
        # expansion of 4r^2 / (1 - (1-2l)^2 r^2): H2 = 4, H3 = 0, H4 = 4(1-2l)^2
        fam = builtin("phase_flip")
        lam = 0.3
        orders = final_orders(fam, lam, 1, None, np.array([1.0, 0, 0]), 4)
        series = qfi_orders(orders, 4)
        np.testing.assert_allclose(
            series.orders, [0, 0, 4, 0, 4 * (1 - 2 * lam) ** 2], atol=1e-12)


class TestSqscClosedForms:
    def test_phase_flip_directions(self):
        ch = builtin("phase_flip").eval(0.3)
        assert sqsc_unital_h2(ch, [1, 0, 0]) == pytest.approx(4.0)
        assert sqsc_unital_h2(ch, [0, 0, 1]) == pytest.approx(0.0)

    def test_depolarizing_any_direction(self):
        ch = builtin("depolarizing").eval(0.6)
        rng = np.random.default_rng(46)
        for _ in range(10):
            assert sqsc_unital_h2(ch, random_unit(rng)) == pytest.approx(1.0)

    def test_requires_unital(self):
        ch = builtin("gad", p=1.0).eval(0.3)
        with pytest.raises(BranchError):
            sqsc_unital_h2(ch, [1, 0, 0])

    def test_optimum_phase_shift(self):
        assert sqsc_unital_opt(builtin("phase_shift").eval(0.9)).h2_opt == pytest.approx(1.0)

    def test_optimum_phase_flip(self):
        opt = sqsc_unital_opt(builtin("phase_flip").eval(0.2))
        assert opt.h2_opt == pytest.approx(4.0)
        # measurement direction lines up with the optimal input direction
        assert abs(opt.meas_dir @ opt.r0_opt) == pytest.approx(1.0)

    def test_optimum_rank_one(self):
        fam = builtin("custom_diag", mx="0", my="0", mz="1-2*l")
        opt = sqsc_unital_opt(fam.eval(0.3))
        assert opt.h2_opt == pytest.approx(4.0, rel=1e-8)
        assert abs(opt.r0_opt @ np.array([0, 0, 1.0])) == pytest.approx(1.0, abs=1e-8)

    def test_nonunital_h0_gad(self):
        for lam in (0.1, 0.4, 0.8):
            ch = builtin("gad", p=1.0).eval(lam)
            assert sqsc_nonunital_h0(ch) == pytest.approx(1.0 / (1.0 - lam ** 2))

    def test_nonunital_h0_gad_partial_damping_against_oracle(self):
        # general p: the closed form carries a (2p-1)^2 prefactor, and the
        # exact oracle at zero purity agrees with it
        for p in (0.6, 0.8):
            fam = builtin("gad", p=p)
            for lam in (0.2, 0.5, 0.8):
                want = (2 * p - 1) ** 2 / (1.0 - lam ** 2 * (2 * p - 1) ** 2)
                assert sqsc_nonunital_h0(fam.eval(lam)) == pytest.approx(want)
                got = dense_exact_qfi(sqsc(fam, lam, 0.0, [1, 0, 0]))
                assert got == pytest.approx(want, rel=1e-9)

    def test_nonunital_h0_wrong_branch(self):
        with pytest.raises(BranchError):
            sqsc_nonunital_h0(builtin("gad", p=0.5).eval(0.3))

    def test_nonunital_h0_small_shift_limit(self):
        # d = lam * x at lam = 0: the curvature term vanishes, H0 = |ddot|^2 = 1
        def value(lam):
            return 0.2 * np.eye(3), np.array([lam, 0.0, 0.0])

        def deriv(lam):
            return np.zeros((3, 3)), np.array([1.0, 0.0, 0.0])

        fam = ChannelFamily("drift", (0.0, 0.5), value, deriv)
        assert sqsc_nonunital_h0(fam.eval(0.0)) == pytest.approx(1.0)
        # cross-check against the exact oracle at zero purity
        got = dense_exact_qfi(sqsc(fam, 1e-5, 0.0, [1, 0, 0]))
        assert got == pytest.approx(1.0, rel=1e-6)

    def test_const_shift_h2_value(self):
        def value(lam):
            return np.diag([lam, lam, lam]), np.array([0.0, 0.0, 0.5])

        fam = ChannelFamily("const_shift", (0.0, 1.0), value)
        ch = fam.eval(0.3)
        assert sqsc_nonunital_const_h2(ch, [0, 0, 1]) == pytest.approx(4.0 / 3.0, rel=1e-8)
        # perpendicular direction: the projector term dies
        assert sqsc_nonunital_const_h2(ch, [1, 0, 0]) == pytest.approx(1.0, rel=1e-8)
        # oracle cross-check: the r^2 slope of the exact QFI
        fit = fit_exact_orders(fam, 0.3, 1, None, np.array([0, 0, 1.0]),
                               rs=[1e-3, 2e-3, 4e-3], orders=(2, 3, 4))
        assert fit.coeffs[2] == pytest.approx(4.0 / 3.0, rel=1e-4)

    def test_const_shift_small_d_limit(self):
        def maker(eps):
            def value(lam):
                return np.diag([lam, lam, lam]), np.array([0.0, 0.0, eps])
            return ChannelFamily("c", (0.0, 1.0), value)

        ch_unital = builtin("depolarizing").eval(0.3)
        want = sqsc_unital_h2(ch_unital, [0, 0, 1])
        got = sqsc_nonunital_const_h2(maker(1e-6).eval(0.3), [0, 0, 1])
        assert got == pytest.approx(want, rel=1e-5)

    def test_const_shift_wrong_branches(self):
        ch = builtin("gad", p=1.0).eval(0.3)
        with pytest.raises(BranchError):
            sqsc_nonunital_const_h2(ch, [0, 0, 1])
        with pytest.raises(BranchError):
            sqsc_nonunital_const_h2(builtin("phase_flip").eval(0.3), [0, 0, 1])


class TestCorrH2:
    def test_phase_flip_two_qubits(self):
        ch = builtin("phase_flip").eval(0.3)
        assert corr_h2(ch, 2, [1, 0, 0], [0, 1, 0]) == pytest.approx(8.0)

    def test_depolarizing_five_qubits(self):
        ch = builtin("depolarizing").eval(0.4)
        rng = np.random.default_rng(47)
        c, r0 = perpendicular_pair(rng)
        assert corr_h2(ch, 5, c, r0) == pytest.approx(5.0)

    def test_aligned_directions_against_oracle(self):
        fam = builtin("phase_flip")
        lam = 0.3
        ch = fam.eval(lam)
        c = np.array([1.0, 0.0, 0.0])
        closed = corr_h2(ch, 2, c, c)
        fit = fit_exact_orders(fam, lam, 2, c, c, rs=[1e-3, 2e-3, 4e-3])
        assert fit.coeffs[2] == pytest.approx(closed, rel=5e-3)

    def test_matches_generic_solver_random_channels(self):
        rng = np.random.default_rng(48)
        for _ in range(12):
            fam = random_unital_family(rng)
            lam = rng.uniform(0.15, 0.8)
            ch = fam.eval(lam)
            c, r0 = random_unit(rng), random_unit(rng)
            n = int(rng.integers(2, 6))
            closed = corr_h2(ch, n, c, r0)
            orders = final_orders(fam, lam, n, c, r0, 2)
            series = qfi_orders(orders, 2)
            assert closed == pytest.approx(series.orders[2], abs=1e-9, rel=1e-9)

    def test_branch_and_argument_errors(self):
        ch = builtin("gad", p=0.9).eval(0.2)
        with pytest.raises(BranchError):
            corr_h2(ch, 2, [1, 0, 0], [0, 1, 0])
        ch = builtin("phase_flip").eval(0.2)
        with pytest.raises(ValueError):
            corr_h2(ch, 1, [1, 0, 0], [0, 1, 0])
        with pytest.raises(ValueError):
            corr_h2(ch, 2, [1, 1, 0], [0, 1, 0])


class TestBoundsAndGain:
    def test_phase_flip_bounds_coincide(self):
        ch = builtin("phase_flip").eval(0.5)
        assert corr_bounds(ch, 4) == pytest.approx((16.0, 16.0))

    def test_rank_one_bounds(self):
        fam = builtin("custom_diag", mx="0", my="0", mz="1-2*l")
        lower, upper = corr_bounds(fam.eval(0.25), 4)
        assert lower == pytest.approx(12.0, rel=1e-7)
        assert upper == pytest.approx(16.0, rel=1e-7)

    def test_depolarizing_two_qubits(self):
        assert corr_bounds(builtin("depolarizing").eval(0.3), 2) == pytest.approx((2.0, 2.0))

    def test_insensitive_channel(self):
        fam = builtin("custom_diag", mx="0.5", my="0.5", mz="0.5")
        assert corr_bounds(fam.eval(0.5), 3) == (0.0, 0.0)
        with pytest.raises(BranchError):
            corr_gain_ratio(fam.eval(0.5), 3)

    def test_gain_ratio_examples(self):
        assert corr_gain_ratio(builtin("phase_shift").eval(0.4), 7) == pytest.approx((7.0, 7.0))
        fam = builtin("custom_diag", mx="0", my="0", mz="1-2*l")
        lo, hi = corr_gain_ratio(fam.eval(0.3), 5)
        assert (lo, hi) == pytest.approx((4.0, 5.0), rel=1e-6)

    def test_gain_lower_bound_floor(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            fam = random_unital_family(rng)
            lo, hi = corr_gain_ratio(fam.eval(0.4), 2)
            assert lo >= 1.0 - 1e-12 and hi == 2.0

    def test_canonical_value_sits_between_bounds(self):
        rng = np.random.default_rng(50)
        trials = 0
        for _ in range(25):
            fam = random_unital_family(rng)
            lam = rng.uniform(0.1, 0.85)
            ch = fam.eval(lam)
            c_star, r0_star = canonical_directions(ch)
            for n in (2, 3, 5):
                lower, upper = corr_bounds(ch, n)
                val = corr_h2(ch, n, c_star, r0_star)
                assert lower - 1e-9 <= val <= upper + 1e-9
                assert val == pytest.approx(lower, rel=1e-9, abs=1e-12)
                trials += 1
        assert trials == 75

    def test_grid_never_exceeds_upper(self):
        rng = np.random.default_rng(51)
        for _ in range(4):
            fam = random_unital_family(rng)
            ch = fam.eval(rng.uniform(0.2, 0.8))
            for n in (2, 4):
                gm = corr_h2_grid_max(ch, n, grid=20)
                assert isinstance(gm, GridMax)
                _, upper = corr_bounds(ch, n)
                assert gm.value <= upper + 1e-9
                assert gm.value >= corr_h2(ch, n, *canonical_directions(ch)) - 1e-9

    def test_sphere_directions_are_unit(self):
        dirs = sphere_directions(20)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert dirs.shape == (20, 3)

    def test_degenerate_subspace_choice_is_irrelevant(self):
        # s1 = s2 channels: any orthonormal pair in the leading singular plane
        # produces the same lowest-order value, so the arbitrary basis the
        # decomposition returns for a degenerate block cannot matter
        for fam in (builtin("phase_flip"), builtin("phase_shift")):
            lo, hi = fam.domain
            ch = fam.eval(lo + 0.3 * (hi - lo))
            c0, r00 = canonical_directions(ch)
            base = corr_h2(ch, 3, c0, r00)
            for theta in np.linspace(0.1, 1.4, 5):
                c = np.cos(theta) * c0 + np.sin(theta) * r00
                r0 = -np.sin(theta) * c0 + np.cos(theta) * r00
                assert corr_h2(ch, 3, c, r0) == pytest.approx(base, rel=1e-10)


class TestHigherOrders:
    def test_depolarizing_third_qubit_values(self):
        # fourth order at n = 3: -12 lam + 21 lam^2 (cross traces included;
        # confirmed by the generic solver and exact-oracle fits)
        fam = builtin("depolarizing")
        for lam in (0.1, 0.25, 0.5, 0.7):
            ch = fam.eval(lam)
            c, r0 = canonical_directions(ch)
            h3, h4 = corr_h3_h4(ch, 3, c, r0)
            assert h3 == 0.0
            assert h4 == pytest.approx(-12 * lam + 21 * lam ** 2, abs=1e-12)

    def test_matches_generic_solver(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            fam = random_unital_family(rng)
            lam = rng.uniform(0.15, 0.8)
            ch = fam.eval(lam)
            c, r0 = perpendicular_pair(rng)
            n = int(rng.integers(3, 6))
            h3, h4 = corr_h3_h4(ch, n, c, r0)
            orders = final_orders(fam, lam, n, c, r0, 4)
            series = qfi_orders(orders, 4)
            assert abs(series.orders[3]) < 1e-9
            assert h4 == pytest.approx(series.orders[4], rel=1e-8, abs=1e-9)

    def test_requires_perpendicular_and_three_qubits(self):
        ch = builtin("depolarizing").eval(0.3)
        with pytest.raises(ValueError, match="n >= 3"):
            corr_h3_h4(ch, 2, [1, 0, 0], [0, 1, 0])
        with pytest.raises(ValueError, match="perpendicular"):
            corr_h3_h4(ch, 3, [1, 0, 0], [1, 0, 0])

    @pytest.mark.parametrize("tilt, perpendicular", [(1e-9, False), (0.5e-9, True)])
    def test_perpendicular_is_the_pieces_rule(self, tilt, perpendicular):
        # |c.r0| < blocks.PERPENDICULAR_TOL, as for the pieces and the frame
        # of c: c.r0 = 1e-9 exactly is oblique there, and so here
        ch = builtin("depolarizing").eval(0.3)
        c, r0 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, tilt])
        assert c @ r0 == tilt
        if perpendicular:
            corr_h3_h4(ch, 3, c, r0)
        else:
            with pytest.raises(ValueError, match="perpendicular"):
                corr_h3_h4(ch, 3, c, r0)

    def test_fitted_exact_qfi_matches_corrected_form(self):
        fam = builtin("depolarizing")
        lam, n = 0.25, 3
        ch = fam.eval(lam)
        c, r0 = canonical_directions(ch)
        fit = fit_exact_orders(fam, lam, n, c, r0,
                               rs=np.logspace(-4, -2, 10), orders=(2, 3, 4, 5))
        _, h4 = corr_h3_h4(ch, n, c, r0)
        assert fit.coeffs[4] == pytest.approx(h4, rel=5e-3)
        assert abs(fit.coeffs[3]) < 1e-5


class TestSaturatingBasis:
    def test_sqsc_phase_flip_projectors_along_r0(self):
        fam = builtin("phase_flip")
        r0 = np.array([1.0, 0.0, 0.0])
        orders = final_orders(fam, 0.3, 1, None, r0, 1)
        projs = saturating_basis_lowest_order(dense_of(orders.drho[1]))
        from support import PAULI, sigma
        expected = [0.5 * (PAULI["I"] + sigma(r0)), 0.5 * (PAULI["I"] - sigma(r0))]
        match = [min(np.max(np.abs(P - E)) for P in projs) for E in expected]
        assert max(match) < 1e-12

    def test_zero_operator_gives_complete_basis(self):
        projs = saturating_basis_lowest_order(np.zeros((4, 4)))
        np.testing.assert_allclose(sum(projs), np.eye(4), atol=1e-12)

    def test_correlated_phase_flip_beats_lower_bound(self):
        fam = builtin("phase_flip")
        lam, n, r = 0.3, 2, 1e-3
        ch = fam.eval(lam)
        c, r0 = canonical_directions(ch)
        orders = final_orders(fam, lam, n, c, r0, 1)
        projs = saturating_basis_lowest_order(dense_of(orders.drho[1]))
        spec = correlated(fam, lam, n, r, c, r0)
        rho, drho = (oracle_to_dense(st) for st in lab_output(spec))
        p = np.array([np.trace(P @ rho).real for P in projs])
        dp = np.array([np.trace(P @ drho).real for P in projs])
        got = cfi(ProbModel(p, dp))
        lower, _ = corr_bounds(ch, n)
        assert got >= lower * r ** 2 * (1.0 - 1e-3)


class TestSeriesOracleAgreement:
    @pytest.mark.parametrize("fam", UNITAL_BUILTINS, ids=lambda f: f.name)
    def test_fit_recovers_h2_and_kills_h3(self, fam):
        # The three-point fit leaves a truncation residue in the fitted H3
        # (the true H3 and H5 vanish for perpendicular directions, so what
        # leaks is the sixth order, up to ~1e-5 at n=4); the exact H3 = 0
        # statement is enforced at 1e-9 through the order solver elsewhere.
        lo, hi = fam.domain
        for lam in (lo + 0.25 * (hi - lo), lo + 0.6 * (hi - lo)):
            ch = fam.eval(lam)
            c, r0 = canonical_directions(ch)
            for n in (1, 2, 3, 4):
                if n == 1:
                    h2 = sqsc_unital_h2(ch, r0)
                else:
                    h2 = corr_h2(ch, n, c, r0)
                fit = fit_exact_orders(fam, lam, n, c, r0, rs=[1e-3, 2e-3, 4e-3])
                if h2 > 1e-9:
                    assert fit.coeffs[2] == pytest.approx(h2, rel=1e-3)
                else:
                    assert abs(fit.coeffs[2]) < 1e-9
                assert abs(fit.coeffs[3]) < 2e-5

    def test_odd_orders_vanish_for_perpendicular_directions(self):
        rng = np.random.default_rng(53)
        for _ in range(6):
            fam = random_unital_family(rng)
            lam = rng.uniform(0.2, 0.8)
            c, r0 = perpendicular_pair(rng)
            n = int(rng.integers(2, 5))
            orders = final_orders(fam, lam, n, c, r0, min(n, 5))
            K = min(n, 5)
            series = qfi_orders(orders, K)
            for j in range(3, K + 1, 2):
                assert abs(series.orders[j]) < 1e-9

    def test_validity_regime(self):
        # truncation error of r^2 H2 stays below 2% once n r^2 = 0.01
        for fam in (builtin("phase_flip"), builtin("depolarizing")):
            for n in (2, 4):
                lam = 0.3
                ch = fam.eval(lam)
                c, r0 = canonical_directions(ch)
                r = np.sqrt(0.01 / n)
                spec = correlated(fam, lam, n, r, c, r0)
                exact = dense_exact_qfi(spec)
                approx = corr_h2(ch, n, c, r0) * r ** 2
                assert abs(approx - exact) / exact < 0.02


class TestFit:
    def test_recovers_exact_polynomial(self):
        rs = default_fit_purities()
        qs = 3.0 * rs ** 2 - 0.5 * rs ** 3 + 7.0 * rs ** 4
        fit = fit_qfi_orders(rs, qs, orders=(2, 3, 4))
        assert fit.coeffs[2] == pytest.approx(3.0, rel=1e-9)
        assert fit.coeffs[3] == pytest.approx(-0.5, rel=1e-6)
        assert fit.coeffs[4] == pytest.approx(7.0, rel=1e-6)
        assert fit.cond < 1e6

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_qfi_orders([1e-3, 2e-3], [1.0, 2.0], orders=(2, 3, 4))
