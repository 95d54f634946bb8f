"""Acceptance gate: every criterion at its stated tolerance, one line each.

Two criteria first asserted quoted closed-form targets that were refuted;
both now assert the corrected forms, written out in the tests:

* Criterion 2 quoted the zeroth-order damping QFI as 1/[1 - lam^2 (2p-1)^2].
  At r = 0 the output Bloch vector of gad is b = lam (2p-1) z, which moves
  along a fixed axis, so the QFI is |db|^2/(1 - |b|^2)
  = (2p-1)^2/[1 - lam^2 (2p-1)^2].  At p = 1/2 the output is I/2 for every
  lam, so the QFI is 0 while the quoted form gives 1.
* Criterion 6 quoted the fourth order for depolarizing (M = lam I, c
  perpendicular to r0) as H^(4) = (n-1) + lam^2 n(3n-2).  A dense
  eigendecomposition of the prepared state (CZ in the c basis on every pair)
  gives H^(4) = -(n-1)(n-3) - 6(n-1) lam + n(3n-2) lam^2; the quoted form
  drops the cross traces -(n-1)(n-2) - 6(n-1) lam that corr_h3_h4 keeps.
"""

import itertools
import time

import numpy as np
import pytest

from noisyqfi import builtin
from noisyqfi.bloch import apply_bloch, svd3, validate
from noisyqfi.cli import RunConfig, run_fit_orders
from noisyqfi.fisher import ProbModel, cfi
from noisyqfi.mstate import (
    PauliState,
    apply_channel,
    initial_state,
    initial_state_orders,
    to_dense,
)
from noisyqfi.protocols import (
    build_state,
    compare,
    correlated,
    escher_phase_flip_demo,
    local_measurement_sim,
    nonunital_corr_equals_sqsc_check,
    sqsc,
)
from noisyqfi.protocols import measurement_cfi_lowest_order
from noisyqfi.series import (
    canonical_directions,
    channel_output_orders,
    corr_bounds,
    corr_h2,
    corr_h2_grid_max,
    qfi_orders,
    sqsc_unital_opt,
)

from support import (
    PAULI,
    conjugate,
    dense_exact_qfi,
    dense_qfi,
    fit_exact_orders,
    from_dense,
    lab_prep_conjugate,
    local_measurement_cfi_ungrouped,
    permute_qubits,
    random_state,
    random_unit,
    random_unital_family,
    sigma,
    sld_exact,
    u_c,
    u_prep,
)


def report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_phase_flip_exact_qfi():
    start = time.perf_counter()
    fam = builtin("phase_flip")
    worst = 0.0
    for lam in np.arange(0.1, 0.95, 0.1):
        for r in np.arange(0.1, 0.95, 0.1):
            got = dense_exact_qfi(sqsc(fam, lam, r, [1, 0, 0]))
            want = 4 * r ** 2 / (1 - (1 - 2 * lam) ** 2 * r ** 2)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 1.0
    report(1, "phase-flip exact QFI", f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gad_zeroth_order():
    """Exact QFI at r = 0 for gad equals (2p-1)^2/[1 - lam^2 (2p-1)^2].

    The quoted target 1/[1 - lam^2 (2p-1)^2] dropped the |db|^2 = (2p-1)^2
    prefactor of the fixed-axis qubit QFI |db|^2/(1 - |b|^2) with
    b = lam (2p-1) z; it agrees with the corrected form only at p = 1.
    """
    start = time.perf_counter()
    worst = 0.0
    for p in (0.6, 0.8, 1.0):
        fam = builtin("gad", p=p)
        for lam in np.arange(0.1, 0.95, 0.1):
            got = dense_exact_qfi(sqsc(fam, lam, 0.0, [1, 0, 0]))
            corrected = (2 * p - 1) ** 2 / (1.0 - lam ** 2 * (2 * p - 1) ** 2)
            # the oracle always agrees with the prefactored closed form
            assert got == pytest.approx(corrected, rel=1e-9)
            worst = max(worst, abs(got - corrected) / corrected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "GAD zeroth order", f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_corr_h2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    rs = np.logspace(-4, np.log10(5e-3), 7)
    worst = 0.0
    checked = 0
    for _ in range(50):
        fam = random_unital_family(rng)
        lam = float(rng.uniform(0.15, 0.85))
        ch = fam.eval(lam)
        for n in (2, 3, 4):
            c, r0 = random_unit(rng), random_unit(rng)
            closed = corr_h2(ch, n, c, r0)
            fit = fit_exact_orders(fam, lam, n, c, r0, rs=rs, orders=(2, 3, 4, 5))
            fitted = fit.coeffs[2]
            if abs(closed) < 1e-6:
                assert abs(fitted - closed) < 1e-9, (fam.name, lam, n)
            else:
                rel = abs(fitted - closed) / abs(closed)
                worst = max(worst, rel)
                assert rel < 5e-3, (fam.name, lam, n, closed, fitted)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 150
    assert elapsed < 120.0
    report(3, "correlated H2 vs oracle",
           f"150 random cases, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_n_fold_gain():
    start = time.perf_counter()
    r = 1e-3
    results = []
    for name in ("phase_flip", "phase_shift", "depolarizing"):
        fam = builtin(name)
        lam = 0.3
        ch = fam.eval(lam)
        c_star, r0_star = canonical_directions(ch)
        baseline_r0 = sqsc_unital_opt(ch).r0_opt
        for n in range(2, 7):
            rep = compare(correlated(fam, lam, n, r, c_star, r0_star),
                          sqsc(fam, lam, r, baseline_r0))
            assert rep.status == "ok"
            assert n * 0.98 <= rep.ratio_exact <= n * 1.02, (name, n, rep.ratio_exact)
            results.append(rep.ratio_exact / n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    spread = max(abs(x - 1.0) for x in results)
    report(4, "n-fold gain", f"15 cases, max |ratio/n - 1| {spread:.2e}, {elapsed:.1f}s")


def test_criterion_5_rank_one_gain_is_n_minus_1():
    start = time.perf_counter()
    fam = builtin("custom_diag", mx="0", my="0", mz="1-2*l")
    lam = 0.3
    ch = fam.eval(lam)
    c_star, r0_star = canonical_directions(ch)
    for n in (3, 4, 5):
        want = 4.0 * (n - 1)
        gm = corr_h2_grid_max(ch, n, grid=20)
        assert abs(gm.value - want) / want < 0.01, (n, gm.value)
        lower, _ = corr_bounds(ch, n)
        canon = corr_h2(ch, n, c_star, r0_star)
        assert canon == pytest.approx(lower, rel=1e-8)
        assert canon == pytest.approx(want, rel=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "rank-1 (n-1)-fold gain", f"n in 3..5, {elapsed:.1f}s")


def _fit_orders_rows(lam: float, n: int):
    cfg = RunConfig(command="fit-orders",
                    channel={"name": "depolarizing", "params": {}},
                    lams=[lam], ns=[n])
    _, rows = run_fit_orders(cfg)
    return {row[2]: row for row in rows}


def test_criterion_6_fitted_h3_vanishes():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        for lam in (0.25, 0.5):
            fitted_h3 = _fit_orders_rows(lam, n)[3][3]
            worst = max(worst, abs(fitted_h3))
            assert abs(fitted_h3) < 1e-5, (n, lam, fitted_h3)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, "fitted H3 vanishes", f"max |H3| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_h4_matches_quoted_closed_form():
    """Fitted H^(4) for depolarizing equals
    -(n-1)(n-3) - 6(n-1) lam + n(3n-2) lam^2 to 5%.

    The quoted target (n-1) + lam^2 n(3n-2) dropped the cross traces
    -(n-1)(n-2) - 6(n-1) lam between the order-two operator and the squared
    order-one operator, which survive at matching tensor slots.  At n = 2 the
    corrected form is (1-2 lam)(1-4 lam), zero at both lam = 0.25 and
    lam = 0.5, so those cells only check that the fourth order vanishes (to
    the 1e-4 absolute floor).  The fit must also reproduce the order solver's
    value to 0.5% in every cell.
    """
    start = time.perf_counter()
    failures = []
    for n in (2, 3):
        for lam in (0.25, 0.5):
            rows = _fit_orders_rows(lam, n)
            fitted_h4 = rows[4][3]
            solver_h4 = rows[4][4]
            assert fitted_h4 == pytest.approx(solver_h4, rel=5e-3, abs=1e-4)
            expected = (-(n - 1) * (n - 3) - 6 * (n - 1) * lam
                        + n * (3 * n - 2) * lam ** 2)
            if fitted_h4 != pytest.approx(expected, rel=5e-2, abs=1e-4):
                failures.append((n, lam, fitted_h4, expected))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert not failures, (
        "fitted H4 of the exact QFI disagrees with the closed form "
        "-(n-1)(n-3) - 6(n-1)lam + n(3n-2)lam^2 [cells: (n, lam, fitted, "
        f"expected) = {failures}]")
    report(6, "H4 closed form", f"4 cells, {elapsed:.1f}s")


def test_criterion_7_measurement_saturation():
    start = time.perf_counter()
    r = 1e-3
    worst = 0.0
    for name in ("phase_flip", "depolarizing"):
        fam = builtin(name)
        lam = 0.3
        ch = fam.eval(lam)
        c_star, r0_star = canonical_directions(ch)
        for n in (2, 3, 4, 5):
            rec = local_measurement_sim(correlated(fam, lam, n, r, c_star, r0_star))
            want = measurement_cfi_lowest_order(ch, n, c_star, r0_star)
            rel = abs(rec.cfi / r ** 2 - want) / want
            worst = max(worst, rel)
            assert rel < 0.02, (name, n, rec.cfi / r ** 2, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, "local measurement saturation", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_nonunital_no_gain():
    start = time.perf_counter()
    for p in (0.7, 1.0):
        fam = builtin("gad", p=p)
        for n in (2, 3):
            rep = nonunital_corr_equals_sqsc_check(fam, 0.4, n)
            assert rep.equal, (p, n, rep)
            assert rep.h0_matches, (p, n, rep)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, "non-unital no-gain", f"4 cases equal at 1e-8, {elapsed:.1f}s")


def test_criterion_9_escher_demonstration():
    start = time.perf_counter()
    rows = escher_phase_flip_demo(np.linspace(0.05, 0.95, 19), np.linspace(0.1, 0.9, 9))
    min_slack = min(row.slack for row in rows)
    elapsed = time.perf_counter() - start
    assert len(rows) == 171
    assert min_slack > 0.0
    assert elapsed < 1.0
    report(9, "bound demonstration", f"171 cells, min slack {min_slack:.3f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 10: counted randomized property suites
# ---------------------------------------------------------------------------

def _prop_svd_reconstruction(rng, failures):
    count = 0
    for _ in range(300):
        M = rng.uniform(-3, 3, size=(3, 3))
        dec = svd3(M)
        ok = (np.linalg.norm(dec.reconstruct() - M) < 1e-12
              and dec.S[0] >= dec.S[1] >= dec.S[2] >= 0.0
              and np.allclose(dec.A.T @ dec.A, np.eye(3), atol=1e-12)
              and np.allclose(dec.B.T @ dec.B, np.eye(3), atol=1e-12))
        if not ok:
            failures.append(("svd3", M))
        count += 1
    return count


def _prop_bloch_contraction(rng, failures):
    fams = [builtin("phase_shift"), builtin("phase_flip"), builtin("depolarizing"),
            builtin("gad", p=0.8)]
    count = 0
    for _ in range(200):
        fam = fams[int(rng.integers(len(fams)))]
        lo, hi = fam.domain
        lam = float(rng.uniform(lo + 1e-3, hi - 1e-3))
        ch = fam.eval(lam)
        if not validate(ch).passed:
            failures.append(("validate", fam.name, lam))
        out = apply_bloch(ch, 1.0, random_unit(rng))
        if np.linalg.norm(out) > 1.0 + 1e-9:
            failures.append(("contraction", fam.name, lam))
        count += 1
    return count


def _prop_pauli_product(rng, failures):
    count = 0
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = sigma(a) @ sigma(b)
        rhs = (a @ b) * PAULI["I"] + 1j * sigma(np.cross(a, b))
        if not np.allclose(lhs, rhs, atol=1e-12):
            failures.append(("pauli_product", a, b))
        count += 1
    return count


def _prop_gate_conjugation(rng, failures):
    count = 0
    for _ in range(50):
        a, c = rng.normal(size=3), random_unit(rng)
        U = u_c(c)
        lhs = U @ np.kron(sigma(a), PAULI["I"]) @ U.conj().T
        rhs = (np.kron(sigma(a), sigma(c))
               + (a @ c) * (np.kron(sigma(c), PAULI["I"]) - np.kron(sigma(c), sigma(c))))
        if not np.allclose(lhs, rhs, atol=1e-12):
            failures.append(("gate_vector_identity", a, c))
        count += 1
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
        if not np.allclose(lhs, rhs, atol=1e-12):
            failures.append(("gate_pair_identity", a, b, c))
        count += 1
    return count


def _prep_first_order_closed_form(n, c, r0):
    def term(slots):
        out = np.array([1.0])
        vecs = {"r0": np.array([0.0, *r0]), "c": np.array([0.0, *c]),
                "I": np.array([1.0, 0, 0, 0])}
        for s in slots:
            out = np.kron(out, vecs[s])
        return out

    N = 2 ** n
    want = np.zeros(4 ** n)
    for k in range(n):
        want += term(["r0" if s == k else "c" for s in range(n)])
        want += (r0 @ c) * term(["c" if s == k else "I" for s in range(n)])
    want -= n * (r0 @ c) * term(["c"] * n)
    return want / N


def _prop_prepared_first_order(rng, failures):
    count = 0
    for n in (2, 3, 4, 5):
        for _ in range(10):
            c, r0 = random_unit(rng), random_unit(rng)
            got = lab_prep_conjugate(initial_state_orders(n, r0, max_order=1), c)
            want = _prep_first_order_closed_form(n, c, r0)
            if not np.allclose(got.orders[1].coeffs, want, atol=1e-12):
                failures.append(("prepared_first_order", n))
            count += 1
    return count


def _prop_prep_pairwise_vs_dense(rng, failures):
    count = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        c = random_unit(rng)
        st = PauliState(n, rng.normal(size=4 ** n))
        got = lab_prep_conjugate(st, c)
        want = conjugate(st, u_prep(n, c))
        if not np.allclose(got.coeffs, want.coeffs, atol=1e-11):
            failures.append(("prep_vs_dense", n))
        count += 1
    return count


def _prop_qcrb(rng, failures):
    count = 0
    for _ in range(60):
        n = int(rng.integers(1, 3))
        dim = 2 ** n
        rho = random_state(rng, n)
        H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        drho = (H + H.conj().T) / 2.0
        drho -= np.trace(drho) * np.eye(dim) / dim
        U = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))[0]
        p = np.array([(U[:, k].conj() @ rho @ U[:, k]).real for k in range(dim)])
        dp = np.array([(U[:, k].conj() @ drho @ U[:, k]).real for k in range(dim)])
        model = ProbModel(p / p.sum(), dp - dp.sum() / dim)
        if cfi(model) > dense_qfi(rho, drho) + 1e-8:
            failures.append(("qcrb", n))
        count += 1
    return count


def _prop_sld_residual(rng, failures):
    count = 0
    for _ in range(40):
        n = int(rng.integers(1, 3))
        dim = 2 ** n
        rho = random_state(rng, n)
        H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        drho = (H + H.conj().T) / 2.0
        drho -= np.trace(drho) * np.eye(dim) / dim
        res = sld_exact(rho, drho)
        residual = drho - 0.5 * (res.L @ rho + rho @ res.L)
        if np.max(np.abs(residual)) > 1e-8:
            failures.append(("sld_residual", n))
        count += 1
    return count


def _prop_bound_ordering(rng, failures):
    count = 0
    for _ in range(40):
        fam = random_unital_family(rng)
        lam = float(rng.uniform(0.15, 0.85))
        ch = fam.eval(lam)
        c_star, r0_star = canonical_directions(ch)
        for n in (2, 3, 5):
            lower, upper = corr_bounds(ch, n)
            canon = corr_h2(ch, n, c_star, r0_star)
            probe = corr_h2(ch, n, random_unit(rng), random_unit(rng))
            if not (lower - 1e-9 <= canon <= upper + 1e-9 and probe <= upper + 1e-9):
                failures.append(("bound_ordering", fam.name, n))
            count += 1
    return count


def _prop_corr_h2_vs_solver(rng, failures):
    count = 0
    for _ in range(30):
        fam = random_unital_family(rng)
        lam = float(rng.uniform(0.15, 0.85))
        ch = fam.eval(lam)
        c, r0 = random_unit(rng), random_unit(rng)
        n = int(rng.integers(2, 5))
        ordered = lab_prep_conjugate(initial_state_orders(n, r0, max_order=2), c)
        orders = channel_output_orders(ordered, ch)
        series = qfi_orders(orders, 2)
        if abs(corr_h2(ch, n, c, r0) - series.orders[2]) > 1e-9:
            failures.append(("corr_h2_vs_solver", fam.name, n))
        if abs(series.orders[0]) > 1e-12 or abs(series.orders[1]) > 1e-12:
            failures.append(("unital_zero_orders", fam.name, n))
        count += 2
    return count


def _prop_permutation_symmetry(rng, failures):
    count = 0
    for _ in range(8):
        fam = (builtin("phase_flip"), builtin("gad", p=0.8))[int(rng.integers(2))]
        n = int(rng.integers(3, 5))
        spec = correlated(fam, float(rng.uniform(0.1, 0.8)), n,
                          float(rng.uniform(0.0, 0.5)), random_unit(rng),
                          random_unit(rng))
        prep = build_state(spec)
        perms = list(itertools.permutations(range(1, n)))[1:4]
        for perm in perms:
            moved = permute_qubits(prep.pauli, (0,) + perm)
            if not np.allclose(moved.coeffs, prep.pauli.coeffs, atol=1e-12):
                failures.append(("permutation", fam.name, n, perm))
            count += 1
    return count


def _prop_grouping_lossless(rng, failures):
    count = 0
    for _ in range(12):
        fam = (builtin("phase_flip"), builtin("depolarizing"))[int(rng.integers(2))]
        n = int(rng.integers(2, 5))
        spec = correlated(fam, float(rng.uniform(0.1, 0.9)), n,
                          float(rng.uniform(0.0, 0.4)), random_unit(rng),
                          random_unit(rng))
        rec = local_measurement_sim(spec)
        if abs(rec.cfi - local_measurement_cfi_ungrouped(spec)) > 1e-10 * max(1, rec.cfi):
            failures.append(("grouping", fam.name, n))
        count += 1
    return count


def _prop_order_decomposition(rng, failures):
    count = 0
    for _ in range(24):
        fam = builtin("gad", p=float(rng.uniform(0.5, 1.0)))
        n = int(rng.integers(1, 4))
        r0 = random_unit(rng)
        r = float(rng.uniform(0.0, 1.0))
        ch = fam.eval(float(rng.uniform(0.05, 0.9)))
        whole = apply_channel(initial_state(n, r, r0), ch)
        ordered = apply_channel(initial_state_orders(n, r0), ch)
        if not np.allclose(ordered.at_purity(r).coeffs, whole.coeffs, atol=1e-13):
            failures.append(("order_decomposition", n))
        count += 1
    return count


def _prop_dense_round_trip(rng, failures):
    count = 0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        dim = 2 ** n
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = (A + A.conj().T) / 2.0
        if np.max(np.abs(to_dense(from_dense(H)) - H)) > 1e-13:
            failures.append(("dense_round_trip", n))
        count += 1
    return count


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(1000)
    failures: list = []
    total = 0
    total += _prop_svd_reconstruction(rng, failures)
    total += _prop_bloch_contraction(rng, failures)
    total += _prop_pauli_product(rng, failures)
    total += _prop_gate_conjugation(rng, failures)
    total += _prop_prepared_first_order(rng, failures)
    total += _prop_prep_pairwise_vs_dense(rng, failures)
    total += _prop_qcrb(rng, failures)
    total += _prop_sld_residual(rng, failures)
    total += _prop_bound_ordering(rng, failures)
    total += _prop_corr_h2_vs_solver(rng, failures)
    total += _prop_permutation_symmetry(rng, failures)
    total += _prop_grouping_lossless(rng, failures)
    total += _prop_order_decomposition(rng, failures)
    total += _prop_dense_round_trip(rng, failures)
    elapsed = time.perf_counter() - start
    assert total >= 1000, total
    assert not failures, failures[:10]
    assert elapsed < 180.0
    report(10, "randomized property suites",
           f"{total} cases, 0 failures, {elapsed:.1f}s")
