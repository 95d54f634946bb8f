"""The exact QFI on Schur-Weyl blocks and on 4x4 pieces, against each other
and against the dense 2^n eigendecomposition oracle."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyqfi import blocks, builtin
from noisyqfi.blocks import (
    MAX_QUBITS_BLOCKS,
    MAX_QUBITS_PIECES,
    PERPENDICULAR_TOL,
    _check_weights,
    _log_weights,
    exact_qfi,
    exact_qfis,
    spin_blocks,
)
from noisyqfi.protocols import ProtocolSpec, build_state, correlated, sqsc
from noisyqfi.series import canonical_directions

from support import (
    dense_exact_qfi,
    dense_pair,
    perpendicular_pair,
    random_unit,
    random_unital_family,
    sld_exact,
)

PURITIES = (0.0, 1e-3, 0.05, 0.4, 1.0)


def _families(rng):
    return [
        builtin("phase_shift"),
        builtin("phase_flip"),
        builtin("depolarizing"),
        builtin("gad", p=0.8),
        builtin("gad", p=1.0),
        builtin("pauli", lam_on="z", px=0.05, py=0.1),
        builtin("custom_diag", mx="1-2*l", my="1-2*l", mz="1"),
        random_unital_family(rng),
    ]


def _spec(fam, lam, n, r, c, r0):
    return sqsc(fam, lam, r, r0) if n == 1 else correlated(fam, lam, n, r, c, r0)


def _respec(spec: ProtocolSpec, **changes) -> ProtocolSpec:
    """The spec with the given fields changed."""
    fields = dict(family=spec.family, lam=spec.lam, n=spec.n, r=spec.r, r0=spec.r0,
                  c=spec.c, ch=spec.ch)
    return ProtocolSpec(**{**fields, **changes})


def _direction_pairs(rng, fam, lam):
    """Canonical directions, random ones, and c parallel to r0."""
    c_star, r0_star = canonical_directions(fam.eval(lam))
    c = random_unit(rng)
    return [(c_star, r0_star), (c, random_unit(rng)), (c, c)]


def _assert_matches(spec, rel=1e-12, eps=None):
    got, want = exact_qfi(spec, eps), dense_exact_qfi(spec, eps)
    assert abs(got - want) <= rel * abs(want) + 1e-28, (spec.family.name, spec.n,
                                                        spec.r, got, want)


@pytest.mark.parametrize("n", range(1, 8))
def test_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    for fam in _families(rng):
        lam = 0.3
        for c, r0 in _direction_pairs(rng, fam, lam):
            for r in PURITIES:
                _assert_matches(_spec(fam, lam, n, r, c, r0))


@pytest.mark.parametrize("n, name", [(8, "gad"), (9, "depolarizing"), (10, "phase_flip")])
def test_matches_dense_oracle_at_large_n(n, name):
    rng = np.random.default_rng(200 + n)
    fam = builtin(name)
    _assert_matches(correlated(fam, 0.35, n, 0.05, random_unit(rng), random_unit(rng)))


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_gad_near_the_domain_end(p):
    # dM diverges as lambda -> 1, so both sides lose digits there
    rng = np.random.default_rng(7)
    fam = builtin("gad", p=p)
    for n in (1, 2, 4):
        for r in (1e-3, 0.4):
            _assert_matches(_spec(fam, 0.999999, n, r, random_unit(rng),
                                  random_unit(rng)), rel=1e-9)


def test_explicit_eps_between_pair_sums():
    # a weak phase flip on nearly pure inputs spreads the spectrum over many
    # decades, so a cutoff in the widest gap between pair sums drops pairs in
    # several blocks; it sits far from every sum, where rounding cannot flip
    # a pair between the two paths
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        spec = correlated(builtin("phase_flip"), 0.01, n, 0.9, random_unit(rng),
                          random_unit(rng))
        p = sld_exact(*dense_pair(build_state(spec))).eigenvalues
        sums = np.unique(np.round((p[:, None] + p[None, :]).ravel(), 14))
        sums = sums[sums > 0]
        k = int(np.argmax(sums[1:] / sums[:-1]))
        eps = float(np.sqrt(sums[k] * sums[k + 1]))
        assert sums[k + 1] / sums[k] > 2.0
        assert exact_qfi(spec, eps) != exact_qfi(spec)
        _assert_matches(spec, eps=eps)


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0, float("inf")])
@pytest.mark.parametrize("n", (1, 3))
def test_eps_must_be_positive_and_finite(n, eps):
    # the CLI's --eps rule: a NaN cutoff kept no pair (QFI 0.0) and one <= 0
    # failed in log with an unnamed "math domain error"
    fam = builtin("phase_flip")
    for c, r0 in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]), ([0.0, 0.0, 1.0], [0.0, 0.6, 0.8]):
        spec = _spec(fam, 0.3, n, 0.5, np.array(c), np.array(r0))
        with pytest.raises(ValueError, match=r"^eps must be positive and finite, got"):
            exact_qfis(spec, PURITIES, eps)
        with pytest.raises(ValueError, match=r"^eps must be positive and finite, got"):
            exact_qfi(spec, eps)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_default_cutoff_is_relative_to_the_whole_state(n):
    # at few qubits every block's largest eigenvalue sits near the whole
    # state's, so the per-block default keeps the same pairs as the explicit
    # cutoff 1e-12 times the dense state's largest eigenvalue, here on
    # spectra that span many decades
    rng = np.random.default_rng(10 + n)
    for r in (0.05, 0.9, 0.999, 1.0):
        spec = correlated(builtin("phase_flip"), 0.01, n, r, random_unit(rng),
                          random_unit(rng))
        top = sld_exact(*dense_pair(build_state(spec))).eigenvalues[-1]
        assert exact_qfi(spec) == exact_qfi(spec, 1e-12 * top), r


def _blocks(spec, purities, eps=None):
    """``exact_qfis`` on the Schur-Weyl blocks, also where c is perpendicular to r0."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(blocks, "perpendicular", lambda c, r0: False)
        return exact_qfis(spec, purities, eps)


@pytest.fixture(scope="module")
def phase_flip_150():
    """phase_flip at n = 150 and its block QFI with every pair kept, r = 0.1, 0.3, 0.5."""
    fam = builtin("phase_flip")
    spec = correlated(fam, 0.3, 150, 0.5, *canonical_directions(fam.eval(0.3)))
    return spec, _blocks(spec, [0.1, 0.3, 0.5], 1e-300)


@pytest.mark.parametrize("case", ["gad-oblique-80", "phase_flip-canonical-150"])
def test_default_cutoff_is_relative_to_each_block(case, request):
    # the default drops the pairs below 1e-12 of their own block's largest
    # eigenvalue.  Cutting at 1e-12 of the whole state's gave 0.6436 and
    # 0.0457 here: the blocks of small spin, far below the top one, lost
    # every pair
    if case == "gad-oblique-80":
        rng = np.random.default_rng(80)
        spec = correlated(builtin("gad", p=0.8), 0.4, 80, 0.6, random_unit(rng),
                          random_unit(rng))
        every = exact_qfi(spec, 1e-300)
    else:
        spec, kept = request.getfixturevalue("phase_flip_150")
        every = kept[2]
    got = _blocks(spec, [spec.r])[0]
    assert abs(got - every) <= 1.2e-12 * every, (got, every)


@pytest.mark.parametrize("n", range(1, 16))
def test_block_dimensions_cover_the_spectators(n):
    assert sum(m * (two_j + 1) for two_j, m in spin_blocks(n - 1)) == 2 ** (n - 1)


def test_unital_channel_at_zero_purity_carries_no_information():
    rng = np.random.default_rng(9)
    for fam in (builtin("phase_flip"), builtin("depolarizing"), random_unital_family(rng)):
        for n in (1, 2, 5, 12):
            spec = _spec(fam, 0.3, n, 0.0, random_unit(rng), random_unit(rng))
            assert exact_qfi(spec) <= 1e-30


# 0 and 1 in one sweep: at r = 1 every spin but the largest has no weight
SWEEP = (1.0, 0.0, 1e-3, 0.05, 0.4, 0.9, 0.999)


@pytest.mark.parametrize("n", range(1, 8))
def test_sweep_equals_one_purity_calls(n):
    rng = np.random.default_rng(300 + n)
    dropped = False
    for fam in _families(rng):
        spec = _spec(fam, 0.3, n, 0.5, random_unit(rng), random_unit(rng))
        for eps in (None, 1e-2):
            got = exact_qfis(spec, SWEEP, eps)
            assert got.tolist() == [exact_qfi(_respec(spec, r=r), eps) for r in SWEEP], \
                (fam.name, n, eps)
        dropped |= got.tolist() != exact_qfis(spec, SWEEP).tolist()
    # the explicit cutoff drops pairs the default keeps; a single qubit's two
    # eigenvalues stay further apart than it at these purities
    assert dropped or n == 1


def test_sweep_rejects_purities_outside_the_unit_interval():
    spec = correlated(builtin("phase_flip"), 0.3, 3, 0.1, [0, 0, 1], [1, 0, 0])
    for purities in ([0.1, 1.5], [-0.1], [np.nan], [[0.1]]):
        with pytest.raises(ValueError, match="purities must lie in"):
            exact_qfis(spec, purities)


# the same purities in one sweep: every piece but k = 0 has no weight at r = 1
@pytest.mark.parametrize("n", (2, 3, 5, 8, 33))
def test_piece_sweep_equals_one_purity_calls(n):
    rng = np.random.default_rng(500 + n)
    for fam in _families(rng):
        spec = correlated(fam, 0.3, n, 0.5, *canonical_directions(fam.eval(0.3)))
        for eps in (None, 1e-2):
            got = exact_qfis(spec, SWEEP, eps)
            assert got.tolist() == [exact_qfi(_respec(spec, r=r), eps) for r in SWEEP], \
                (fam.name, n, eps)


def _assert_close(got, want, purities, what, rel=1e-13):
    # the 1e-15 / r term is the eps / r conditioning that both sides share
    # at small r
    for g, w, r in zip(got, want, purities):
        tol = rel + (1e-15 / r if r > 0.0 else 0.0)
        assert abs(g - w) <= 1e-28 or abs(g - w) <= tol * abs(w), (what, r, g, w)


def _perpendicular_pairs(rng, fam, lam):
    pairs = [canonical_directions(fam.eval(lam)), perpendicular_pair(rng)]
    assert all(abs(c @ r0) < PERPENDICULAR_TOL for c, r0 in pairs)
    return pairs


def _shared_cut(n, r):
    """1e-12 of a^(n-1), near the whole state's largest eigenvalue at purity r."""
    return 1e-12 * ((1.0 + r) / 2.0) ** (n - 1)


DIFF_PURITIES = (0.0, 1e-8, 1e-3, 0.05, 0.5, 0.9, 1.0)


@pytest.mark.parametrize("n", [*range(2, 15), 30, 60])
def test_pieces_match_blocks(n):
    # at n >= 30 and r = 0.9 a spin block spans more decades than 1e-12 and
    # its default cut drops pairs that a piece keeps (see the test below),
    # so there both sides take the same explicit cutoff
    rng = np.random.default_rng(400 + n)
    rs = DIFF_PURITIES if n <= 14 else tuple(r for r in DIFF_PURITIES if r != 0.9)
    for fam in _families(rng):
        for c, r0 in _perpendicular_pairs(rng, fam, 0.3):
            spec = correlated(fam, 0.3, n, 0.5, c, r0)
            _assert_close(exact_qfis(spec, rs), _blocks(spec, rs), rs, (fam.name, n))
            cut = _shared_cut(n, 0.9)
            _assert_close(exact_qfis(spec, [0.9], cut), _blocks(spec, [0.9], cut), [0.9],
                          (fam.name, n, cut))


def test_pieces_keep_the_pairs_a_large_block_drops():
    # n = 30, r = 0.9: the largest block's eigenvalues span (b/a)^29 ~ 1e-37,
    # so its default cut drops pairs worth 2.4e-12 of the QFI that the block
    # solve with every pair kept confirms
    fam = builtin("gad", p=0.8)
    spec = correlated(fam, 0.3, 30, 0.9, *canonical_directions(fam.eval(0.3)))
    got, every, block = exact_qfi(spec), _blocks(spec, [0.9], 1e-300)[0], _blocks(spec, [0.9])[0]
    assert abs(got - every) <= 1e-13 * every, (got, every)
    assert abs(block - every) > 1e-12 * every, (block, every)


def test_pieces_match_blocks_at_two_hundred_qubits():
    fam = builtin("phase_flip")
    spec = correlated(fam, 0.3, 200, 0.05, *canonical_directions(fam.eval(0.3)))
    _assert_close(exact_qfis(spec, [0.05]), _blocks(spec, [0.05]), [0.05], "n = 200")


def test_pieces_at_150_qubits_keep_every_pair(phase_flip_150):
    spec, every = phase_flip_150
    got = exact_qfis(spec, [0.1, 0.3, 0.5])
    assert np.all(np.abs(got - every) <= 1e-12 * every), (got, every)
    assert every == pytest.approx([3.15809654, 4.76056266, 4.76190476], abs=5e-9)


def test_pieces_take_one_solve_per_sweep(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return qfi_exact(*args)

    qfi_exact = blocks.qfi_exact
    monkeypatch.setattr(blocks, "qfi_exact", counted)
    fam = builtin("depolarizing")
    c, r0 = canonical_directions(fam.eval(0.3))
    for n, (c, r0), want in [(9, (c, r0), 1), (9, (c, [0.6, 0.0, 0.8]), 5),
                             (1, (None, r0), 1)]:
        calls.clear()
        exact_qfis(_spec(fam, 0.3, n, 0.5, c, r0), SWEEP)
        assert len(calls) == want, (n, c, r0)


_AXES = np.eye(3)


@st.composite
def _perpendicular_specs(draw):
    """A builtin or random unital family, lam, a perpendicular (c, r0), n and r."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fam = draw(st.sampled_from(_families(rng)))
    # away from the domain ends, where gad's QFI diverges like 1/lam and
    # every path loses digits (``test_gad_near_the_domain_end``)
    lo, hi = fam.domain
    lam = lo + (hi - lo) * draw(st.floats(0.1, 0.9))
    kind = draw(st.sampled_from(["canonical", "random", "axes"]))
    if kind == "canonical":
        c, r0 = canonical_directions(fam.eval(lam))
    elif kind == "random":
        c, r0 = perpendicular_pair(rng)
    else:
        i, j = draw(st.permutations(range(3)))[:2]
        c, r0 = _AXES[i], draw(st.sampled_from([1.0, -1.0])) * _AXES[j]
    n = draw(st.integers(2, 12))
    r = draw(st.floats(0.0, 1.0))
    return correlated(fam, lam, n, r, c, r0)


@settings(max_examples=100, deadline=None)
@given(_perpendicular_specs())
def test_pieces_match_blocks_and_the_dense_oracle(spec):
    # one explicit cutoff for all three, so each keeps the same pairs; the
    # dense side keeps the 1e-12 of the block tests above, since its 2^n eigh
    # alone differs from the blocks by up to 2.7e-13 near r = 1 (gad, n = 7)
    assert abs(spec.c @ spec.r0) < PERPENDICULAR_TOL
    cut = _shared_cut(spec.n, spec.r)
    got = exact_qfi(spec, cut)
    _assert_close([got], _blocks(spec, [spec.r], cut), [spec.r], spec)
    if spec.n <= 8:
        _assert_close([got], [dense_exact_qfi(spec, cut)], [spec.r], spec, rel=1e-12)


class _Solved(Exception):
    """Raised in place of the block solve: the weight check let the spec through."""


def _stop_at_the_solve(self):
    raise _Solved


WEIGHT_PURITIES = (0.0, 1e-17, 1e-12, 1e-8, 0.01, 0.5, 0.999999, 1.0)


# a single string's weight ~ 2^-M underflows from M of about 1070; the
# pieces' binomial weights still sum to 1 to 1e-12 at every purity, checked
# before any piece is built (c = y is perpendicular to r0 = x)
@pytest.mark.parametrize("n, r", list(dict.fromkeys(
    [(1000, 0.01), (1100, 0.5), (1300, 1.0)]
    + [(n, r) for n in (1051, 1100, 5001, 7001, 20001, MAX_QUBITS_PIECES)
       for r in WEIGHT_PURITIES])))
def test_weights_sum_to_one_below_the_underflow(n, r, monkeypatch):
    monkeypatch.setattr(ProtocolSpec, "in_frame", property(_stop_at_the_solve))
    start = time.perf_counter()
    with pytest.raises(_Solved):
        exact_qfi(correlated(builtin("phase_flip"), 0.3, n, r, [0, 1, 0], [1, 0, 0]))
    assert time.perf_counter() - start < 1.0


# the spin blocks' log weights keep sum_j m_j t_j = 1 to 1e-12 past the
# block limit, where t_j ~ 2^-M underflows
@pytest.mark.parametrize("n", (1051, 1100, 5001))
def test_block_weights_sum_to_one_below_the_underflow(n):
    rs = np.array([0.01, *WEIGHT_PURITIES])
    start = time.perf_counter()
    _check_weights(n, rs, _log_weights(n - 1, spin_blocks(n - 1), rs)[1], "spin blocks")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, r, kept", [(20001, 1e-12, "1.00000000000289")])
def test_underflowing_weights_raise_instead_of_returning_zero(n, r, kept):
    # rounding in the blocks' log weights grows with n; past 1e-12 the check
    # names it (the block limit now stops such an n first)
    rs = np.array([r])
    start = time.perf_counter()
    weight = _log_weights(n - 1, spin_blocks(n - 1), rs)[1]
    with pytest.raises(ValueError, match=rf"n={n}, r={r}: the spin blocks keep weight {kept}"):
        _check_weights(n, rs, weight, "spin blocks")
    assert time.perf_counter() - start < 1.0


def test_lost_weight_is_named_on_each_branch(monkeypatch):
    piece_weights, log_weights = blocks._piece_weights, blocks._log_weights
    monkeypatch.setattr(blocks, "_piece_weights",
                        lambda *args: piece_weights(*args) * (1.0 - 1e-11))
    monkeypatch.setattr(blocks, "_log_weights", lambda *args: tuple(
        w * f for w, f in zip(log_weights(*args), (1.0, 1.0 - 1e-11))))
    monkeypatch.setattr(ProtocolSpec, "in_frame", property(_stop_at_the_solve))
    for r0, parts in [([1, 0, 0], "pieces"), ([0.6, 0, 0.8], "spin blocks")]:
        spec = correlated(builtin("phase_flip"), 0.3, 6, 0.2, [0, 0, 1], r0)
        with pytest.raises(ValueError, match=rf"n=6, r=0.2: the {parts} keep weight 0\.99999999999"):
            exact_qfi(spec)


def test_qubit_count_above_the_limit_is_named_before_any_block():
    n = MAX_QUBITS_BLOCKS + 1
    spec = correlated(builtin("phase_flip"), 0.3, n, 0.01, [0, 0, 1], [0.6, 0, 0.8])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"qubit count {n} outside .*1\.\.{MAX_QUBITS_BLOCKS} "
                                         "for the Schur-Weyl block solve"):
        exact_qfis(spec, [0.0, 0.01, 1.0])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, r0, limit", [
    (7001, [0.6, 0, 0.8], MAX_QUBITS_BLOCKS),
    (MAX_QUBITS_PIECES + 1, [1, 0, 0], MAX_QUBITS_PIECES),
])
def test_qubit_limit_is_named_before_the_weights(n, r0, limit):
    # oblique directions at n = 7001 used to stop at the weight check, on
    # rounding alone
    spec = correlated(builtin("phase_flip"), 0.3, n, 1e-6, [0, 0, 1], r0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"qubit count {n} outside .*1\.\.{limit} for"):
        exact_qfi(spec)
    assert time.perf_counter() - start < 1.0


def test_pieces_reach_ten_thousand_qubits():
    fam = builtin("phase_flip")
    # c = z, r0 = x at n = 7001 was refused by the blocks' weight check
    assert exact_qfi(correlated(fam, 0.3, 7001, 1e-6, [0, 0, 1], [1, 0, 0])) > 0.0
    spec = correlated(fam, 0.3, 10_000, 0.05, *canonical_directions(fam.eval(0.3)))
    start = time.perf_counter()
    got = exact_qfi(spec)
    assert time.perf_counter() - start < 0.5
    # the QFI per channel use saturates in n at the unit-purity value
    assert exact_qfi(_respec(spec, n=5000)) < got < exact_qfi(_respec(spec, r=1.0))
