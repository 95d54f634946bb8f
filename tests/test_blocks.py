"""The Schur-Weyl block QFI against the dense 2^n eigendecomposition oracle."""

import time
from dataclasses import replace

import numpy as np
import pytest

from noisyqfi import builtin
from noisyqfi.blocks import exact_qfi, exact_qfis, spin_blocks
from noisyqfi.protocols import ProtocolSpec, build_state, correlated, sqsc
from noisyqfi.series import canonical_directions

from support import dense_exact_qfi, dense_pair, random_unit, random_unital_family, sld_exact

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


@pytest.mark.parametrize("n", (2, 3, 5))
def test_default_cutoff_is_relative_to_the_whole_state(n):
    # the default cutoff is read off the block spectra of the solve itself;
    # it equals the explicit cutoff 1e-12 times the dense state's largest
    # eigenvalue, here on spectra that span many decades
    rng = np.random.default_rng(10 + n)
    for r in (0.05, 0.9, 0.999, 1.0):
        spec = correlated(builtin("phase_flip"), 0.01, n, r, random_unit(rng),
                          random_unit(rng))
        top = sld_exact(*dense_pair(build_state(spec))).eigenvalues[-1]
        assert exact_qfi(spec) == exact_qfi(spec, 1e-12 * top), r


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
            assert got.tolist() == [exact_qfi(replace(spec, r=r), eps) for r in SWEEP], \
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


class _Solved(Exception):
    """Raised in place of the block solve: the weight check let the spec through."""


def _stop_at_the_solve(self):
    raise _Solved


# t_j ~ 2^-M underflows from M of about 1070; the log weights still keep
# sum_j m_j t_j = 1 to 1e-12 at every purity, checked before any block is built
@pytest.mark.parametrize("n, r", list(dict.fromkeys(
    [(1000, 0.01), (1100, 0.5), (1300, 1.0)]
    + [(n, r) for n in (1051, 1100, 5001)
       for r in (0.0, 1e-17, 1e-12, 1e-8, 0.01, 0.5, 0.999999, 1.0)])))
def test_weights_sum_to_one_below_the_underflow(n, r, monkeypatch):
    monkeypatch.setattr(ProtocolSpec, "in_frame", _stop_at_the_solve)
    start = time.perf_counter()
    with pytest.raises(_Solved):
        exact_qfi(correlated(builtin("phase_flip"), 0.3, n, r, [0, 1, 0], [1, 0, 0]))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, r, kept", [(20001, 1e-12, "1.00000000000289")])
def test_underflowing_weights_raise_instead_of_returning_zero(n, r, kept):
    # rounding in the log weights grows with n; past 1e-12 the check names it
    spec = correlated(builtin("phase_flip"), 0.3, n, r, [0, 1, 0], [1, 0, 0])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"n={n}, r={r}: .* weight {kept}"):
        exact_qfi(spec)
    assert time.perf_counter() - start < 1.0
