"""Strict triviality, shift factorization, near-indecomposability, and the
perturbation experiment."""

import hashlib
import io
import runpy
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers import library
from obspers.calculus import lattice_grid, restrict_extend
from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.stability import (perturbation_experiment, shift_factor_morphism,
                               strictly_trivial, tau_indecomposable)
from obspers.stepmodule import Grid, direct_sum, union_grids, zero_module

from oracles import oracle_eta_on

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# -- strict triviality -----------------------------------------------------------

def test_zero_module_always_trivial():
    z = zero_module(2, 2)
    for sigma in (0, Fraction(1, 3), 5):
        rep = strictly_trivial(z, sigma)
        assert rep.strict and rep.witness == "eta_sigma = 0 verified"


def test_constant_never_trivial():
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    for sigma in (Fraction(1, 2), 1, 7):
        rep = strictly_trivial(v, sigma)
        assert not rep.strict
        assert "nonzero eta component" in rep.witness


def test_cell_trivial_from_its_width_on():
    # half-open cells: eta_sigma dies exactly once sigma reaches the width
    w = 1
    cell = library.single_cell_module(F2, (0, 0), w, 2)
    assert not strictly_trivial(cell, Fraction(w, 2)).strict
    assert not strictly_trivial(cell, Fraction(3 * w, 4)).strict
    assert strictly_trivial(cell, w).strict
    assert strictly_trivial(cell, w + Fraction(1, 4)).strict


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
       st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]))
def test_strictly_trivial_matches_the_per_point_eta(seed, p, sigma):
    # eta comes from the per-point anchored_morphism; the report must read
    # the oracle's eta: strict exactly when every component is zero, and
    # otherwise the first nonzero index in grid.points() order
    v = library.random_module(PrimeField(p), np.random.default_rng(seed))
    grid = union_grids(v.grid, v.grid.translate(-sigma)) if sigma else v.grid
    comps = oracle_eta_on(v, sigma, grid).comps
    nonzero = [g for g in grid.points() if np.any(comps[g])]
    rep = strictly_trivial(v, sigma)
    assert rep.strict == (not nonzero)
    assert rep.witness == (f"nonzero eta component at index {nonzero[0]}" if nonzero
                           else "eta_sigma = 0 verified")


def test_triviality_report_reproducible():
    cell = library.single_cell_module(F2, (Fraction(1, 4), 0), Fraction(1, 2), 2)
    a = strictly_trivial(cell, Fraction(1, 3))
    b = strictly_trivial(cell, Fraction(1, 3))
    assert a == b


# -- shift factorization ---------------------------------------------------------

def test_shift_factor_random_uniform_grid():
    rng = np.random.default_rng(7)
    grid = Grid(((0, 1, 2), (0, 1, 2)))
    for _ in range(5):
        l = library.random_module(F3, rng, grid=grid)
        res = shift_factor_morphism(l, 1, 1)  # r = alpha = beta
        assert res.triangle_verified


def test_shift_factor_constant_identity_components():
    l = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    res = shift_factor_morphism(l, 1, 1)
    assert res.triangle_verified
    for g, comp in res.m.comps.items():
        if comp.size:
            assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))


def test_shift_factor_zero_module():
    z = restrict_extend(zero_module(3, 2), Grid(((0, 1), (0, 1))))
    res = shift_factor_morphism(z, 1, 1)
    assert res.triangle_verified
    assert all(c.size == 0 for c in res.m.comps.values())


def test_shift_factor_mixed_gaps():
    # gaps {1/2, 1} on each axis: any 0 < r <= 1/2 and beta >= 1 is legal
    grid = Grid(((0, Fraction(1, 2), Fraction(3, 2)), (0, 1, 2)))
    rng = np.random.default_rng(11)
    l = library.random_module(F3, rng, grid=grid)
    for r, beta in ((Fraction(1, 4), 1), (Fraction(1, 2), 2)):
        res = shift_factor_morphism(l, r, beta)
        assert res.triangle_verified


def test_shift_factor_rejects_illegal_parameters():
    l = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    with pytest.raises(ValidationError):
        shift_factor_morphism(l, 2, 2)  # r above the minimum gap
    with pytest.raises(ValidationError):
        shift_factor_morphism(l, 1, Fraction(1, 2))  # beta below the maximum gap
    with pytest.raises(ValidationError):
        shift_factor_morphism(l, 0, 1)
    z = zero_module(2, 2)
    with pytest.raises(ValidationError):
        shift_factor_morphism(z, 1, 1)  # single-point grid has no gaps


def test_triviality_transfer_through_grid_restriction():
    # if the restriction to a beta-dense grid is strictly alpha-trivial, the
    # module itself is strictly trivial just above alpha + beta
    alpha, beta, eta = Fraction(3, 4), Fraction(1, 4), Fraction(1, 8)
    cases = [
        library.single_cell_module(F2, (0, 0), Fraction(1, 2), 2),
        library.box_interval(F2, Grid(((0, Fraction(1, 2)), (0, Fraction(1, 2)))),
                             (0, 0), (Fraction(1, 2), Fraction(1, 2))),
        library.constant_module(F2, Grid(((0, 1), (0, 1)))),
    ]
    premise_held = 0
    for l in cases:
        lo = tuple(x - beta for x in l.grid.min_corner())
        hi = tuple(x + beta for x in l.grid.max_corner())
        q = lattice_grid(beta, lo, hi)
        lq = restrict_extend(l, q)
        if strictly_trivial(lq, alpha).strict:
            premise_held += 1
            assert strictly_trivial(l, alpha + beta + eta).strict
    assert premise_held >= 1  # the implication was exercised, not vacuous


# -- near-indecomposability ------------------------------------------------------

def test_indecomposable_passes_every_tau():
    v = library.m_lambda(5, 2)
    for tau in (0, Fraction(1, 2), 10):
        ok, offenders = tau_indecomposable(v, tau)
        assert ok and len(offenders) <= 1


def test_double_constant_fails_every_tau():
    c = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    w = direct_sum(c, c)
    for tau in (0, 1, 100):
        ok, offenders = tau_indecomposable(w, tau)
        assert not ok and len(offenders) == 2


def test_m_lambda_plus_cell_threshold():
    w = 1
    pair = direct_sum(library.m_lambda(5, 1),
                      library.single_cell_module(F5, (0, 0), w, 2))
    ok_small, off_small = tau_indecomposable(pair, Fraction(w, 2))
    assert not ok_small and len(off_small) == 2
    ok_at, off_at = tau_indecomposable(pair, w)  # cell goes trivial at its width
    assert ok_at and len(off_at) == 1
    ok_above, _ = tau_indecomposable(pair, 2 * w)
    assert ok_above


def test_tau_monotone():
    pair = direct_sum(library.m_lambda(5, 3),
                      library.single_cell_module(F5, (1, 1), 1, 2))
    taus = (Fraction(1, 4), Fraction(1, 2), 1, 2, 4)
    results = [tau_indecomposable(pair, t)[0] for t in taus]
    seen_true = False
    for ok in results:
        if seen_true:
            assert ok
        seen_true = seen_true or ok
    assert seen_true


# -- perturbation experiment -----------------------------------------------------

def test_experiment_accepted_trials_all_pass():
    v = library.m_lambda(5, 2)
    rep = perturbation_experiment(v, trials=12, seed=3)
    assert rep.eps == 1 and rep.mu == Fraction(1, 2) and rep.tau == 3
    assert rep.accepted == sum(1 for t in rep.trials if t.accepted)
    assert rep.accepted > 0
    assert rep.passes == rep.accepted and rep.pass_rate == 1
    for t in rep.trials:
        if t.accepted:
            assert t.witness_eps < rep.mu
            assert t.tau_pass is True


def test_experiment_rejects_far_summand():
    v = library.m_lambda(5, 2)
    rep = perturbation_experiment(v, trials=20, seed=3)
    far = [t for t in rep.trials if t.sampler == "far-summand"]
    assert far, "sampler mix never drew the far summand"
    assert all(not t.accepted for t in far)


def test_experiment_deterministic():
    v = library.m_lambda(5, 1)
    a = perturbation_experiment(v, trials=8, seed=5)
    b = perturbation_experiment(v, trials=8, seed=5)
    assert a == b


def test_experiment_rejects_bad_module():
    c = library.constant_module(F5, Grid(((0, 1), (0, 1))))
    with pytest.raises(ValidationError):
        perturbation_experiment(direct_sum(c, c), trials=2)  # decomposable
    ragged = library.constant_module(F5, Grid(((0, 1, 3), (0, 1, 3))))
    with pytest.raises(ValidationError):
        perturbation_experiment(ragged, trials=2)  # irregular grid


def test_genericity_script_digest(monkeypatch):
    """scripts/run_genericity.py at its defaults: the sha256 of its output as
    recorded, 30 trials with 23 accepted, the shift sampler among them."""
    monkeypatch.setattr(sys, "argv", ["run_genericity.py"])
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(SCRIPTS / "run_genericity.py"), run_name="__main__")
    text = out.getvalue()
    assert "shifted by eps/4" in text and "accepted 23/30" in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "79cfd9fddce9c5402d1a4da0f0874d810b9935bf14c9fb615f1492e5f8dc40cc")
