"""Shared corpus builders and converters for the oracle cross-checks."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import settings

from obspers import library
from obspers.fields import PrimeField
from obspers.stepmodule import (Grid, StepModule, _module_violations, factor_morphism, validate,
                                validate_morphism)

from oracles import oracle_factor_morphism

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")


def to_plain(v):
    """Plain-dict form of a module for the list-based oracles: requires the
    grid to be used index-wise only (oracles never look at coordinates)."""
    return {
        "p": v.field.p,
        "shape": v.grid.shape,
        "dims": dict(v.dims),
        "steps": {key: mat.tolist() for key, mat in v.steps.items()},
    }


def rational_grid_corpus(seed, count, p=2, lo=0, hi=4):
    """Random modules over F_p on random rational grids inside [lo, hi]^2."""
    rng = np.random.default_rng(seed)
    F = PrimeField(p)
    return [library.random_module(F, rng, n_axes=2, lo=lo, hi=hi)
            for _ in range(count)]


def tiny_decide_corpus(p=2):
    """Small fixed F_p modules whose pairwise Hom spaces stay tiny; used for
    exhaustive interleaving searches."""
    F = PrimeField(p)
    g22 = Grid(((0, 1), (0, 1)))
    g33 = Grid(((0, 1, 2), (0, 1, 2)))
    offset = Grid(((Fraction(1, 2), Fraction(3, 2)), (0, 1)))
    mods = [
        library.constant_module(F, g22),
        library.box_interval(F, g22, (1, 1)),
        library.box_interval(F, g22, (0, 0), (0, 0)),
        library.box_interval(F, g22, (1, 0), (1, 1)),
        library.single_cell_module(F, (0, 0), 1, 2),
        library.single_cell_module(F, (0, 0), Fraction(1, 2), 2),
        library.box_interval(F, offset, (Fraction(1, 2), 0)),
        library.box_interval(F, g33, (1, 1), (2, 2)),
        library.box_interval(F, g33, (0, 1)),
        library.constant_module(F, Grid(((0, 2), (0, 2)))),
    ]
    return mods


def assert_same_morphism(fast, slow):
    """Equal endpoints and equal components, shape and entries, at every point."""
    assert fast.source == slow.source and fast.target == slow.target
    assert fast.comps.keys() == slow.comps.keys()
    for g, m in slow.comps.items():
        assert fast.comps[g].shape == m.shape and np.array_equal(fast.comps[g], m), g


def assert_image_matches_oracle(m):
    """factor_morphism(m) is the oracle's image and image inclusion, element
    by element, and the image's dims are the pointwise ranks of m.  validate
    defers the image to m's target, so the image is also checked afresh."""
    image, inclusion = factor_morphism(m)
    slow = oracle_factor_morphism(m)
    assert image == slow.image
    assert_same_morphism(inclusion, slow.image_inclusion)
    assert validate(image) == [] and validate_morphism(inclusion) == []
    assert _module_violations(image) == []
    for g in m.grid.points():
        assert image.dims[g] == m.field.rank(m.comps[g])


def non_module():
    """A 2x2 F_2 module of dimension 1 everywhere whose step (0, 1) -> (1, 1)
    is 0, so the square at (0, 0) does not commute."""
    grid = Grid(((0, 1), (0, 1)))
    steps = {(g, axis): [[1]] for g, axis in grid.edges}
    steps[((0, 1), 0)] = [[0]]
    return StepModule(PrimeField(2), grid, {g: 1 for g in grid.points()}, steps)


def doubled_m_lambda(p, lam):
    """library.m_lambda(p, lam) with every space doubled and the lam leg
    entering along the Jordan block [[lam, 1], [0, lam]] instead of lam: an
    indecomposable whose End is 2-dimensional (the identity and a nilpotent),
    so only the exhaustive idempotent search can certify it."""
    m = library.m_lambda(p, lam)
    eye = np.eye(2, dtype=np.int64)
    steps = {key: np.kron(step, eye) for key, step in m.steps.items()}
    steps[((3, 0), 1)] = np.concatenate([eye, np.array([[lam, 1], [0, lam]])])
    return StepModule(m.field, m.grid, {g: 2 * d for g, d in m.dims.items()}, steps)


def enumerate_interleavings(v, w, eps):
    """Every (f, g) pair over the two Hom spaces, each checked with verify.

    Exhaustive in the coefficient spaces, so existence here is ground truth
    for decide at the same eps (the linear algebra underneath is itself
    oracle-checked in test_fields / test_stepmodule).
    """
    from itertools import product as iproduct

    from obspers import metric
    from obspers.calculus import shift
    from obspers.stepmodule import (Morphism, hom_basis, restrict_extend,
                                    union_grids)

    F = v.field

    def side(a, b):
        u = union_grids(a.grid, b.grid.translate(-eps))
        src = restrict_extend(a, u)
        tgt = restrict_extend(shift(b, eps), u)
        return src, tgt, hom_basis(src, tgt)

    src_f, tgt_f, basis_f = side(v, w)
    src_g, tgt_g, basis_g = side(w, v)

    def combo(coeffs, basis, src, tgt):
        comps = {g: F.zeros(tgt.dims[g], src.dims[g]) for g in src.grid.points()}
        for c, m in zip(coeffs, basis):
            if c:
                for g in comps:
                    comps[g] = F.matadd(comps[g], F.matscale(int(c), m.comps[g]))
        return Morphism(src, tgt, comps)

    found = []
    for fc in iproduct(range(F.p), repeat=len(basis_f)):
        f = combo(fc, basis_f, src_f, tgt_f)
        for gc in iproduct(range(F.p), repeat=len(basis_g)):
            g = combo(gc, basis_g, src_g, tgt_g)
            if metric.verify(v, w, eps, f, g).verified:
                found.append((f, g))
    return found


def interleaving_hom_dims(v, w, eps):
    """Dimensions of the two directed Hom spaces that enumerate_interleavings
    searches at this eps; bounds the brute-force cost."""
    from obspers.calculus import shift
    from obspers.stepmodule import hom_basis, restrict_extend, union_grids

    def side(a, b):
        u = union_grids(a.grid, b.grid.translate(-eps))
        return len(hom_basis(restrict_extend(a, u), restrict_extend(shift(b, eps), u)))

    return side(v, w), side(w, v)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def f2():
    return PrimeField(2)


@pytest.fixture
def f3():
    return PrimeField(3)


@pytest.fixture
def f5():
    return PrimeField(5)
