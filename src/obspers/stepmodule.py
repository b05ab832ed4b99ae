"""Persistence modules on finite grids.

A StepModule stores a finite grid with exact rational coordinates, a
finite-dimensional F_p vector space at each grid point, and a structure matrix
for each unit grid step.  It represents its extension to all of R^n: the value
at a point s is the value at the largest grid point below s (and 0 when no
grid point lies below), so the represented module is constant on half-open
cells and upper semicontinuous.  Composite structure maps are path products of
unit steps, well defined whenever the commutativity invariant holds.

No floating point appears anywhere: coordinates are exact rationals, matrix
entries are residues mod p.

Integer index layer.  Rationals live only at the boundary.  A Grid is kept
as integer keys: per axis a least common denominator den and the
coordinates times den, a pair that equal coordinates always give.  So grid
equality and hashing compare int tuples, translate and union_grids build
keys only, and the Fraction coordinates (Grid.axes) are built from the keys
only when coords, anchor, the corners or serialization ask for them.  Every
index coordinate and axis that comes in from outside (the keys of the public
constructors, module_from_json, degree_rips's degrees, m_lambda's lambda)
goes through _integer, so a float or a Fraction there is a ValidationError,
never truncated.  Grid.anchors_on(target, delta) anchors a whole target grid
(moved by +delta) at the cost of one bisect per target axis coordinate, on
the keys, instead of one per point and axis, and maps each target index to
its anchor index tuple (None below the grid).  calculus.anchored_morphism
reads its components through it one point at a time, and persistent_rank
its maps through the per-axis anchors of anchor_indices.

Generator grades.  StepModule._generators lists the grid indices where a
module is not spanned by the images of the unit steps into it, found by
one reduce_stack over each point's incoming steps side by side.  Two
natural maps out of a module agree everywhere once they agree there, so the
interleaving triangles of metric.verify, decide's triangle systems and
stability.shift_factor_morphism are read at those grades only
(calculus._triangle_holds holds the argument).  It needs the squares to
commute, so validate's result is cached on the module as _violations, and
verify, decide and shift_factor_morphism read it first; validate_morphism's
is cached on the morphism the same way.

Endpoint checks in O(1).  restrict_extend records on its result the module
it restricted, the result's source (any other module is its own source).
Modules never change and restrict_extend is deterministic, so two modules on
equal grids whose sources share their dims and stack objects are equal
without a matrix compared, and calculus.modules_match needs no restriction
when one module is already on the common refinement and its source has the
other's data.  metric.verify's endpoint checks on the witnesses of
discretize, smooth, restriction_pair and decide are of this kind.

One structure-map kernel.  Every map V_{a -> b} between grid indices comes
from StepModule.path_map, read-only and cached on the module: the shared
identity when a == b, the stored step for a unit move, and one product with
the cached map below for every longer move.  restrict_extend reads every step
of the result off the anchors of its two ends, which differ on at most the
step's axis: equal anchors write an identity, adjacent anchors copy the
stored unit step, and only longer moves read path_map.  Identity and
zero blocks (_eye, _zero) are shared package-wide.  Internal results whose
matrices are already reduced, int64 and read-only are built with the private
_from_stack constructors, which skip the reduction and copy of the public
constructors; arrays are therefore shared and must never be written to.  The
public constructors keep validating, reducing and copying their input.

Hom through generators.  hom_basis never solves the dense naturality system,
whose sum over points of dim v_g * dim w_g unknowns made it the largest cost
of every decomposition, isomorphism and interleaving search.  A natural map
v -> w is fixed by where it sends generators of v, and on a finite grid v_g
is spanned by the generators moved up to g, so the unknowns are the images
of the generators in w at their grades and the constraints say that every
relation among generators moved to g maps to 0 in w_g (hom_rows has the
details and the argument).  canonical_rows then gives the solutions exactly
the form the dense system's kernel basis had, whatever generators were
picked.

Padded stacks.  Every per-edge and per-point product is one batched numpy
product over a padded stack.  StepModule._stack holds the unit steps
zero-padded to (D, D), D the module's largest dimension, stacked in
grid.edges order; Morphism._stack holds the components padded to
(D_target, D_source), stacked in grid.points() order; _edge_ends gives, per
edge, the point numbers of its two ends, to index a morphism's stack.
Padding is exact: the top-left block of a product of padded matrices is the
product of the blocks, and every other entry stays zero, so a batched product
of stacks is the stack of the per-point products.  The same argument lets a
product take its points (or edges) by size class and multiply only the
top-left c x c corners of each class's blocks, c the power of two at or above
the widest block there and at least _MIN_CLASS: the corner holds the whole
block, and the rest of the result stays zero.  So a module with one wide
point and many narrow ones pays the wide width only at the wide point;
modules at most _MIN_CLASS wide take one class, one product.  Padding would
also hide a block smaller than its point's dimensions, which a per-point
product rejects, so building a stack raises ValidationError on any block of
the wrong shape.

Stacks first.  Every module and morphism that src builds outside the public
constructors comes from _from_stack and keeps only its read-only stack; only
objects of the public constructors (the library's input builders and the
JSON readers use them) keep a steps or comps dict.  A stack's steps or comps
dict is a view, its per-point slices, built on first read and cached by a
cached_property on the field's name (_stack_view); validate_morphism,
Morphism._component, == between two morphisms that hold stacks and ==
between two modules that hold nothing else never read it.  An object built
with a dict keeps it in its __dict__, which a non-data descriptor never
shadows, so its reads stay plain attribute lookups (a __getattr__ hook
would slow every read).  Stacks, views and path maps are cached, which is
sound only because modules and morphisms never change: their arrays are
read-only, and every caller that edits a steps or comps dict copies it into
a new object first.
"""

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, islice, product
from types import MappingProxyType

import numpy as np

from .errors import BudgetExceeded, ValidationError, check
from .fields import PrimeField, _integer


def _frac(x):
    """x as a Fraction: a Fraction, an int, a numpy integer or a string that
    Fraction reads.  A numpy integer is read through operator.index, so the
    Fraction holds Python ints.  A bool is an int to Python, but never a
    coordinate, so like a float (numpy's too) it is a ValidationError."""
    if isinstance(x, Fraction):
        return x
    if type(x) is bool:
        raise ValidationError(f"coordinate {x!r} is not an exact rational")
    if isinstance(x, (int, np.integer)):
        return Fraction(operator.index(x))
    if isinstance(x, str):
        return Fraction(x)
    raise ValidationError(f"coordinate {x!r} is not an exact rational")


def _ratio(x):
    """(numerator, denominator) of the exact rational x, as _frac reads it; an
    int or a Fraction is read as it stands, without building a Fraction."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        x = _frac(x)
    return x.numerator, x.denominator


def _nonnegative(x, message):
    """x through _frac, else ValidationError(message) when it is below 0."""
    x = _frac(x)
    if x < 0:
        raise ValidationError(message)
    return x


def _find(parent, i):
    """The root of i in the union-find forest parent, halving the path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


class Grid:
    """A finite product grid in R^n: one strictly increasing tuple of exact
    rational coordinates per axis.

    A grid is its canonical integer keys, _scaled: per axis the pair (den,
    keys), with coordinate i equal to keys[i] / den.  Equal coordinates give
    equal pairs, so == and hash compare int tuples, and translate and
    union_grids build keys only.  The Fraction coordinates, axes, are built
    from the keys the first time coords, anchor, the corners or
    serialization ask for them.  Grid(axes) coerces every coordinate through
    _frac and checks that each axis is nonempty and strictly increasing; its
    keys are built on first use.  Grids never change."""

    def __init__(self, axes):
        axes = tuple(tuple(_frac(c) for c in axis) for axis in axes)
        if not axes:
            raise ValidationError("grid needs at least one axis")
        for axis in axes:
            if not axis:
                raise ValidationError("every axis needs at least one coordinate")
            if any(a >= b for a, b in zip(axis, axis[1:])):
                raise ValidationError("axis coordinates must be strictly increasing")
        self.__dict__["axes"] = axes

    @classmethod
    def _from_keys(cls, scaled):
        """Internal constructor for canonical (den, keys) pairs with increasing
        keys; skips the coercion and checks of Grid(axes)."""
        grid = object.__new__(cls)
        grid.__dict__["_scaled"] = scaled
        return grid

    def __setattr__(self, name, value):
        raise AttributeError(f"Grid is immutable; cannot set {name}")

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self._scaled == other._scaled

    def __hash__(self):
        return hash(self._scaled)

    def __repr__(self):
        return f"Grid(axes={self.axes!r})"

    @cached_property
    def _scaled(self):
        """Per axis, (den, keys): den the least common denominator of the
        axis's coordinates and keys the coordinates times den.  No integer
        > 1 divides den and every key, so the pair is canonical."""
        out = []
        for axis in self.axes:
            den = math.lcm(*(c.denominator for c in axis))
            out.append((den, tuple(c.numerator * (den // c.denominator) for c in axis)))
        return tuple(out)

    @cached_property
    def axes(self):
        return tuple(tuple(Fraction(k, den) for k in keys) for den, keys in self._scaled)

    @property
    def n_axes(self):
        return len(self._scaled)

    @property
    def shape(self):
        return tuple(len(keys) for _, keys in self._scaled)

    def points(self):
        """All grid point index tuples in lexicographic order."""
        return list(product(*map(range, self.shape)))

    def coords(self, idx):
        return tuple(self.axes[a][i] for a, i in enumerate(idx))

    @property
    def edges(self):
        """{(g, axis): successor of g along axis} for every unit step of the
        grid, points in lexicographic order and axes increasing.  It depends
        only on the shape, so grids of one shape share one read-only table."""
        return _edges(self.shape)

    def anchor(self, s):
        """Index of sup{p in grid : p <= s}, or None when some axis of s lies
        below the grid minimum.  A point s with a coordinate count other than
        the grid's axis count is a ValidationError."""
        if len(s) != self.n_axes:
            raise ValidationError(f"point has {len(s)} coordinates, grid has {self.n_axes} axes")
        idx = []
        for a, axis in enumerate(self.axes):
            i = bisect.bisect_right(axis, _frac(s[a])) - 1
            if i < 0:
                return None
            idx.append(i)
        return tuple(idx)

    def anchor_indices(self, grid, delta=0):
        """Per axis of grid, the anchor index on this grid's axis of every
        coordinate + delta (None below the minimum): one bisect per axis
        coordinate of grid, on the integer keys of _scaled, so the
        comparisons stay exact and build no Fraction.  A key is at most a
        rational x exactly when it is at most floor(x); with c = k / den_c and
        delta = n / d, c + delta on this axis's scale den is
        x = (k * d + n * den_c) * den / (den_c * d)."""
        same_axes(self, grid)
        n, d = _ratio(delta)
        out = []
        for (den, mine), (den_c, theirs) in zip(self._scaled, grid._scaled):
            shift, below = n * den_c, den_c * d
            found = (bisect.bisect_right(mine, (k * d + shift) * den // below) - 1
                     for k in theirs)
            out.append(tuple(i if i >= 0 else None for i in found))
        return tuple(out)

    def anchors_on(self, grid, delta=0):
        """{index of grid: anchor in this grid of its point + delta}, with None
        for points below this grid; agrees with anchor() pointwise."""
        return {q: None if None in a else a
                for q, a in zip(grid.points(), product(*self.anchor_indices(grid, delta)))}

    def translate(self, delta):
        """Grid moved by +delta on every axis, built on the keys: with delta =
        n / d, a key k on the scale den becomes k * (den' / den) + n * (den' /
        d) on the scale den' = lcm(den, d), divided by the gcd of den' and the
        new keys to stay canonical."""
        n, d = _ratio(delta)
        scaled = []
        for den, keys in self._scaled:
            new = math.lcm(den, d)
            up, shift = new // den, n * (new // d)
            keys = [k * up + shift for k in keys]
            g = math.gcd(new, *keys)
            scaled.append((new // g, tuple(k // g for k in keys)))
        return Grid._from_keys(tuple(scaled))

    def gaps(self):
        """The differences between consecutive coordinates, axis by axis, in
        axis order."""
        return [b - a for axis in self.axes for a, b in zip(axis, axis[1:])]

    def min_corner(self):
        return tuple(axis[0] for axis in self.axes)

    def max_corner(self):
        return tuple(axis[-1] for axis in self.axes)


@cache
def _edges(shape):
    out = {}
    for g in product(*map(range, shape)):
        for axis, n in enumerate(shape):
            if g[axis] + 1 < n:
                out[(g, axis)] = g[:axis] + (g[axis] + 1,) + g[axis + 1:]
    return MappingProxyType(out)


@cache
def _edge_ends(shape):
    """Per edge of _edges(shape), in its order, the point numbers (positions in
    lexicographic order) of its start and of its end: two read-only arrays."""
    number = {g: i for i, g in enumerate(product(*map(range, shape)))}
    edges = _edges(shape)
    return (_freeze(np.array([number[g] for g, _ in edges], dtype=np.intp)),
            _freeze(np.array([number[h] for h in edges.values()], dtype=np.intp)))


def same_axes(*grids):
    """Raise ValidationError unless the grids have one number of axes."""
    if len({g.n_axes for g in grids}) > 1:
        raise ValidationError("grids have different numbers of axes")


def union_grids(*grids):
    """The grid whose axes are the unions of the grids' axes, merged on the
    integer keys of _scaled.  The union's least common denominator is the lcm
    of the grids' own, so the merged keys are canonical as they stand."""
    same_axes(*grids)
    if all(g is grids[0] for g in grids):
        return grids[0]
    scaled = []
    for axis in zip(*(g._scaled for g in grids)):
        den = math.lcm(*(own for own, _ in axis))
        merged = set()
        for own, keys in axis:
            merged.update(keys if own == den else (k * (den // own) for k in keys))
        scaled.append((den, tuple(sorted(merged))))
    return Grid._from_keys(tuple(scaled))


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _index(g):
    """The grid index g as a tuple of ints, each coordinate through _integer."""
    g = tuple(g)
    return tuple(_integer(i, "grid index {}", g) for i in g)


def _block(field, m, shape, what, *args):
    """m as the new read-only residue matrix of a map of the given shape.  An
    empty m is the one shared read-only zero block of that shape, and a
    nonempty m with fewer than two axes is read in that shape; a
    two-dimensional m keeps its own shape, for validate to check.  An m with
    three or more axes, an empty m where the shape has entries, any other
    size and entries that are not integers are a ValidationError naming
    what.format(*args)."""
    a = np.asarray(m)
    if a.ndim > 2:
        raise ValidationError(f"{what.format(*args)} has shape {a.shape}, not a matrix")
    if not a.size:
        if shape[0] * shape[1]:
            raise ValidationError(f"{what.format(*args)} is empty, expected shape {shape}")
        return _zero(shape)
    if a.ndim < 2:
        if a.size != shape[0] * shape[1]:
            raise ValidationError(f"{what.format(*args)} has {a.size} entries, "
                                  f"expected shape {shape}")
        a = a.reshape(shape)
    try:
        return _freeze(field.residues(a))
    except ValidationError as exc:
        raise ValidationError(f"{what.format(*args)}: {exc}") from None


def matrices_equal(a, b, keys):
    """True when a[k] and b[k] are equal matrices for every k in keys, as
    np.array_equal decides key by key: shapes are compared per key, and the
    entries of all matrices not shared by a and b in one comparison."""
    keys = [k for k in keys if a[k] is not b[k]]
    if any(a[k].shape != b[k].shape for k in keys):
        return False
    return not keys or np.array_equal(np.concatenate([a[k].ravel() for k in keys]),
                                      np.concatenate([b[k].ravel() for k in keys]))


def _width(v):
    """The largest dimension of v, the size its padded stacks have."""
    return max(v.dims.values(), default=0)


def _exact(m, want, what, *args):
    """The matrix m when its shape is want, else a ValidationError naming
    what.format(*args), worded as validate words it."""
    if m.shape != want:
        raise ValidationError(f"{what.format(*args)} has shape {m.shape}, expected {want}")
    return m


# The narrowest size class of the padded products.  A batched product of
# blocks this small costs about as much as the numpy calls that one more class
# takes, so every narrower block shares it.
_MIN_CLASS = 8


def _class(d):
    """The size class of a block at most d wide: the power of two at or above
    d, and at least _MIN_CLASS."""
    return max(_MIN_CLASS, 1 << (d - 1).bit_length())


def _groups(width, modules, dims=None, ends=None):
    """The positions of a batched product over the blocks of modules (and of
    dims, a dimension per point in grid.points() order), width the widest
    of them, grouped by size class: one (c, index) pair per class c present,
    narrowest first, the index a slice over every position when all share
    one class.  A point's class is that of its widest block; with ends, the
    (start, end) point numbers of each edge, the positions are edges, and an
    edge's class is that of its wider end."""
    if width <= _MIN_CLASS:
        return [(_MIN_CLASS, slice(None))]
    classes = np.maximum.reduce([v._classes for v in modules])
    if dims is not None:
        classes = np.maximum(classes, [_class(d) for d in dims])
    if ends is not None:
        classes = np.maximum(classes[ends[0]], classes[ends[1]])
    bits = int(np.bitwise_or.reduce(classes))
    if not bits & (bits - 1):
        return [(bits, slice(None))]
    return [(1 << k, np.flatnonzero(classes == 1 << k))
            for k in range(bits.bit_length()) if bits >> k & 1]


def _edge_products(left, v, right, dims):
    """left[h] @ step @ right[g] mod p for every step g -> h of v, as one
    read-only stack in grid.edges order: one batched product per size class
    of the edges, of v's blocks and of dims (per point, the other size of
    left's and right's blocks)."""
    ends = src, dst = _edge_ends(v.grid.shape)
    steps, p = v._stack, v.field.p
    out = np.zeros((len(src), left.shape[1], right.shape[2]), dtype=np.int64)
    for c, i in _groups(max(steps.shape[1], left.shape[1]), [v], dims, ends):
        out[i, :c, :c] = left[dst[i], :c, :c] @ (steps[i, :c, :c] @ right[src[i], :c, :c] % p) % p
    return _freeze(out)


def _padded(mats, rows, cols):
    """The matrices mats zero-padded to (rows, cols) and stacked, read-only."""
    out = np.zeros((len(mats), rows, cols), dtype=np.int64)
    for block, m in zip(out, mats):
        block[:m.shape[0], :m.shape[1]] = m
    return _freeze(out)


@cache
def _zero(shape):
    """The read-only zero block of shape, shared package-wide."""
    return _freeze(np.zeros(shape, dtype=np.int64))


@cache
def _eye(n):
    """The read-only n x n identity, shared package-wide."""
    return _freeze(np.eye(n, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class StepModule:
    """Grid data for a persistence module, plus its implied extension.

    dims maps every grid index tuple to a nonnegative integer; steps maps
    (index, axis) to the matrix of the unit step toward the successor along
    that axis, of shape dims(successor) x dims(index).
    """

    field: PrimeField
    grid: Grid
    dims: dict
    steps: dict

    def __post_init__(self):
        dims = {_index(k): _integer(v, "dimension at {}", k) for k, v in self.dims.items()}
        steps, edges = {}, self.grid.edges
        for (g, axis), m in self.steps.items():
            g = _index(g)
            axis = _integer(axis, "axis of the step at {}", g)
            steps[(g, axis)] = _block(self.field, m, (dims.get(edges.get((g, axis)), 0),
                                                      dims.get(g, 0)),
                                      "step at {} axis {}", g, axis)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def _from_stack(cls, field, grid, dims, stack):
        """Internal constructor for dims keyed by the grid points in order and
        a read-only (E, D, D) stack of steps padded as _stack pads: the
        module's storage, from which steps is built on first read (_stack_view)."""
        v = object.__new__(cls)
        v.__dict__.update(field=field, grid=grid, dims=dims, _stack=stack)
        return v

    @cached_property
    def _stack(self):
        """The unit steps zero-padded to (D, D), D the largest dimension,
        stacked in grid.edges order: one read-only (E, D, D) array.  A missing
        or misshapen step is a ValidationError, as padding would hide it."""
        d, dims = _width(self), self.dims
        try:
            return _padded([_exact(self.steps[(g, axis)], (dims[h], dims[g]),
                                   "step at {} axis {}", g, axis)
                            for (g, axis), h in self.grid.edges.items()], d, d)
        except KeyError:  # a missing dimension or step, which validate names
            check(_module_violations(self))
            raise

    @cached_property
    def _point_dims(self):
        """The dimensions in grid.points() order, one read-only int array."""
        return _freeze(np.array([self.dims[g] for g in self.grid.points()], dtype=np.intp))

    @cached_property
    def _classes(self):
        """The size class of each point's dimension, in grid.points() order."""
        return _freeze(np.array([_class(self.dims[g]) for g in self.grid.points()]))

    @cached_property
    def _dim_groups(self):
        """One (d, point numbers, columns of their blocks in a flattened Hom
        row) per dimension d, increasing; decompose's docstring has more."""
        dims = self._point_dims
        starts = np.cumsum(dims ** 2) - dims ** 2
        out = []
        for d in sorted(set(dims.tolist())):
            pts = _freeze(np.flatnonzero(dims == d))
            if len(pts) == 1:
                cols = slice(int(starts[pts[0]]), int(starts[pts[0]]) + d * d)
            else:
                cols = _freeze(starts[pts][:, None] + np.arange(d * d))
            out.append((d, pts, cols))
        return tuple(out)

    @cached_property
    def _violations(self):
        """validate's violations, as a tuple, found once: modules never
        change.  A restriction (restrict_extend) of a module is a module,
        its steps being the source's path maps between anchors and zero
        below the source's grid, so it is not checked again.  Nor is a
        module that records a module as its _valid_if:
        - calculus.shift records its input, whose dims and stack it keeps on
          a grid of the same shape, so validate reads the same data;
        - _submodule records its ambient module.  Its callers guarantee that
          the ambient steps keep the spans (factor_morphism checks the
          products that leave them, and a Fitting piece of decompose is the
          kernel or the image of a natural map), so basis[h] @ step =
          ambient step @ basis[g] on every step g -> h.  basis[h] times
          either path of a square of the submodule is then the ambient path
          times basis[g]; the ambient paths agree and basis[h] has
          independent columns, so the submodule's paths agree.  Its stack
          gives each step its exact shape."""
        parent = self.__dict__.get("_valid_if") or _source(self)
        if parent is not self and not parent._violations:
            return ()
        return tuple(_module_violations(self))

    @cached_property
    def _generators(self):
        """The generator grades: the grid indices g, in lexicographic order,
        where dim V_g exceeds the rank of the unit steps into g taken side
        by side, that is where V_g is not spanned by the images of its
        predecessors.  The ranks come from one reduce_stack over a (P, D,
        n * D) stack: point h's block holds, in its k-th D columns, _stack's
        step into h along axis k (zero where there is none).  That is one
        block per point and axis against _stack's one per edge, and padding
        leaves each rank as it is."""
        d = _width(self)
        if not d:
            return ()
        pts, n = self.grid.points(), self.grid.n_axes
        axes = np.array([axis for _, axis in self.grid.edges], dtype=np.intp)
        incoming = np.zeros((len(pts), d, n, d), dtype=np.int64)
        incoming[_edge_ends(self.grid.shape)[1], :, axes] = self._stack
        ranks = self.field.reduce_stack(incoming.reshape(len(pts), d, n * d))[1]
        return tuple(g for g, r in zip(pts, ranks.tolist()) if self.dims[g] > r)

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def __eq__(self, other):
        """Exact data equality.  True at once for the module itself, which
        reads no steps.  O(1) when the two sources (_source) share their
        data (_same_data), as two shift copies by one eps do: each module is
        then its source or that source restricted to the common grid, and
        restrict_extend is deterministic.  Two modules that hold only their
        stacks compare them; any other pair compares steps, as a public
        module's steps may hold a step off the grid, which its stack drops."""
        if self is other:
            return True
        if not isinstance(other, StepModule):
            return NotImplemented
        if self.field != other.field or self.grid != other.grid:
            return False
        stacks = "steps" not in self.__dict__ and "steps" not in other.__dict__
        return _same_data(_source(self), _source(other)) or self.dims == other.dims and (
            np.array_equal(self._stack, other._stack) if stacks
            else self.steps.keys() == other.steps.keys()
            and matrices_equal(self.steps, other.steps, self.steps))

    @cached_property
    def _paths(self):
        """{(a, b): path_map(a, b)} for every map built so far."""
        return {}

    def path_map(self, a, b):
        """The structure map from grid index a to grid index b >= a, read-only
        and cached on the module: the shared identity when a == b, the stored
        step when b is a's successor, and otherwise step(b - e_k, k) @
        path_map(a, b - e_k) mod p, k the highest axis where a < b.  That is
        the product of unit steps axis by axis, lowest axis first (any path
        agrees when the module is valid), and each longer map costs one
        product once the maps below it are cached.  a not below b is a
        ValidationError."""
        a, b = tuple(a), tuple(b)
        paths = self._paths
        m = paths.get((a, b))
        if m is not None:
            return m
        if any(x > y for x, y in zip(a, b)):
            raise ValidationError(f"no path from {a} to {b}")
        walk = []  # the steps back from b to a, or to a map already cached
        while b != a and (a, b) not in paths:
            k = max(i for i, (x, y) in enumerate(zip(a, b)) if x < y)
            prev = b[:k] + (b[k] - 1,) + b[k + 1:]
            walk.append((prev, k, b))
            b = prev
        m = paths[(a, b)] if b != a else _eye(self.dims[a])
        for prev, k, end in reversed(walk):
            step = self.steps[(prev, k)]
            m = paths[(a, end)] = step if prev == a else _freeze(step @ m % self.field.p)
        return m

    def evaluate(self, s):
        """(dimension, anchor index) of the extension at the rational point s;
        (0, None) when no grid point lies below s."""
        idx = self.grid.anchor(s)
        if idx is None:
            return 0, None
        return self.dims[idx], idx


def _stack_view(cls, name, build):
    """Put build on cls as a cached_property named after the dataclass field
    name.  An object built with the field holds it in its __dict__, which a
    non-data descriptor never shadows; one built by _from_stack holds only
    its _stack, and gets the field from build(object) the first time it is
    read, cached in its __dict__ from then on."""
    view = cached_property(build)
    view.__set_name__(cls, name)
    setattr(cls, name, view)


def _steps_view(v):
    """The steps of a module built by _from_stack, as read-only views into its
    _stack: each step is the top-left dims(end) x dims(start) block."""
    stack, dims = v._stack, v.dims
    return {(g, axis): stack[i, :dims[h], :dims[g]]
            for i, ((g, axis), h) in enumerate(v.grid.edges.items())}


_stack_view(StepModule, "steps", _steps_view)


def _same_data(a, b):
    """True when a and b are one object, or share their dims and stack objects
    over one field on equal grids: then they are one module, as modules never
    change."""
    return a is b or (a.dims is b.dims and a._stack is b._stack and a.field == b.field
                      and a.grid == b.grid)


def _source(v):
    """The module that restrict_extend built v from (it records it as
    _restricted_from), or v itself."""
    return v.__dict__.get("_restricted_from", v)


def zero_module(p, n_axes=1):
    """The zero module: a single grid point at the origin with dimension 0."""
    grid = Grid(tuple((Fraction(0),) for _ in range(n_axes)))
    dims = {tuple([0] * n_axes): 0}
    return StepModule(PrimeField(p), grid, dims, {})


def _dim_violations(v):
    """The first missing or negative dimension of v at a grid point, as
    validate words it, in a list; [] when there is none."""
    for g in v.grid.points():
        if g not in v.dims:
            return [f"missing dimension at {g}"]
        if v.dims[g] < 0:
            return [f"negative dimension at {g}"]
    return []


def _module_violations(v):
    """Every shape and commutativity violation of v, as validate reports
    them, checked afresh."""
    if out := _dim_violations(v):
        return out
    pts = v.grid.points()
    on_grid = set(pts)
    out = [f"dimension at {g} is not at a grid point" for g in v.dims if g not in on_grid]
    edges = v.grid.edges
    for (g, axis), h in edges.items():
        if (g, axis) not in v.steps:
            out.append(f"missing step at {g} axis {axis}")
            continue
        m = v.steps[(g, axis)]
        want = (v.dims[h], v.dims[g])
        if m.shape != want:
            out.append(f"step at {g} axis {axis} has shape {m.shape}, expected {want}")
    out += [f"step at {g} axis {axis} does not match any grid edge"
            for g, axis in v.steps if (g, axis) not in edges]
    if out:
        return out
    p = v.field.p
    for (g, i), gi in edges.items():
        for j in range(i + 1, v.grid.n_axes):
            gj = edges.get((g, j))
            if gj is None:
                continue
            via_i = v.steps[(gi, j)] @ v.steps[(g, i)] % p
            via_j = v.steps[(gj, i)] @ v.steps[(g, j)] % p
            if not np.array_equal(via_i, via_j):
                out.append(f"square at {g} axes ({i},{j}) does not commute")
                return out
    return out


def validate(v):
    """Check every shape and commutativity invariant.

    Returns a new list of violation strings, empty when the module is valid;
    the first entry names the first violated constraint found.  The check
    runs once per module (StepModule._violations).
    """
    return list(v._violations)


def ensure_valid(v):
    """v itself when validate finds nothing, else ValidationError naming
    every violation found."""
    check(v._violations)
    return v


def restrict_extend(v, grid):
    """The module's extension sampled on an arbitrary finite grid.

    The result's value at a grid point q is the extension's value at q (the
    anchor value, or 0 below the original grid); its steps are path maps of v
    between anchors.  Idempotent, and the identity when grid refines v.grid;
    v itself when grid is v.grid, which is the same data.
    The anchors of a step's two ends differ only on the step's axis, by a
    move read off that axis alone.  Each step's block is written into a
    zeroed stack as wide as the result: a move of 0 writes an identity, a
    move of 1 copies v's unit step, only longer moves read v.path_map, and a
    step below v's grid stays zero.  The result records v as its source (see
    _source).
    """
    if grid == v.grid:
        return v
    per_axis = v.grid.anchor_indices(grid)
    anchors = {q: None if None in a else a
               for q, a in zip(grid.points(), product(*per_axis))}
    moves = [[None if x is None else y - x for x, y in zip(axis, axis[1:])]
             for axis in per_axis]
    try:
        dims = {q: 0 if a is None else v.dims[a] for q, a in anchors.items()}
        d = max(dims.values())
        stack = np.zeros((len(grid.edges), d, d), dtype=np.int64)
        for i, ((q, axis), q2) in enumerate(grid.edges.items()):
            a, move = anchors[q], moves[axis][q[axis]]
            if a is not None:
                stack[i, :dims[q2], :dims[q]] = (_eye(dims[q]) if move == 0 else v.steps[(a, axis)]
                                                 if move == 1 else v.path_map(a, anchors[q2]))
    except KeyError:  # a missing dimension or step of v, which validate names
        check(_module_violations(v))
        raise
    out = StepModule._from_stack(v.field, grid, dims, _freeze(stack))
    out.__dict__["_restricted_from"] = v
    return out


def direct_sum(a, b):
    """Biproduct on the common refinement of the two grids; dims add pointwise
    and steps are block diagonal.  The stack holds each operand's stack, b's
    nonzero entries moved down and right by a's dimensions at the ends of
    their edge; reading the operands' stacks names a missing step."""
    if a.field != b.field:
        raise ValidationError(f"field mismatch: p={a.field.p} vs p={b.field.p}")
    grid = union_grids(a.grid, b.grid)
    ra, rb = restrict_extend(a, grid), restrict_extend(b, grid)
    sa, sb = ra._stack, rb._stack
    da, src, dst = ra._point_dims, *_edge_ends(grid.shape)
    dims = dict(zip(grid.points(), (da + rb._point_dims).tolist()))
    d = max(dims.values())
    stack = np.zeros((len(src), d, d), dtype=np.int64)
    stack[:, :sa.shape[1], :sa.shape[2]] = sa[:, :d, :d]
    e, r, c = np.nonzero(sb)
    stack[e, da[dst[e]] + r, da[src[e]] + c] = sb[e, r, c]
    return StepModule._from_stack(a.field, grid, dims, _freeze(stack))


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Morphism:
    """A natural transformation between two StepModules on one shared grid:
    a matrix comps(g) of shape target.dims(g) x source.dims(g) per point."""

    source: StepModule
    target: StepModule
    comps: dict

    def __post_init__(self):
        if self.source.grid != self.target.grid:
            raise ValidationError("morphism endpoints must share a grid")
        comps = {}
        for g, m in self.comps.items():
            g = _index(g)
            comps[g] = _block(self.source.field, m, (self.target.dims.get(g, 0),
                                                     self.source.dims.get(g, 0)),
                              "component at {}", g)
        object.__setattr__(self, "comps", comps)

    @classmethod
    def _from_stack(cls, source, target, stack):
        """Internal constructor, the only one src uses, for endpoints on one
        grid and a read-only (P, D_target, D_source) stack padded as _stack
        pads: the morphism's storage, from which comps is built on first read
        (_stack_view)."""
        m = object.__new__(cls)
        m.__dict__.update(source=source, target=target, _stack=stack)
        return m

    @cached_property
    def _stack(self):
        """The components zero-padded to (D_target, D_source), the largest
        dimensions of the endpoints, stacked in grid.points() order: one
        read-only (P, D_target, D_source) array.  A missing, misshapen or
        off-grid component is a ValidationError, as padding would hide it."""
        check(self._comps_violations())
        return _padded([self.comps[g] for g in self.grid.points()],
                       _width(self.target), _width(self.source))

    @cached_property
    def _violations(self):
        """validate_morphism's violations, as a tuple, found once: morphisms
        never change.  Nothing is cached when the check raises."""
        return tuple(_morphism_violations(self))

    def _comps_violations(self):
        """Missing, misshapen and off-grid components, as validate_morphism
        words them.  The endpoints are checked first: a missing or negative
        dimension of either is a ValidationError."""
        check(_dim_violations(self.source) + _dim_violations(self.target))
        out, pts = [], self.grid.points()
        for g in pts:
            if g not in self.comps:
                return out + [f"missing component at {g}"]
            want = (self.target.dims[g], self.source.dims[g])
            if self.comps[g].shape != want:
                out.append(f"component at {g} has shape {self.comps[g].shape}, expected {want}")
        on_grid = set(pts)
        return out + [f"component at {g} is not at a grid point" for g in self.comps
                      if g not in on_grid]

    def _component(self, g):
        """The component at the grid index g, a view into the stack."""
        i = 0
        for k, n in zip(g, self.grid.shape):
            i = i * n + k
        return self._stack[i, :self.target.dims[g], :self.source.dims[g]]

    @property
    def grid(self):
        return self.source.grid

    @property
    def field(self):
        return self.source.field

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Morphism):
            return NotImplemented
        stacks = "_stack" in self.__dict__ and "_stack" in other.__dict__
        return (self.source == other.source and self.target == other.target
                and (np.array_equal(self._stack, other._stack) if stacks
                     else self.comps.keys() == other.comps.keys()
                     and matrices_equal(self.comps, other.comps, self.comps)))


def _comps_view(m):
    """The components of a morphism built by _from_stack, as read-only views
    into its _stack: each is the top-left target.dims x source.dims block."""
    stack, s, t = m._stack, m.source.dims, m.target.dims
    return {g: stack[i, :t[g], :s[g]] for i, g in enumerate(m.grid.points())}


_stack_view(Morphism, "comps", _comps_view)


def validate_morphism(m):
    """Shape and naturality check; returns a new list of violations.  The
    check runs once per morphism (Morphism._violations); an endpoint step
    of the wrong shape raises ValidationError on every call.  It does not
    check that the endpoints are modules (validate does): naturality is
    defined square by square whether or not the endpoints' squares commute."""
    return list(m._violations)


def _morphism_violations(m):
    """validate_morphism's violations, checked afresh.  Naturality is one
    batched test per size class over the padded stacks, comps[h] o step =
    step o comps[g] on every edge g -> h, naming the first failing edge in
    grid.edges order.  A morphism built by _from_stack whose comps were
    never read is shape-checked by its stack alone: a stack of shape (P,
    D_target, D_source) gives every point a view of exactly its shape.  Any
    other stack falls back to the per-point scan, with its messages."""
    padded = (len(m.grid.points()), _width(m.target), _width(m.source))
    if ("comps" in m.__dict__ or m._stack.shape != padded) and (out := m._comps_violations()):
        return out
    ends = src, dst = _edge_ends(m.grid.shape)
    c, sv, sw, p = m._stack, m.source._stack, m.target._stack, m.field.p
    bad = np.zeros(len(src), dtype=bool)
    for k, i in _groups(max(c.shape[1:]), [m.source, m.target], ends=ends):
        a, b = c[dst[i], :k, :k] @ sv[i, :k, :k], sw[i, :k, :k] @ c[src[i], :k, :k]
        bad[i] = ((a - b) % p).any(axis=(1, 2))
    if not bad.any():
        return []
    g, axis = next(islice(m.grid.edges, int(bad.argmax()), None))
    return [f"naturality fails at {g} axis {axis}"]


def _block_mask(v, w):
    """Where the blocks of morphisms v -> w lie in their stacks, in flatten_morphism's order."""
    rows = np.arange(_width(w)) < w._point_dims[:, None]
    cols = np.arange(_width(v)) < v._point_dims[:, None]
    return rows[:, :, None] & cols[:, None, :]


def identity_morphism(v):
    eye = np.eye(_width(v), dtype=np.int64) * _block_mask(v, v)
    return Morphism._from_stack(v, v, _freeze(eye))


def zero_morphism(v, w):
    if v.grid != w.grid:
        raise ValidationError("morphism endpoints must share a grid")
    return Morphism._from_stack(v, w, _zero((math.prod(v.grid.shape), _width(w), _width(v))))


def compose(m2, m1):
    """m2 after m1; the grids must agree and m1's target data must equal m2's
    source data exactly."""
    if m1.target is not m2.source and m1.target != m2.source:
        raise ValidationError("composition endpoints do not match")
    a, b = m2._stack, m1._stack
    out = np.zeros((len(a), a.shape[1], b.shape[2]), dtype=np.int64)
    for c, i in _groups(max(a.shape[1:] + b.shape[2:]), [m2.target, m1.target, m1.source]):
        out[i, :c, :c] = a[i, :c, :c] @ b[i, :c, :c] % m1.field.p
    return Morphism._from_stack(m1.source, m2.target, _freeze(out))


def add_morphisms(m1, m2):
    """m1 + m2; both must have the same source and the same target data."""
    for a, b in ((m1.source, m2.source), (m1.target, m2.target)):
        if a is not b and a != b:
            raise ValidationError("sum endpoints do not match")
    return Morphism._from_stack(m1.source, m1.target,
                                _freeze((m1._stack + m2._stack) % m1.field.p))


def flatten_morphism(m):
    """All components concatenated into one residue vector, points in
    lexicographic order; the coordinate form used by Hom-space searches."""
    return m._stack[_block_mask(m.source, m.target)]


# Largest number of candidates an exhaustive Hom-space search may try.
DEFAULT_BUDGET = 1 << 16


def _at_least(x, least, what):
    """x as an int of at least least (through _integer), else a
    ValidationError naming what."""
    x = _integer(x, what)
    if x < least:
        raise ValidationError(f"{what} must be at least {least}, not {x}")
    return x


def check_budget(budget):
    """budget as an int, the number of candidates a search may try: an
    integer of at least 1, else a ValidationError."""
    return _at_least(budget, 1, "search budget")

# The most matrix entries that a Hom-space search tests in one batch (decide's
# candidate systems, iso_test's candidate combinations).  Larger chunks raise
# peak memory and test more candidates past the first hit.
_CHUNK_CELLS = 1 << 13


def coefficient_vectors(p, h, budget, what):
    """Every coefficient vector in F_p^h, as tuples in lexicographic order.
    Raises BudgetExceeded before yielding anything when p**h > budget, so an
    exhausted budget never reads as a search that found nothing; what names
    the searched space in the message."""
    if p ** h > budget:
        raise BudgetExceeded(f"{what} has dimension {h} over F_{p}: "
                             f"{p ** h} candidates exceed the search budget {budget}")
    return product(range(p), repeat=h)


def canonical_rows(F, span):
    """The canonical basis of the row space of span: the rows reduced with
    the columns reversed, then both reversed back.  It depends only on the
    space spanned, never on the spanning set, and it is the basis hom_basis
    returns when span's rows are morphisms flattened by flatten_morphism.

    The canonical basis of a subspace of F_p^N is the kernel basis that
    elimination reads off any linear system whose solutions are the
    subspace: for each free column c of the reduced system, the solution
    with a 1 at c and 0 at the other free columns (F.kernel_basis).  Its
    other nonzero entries lie at pivot columns before c, so its last nonzero
    entry is at c.  A nonzero solution is the combination of these with its
    own entries at the free columns as coefficients, so its last nonzero
    entry is the largest free column where it is nonzero: the free columns
    are exactly the last-nonzero positions of the subspace, which the
    subspace alone fixes.  Reducing any spanning set with the columns
    reversed puts the pivots at these positions and leaves each row 1 at
    its own pivot and 0 at the others, which is that solution.  Reversing
    the columns and the rows back gives the basis element by element, in
    order of its free columns.
    """
    rref, rank, _ = F.reduce(span[:, ::-1])
    return _freeze(np.ascontiguousarray(rref[:rank][::-1, ::-1]))


def _blocks(v, w, rows):
    """{grid point g: the components at g of the morphisms v -> w flattened
    in rows, as one (d, w_g, v_g) array of views into rows}."""
    out, pos = {}, 0
    for g in v.grid.points():
        r, c = w.dims[g], v.dims[g]
        out[g] = rows[:, pos:pos + r * c].reshape(len(rows), r, c)
        pos += r * c
    return out


def _morphisms(v, w, rows):
    """The morphisms v -> w flattened in rows, their stacks the slices of one
    read-only (len(rows), P, D_w, D_v) array."""
    mask = _block_mask(v, w)
    out = np.zeros((len(rows),) + mask.shape, dtype=np.int64)
    out[:, mask] = rows
    return [Morphism._from_stack(v, w, stack) for stack in _freeze(out)]


def linear_combination(v, w, rows, coeffs):
    """sum_i coeffs[i] * basis[i] as a morphism v -> w, for the basis of
    Hom(v, w) flattened in rows (hom_rows)."""
    return _morphisms(v, w, (np.asarray(coeffs, dtype=np.int64) @ rows % v.field.p)[None])[0]


def hom_rows(v, w):
    """hom_basis(v, w) in coordinates: one read-only row per basis element,
    its components flattened as flatten_morphism does.

    Generators.  Points are visited in lexicographic order, so the
    predecessors g - e_a of a point g come before it.  Each point keeps a
    basis of v_g made of generators moved up to g.  At g, each generator
    kept at a predecessor is moved in from the first predecessor that keeps
    it, by that predecessor's unit step, as one product per predecessor;
    these are the columns of T_in.  One reduction of [T_in | I] gives three
    things: the pivots in the identity block are g's new generators, which
    complete the image of the incoming steps to v_g; the part over T_in
    gives ker T_in; and, as the pivot columns of T_in and the new generators
    are the basis g keeps, the part over I is its inverse S_g.

    Unknowns.  A morphism phi is fixed by phi(x) in w at the grade of each
    generator x: sum over generators of dim w(grade) unknowns.  They are
    moved along w exactly as the generators are moved along v, so the
    images Phi_in of the incoming generators are linear in the unknowns.
    At every g, also where v_g = 0, ker T_in must map to 0 under Phi_in: one
    block of dim w_g rows per kernel vector.  As each point keeps only a
    basis, kernel vectors appear only where a step into g is not injective
    or the images of two steps meet.

    Exactness.  On a finite grid every element of v_g is a combination of
    generators moved to g, so the generators g keeps are a basis of v_g and
    phi_g = Phi_g S_g is the only candidate, Phi_g the images of the kept
    generators.  Conversely, let the unknowns meet every constraint.  A
    generator moved to g that g does not keep equals there a combination of
    the kept ones, and the constraint at g sends its image to the same
    combination of theirs; so phi_g sends every generator moved to g to its
    image.  Along a step g -> h, v's step sends each generator kept at g to
    that generator moved to h, which phi_h sends to its image at h: w's
    step applied to its image at g, as w commutes.  The kept generators span
    v_g, so phi_h o v's step = w's step o phi_g, and phi is natural.  The
    solutions are turned into components, phi_g = Phi_g S_g at every g in
    batched products over slices of the solutions (at most _CHUNK_CELLS
    entries of Phi_g's factors at a time), and put in canonical form by
    canonical_rows.
    """
    if v.grid != w.grid:
        raise ValidationError("hom_basis needs a common grid; refine first")
    if v.field != w.field:
        raise ValidationError("field mismatch")
    F = v.field
    pts = v.grid.points()
    width = sum(v.dims[g] * w.dims[g] for g in pts)
    start, size = [], []  # per generator: its first unknown and dim w(grade)
    eqs, n_unknowns = [], 0
    # per point: the generators kept, their coordinates T_g in v_g, the
    # images of their unknowns in w_g (one column per unknown) and S_g
    at = {}

    def unknowns(ids):
        return [c for i in ids for c in range(start[i], start[i] + size[i])]

    def columns(ids, keep):
        """Positions of the unknowns of ids[k], k in keep, among those of ids."""
        ends = list(accumulate((size[i] for i in ids), initial=0))
        return [c for k in keep for c in range(ends[k], ends[k + 1])]

    nothing = ([], None, None, None)
    for g in pts:
        dv, dw = v.dims[g], w.dims[g]
        ids, ts, ps = [], [], []
        for a in range(len(g)):
            if g[a] == 0:
                continue
            q = g[:a] + (g[a] - 1,) + g[a + 1:]
            q_ids, q_t, q_p, _ = at[q]
            if ids and q_ids:
                seen = set(ids)
                take = [k for k, i in enumerate(q_ids) if i not in seen]
                if len(take) < len(q_ids):
                    q_t, q_p = q_t[:, take], q_p[:, columns(q_ids, take)]
                    q_ids = [q_ids[k] for k in take]
            if q_ids:
                ids += q_ids
                ts.append(F.matmul(v.steps[(q, a)], q_t))
                ps.append(F.matmul(w.steps[(q, a)], q_p))
        if not ids and not dv:
            at[g] = nothing
            continue
        n_in = len(ids)
        eye = _eye(dv)
        t_in = np.concatenate(ts, axis=1) if ts else F.zeros(dv, 0)
        if ids:
            rref, _, pivots = F.reduce(np.concatenate([t_in, eye], axis=1))
        else:
            rref, pivots = eye, list(range(dv))
        kept = pivots[:sum(c < n_in for c in pivots)]
        new = [c - n_in for c in pivots[len(kept):]]
        free = [k for k in range(n_in) if k not in kept]
        p_in = np.concatenate(ps, axis=1) if ps else F.zeros(dw, 0)
        if free and p_in.size:
            ker = F.zeros(n_in, len(free))
            ker[free, range(len(free))] = 1
            ker[kept] = -rref[:len(kept), free] % F.p
            seg = np.repeat(np.arange(n_in), [size[i] for i in ids])
            block = ker.T[:, seg][:, None, :] * p_in[None]
            eqs.append((unknowns(ids), block.reshape(-1, p_in.shape[1]) % F.p))
        for _ in new:
            start.append(n_unknowns)
            size.append(dw)
            n_unknowns += dw
        at[g] = ([ids[k] for k in kept] + list(range(len(size) - len(new), len(size))),
                 np.concatenate([t_in[:, kept], eye[:, new]], axis=1),
                 np.concatenate([p_in[:, columns(ids, kept)]]
                                + [_eye(dw)] * len(new), axis=1),
                 rref[:, n_in:])
    system, pos = F.zeros(sum(len(rows) for _, rows in eqs), n_unknowns), 0
    for cols, rows in eqs:
        system[pos:pos + len(rows), cols] = rows
        pos += len(rows)
    sol = F.kernel_basis(system)
    h = sol.shape[1]
    if h == 0:
        return _freeze(F.zeros(0, width))
    comps = []
    for g, (ids, _, p_g, s_g) in at.items():
        if not ids:
            comps.append(F.zeros(h, v.dims[g] * w.dims[g]))
            continue
        seg = np.repeat(np.arange(len(ids)), [size[i] for i in ids])
        x, s = sol[unknowns(ids)].T, s_g[seg]
        # slices of the solutions whose (slice, dim w_g, unknowns) product
        # has at most _CHUNK_CELLS entries (or one solution, where one alone
        # has more), to bound the memory it takes
        step = max(1, _CHUNK_CELLS // max(p_g.size, 1))
        part = np.concatenate([(p_g[None] * x[i:i + step, None, :]) @ s
                               for i in range(0, h, step)])
        comps.append(part.reshape(h, -1) % F.p)
    return canonical_rows(F, np.concatenate(comps, axis=1))


def hom_basis(v, w):
    """A basis of Hom(v, w) as a list of Morphisms, in canonical form (see
    canonical_rows), computed from generators of v (see hom_rows).

    Both modules must live on the same grid (refine first).  The basis spans
    the exact solution space of all naturality equations; it always contains
    the identity in its span when w = v.  A v or w that validate rejects is
    a ValidationError.
    """
    return _morphisms(v, w, hom_rows(ensure_valid(v), ensure_valid(w)))


# ---------------------------------------------------------------------------
# Submodules and the image of a morphism
# ---------------------------------------------------------------------------

def _submodule(v, dims, basis, coords):
    """The submodule of v with dimension dims[g] at each grid point g, spanned
    there by the columns of basis[g], where coords[g] takes a vector of that
    span to its coordinates in basis[g].  basis and coords are stacks in
    grid.points() order, padded to (D_v, D) and (D, D_v), D the largest of
    dims; each step is coords[h] @ step @ basis[g], h the step's end, in one
    batched product per size class.  The caller guarantees that v's steps
    keep the spans, so the result is a module when v is one, and it records
    v as its _valid_if (StepModule._violations)."""
    sub = StepModule._from_stack(v.field, v.grid, dims,
                                 _edge_products(coords, v, basis, dims.values()))
    sub.__dict__["_valid_if"] = v
    return sub


def factor_morphism(m):
    """The pointwise image of a morphism m: v -> w, as (image, inclusion).

    The image at g is spanned by the pivot columns basis_g of m_g, which are
    the inclusion's component there.  One reduction of [basis_g | I] per
    point gives both halves of what the steps need: its first rank rows,
    past basis_g, take a vector of the span to its coordinates in basis_g,
    and its other rows vanish exactly on the span.  A step of w that carries
    the span at g outside the span at its end means m is not natural, and
    raises ValidationError.

    Both reductions run over stacks.  One reduce_stack over m's stack gives
    every point's pivot columns, which are gathered into the padded basis
    stack; a second one reduces [basis | I_w], I_w the identity on w_g's
    coordinates at each point and zero past them.  The padding adds zero
    columns and zero rows, which leave a reduced row echelon form as it is,
    and that form is unique, so each slice is the per-point one: its first
    rank rows past the basis columns are the coordinates, and the rows from
    rank on are the rows that vanish on the span, in place.
    """
    F, w, stack = m.field, m.target, m._stack
    _, ranks, pivots = F.reduce_stack(stack)
    dims = dict(zip(m.grid.points(), ranks.tolist()))
    d, dw = max(dims.values()), _width(w)
    kept = np.arange(d) < ranks[:, None]
    first = np.argsort(~pivots, axis=1, kind="stable")[:, None, :d]
    basis = _freeze(np.take_along_axis(stack, first, axis=2) * kept[:, None, :])
    red = F.reduce_stack(np.concatenate([basis, identity_morphism(w)._stack], axis=2))[0][:, :, d:]
    outside = red * (np.arange(dw)[:, None] >= ranks[:, None, None])
    if _edge_products(outside, w, basis, dims.values()).any():
        raise ValidationError("induced step left the subspace; morphism invalid")
    image = _submodule(w, dims, basis, red[:, :d] * kept[:, :, None])
    return image, Morphism._from_stack(image, w, basis)
