r"""Iwahori double-coset product supports.

For x, y in the extended affine Weyl group, the product of the double
cosets IxI·IyI is a finite union of double cosets IwI; this module
computes the set of such w by BN-pair folding along a reduced word,
keeping both branches {x·s_i, x} on a length-decreasing step.

The incidence engine does not use this module.  It serves the
``coset-product`` command, the matrix-sampling checks of the length
function, and the sandwich condition

    x_w  in  IyI · Iz_lambda I · Iy^{-1}I,

a necessary condition for a nonempty cell that the tests hold every
table to.

The support-table functions at the bottom tabulate supp(IyI·IcI) and
supp(IcI·IyI) for *every* finite permutation y at once by BFS over the
weak order; together with the duality

    w in supp(IuI·IvI)  <=>  u in supp(IwI·Iv^{-1}I)

they test "target in IyI·IzI·Iy^{-1}I" as a table intersection instead
of folding per query.  Tests pin the equivalence with the direct
computation.
"""

from . import affine, weyl
from .affine import Element, length
from .errors import ResourceLimitError

__all__ = [
    'fold_simple', 'fold_simple_left', 'coset_product_support',
    'coset_product', 'sandwich_contains', 'left_support_table',
    'right_support_table', 'clear_caches',
]


def fold_simple(S, i: int) -> frozenset:
    """Support of right convolution of the cosets in S by Is_iI."""
    out = set()
    for x in S:
        s = affine.simple_reflection(x.h, i)
        xs = x * s
        if length(xs) > length(x):
            out.add(xs)
        else:
            out.update((xs, x))
    return frozenset(out)


def fold_simple_left(S, i: int) -> frozenset:
    """Support of left convolution by Is_iI (mirror of fold_simple)."""
    out = set()
    for x in S:
        s = affine.simple_reflection(x.h, i)
        sx = s * x
        if length(sx) > length(x):
            out.add(sx)
        else:
            out.update((sx, x))
    return frozenset(out)


def coset_product(S, y: Element) -> frozenset:
    """Support of (∪_{x∈S} IxI) · IyI."""
    k, word = affine.reduced_decomposition(y)
    om = affine.omega(y.h) ** k
    S = frozenset(x * om for x in S)
    for i in word:
        S = fold_simple(S, i)
    return S


def coset_product_support(x: Element, y: Element) -> frozenset:
    """The set of w with IwI ⊆ IxI·IyI.

    Folds y's reduced word onto {x·omega^k}; the omega-power factor is a
    single coset move since length-zero elements normalize I.
    """
    if x.h != y.h:
        raise ValueError('size mismatch')
    return coset_product({x}, y)


def sandwich_contains(target: Element, y, z: Element) -> bool:
    """Whether I·target·I ⊆ IyI · IzI · Iy^{-1}I, for a finite permutation y."""
    S = coset_product_support(affine.from_perm(y), z)
    S = coset_product(S, affine.from_perm(weyl.inverse(tuple(y))))
    return target in S


# ------------------------------------------------------- support tables

_left_tables = {}
_right_tables = {}


def clear_caches():
    _left_tables.clear()
    _right_tables.clear()


def _weak_order(h):
    # every y != e with a recorded descent parent one step shorter
    ys = sorted(weyl.all_permutations(h), key=lambda w: (weyl.finite_length(w), w))
    return ys


def left_support_table(c: Element, max_support: int = None,
                       cache: bool = True) -> dict:
    """supp(IyI·IcI) for every finite permutation y, as {y: frozenset}.

    Built by BFS over the left weak order: if length(s_i·y) = length(y)+1
    then I(s_i y)I·IcI = Is_iI·IyI·IcI, so the table entry is a left fold
    of the parent's.  Pass cache=False for throwaway tables to keep memory flat.
    """
    cached = _left_tables.get(c)
    if cached is not None:
        return cached
    h = c.h
    table = {weyl.identity(h): frozenset((c,))}
    total = 1
    for y in _weak_order(h):
        if y in table:
            continue
        yi = weyl.inverse(y)
        i = next(i for i in range(1, h) if yi[i - 1] > yi[i])  # left descent
        parent = weyl.compose(weyl.transposition(h, i, i + 1), y)
        table[y] = fold_simple_left(table[parent], i)
        total += len(table[y])
        if max_support is not None and total > max_support:
            raise ResourceLimitError('support table for %r exceeds %d elements' % (c, max_support))
    if cache:
        _left_tables[c] = table
    return table


def right_support_table(c: Element, max_support: int = None,
                        cache: bool = True) -> dict:
    """supp(IcI·IyI) for every finite permutation y, as {y: frozenset}."""
    cached = _right_tables.get(c)
    if cached is not None:
        return cached
    h = c.h
    table = {weyl.identity(h): frozenset((c,))}
    total = 1
    for y in _weak_order(h):
        if y in table:
            continue
        i = next(i for i in range(1, h) if y[i - 1] > y[i])  # right descent
        parent = weyl.compose(y, weyl.transposition(h, i, i + 1))
        table[y] = fold_simple(table[parent], i)
        total += len(table[y])
        if max_support is not None and total > max_support:
            raise ResourceLimitError('support table for %r exceeds %d elements' % (c, max_support))
    if cache:
        _right_tables[c] = table
    return table
