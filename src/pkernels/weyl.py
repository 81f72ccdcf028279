r"""The finite symmetric group S_h on {1, ..., h}.

Permutations are tuples in one-line notation, 1-indexed: ``w[j-1]`` is the
image w(j).  The matching matrix convention, used consistently everywhere
in this package, puts the 1's of the permutation matrix P_w at positions
(w(j), j), so that P_{u∘v} = P_u · P_v.

Simple reflections are named by the pair they swap: ``(i, i+1)`` for
1 <= i <= h-1.  Sets of simple reflections (parabolic types) are plain
iterables of such pairs.
"""

import itertools
from typing import Iterable, Optional

Perm = tuple

__all__ = [
    'identity', 'is_permutation', 'compose', 'inverse',
    'transposition', 'simple_pairs', 'longest_element', 'min_coset_reps',
    'all_permutations',
]


def identity(h: int) -> Perm:
    """
    >>> identity(3)
    (1, 2, 3)
    """
    return tuple(range(1, h + 1))


def is_permutation(w) -> bool:
    """
    >>> is_permutation((2, 1, 3)), is_permutation((2, 2))
    (True, False)
    """
    return sorted(w) == list(range(1, len(w) + 1))


def compose(u: Perm, v: Perm) -> Perm:
    """The product u∘v, acting as (u∘v)(j) = u(v(j)).

    >>> compose((2, 3, 1), (2, 1, 3))
    (3, 2, 1)
    >>> compose((2, 1), (2, 1))
    (1, 2)
    """
    if len(u) != len(v):
        raise ValueError('degree mismatch: %d != %d' % (len(u), len(v)))
    return tuple(u[j - 1] for j in v)


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(w)
    for j, i in enumerate(w, start=1):
        out[i - 1] = j
    return tuple(out)


def transposition(h: int, a: int, b: int) -> Perm:
    """
    >>> transposition(3, 1, 3)
    (3, 2, 1)
    """
    w = list(range(1, h + 1))
    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


def simple_pairs(h: int) -> frozenset:
    """All simple reflections of S_h as swap pairs (i, i+1)."""
    return frozenset((i, i + 1) for i in range(1, h))


def _runs(h: int, subset) -> list:
    # maximal intervals [a, b] glued by the adjacent swaps present in subset
    present = {i for (i, j) in subset}
    runs = []
    a = 1
    for i in range(1, h + 1):
        if i == h or i not in present:
            runs.append((a, i))
            a = i + 1
    return runs


def longest_element(h: int, subset: Optional[Iterable] = None) -> Perm:
    """Longest element of the parabolic subgroup generated by ``subset``
    (the full group when subset is None).

    >>> longest_element(3)
    (3, 2, 1)
    >>> longest_element(3, set())
    (1, 2, 3)
    >>> longest_element(3, {(2, 3)})
    (1, 3, 2)
    """
    subset = simple_pairs(h) if subset is None else set(subset)
    if not subset <= simple_pairs(h):
        raise ValueError('not a set of simple reflections of S_%d' % h)
    w = []
    for a, b in _runs(h, subset):
        w.extend(range(b, a - 1, -1))
    return tuple(w)


def min_coset_reps(h: int, subset: Iterable) -> list:
    """Minimal-length representatives of the cosets W_I \\ W, in
    lexicographic order.

    w is minimal in W_I·w iff w^{-1}(i) < w^{-1}(i+1) for every swap
    (i, i+1) in I.

    >>> min_coset_reps(2, set())
    [(1, 2), (2, 1)]
    >>> min_coset_reps(3, {(2, 3)})
    [(1, 2, 3), (2, 1, 3), (2, 3, 1)]
    """
    subset = set(subset)
    if not subset <= simple_pairs(h):
        raise ValueError('not a set of simple reflections of S_%d' % h)
    reps = []
    for w in itertools.permutations(range(1, h + 1)):
        wi = inverse(w)
        if all(wi[i - 1] < wi[j - 1] for (i, j) in subset):
            reps.append(w)
    return reps


def all_permutations(h: int) -> list:
    """All of S_h, lexicographically."""
    return [tuple(w) for w in itertools.permutations(range(1, h + 1))]
