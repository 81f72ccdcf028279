r"""Residue modules: a finite-dimensional vector space with a semilinear
operator F (twisted by Frobenius) and an anti-semilinear operator V,
satisfying im F = ker V and im V = ker F.

Vectors are columns.  A subspace is the tuple of its canonical reduced
row-basis (rref) rows, each a tuple of field indices: equality of
subspaces is tuple equality, and the canonical filtration's worklist
keys its members by them.  space_rows, f_image and v_preimage each take
a list or tuple of rows, not necessarily independent, and return a
subspace; the work runs on lists (_kernels.rref_rows, matmul_rows).

A linear preimage {x : M·x in U} is one rref.  The rows of
[[M^T | I], [U | 0]] span the pairs (M·x + u, x).  In their rref the rows
whose left block vanishes span exactly the pairs (0, x) with M·x in U,
and since the rref clears every pivot column, their right blocks are
already the canonical rref basis of the preimage.  The other rows have
their pivots in the left block, so their left blocks are the canonical
basis of im M + U.  With U = 0 one rref gives im M and ker M, so a
module's check() takes one solve per operator, and caches im F and
ker V for the canonical filtration.

The canonical filtration is the closure of {0, whole space} under
U -> F(U) and U -> V^{-1}(U); for a valid module it is a chain.  Its
canonical type, the triples (dim U, dim F(U), dim V^{-1}(U)) over its
members, determines the module up to isomorphism, as it does a
truncated Barsotti-Tate group of level 1 (Oort, "A stratification of a
moduli space of abelian varieties", 2001).  The isomorphism classes of
height h and dimension d match the minimal coset representatives w of
the stratum (h, d) one to one (Moonen, "Group schemes with additional
structures and Weyl group cosets", 2001).  The type reads w (Oort's final
sequence): psi(i) = dim F(U), U the member of dimension i, is flat or
rises by one per step between members, letter i of a word is
1 - (psi(i) - psi(i-1)), and its 1s and 0s take 1..d and d+1..h in order.
w is checked on its reference module, 0/1 monomial and so alike on all fields.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .. import _kernels as K
from ..errors import ConventionError, integers
from ..polygons import _eo_coding
from .gf import FieldConfig, field
from .polymat import square_rows

__all__ = [
    'Bt1Module', 'space_rows', 'f_image', 'v_preimage', 'canonical_filtration',
    'eo_classify', 'graded_bt1_from_beginning',
]


@dataclass(frozen=True, eq=False)
class Bt1Module:
    """h-dimensional module with F(x) = fmat·sigma(x), V(x) = vmat·sigma^{-1}(x) for
    constant matrices (polymat).  Modules compare and hash by identity."""

    cfg: FieldConfig
    fmat: tuple
    vmat: tuple

    def __post_init__(self):
        f, v = (square_rows(m, self.cfg, poly=False) for m in (self.fmat, self.vmat))
        if len(f) != len(v):
            raise ValueError('fmat and vmat must be square of equal size')
        object.__setattr__(self, 'fmat', f)
        object.__setattr__(self, 'vmat', v)

    @property
    def h(self) -> int:
        return len(self.fmat)

    @cached_property
    def _f(self) -> tuple:
        """(im F, ker F) = (im fmat, sigma^{-1}(ker fmat)) from one solve."""
        im, ker = _image_preimage(self.fmat, (), self.cfg)
        return im, _apply(self.cfg.frobs[1], ker)

    @cached_property
    def _v(self) -> tuple:
        """(im V, ker V) = (im vmat, sigma(ker vmat)) from one solve."""
        im, ker = _image_preimage(self.vmat, (), self.cfg)
        return im, _apply(self.cfg.frobs[0], ker)

    @property
    def dimension(self) -> int:
        """Codimension of im F, i.e. the d of the stratum."""
        return self.h - len(self._f[0])

    def check(self):
        """Assert im F = ker V and im V = ker F; returns self.  F and V
        are sigma- and sigma^{-1}-semilinear, so one solve per operator
        gives its image and kernel (_f, _v).  Both are cached, so a
        repeated check() compares tuples and solves nothing; a failing
        one raises on every call."""
        (imf, kerf), (imv, kerv) = self._f, self._v
        if imf != kerv:
            raise ValueError('im F != ker V')
        if imv != kerf:
            raise ValueError('im V != ker F')
        return self


# ------------------------------------------------- subspace primitives

def space_rows(rows, cfg: FieldConfig) -> tuple:
    """The subspace spanned by rows (sequences of field indices)."""
    rows = list(rows)
    return tuple(map(tuple, rows[:K.rref_rows(rows, cfg)]))


def _whole(h: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(h)) for i in range(h))


def _apply(table, u) -> tuple:
    # sigma fixes 0 and 1, so it maps canonical rows to the canonical
    # rows of the image subspace
    return tuple(tuple(map(table.__getitem__, row)) for row in u)


def _image_preimage(mat, u, cfg: FieldConfig):
    """(im mat + U, {x : mat·x in U}) for a square mat (list of rows) and
    U given by rows, from one rref of [[mat^T | I], [U | 0]] (module
    docstring).  Only U = the whole space, as its canonical rows, skips
    the rref: h dependent rows span less."""
    h = len(mat)
    if len(u) == h and u == _whole(h):
        return u, u
    zero = [0] * h
    stack = [list(col) + zero[:i] + [1] + zero[i + 1:] for i, col in enumerate(zip(*mat))]
    stack += [list(row) + zero for row in u]
    image, preimage = [], []
    for row in stack[:K.rref_rows(stack, cfg)]:
        left = tuple(row[:h])
        if any(left):
            image.append(left)
        else:
            preimage.append(tuple(row[h:]))
    return tuple(image), tuple(preimage)


# ------------------------------------------------- semilinear operators

def f_image(Z: Bt1Module, u) -> tuple:
    """F(U) for U given by rows: the span of the rows sigma(u)·fmat^T."""
    if not u:
        return ()
    return space_rows(K.matmul_rows(_apply(Z.cfg.frobs[0], u), tuple(zip(*Z.fmat)), Z.h, Z.cfg),
                      Z.cfg)


def v_preimage(Z: Bt1Module, u) -> tuple:
    """V^{-1}(U) for U given by rows: sigma of its preimage under vmat."""
    return _apply(Z.cfg.frobs[0], _image_preimage(Z.vmat, u, Z.cfg)[1])


# ------------------------------------------------- canonical filtration

def canonical_filtration(Z: Bt1Module):
    """Closure of {0, whole} under F and V^{-1}; returns (flag, signature).

    flag: the member subspaces sorted by dimension (totally ordered by
    inclusion for valid modules); signature: the canonical type, a tuple
    of triples (dim U, dim F(U), dim V^{-1}(U)).  One worklist pass
    computes F(U) and V^{-1}(U) once per member; F of the whole space
    and V^{-1} of zero are the module's cached im F and ker V.  A chain
    in an h-dimensional space has at most h+1 members, so the closure
    stops with ConventionError once it grows past that.
    """
    h, cfg = Z.h, Z.cfg
    whole = _whole(h)
    members = {}        # U -> (dim F(U), dim V^{-1}(U))
    work = [(), whole]
    while work:
        u = work.pop()
        if u in members:
            continue
        if len(members) > h:
            raise ConventionError('canonical filtration has more than %d members, '
                                  'so it is not totally ordered' % (h + 1))
        fu = Z._f[0] if u == whole else f_image(Z, u)
        vu = Z._v[1] if not u else v_preimage(Z, u)
        members[u] = len(fu), len(vu)
        work += [fu, vu]
    flag = sorted(members, key=lambda u: (len(u), u))
    # a lies in b when a + b is no bigger than b; 0 lies in every member,
    # and every member in the whole space
    for a, b in zip(flag[1:], flag[2:-1]):
        if K.rref_rows(list(a + b), cfg) != len(b):
            raise ConventionError('canonical filtration is not totally ordered')
    return tuple(flag), tuple((len(u),) + members[u] for u in flag)


@lru_cache(maxsize=1024)      # 1022 types have h <= 9
def _reference_signatures(sig: tuple, d: int) -> tuple:
    """eo_classify on the canonical type sig."""
    steps = [(b - a, fb - fa) for (a, fa, _), (b, fb, _) in zip(sig, sig[1:])]
    word = [not rise for step, rise in steps for _ in range(step)]
    if sum(word) != d or any(rise not in (0, step) for step, rise in steps):
        raise ConventionError('canonical type %s reads no word of dimension %d' % (sig, d))
    h = len(word)
    ones, zeros = iter(range(1, d + 1)), iter(range(d + 1, h + 1))
    w = tuple(next(ones) if a else next(zeros) for a in word)
    # w's reference module, bt1_of of x_w: lam is 1 at u(j) just for j < d
    u, r = _eo_coding(h, d, w)[h:], range(h)
    fmat = [[int(u[j] == i + 1 and j >= d) for j in r] for i in r]
    vmat = [[int(u[i] == j + 1 and i < d) for j in r] for i in r]
    if canonical_filtration(Bt1Module(field(2, 1), fmat, vmat))[1] != sig:
        raise ConventionError('canonical type %s is not that of %s' % (sig, w))
    return w


def eo_classify(Z: Bt1Module, d: int):
    """The minimal coset representative w of the stratum (Z.h, d) that
    Z's canonical type reads (module docstring); else ConventionError."""
    return _reference_signatures(canonical_filtration(Z)[1], *integers(d))


def graded_bt1_from_beginning(B, cfg: FieldConfig) -> Bt1Module:
    """Module with basis e_j, j in C ascending: F e_j = e_{j+n} when
    j+n in C (else 0), V e_j = e_{j+m} when j+m in C (else 0)."""
    elems = B.sorted_elements()
    pos = {j: k for k, j in enumerate(elems)}
    f = [[int(pos.get(j + B.n) == i) for j in elems] for i in range(len(elems))]
    v = [[int(pos.get(j + B.m) == i) for j in elems] for i in range(len(elems))]
    return Bt1Module(cfg, f, v).check()
