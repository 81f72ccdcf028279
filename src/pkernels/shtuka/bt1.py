r"""Residue modules: a finite-dimensional vector space with a semilinear
operator F (twisted by Frobenius) and an anti-semilinear operator V,
satisfying im F = ker V and im V = ker F.

Vectors are columns; subspaces are stored as canonical reduced
row-basis matrices (rref), so equality of subspaces is array equality.

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
structures and Weyl group cosets", 2001).  So a module is classified by
looking its type up in a table of the reference modules of (h, d), one
per w.  Those are 0/1 monomial, so every member of their filtration is
a coordinate subspace and their types do not depend on the field: one
table per (h, d) serves every field.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .. import _kernels as K
from ..errors import ConventionError
from .gf import FieldConfig
from .polymat import gf_mat_mul

__all__ = [
    'Bt1Module', 'space_rows', 'f_image', 'v_preimage', 'canonical_filtration',
    'eo_classify', 'graded_bt1_from_beginning',
]


@dataclass(frozen=True)
class Bt1Module:
    """h-dimensional module with F(x) = fmat·sigma(x), V(x) = vmat·sigma^{-1}(x)."""

    cfg: FieldConfig
    fmat: np.ndarray
    vmat: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(np.asarray(self.fmat, dtype=np.int64))
        v = np.ascontiguousarray(np.asarray(self.vmat, dtype=np.int64))
        if f.shape != v.shape or f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError('fmat and vmat must be square of equal size')
        object.__setattr__(self, 'fmat', f)
        object.__setattr__(self, 'vmat', v)
        f.setflags(write=False)
        v.setflags(write=False)

    @property
    def h(self) -> int:
        return self.fmat.shape[0]

    @cached_property
    def _im_f(self) -> np.ndarray:
        """im F = im fmat as canonical rows; computed once, since fmat is
        read-only (check() fills it from its solve on fmat)."""
        return _frozen(_image_and_kernel(self.fmat, self.cfg)[0])

    @cached_property
    def _ker_v(self) -> np.ndarray:
        """ker V = sigma(ker vmat) as canonical rows; computed once, since
        vmat is read-only (check() fills it from its solve on vmat)."""
        cfg = self.cfg
        return _frozen(_rows_apply(cfg.frb, _image_and_kernel(self.vmat, cfg)[1], cfg))

    @property
    def dimension(self) -> int:
        """Codimension of im F, i.e. the d of the stratum."""
        return self.h - space_dim(self._im_f)

    def check(self):
        """Assert im F = ker V and im V = ker F; returns self.  One solve
        per operator gives its image and kernel; F and V are sigma- and
        sigma^{-1}-semilinear, so im F = im fmat, ker F = sigma^{-1}(ker
        fmat), im V = im vmat and ker V = sigma(ker vmat).  The module is
        immutable, so a check that passed is remembered and a repeated
        check() solves nothing; a failing one raises on every call."""
        cache = vars(self)
        if '_checked' in cache:
            return self
        cfg = self.cfg
        imf, kerf = _image_and_kernel(self.fmat, cfg)
        imv, kerv = _image_and_kernel(self.vmat, cfg)
        cache.setdefault('_im_f', _frozen(imf))
        cache.setdefault('_ker_v', _frozen(_rows_apply(cfg.frb, kerv, cfg)))
        if not np.array_equal(self._im_f, self._ker_v):
            raise ValueError('im F != ker V')
        if not np.array_equal(imv, _rows_apply(cfg.frbi, kerf, cfg)):
            raise ValueError('im V != ker F')
        cache['_checked'] = True
        return self

    def __hash__(self):
        return hash((self.cfg, self.fmat.tobytes(), self.vmat.tobytes()))

    def __eq__(self, other):
        return (isinstance(other, Bt1Module) and self.cfg == other.cfg
                and np.array_equal(self.fmat, other.fmat)
                and np.array_equal(self.vmat, other.vmat))


# ------------------------------------------------- subspace primitives

def space_rows(rows, cfg: FieldConfig):
    """Canonical rref basis (drops zero rows)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows.reshape(0, rows.shape[1] if rows.ndim == 2 else 0)
    red, rank = K.gf_rref(np.ascontiguousarray(rows), cfg.add, cfg.mul, cfg.neg, cfg.inv)
    return np.ascontiguousarray(red[:rank])


def space_dim(rows) -> int:
    return rows.shape[0]


def full_rows(h):
    return np.eye(h, dtype=np.int64)


def zero_rows(h):
    return np.zeros((0, h), dtype=np.int64)


def sum_rows(a, b, cfg: FieldConfig):
    return space_rows(np.vstack([a, b]), cfg)


def intersect_dim(a, b, cfg: FieldConfig) -> int:
    return space_dim(a) + space_dim(b) - space_dim(sum_rows(a, b, cfg))


def _rows_apply(table, rows, cfg):
    # sigma fixes 0 and 1, so it maps a canonical (rref) basis to the
    # canonical basis of the image subspace
    return table[rows] if rows.size else rows


def _frozen(rows):
    rows.setflags(write=False)
    return rows


def _image_preimage(mat, u_rows, cfg: FieldConfig):
    """(im mat + span(u_rows), {x : mat @ x in span(u_rows)}) as canonical
    rows, from one rref of [[mat^T | I], [U | 0]] (module docstring)."""
    m, n = mat.shape
    k = u_rows.shape[0]
    if k == m:
        return full_rows(m), full_rows(n)
    stack = np.zeros((n + k, m + n), dtype=np.int64)
    stack[:n, :m] = mat.T
    stack[np.arange(n), m + np.arange(n)] = 1
    stack[n:, :m] = u_rows
    red, rank = K.gf_rref(stack, cfg.add, cfg.mul, cfg.neg, cfg.inv)
    red = red[:rank]
    left = red[:, :m].any(axis=1)
    return np.ascontiguousarray(red[left, :m]), np.ascontiguousarray(red[~left, m:])


def _image_and_kernel(mat, cfg: FieldConfig):
    """(im mat, ker mat) as canonical rows, from one rref."""
    mat = np.asarray(mat, dtype=np.int64)
    return _image_preimage(mat, zero_rows(mat.shape[0]), cfg)


# ------------------------------------------------- semilinear operators

def f_image(Z: Bt1Module, u_rows):
    """F(U) for U given as rows: span of fmat·sigma(u)."""
    cfg = Z.cfg
    if u_rows.shape[0] == 0:
        return zero_rows(Z.h)
    return space_rows(gf_mat_mul(_rows_apply(cfg.frb, u_rows, cfg), Z.fmat.T, cfg), cfg)


def v_preimage(Z: Bt1Module, u_rows):
    """V^{-1}(U) = sigma of the linear preimage under vmat."""
    cfg = Z.cfg
    return _rows_apply(cfg.frb, _image_preimage(Z.vmat, u_rows, cfg)[1], cfg)


# ------------------------------------------------- canonical filtration

def canonical_filtration(Z: Bt1Module):
    """Closure of {0, whole} under F and V^{-1}; returns (flag, signature).

    flag: tuple of canonical row bases sorted by dimension (totally
    ordered by inclusion for valid modules); signature: the canonical
    type, a tuple of triples (dim U, dim F(U), dim V^{-1}(U)).  One
    worklist pass computes F(U) and V^{-1}(U) once per member; F of the
    whole space and V^{-1} of zero are the module's cached im F and
    ker V.  A chain in an h-dimensional space has at most h+1 members,
    so the closure stops with ConventionError once it grows past that.
    """
    h = Z.h
    whole = full_rows(h).tobytes()
    members = {}        # rows bytes -> (rows, dim F(U), dim V^{-1}(U))
    work = [zero_rows(h), full_rows(h)]
    while work:
        rows = work.pop()
        key = rows.tobytes()       # every row has h entries: the length fixes dim U
        if key in members:
            continue
        if len(members) > h:
            raise ConventionError('canonical filtration has more than %d members, '
                                  'so it is not totally ordered' % (h + 1))
        fu = Z._im_f if key == whole else f_image(Z, rows)
        vu = Z._ker_v if not rows.size else v_preimage(Z, rows)
        members[key] = (rows, space_dim(fu), space_dim(vu))
        work += [fu, vu]
    found = sorted(members.values(), key=lambda m: (space_dim(m[0]), m[0].tobytes()))
    flag = tuple(m[0] for m in found)
    for a, b in zip(flag, flag[1:]):
        if intersect_dim(a, b, Z.cfg) != space_dim(a):
            raise ConventionError('canonical filtration is not totally ordered')
    return flag, tuple((space_dim(u), df, dv) for u, df, dv in found)


@lru_cache(maxsize=None)
def _reference_signatures(h: int, d: int):
    """Map canonical type -> minimal coset rep w, over the reference
    modules of the stratum (h, d), built over F_2 (module docstring).
    Raises ConventionError if two references share a type."""
    from .. import weyl
    from ..polygons import HodgeDatum, mu_and_type, eo_representative
    from .core import shtuka_from_element, bt1_of
    from .gf import field

    cfg = field(2, 1)
    hd = HodgeDatum(h, d)
    _, pairs = mu_and_type(hd)
    sigs = {}
    for w in weyl.min_coset_reps(h, pairs):
        Z = bt1_of(shtuka_from_element(eo_representative(hd, w), cfg))
        s = canonical_filtration(Z)[1]
        if s in sigs:
            raise ConventionError('reference modules %s and %s of stratum (%d, %d) share '
                                  'the canonical type %s' % (sigs[s], w, h, d, s))
        sigs[s] = w
    return sigs


def eo_classify(Z: Bt1Module, d: int = None):
    """The minimal coset representative w whose reference module has
    Z's canonical type.  Raises ConventionError when nothing matches."""
    h = Z.h
    if d is None:
        d = Z.dimension
    w = _reference_signatures(h, d).get(canonical_filtration(Z)[1])
    if w is None:
        raise ConventionError('canonical type matches no reference module of stratum (%d, %d)'
                              % (h, d))
    return w


def graded_bt1_from_beginning(B, cfg: FieldConfig) -> Bt1Module:
    """Module with basis e_j, j in C ascending: F e_j = e_{j+n} when
    j+n in C (else 0), V e_j = e_{j+m} when j+m in C (else 0)."""
    elems = B.sorted_elements()
    pos = {j: k for k, j in enumerate(elems)}
    h = len(elems)
    f = np.zeros((h, h), dtype=np.int64)
    v = np.zeros((h, h), dtype=np.int64)
    for j in elems:
        if j + B.n in pos:
            f[pos[j + B.n], pos[j]] = 1
        if j + B.m in pos:
            v[pos[j + B.m], pos[j]] = 1
    return Bt1Module(cfg, f, v).check()
