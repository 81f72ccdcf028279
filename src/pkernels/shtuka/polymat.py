r"""Matrices over k[t] as tuples of rows, the oracle's one matrix form.

A polynomial matrix (a datum's amat) is a tuple of h rows, each a tuple
of h coefficient tuples (t^0 first) of one length D >= 1; a constant
matrix (a residue module's fmat and vmat) is a tuple of row tuples.
Entries are field indices, and square_rows brings any nested sequence,
ndarrays included, to this form.  Laurent matrices are handled by
callers via an explicit power of t shift.  Exact arithmetic throughout:
products grow degree, truncation is explicit.

Products over O/t^n run on packed series (_kernels.Packing, pack_matrix);
pm_char_poly (its coefficient of X^0 is (-1)^h·det) is _kernels.charpoly.
solve_mod is the one linear solve over O/t^n.
"""

from itertools import chain

from .. import _kernels as K
from ..errors import integers
from .gf import FieldConfig

__all__ = [
    'square_rows', 'pm_trim', 'pm_truncate', 'pm_mul', 'pm_frob', 'pm_coeff',
    'pm_char_poly', 'solve_mod', 'pm_inv_mod', 'pm_from_element',
]


def _blocks(seq, n) -> tuple:
    """The consecutive n-tuples of seq."""
    return tuple(zip(*[iter(seq)] * n))


def _shape(a) -> tuple:
    """The lengths of a, a[0], a[0][0], ... while they are sequences."""
    try:
        n = len(a)
    except TypeError:
        return ()
    return (n,) + (_shape(a[0]) if n and not isinstance(a, (str, bytes)) else ())


def _field_bytes(flat, q) -> bytes:
    """The list flat as bytes; ValueError unless every entry is an integer,
    and no bool, in [0, q), q <= 256 (gf.MAX_ORDER)."""
    if bool in map(type, flat):
        raise ValueError('field indices must be integers, not booleans')
    try:
        data = bytes(flat)
    except TypeError:
        raise ValueError('field indices must be integers') from None
    except ValueError:                  # an entry below 0 or above 255
        data = None
    if data is None or data and max(data) >= q:
        raise ValueError('field indices must lie in [0, %d)' % q)
    return data


def square_rows(a, cfg: FieldConfig, poly: bool) -> tuple:
    """a, any nested sequence, as a new polynomial matrix (poly) or
    constant matrix of the module's form, the kind its caller needs.
    ValueError unless it is h >= 1 rows of h entries, each (poly) D >= 1
    coefficients with one D for all, every one a field index of cfg."""
    try:
        h = len(a)
        entries = list(chain.from_iterable(a)) if poly else a
        d = len(entries[0]) if poly else h
        flat = list(chain.from_iterable(entries))
        regular = (h >= 1 and d >= 1 and set(map(len, a)) == {h}
                   and set(map(len, entries)) == {d} and not hasattr(flat[0], '__len__'))
    except (TypeError, IndexError):     # empty, or a row or entry is no sequence
        regular = False
    if not regular:
        shape = _shape(a)
        square = len(shape) == 2 + poly and shape[1] == shape[0] >= 1 and shape[-1] >= 1
        what = ('matrix datum must be an (h, h, D) tensor with D >= 1' if poly
                else 'constant matrix must be an (h, h) array, h >= 1')
        raise ValueError('a %s, got shape %s%s' % (what, shape, ' with ragged rows' * square))
    data = _field_bytes(flat, cfg.q)
    return _blocks(_blocks(data, d), h) if poly else _blocks(data, h)


def pm_trim(a):
    """Drop trailing all-zero coefficient slices (always keeps one); a
    itself when there is none."""
    n = d = len(a[0][0])
    while d > 1 and not any(e[d - 1] for row in a for e in row):
        d -= 1
    return a if d == n else pm_truncate(a, d)


def pm_truncate(a, n):
    """Reduce mod t^n.  Raises ValueError for n < 1."""
    n, = integers(n)
    if n < 1:
        raise ValueError('truncation order must be >= 1')
    return tuple(tuple(tuple(e[:n]) for e in row) for row in a)


def pm_mul(a, b, cfg: FieldConfig):
    """Exact polynomial matrix product."""
    dc = len(a[0][0]) + len(b[0][0]) - 1
    return tuple(_blocks(row, dc) for row in K.polymat_rows(a, b, len(b[0]), dc, cfg))


def pm_frob(a, cfg: FieldConfig, k: int = 1):
    """Apply the p-power Frobenius k times entrywise (k may be negative)."""
    k, = integers(k)
    table, f = cfg.frobs[0 if k >= 0 else 1], range(cfg.q)
    for _ in range(abs(k) % cfg.r):
        f = [table[x] for x in f]
    return tuple(tuple(tuple(f[c] for c in e) for e in row) for row in a)


def pm_coeff(a, i):
    """The constant matrix of the coefficients of t^i, 0 <= i < D."""
    return tuple(tuple(e[i] for e in row) for row in a)


def pack_matrix(a, lay: K.Packing) -> list:
    """The polynomial matrix a mod t^n as rows of normalised ints of lay."""
    return [[lay.pack(e) for e in row] for row in a]


def solve_mod(a, n, e, cfg: FieldConfig):
    """A·X = t^e·I mod t^n as one block lower-triangular stack reduced by
    one _kernels.rref_rows: (rows, rank).  Unknown l·h + j is row j of X_l
    (X = sum t^l·X_l); row k·h + i reads sum_{l<=k} A_{k-l}[i]·X_l =
    [k = e]·e_i; the h right-hand columns come last, so the system is
    solvable iff no pivot lies among them.  ValueError unless 0 <= e < n."""
    n, e = integers(n, e)
    if not 0 <= e < n:
        raise ValueError('need 0 <= e < n, got e = %d, n = %d' % (e, n))
    h, nh, top = len(a), n * len(a), min(n, len(a[0][0]))
    zero = [0] * (nh + h)
    # row i of A_{n-1}, ..., A_0; row k·h + i starts at its block n-1-k
    backs = [[x[k] for k in range(top - 1, -1, -1) for x in row] for row in a]
    if top < n:
        backs = [zero[:nh - top * h] + back for back in backs]
    stack = [back[s:] + zero[:s + h] for s in range(nh - h, -1, -h) for back in backs]
    for i in range(h):
        stack[e * h + i][nh + i] = 1
    return stack, K.rref_rows(stack, cfg)


def pm_inv_mod(a, n, cfg: FieldConfig):
    """Inverse mod t^n, n coefficients per entry, by solve_mod(a, n, 0):
    the stack, A_0 on its diagonal, reduces to [I | X] exactly when A_0
    is invertible; ValueError otherwise and for n < 1."""
    a = square_rows(a, cfg, poly=True)
    rows, _ = solve_mod(a, n, 0, cfg)
    nh, h = len(rows), len(a)
    if not any(rows[-1][:nh]):
        raise ValueError('singular constant term')
    return tuple(tuple(zip(*[row[nh:] for row in rows[i::h]])) for i in range(h))


def pm_from_element(x):
    """Monomial matrix of an affine element, as (matrix, shift) with the
    matrix holding t^shift times it (so it is polynomial)."""
    h = x.h
    s = max(0, -min(x.lam))
    deg1 = max(x.lam) + s + 1
    a = [[(0,) * deg1] * h for _ in range(h)]
    for j, i in enumerate(x.perm):
        a[i - 1][j] = tuple(int(k == x.lam[i - 1] + s) for k in range(deg1))
    return tuple(map(tuple, a)), s


def pm_char_poly(a, cfg: FieldConfig, n=None):
    """Coefficients of det(X*I - a) as h + 1 tuples cp[x_deg][t_deg];
    mod t^n when n is given, else exact."""
    h = len(a)
    n, = integers(h * (len(a[0][0]) - 1) + 1 if n is None else n)
    lay = cfg.packing(n, h)
    return tuple(tuple(lay.unpack(c)) for c in K.charpoly(pack_matrix(a, lay), lay))
