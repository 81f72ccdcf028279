"""Hot numerical kernels: finite-field linear algebra and packed power
series.

Field elements are indices into the tables of a field cfg (shtuka.gf):
ADD and MUL are (q, q), NEG and INV (q,).

The list kernels matmul_rows, rref_rows and polymat_rows do the finite-
field work on Python lists of rows: each reads the tables from
``cfg.tables``, tuples of ints the field builds once, not on every call
(``MUL[c]`` is the row of multiples of c), makes each row operation one
list comprehension and skips zero multipliers.  rref_rows reduces its
list in place and replaces rows without writing into them, so rows may
be tuples; the shapes a list cannot carry (no rows, no columns) are
passed as counts.  The oracle and the orbit count call them directly.
Their matrices are small (a residue module's preimage stack has at most
2h columns, a lattice key's span h·n), and at those sizes numpy's
per-call dispatch costs more than the arithmetic (README, Performance).

charpoly and series_matmul work on truncated power series over F_q
packed into Python ints (Packing): a series product is one int
multiply, sums of products accumulate unreduced, and one reduction per
entry truncates, folds and takes every digit mod p (Kronecker
substitution; Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symb. Comput. 2009).  tests/test_kernels.py
checks every list kernel against plain loop forms, and charpoly against
a division-free DP over row subsets and a Hessenberg reduction on lists
of coefficients.  A field keeps its Packings (FieldConfig.packing), so a
caller does not rebuild them.
"""

import operator

# Recorded in the environment line of perfbench/run.py; always False.
USE_NUMBA = HAVE_NUMBA = False


def matmul_rows(a, b, m, cfg):
    """a·b for a, b lists of rows of field indices, b with m columns; a
    new list of rows."""
    ADD, MUL = cfg.tables[:2]
    out = []
    for arow in a:
        acc = [0] * m
        for c, brow in zip(arow, b):
            if c:
                mc = MUL[c]
                acc = [ADD[x][mc[y]] for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def rref_rows(m, cfg):
    """Bring the list of rows m (sequences of field indices, all of one
    length) to full reduced row echelon form in place; returns the rank.
    Rows are replaced, never written into, so they may be tuples."""
    ADD, MUL, NEG, INV = cfg.tables
    nrows = len(m)
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == nrows:
            break
        for p in range(r, nrows):
            if m[p][c]:
                break
        else:
            continue
        row = m[p]
        m[p] = m[r]
        if row[c] != 1:
            ms = MUL[INV[row[c]]]
            row = [ms[y] for y in row]
        m[r] = row
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                mf = MUL[NEG[f]]
                m[i] = [ADD[x][mf[y]] for x, y in zip(m[i], row)]
        r += 1
    return r


def polymat_rows(a, b, m, dc, cfg):
    """The product of polynomial matrices a (n rows of k coefficient
    sequences, t^0 first) and b (k rows of m coefficient sequences, all of
    one length db), with dc coefficients per product entry (at least
    da+db-1); n flat rows of m blocks of dc coefficients.

    Row l of b is laid out as one flat list of its m entries, each padded
    with zeros to dc coefficients.  The product of a[i][l][s]·t^s with
    that row is then the row shifted by s: one comprehension per nonzero
    coefficient of a, and the zeros keep each block's shifted
    coefficients inside the block.
    """
    ADD, MUL = cfg.tables[:2]
    pad = (0,) * (dc - len(b[0][0])) if len(b) and len(b[0]) else ()
    flat = [[y for poly in brow for y in (*poly, *pad)] for brow in b]
    out = []
    for arow in a:
        acc = [0] * (m * dc)
        for apoly, brow in zip(arow, flat):
            for s, c in enumerate(apoly):
                if c:
                    mc = MUL[c]
                    acc[s:] = [ADD[x][mc[y]] for x, y in zip(acc[s:], brow)]
        out.append(acc)
    return out


# The array wrappers: int64 arrays in and out of the list kernels.  No
# caller in src/; kept while perfbench/tracer.py (KERNELS) wraps them.

def _array(rows, shape):
    # reshape keeps the shape of inputs with a zero-length axis; the callers
    # hand in ndarrays, so numpy is loaded already
    import numpy as np
    return np.array(rows, dtype=np.int64).reshape(shape)


def gf_matmul(a, b, cfg):
    n, m = a.shape[0], b.shape[1]
    return _array(matmul_rows(a.tolist(), b.tolist(), m, cfg), (n, m))


def gf_rref(mat, cfg):
    """Full reduced row echelon form; returns (reduced copy, rank)."""
    m = mat.tolist()
    r = rref_rows(m, cfg)
    return _array(m, mat.shape), r


def gf_conv2(a, b, cfg):
    """2D polynomial product; 1D is the (1, n) special case.

    Each operand, its rows padded to w = ay+by-1 and laid end to end, is
    one polynomial with row i at i·w, and so is their product
    (polymat_rows on 1 x 1 matrices): a product of two rows has w
    coefficients, so none reaches into the next row.
    """
    ax, ay = a.shape
    bx, by = b.shape
    w = ay + by - 1
    fa, fb = ([y for row in x.tolist() for y in row + [0] * (w - len(row))] for x in (a, b))
    out = polymat_rows([[fa]], [[fb]], 1, len(fa) + len(fb) - 1, cfg)[0]
    return _array(out[:(ax + bx - 1) * w], (ax + bx - 1, w))


def polymat_mul(a, b, cfg):
    """(n, k, da) x (k, m, db) -> (n, m, da+db-1) coefficient tensors."""
    n, m = a.shape[0], b.shape[1]
    dc = a.shape[2] + b.shape[2] - 1
    return _array(polymat_rows(a.tolist(), b.tolist(), m, dc, cfg), (n, m, dc))


class Packing:
    r"""F_q[t]/t^n, F_q = cfg (shtuka.gf), q = p^r, with each truncated
    series one Python int; n and terms must be at least 1.

    A coefficient c in F_q has the base-p digits c_0..c_{r-1} of its field
    index, its coordinates against x^j (shtuka.gf).  Digit j of the
    coefficient of t^s sits in slot s·S + j, W bits wide, with S = 2r - 1
    slots per t-block.  An int is normalised when every slot of planes
    j < r holds a digit < p and every other slot, and every block from n
    on, is 0.  The product of two normalised ints is one multiply: slot
    (s, j) of it sums at most n·r digit products, and j <= 2r - 2 < S, so
    no slot reaches into the next t-block.

    red(x) normalises a sum x of at most ``terms`` such products, each
    possibly times p - 1 (a negation), plus at most one normalised int
    (charpoly's coefficient; series_matmul and iwahori_class_of add none).
    Every slot of x is then at most V0 = (p-1) + terms·n·r·(p-1)^3.  In
    order, red
      - truncates: keeps the first n t-blocks (no slot has carried, so
        this is reduction mod t^n);
      - folds each plane j = r..2r-2 onto planes 0..r-1 by the digits of
        x^j, read from the field's multiplication (x^j = x^(r-1)·x^(j-r+1),
        both of index a power of p): one shift, mask and multiply per
        plane.  A fold adds only to planes below r, which no later fold
        reads, and adds at most (p-1)·V0 to each, so every slot stays at
        most V = V0·(1 + (r-1)(p-1)) < 2^N;
      - takes every slot mod p at once, x - p·(((x·M) >> K) & LOW), with
        K = N + bitlen(p), M = ceil(2^K / p) and W = K + N.
    The last step is exact for every slot value 0 <= v < 2^N.  With
    M = (2^K + e)/p, 0 <= e < p, v·M/2^K = v/p + v·e/(p·2^K), and the
    error is below 2^(N-K) = 2^-bitlen(p) < 1/p while v/p is at most
    (p-1)/p above its floor, so floor(v·M/2^K) = floor(v/p).  Since
    v·M < 2^N·(2^K/p + 1) <= 2^W, no slot of x·M carries into the next.
    After the shift by K, slot i holds floor(v_i/p) < 2^N in its low bits
    and the bits of slot i+1 start at bit W - K = N, so LOW, the low N
    bits of every slot, drops them, and subtracting p·floor(v_i/p)
    borrows from no slot.  W = K + N is tight: one bit less puts bit 0
    of the next slot's product inside LOW.

    On a normalised int the valuation is the block of the lowest set
    bit, division by t^v is a right shift by v blocks, and the digits of
    every slot are what unpack reads.
    """

    def __init__(self, cfg, n, terms):
        if n < 1 or terms < 1:
            raise ValueError('a Packing needs n >= 1 and terms >= 1, got n = %r, terms = %r'
                             % (n, terms))
        p, r = cfg.p, cfg.r
        S = 2 * r - 1
        v0 = p - 1 + terms * n * r * (p - 1) ** 3
        N = (v0 * (1 + (r - 1) * (p - 1))).bit_length()
        K = N + p.bit_length()
        W = K + N
        B = S * W
        self.p, self.r, self.n, self.terms, self.W, self.block = p, r, n, terms, W, B
        self._digit = (1 << p.bit_length()) - 1
        self._pack = [0]        # digit j of e in slot j of _pack[e], one digit per pass
        for j in range(r):
            self._pack = [x + (d << j * W) for d in range(p) for x in self._pack]
        trunc = (1 << n * B) - 1
        plane = trunc // ((1 << B) - 1) * ((1 << W) - 1)                 # slot 0 of each block
        low = trunc // ((1 << W) - 1) * ((1 << N) - 1)                   # low N bits of each slot
        M = -(-(1 << K) // p)
        folds = [(j * W, self._pack[cfg.tables[1][p ** (r - 1)][p ** (j - r + 1)]] - (1 << j * W))
                 for j in range(r, 2 * r - 1)]

        def red(x):
            x &= trunc
            for shift, c in folds:
                x += ((x >> shift) & plane) * c
            return x - p * (((x * M) >> K) & low)

        self.red = red

    def val(self, x):
        """Valuation of a normalised int; n for 0."""
        return ((x & -x).bit_length() - 1) // self.block if x else self.n

    def pack(self, coeffs):
        """The normalised int of a series given by its field indices (t^0
        first), mod t^n."""
        P, B = self._pack, self.block
        x = 0
        for c in reversed(coeffs[:self.n]):
            x = (x << B) | P[c]
        return x

    def _index(self, x):
        # field index of the coefficient of t^0
        e = 0
        for j in range(self.r - 1, -1, -1):
            e = e * self.p + ((x >> j * self.W) & self._digit)
        return e

    def unpack(self, x):
        """The n field indices of a normalised int, t^0 first."""
        return [self._index(x >> s * self.block) for s in range(self.n)]


def series_matmul(x, y, lay):
    """x·y mod t^n for matrices (lists of rows) of normalised ints of the
    Packing lay.  Each entry is a sum of len(y) products reduced once, so
    lay.terms must be at least len(y)."""
    if len(y) > lay.terms:
        raise ValueError('a Packing with terms = %d cannot hold %d products' % (lay.terms, len(y)))
    red = lay.red
    cols = list(zip(*y))
    return [[red(sum(map(operator.mul, row, col))) for col in cols] for row in x]


def charpoly(m, lay):
    """det(X·I - m) mod t^n for an h x h matrix m (lists of rows) of
    normalised ints of the Packing lay, whose ``terms`` is at least h; the
    h+1 coefficients as normalised ints, X^0 first.

    Berkowitz's recurrence (Inform. Process. Lett. 18, 1984) uses ring
    operations only, so it is exact over O/t^n, O = k[[t]], with no
    pivot or inverse.  For m = [[a, R], [C, M]], a the corner entry, the
    characteristic polynomial of m, coefficients from X^k down, is the
    (k+2) x (k+1) lower triangular Toeplitz matrix with first column
    (1, -a, -R·C, -R·M·C, ..., -R·M^(k-1)·C) times that of the k x k
    block M.  The blocks are taken from the bottom right corner up, in
    O(h^4) series products.  Each entry of M^j·C, each R·M^j·C and each
    coefficient is a sum of at most h products, reduced once; a
    coefficient is one normalised int plus its products, each negated.
    """
    red, neg1 = lay.red, lay.p - 1
    mul = operator.mul
    h = len(m)
    if h > lay.terms:
        raise ValueError('a %d x %d matrix needs a Packing with terms >= %d' % (h, h, h))
    poly = [1]          # of the k x k block M, from X^k down
    for k in range(h):
        i = h - 1 - k
        R = m[i][i + 1:]
        M = [row[i + 1:] for row in m[i + 1:]]
        v = [row[i] for row in m[i + 1:]]
        col = [m[i][i]]     # a, R·C, R·M·C, ..., R·M^(k-1)·C
        for j in range(k):
            if j:
                v = [red(sum(map(mul, row, v))) for row in M]
            col.append(red(sum(map(mul, R, v))))
        col.reverse()       # row l of the Toeplitz matrix is 1 and -col[k+1-l:]
        poly = [red(x + neg1 * sum(map(mul, col[k + 1 - l:], poly)))
                for l, x in enumerate(poly + [0])]
    return poly[::-1]
