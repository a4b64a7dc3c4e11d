"""Sparse exact linear algebra over the scalar ring, in flat packed rows.

A Matrix keeps one term map per row and never stores a zero, so every kernel
(products, sums, Kronecker products, comparisons) walks the nonzero terms
only.  It is homyb's one linear-algebra path: structure maps, operators,
axioms and identities are all expressions in `kron`, `flip`, `leg13`, `@`,
`combination`, `product_difference` and `permute_rows`; the coordinate-vector
helpers at the end only build inputs such as basis vectors and u⊗v.

Storage.  A row is not a list of Scalars but one flat term map
{key: coefficient} holding every term of every entry in the row.  The key of
the term c·x^e of the entry in column j is a Kronecker substitution whose
lowest, unsigned slot holds the column:

    key = j + E·2^w,    E = Σ e_i·2^(w·i)

for a slot width w shared by the whole matrix.  Coefficients are stored as in
a Scalar: a nonzero int when integral, else a reduced Fraction.  E is linear
in the exponents, so every kernel is one loop over pairs of terms that adds
keys and multiplies coefficients, and never builds, hashes or splits an
exponent tuple or looks up a column.  In a product `@`, a left term k1 lies in
column k = k1 & (2^w − 1) and meets every term k2 of right row k at key
k1 − k + k2.  `kron` and `leg13` first move each factor's columns to their
place in the result, a shift that depends on the column only, and then add
keys.  A term map is never changed once stored, so matrices share them freely.

Exactness.  Every matrix carries an exponent bound B: no exponent of any
entry, nor of any partial sum the matrix was accumulated from, exceeds B in
absolute value.  Its slot width is at least max(8, bits of B + 1, bits of
cols − 1), so every column satisfies 0 ≤ j < 2^w and every exponent
|e_i| < 2^(w−1).  In that range a key decodes uniquely: key & (2^w − 1) is
the column and key >> w is exactly E, whose lowest slot holds
e_0 + 2^(w−1) (mod 2^w); once e_0 is taken off, the shifted E is the
substitution of the remaining exponents.  A product's bound is the sum of its
operands' bounds (the exponents of a product term are sums of the operands');
a sum or difference takes the larger bound.  An operation runs at a width
that holds its result and every operand, and re-encodes an operand stored at
a narrower width first, so no exponent the scalar ring accepts and no column
count is ever refused or wrapped around.

The floor of 8 bits keeps keys short.  CPython stores an int in 30-bit
digits, and every add, hash and dict probe of a kernel pays for each digit
of a key.  A cube of up to 216 columns with small exponent bounds then packs
a key into one digit, or two, where 32-bit slots would take three to five.  A
lower floor saves no digit there and costs re-encoding: below 8 bits an
operand with n columns and one with n³ ≤ 216 columns get different widths,
so a product of the two re-encodes one of them first.

Scalars appear only at the boundary.  Entries from outside -- the
constructor and `from_rows`, which `from_cols` transposes into -- are checked
to lie over the matrix ParamSet and are encoded there.  One decoder,
`_entries`, groups a row's terms by column and turns them into Scalars; every
read goes through it: `[i, j]`, `column`, `data`, `nonzero`, `map` and
`repr`.  `apply` goes through `@`, and `permute_rows` moves stored rows
without reading them.  Each matrix operation is one kernel call over all
of its rows.  `_accumulate` serves `@`; `combination([(c, M), …])`, Σ c·M,
whose cases are `+`, `−`, negation, `scale` and every built operator; and
`product_difference(a, b, c, d)`, which adds both products of a·b − c·d into
one term map per row, the second negated, so a residual that vanishes holds
neither product whole.  It stores a row whose terms all cancel as a fresh {}.
`_products`, the same loop without the column lookup, serves `kron` and
`leg13`.

Matrices act on coordinate columns, and composition f∘g is the product F·G.
Tensor legs use the flat-index convention: the basis vector e_i⊗e_j of V⊗W
(dim V = n, dim W = m) has index i·m + j, and triple products nest the same
way, so e_i⊗e_j⊗e_k of V⊗W⊗U sits at (i·m + j)·p + k with p = dim U.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DimensionError, ParamMismatchError
from .scalar import Fraction, ParamSet, Scalar

Vector = tuple[Scalar, ...]
Terms = dict[int, "int | Fraction"]
Job = tuple[Terms, Terms, Sequence[Terms], bool]  # (acc, row, right rows, negate)

_MIN_WIDTH = 8


def _check_shape(rows: int, cols: int) -> None:
    if rows <= 0 or cols <= 0:
        raise DimensionError(f"matrix dimensions must be positive, got {rows}x{cols}")


# -- packed keys ------------------------------------------------------------------


def _width(bound: int, cols: int, *stored: "Matrix") -> int:
    """The least slot width that holds every exponent of absolute value at most
    `bound`, every column below `cols` and the keys of the `stored` matrices."""
    return max(
        _MIN_WIDTH, bound.bit_length() + 1, (cols - 1).bit_length(), *(m._w for m in stored)
    )


def _bound(entries: Iterable[Scalar]) -> int:
    """The largest absolute exponent in the given Scalars."""
    return max((abs(e) for s in entries for exps in s.terms for e in exps), default=0)


def _encode(exps: Sequence[int], width: int) -> int:
    """The substitution Σ e_i·2^(width·i) of an exponent vector."""
    key = 0
    for e in reversed(exps):
        key = (key << width) + e
    return key


def _decode(key: int, count: int, width: int) -> tuple[int, ...]:
    """The `count` exponents packed in the substitution `key`, lowest slot first."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    exps = []
    for _ in range(count):
        e = ((key + half) & mask) - half
        exps.append(e)
        key = (key - e) >> width
    return tuple(exps)


def _pack(s: Scalar, width: int) -> Terms:
    """The terms of a Scalar as keys of column 0."""
    return {_encode(exps, width) << width: c for exps, c in s.terms.items()}


def _accumulate(rows: list[Terms], jobs: Iterable[Job], mask: int) -> list[Terms]:
    """For each job (acc, row, right, negate), add row × right, or its negation, into
    acc, one of `rows`; returns the rows, each emptied dict (it keeps its table) as {}.

    A term k1 of the row lies in column k = k1 & mask and meets every term k2
    of right row k at key k1 − k + k2, so the products of every output entry
    are summed term by term without building a Scalar.  With mask 0 and
    right = (factor,) the row is added times the packed Scalar `factor`.
    """
    for acc, row, right, negate in jobs:
        for k1, c1 in row.items():
            k = k1 & mask
            k1 -= k
            if negate:
                c1 = -c1
            for k2, c2 in right[k].items():
                key = k1 + k2
                c = c1 * c2
                prev = acc.get(key)
                if prev is not None:
                    c += prev
                    if not c:
                        del acc[key]
                        continue
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                acc[key] = c
    return [acc or {} for acc in rows]


def _products(pairs: Iterable[tuple[Terms, Terms]]) -> list[Terms]:
    """The product of the two packed term maps of each pair, whose keys add."""
    out = []
    for left, right in pairs:
        acc: Terms = {}
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                key = k1 + k2
                c = c1 * c2
                prev = acc.get(key)
                if prev is not None:
                    c += prev
                    if not c:
                        del acc[key]
                        continue
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                acc[key] = c
        out.append(acc)
    return out


def _shifted(rows: list[Terms], width: int, shift: Callable[[int], int]) -> list[Terms]:
    """The rows with each key k moved by shift(column of k)."""
    mask = (1 << width) - 1
    return [{k + shift(k & mask): c for k, c in row.items()} for row in rows]


def _nonzero_rows(rows: Iterable[Sequence[Scalar]], params: ParamSet) -> list[dict[int, Scalar]]:
    """The nonzero entries of dense rows, every entry checked to lie over `params`."""
    out = []
    for entries in rows:
        row = {}
        for j, entry in enumerate(entries):
            if entry.params is not params and entry.params != params:
                raise ParamMismatchError("matrix entries must share the matrix ParamSet")
            if entry.terms:
                row[j] = entry
        out.append(row)
    return out


def _packed(entries: list[dict[int, Scalar]], cols: int) -> tuple[list[Terms], int, int]:
    """Row maps of nonzero Scalars as packed rows, with their exponent bound and
    the least slot width."""
    bound = _bound(s for row in entries for s in row.values())
    width = _width(bound, cols)
    packed = [
        {j + k: c for j, s in row.items() for k, c in _pack(s, width).items()} for row in entries
    ]
    return packed, bound, width


class Matrix:
    """Rectangular sparse matrix of Laurent polynomials sharing one ParamSet."""

    __slots__ = ("rows", "cols", "params", "_rows", "_bound", "_w")

    def __init__(self, rows: int, cols: int, params: ParamSet, data: Sequence[Scalar]):
        _check_shape(rows, cols)
        data = list(data)
        if len(data) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.params = params
        self._rows, self._bound, self._w = _packed(
            _nonzero_rows((data[i * cols:(i + 1) * cols] for i in range(rows)), params), cols
        )

    @classmethod
    def _new(
        cls, rows: int, cols: int, params: ParamSet, packed: list[Terms], bound: int, width: int
    ) -> "Matrix":
        """A matrix over packed rows of nonzero terms at slot width `width`."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.params = params
        m._rows = packed
        m._bound = bound
        m._w = width
        return m

    def _rows_at(self, width: int) -> list[Terms]:
        """The rows encoded at slot width `width`, at least this matrix's own."""
        own = self._w
        if own == width:
            return self._rows
        count, mask = len(self.params), (1 << own) - 1
        return [
            {(k & mask) + (_encode(_decode(k >> own, count, own), width) << width): c
             for k, c in row.items()}
            for row in self._rows
        ]

    def _entries(self, row: Terms) -> dict[int, Scalar]:
        """The nonzero entries of a packed row, by column."""
        w, count = self._w, len(self.params)
        mask = (1 << w) - 1
        grouped: dict[int, dict] = {}
        for k, c in row.items():
            grouped.setdefault(k & mask, {})[_decode(k >> w, count, w)] = c
        return {j: Scalar._new(self.params, terms) for j, terms in grouped.items()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, params: ParamSet, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows in matrix literal")
        _check_shape(r, c)
        return cls._new(r, c, params, *_packed(_nonzero_rows(rows, params), c))

    @classmethod
    def identity(cls, n: int, params: ParamSet) -> "Matrix":
        _check_shape(n, n)
        return cls._new(n, n, params, [{i: 1} for i in range(n)], 0, _width(0, n))

    @classmethod
    def zeros(cls, rows: int, cols: int, params: ParamSet) -> "Matrix":
        _check_shape(rows, cols)
        return cls._new(rows, cols, params, [{} for _ in range(rows)], 0, _width(0, cols))

    @classmethod
    def from_cols(cls, params: ParamSet, cols: Iterable[Sequence[Scalar]]) -> "Matrix":
        """The matrix with the given coordinate columns."""
        columns = list(cols)
        height = len(columns[0]) if columns else 0
        if any(len(col) != height for col in columns):
            raise DimensionError("ragged columns in matrix literal")
        _check_shape(height, len(columns))
        return cls.from_rows(params, [[col[i] for col in columns] for i in range(height)])

    # -- access ---------------------------------------------------------------

    def _check_column(self, j: int) -> None:
        if not 0 <= j < self.cols:
            raise DimensionError(f"column {j} out of range for {self.cols} columns")

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        if not 0 <= i < self.rows:
            raise DimensionError(f"row {i} out of range for {self.rows} rows")
        self._check_column(j)
        return self._entries(self._rows[i]).get(j, Scalar.zero(self.params))

    def column(self, j: int) -> Vector:
        self._check_column(j)
        zero = Scalar.zero(self.params)
        return tuple(self._entries(row).get(j, zero) for row in self._rows)

    @property
    def data(self) -> list[Scalar]:
        """All entries, zeros included, as a fresh dense row-major list."""
        zero = Scalar.zero(self.params)
        out = []
        for row in self._rows:
            entries = self._entries(row)
            out.extend(entries.get(j, zero) for j in range(self.cols))
        return out

    def nonzero(self) -> Iterator[tuple[int, int, Scalar]]:
        """Nonzero entries in row-major order, columns ascending within a row."""
        for i, row in enumerate(self._rows):
            if not row:
                continue
            entries = self._entries(row)
            for j in sorted(entries):
                yield i, j, entries[j]

    def is_zero(self) -> bool:
        return not any(self._rows)

    def term_count(self) -> int:
        """The number of stored terms, summed over every entry; read without decoding."""
        return sum(map(len, self._rows))

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Matrix", same_shape: bool) -> None:
        if self.params is not other.params and self.params != other.params:
            raise ParamMismatchError("matrices over different parameter sets")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        return combination([(1, self), (1, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return combination([(1, self), (-1, other)])

    def __neg__(self) -> "Matrix":
        return combination([(-1, self)])

    def scale(self, c: Scalar | int | Fraction) -> "Matrix":
        return combination([(c, self)])

    def _check_product(self, other: "Matrix") -> None:
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_product(other)
        bound = self._bound + other._bound
        width = _width(bound, other.cols, self, other)
        rows: list[Terms] = [{} for _ in range(self.rows)]
        right = repeat(other._rows_at(width))
        rows = _accumulate(rows, zip(rows, self._rows_at(width), right, repeat(False)), (1 << width) - 1)
        return Matrix._new(self.rows, other.cols, self.params, rows, bound, width)

    def apply(self, vec: Sequence[Scalar]) -> Vector:
        """Matrix-vector product on a coordinate column."""
        if len(vec) != self.cols:
            raise DimensionError(f"vector of length {len(vec)} against {self.cols} columns")
        return (self @ Matrix.from_cols(self.params, [vec])).column(0)

    # -- entrywise maps ----------------------------------------------------------

    def map(self, fn: Callable[[Scalar], Scalar], params: ParamSet | None = None) -> "Matrix":
        """Apply `fn` entrywise; it must send zero to zero, as only nonzeros are visited."""
        params = params or self.params
        if fn(Scalar.zero(self.params)).terms:
            raise ValueError("Matrix.map needs a function that sends zero to zero")
        mapped = []
        for row in self._rows:
            out = {j: fn(s) for j, s in self._entries(row).items()}
            if any(b.params != params for b in out.values()):
                raise ParamMismatchError("mapped entries must lie over the target ParamSet")
            mapped.append({j: b for j, b in out.items() if b.terms})
        return Matrix._new(self.rows, self.cols, params, *_packed(mapped, self.cols))

    def substitute(self, assignment: Mapping[str, Fraction | int]) -> "Matrix":
        return self.map(lambda s: s.substitute(assignment))

    def extend(self, params: ParamSet) -> "Matrix":
        return self.map(lambda s: s.extend(params), params=params)

    # -- comparison / debug --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols) or self.params != other.params:
            return False
        width = _width(0, self.cols, self, other)
        return self._rows_at(width) == other._rows_at(width)

    def __repr__(self) -> str:
        data, cols = [str(s) for s in self.data], self.cols
        body = "; ".join(", ".join(data[i:i + cols]) for i in range(0, len(data), cols))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def product_difference(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """The residual a·b − c·d, accumulated without building either product.

    Both products of an output row go term by term into one packed term map,
    the second negated and right after the first, and only terms that do not
    cancel are kept.  When the
    two products agree, the result is empty.
    """
    a._check_product(b)
    c._check_product(d)
    a._check(c, same_shape=False)
    if (a.rows, b.cols) != (c.rows, d.cols):
        raise DimensionError(f"shape mismatch: {a.rows}x{b.cols} vs {c.rows}x{d.cols}")
    bound = max(a._bound + b._bound, c._bound + d._bound)
    width = _width(bound, b.cols, a, b, c, d)
    b_rows, d_rows = b._rows_at(width), d._rows_at(width)
    rows: list[Terms] = [{} for _ in range(a.rows)]
    jobs = (job for acc, row_a, row_c in zip(rows, a._rows_at(width), c._rows_at(width))
            for job in ((acc, row_a, b_rows, False), (acc, row_c, d_rows, True)))
    return Matrix._new(a.rows, b.cols, a.params, _accumulate(rows, jobs, (1 << width) - 1), bound, width)


def combination(terms: Sequence[tuple[Scalar | int | Fraction, Matrix]]) -> Matrix:
    """Σ c·M over a non-empty list of (c, M), matrices of one shape, in one kernel call.

    Each row of M meets the packed terms of c as a one-column right factor, at
    mask 0; the bound is the largest bound(c) + bound(M) over the nonzero c.
    """
    first, legs = terms[0][1], []
    for c, m in terms:
        first._check(m, same_shape=True)
        if not isinstance(c, Scalar):
            c = Scalar.constant(first.params, c)
        elif c.params != first.params:
            raise ParamMismatchError("scaling factor over a different parameter set")
        if c.terms:
            legs.append((c, m))
    bound = max((m._bound + _bound([c]) for c, m in legs), default=0)
    width = _width(bound, first.cols, *(m for _, m in legs))
    rows: list[Terms] = [{} for _ in range(first.rows)]
    factors = [((_pack(c, width),), m._rows_at(width)) for c, m in legs]
    jobs = chain.from_iterable(zip(rows, m_rows, repeat(right), repeat(False)) for right, m_rows in factors)
    return Matrix._new(first.rows, first.cols, first.params, _accumulate(rows, jobs, 0), bound, width)


# -- tensor helpers -------------------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product realizing f⊗g under the flat-index convention.

    kron(A,B)[(i·m+k), (j·m+l)] = A[i,j]·B[k,l]; satisfies the mixed-product
    law kron(A,B)·kron(C,D) = kron(A·C, B·D).
    """
    if a.params != b.params:
        raise ParamMismatchError("kron factors over different parameter sets")
    bound = a._bound + b._bound
    m = b.cols
    width = _width(bound, a.cols * m, a, b)
    # a term of A[i,j] moves to column j·m, so adding the key of B[k,l] lands on j·m + l
    a_rows = _shifted(a._rows_at(width), width, lambda j: j * (m - 1))
    b_rows = b._rows_at(width)
    rows = _products((arow, brow) for arow in a_rows for brow in b_rows)
    return Matrix._new(a.rows * b.rows, a.cols * m, a.params, rows, bound, width)


def flip(n: int, m: int, params: ParamSet) -> Matrix:
    """The tensor swap V⊗W → W⊗V on coordinates: e_i⊗e_j ↦ e_j⊗e_i."""
    _check_shape(n, m)
    # row j·n + i holds the single 1 that picks coordinate i·m + j
    rows = [{i * m + j: 1} for j in range(m) for i in range(n)]
    return Matrix._new(n * m, n * m, params, rows, 0, _width(0, n * m))


def permute_rows(m: Matrix, order: Sequence[int]) -> Matrix:
    """The matrix whose row i is row order[i] of m: the stored rows are moved,
    never copied or changed, so a permutation of rows costs no arithmetic."""
    if sorted(order) != list(range(m.rows)):
        raise DimensionError(f"row order must permute the {m.rows} rows")
    rows = m._rows
    return Matrix._new(m.rows, m.cols, m.params, [rows[i] for i in order], m._bound, m._w)


def leg12(r: Matrix, alpha_third: Matrix) -> Matrix:
    """Embed an operator on V⊗V' as legs 1,2 of V⊗V'⊗V'', twisting leg 3 by alpha."""
    return kron(r, alpha_third)


def leg23(t: Matrix, alpha_first: Matrix) -> Matrix:
    """Embed an operator on V'⊗V'' as legs 2,3 of V⊗V'⊗V'', twisting leg 1 by alpha."""
    return kron(alpha_first, t)


def leg13(s: Matrix, alpha_mid: Matrix, dim_first: int, dim_third: int) -> Matrix:
    """Embed an operator on V⊗V'' as legs 1,3, with a map on the middle leg.

    This is (τ⊗id) ∘ (alpha_mid⊗S) ∘ (τ⊗id) with τ the tensor swap of the
    first two legs, built directly as an index map:
    R[(i,m,k), (j,l,p)] = alpha_mid[m,l]·S[(i,k), (j,p)].  The middle map may
    be rectangular, from V' to V'''; then R maps V⊗V'⊗V'' to V⊗V'''⊗V''.
    """
    if s.rows != s.cols or s.rows != dim_first * dim_third or dim_first <= 0:
        raise DimensionError(
            f"leg13 operator must be square of size {dim_first}*{dim_third}, got {s.rows}x{s.cols}"
        )
    if s.params != alpha_mid.params:
        raise ParamMismatchError("leg13 operands over different parameter sets")
    bound = s._bound + alpha_mid._bound
    mid = alpha_mid.cols
    cols = dim_first * mid * dim_third
    width = _width(bound, cols, s, alpha_mid)
    # S's column j·d₃ + p moves to j·mid·d₃ + p and alpha's column l to l·d₃,
    # so adding the two keys lands on (j·mid + l)·d₃ + p
    s_rows = _shifted(s._rows_at(width), width, lambda c: c // dim_third * dim_third * (mid - 1))
    mid_rows = _shifted(alpha_mid._rows_at(width), width, lambda l: l * (dim_third - 1))
    rows = _products(
        (s_rows[i * dim_third + k], arow)
        for i in range(dim_first)
        for arow in mid_rows
        for k in range(dim_third)
    )
    return Matrix._new(dim_first * alpha_mid.rows * dim_third, cols, s.params, rows, bound, width)


# -- coordinate-vector inputs -----------------------------------------------------


def tensor2(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    """Coordinates of u⊗v: entry p·len(v)+q is u_p·v_q."""
    return tuple(a * b for a in u for b in v)
