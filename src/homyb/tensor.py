"""Sparse exact linear algebra over the scalar ring, in packed storage.

A Matrix keeps one map per row from column index to entry and never stores a
zero, so every kernel (products, sums, Kronecker products, comparisons) walks
the nonzero entries only.  It is homyb's one linear-algebra path: structure
maps, operators, axioms and identities are all expressions in `kron`, `flip`,
`leg13`, `@`, `+` and `product_difference`; the coordinate-vector helpers at
the end only build inputs such as basis vectors and u⊗v.

Storage.  An entry is not a Scalar but a packed term map {key: coefficient}.
The key of a term with exponent vector (e_0, …, e_{p−1}) is its signed
Kronecker substitution

    key = Σ e_i·2^(w·i)

for a slot width w shared by the whole matrix.  Coefficients are stored as in
a Scalar: a nonzero int when integral, else a reduced Fraction.  The
substitution is linear, so the key of a product of two terms is the sum of
their keys, and the kernels add and multiply ints and never build, hash or
split an exponent tuple.  A term map is never changed once stored, so
matrices share them freely.

Exactness.  Every matrix carries an exponent bound B: no exponent of any
entry, nor of any partial sum the matrix was accumulated from, exceeds B in
absolute value.  Its slot width is w = max(32, bits of B + 1), so every
exponent satisfies |e_i| < 2^(w−1).  In that range a key decodes uniquely:
the lowest slot holds e_0 + 2^(w−1) (mod 2^w) and, once e_0 is taken off,
the shifted key is the key of the remaining exponents.  A product's bound is
the sum of its operands' bounds (the exponents of a product term are sums of
the operands'); a sum or difference takes the larger bound.  An operation
whose result needs a wider slot than an operand was stored with re-encodes
that operand at the result's width first, so no exponent the scalar ring
accepts is ever refused or wrapped around.

Scalars appear only at the boundary.  Entries from outside -- the
constructor, `from_rows` and `from_cols` -- are checked to lie over the matrix
ParamSet and are encoded there; entries are decoded to Scalars only where
they are read: `[i, j]`, `column`, `data`, `nonzero`, `map` and `repr`.
`apply` goes through `@`.  A product `@` adds each product of two entries
term by term into one packed term map per output entry, and
`product_difference(a, b, c, d)` runs the same accumulation for both products
of a·b − c·d, the second negated, so a residual that vanishes decodes nothing.

Matrices act on coordinate columns, and composition f∘g is the product F·G.
Tensor legs use the flat-index convention: the basis vector e_i⊗e_j of V⊗W
(dim V = n, dim W = m) has index i·m + j, and triple products nest the same
way, so e_i⊗e_j⊗e_k of V⊗W⊗U sits at (i·m + j)·p + k with p = dim U.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DimensionError, ParamMismatchError
from .scalar import Fraction, ParamSet, Scalar

Vector = tuple[Scalar, ...]
Terms = dict[int, "int | Fraction"]
Row = dict[int, Terms]

_MIN_WIDTH = 32


def _check_shape(rows: int, cols: int) -> None:
    if rows <= 0 or cols <= 0:
        raise DimensionError(f"matrix dimensions must be positive, got {rows}x{cols}")


# -- packed keys ------------------------------------------------------------------


def _width(bound: int) -> int:
    """The slot width that holds every exponent of absolute value at most `bound`."""
    return max(_MIN_WIDTH, bound.bit_length() + 1)


def _bound(entries: Iterable[Scalar]) -> int:
    """The largest absolute exponent in the given Scalars."""
    return max((abs(e) for s in entries for exps in s.terms for e in exps), default=0)


def _encode(exps: Sequence[int], width: int) -> int:
    """The key Σ e_i·2^(width·i) of an exponent vector."""
    key = 0
    for e in reversed(exps):
        key = (key << width) + e
    return key


def _decode(key: int, count: int, width: int) -> tuple[int, ...]:
    """The `count` exponents packed in `key`, lowest slot first."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    exps = []
    for _ in range(count):
        e = ((key + half) & mask) - half
        exps.append(e)
        key = (key - e) >> width
    return tuple(exps)


def _pack(s: Scalar, width: int) -> Terms:
    return {_encode(exps, width): c for exps, c in s.terms.items()}


def _rekey(maps: list[Row], count: int, old: int, new: int) -> list[Row]:
    """Row maps encoded at slot width `old`, re-encoded at `new`."""
    def move(terms: Terms) -> Terms:
        return {_encode(_decode(k, count, old), new): c for k, c in terms.items()}

    return [{j: move(t) for j, t in row.items()} for row in maps]


def _product(left: Terms, right: Terms) -> Terms:
    """The product of two nonzero packed term maps, canonical and nonzero."""
    out: Terms = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            key = k1 + k2
            c = c1 * c2
            prev = out.get(key)
            if prev is not None:
                c += prev
                if not c:
                    del out[key]
                    continue
            if c.__class__ is not int and c.denominator == 1:
                c = c.numerator
            out[key] = c
    return out


def _accumulate(acc: dict[int, Terms], row: Row, right: list[Row], negate: bool) -> None:
    """Add the row times the matrix with row maps `right`, or its negation, into `acc`.

    `acc` maps each output column to a packed term map, so the products of one
    output entry are summed without building a Scalar for any of them.  The
    inner loop is that of `_product`, inlined to save a call per pair of
    entries, which costs about as much as the loop on monomial entries.
    """
    for k, left in row.items():
        if negate:
            left = {e: -c for e, c in left.items()}
        for j, rterms in right[k].items():
            terms = acc.get(j)
            if terms is None:
                terms = acc[j] = {}
            for k1, c1 in left.items():
                for k2, c2 in rterms.items():
                    key = k1 + k2
                    c = c1 * c2
                    prev = terms.get(key)
                    if prev is not None:
                        c += prev
                        if not c:
                            del terms[key]
                            continue
                    if c.__class__ is not int and c.denominator == 1:
                        c = c.numerator
                    terms[key] = c


def _nonzero_rows(rows: Iterable[Sequence[Scalar]], params: ParamSet) -> list[dict[int, Scalar]]:
    """The nonzero entries of dense rows, every entry checked to lie over `params`."""
    out = []
    for entries in rows:
        row = {}
        for j, entry in enumerate(entries):
            if entry.params != params:
                raise ParamMismatchError("matrix entries must share the matrix ParamSet")
            if entry.terms:
                row[j] = entry
        out.append(row)
    return out


def _packed(rows: list[dict[int, Scalar]]) -> tuple[list[Row], int]:
    """Row maps of nonzero Scalars as packed row maps, with their exponent bound."""
    bound = _bound(s for row in rows for s in row.values())
    width = _width(bound)
    return [{j: _pack(s, width) for j, s in row.items()} for row in rows], bound


class Matrix:
    """Rectangular sparse matrix of Laurent polynomials sharing one ParamSet."""

    __slots__ = ("rows", "cols", "params", "_maps", "_bound")

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
        self._maps, self._bound = _packed(
            _nonzero_rows((data[i * cols:(i + 1) * cols] for i in range(rows)), params)
        )

    @classmethod
    def _new(
        cls, rows: int, cols: int, params: ParamSet, maps: list[Row], bound: int
    ) -> "Matrix":
        """A matrix over packed row maps of nonzero entries at the width of `bound`."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.params = params
        m._maps = maps
        m._bound = bound
        return m

    def _maps_at(self, width: int) -> list[Row]:
        """The row maps encoded at slot width `width`, at least this matrix's own."""
        own = _width(self._bound)
        if own == width:
            return self._maps
        return _rekey(self._maps, len(self.params), own, width)

    def _scalar(self, terms: Terms) -> Scalar:
        count, width = len(self.params), _width(self._bound)
        return Scalar._new(self.params, {_decode(k, count, width): c for k, c in terms.items()})

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, params: ParamSet, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows in matrix literal")
        _check_shape(r, c)
        return cls._new(r, c, params, *_packed(_nonzero_rows(rows, params)))

    @classmethod
    def identity(cls, n: int, params: ParamSet) -> "Matrix":
        _check_shape(n, n)
        one = {0: 1}
        return cls._new(n, n, params, [{i: one} for i in range(n)], 0)

    @classmethod
    def zeros(cls, rows: int, cols: int, params: ParamSet) -> "Matrix":
        _check_shape(rows, cols)
        return cls._new(rows, cols, params, [{} for _ in range(rows)], 0)

    @classmethod
    def from_cols(cls, params: ParamSet, cols: Iterable[Sequence[Scalar]]) -> "Matrix":
        """The matrix with the given coordinate columns."""
        columns = list(cols)
        height = len(columns[0]) if columns else 0
        if any(len(col) != height for col in columns):
            raise DimensionError("ragged columns in matrix literal")
        _check_shape(height, len(columns))
        rows = [[col[i] for col in columns] for i in range(height)]
        return cls._new(height, len(columns), params, *_packed(_nonzero_rows(rows, params)))

    # -- access ---------------------------------------------------------------

    def _check_column(self, j: int) -> None:
        if not 0 <= j < self.cols:
            raise DimensionError(f"column {j} out of range for {self.cols} columns")

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        if not 0 <= i < self.rows:
            raise DimensionError(f"row {i} out of range for {self.rows} rows")
        self._check_column(j)
        terms = self._maps[i].get(j)
        return Scalar.zero(self.params) if terms is None else self._scalar(terms)

    def column(self, j: int) -> Vector:
        self._check_column(j)
        zero = Scalar.zero(self.params)
        return tuple(zero if j not in row else self._scalar(row[j]) for row in self._maps)

    @property
    def data(self) -> list[Scalar]:
        """All entries, zeros included, as a fresh dense row-major list."""
        zero = Scalar.zero(self.params)
        cols = range(self.cols)
        return [
            zero if j not in row else self._scalar(row[j]) for row in self._maps for j in cols
        ]

    def nonzero(self) -> Iterator[tuple[int, int, Scalar]]:
        """Nonzero entries in row-major order, columns ascending within a row."""
        for i, row in enumerate(self._maps):
            for j in sorted(row):
                yield i, j, self._scalar(row[j])

    def is_zero(self) -> bool:
        return not any(self._maps)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Matrix", same_shape: bool) -> None:
        if self.params != other.params:
            raise ParamMismatchError("matrices over different parameter sets")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _merge(self, other: "Matrix", negate: bool) -> "Matrix":
        """self + other, or self - other when `negate`."""
        self._check(other, same_shape=True)
        bound = max(self._bound, other._bound)
        width = _width(bound)
        maps = []
        for mine, theirs in zip(self._maps_at(width), other._maps_at(width)):
            row = dict(mine)
            for j, b in theirs.items():
                a = row.pop(j, None)
                if negate:
                    b = {k: -c for k, c in b.items()}
                if a is None:
                    row[j] = b
                    continue
                total = dict(a)
                for k, c in b.items():
                    prev = total.get(k)
                    if prev is not None:
                        c += prev
                        if not c:
                            del total[k]
                            continue
                        if c.__class__ is not int and c.denominator == 1:
                            c = c.numerator
                    total[k] = c
                if total:
                    row[j] = total
            maps.append(row)
        return Matrix._new(self.rows, self.cols, self.params, maps, bound)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, negate=False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, negate=True)

    def __neg__(self) -> "Matrix":
        maps = [{j: {k: -c for k, c in t.items()} for j, t in row.items()} for row in self._maps]
        return Matrix._new(self.rows, self.cols, self.params, maps, self._bound)

    def scale(self, c: Scalar | int | Fraction) -> "Matrix":
        if not isinstance(c, Scalar):
            c = Scalar.constant(self.params, c)
        elif c.params != self.params:
            raise ParamMismatchError("scaling factor over a different parameter set")
        if not c.terms:
            return Matrix._new(self.rows, self.cols, self.params, [{} for _ in self._maps], 0)
        bound = self._bound + _bound([c])
        width = _width(bound)
        factor = _pack(c, width)
        maps = [{j: _product(t, factor) for j, t in row.items()} for row in self._maps_at(width)]
        return Matrix._new(self.rows, self.cols, self.params, maps, bound)

    def _check_product(self, other: "Matrix") -> None:
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_product(other)
        bound = self._bound + other._bound
        width = _width(bound)
        right = other._maps_at(width)
        maps = []
        for row in self._maps_at(width):
            acc: dict[int, Terms] = {}
            _accumulate(acc, row, right, negate=False)
            maps.append({j: terms for j, terms in acc.items() if terms})
        return Matrix._new(self.rows, other.cols, self.params, maps, bound)

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
        for row in self._maps:
            out = {j: fn(self._scalar(t)) for j, t in row.items()}
            if any(b.params != params for b in out.values()):
                raise ParamMismatchError("mapped entries must lie over the target ParamSet")
            mapped.append({j: b for j, b in out.items() if b.terms})
        return Matrix._new(self.rows, self.cols, params, *_packed(mapped))

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
        width = _width(max(self._bound, other._bound))
        return self._maps_at(width) == other._maps_at(width)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def product_difference(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """The residual a·b − c·d, accumulated without building either product.

    Both products of an output row go term by term into one packed term map
    per column, the second negated, and only entries that do not cancel are
    kept.  When the two products agree, the result is empty.
    """
    a._check_product(b)
    c._check_product(d)
    a._check(c, same_shape=False)
    if (a.rows, b.cols) != (c.rows, d.cols):
        raise DimensionError(f"shape mismatch: {a.rows}x{b.cols} vs {c.rows}x{d.cols}")
    bound = max(a._bound + b._bound, c._bound + d._bound)
    width = _width(bound)
    b_maps, d_maps = b._maps_at(width), d._maps_at(width)
    maps = []
    for row_a, row_c in zip(a._maps_at(width), c._maps_at(width)):
        acc: dict[int, Terms] = {}
        _accumulate(acc, row_a, b_maps, negate=False)
        _accumulate(acc, row_c, d_maps, negate=True)
        maps.append({j: terms for j, terms in acc.items() if terms})
    return Matrix._new(a.rows, b.cols, a.params, maps, bound)


# -- tensor helpers -------------------------------------------------------------


def pair_index(i: int, j: int, dim_second: int) -> int:
    """Flat index of e_i⊗e_j when the second factor has the given dimension."""
    return i * dim_second + j


def triple_index(i: int, j: int, k: int, dim_second: int, dim_third: int) -> int:
    """Flat index of e_i⊗e_j⊗e_k under the nested pair convention."""
    return (i * dim_second + j) * dim_third + k


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product realizing f⊗g under the flat-index convention.

    kron(A,B)[(i·m+k), (j·m+l)] = A[i,j]·B[k,l]; satisfies the mixed-product
    law kron(A,B)·kron(C,D) = kron(A·C, B·D).
    """
    if a.params != b.params:
        raise ParamMismatchError("kron factors over different parameter sets")
    bound = a._bound + b._bound
    width = _width(bound)
    m = b.cols
    b_maps = b._maps_at(width)
    maps = [
        {j * m + l: _product(at, bt) for j, at in arow.items() for l, bt in brow.items()}
        for arow in a._maps_at(width)
        for brow in b_maps
    ]
    return Matrix._new(a.rows * b.rows, a.cols * m, a.params, maps, bound)


def flip(n: int, m: int, params: ParamSet) -> Matrix:
    """The tensor swap V⊗W → W⊗V on coordinates: e_i⊗e_j ↦ e_j⊗e_i."""
    _check_shape(n, m)
    one = {0: 1}
    # row j·n + i holds the single 1 that picks coordinate i·m + j
    maps = [{i * m + j: one} for j in range(m) for i in range(n)]
    return Matrix._new(n * m, n * m, params, maps, 0)


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
    width = _width(bound)
    mid = alpha_mid.cols
    # each nonzero S[(i,k), c] with c = j·dim_third + p, as ((j, p), terms)
    split = [[(divmod(c, dim_third), st) for c, st in row.items()] for row in s._maps_at(width)]
    mid_maps = alpha_mid._maps_at(width)
    maps = []
    for i in range(dim_first):
        for arow in mid_maps:
            for k in range(dim_third):
                maps.append({
                    (j * mid + l) * dim_third + p: _product(at, st)
                    for (j, p), st in split[i * dim_third + k]
                    for l, at in arow.items()
                })
    rows = dim_first * alpha_mid.rows * dim_third
    return Matrix._new(rows, dim_first * mid * dim_third, s.params, maps, bound)


# -- coordinate-vector inputs -----------------------------------------------------


def zero_vector(n: int, params: ParamSet) -> Vector:
    return (Scalar.zero(params),) * n


def basis_vector(n: int, i: int, params: ParamSet) -> Vector:
    vec = [Scalar.zero(params)] * n
    vec[i] = Scalar.one(params)
    return tuple(vec)


def tensor2(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    """Coordinates of u⊗v: entry p·len(v)+q is u_p·v_q."""
    out: list[Scalar] = []
    for a in u:
        if a.terms:
            out.extend(a * b if b.terms else b for b in v)
        else:
            out.extend([a] * len(v))
    return tuple(out)
