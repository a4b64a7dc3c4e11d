"""Sparse exact linear algebra over the scalar ring.

A Matrix keeps one map per row from column index to Scalar and never stores a
zero, so every kernel (products, sums, Kronecker products, comparisons) walks
the nonzero entries only.  It is homyb's one linear-algebra path: structure
maps, operators, axioms and identities are all expressions in `kron`, `flip`,
`@`, `+` and `product_difference`; the coordinate-vector helpers at the end
only build inputs such as basis vectors and u⊗v.

The product `@` is fused: each product of two entries is added term by term
into one term map per output entry (`scalar.add_product`), and one Scalar is
built per output entry that does not cancel to zero; no Scalar is made for a
single product or a partial sum.  `product_difference(a, b, c, d)` runs the
same accumulation for both products of a·b − c·d, the second negated, into one
term map per output entry, so a residual that vanishes builds no entry Scalar
for either product and needs no subtraction.

Entries that come from outside -- the constructor, `from_rows` and
`from_cols` -- are checked to lie over the matrix ParamSet.  Results computed
here are built over the already-checked entries of their operands and skip
that check.

Matrices act on coordinate columns, and composition f∘g is the product F·G.
Tensor legs use the flat-index convention: the basis vector e_i⊗e_j of V⊗W
(dim V = n, dim W = m) has index i·m + j, and triple products nest the same
way, so e_i⊗e_j⊗e_k of V⊗W⊗U sits at (i·m + j)·p + k with p = dim U.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DimensionError, ParamMismatchError
from .scalar import Fraction, ParamSet, Scalar, add_product

Vector = tuple[Scalar, ...]
Row = dict[int, Scalar]


def _check_shape(rows: int, cols: int) -> None:
    if rows <= 0 or cols <= 0:
        raise DimensionError(f"matrix dimensions must be positive, got {rows}x{cols}")


def _sparse_row(entries: Iterable[Scalar], params: ParamSet) -> Row:
    """The nonzero entries of a dense row, each checked to lie over `params`."""
    row: Row = {}
    for j, entry in enumerate(entries):
        if entry.params != params:
            raise ParamMismatchError("matrix entries must share the matrix ParamSet")
        if entry.terms:
            row[j] = entry
    return row


def _accumulate(acc: dict[int, dict], row: Row, right: list[Row], negate: bool) -> None:
    """Add the row times the matrix with row maps `right`, or its negation, into `acc`.

    `acc` maps each output column to a canonical term map, so the products of
    one output entry are summed without building a Scalar for any of them.
    """
    for k, a in row.items():
        left = a.terms
        if negate:
            left = {e: -c for e, c in left.items()}
        for j, b in right[k].items():
            terms = acc.get(j)
            if terms is None:
                terms = acc[j] = {}
            add_product(terms, left, b.terms)


class Matrix:
    """Rectangular sparse matrix of Scalars sharing one ParamSet."""

    __slots__ = ("rows", "cols", "params", "_maps")

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
        self._maps = [_sparse_row(data[i * cols:(i + 1) * cols], params) for i in range(rows)]

    @classmethod
    def _new(cls, rows: int, cols: int, params: ParamSet, maps: list[Row]) -> "Matrix":
        """A matrix over row maps of checked, nonzero entries; nothing is re-checked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.params = params
        m._maps = maps
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, params: ParamSet, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows in matrix literal")
        _check_shape(r, c)
        return cls._new(r, c, params, [_sparse_row(row, params) for row in rows])

    @classmethod
    def identity(cls, n: int, params: ParamSet) -> "Matrix":
        _check_shape(n, n)
        one = Scalar.one(params)
        return cls._new(n, n, params, [{i: one} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, params: ParamSet) -> "Matrix":
        _check_shape(rows, cols)
        return cls._new(rows, cols, params, [{} for _ in range(rows)])

    @classmethod
    def from_cols(cls, params: ParamSet, cols: Iterable[Sequence[Scalar]]) -> "Matrix":
        """The matrix with the given coordinate columns, read one at a time."""
        maps: list[Row] = []
        count = 0
        for j, col in enumerate(cols):
            if j == 0:
                maps = [{} for _ in col]
            elif len(col) != len(maps):
                raise DimensionError("ragged columns in matrix literal")
            for i, entry in _sparse_row(col, params).items():
                maps[i][j] = entry
            count = j + 1
        _check_shape(len(maps), count)
        return cls._new(len(maps), count, params, maps)

    # -- access ---------------------------------------------------------------

    def _check_column(self, j: int) -> None:
        if not 0 <= j < self.cols:
            raise DimensionError(f"column {j} out of range for {self.cols} columns")

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        if not 0 <= i < self.rows:
            raise DimensionError(f"row {i} out of range for {self.rows} rows")
        self._check_column(j)
        entry = self._maps[i].get(j)
        return Scalar.zero(self.params) if entry is None else entry

    def column(self, j: int) -> Vector:
        self._check_column(j)
        zero = Scalar.zero(self.params)
        return tuple(row.get(j, zero) for row in self._maps)

    @property
    def data(self) -> list[Scalar]:
        """All entries, zeros included, as a fresh dense row-major list."""
        zero = Scalar.zero(self.params)
        cols = range(self.cols)
        return [row.get(j, zero) for row in self._maps for j in cols]

    def nonzero(self) -> Iterator[tuple[int, int, Scalar]]:
        """Nonzero entries in row-major order, columns ascending within a row."""
        for i, row in enumerate(self._maps):
            for j in sorted(row):
                yield i, j, row[j]

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
        maps = []
        for mine, theirs in zip(self._maps, other._maps):
            row = dict(mine)
            for j, b in theirs.items():
                a = row.pop(j, None)
                if a is None:
                    row[j] = -b if negate else b
                else:
                    total = a - b if negate else a + b
                    if total.terms:
                        row[j] = total
            maps.append(row)
        return Matrix._new(self.rows, self.cols, self.params, maps)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, negate=False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, negate=True)

    def __neg__(self) -> "Matrix":
        maps = [{j: -a for j, a in row.items()} for row in self._maps]
        return Matrix._new(self.rows, self.cols, self.params, maps)

    def scale(self, c: Scalar | int | Fraction) -> "Matrix":
        if not isinstance(c, Scalar):
            c = Scalar.constant(self.params, c)
        elif c.params != self.params:
            raise ParamMismatchError("scaling factor over a different parameter set")
        # Laurent polynomials form an integral domain: c·a is zero only when c is
        maps = [{j: c * a for j, a in row.items()} if c.terms else {} for row in self._maps]
        return Matrix._new(self.rows, self.cols, self.params, maps)

    def _check_product(self, other: "Matrix") -> None:
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_product(other)
        params = self.params
        right = other._maps
        new = Scalar._new
        maps = []
        for row in self._maps:
            acc: dict[int, dict] = {}
            _accumulate(acc, row, right, negate=False)
            maps.append({j: new(params, terms) for j, terms in acc.items() if terms})
        return Matrix._new(self.rows, other.cols, params, maps)

    def apply(self, vec: Sequence[Scalar]) -> Vector:
        """Matrix-vector product on a coordinate column."""
        if len(vec) != self.cols:
            raise DimensionError(f"vector of length {len(vec)} against {self.cols} columns")
        zero = Scalar.zero(self.params)
        out = []
        for row in self._maps:
            acc = zero
            for j, a in row.items():
                v = vec[j]
                if v.terms:
                    term = a * v
                    acc = term if acc is zero else acc + term
            out.append(acc)
        return tuple(out)

    # -- entrywise maps ----------------------------------------------------------

    def map(self, fn: Callable[[Scalar], Scalar], params: ParamSet | None = None) -> "Matrix":
        """Apply `fn` entrywise; it must send zero to zero, as only nonzeros are visited."""
        params = params or self.params
        if fn(Scalar.zero(self.params)).terms:
            raise ValueError("Matrix.map needs a function that sends zero to zero")
        maps: list[Row] = []
        for row in self._maps:
            mapped = {j: fn(a) for j, a in row.items()}
            if any(b.params != params for b in mapped.values()):
                raise ParamMismatchError("mapped entries must lie over the target ParamSet")
            maps.append({j: b for j, b in mapped.items() if b.terms})
        return Matrix._new(self.rows, self.cols, params, maps)

    def substitute(self, assignment: Mapping[str, Fraction | int]) -> "Matrix":
        return self.map(lambda s: s.substitute(assignment))

    def extend(self, params: ParamSet) -> "Matrix":
        return self.map(lambda s: s.extend(params), params=params)

    # -- comparison / debug --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and self.params == other.params
            and self._maps == other._maps
        )

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def product_difference(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """The residual a·b − c·d, accumulated without building either product.

    Both products of an output row go term by term into one term map per
    column, the second negated, and a Scalar is built only for an entry that
    does not cancel.  When the two products agree, no entry Scalar is built.
    """
    a._check_product(b)
    c._check_product(d)
    a._check(c, same_shape=False)
    if (a.rows, b.cols) != (c.rows, d.cols):
        raise DimensionError(f"shape mismatch: {a.rows}x{b.cols} vs {c.rows}x{d.cols}")
    params = a.params
    new = Scalar._new
    maps = []
    for row_a, row_c in zip(a._maps, c._maps):
        acc: dict[int, dict] = {}
        _accumulate(acc, row_a, b._maps, negate=False)
        _accumulate(acc, row_c, d._maps, negate=True)
        maps.append({j: new(params, terms) for j, terms in acc.items() if terms})
    return Matrix._new(a.rows, b.cols, params, maps)


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
    m = b.cols
    maps = [
        {j * m + l: av * bv for j, av in arow.items() for l, bv in brow.items()}
        for arow in a._maps
        for brow in b._maps
    ]
    return Matrix._new(a.rows * b.rows, a.cols * m, a.params, maps)


def flip(n: int, m: int, params: ParamSet) -> Matrix:
    """The tensor swap V⊗W → W⊗V on coordinates: e_i⊗e_j ↦ e_j⊗e_i."""
    _check_shape(n, m)
    one = Scalar.one(params)
    # row j·n + i holds the single 1 that picks coordinate i·m + j
    maps = [{i * m + j: one} for j in range(m) for i in range(n)]
    return Matrix._new(n * m, n * m, params, maps)


def leg12(r: Matrix, alpha_third: Matrix) -> Matrix:
    """Embed an operator on V⊗V' as legs 1,2 of V⊗V'⊗V'', twisting leg 3 by alpha."""
    return kron(r, alpha_third)


def leg23(t: Matrix, alpha_first: Matrix) -> Matrix:
    """Embed an operator on V'⊗V'' as legs 2,3 of V⊗V'⊗V'', twisting leg 1 by alpha."""
    return kron(alpha_first, t)


def leg13(s: Matrix, alpha_mid: Matrix, dim_first: int, dim_third: int) -> Matrix:
    """Embed an operator on V⊗V'' as legs 1,3, twisting the middle leg by alpha.

    This is (τ⊗id) ∘ (alpha_mid⊗S) ∘ (τ⊗id) with τ the tensor swap of the
    first two legs, built directly as an index map:
    R[(i,m,k), (j,l,p)] = alpha_mid[m,l]·S[(i,k), (j,p)].
    """
    if s.rows != s.cols or s.rows != dim_first * dim_third or dim_first <= 0:
        raise DimensionError(
            f"leg13 operator must be square of size {dim_first}*{dim_third}, got {s.rows}x{s.cols}"
        )
    if alpha_mid.rows != alpha_mid.cols:
        raise DimensionError(
            f"leg13 twist must be square, got {alpha_mid.rows}x{alpha_mid.cols}"
        )
    if s.params != alpha_mid.params:
        raise ParamMismatchError("leg13 operands over different parameter sets")
    mid = alpha_mid.rows
    # each nonzero S[(i,k), c] with c = j·dim_third + p, as ((j, p), value)
    split = [[(divmod(c, dim_third), sv) for c, sv in row.items()] for row in s._maps]
    maps = []
    for i in range(dim_first):
        for arow in alpha_mid._maps:
            for k in range(dim_third):
                maps.append({
                    (j * mid + l) * dim_third + p: av * sv
                    for (j, p), sv in split[i * dim_third + k]
                    for l, av in arow.items()
                })
    size = dim_first * mid * dim_third
    return Matrix._new(size, size, s.params, maps)


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
