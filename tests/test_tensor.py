"""Matrices, Kronecker products, the flip operator and leg embeddings."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homyb import (
    DimensionError,
    Matrix,
    ParamMismatchError,
    ParamSet,
    Scalar,
    flip,
    kron,
    leg12,
    leg13,
    leg23,
    parse_scalar,
    product_difference,
    tensor2,
)
from homyb.tensor import _bound, combination
from conftest import COEFFICIENTS, PS2, PS3, is_canonical, random_assignment, scalars, square_matrices


def S(text, params=PS3):
    return parse_scalar(text, params)


def mat(rows, params=PS3):
    return Matrix.from_rows(params, [[S(x, params) for x in row] for row in rows])


class TestMatrixOps:
    def test_identity_law(self):
        m = mat([["lam", "2", "nu"], ["0", "l^2", "1"], ["nu - lam", "0", "3"]])
        assert Matrix.identity(3, PS3) @ m == m
        assert m @ Matrix.identity(3, PS3) == m

    def test_sub_self_is_zero(self):
        m = mat([["lam", "1"], ["l", "nu"]])
        assert (m - m).is_zero()

    def test_hand_multiplied_product(self):
        swap = mat([["0", "1"], ["1", "0"]])
        diag = mat([["lam", "0"], ["0", "nu"]])
        assert swap @ diag == mat([["0", "nu"], ["lam", "0"]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat([["1", "0"], ["0", "1"]]) @ Matrix.identity(3, PS3)

    def test_param_mismatch(self):
        with pytest.raises(ParamMismatchError):
            Matrix.identity(2, PS3) @ Matrix.identity(2, PS2)

    def test_scale(self):
        m = mat([["1", "nu"], ["lam", "0"]])
        assert m.scale(S("l")) == mat([["l", "l*nu"], ["l*lam", "0"]])
        assert m.scale(0).is_zero()

    def test_entries_that_cancel_are_not_stored(self):
        row = mat([["lam", "lam"]])
        assert (row @ mat([["1"], ["-1"]])).is_zero()
        assert list((row @ mat([["1"], ["-1"]])).nonzero()) == []
        product = mat([["lam", "1"], ["nu", "0"]]) @ mat([["1", "nu"], ["1 - lam", "-lam*nu"]])
        assert list(product.nonzero()) == [(0, 0, S("1")), (1, 0, S("nu")), (1, 1, S("nu^2"))]

    def test_map_visits_nonzeros_and_needs_zero_kept(self):
        m = mat([["1", "nu"], ["lam", "0"]])
        assert m.substitute({"nu": 0}) == mat([["1", "0"], ["lam", "0"]])
        with pytest.raises(ValueError):
            m.map(lambda s: s + 1)


class TestKron:
    def test_identity_kron_identity(self):
        got = kron(Matrix.identity(2, PS3), Matrix.identity(3, PS3))
        assert got == Matrix.identity(6, PS3)

    def test_twist_square_of_diagonal(self):
        # alpha = diag(1, 1, l) tensored with itself, expanded by hand
        alpha = mat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "l"]])
        got = kron(alpha, alpha)
        expected_diag = ["1", "1", "l", "1", "1", "l", "l", "l", "l^2"]
        for i in range(9):
            for j in range(9):
                want = S(expected_diag[i]) if i == j else S("0")
                assert got[i, j] == want

    @settings(max_examples=40)
    @given(square_matrices(), square_matrices(), square_matrices(), square_matrices())
    def test_mixed_product_law(self, a, b, c, d):
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    vectors = st.lists(st.one_of(st.just(Scalar.zero(PS2)), scalars()), min_size=1, max_size=4)

    @settings(max_examples=60)
    @given(vectors, vectors)
    def test_tensor2_is_the_kron_of_the_columns(self, u, v):
        def column(vec):
            return Matrix.from_cols(PS2, [vec])

        assert tensor2(u, v) == kron(column(u), column(v)).column(0)


class TestFlip:
    def test_flip_with_trivial_factor(self):
        assert flip(1, 4, PS2) == Matrix.identity(4, PS2)
        assert flip(4, 1, PS2) == Matrix.identity(4, PS2)

    def test_flip_2_2_is_the_swap_permutation(self):
        got = flip(2, 2, PS2)
        perm = {0: 0, 1: 2, 2: 1, 3: 3}
        for j, i in perm.items():
            assert got[i, j] == 1

    def test_rectangular_flips_compose_to_identity(self):
        assert flip(2, 3, PS2) @ flip(3, 2, PS2) == Matrix.identity(6, PS2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_square_flip_is_an_involution(self, n):
        f = flip(n, n, PS2)
        assert f @ f == Matrix.identity(n * n, PS2)


class TestLegEmbeddings:
    def test_identity_embeddings_give_identity_cube(self):
        n = 2
        i_n = Matrix.identity(n, PS2)
        i_nn = Matrix.identity(n * n, PS2)
        i_cube = Matrix.identity(n ** 3, PS2)
        assert leg12(i_nn, i_n) == i_cube
        assert leg23(i_nn, i_n) == i_cube
        assert leg13(i_nn, i_n, n, n) == i_cube

    def test_leg13_with_flip_reverses_outer_legs(self):
        # traced on all 8 basis vectors: e_i⊗e_j⊗e_k -> e_k⊗e_j⊗e_i
        n = 2
        got = leg13(flip(n, n, PS2), Matrix.identity(n, PS2), n, n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    src = (i * n + j) * n + k
                    dst = (k * n + j) * n + i
                    col = got.column(src)
                    assert col[dst] == 1
                    assert sum(1 for s in col if s.terms) == 1

    def test_leg23_acts_on_last_two_legs(self):
        t = mat([["0", "lam", "0", "0"], ["1", "0", "0", "0"],
                 ["0", "0", "nu", "0"], ["0", "0", "0", "1"]])
        alpha = mat([["1", "0"], ["0", "l"]])
        got = leg23(t, alpha)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    src = (i * 2 + j) * 2 + k
                    expected = tensor2(alpha.column(i), t.column(j * 2 + k))
                    assert got.column(src) == tuple(expected)

    def test_leg13_rejects_wrong_size(self):
        with pytest.raises(DimensionError):
            leg13(Matrix.identity(3, PS2), Matrix.identity(2, PS2), 2, 2)


class TestEvaluationCommutes:
    @settings(max_examples=30)
    @given(square_matrices(3), square_matrices(3))
    def test_evaluate_then_multiply_is_multiply_then_evaluate(self, a, b):
        point = random_assignment(PS2, random.Random(7))
        lhs = (a @ b).substitute(point)
        rhs = a.substitute(point) @ b.substitute(point)
        assert lhs == rhs


class TestBounds:
    def test_entry_indices_out_of_range_raise(self):
        m = mat([["1", "lam"], ["nu", "l"]])
        for key in [(0, 2), (1, -1), (2, 0), (-1, 0)]:
            with pytest.raises(DimensionError):
                m[key]
        assert m[1, 1] == S("l")

    def test_column_index_out_of_range_raises(self):
        m = mat([["1", "lam"], ["nu", "l"]])
        for j in (2, -1):
            with pytest.raises(DimensionError):
                m.column(j)
        assert m.column(1) == (S("lam"), S("l"))


# -- the sparse kernels against a naive dense reference -----------------------------


def sparse_matrices(rows, cols, params=PS2):
    """Matrices of the given shape whose entries are mostly zero."""
    zero = Scalar.zero(params)
    entry = st.one_of(st.just(zero), st.just(zero), scalars(params, max_terms=2, exp_range=2))
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
        lambda data: Matrix(rows, cols, params, data)
    )


def dense(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def reference_matmul(a, b):
    """The product as dense rows of {exponents: Fraction} maps, in plain dict arithmetic."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = {}
            for k in range(a.cols):
                for e1, c1 in a[i, k].terms.items():
                    for e2, c2 in b[k, j].terms.items():
                        exps = tuple(x + y for x, y in zip(e1, e2))
                        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(c1) * Fraction(c2)
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


def reference_kron(a, b):
    out = [[None] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = a[i, j] * b[k, l]
    return out


def leg13_by_swaps(s, alpha_mid, dim_first, dim_third):
    """(τ⊗id) ∘ (alpha_mid⊗S) ∘ (τ⊗id), with τ the swap of the first two legs."""
    params = s.params
    mid = alpha_mid.rows
    ident3 = Matrix.identity(dim_third, params)
    swap_in = kron(flip(dim_first, mid, params), ident3)
    swap_out = kron(flip(mid, dim_first, params), ident3)
    return swap_out @ kron(alpha_mid, s) @ swap_in


dims = st.integers(1, 3)


class TestSparseKernelsAgainstDense:
    @settings(max_examples=60)
    @given(st.data(), dims, dims, dims)
    def test_matmul(self, data, rows, inner, cols):
        a = data.draw(sparse_matrices(rows, inner))
        b = data.draw(sparse_matrices(inner, cols))
        assert [[x.terms for x in row] for row in dense(a @ b)] == reference_matmul(a, b)

    @settings(max_examples=60)
    @given(st.data(), dims, dims, dims, dims)
    def test_kron(self, data, r1, c1, r2, c2):
        a = data.draw(sparse_matrices(r1, c1))
        b = data.draw(sparse_matrices(r2, c2))
        assert dense(kron(a, b)) == reference_kron(a, b)

    @settings(max_examples=60)
    @given(st.data(), dims, dims)
    def test_add_and_sub(self, data, rows, cols):
        a = data.draw(sparse_matrices(rows, cols))
        b = data.draw(sparse_matrices(rows, cols))
        assert dense(a + b) == [[x + y for x, y in zip(r, q)] for r, q in zip(dense(a), dense(b))]
        assert dense(a - b) == [[x - y for x, y in zip(r, q)] for r, q in zip(dense(a), dense(b))]
        assert (a - a).is_zero() and a + (-a) == Matrix.zeros(rows, cols, PS2)

    @settings(max_examples=40)
    @given(st.data(), dims, dims, dims)
    def test_leg13_matches_the_swap_construction(self, data, dim_first, mid, dim_third):
        s = data.draw(sparse_matrices(dim_first * dim_third, dim_first * dim_third))
        alpha = data.draw(sparse_matrices(mid, mid))
        assert leg13(s, alpha, dim_first, dim_third) == leg13_by_swaps(s, alpha, dim_first, dim_third)

    @settings(max_examples=40)
    @given(st.data(), dims, dims)
    def test_nonzero_is_row_major_with_ascending_columns(self, data, rows, cols):
        a = data.draw(sparse_matrices(rows, cols))
        b = data.draw(sparse_matrices(rows, cols))
        c = data.draw(sparse_matrices(cols, cols))
        # a permutation sends column k to perm[k], so a @ p fills its columns out of order
        perm = data.draw(st.permutations(range(cols)))
        p = Matrix.from_rows(PS2, [Matrix.identity(cols, PS2).column(perm[k]) for k in range(cols)])
        for m in (a, b - a, (a + b) @ c, a @ p):
            expected = [
                (i, j, m[i, j]) for i in range(m.rows) for j in range(m.cols) if m[i, j].terms
            ]
            assert list(m.nonzero()) == expected

    @settings(max_examples=40)
    @given(st.data(), dims, dims)
    def test_dense_data_round_trips(self, data, rows, cols):
        a = data.draw(sparse_matrices(rows, cols))
        assert Matrix(rows, cols, PS2, a.data) == a
        assert Matrix.from_rows(PS2, dense(a)) == a
        assert Matrix.from_cols(PS2, [a.column(j) for j in range(cols)]) == a

    @settings(max_examples=40)
    @given(st.data(), dims, dims, st.booleans())
    def test_an_entry_over_a_foreign_param_set_raises(self, data, rows, cols, zero):
        entries = data.draw(sparse_matrices(rows, cols)).data
        where = data.draw(st.integers(0, rows * cols - 1))
        entries[where] = Scalar.zero(PS3) if zero else Scalar.one(PS3)
        table = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
        with pytest.raises(ParamMismatchError):
            Matrix(rows, cols, PS2, entries)
        with pytest.raises(ParamMismatchError):
            Matrix.from_rows(PS2, table)
        with pytest.raises(ParamMismatchError):
            Matrix.from_cols(PS2, [[row[j] for row in table] for j in range(cols)])

    @settings(max_examples=25)
    @given(st.data(), dims, dims, st.integers(0, 2 ** 32))
    def test_every_kernel_keeps_the_stored_form(self, data, rows, cols, seed):
        a = data.draw(sparse_matrices(rows, cols))
        b = data.draw(sparse_matrices(rows, cols))
        c = data.draw(sparse_matrices(cols, rows))
        alpha = data.draw(sparse_matrices(2, 2))
        s = data.draw(sparse_matrices(rows * rows, rows * rows))
        point = random_assignment(ParamSet(["nu"]), random.Random(seed))
        wide = ParamSet(["a", "lam", "nu"])
        for m in (
            a + b, a - b, -a, a @ c, kron(a, c), leg13(s, alpha, rows, rows),
            a.scale(Fraction(2, 3)), a.substitute(point), a.extend(wide),
        ):
            assert all(is_canonical(x) for _, _, x in m.nonzero())


class TestProductDifference:
    """The fused residual a·b − c·d against the two products and a subtraction."""

    @settings(max_examples=60)
    @given(st.data(), dims, dims, dims, dims)
    def test_matches_the_difference_of_the_products(self, data, rows, inner, other, cols):
        a = data.draw(sparse_matrices(rows, inner))
        b = data.draw(sparse_matrices(inner, cols))
        c = data.draw(sparse_matrices(rows, other))
        d = data.draw(sparse_matrices(other, cols))
        got = product_difference(a, b, c, d)
        assert got == a @ b - c @ d
        assert all(x.terms and is_canonical(x) for _, _, x in got.nonzero())

    @settings(max_examples=40)
    @given(st.data(), dims, dims, dims, dims)
    def test_equal_products_cancel_to_empty_rows(self, data, rows, inner, other, cols):
        a = data.draw(sparse_matrices(rows, inner))
        b = data.draw(sparse_matrices(inner, other))
        c = data.draw(sparse_matrices(other, cols))
        # (a·b)·c − a·(b·c) vanishes by associativity, whatever the factors
        got = product_difference(a @ b, c, a, b @ c)
        assert got.is_zero() and list(got.nonzero()) == []
        assert product_difference(a, b, a, b).is_zero()

    @settings(max_examples=40)
    @given(st.data(), dims, dims, dims)
    def test_partly_cancelling_products_leave_the_difference(self, data, rows, inner, cols):
        a = data.draw(sparse_matrices(rows, inner))
        e = data.draw(sparse_matrices(rows, inner))
        b = data.draw(sparse_matrices(inner, cols))
        # a·b − (a + e)·b = −e·b: the products of a cancel, those of e remain
        got = product_difference(a, b, a + e, b)
        assert got == -(e @ b)
        assert all(x.terms and is_canonical(x) for _, _, x in got.nonzero())

    def test_integral_sums_of_fractions_are_stored_as_int(self):
        got = product_difference(mat([["1/2"]]), mat([["lam"]]), mat([["-1/2"]]), mat([["lam"]]))
        assert got == mat([["lam"]])
        (_, _, entry), = got.nonzero()
        assert all(type(c) is int for c in entry.terms.values())

    def test_inner_size_mismatch(self):
        two, three = Matrix.identity(2, PS3), Matrix.identity(3, PS3)
        with pytest.raises(DimensionError):
            product_difference(two, three, two, two)
        with pytest.raises(DimensionError):
            product_difference(two, two, two, three)

    def test_unequal_result_shapes(self):
        two = Matrix.identity(2, PS3)
        with pytest.raises(DimensionError, match="shape mismatch"):
            product_difference(two, two, Matrix.zeros(3, 2, PS3), two)
        with pytest.raises(DimensionError, match="shape mismatch"):
            product_difference(two, two, two, Matrix.zeros(2, 3, PS3))

    def test_foreign_param_set(self):
        mine, foreign = Matrix.identity(2, PS3), Matrix.identity(2, PS2)
        for operands in (
            (foreign, mine, mine, mine), (mine, foreign, mine, mine),
            (mine, mine, foreign, mine), (mine, mine, mine, foreign),
        ):
            with pytest.raises(ParamMismatchError):
                product_difference(*operands)


# -- packed storage: exponents near and beyond a 32-bit slot ------------------------

# |e| < 2^31 fits a 32-bit slot; sums of two such exponents, and 2^40,
# do not, so products of these entries need a wider slot than their operands
BIG_EXPONENTS = [2 ** 31 - 1, -(2 ** 31 - 1), 2 ** 31, -(2 ** 31), 2 ** 40 - 1, 2 ** 40,
                 -(2 ** 40), 2 ** 40 + 1, -(2 ** 40) - 1]


def wide_scalars(params=PS2):
    """Small Laurent polynomials, or ±1 and rational monomials with huge exponents."""
    n = len(params)
    coeff = st.one_of(st.sampled_from([1, -1]),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    exponent = st.one_of(st.integers(-2, 2), st.sampled_from(BIG_EXPONENTS))
    huge = st.builds(lambda e, c: Scalar(params, {e: c}), st.tuples(*[exponent] * n), coeff)
    return st.one_of(scalars(params, max_terms=2, exp_range=2), huge)


def wide_matrices(rows, cols, params=PS2):
    zero = Scalar.zero(params)
    entry = st.one_of(st.just(zero), wide_scalars(params))
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
        lambda data: Matrix(rows, cols, params, data)
    )


def dense_matmul(a, b):
    """a·b entry by entry in Scalar arithmetic, which keeps exponent tuples."""
    zero = Scalar.zero(a.params)
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), zero) for j in range(b.cols)]
            for i in range(a.rows)]


def dense_leg13(s, mid, dim_first, dim_third):
    """R[(i,m,k), (j,l,p)] = mid[m,l]·S[(i,k), (j,p)], entry by entry."""
    rows, cols = mid.rows, mid.cols
    out = [[None] * (dim_first * cols * dim_third) for _ in range(dim_first * rows * dim_third)]
    for i, m, k in itertools.product(range(dim_first), range(rows), range(dim_third)):
        for j, l, p in itertools.product(range(dim_first), range(cols), range(dim_third)):
            out[(i * rows + m) * dim_third + k][(j * cols + l) * dim_third + p] = (
                mid[m, l] * s[i * dim_third + k, j * dim_third + p]
            )
    return out


def entrywise(op, x, y):
    return [[op(a, b) for a, b in zip(r, q)] for r, q in zip(x, y)]


def is_stored_form(m):
    """Every read of the matrix gives canonical Scalars over its ParamSet, zero or not."""
    entries = [m[i, j] for i in range(m.rows) for j in range(m.cols)]
    return (
        all(x.params == m.params and is_canonical(x) for x in entries)
        and m.data == entries
        and [x for j in range(m.cols) for x in m.column(j)]
        == [m[i, j] for j in range(m.cols) for i in range(m.rows)]
        and list(m.nonzero()) == [(i, j, m[i, j]) for i in range(m.rows)
                                  for j in range(m.cols) if m[i, j].terms]
    )


class TestPackedExactness:
    """Every kernel against Scalar arithmetic, with exponents that force a wider slot."""

    @settings(max_examples=60)
    @given(st.data(), dims, dims, dims)
    def test_matmul(self, data, rows, inner, cols):
        a = data.draw(wide_matrices(rows, inner))
        b = data.draw(wide_matrices(inner, cols))
        got = a @ b
        assert [[x.terms for x in row] for row in dense(got)] == reference_matmul(a, b)
        assert is_stored_form(got)

    @settings(max_examples=40)
    @given(st.data(), dims, dims, dims, dims)
    def test_product_difference(self, data, rows, inner, other, cols):
        a = data.draw(wide_matrices(rows, inner))
        b = data.draw(wide_matrices(inner, cols))
        c = data.draw(wide_matrices(rows, other))
        d = data.draw(wide_matrices(other, cols))
        got = product_difference(a, b, c, d)
        assert dense(got) == entrywise(Scalar.__sub__, dense_matmul(a, b), dense_matmul(c, d))
        assert is_stored_form(got)
        assert product_difference(a, b, a, b).is_zero()

    @settings(max_examples=60)
    @given(st.data(), dims, dims, dims, dims)
    def test_kron(self, data, r1, c1, r2, c2):
        a = data.draw(wide_matrices(r1, c1))
        b = data.draw(wide_matrices(r2, c2))
        got = kron(a, b)
        assert dense(got) == reference_kron(a, b)
        assert is_stored_form(got)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), dims, dims, dims, dims)
    def test_leg13_with_a_rectangular_middle(self, data, dim_first, rows, cols, dim_third):
        s = data.draw(wide_matrices(dim_first * dim_third, dim_first * dim_third))
        mid = data.draw(wide_matrices(rows, cols))
        got = leg13(s, mid, dim_first, dim_third)
        assert dense(got) == dense_leg13(s, mid, dim_first, dim_third)
        assert is_stored_form(got)

    @settings(max_examples=60)
    @given(st.data(), dims, dims, wide_scalars())
    def test_add_sub_neg_and_scale(self, data, rows, cols, c):
        a = data.draw(wide_matrices(rows, cols))
        b = data.draw(wide_matrices(rows, cols))
        for got, want in (
            (a + b, entrywise(Scalar.__add__, dense(a), dense(b))),
            (a - b, entrywise(Scalar.__sub__, dense(a), dense(b))),
            (-a, [[-x for x in row] for row in dense(a)]),
            (a.scale(c), [[x * c for x in row] for row in dense(a)]),
        ):
            assert dense(got) == want
            assert is_stored_form(got)

    @settings(max_examples=60)
    @given(st.data(), dims, dims)
    def test_equality_does_not_depend_on_the_slot_width(self, data, rows, cols):
        a = data.draw(wide_matrices(rows, cols))
        b = data.draw(wide_matrices(rows, cols))
        assert (a == b) == (dense(a) == dense(b))
        # the same entries reached through a product with a wide bound
        big = Scalar(PS2, {(2 ** 40, -(2 ** 40)): 1})
        wide = a.scale(big).scale(Scalar(PS2, {(-(2 ** 40), 2 ** 40): 1}))
        assert wide == a and a == wide
        assert wide == Matrix(rows, cols, PS2, a.data)
        assert (wide == b) == (a == b)

    @settings(max_examples=40)
    @given(st.data(), dims, dims)
    def test_reads_round_trip(self, data, rows, cols):
        a = data.draw(wide_matrices(rows, cols))
        assert is_stored_form(a)
        assert Matrix(rows, cols, PS2, a.data) == a
        assert Matrix.from_rows(PS2, dense(a)) == a
        assert Matrix.from_cols(PS2, [a.column(j) for j in range(cols)]) == a
        wide = ParamSet(["a", "lam", "nu"])
        for m, params in ((a.map(lambda s: s), PS2), (a.extend(wide), wide)):
            assert m.params == params and is_stored_form(m)
        assert a.extend(wide) == Matrix(rows, cols, wide, [x.extend(wide) for x in a.data])
        assert a.map(lambda s: s) == a

    def test_negative_exponents_decode_in_every_slot(self):
        params = ParamSet(["a", "b", "c"])
        for exps in itertools.product([-(2 ** 31 - 1), -1, 0, 1, 2 ** 31 - 1], repeat=3):
            entry = Scalar(params, {exps: Fraction(-3, 7)})
            m = Matrix(1, 1, params, [entry])
            assert m[0, 0] == entry
            assert (m @ m)[0, 0] == entry * entry

    def test_exponents_of_a_long_chain_stay_exact(self):
        # each square doubles the bound: 2^40 · 2^8 needs a 50-bit slot
        lam = Scalar(PS2, {(2 ** 40, -1): 1})
        m = Matrix(1, 1, PS2, [lam])
        for _ in range(8):
            m = m @ m
        assert m[0, 0] == Scalar(PS2, {(2 ** 48, -(2 ** 8)): 1})

    def test_a_column_beyond_the_default_slot(self):
        # the column sits in the key's lowest slot, which must widen to 34 bits
        n = 2 ** 17
        zero, entry = Scalar.zero(PS2), S("lam^-3*nu + 2/3", PS2)
        row = Matrix(1, n, PS2, [zero] * (n - 1) + [entry])
        wide = kron(row, row)
        last = n * n - 1
        assert wide.cols == 2 ** 34 and wide.cols - 1 > 2 ** 32
        square = entry * entry
        assert wide[0, last] == square
        assert wide[0, last - 1] == zero and wide[0, last - n] == zero and wide[0, 0] == zero
        assert list(wide.nonzero()) == [(0, last, square)]
        nu = S("nu", PS2)
        assert list(wide.scale(nu).nonzero()) == [(0, last, square * nu)]
        assert list((wide + wide.scale(nu)).nonzero()) == [(0, last, square + square * nu)]
        assert (wide - wide).is_zero()
        assert wide == kron(row, row) and wide != Matrix.zeros(1, n * n, PS2)
        assert wide != kron(row, row.scale(nu)) and wide.scale(nu) == kron(row, row.scale(nu))

    def test_parsed_monomials_of_any_exponent(self):
        for text in ("lam^100000", "lam^-2147483648*nu^2147483647", "nu^1099511627776"):
            s = parse_scalar(text, PS2)
            m = Matrix.from_rows(PS2, [[s, S("lam + 1", PS2)]])
            assert kron(m, m)[0, 0] == s * s
            assert m[0, 0] == s and str(m[0, 0]) == text


# on a leg of bound 127, the most an 8-bit slot holds, each coefficient makes Σ c·M wider
WIDE_COEFFICIENTS = ["lam^200", "nu^-7", "2/3*lam^200*nu^-7 - 3/2"]


def coefficients():
    """Ints, fractions that make whole products with the drawn entries, zero, and wide monomials."""
    return st.one_of(st.sampled_from([0, 1, -1, *COEFFICIENTS[:12]]), st.just(Scalar.zero(PS2)),
                     st.sampled_from(WIDE_COEFFICIENTS).map(lambda text: S(text, PS2)), wide_scalars())


def as_scalar(c):
    return c if isinstance(c, Scalar) else Scalar.constant(PS2, c)


class TestCombination:
    """Σ c·M in one kernel call, against the same sum entry by entry in Scalars."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), dims, dims, st.integers(1, 4), st.booleans())
    def test_matches_the_sum_entry_by_entry(self, data, rows, cols, count, cancel):
        legs = [(data.draw(coefficients()), data.draw(sparse_matrices(rows, cols))) for _ in range(count)]
        if cancel:  # a leg and its negation: their terms cancel, down to empty rows
            c, m = legs[0]
            legs.insert(data.draw(st.integers(0, count)), (-c, m))
        got = combination(legs)
        zero = Scalar.zero(PS2)
        assert dense(got) == [[sum((as_scalar(c) * m[i, j] for c, m in legs), zero) for j in range(cols)]
                              for i in range(rows)]
        assert is_stored_form(got)
        assert all(sys.getsizeof(row) == sys.getsizeof({}) for row in got._rows if not row)
        assert got._bound <= max((m._bound + _bound([as_scalar(c)]) for c, m in legs), default=0)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), dims, dims)
    def test_a_leg_and_its_negation_leave_fresh_empty_rows(self, data, rows, cols):
        c = data.draw(coefficients().filter(lambda c: as_scalar(c).terms))
        m = data.draw(sparse_matrices(rows, cols).filter(lambda m: not m.is_zero()))
        got = combination([(c, m), (-c, m)])
        assert got.is_zero() and all(sys.getsizeof(row) == sys.getsizeof({}) for row in got._rows)

    @pytest.mark.parametrize("text", WIDE_COEFFICIENTS)
    def test_a_wide_coefficient_widens_the_slot(self, text):
        c, m = S(text, PS2), mat([["lam^100*nu^-100", "1/2"], ["0", "-nu^127 + lam"]], PS2)
        got = combination([(c, m), (1, m)])
        assert m._w == 8 and got._w > 8
        assert dense(got) == [[c * x + x for x in row] for row in dense(m)]

    @settings(max_examples=30)
    @given(st.data(), dims, dims, dims, dims)
    def test_mixed_shapes_are_refused(self, data, r1, c1, r2, c2):
        a, b = data.draw(sparse_matrices(r1, c1)), data.draw(sparse_matrices(r2, c2))
        if (r1, c1) == (r2, c2):
            assert combination([(1, a), (1, b)]) == a + b
        else:
            for legs in ([(1, a), (1, b)], [(0, a), (S("lam", PS2), b)], [(1, a), (1, a), (-1, b)]):
                with pytest.raises(DimensionError, match="shape mismatch"):
                    combination(legs)


# -- packed storage at the slot floor -------------------------------------------------

# an exponent slot of w bits holds |e| < 2^(w-1) and a column slot j < 2^w; at a
# floor of 8 bits, 2^7 - 1 and column 255 are the last values an 8-bit slot holds
FLOOR_EXPONENTS = [2 ** 7 - 1, -(2 ** 7 - 1), 2 ** 7, -(2 ** 7)]


class TestPackedExactnessAtTheFloor:
    """Exponents, columns and products at the edge of an 8-bit slot."""

    def test_exponents_at_the_edge_of_a_byte_decode_in_every_slot(self):
        params = ParamSet(["a", "b", "c"])
        one = Scalar(params, {(1, -1, 1): 1})
        for exps in itertools.product(FLOOR_EXPONENTS + [-1, 0, 1], repeat=3):
            entry = Scalar(params, {exps: Fraction(-3, 7), (0, 0, 0): 2})
            m = Matrix(1, 1, params, [entry])
            assert m[0, 0] == entry and str(m[0, 0]) == str(entry)
            assert (m @ m)[0, 0] == entry * entry
            # a product whose bound is one past the operand's, and a sum at the wider width
            shifted = m @ Matrix(1, 1, params, [one])
            assert shifted[0, 0] == entry * one
            assert (shifted + m)[0, 0] == entry * one + entry
            assert product_difference(m, m, m, m).is_zero()

    @pytest.mark.parametrize("cols", [255, 256, 257])
    def test_the_last_column_of_a_wide_row_is_kept(self, cols):
        zero = Scalar.zero(PS2)
        first, last = S("lam^127*nu^-127 + 1", PS2), S("lam^-128*nu^128 - 2/3", PS2)
        row = Matrix(1, cols, PS2, [first] + [zero] * (cols - 2) + [last])
        assert row[0, cols - 1] == last and row[0, 0] == first
        assert list(row.nonzero()) == [(0, 0, first), (0, cols - 1, last)]
        assert list((row @ Matrix.identity(cols, PS2)).nonzero()) == list(row.nonzero())
        nu = S("nu^-1", PS2)
        assert list(row.scale(nu).nonzero()) == [(0, 0, first * nu), (0, cols - 1, last * nu)]
        assert list((row + row).nonzero()) == [(0, 0, first + first), (0, cols - 1, last + last)]
        column = Matrix.from_cols(PS2, [row.data])
        assert (row @ column)[0, 0] == first * first + last * last
        assert (column @ row)[cols - 1, cols - 1] == last * last
        assert (column @ row)[cols - 1, 0] == last * first

    def test_a_chain_of_squarings_crosses_the_floor(self):
        # the bound runs 11, 22, 44, 88, 176, 352: past 127 the product needs a
        # 9-bit slot and then a 10-bit one, and its operands are re-encoded
        m = mat([["lam^9*nu^-11", "1 - 2/3*lam"], ["0", "-nu^5*lam^-2"]], PS2)
        for _ in range(5):
            got = m @ m
            assert dense(got) == dense_matmul(m, m)
            assert is_stored_form(got)
            assert product_difference(m, m, got, Matrix.identity(2, PS2)).is_zero()
            m = got
        assert m._bound == 352
        assert m[0, 0] == S("lam^288*nu^-352", PS2) and m[1, 1] == S("nu^160*lam^-64", PS2)

    @pytest.mark.parametrize("scale", [1, 30])
    def test_kron_onto_216_columns(self, scale):
        # 6 and 36 columns kron to 216, whose last index 215 still fits a byte;
        # at scale 30 the product's bound crosses 127 while neither operand's does
        rng = random.Random(216 + scale)

        def entry():
            if rng.random() < 0.5:
                return Scalar.zero(PS2)
            exps = (scale * rng.randint(-3, 3), scale * rng.randint(-3, 3))
            return Scalar(PS2, {exps: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
                                (0, 0): 1})

        a = Matrix(1, 6, PS2, [entry() for _ in range(6)])
        b = Matrix(2, 36, PS2, [entry() for _ in range(72)])
        got = kron(a, b)
        assert (got.rows, got.cols) == (2, 216)
        if scale > 1:
            assert max(a._bound, b._bound) < 2 ** 7 <= got._bound
        want = reference_kron(a, b)
        assert list(got.nonzero()) == [
            (i, j, x) for i, row in enumerate(want) for j, x in enumerate(row) if x.terms
        ]
        assert got[1, 215] == want[1][215]


ONE2, I2, I3 = Scalar.one(PS2), Matrix.identity(2, PS2), Matrix.identity(3, PS2)


class TestErrorPaths:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: Matrix.zeros(0, 2, PS2), DimensionError, "dimensions must be positive, got 0x2"),
        (lambda: Matrix(2, 2, PS2, [ONE2] * 3), DimensionError, "2x2 matrix needs 4 entries, got 3"),
        (lambda: Matrix.from_rows(PS2, [[ONE2, ONE2], [ONE2]]), DimensionError, "ragged rows"),
        (lambda: Matrix.from_cols(PS2, [[ONE2, ONE2], [ONE2]]), DimensionError, "ragged columns"),
        (lambda: I2 + I3, DimensionError, "shape mismatch: 2x2 vs 3x3"),
        (lambda: I2.scale(Scalar.one(PS3)), ParamMismatchError, "scaling factor over a different"),
        (lambda: I2.apply((ONE2,)), DimensionError, "vector of length 1 against 2 columns"),
        (lambda: I2.map(lambda s: s, PS3), ParamMismatchError, "must lie over the target ParamSet"),
        (lambda: kron(I2, Matrix.identity(2, PS3)), ParamMismatchError, "kron factors over different"),
        (lambda: leg13(Matrix.identity(4, PS2), Matrix.identity(2, PS3), 2, 2), ParamMismatchError,
         "leg13 operands over different"),
    ], ids=["non-positive-shape", "wrong-entry-count", "ragged-rows", "ragged-cols", "add-shapes",
            "scale-params", "apply-length", "map-params", "kron-params", "leg13-params"])
    def test_each_misuse_is_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_a_matrix_never_equals_a_number(self):
        assert (Matrix.identity(1, PS2) == 1) is False
        assert (I2 == 3) is False
