"""Exact checkers for the operator identities.

Every checker reduces its claim to "this matrix (or tensor) of Scalars is
identically zero" and reports the verdict together with witnesses: the first
nonzero residual entries, each carrying its row, column and exact residual.
There are no tolerances anywhere; a pass means the identity holds for all
parameter values.

Each matrix identity is written as X·Y = Z·W, and its residual X·Y − Z·W
comes from `tensor.product_difference`: both sides are added into one packed
term map per entry and only the entries that do not cancel are read back as
Scalars, so a pass builds no Scalar.  The classical condition on r is one
such column, from the Lie bracket and r⊗r = `kron(r, r)` with legs 2, 3 swapped.

hybe and each system condition are braid words of `_braid`; [R,S,T] is P₁₃
times the word of τR, τS, τT, τ and P₁₃ being `tensor.leg_order` row orders,
so no leg permutation is a matrix or a product.  A monomial alpha
twists on `kron` legs; any other is multiplied into the n²×n² operators, on
identity-padded legs in the commutator form.  The residual, so every witness
and its order, is the same either way.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import record
from .errors import DimensionError
from .scalar import Scalar
from .tensor import Matrix, kron, leg12, leg13, leg23, leg_order, permute_rows, product_difference

if TYPE_CHECKING:  # pragma: no cover
    from .structures import HomLieAlgebra

DEFAULT_WITNESS_CAP = 10

CHYBE_READING = (
    "third bracket read as [r13,r23] (printed 'r33') with bracket [b_j, b_k] "
    "(printed '[b_j, j_k]')"
)


@record(frozen=True)
class Witness:
    """One nonzero residual entry of a failed exact identity."""

    row: int
    col: int
    residual: Scalar
    label: str

    # written out, as the report's is: generic argument binding would double their cost
    def __init__(self, row, col, residual, label=""):
        fields = {"row": row, "col": col, "residual": residual, "label": label}
        object.__setattr__(self, "__dict__", fields)


@record()
class VerificationReport:
    check_name: str
    holds: bool
    witnesses: list[Witness]
    elapsed_ms: float
    subreports: list[VerificationReport]
    metadata: dict[str, str]

    def __init__(self, check_name, holds, witnesses, elapsed_ms=0.0, subreports=None, metadata=None):
        self.check_name, self.holds, self.witnesses = check_name, holds, witnesses
        self.elapsed_ms, self.subreports = elapsed_ms, [] if subreports is None else subreports
        self.metadata = {} if metadata is None else metadata

    def witness_summary(self) -> str:
        """The first three witnesses, each with its label, position and residual."""
        parts = []
        for w in self.witnesses[:3]:
            where = f"({w.row},{w.col})"
            if w.label:
                where = f"{w.label} {where}"
            parts.append(f"{where}: {w.residual}")
        return "; ".join(parts)


def leaf_report(name: str, witnesses: Iterable[Witness], *, witness_cap: int | None = DEFAULT_WITNESS_CAP,
                started: float | None = None, **metadata: str) -> VerificationReport:
    """A report without subreports: it holds iff there is no witness.

    The metadata starts with `witness_count`, the number of witnesses before
    clipping, followed by the given keys in order.
    """
    witnesses = list(witnesses)
    report = VerificationReport(
        check_name=name,
        holds=not witnesses,
        witnesses=witnesses[:witness_cap],
        metadata={"witness_count": str(len(witnesses)), **metadata},
    )
    if started is not None:
        report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return report


def _report(name: str, residual: Matrix, cap: int | None, started: float | None = None,
            label: str = "", **metadata: str) -> VerificationReport:
    """The report on an identity whose residual is `residual`, one witness per nonzero entry, row-major."""
    witnesses = (Witness(i, j, s, label) for i, j, s in residual.nonzero())
    return leaf_report(name, witnesses, witness_cap=cap, started=started, **metadata)


def combine(name: str, parts: list[VerificationReport], started: float,
            witness_cap: int | None = DEFAULT_WITNESS_CAP) -> VerificationReport:
    witnesses = [w for part in parts for w in part.witnesses]
    witnesses.sort(key=lambda w: (w.row, w.col, w.label))
    return VerificationReport(
        check_name=name,
        holds=all(part.holds for part in parts),
        witnesses=witnesses[:witness_cap],
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        subreports=parts,
    )


def _as_matrix(op) -> Matrix:
    return op.matrix if hasattr(op, "matrix") else op


def _operator_on_square(b, alpha: Matrix) -> Matrix:
    """The operator's matrix, checked to act on the tensor square of alpha's space."""
    b = _as_matrix(b)
    n = alpha.rows
    if alpha.cols != n:
        raise DimensionError("twist map must be square")
    if b.rows != b.cols or b.rows != n * n:
        raise DimensionError(
            f"operator must be square of size {n}^2={n * n}, got {b.rows}x{b.cols}"
        )
    return b


def _monomial(alpha: Matrix) -> bool:
    """No more terms than rows, as a permutation times monomials has: then alpha twists on `kron` legs."""
    return alpha.term_count() <= alpha.rows


def commutes_with_alpha(
    b: Matrix, alpha: Matrix, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Does B commute with α⊗α, exactly?"""
    started = time.perf_counter()
    b = _operator_on_square(b, alpha)
    aa = kron(alpha, alpha)
    return _report("alpha-commute", product_difference(aa, b, b, aa), witness_cap, started)


def _braid(b1: Matrix, b2: Matrix, b3: Matrix, alpha: Matrix, made: dict | None = None) -> Matrix:
    """The residual (α⊗b1)(b2⊗α)(α⊗b3) − (b3⊗α)(α⊗b2)(b1⊗α) of the braid word.

    `made` maps id(b) to the factors built from b, so that the words of one
    check build them once.  On a monomial alpha they are the `kron` legs α⊗b
    and b⊗α, and the middle product is shared when b1 is b2 or b2 is b3.  On
    any other alpha the word is P₁₃·[τb1, τb2, τb3], with [R,S,T] written
    R¹²·(S″¹³T′²³) − T²³·(S‴¹³R′¹²) on identity-padded legs, where
    S″ = (I⊗α)S(α⊗I), S‴ = (α⊗I)S(I⊗α), T′ = (α⊗I)T and R′ = (I⊗α)R.
    """
    made = {} if made is None else made

    def factors(b, build):
        if id(b) not in made:
            made[id(b)] = build(b)
        return made[id(b)]

    if _monomial(alpha):
        def legs(b):
            return factors(b, lambda b: (kron(alpha, b), kron(b, alpha)))
        (l1, r1), (l3, r3) = legs(b1), legs(b3)
        if b1 is b2:
            m = l1 @ r1
            return product_difference(m, l3, r3, m)
        if b2 is b3:
            m = r3 @ l3
            return product_difference(l1, m, m, r1)
        l2, r2 = legs(b2)
        return product_difference(l1 @ r2, l3, r3 @ l2, r1)
    n = alpha.rows
    ident = Matrix.identity(n, alpha.params)
    a1, a2 = kron(alpha, ident), kron(ident, alpha)
    tau, p13 = leg_order((n, n), (1, 0)), leg_order((n, n, n), (2, 1, 0))

    def padded(b):  # R, R′, S″, S‴, T and T′ of R = S = T = τb, each on its padded legs
        t = permute_rows(b, tau)
        left, right = a1 @ t, a2 @ t
        return (kron(t, ident), kron(right, ident), leg13(right @ a1, ident, n, n),
                leg13(left @ a2, ident, n, n), kron(ident, t), kron(ident, left))
    f1, f2, f3 = (factors(b, padded) for b in (b1, b2, b3))
    (r12, r12_), (s13, s13_), (t23, t23_) = f1[:2], f2[2:4], f3[4:]
    return permute_rows(product_difference(r12, s13 @ t23_, t23, s13_ @ r12_), p13)


def hybe_holds(
    b: Matrix, alpha: Matrix, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """The braid-form twisted Yang-Baxter identity on the tensor cube.

    Checks (α⊗B)(B⊗α)(α⊗B) = (B⊗α)(α⊗B)(B⊗α), the `_braid` word of B, B, B,
    as an exact n³×n³ identity.
    """
    started = time.perf_counter()
    b = _operator_on_square(b, alpha)
    return _report("hybe", _braid(b, b, b, alpha), witness_cap, started)


def inverse_holds(
    b: Matrix, binv: Matrix, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """B·B⁻¹ = B⁻¹·B = identity, both directions exact."""
    b, binv = _as_matrix(b), _as_matrix(binv)
    started = time.perf_counter()
    if b.rows != b.cols or binv.rows != binv.cols or b.rows != binv.rows:
        raise DimensionError("inverse check needs equal square matrices")
    ident = Matrix.identity(b.rows, b.params)
    parts = [
        _report(f"inverse:{label}", product_difference(x, y, ident, ident), witness_cap, label=label)
        for label, x, y in (("B∘Binv", b, binv), ("Binv∘B", binv, b))
    ]
    return combine("inverse", parts, started, witness_cap=witness_cap)


def yb_commutator(r: Matrix, s: Matrix, t: Matrix, dims: tuple[int, int, int],
                  alpha_first: Matrix, alpha_mid: Matrix, alpha_third: Matrix) -> Matrix:
    """[R,S,T] = R¹²∘S¹³∘T²³ − T²³∘S¹³∘R¹² on V⊗V'⊗V''.

    R acts on V⊗V', S on V⊗V'', T on V'⊗V''; the spare leg of each embedding
    is twisted by the corresponding space's alpha.
    """
    n, n2, n3 = dims
    r, s, t = _as_matrix(r), _as_matrix(s), _as_matrix(t)
    if r.rows != n * n2 or s.rows != n * n3 or t.rows != n2 * n3:
        raise DimensionError("commutator operand sizes do not match dims")
    if (alpha_first.rows, alpha_mid.rows, alpha_third.rows) != (n, n2, n3):
        raise DimensionError("twist map sizes do not match dims")
    r12, s13, t23 = leg12(r, alpha_third), leg13(s, alpha_mid, n, n3), leg23(t, alpha_first)
    return product_difference(r12, s13 @ t23, t23, s13 @ r12)


def system_holds(
    w, z, x, alpha: Matrix, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """The four commutator conditions [W,W,W]=[Z,Z,Z]=[W,X,X]=[X,X,Z]=0.

    All three operators act on the same twisted space.  Each condition is
    [R,S,T] = P₁₃·`_braid`(τR, τS, τT), with τ and P₁₃ row orders, on either
    kind of alpha.  The words run in the order [Z,Z,Z], [X,X,Z], [W,X,X],
    [W,W,W] and share the factors `_braid` makes from each flipped operator,
    which are dropped after its last word.
    """
    started = time.perf_counter()
    w, z, x = _as_matrix(w), _as_matrix(z), _as_matrix(x)
    n = alpha.rows
    tau, p13 = leg_order((n, n), (1, 0)), leg_order((n, n, n), (2, 1, 0))
    flipped = {id(op): permute_rows(op, tau) for op in (w, z, x)}
    words = {name: [flipped[id(op)] for op in ops] for name, ops in
             (("[Z,Z,Z]", (z, z, z)), ("[X,X,Z]", (x, x, z)), ("[W,X,X]", (w, x, x)), ("[W,W,W]", (w, w, w)))}
    last, made, parts = {id(b): name for name, word in words.items() for b in word}, {}, {}
    for name, word in words.items():
        parts[name] = _report(name, permute_rows(_braid(*word, alpha, made), p13), witness_cap, label=name)
        for b in word:
            if last[id(b)] == name:
                made.pop(id(b), None)
    canonical = [parts[name] for name in ("[W,W,W]", "[Z,Z,Z]", "[W,X,X]", "[X,X,Z]")]
    return combine("system", canonical, started, witness_cap=witness_cap)


def chybe_holds(
    r: Sequence[Scalar], lie: "HomLieAlgebra", *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Classical twisted Yang-Baxter condition for r ∈ L⊗L, given by its coordinates.

    Expands r = Σ a_i⊗b_i and checks that the sum of the three bracket tensors

        [a_i,a_j]⊗α(b_i)⊗α(b_j) + α(a_i)⊗[b_i,a_k]⊗α(b_k) + α(a_j)⊗α(a_k)⊗[b_j,b_k]

    vanishes identically in L⊗L⊗L.
    """
    started = time.perf_counter()
    coords, n = tuple(r), lie.dim
    if len(coords) != n * n:
        raise DimensionError(f"r must have length {n * n}, got {len(coords)}")
    params, alpha, bracket = lie.params, lie.alpha, lie.bracket
    aa = kron(alpha, alpha)
    column = Matrix.from_cols(params, [coords])
    rr = kron(column, column)
    # r⊗r has legs a_i⊗b_i⊗a_j⊗b_j; the outer terms read a_i⊗a_j⊗b_i⊗b_j, its middle legs swapped
    swapped = permute_rows(rr, leg_order((n,) * 4, (0, 2, 1, 3)))
    # α⊗L⊗α is L on the middle leg of the legs-1,3 operator α⊗α
    total = product_difference(kron(bracket, aa) + kron(aa, bracket), swapped, -leg13(aa, bracket, n, n), rr)
    return _report("chybe", total, witness_cap, started, typo_readings=CHYBE_READING)
