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
such column, from the Lie bracket and r⊗r = `kron(r, r)` with legs 2, 3 flipped.

hybe and, on a monomial alpha, each system condition are braid words of
`_braid`; [R,S,T] is P₁₃ times the word of τR, τS, τT, with τ and P₁₃ row
orders.  On any other alpha, α is multiplied into the n²×n² operators on
identity-padded legs, where the system keeps the commutator form.  The
residual, so every witness and its order, is the same either way.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ._record import record
from .errors import DimensionError
from .scalar import Scalar
from .tensor import Matrix, flip, kron, leg12, leg13, leg23, permute_rows, product_difference

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


def leaf_report(
    name: str,
    witnesses: Iterable[Witness],
    *,
    witness_cap: int | None = DEFAULT_WITNESS_CAP,
    started: float | None = None,
    **metadata: str,
) -> VerificationReport:
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


def combine(
    name: str,
    parts: list[VerificationReport],
    started: float,
    witness_cap: int | None = DEFAULT_WITNESS_CAP,
) -> VerificationReport:
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


def _kron_legs(alpha: Matrix, b: Matrix) -> tuple[Matrix, Matrix]:
    return kron(alpha, b), kron(b, alpha)


def _braid(b1: Matrix, b2: Matrix, b3: Matrix, alpha: Matrix, legs=None) -> Matrix:
    """The residual (α⊗b1)(b2⊗α)(α⊗b3) − (b3⊗α)(α⊗b2)(b1⊗α) of the braid word.

    On a monomial alpha its factors are `kron` legs, `legs(b)` = (α⊗b, b⊗α)
    once per distinct operator, and the middle product is shared when b1 is
    b2 or b2 is b3.  On any other alpha it is C²³·(G¹²·b3²³) − b3¹²·(H²³·D¹²)
    on identity-padded legs, with C = b1(I⊗α), G = (α⊗I)b2(α⊗I),
    H = (I⊗α)b2(I⊗α) and D = (α⊗I)b1.
    """
    if not _monomial(alpha):
        ident = Matrix.identity(alpha.rows, alpha.params)
        a1, a2 = kron(alpha, ident), kron(ident, alpha)
        d, c = a1 @ b1, b1 @ a2
        g, h = (d, c) if b2 is b1 else (a1 @ b2, b2 @ a2)
        return product_difference(kron(ident, c), kron(g @ a1, ident) @ kron(ident, b3),
                                  kron(b3, ident), kron(ident, a2 @ h) @ kron(d, ident))
    legs = legs or partial(_kron_legs, alpha)
    l1, r1 = legs(b1)
    l3, r3 = (l1, r1) if b3 is b1 else legs(b3)
    if b1 is b2:
        m = l1 @ r1
        return product_difference(m, l3, r3, m)
    if b2 is b3:
        m = r3 @ l3
        return product_difference(l1, m, m, r1)
    l2, r2 = legs(b2)
    return product_difference(l1 @ r2, l3, r3 @ l2, r1)


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
    b = _as_matrix(b)
    binv = _as_matrix(binv)
    started = time.perf_counter()
    if b.rows != b.cols or binv.rows != binv.cols or b.rows != binv.rows:
        raise DimensionError("inverse check needs equal square matrices")
    ident = Matrix.identity(b.rows, b.params)
    parts = [
        _report(f"inverse:{label}", product_difference(x, y, ident, ident), witness_cap, label=label)
        for label, x, y in (("B∘Binv", b, binv), ("Binv∘B", binv, b))
    ]
    return combine("inverse", parts, started, witness_cap=witness_cap)


def _commutator(r12: Matrix, s13: Matrix, t23: Matrix, t23_: Matrix, s13_: Matrix,
                r12_: Matrix) -> Matrix:
    """[R,S,T] = R¹²·(S¹³T²³) − T²³·(S¹³R¹²), each side from its own three embeddings:
    as many products as from the left, but on a dense alpha about a fifth fewer pairs of terms."""
    return product_difference(r12, s13 @ t23, t23_, s13_ @ r12_)


def yb_commutator(
    r: Matrix,
    s: Matrix,
    t: Matrix,
    dims: tuple[int, int, int],
    alpha_first: Matrix,
    alpha_mid: Matrix,
    alpha_third: Matrix,
) -> Matrix:
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
    legs = (leg12(r, alpha_third), leg13(s, alpha_mid, n, n3), leg23(t, alpha_first))
    return _commutator(*legs, *legs[::-1])


def _built_once(requests: Iterable[tuple]) -> Callable:
    """`get(build, op)` = build(op), made at its first request and dropped after
    the last of its requests, which are the (build, op) pairs of `requests`."""
    uses, built = Counter((build, id(op)) for build, op in requests), {}

    def get(build, op):
        key = (build, id(op))
        value = built.pop(key) if key in built else build(op)
        uses[key] -= 1
        if uses[key]:
            built[key] = value
        return value
    return get


def system_holds(
    w, z, x, alpha: Matrix, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """The four commutator conditions [W,W,W]=[Z,Z,Z]=[W,X,X]=[X,X,Z]=0.

    All three operators act on the same twisted space.  On a monomial alpha
    [R,S,T] = P₁₃·`_braid`(τR, τS, τT); on any other it is
    R¹²·(S″¹³T′²³) − T²³·(S‴¹³R′¹²) on identity-padded legs, with
    S″ = (I⊗α)S(α⊗I), S‴ = (α⊗I)S(I⊗α), T′ = (α⊗I)T and R′ = (I⊗α)R.  In
    the order of `triples` the conditions share their legs; each is built
    once and dropped after its last use.
    """
    started = time.perf_counter()
    w, z, x = _as_matrix(w), _as_matrix(z), _as_matrix(x)
    n = alpha.rows
    triples = {"[Z,Z,Z]": (z, z, z), "[X,X,Z]": (x, x, z), "[W,X,X]": (w, x, x), "[W,W,W]": (w, w, w)}
    if _monomial(alpha):
        tau = [j * n + i for i in range(n) for j in range(n)]
        p13 = [(k * n + j) * n + i for i in range(n) for j in range(n) for k in range(n)]
        flipped = {id(op): permute_rows(op, tau) for op in (w, z, x)}
        words = {name: [flipped[id(op)] for op in ops] for name, ops in triples.items()}

        pair = partial(_kron_legs, alpha)
        get = _built_once((pair, b) for bs in words.values() for b in {id(b): b for b in bs}.values())

        def residual(name):
            return permute_rows(_braid(*words[name], alpha, partial(get, pair)), p13)
    else:
        ident = Matrix.identity(n, alpha.params)
        a1, a2 = kron(alpha, ident), kron(ident, alpha)
        embed = (lambda op: leg12(op, ident), lambda op: leg13(a2 @ op @ a1, ident, n, n),
                 lambda op: leg23(a1 @ op, ident), lambda op: leg23(op, ident),
                 lambda op: leg13(a1 @ op @ a2, ident, n, n), lambda op: leg12(a2 @ op, ident))
        slots = {name: list(zip(embed, ops + ops[::-1])) for name, ops in triples.items()}
        get = _built_once(request for pairs in slots.values() for request in pairs)

        def residual(name):
            return _commutator(*(get(leg, op) for leg, op in slots[name]))
    parts = {name: _report(name, residual(name), witness_cap, label=name) for name in triples}
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
    ident = Matrix.identity(n, params)
    # r⊗r has legs a_i⊗b_i⊗a_j⊗b_j; the outer terms read a_i⊗a_j⊗b_i⊗b_j, its middle legs swapped
    swapped = kron(kron(ident, flip(n, n, params)), ident) @ rr
    # α⊗L⊗α is L on the middle leg of the legs-1,3 operator α⊗α
    total = product_difference(kron(bracket, aa) + kron(aa, bracket), swapped, -leg13(aa, bracket, n, n), rr)
    return _report("chybe", total, witness_cap, started, typo_readings=CHYBE_READING)
