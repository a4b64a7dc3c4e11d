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

hybe and the system conditions twist their operators' spare legs: on `kron`
and `leg13` legs for a monomial alpha (no more terms than rows), else by
multiplying alpha into the n²×n² operators, embedded on identity-padded legs.
The residual, so every witness and its order, is the same either way.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import record
from .errors import DimensionError
from .scalar import Scalar
from .tensor import Matrix, flip, kron, leg12, leg13, leg23, product_difference

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


def hybe_holds(
    b: Matrix, alpha: Matrix, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """The braid-form twisted Yang-Baxter identity on the tensor cube.

    Checks (α⊗B)(B⊗α)(α⊗B) = (B⊗α)(α⊗B)(B⊗α) as an exact n³×n³ identity.
    On a monomial alpha, with P = (α⊗B)(B⊗α), the two sides are P(α⊗B) and
    (B⊗α)P.  On any other they are C²³·(G¹²·B²³) and B¹²·(H²³·D¹²) on
    identity-padded legs, with D = (α⊗I)B, C = B(I⊗α), G = D(α⊗I) and
    H = (I⊗α)C, so no cube entry carries alpha.
    """
    started = time.perf_counter()
    b = _operator_on_square(b, alpha)
    if _monomial(alpha):
        ab, ba = kron(alpha, b), kron(b, alpha)
        p = ab @ ba
        residual = product_difference(p, ab, ba, p)
    else:
        ident = Matrix.identity(alpha.rows, alpha.params)
        a1, a2 = kron(alpha, ident), kron(ident, alpha)
        d, c = a1 @ b, b @ a2
        residual = product_difference(kron(ident, c), kron(d @ a1, ident) @ kron(ident, b),
                                      kron(b, ident), kron(ident, a2 @ c) @ kron(d, ident))
    return _report("hybe", residual, witness_cap, started)


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


def system_holds(
    w, z, x, alpha: Matrix, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """The four commutator conditions [W,W,W]=[Z,Z,Z]=[W,X,X]=[X,X,Z]=0.

    All three operators act on the same twisted space (the constructions here
    only produce that case, with V = V').  On a monomial alpha both sides of
    [R,S,T] share the `leg12`, `leg13` and `leg23` embeddings, alpha on the
    spare leg; on any other, [R,S,T] = R¹²·(S″¹³T′²³) − T²³·(S‴¹³R′¹²) on
    identity-padded legs, with S″ = (I⊗α)S(α⊗I), S‴ = (α⊗I)S(I⊗α),
    T′ = (α⊗I)T and R′ = (I⊗α)R.  In the order of `triples` the conditions
    share embeddings; each is built once and dropped after its last use.
    """
    started = time.perf_counter()
    w, z, x = _as_matrix(w), _as_matrix(z), _as_matrix(x)
    n = alpha.rows
    triples = {"[Z,Z,Z]": (z, z, z), "[X,X,Z]": (x, x, z), "[W,X,X]": (w, x, x), "[W,W,W]": (w, w, w)}
    if _monomial(alpha):
        r, s, t = (lambda op: leg12(op, alpha), lambda op: leg13(op, alpha, n, n), lambda op: leg23(op, alpha))
        embed = (r, s, t, t, s, r)
    else:
        ident = Matrix.identity(n, alpha.params)
        a1, a2 = kron(alpha, ident), kron(ident, alpha)
        embed = (lambda op: leg12(op, ident), lambda op: leg13(a2 @ op @ a1, ident, n, n),
                 lambda op: leg23(a1 @ op, ident), lambda op: leg23(op, ident),
                 lambda op: leg13(a1 @ op @ a2, ident, n, n), lambda op: leg12(a2 @ op, ident))
    slots = {name: list(zip(embed, ops + ops[::-1])) for name, ops in triples.items()}
    uses = Counter((leg, id(op)) for pairs in slots.values() for leg, op in pairs)
    built, parts = {}, {}
    for name, pairs in slots.items():
        legs = []
        for leg, op in pairs:
            key = (leg, id(op))
            uses[key] -= 1
            legs.append(built.pop(key) if key in built else leg(op))
            if uses[key]:
                built[key] = legs[-1]
        parts[name] = _report(name, _commutator(*legs), witness_cap, label=name)
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
