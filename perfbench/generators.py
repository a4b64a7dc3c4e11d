"""Seeded input generators for the benchmark, standard library only.

Every generated input is a homyb structure JSON document (a dict of
expression strings), built by the twisting principle: an associative algebra
or a coassociative coalgebra plus an automorphism α gives a Hom-structure with
μ_α = α∘μ and Δ_α = Δ∘α (Makhlouf–Silvestrov 2008; Yau 2009).  The families:

* ``Z<n>``   k[Z_n] twisted by g ↦ g^k, with k a unit of Z_n and k² ≡ 1, so α
  is an involutive permutation of the group basis;
* ``coZ<n>`` the group-like coalgebra on Z_n (Δ(g) = g⊗g, ε(g) = 1) twisted by
  the same g ↦ g^k;
* ``T<m>``   k[x]/(x^m) twisted by x ↦ c·x for a Laurent parameter c, which is
  involutive only at c = ±1.

On the ladder the seed picks k.  The skewed inputs are moved to a new basis
by P = I + t·N with N nilpotent, and the seed picks the sign of t and a
relabeling of the basis, which places the t entries.  Dimensions and the
shape of N never depend on the seed, so every seed asks for the same work.

Expected verdicts come from theory, not from running homyb:

* Thm 2.1/2.4 (algebras) and Thm 3.1/3.4 (coalgebras): the operator solves
  the HYBE and commutes with α⊗α, for symbolic λ, ν.
* Thm 5.2/5.3: the W, Z, X triple satisfies the four system conditions.
* Cor 2.2/3.2: the closed-form inverse inverts B when α² = id, so it holds on
  Z_n and coZ_n (k² ≡ 1) and on T_m at c = -1.
* With symbolic c, α² ≠ id and the T_m inverse pair fails; every residual
  vanishes at c = ±1, so it is divisible by c² - 1.
* A change of basis is an isomorphism of Hom-structures and every
  construction is natural, so the skewed inputs keep all of these verdicts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

# A polynomial is a dict {(exponent of t, exponent of c): Fraction}.
Poly = dict


def _poly(coeff=1, t=0, c=0) -> Poly:
    return {(t, c): Fraction(coeff)} if coeff else {}


def _add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, v in q.items():
        s = out.get(e, 0) + v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (t1, c1), v1 in p.items():
        for (t2, c2), v2 in q.items():
            out = _add(out, {(t1 + t2, c1 + c2): v1 * v2})
    return out


def _fmt(p: Poly) -> str:
    """The polynomial as an expression in the homyb scalar language."""
    if not p:
        return "0"
    parts = []
    for (t, c), v in sorted(p.items()):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in (("t", t), ("c", c)) if e]
        body = "*".join(([str(abs(v))] if abs(v) != 1 or not factors else []) + factors)
        sign = "-" if v < 0 else "+"
        parts.append(f"{sign} {body}" if parts else ("-" + body if v < 0 else body))
    return " ".join(parts)


def _matmul(a: list[list[Poly]], b: list[list[Poly]]) -> list[list[Poly]]:
    n, m, p = len(a), len(b), len(b[0])
    out = [[{} for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if a[i][k]:
                for j in range(p):
                    if b[k][j]:
                        out[i][j] = _add(out[i][j], _mul(a[i][k], b[k][j]))
    return out


def _apply(a: list[list[Poly]], v: list[Poly]) -> list[Poly]:
    return [row[0] for row in _matmul(a, [[x] for x in v])]


def _identity(n: int) -> list[list[Poly]]:
    return [[_poly(1) if i == j else {} for j in range(n)] for i in range(n)]


# -- the twisted structures, as (α, μ or Δ) tables of polynomials ----------------


def _group_alpha(n: int, k: int) -> list[list[Poly]]:
    """α(g^i) = g^(k·i): column i has a single 1 in row k·i mod n."""
    return [[_poly(1) if r == (k * i) % n else {} for i in range(n)] for r in range(n)]


def _group_algebra(n: int, k: int):
    alpha = _group_alpha(n, k)
    unit = [_poly(1) if i == 0 else {} for i in range(n)]
    # μ_α(g^i, g^j) = α(g^(i+j)) = g^(k(i+j))
    mult = [[[_poly(1) if r == (k * (i + j)) % n else {} for r in range(n)]
             for j in range(n)] for i in range(n)]
    return alpha, unit, mult


def _truncated_algebra(m: int):
    """k[x]/(x^m) with α(x^i) = c^i·x^i and μ_α(x^i, x^j) = c^(i+j)·x^(i+j)."""
    alpha = [[_poly(1, c=i) if r == i else {} for i in range(m)] for r in range(m)]
    unit = [_poly(1) if i == 0 else {} for i in range(m)]
    mult = [[[_poly(1, c=i + j) if r == i + j else {} for r in range(m)]
             for j in range(m)] for i in range(m)]
    return alpha, unit, mult


def _group_coalgebra(n: int, k: int):
    """Δ_α(g^i) = g^(k·i)⊗g^(k·i), ε(g^i) = 1, as {(p, q): coeff} per basis element."""
    alpha = _group_alpha(n, k)
    counit = [_poly(1)] * n
    comult = [{((k * i) % n, (k * i) % n): _poly(1)} for i in range(n)]
    return alpha, counit, comult


# -- change of basis ---------------------------------------------------------------------


def _skew(n: int, nil_at: tuple[tuple[int, int], ...], sign: int, perm: list[int]):
    """P = I + t·N followed by a relabeling of the basis, and its inverse.

    N has `sign` at each position of `nil_at`, a chain such as (2,0),(0,1), so
    N³ = 0 and P⁻¹ = I - t·N + t²·N² has polynomial entries.  The relabeling
    π = `perm` places the t entries of P·Π.  Neither the sign nor π changes how
    many terms any entry has, so every choice asks for the same work.
    """
    nil = [[{} for _ in range(n)] for _ in range(n)]
    for r, c in nil_at:
        nil[r][c] = _poly(sign, t=1)
    ident = _identity(n)
    sq = _matmul(nil, nil)
    p = [[_add(ident[i][j], nil[i][j]) for j in range(n)] for i in range(n)]
    q = [[_add(_add(ident[i][j], {e: -v for e, v in nil[i][j].items()}), sq[i][j])
          for j in range(n)] for i in range(n)]
    # relabel: the new basis vector j is the old f_perm[j]
    p = [[p[i][perm[j]] for j in range(n)] for i in range(n)]
    q = [q[perm[i]] for i in range(n)]
    return p, q


def _algebra_in_basis(alpha, unit, mult, p, q):
    """Structure constants in the basis f_j = Σ_i P[i][j]·e_i."""
    n = len(unit)
    cols = [[p[r][j] for r in range(n)] for j in range(n)]

    def product_of(u, v):
        out = [{} for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if u[i] and v[j]:
                    uv = _mul(u[i], v[j])
                    for r in range(n):
                        if mult[i][j][r]:
                            out[r] = _add(out[r], _mul(uv, mult[i][j][r]))
        return out

    new_mult = [[_apply(q, product_of(cols[a], cols[b])) for b in range(n)] for a in range(n)]
    return _matmul(_matmul(q, alpha), p), _apply(q, unit), new_mult


def _coalgebra_in_basis(alpha, counit, comult, p, q):
    n = len(counit)
    new_counit = [{} for _ in range(n)]
    new_comult = [{} for _ in range(n)]
    for a in range(n):
        for r in range(n):
            if not p[r][a]:
                continue
            new_counit[a] = _add(new_counit[a], _mul(p[r][a], counit[r]))
            for (j, k), coeff in comult[r].items():
                pref = _mul(p[r][a], coeff)
                for x in range(n):
                    for y in range(n):
                        if q[x][j] and q[y][k]:
                            term = _mul(pref, _mul(q[x][j], q[y][k]))
                            new_comult[a][(x, y)] = _add(new_comult[a].get((x, y), {}), term)
    return _matmul(_matmul(q, alpha), p), new_counit, new_comult


# -- documents ---------------------------------------------------------------------------


def _doc(kind: str, name: str, params: list[str], alpha) -> dict:
    n = len(alpha)
    return {
        "format_version": 1,
        "kind": kind,
        "name": name,
        "dim": n,
        "basis": [f"e{i}" for i in range(n)],
        "parameters": params + ["lam", "nu"],
        "alpha": [[_fmt(x) for x in row] for row in alpha],
    }


def _algebra_doc(name, params, alpha, unit, mult) -> dict:
    doc = _doc("hom-algebra", name, params, alpha)
    doc["unit"] = [_fmt(x) for x in unit]
    doc["mult"] = [[[_fmt(x) for x in cell] for cell in row] for row in mult]
    return doc


def _coalgebra_doc(name, params, alpha, counit, comult) -> dict:
    doc = _doc("hom-coalgebra", name, params, alpha)
    doc["counit"] = [_fmt(x) for x in counit]
    doc["comult"] = [
        [[j, k, _fmt(v)] for (j, k), v in sorted(cell.items()) if v] for cell in comult
    ]
    return doc


def _involutive_units(n: int) -> list[int]:
    return [k for k in range(1, n) if (k * k) % n == 1]


def choices(family: str, dim: int, skew=None) -> list[dict]:
    """Every choice the seed can make for one input, in a fixed order."""
    if skew:
        perms = [list(p) for p in permutations(range(dim))]
        return [{"sign": s, "perm": p} for s in (1, -1) for p in perms]
    if family == "T":
        return [{}]
    return [{"k": k} for k in _involutive_units(dim)]


def make_input(family: str, dim: int, choice: dict, skew=None) -> dict:
    """One generated input: its structure document plus what theory expects of it.

    `skew`, when given, is ``(k, positions of N)``: the skewed inputs fix k and
    the shape of N, and `choice` holds only choices that keep the work equal.
    The returned dict has ``doc`` (the structure JSON document), ``choice``,
    ``involutive_at`` (the substitution under which α² = id, empty when α is
    involutive as given) and ``symbolic_inverse_fails`` (True for the T
    family, whose inverse pair fails for symbolic c).
    """
    params = []
    if family == "T":
        params = ["c"]
        alpha, first, table = _truncated_algebra(dim)
    else:
        build = _group_algebra if family == "Z" else _group_coalgebra
        alpha, first, table = build(dim, skew[0] if skew else choice["k"])
    algebra = family != "coZ"
    if skew:
        p, q = _skew(dim, skew[1], choice["sign"], choice["perm"])
        params = params + ["t"]
        change = _algebra_in_basis if algebra else _coalgebra_in_basis
        alpha, first, table = change(alpha, first, table, p, q)
    name = f"{family}{dim}" + ("-skewed" if skew else "")
    to_doc = _algebra_doc if algebra else _coalgebra_doc
    return {
        "doc": to_doc(name, params, alpha, first, table),
        "choice": choice,
        "involutive_at": {"c": -1} if family == "T" else {},
        "symbolic_inverse_fails": family == "T",
    }


# (family, dim) of every ladder input; the seed picks k, never the dimension.
LADDER = (("Z", 4), ("coZ", 5), ("T", 5), ("Z", 6))
# (family, dim, (k, positions of N)) of every skewed input.  The shapes keep
# one pass near three seconds, so that a run holds several passes: a denser N
# fills the cube further and a single system check can take tens of seconds.
SKEWED = (("Z", 3, (2, ((1, 2),))), ("T", 3, (None, ((1, 2),))))


def specs(workload: str) -> list[tuple]:
    """(family, dim, skew) of every input of a generated workload."""
    if workload == "skewed":
        return list(SKEWED)
    return [(family, dim, None) for family, dim in LADDER]


def generate(workload: str, seed: int) -> list[dict]:
    """All inputs of a generated workload (``ladder`` or ``skewed``) for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [
        make_input(family, dim, rng.choice(choices(family, dim, skew)), skew)
        for family, dim, skew in specs(workload)
    ]
