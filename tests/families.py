"""Generated families of structures, and the duality between algebras and coalgebras.

Each family is given as the structure-file document that `files.structure_from_dict`
loads, over its own parameters and `lam`, `nu`.  Mₙ(Q) twisted by an algebra
automorphism α is a Hom-associative algebra with μ_α = α∘μ and the same unit
(the twisting principle of Makhlouf–Silvestrov).
"""

from homyb import HomAlgebra, HomCoalgebra, Matrix


def matrix_algebra(n: int) -> dict:
    """Mₙ(Q) on the matrix units E_ij, twisted by conjugation with diag(s0, …, s(n-1)):
    α(E_ij) = s_i·s_j⁻¹·E_ij, and μ_α(E_ij ⊗ E_kl) = δ_jk·α(E_il)."""
    units = [(i, j) for i in range(n) for j in range(n)]
    twist = {(i, j): "1" if i == j else f"s{i}*s{j}^-1" for i, j in units}

    def times(left, right):
        """The coordinates of μ_α(left ⊗ right)."""
        product = (left[0], right[1]) if left[1] == right[0] else None
        return [twist[e] if e == product else "0" for e in units]

    return {
        "format_version": 1,
        "kind": "hom-algebra",
        "name": f"M{n}",
        "dim": n * n,
        "basis": [f"E{i}{j}" for i, j in units],
        "parameters": [*(f"s{i}" for i in range(n)), "lam", "nu"],
        "alpha": [[twist[e] if e == f else "0" for f in units] for e in units],
        "unit": ["1" if i == j else "0" for i, j in units],
        "mult": [[times(left, right) for right in units] for left in units],
    }


def transpose(m: Matrix) -> Matrix:
    return Matrix.from_rows(m.params, [m.column(j) for j in range(m.cols)])


def dual(structure):
    """The dual structure on the same basis: α transposed, μ ↔ Δ and η ↔ ε transposed."""
    common = {"name": f"{structure.name}*", "basis": structure.basis, "params": structure.params,
              "alpha": transpose(structure.alpha)}
    if isinstance(structure, HomAlgebra):
        return HomCoalgebra(**common, delta=transpose(structure.mu), epsilon=transpose(structure.eta))
    return HomAlgebra(**common, mu=transpose(structure.delta), eta=transpose(structure.epsilon))
