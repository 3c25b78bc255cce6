"""Dense layouts of structure constants, for the tests.

octad stores a conic algebra's product as its nonzero terms
{(a, b, k): c} and a cubic norm structure's adjoint and norm as
{(i, j, k): c} (i <= j) and {(i, j, l): c} (i <= j <= l).  The tests
corrupt constants, and the reference builders of reference_paths produce
them, in the dense layout the library used before:

  table[a][b]      the coordinates of e_a e_b;
  sharp_basis[i]   the coordinates of e_i#;
  cross_pairs      {(i, j): the coordinates of e_i x e_j}, i < j;
  n_single[i]      N(e_i), the coefficient of x_i^3;
  n_dir            {(i, j): N(e_i; e_j)}, the coefficient of x_i^2 x_j, i != j;
  n_triple         {(i, j, l): N(e_i, e_j, e_l)}, i < j < l.

These functions convert between the two, independently of the library's
to_json and from_json.  A structure built with corrupted constants is
refused by its class's construction check, _validate; unchecked(cls) is
the one way the tests skip it.
"""

import functools
import itertools


@functools.cache
def unchecked(cls):
    """cls with _validate overridden to do nothing, so that corrupted
    structures reach the checkers."""
    return type(f"Unchecked{cls.__name__}", (cls,), {"_validate": lambda self: None})


def conic_table(alg):
    """The dense table[a][b][k] of a conic algebra or associative input."""
    R, n = alg.ring, alg.dim
    table = [[[R.zero] * n for _ in range(n)] for _ in range(n)]
    for (a, b, k), c in alg.products.items():
        table[a][b][k] = c
    return table


def table_products(table):
    """The terms {(a, b, k): c} of a dense table, zeros included."""
    return {(a, b, k): c for a, row in enumerate(table) for b, vec in enumerate(row) for k, c in enumerate(vec)}


def cubic_fields(J):
    """(sharp_basis, cross_pairs, n_single, n_dir, n_triple) of a cubic norm
    structure: cross_pairs holds every pair i < j, n_dir and n_triple only
    the nonzero coefficients."""
    R, n = J.ring, J.dim
    sharp = [[R.zero] * n for _ in range(n)]
    cross = {pair: [R.zero] * n for pair in itertools.combinations(range(n), 2)}
    for (i, j, k), c in J.sharp_terms.items():
        (sharp[i] if i == j else cross[(i, j)])[k] = c
    n_single, n_dir, n_triple = [R.zero] * n, {}, {}
    for (i, j, l), c in J.norm_terms.items():
        if i == j == l:
            n_single[i] = c
        elif i == j:
            n_dir[(i, l)] = c
        elif j == l:
            n_dir[(l, i)] = c
        else:
            n_triple[(i, j, l)] = c
    return sharp, cross, n_single, n_dir, n_triple


def cubic_terms(sharp_basis, cross_pairs, n_single, n_dir, n_triple):
    """The (sharp_terms, norm_terms) of the dense fields, zeros included."""
    sharp_terms = {(i, i, k): c for i, v in enumerate(sharp_basis) for k, c in enumerate(v)}
    sharp_terms.update(((i, j, k), c) for (i, j), v in cross_pairs.items() for k, c in enumerate(v))
    norm_terms = {(i, i, i): c for i, c in enumerate(n_single)}
    norm_terms.update((((i, i, j) if i < j else (j, i, i)), c) for (i, j), c in n_dir.items())
    norm_terms.update(n_triple)
    return sharp_terms, norm_terms


def dense_cubic(cls, ring, dim, basepoint, sharp_basis, cross_pairs, n_single, n_dir, n_triple, name="cubic"):
    """cls (CubicData or a subclass) built from the dense fields."""
    terms = cubic_terms(sharp_basis, cross_pairs, n_single, n_dir, n_triple)
    return cls(ring, dim, basepoint, *terms, name=name)
