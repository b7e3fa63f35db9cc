"""`solve_linear` and `commutant_dimension` against independent oracles.

Rational systems are compared with sympy's exact row reduction: the status,
the rank, the particular solution with every free unknown 0, and the kernel
basis (one vector per free column, 1 there and 0 at the other free columns),
which the reduced row echelon form fixes uniquely.  Cyclotomic systems are
checked by substituting the solution and the kernel back, and their rank
against a plain Gaussian elimination on Scalars.  commutant_dimension is
compared with that elimination on the catalog's comodules and on direct sums.
"""

import random
from fractions import Fraction

import pytest
import sympy

from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.comodules import TwistedCoalgebra, enumerate_onedim
from hopfcqt.errors import NonAbelianStabilizer, NotARootOfUnity
from hopfcqt.scalars import (Matrix, ONE, ZERO, as_scalar, commutant_dimension, rational,
                             root_of_unity, solve_linear)


def _rational(rng):
    "A small int or Fraction, zero one time in three."
    if rng.random() < 1 / 3:
        return 0
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5]))


def _low_rank(rng, m, n, r, entry):
    "An m x n list matrix of rank at most r: a product of m x r and r x n factors."
    left = [[entry(rng) for _ in range(r)] for _ in range(m)]
    right = [[entry(rng) for _ in range(n)] for _ in range(r)]
    zero = 0 * entry(rng)
    return [[sum((left[i][k] * right[k][j] for k in range(r)), zero) for j in range(n)]
            for i in range(m)]


def _system(rng, entry):
    """(A, b) with a random shape, of full rank half of the time; b in the column
    space half of the time."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    r = min(m, n) if rng.random() < 0.5 else rng.randint(0, min(m, n))
    A = _low_rank(rng, m, n, r, entry)
    if rng.random() < 0.5:
        x = [entry(rng) for _ in range(n)]
        b = [sum((a * v for a, v in zip(row, x)), 0 * entry(rng)) for row in A]
    else:
        b = [entry(rng) for _ in range(m)]
    return A, b


def _matrix(rows):
    return Matrix([[as_scalar(v) for v in row] for row in rows])


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in map(Fraction, row)]
                         for row in rows])


def _fraction(s):
    "A rational Scalar as a Fraction."
    return s.as_rational()


@pytest.mark.parametrize("seed", range(4))
def test_rational_systems_match_sympy(seed):
    rng = random.Random(seed)
    seen = {"unique": 0, "parametric": 0, "inconsistent": 0}
    for _ in range(150):
        A, b = _system(rng, _rational)
        sol = solve_linear(_matrix(A), _matrix([[v] for v in b]))
        SA, Sb = _sympy(A), _sympy([[v] for v in b])
        rank = SA.rank()
        assert sol.rank == rank
        seen[sol.status] += 1
        if SA.row_join(Sb).rank() > rank:
            assert sol.status == "inconsistent" and sol.particular is None
            continue
        n = len(A[0])
        assert sol.status == ("unique" if rank == n else "parametric")
        x, params = SA.gauss_jordan_solve(Sb)
        x = x.subs({p: 0 for p in params})
        assert [_fraction(v) for v in sol.particular] == \
            [Fraction(int(v.p), int(v.q)) for v in x]
        kernel = [[Fraction(int(v.p), int(v.q)) for v in vec] for vec in SA.nullspace()]
        assert [[_fraction(v) for v in vec] for vec in sol.kernel] == kernel
    assert all(seen.values()), seen


def _cyclotomic(rng):
    "A small combination of 1, zeta_3 and zeta_4 with rational coefficients, or 0."
    if rng.random() < 1 / 3:
        return ZERO
    v = rational(rng.randint(-3, 3))
    for order in (3, 4):
        v = v + root_of_unity(order, rng.randint(0, order - 1)) * rng.randint(-2, 2)
    return v


def _reference_rank(rows):
    "Rank by plain Gaussian elimination on Scalars, no shortcut: the oracle."
    rows = [list(map(as_scalar, row)) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _apply(A, x):
    return [sum((a * v for a, v in zip(row, x)), ZERO) for row in A]


@pytest.mark.parametrize("seed", range(3))
def test_cyclotomic_systems_substitute_back(seed):
    rng = random.Random(seed)
    seen = {"unique": 0, "parametric": 0, "inconsistent": 0}
    for _ in range(60):
        A, b = _system(rng, _cyclotomic)
        if rng.random() < 0.3 and len(A) > 1:
            # a dependent row whose right-hand side breaks the dependency
            A = A + [[x + y for x, y in zip(A[0], A[1])]]
            b = b + [b[0] + b[1] + ONE]
        sol = solve_linear(_matrix(A), _matrix([[v] for v in b]))
        seen[sol.status] += 1
        assert sol.rank == _reference_rank(A)
        n = len(A[0])
        if sol.status == "inconsistent":
            assert _reference_rank([row + [v] for row, v in zip(A, b)]) > sol.rank
            continue
        assert _apply(A, sol.particular) == b
        assert len(sol.kernel) == n - sol.rank
        for vec in sol.kernel:
            assert _apply(A, vec) == [ZERO] * len(A)
        assert (sol.status == "unique") == (sol.rank == n)
    assert all(seen.values()), seen


def test_homogeneous_system_has_the_zero_particular_solution():
    sol = solve_linear(Matrix([[1, 2], [2, 4]]))
    assert sol.status == "parametric" and sol.rank == 1
    assert sol.particular == [ZERO, ZERO] and sol.kernel == [[rational(-2), ONE]]


def _commutant_reference(mats, n):
    "n^2 minus the rank of the vectorized constraints X M - M X = 0, by the oracle."
    rows = []
    for M in mats:
        for i in range(n):
            for j in range(n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    row[i * n + k] = row[i * n + k] + M[k, j]
                    row[k * n + j] = row[k * n + j] - M[i, k]
                rows.append(row)
    return n * n - _reference_rank(rows)


def _direct_sum(V1, V2):
    C = V1.coalgebra
    return [Matrix([[V1.matrix(g)[0, 0], ZERO], [ZERO, V2.matrix(g)[0, 0]]])
            for g in C.stabilizer]


def test_commutant_dimension_on_catalog_comodules():
    seen = 0
    for eid in entry_ids():
        H = get_entry(eid).context()
        for f in H.mp.window(2):
            try:
                simples = enumerate_onedim(TwistedCoalgebra(H, f))
            except (NonAbelianStabilizer, NotARootOfUnity):
                continue
            for V in simples:
                assert commutant_dimension(V.matrices.values(), 1) == 1
            # distinct simples give a two-dimensional commutant, a repeated one four
            for V1, V2, dim in ((simples[0], simples[-1], 2 if len(simples) > 1 else 4),
                                (simples[0], simples[0], 4)):
                mats = _direct_sum(V1, V2)
                assert commutant_dimension(mats, 2) == _commutant_reference(mats, 2) == dim
                seen += 1
    assert seen > 100
