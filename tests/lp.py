"""Exact linear programming over the rationals.

A compact two-phase tableau simplex for feasibility-sized problems:
minimize c.x subject to A x = b, x >= 0, every entry a Fraction.  All
pivoting is exact, so feasibility verdicts never hinge on floating-point
rounding.  Dantzig's rule is used until an iteration cap, then Bland's
rule takes over to guarantee termination.

``standard_form`` writes the hidden-variable LP of ``hv.feasibility`` in
standard form, and ``highs_optimum`` solves it with HiGHS (scipy, a test
extra): the float reference the Kelley loop is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LpResult:
    status: str
    x: list | None
    objective: Fraction | None


def _pivot(rows, obj, basis, pr, pc):
    piv = rows[pr][pc]
    inv = _ONE / piv
    rows[pr] = [v * inv for v in rows[pr]]
    prow = rows[pr]
    for i, row in enumerate(rows):
        if i != pr and row[pc] != 0:
            f = row[pc]
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    if obj[pc] != 0:
        f = obj[pc]
        for j, b in enumerate(prow):
            obj[j] -= f * b
    basis[pr] = pc


def _iterate(rows, obj, basis, ncols):
    """Run simplex iterations until optimal or unbounded."""
    iteration = 0
    bland_after = 200 + 20 * (len(rows) + ncols)
    while True:
        iteration += 1
        use_bland = iteration > bland_after
        # entering column: negative reduced cost
        pc = -1
        if use_bland:
            for j in range(ncols):
                if obj[j] < 0:
                    pc = j
                    break
        else:
            best = _ZERO
            for j in range(ncols):
                if obj[j] < best:
                    best = obj[j]
                    pc = j
        if pc < 0:
            return OPTIMAL
        # leaving row: min ratio, Bland tie-break on basis index
        pr = -1
        best_ratio = None
        for i, row in enumerate(rows):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pr])
                ):
                    best_ratio = ratio
                    pr = i
        if pr < 0:
            return UNBOUNDED
        _pivot(rows, obj, basis, pr, pc)


def solve(c, A, b) -> LpResult:
    """Minimize c.x subject to A x = b, x >= 0 (all Fractions)."""
    m = len(A)
    n = len(c)
    c = [Fraction(v) for v in c]
    rows = []
    rhs = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        rows.append(row)
        rhs.append(bi)

    # phase 1: artificial basis
    ncols = n + m
    tab = [rows[i] + [_ONE if j == i else _ZERO for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [_ZERO] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            obj[j] -= tab[i][j]
    for i in range(m):
        obj[n + i] = _ZERO

    status = _iterate(tab, obj, basis, ncols)
    if status != OPTIMAL or -obj[-1] > 0:
        return LpResult(status=INFEASIBLE, x=None, objective=None)

    # drive any artificial variables out of the basis
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j] != 0), None)
            if pc is None:
                # redundant row
                del tab[i]
                del basis[i]
            else:
                _pivot(tab, obj, basis, i, pc)

    # phase 2 objective
    tab = [row[:n] + [row[-1]] for row in tab]
    obj = list(c) + [_ZERO]
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            f = obj[bi]
            obj = [a - f * v for a, v in zip(obj, tab[i])]
            obj[bi] = _ZERO

    status = _iterate(tab, obj, basis, n)
    if status == UNBOUNDED:
        return LpResult(status=UNBOUNDED, x=None, objective=None)
    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    return LpResult(status=OPTIMAL, x=x, objective=-obj[-1])


def standard_form(flat_targets, wave_probs):
    """min t s.t. A x = b, x >= 0, over the tags' per-setting marginals.

    Columns: W (wave weight), t (residual), per setting x_j (wave weight on
    '+'), m_j+ and m_j-, then one slack per "<=" row.  A setting's
    total-variation distance is 1/2 sum_b max(|sigma_b - S_b|, |k omega_b -
    D_b|) for Bob marginal sigma and wave weights omega; the best sigma_+ in
    [x_j, x_j + 1 - W] leaves |sigma_+ - S_+| = max(0, x_j - S_+, W - x_j - S_-).
    """
    rows = [({0: 1}, 1)]  # ({column: coefficient}, rhs)
    for j, ((q0p, q0m, q1p, q1m), (w0, w1)) in enumerate(zip(flat_targets, wave_probs)):
        s_p, s_m, d_p, d_m = q0p + q1p, q0m + q1m, q0p - q1p, q0m - q1m
        k = w0 - w1
        x, m_p, m_m = 2 + 3 * j, 3 + 3 * j, 4 + 3 * j
        rows += [({x: 1, 0: -1}, 0)]
        for m in (m_p, m_m):
            rows += [({x: 1, m: -1}, s_p), ({0: 1, x: -1, m: -1}, s_m)]
        rows += [({x: k, m_p: -1}, d_p), ({x: -k, m_p: -1}, -d_p),
                 ({0: k, x: -k, m_m: -1}, d_m), ({0: -k, x: k, m_m: -1}, -d_m),
                 ({m_p: 0.5, m_m: 0.5, 1: -1}, 0)]
    cols = 3 * len(flat_targets) + 2
    a = [[coeffs.get(col, 0) for col in range(cols)] + [int(r == i) for r in range(len(rows))]
         for i, (coeffs, _) in enumerate(rows)]
    return [0, 1] + [0] * (len(a[0]) - 2), a, [rhs for _, rhs in rows]


def highs_optimum(flat_targets, wave_probs):
    """(W, residual, [x_j]) from HiGHS on the LP of ``standard_form``."""
    from scipy.optimize import linprog

    c, a, b = standard_form(flat_targets, wave_probs)
    res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return res.x[0], res.fun, res.x[2:3 * len(flat_targets) + 2:3]
