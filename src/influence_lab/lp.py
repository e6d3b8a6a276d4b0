"""Small exact-arithmetic LP solver used as a reference for the minimax fits.

Two-phase primal simplex on a dense Fraction tableau with Bland's rule for
both the entering and the leaving choice, so it cannot cycle and is fully
deterministic. Intended for reference-scale problems (tens of rows); the
production route in approxdeg uses scipy and is re-verified against this on
small instances.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapacityError, InputError, SolverError

_F0 = Fraction(0)
_F1 = Fraction(1)


def _run_simplex(rows, basis, costs, allowed):
    """Minimize costs.y over the tableau; mutates rows/basis in place.

    rows[r] has the coefficient columns followed by the RHS. allowed marks
    columns eligible to enter the basis. Returns the optimal objective value.
    """
    m = len(rows)
    width = len(rows[0]) - 1
    red = [c for c in costs] + [_F0]  # reduced costs plus objective value
    for r in range(m):
        cb = costs[basis[r]]
        if cb != 0:
            row = rows[r]
            for j in range(width + 1):
                red[j] -= cb * row[j]

    while True:
        enter = -1
        for j in range(width):
            if allowed[j] and red[j] < 0:
                enter = j
                break
        if enter < 0:
            return -red[width]
        leave = -1
        best_ratio = None
        for r in range(m):
            a = rows[r][enter]
            if a > 0:
                ratio = rows[r][width] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            raise SolverError("LP is unbounded")
        _pivot(rows, red, basis, leave, enter)


def _pivot(rows, red, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for r2 in range(len(rows)):
        if r2 != r and rows[r2][c] != 0:
            f = rows[r2][c]
            rows[r2] = [a - f * b for a, b in zip(rows[r2], prow)]
    if red[c] != 0:
        f = red[c]
        for j in range(len(red)):
            red[j] -= f * prow[j]
    basis[r] = c


def solve_min_exact(costs, a_rows, b):
    """Minimize costs.y subject to a_rows.y <= b, y >= 0, exactly.

    Returns (optimal value, solution list). Raises SolverError if infeasible
    or unbounded. Everything is Fractions.
    """
    m = len(a_rows)
    nvars = len(costs)
    slack0 = nvars
    art_rows = [r for r in range(m) if b[r] < 0]
    art0 = nvars + m
    width = nvars + m + len(art_rows)

    rows = []
    art_col = {}
    for pos, r in enumerate(art_rows):
        art_col[r] = art0 + pos
    for r in range(m):
        flip = -1 if b[r] < 0 else 1
        row = [flip * Fraction(v) for v in a_rows[r]] + [_F0] * (m + len(art_rows))
        row.append(flip * Fraction(b[r]))
        row[slack0 + r] = Fraction(flip)
        if r in art_col:
            row[art_col[r]] = _F1
        rows.append(row)

    basis = [art_col.get(r, slack0 + r) for r in range(m)]
    allowed = [True] * width

    if art_rows:
        phase1_costs = [_F0] * width
        for r in art_rows:
            phase1_costs[art_col[r]] = _F1
        if _run_simplex(rows, basis, phase1_costs, allowed) != 0:
            raise SolverError("LP is infeasible")
        # drive any degenerate artificial out of the basis
        for r in range(m):
            if basis[r] >= art0:
                pivot_col = next(
                    (j for j in range(art0) if rows[r][j] != 0), None
                )
                if pivot_col is not None:
                    red = [_F0] * (width + 1)
                    _pivot(rows, red, basis, r, pivot_col)
        for j in range(art0, width):
            allowed[j] = False

    full_costs = [Fraction(c) for c in costs] + [_F0] * (m + len(art_rows))
    value = _run_simplex(rows, basis, full_costs, allowed)
    solution = [_F0] * nvars
    for r in range(m):
        if basis[r] < nvars:
            solution[basis[r]] = rows[r][width]
    return value, solution


def minimax_fit_exact(table, degree: int):
    """Exact minimax fit of a 0/1-valued table by a polynomial of bounded degree.

    Returns (t_star, coeffs) with coefficients in the character basis
    p(x) = sum_s c_s (-1)^(s.x) over masks with popcount <= degree, all exact
    Fractions. Reference-scale only (n <= 6).
    """
    n = table.n
    if n > 6:
        raise CapacityError("exact minimax fit is a reference solver, capped at n=6")
    if not 0 <= degree <= n:
        raise InputError(f"degree must be in 0..{n}, got {degree}")
    masks = [s for s in range(1 << n) if bin(s).count("1") <= degree]
    k = len(masks)
    size = 1 << n
    bits = table.bits()

    # variables: u_s, v_s (c_s = u_s - v_s), then t; 2*size rows
    nvars = 2 * k + 1
    costs = [_F0] * (2 * k) + [_F1]
    a_rows = []
    b = []
    for x in range(size):
        chars = [(-1) ** bin(s & x).count("1") for s in masks]
        fx = Fraction(int(bits[x]))
        up = [Fraction(c) for c in chars] + [Fraction(-c) for c in chars] + [Fraction(-1)]
        dn = [Fraction(-c) for c in chars] + [Fraction(c) for c in chars] + [Fraction(-1)]
        a_rows.append(up)
        b.append(fx)
        a_rows.append(dn)
        b.append(-fx)
    value, y = solve_min_exact(costs, a_rows, b)
    coeffs = {}
    for j, s in enumerate(masks):
        c = y[j] - y[k + j]
        if c != 0:
            coeffs[s] = c
    assert len(y) == nvars
    return value, coeffs


__all__ = ["minimax_fit_exact", "solve_min_exact"]
