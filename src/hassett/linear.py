"""Exact feasibility of small linear systems over the rationals.

Systems mix non-strict and strict inequalities (and equations), so the
solver tracks strictness through Fourier-Motzkin elimination instead of
relying on epsilon perturbation. Infeasibility is a value (None), not an
exception; a returned witness is always re-substituted into the original
constraints before being handed back.

Internally every row is scaled once to coprime integers and stays a
tuple of ints through elimination, reduced by its gcd after each
combination; ``Fraction`` appears again only in back-substitution, where
the witness is built. :func:`evaluate` scales the point once to a common
denominator and checks each original constraint by an integer dot
product.

Intended for the small systems arising from chamber conditions (a dozen
variables, tens of constraints). No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Constraint",
    "LinearSystem",
    "solve_feasibility",
    "evaluate",
]

RELATIONS = ("<=", "<", "=")


@dataclass(frozen=True)
class Constraint:
    """``sum(coeffs[i] * x_i) rel bound`` with rel one of <=, <, =."""

    coeffs: tuple[Fraction, ...]
    rel: str
    bound: Fraction

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class LinearSystem:
    num_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise ValueError(
                    f"constraint has {len(c.coeffs)} coefficients, "
                    f"system has {self.num_vars} variables"
                )


def _common_scale(values: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """Integers s_i and the common denominator d > 0 with values[i] = s_i / d,
    d the lcm of the denominators (1 for no values)."""
    d = lcm(*(q.denominator for q in values))
    return tuple(q.numerator * (d // q.denominator) for q in values), d


def evaluate(system: LinearSystem, point: tuple[Fraction, ...]) -> bool:
    """Exact check of every constraint at the point, in integers: with
    x = X / d and a row scaled to integers C . x rel B, the row reads
    C . X rel B * d."""
    if len(point) != system.num_vars:
        raise ValueError("point dimension does not match the system")
    xs, d = _common_scale(point)
    for c in system.constraints:
        *coeffs, bound = _common_scale((*c.coeffs, c.bound))[0]
        lhs, rhs = sum(a * x for a, x in zip(coeffs, xs)), bound * d
        if c.rel == "<=":
            holds = lhs <= rhs
        elif c.rel == "<":
            holds = lhs < rhs
        else:
            holds = lhs == rhs
        if not holds:
            return False
    return True


# internal normal form: coeffs . x <= bound with coprime integer coeffs
# and bound (gcd 1, or all zero), strict flag for <
_Row = tuple[tuple[int, ...], int, bool]


def _reduced(coeffs: tuple[int, ...], bound: int, strict: bool) -> _Row:
    """Divide an integer row by the gcd of its entries so duplicates collide."""
    g = gcd(*coeffs, bound)
    if g > 1:
        return tuple(a // g for a in coeffs), bound // g, strict
    return coeffs, bound, strict


def _integer_row(
    coeffs: tuple[Fraction, ...], bound: Fraction, strict: bool
) -> _Row:
    """Scale a rational row to integers (:func:`_common_scale`), then reduce."""
    ints = _common_scale((*coeffs, bound))[0]
    return _reduced(ints[:-1], ints[-1], strict)


def _normalize(system: LinearSystem) -> list[_Row]:
    rows: list[_Row] = []
    for c in system.constraints:
        if c.rel == "=":
            rows.append(_integer_row(c.coeffs, c.bound, False))
            rows.append(
                _integer_row(tuple(-a for a in c.coeffs), -c.bound, False)
            )
        else:
            rows.append(_integer_row(c.coeffs, c.bound, c.rel == "<"))
    return rows


def _compress(rows: list[_Row]) -> list[_Row] | None:
    """Drop tautologies and dominated rows; None on a ground contradiction."""
    best: dict[tuple[int, ...], tuple[int, bool]] = {}
    for coeffs, bound, strict in rows:
        if not any(coeffs):
            if bound < 0 or (bound == 0 and strict):
                return None
            continue
        prev = best.get(coeffs)
        if prev is None:
            best[coeffs] = (bound, strict)
            continue
        pb, ps = prev
        # smaller bound is tighter; on a tie, strict is tighter
        if bound < pb or (bound == pb and strict and not ps):
            best[coeffs] = (bound, strict)
    return [(c, b, s) for c, (b, s) in sorted(best.items())]


def solve_feasibility(system: LinearSystem) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every constraint, or None.

    Fourier-Motzkin elimination, combining each lower bound with each upper
    bound (the combination is strict when either side is). The elimination
    order is chosen greedily: at each step the variable whose elimination
    adds the fewest rows net (#lowers * #uppers - #lowers - #uppers, the
    classic pivot rule) goes first, with the variable index as a
    deterministic tie-break. Back-substitution walks the eliminated
    variables in reverse, placing each at the midpoint of its residual
    interval (or at a finite endpoint shifted inward by 1 when the interval
    is unbounded on the other side).
    """
    rows = _compress(_normalize(system))
    if rows is None:
        return None
    nv = system.num_vars
    remaining = list(range(nv))
    records: list[tuple[int, list[_Row]]] = []
    while remaining:

        def cost(k: int) -> tuple[int, int]:
            lo = sum(1 for r in rows if r[0][k] < 0)
            hi = sum(1 for r in rows if r[0][k] > 0)
            return (lo * hi - lo - hi, k)

        k = min(remaining, key=cost)
        remaining.remove(k)
        involved = [r for r in rows if r[0][k] != 0]
        passed = [r for r in rows if r[0][k] == 0]
        records.append((k, involved))
        uppers = [r for r in involved if r[0][k] > 0]
        lowers = [r for r in involved if r[0][k] < 0]
        combined: list[_Row] = list(passed)
        for lc, lb, ls in lowers:
            for uc, ub, us in uppers:
                scale_l, scale_u = uc[k], -lc[k]
                coeffs = tuple(
                    scale_l * a + scale_u * b for a, b in zip(lc, uc)
                )
                combined.append(
                    _reduced(coeffs, scale_l * lb + scale_u * ub, ls or us)
                )
        rows = _compress(combined)
        if rows is None:
            return None
    # ground state is consistent; rebuild a witness from the records
    point: list[Fraction | None] = [None] * nv
    for k, involved in reversed(records):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, bound, strict in involved:
            rest = Fraction(0)
            for j in range(nv):
                if j != k and coeffs[j] != 0:
                    xj = point[j]
                    assert xj is not None  # later-eliminated, already placed
                    rest += coeffs[j] * xj
            limit = (bound - rest) / coeffs[k]
            if coeffs[k] > 0:
                if hi is None or limit < hi or (limit == hi and strict):
                    hi, hi_strict = limit, strict
            else:
                if lo is None or limit > lo or (limit == lo and strict):
                    lo, lo_strict = limit, strict
        point[k] = _pick(lo, lo_strict, hi, hi_strict)
    witness = tuple(x if x is not None else Fraction(0) for x in point)
    if not evaluate(system, witness):
        raise RuntimeError(
            "feasibility witness failed re-substitution; elimination bug"
        )
    return witness


def _pick(
    lo: Fraction | None,
    lo_strict: bool,
    hi: Fraction | None,
    hi_strict: bool,
) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        assert hi is not None
        return hi - 1 if hi_strict else hi
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo < hi:
        return (lo + hi) / 2
    if lo == hi and not lo_strict and not hi_strict:
        return lo
    raise RuntimeError("empty interval after elimination; elimination bug")
