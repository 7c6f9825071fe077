"""Multilinear spin polynomials for NAE-K-SAT objectives.

A clause over literals t_i = sign_i * s_i is NAE-unsatisfied exactly when
all literal values coincide.  That indicator expands as

    h = 2^-(K-1) * sum over even r of e_r(t_1, ..., t_K)

where e_r is the degree-r elementary symmetric polynomial (e_0 = 1):
all-equal means prod (1+t_i)/2 + prod (1-t_i)/2, and the odd-degree terms
cancel in the sum of products.  Folding the literal signs into the
monomial coefficients gives a polynomial over the raw spins s whose
coefficients are dyadic rationals of magnitude 2^-(K-1); they are kept as
exact :class:`fractions.Fraction` values so that indicator and objective
identities hold with zero tolerance.  Summing h over clauses yields an
objective whose value at any spin assignment equals the number of
unsatisfied clauses.  The solver does not call this exact reference; its
scorer ``count_satisfied`` lives in :mod:`instances` (re-exported here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .instances import CnfInstance, check_clause_width, count_satisfied  # noqa: F401


@dataclass(frozen=True)
class InteractionPolynomial:
    """Multilinear polynomial over Ising spins.

    ``terms`` maps a strictly increasing tuple of 1-based variable indices
    to its coefficient; ``constant`` is the degree-0 part.  Use
    :func:`make_polynomial` to merge and canonicalize raw term lists.
    """

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    constant: Fraction = field(default_factory=lambda: Fraction(0))

    def __post_init__(self):
        seen = set()
        for variables, _coeff in self.terms:
            if any(b <= a for a, b in zip(variables, variables[1:])) or not variables:
                raise ValueError(f"term indices must be strictly increasing, got {variables}")
            if variables[0] < 1:
                raise ValueError(f"variable indices are 1-based, got {variables}")
            if variables in seen:
                raise ValueError(f"duplicate term {variables}; merge coefficients first")
            seen.add(variables)


def make_polynomial(entries, constant=Fraction(0)) -> InteractionPolynomial:
    """Build a canonical polynomial from (variables, coefficient) pairs.

    Merges duplicate tuples, drops zero coefficients, sorts terms by
    (order, indices).
    """
    merged: dict[tuple[int, ...], Fraction] = {}
    for variables, coeff in entries:
        key = tuple(variables)
        merged[key] = merged.get(key, Fraction(0)) + Fraction(coeff)
    terms = tuple(
        (vs, c) for vs, c in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0])) if c != 0
    )
    return InteractionPolynomial(terms=terms, constant=Fraction(constant))


def expand_clause(literals) -> InteractionPolynomial:
    """Expand one clause's NAE-unsatisfied indicator into spin monomials.

    ``literals`` is a sequence of signed variable indices.  The result
    evaluates to 1 when all literal values are equal and 0 otherwise.
    Only even-order terms appear; every coefficient has magnitude
    2^-(K-1) with sign equal to the product of the subset's literal signs.
    """
    lits = _normalize_literals(literals)
    k = len(lits)
    if k < 2:
        raise ValueError("clause must have at least 2 literals")
    if len({v for v, _ in lits}) != k:
        raise ValueError("clause repeats a variable")
    lits.sort()
    unit = Fraction(1, 2 ** (k - 1))
    entries = []
    for r in range(2, k + 1, 2):
        for subset in combinations(lits, r):
            sign = 1
            for _v, s in subset:
                sign *= s
            entries.append((tuple(v for v, _ in subset), sign * unit))
    return make_polynomial(entries, constant=unit)


def build_objective(instance: CnfInstance) -> InteractionPolynomial:
    """Sum of per-clause indicators; its value at any assignment is the
    number of unsatisfied clauses, so minimizing it maximizes satisfaction."""
    check_clause_width(instance.k)
    entries = []
    constant = Fraction(0)
    for clause in instance.clauses:
        part = expand_clause(clause)
        entries.extend(part.terms)
        constant += part.constant
    return make_polynomial(entries, constant=constant)


def evaluate(poly: InteractionPolynomial, spins) -> Fraction:
    """Evaluate the polynomial at a spin assignment (entries in {-1,+1}).

    Exact when coefficients are rationals: the result is a Fraction and
    integer-valued objectives compare exactly against counts.
    """
    s = [int(x) for x in spins]
    n = len(s)
    total = poly.constant
    for variables, coeff in poly.terms:
        prod = 1
        for v in variables:
            if v > n:
                raise IndexError(f"variable {v} out of range for {n} spins")
            prod *= s[v - 1]
        total += coeff * prod
    return total


def _normalize_literals(literals) -> list[tuple[int, int]]:
    out = []
    for lit in literals:
        if int(lit) == 0:
            raise ValueError(f"bad literal {lit!r}")
        out.append((abs(int(lit)), 1 if int(lit) > 0 else -1))
    return out
