"""Lattice oracle for the commutator, used to cross-check `maltkit.commutator`.

[R, S] is the least congruence T such that R/T and S/T centralise each
other in A/T.  The oracle meets every congruence with that property, so it
relies on centrality alone and not on the pair-algebra generation that
`commutator` runs.  The congruence lattice it ranges over is enumerated here
too, by joins of principal congruences.
"""

from maltkit.commutator import _project_term, _require_maltsev, centralize
from maltkit.congruence import Congruence, join, principal_congruences, quotient
from maltkit.errors import BudgetError, InvariantViolation

DEFAULT_LATTICE_BUDGET = 100_000


class LatticeBudgetExceeded(BudgetError):
    """Congruence lattice enumeration exceeded its budget or size cap."""


def meet(c1: Congruence, c2: Congruence) -> Congruence:
    if c1.size != c2.size:
        raise InvariantViolation("meet-same-carrier", (c1.size, c2.size))
    return Congruence.from_labels(list(zip(c1.block_index, c2.block_index)))


def all_congruences(alg, budget: int = DEFAULT_LATTICE_BUDGET) -> tuple[Congruence, ...]:
    """The complete congruence lattice.

    Every congruence is the join of the principal congruences below it, so
    the lattice is the closure of the principal congruences under joining
    with a principal congruence.  The budget counts the joins performed;
    each congruence past the principal ones costs at least one, so it
    bounds the output as well as the work.
    """
    found: dict[tuple, Congruence] = {}
    diag = Congruence.diagonal(alg.size)
    found[diag.block_index] = diag
    principals = principal_congruences(alg)
    for c in principals:
        found.setdefault(c.block_index, c)
    frontier = list(found.values())
    joins = 0
    while frontier:
        fresh = []
        for c1 in frontier:
            for c2 in principals:
                if joins >= budget:
                    raise LatticeBudgetExceeded(
                        f"lattice budget {budget} exceeded: {joins} joins, "
                        f"{len(found)} congruences found",
                        count=joins,
                    )
                joins += 1
                j = join(alg, c1, c2)
                if j.block_index not in found:
                    found[j.block_index] = j
                    fresh.append(j)
        frontier = fresh
    return tuple(sorted(found.values(), key=lambda c: c.block_index))


def quotient_congruence(alg, theta: Congruence, below: Congruence) -> Congruence:
    """Image of theta on the quotient by `below`.

    `below <= theta` is not required: the result is the congruence on
    M/below whose preimage is join(theta, below).
    """
    j = join(alg, theta, below)
    return Congruence.from_labels([j.block_index[block[0]] for block in below.blocks()])


def commutator_oracle(alg, R, S, p):
    """The meet of all congruences T whose quotient makes R/T and S/T
    centralise each other."""
    _require_maltsev(alg, p)
    acc = Congruence.total(alg.size)
    for T in all_congruences(alg):
        qalg, _ = quotient(alg, T)
        if centralize(qalg, quotient_congruence(alg, R, T), quotient_congruence(alg, S, T),
                      _project_term(p, T)):
            acc = meet(acc, T)
    return acc
