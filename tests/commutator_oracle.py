"""Lattice oracle for the commutator, used to cross-check `maltkit.commutator`.

[R, S] is the least congruence T such that R/T and S/T centralise each
other in A/T.  The oracle meets every congruence with that property, so it
relies on centrality alone and not on the pair-algebra generation that
`commutator` runs.
"""

from maltkit.commutator import _project_term, _require_maltsev, centralize
from maltkit.congruence import Congruence, all_congruences, meet, quotient, quotient_congruence


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
