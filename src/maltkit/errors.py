"""Exception hierarchy shared by all maltkit modules."""


class MaltkitError(Exception):
    """Base class for domain errors (CLI exit code 1)."""


class InvariantViolation(MaltkitError):
    """A structural invariant failed on construction.

    Carries the name of the violated law and a concrete witness so the
    spec-file loader can turn it into a positioned diagnostic.
    """

    def __init__(self, law, witness=None, message=None):
        self.law = law
        self.witness = witness
        text = message or f"invariant '{law}' violated"
        if witness is not None:
            text += f" (witness: {witness})"
        super().__init__(text)


class SignatureError(MaltkitError):
    """Operation signatures of combined algebras do not match."""


class NotACongruence(MaltkitError):
    """A partition fails compatibility with some operation."""


class DomainError(MaltkitError):
    """A ternary table was consulted outside its declared domain."""


class NotAHerd(MaltkitError):
    """Input table is not an associative Maltsev operation."""


class EmptyTorsor(MaltkitError):
    """Torsor constructions reject the empty carrier."""


class NotMaltsev(MaltkitError):
    """Supplied term is not a Maltsev operation of the algebra."""


class NotAbelian(MaltkitError):
    """Abelianization requires an abelian algebra."""


class ArityError(MaltkitError):
    """Arities of composed operations do not match."""


class DiagramError(MaltkitError):
    """An extension diagram does not commute or is not exact."""


class InternalError(MaltkitError):
    """A verified-by-construction step failed its post-hoc check.

    Signals that an invalid input slipped through validation, never a
    condition the caller is expected to handle.
    """


class CounterexampleBroken(MaltkitError):
    """The built-in counterexample harness did not reproduce its report."""


class BudgetError(MaltkitError):
    """Base class for budget exhaustion (CLI exit code 2).  A clone budget
    error also tells the closure round it reached and the argument tuples
    it tried."""

    def __init__(self, message, count=None, round=None, combos_tried=None):
        self.count, self.round, self.combos_tried = count, round, combos_tried
        super().__init__(message)


class CloneBudgetExceeded(BudgetError):
    """Clone generation hit the element budget before completing."""


class DerBudgetExceeded(BudgetError):
    """Derivation enumeration exceeded its budget."""


class SearchBudgetExceeded(BudgetError):
    """An exhaustive search space is larger than the configured bound."""
