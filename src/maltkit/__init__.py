"""maltkit: a workbench for finite Maltsev algebras.

Operation-table algebras with congruence lattices and commutator calculus,
herd/torsor structure with the associated groups, the abelian theories
classified by linear forms d: M -> R (with abelianization round-trip,
derivations and low cohomology), and linear extensions of finite monoids
by natural systems, including a built-in counterexample showing that a
linear extension of non-Maltsev theories need not have abelian unit maps.
"""

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    Operation,
    TermOp,
    is_homomorphism,
    product,
    subuniverse_generate,
    term_clone,
)
from .congruence import (
    Congruence,
    all_congruences,
    cg,
    compose,
    join,
    meet,
    quotient,
    quotient_congruence,
)
from .maltsev import (
    TernaryTable,
    TorsorGroup,
    central_torsor_check,
    check_associative,
    check_commutative,
    check_maltsev,
    enumerate_herds,
    find_maltsev_term,
    reconstruct_table,
    torsor_to_group,
)
from .commutator import (
    SeriesReport,
    center,
    centralize,
    commutator,
    is_abelian,
    lower_series,
    nilpotence_class,
    upper_series,
)
from .rings import DBimodule, FiniteRing, LeftModule, LinearForm
from .affinity import (
    AffinityOp,
    TheoryWithConstants,
    abelianize,
    affinity_axiom_check,
    canonical_maltsev,
    compose_affinity,
    pseudoconstants,
    roundtrip_check,
)
from .extensions import (
    FormExtension,
    crext_check,
    enumerate_derivations,
    lift_maltsev,
)
from .monoid import (
    FiniteMonoid,
    MonoidExtension,
    NaturalSystemOnMonoid,
    check_linear_extension,
    check_untwisted,
    counterexample_harness,
    trivial_extension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
