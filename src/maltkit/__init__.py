"""maltkit: a workbench for finite Maltsev algebras.

Operation-table algebras with congruence lattices and commutator calculus,
herd/torsor structure with the associated groups, the abelian theories
classified by linear forms d: M -> R (with abelianization round-trip,
derivations and low cohomology), and linear extensions of finite monoids
by natural systems, including a built-in counterexample showing that a
linear extension of non-Maltsev theories need not have abelian unit maps.

The entry point is the `mk` command (`maltkit.cli.main`).  The package
re-exports nothing: the library is imported by submodule, for instance
`from maltkit.commutator import commutator`.
"""

__version__ = "0.1.0"
