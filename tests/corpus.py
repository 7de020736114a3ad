"""Test corpora that no `mk` verb builds: form-bimodules, split extensions
of linear forms, herds, natural systems on monoids and the with-constants
theory of a ring-module pair, with the builders behind them.  The
structures go through maltkit's constructors, which check their laws.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from maltkit.abgroup import AbelianGroup, extend_additive, smith_normal_form
from maltkit.affinity import AffinityOp
from maltkit.algebra import mixed_index, mixed_unindex
from maltkit.errors import ArityError, InternalError, InvariantViolation
from maltkit.extensions import FormExtension
from maltkit.laws import as_table, first_violation
from maltkit.maltsev import TernaryTable
from maltkit.monoid import FiniteMonoid, NaturalSystemOnMonoid
from maltkit.rings import DBimodule, FiniteRing, LeftModule, LinearForm


# --- abelian groups and bimodules ------------------------------------------

def group_from_presentation(ngens: int, relations: list[list[int]]):
    """Finite abelian group Z^ngens / <relations>.

    Returns (group, coords) where coords maps a generator index to its
    element of the quotient.  Raises if the quotient is infinite.
    """
    diag, V = smith_normal_form(relations, ngens)
    if 0 in diag:
        raise InternalError("presentation does not define a finite group")
    keep = [i for i, d in enumerate(diag) if d != 1]
    moduli = [diag[i] for i in keep]
    size = math.prod(moduli)
    elems = mixed_unindex(moduli, np.arange(size))
    table = mixed_index(moduli, [(x[:, None] + x) % m for x, m in zip(elems, moduli)])
    group = AbelianGroup(size, np.broadcast_to(table, (size, size)))
    # generator g is the element with coordinates V[c][g] mod diag[c]; the
    # entries of V can exceed int64, so they are reduced as Python ints
    residues = np.array([V[c] for c in keep], dtype=object).reshape(len(keep), ngens)
    coords = mixed_index(moduli, residues % np.array(moduli, dtype=object)[:, None])
    return group, np.broadcast_to(coords, ngens).tolist()


def tensor_over_ring(
    ring: FiniteRing,
    bgroup: AbelianGroup,
    bright: np.ndarray,
    module: LeftModule,
):
    """B (x)_R M for a right action `bright` of the ring on B, a (|B|, |R|)
    table, shaped or flat.

    Presented by one generator per pair (b, m) with biadditivity and
    balance relations, collapsed by Smith normal form.  Returns the tensor
    group and the pairing, a (|B|, |M|) array (b, m) -> element.
    """
    nb, nm, nr = bgroup.size, module.size, ring.size
    badd, madd, mact = bgroup.addition, module.addition, module.action
    bright = np.reshape(bright, (nb, nr))
    b1, b2, m = np.indices((nb, nb, nm)).reshape(3, -1)
    b, m1, m2 = np.indices((nb, nm, nm)).reshape(3, -1)
    bb, r, mm = np.indices((nb, nr, nm)).reshape(3, -1)
    # the (b, m) coordinates of the generators of each relation, +1 at the
    # first and -1 at the others: biadditivity in b, in m, then balance
    blocks = []
    for pos, *negs in (((badd[b1, b2], m), (b1, m), (b2, m)),
                       ((b, madd[m1, m2]), (b, m1), (b, m2)),
                       ((bright[bb, r], mm), (bb, mact[r, mm]))):
        cols = np.stack([mixed_index((nb, nm), g) for g in (pos, *negs)], axis=1)
        rows = np.zeros((len(cols), nb * nm), dtype=np.int64)
        np.add.at(rows, (np.arange(len(cols))[:, None], cols), [1] + [-1] * len(negs))
        blocks.append(rows)
    # bound generator orders so the quotient is manifestly finite
    blocks.append(_exponent(bgroup) * np.eye(nb * nm, dtype=np.int64))
    tensor, coords = group_from_presentation(nb * nm, np.vstack(blocks).tolist())
    return tensor, np.reshape(coords, (nb, nm))


def _exponent(g: AbelianGroup) -> int:
    """The least k >= 1 with k a = 0 for every a: the lcm of the orders."""
    a = np.arange(g.size)
    k, v = 1, a
    while (v != g.zero).any():
        k, v = k + 1, g.addition[v, a]
    return k


def shifted_module(form: LinearForm, kmodule: LeftModule, name: str = "") -> DBimodule:
    """The bimodule with B = 0: only the left module K survives."""
    return DBimodule(
        form,
        AbelianGroup.trivial(),
        (0,) * form.ring.size,
        (0,) * form.ring.size,
        kmodule,
        (0,) * kmodule.size,
        (0,) * form.module.size,
        name or f"{kmodule.name}[1]",
    )


def cone_bimodule(
    form: LinearForm,
    bgroup: AbelianGroup,
    bleft,
    bright,
    name: str = "",
) -> DBimodule:
    """The bimodule with K = B (x)_R M, dot the canonical pairing and
    delta(b (x) m) = b * d(m)."""
    R, M, nb = form.ring, form.module, bgroup.size
    bleft = as_table(bleft, (R.size, nb), nb, "bimodule-left-entry", "bimodule-action-length")
    bright = as_table(bright, (nb, R.size), nb, "bimodule-right-entry", "bimodule-action-length")
    tensor, pair = tensor_over_ring(R, bgroup, bright, M)
    pure = pair.ravel().tolist()  # b (x) m in (b, m) order
    # left module structure on the tensor: r.(b (x) m) = (rb) (x) m, an
    # additive map determined by its values on pure tensors
    act = []
    for r in range(R.size):
        images = pair[bleft[r]].ravel().tolist()
        table, conflict = extend_additive(tensor, tensor, zip(pure, images))
        if conflict is not None:
            raise InvariantViolation("tensor-action-ill-defined", (r, conflict))
        if None in table:
            raise InvariantViolation("tensor-not-generated", r)
        act.extend(table)
    kmod = LeftModule(R, tensor.size, tensor.addition, act, name=f"{name}-K")
    # delta(b (x) m) = b d(m), extended additively
    delta, conflict = extend_additive(tensor, bgroup, zip(pure, bright[:, form.d].ravel().tolist()))
    if conflict is not None:
        raise InvariantViolation("tensor-delta-ill-defined", conflict)
    if None in delta:
        raise InvariantViolation("tensor-delta-partial", tensor.size - delta.count(None))
    return DBimodule(
        form, bgroup, bleft, bright, kmod, delta, pair, name or "C(B)"
    )


def regular_bimodule(ring: FiniteRing) -> tuple[AbelianGroup, np.ndarray, np.ndarray]:
    """R as an R-R-bimodule: (group, left action, right action)."""
    return ring.additive_group(), ring.multiplication, ring.multiplication


# --- split extensions, herds and natural systems ----------------------------

def trivial_form_extension(bim: DBimodule, name: str = "") -> FormExtension:
    """The split extension of forms determined by a bimodule: the total
    form is delta + d on K + M -> B + R with the square-zero multiplication
    (b,r)(b',r') = (br' + rb', rr') and action (b,r)(k,m) = (b.m + rk, rm).
    S = B + R and N = K + M are encoded by `mixed_index`, the B and K
    coordinates most significant."""
    form = bim.form
    R, M = form.ring, form.module
    B, K = bim.bgroup, bim.kmodule
    nr, nm, nb, nk = R.size, M.size, B.size, K.size
    radd, rmul, madd, mact = R.addition, R.multiplication, M.addition, M.action
    badd, kadd, kact = B.addition, K.addition, K.action
    lact, ract, dot = bim.bleft, bim.bright, bim.dot
    s_sizes, n_sizes = (nb, nr), (nk, nm)
    b, r = mixed_unindex(s_sizes, np.arange(nb * nr))
    k, m = mixed_unindex(n_sizes, np.arange(nk * nm))
    b1, r1, b2, r2 = b[:, None], r[:, None], b[None], r[None]
    S = FiniteRing(
        nb * nr,
        mixed_index(s_sizes, (badd[b1, b2], radd[r1, r2])),
        mixed_index(s_sizes, (badd[ract[b1, r2], lact[r1, b2]], rmul[r1, r2])),
        mixed_index(s_sizes, (B.zero, R.zero)),
        mixed_index(s_sizes, (B.zero, R.one)),
    )
    k2, m2 = k[None], m[None]
    N = LeftModule(
        S, nk * nm,
        mixed_index(n_sizes, (kadd[k[:, None], k2], madd[m[:, None], m2])),
        mixed_index(n_sizes, (kadd[dot[b1, m2], kact[r1, k2]], mact[r1, m2])),
    )
    total = LinearForm(N, mixed_index(s_sizes, (bim.delta[k], form.d[m])))
    return FormExtension(total, form, r, m, name=name or "split")


def enumerate_herds(size: int) -> tuple[TernaryTable, ...]:
    """All associative Maltsev tables on a carrier of 1 to 4 elements.

    Complete by the torsor <-> group correspondence: every such table is
    phi^-1(phi(x) - phi(y) + phi(z)) for a group structure transported
    along a bijection phi, and every group of order at most 4 is cyclic or
    Klein's, so enumerating those groups and the bijections and
    de-duplicating tables is exhaustive.
    """
    groups = [AbelianGroup.cyclic(size)]
    if size == 4:
        groups.append(AbelianGroup(4, [a ^ b for a in range(4) for b in range(4)]))
    x, y, z = np.indices((size,) * 3)
    tables = set()
    for g in groups:
        for phi in map(np.array, itertools.permutations(range(size))):
            diff = g.addition[g.addition[phi[x], g.neg[phi[y]]], phi[z]]
            tables.add(tuple(np.argsort(phi)[diff].ravel().tolist()))
    return tuple(TernaryTable.full_from_flat(size, t) for t in sorted(tables))


def constant_system(mon: FiniteMonoid, group: AbelianGroup, name: str = "") -> NaturalSystemOnMonoid:
    """All fibres equal with identity actions: the natural system of a
    constant bifunctor."""
    ident = tuple(range(group.size))
    n = mon.size
    return NaturalSystemOnMonoid(
        mon,
        (group,) * n,
        tuple(tuple(ident for _ in range(n)) for _ in range(n)),
        tuple(tuple(ident for _ in range(n)) for _ in range(n)),
        name=name or "constant",
    )


def m2_systems() -> list[NaturalSystemOnMonoid]:
    """Every natural system on M2 = {1, 0} whose two fibres are one of Z2, Z3
    and Z4: the four maps of the absorbing element 0 run over every choice
    of endomorphisms, idempotent ones for its maps D_0 -> D_0 since 0.0 = 0,
    and the systems that pass the constructor's laws are kept (7, 10 and 13
    of them)."""
    mon = FiniteMonoid(2, 0, (0, 1, 1, 1), name="M2")
    out = []
    for n in (2, 3, 4):
        group = AbelianGroup.cyclic(n)
        ends = [tuple(k * d % n for d in range(n)) for k in range(n)]
        ident, idem = ends[1], [e for e in ends if all(e[v] == v for v in e)]
        for l10, l11, r01, r11 in itertools.product(ends, idem, ends, idem):
            try:
                out.append(NaturalSystemOnMonoid(
                    mon, (group, group), ((ident, ident), (l10, l11)), ((ident, r01), (ident, r11))))
            except InvariantViolation:
                pass
    return out


# --- the with-constants theory of a ring-module pair ------------------------

def all_ops(form: LinearForm, arity: int):
    """Every theory operation of the given arity, lexicographically."""
    if arity < 1:
        return
    R, M = form.ring, form.module
    for x in range(M.size):
        for rs in itertools.product(range(R.size), repeat=arity - 1):
            yield AffinityOp(x, rs)


@dataclass(frozen=True)
class TheoryWithConstants:
    """Hom-sets Hom_R(R^k, K + R^n) of the theory of modules-under-K.

    A morphism X^n -> X^k is a k-tuple of elements (kappa_j, rho_j) with
    kappa_j in K and rho_j in R^n; composition pushes kappa through and
    multiplies the matrices.  Unlike the theories of linear forms these
    hom-sets contain constants (n = 0 is allowed) and the empty model is
    excluded.
    """

    ring: FiniteRing
    kmodule: LeftModule

    empty_model_allowed = False

    def hom_size(self, n: int, k: int) -> int:
        return (self.kmodule.size * self.ring.size**n) ** k

    def hom(self, n: int, k: int):
        """All morphisms X^n -> X^k in a stable lexicographic order."""
        K, R = self.kmodule, self.ring
        coords = itertools.product(
            range(K.size), *(range(R.size) for _ in range(n))
        )
        per_coord = [(kv, tuple(rv)) for (kv, *rv) in coords]
        return [
            tuple(choice) for choice in itertools.product(per_coord, repeat=k)
        ]

    def identity(self, n: int):
        K, R = self.kmodule, self.ring
        return tuple(
            (K.zero, tuple(R.one if i == j else R.zero for i in range(n)))
            for j in range(n)
        )

    def compose(self, outer, inner, n: int, l: int):
        """outer: X^n -> X^k after inner: X^l -> X^n (n = middle arity)."""
        K, R = self.kmodule, self.ring
        kadd, kact, radd, rmul = K.addition, K.action, R.addition, R.multiplication
        if len(inner) != n:
            raise ArityError("middle arity mismatch")
        out = []
        for kappa, rho in outer:
            if len(rho) != n:
                raise ArityError("outer row width differs from middle arity")
            k_acc = kappa
            r_acc = [R.zero] * l
            for coeff, (kappa2, rho2) in zip(rho, inner):
                k_acc = int(kadd[k_acc, kact[coeff, kappa2]])
                for t in range(l):
                    r_acc[t] = int(radd[r_acc[t], rmul[coeff, rho2[t]]])
            out.append((k_acc, tuple(r_acc)))
        return tuple(out)

    def project(self, morphism):
        """Forget the K-components: the image in the theory of R-modules."""
        return tuple(rho for _, rho in morphism)

    def check_linear_extension_identities(self, max_arity: int = 2) -> bool:
        """The two subtraction identities of a linear extension, verified on
        all composable pairs up to the given arity.  Each hom-set is encoded
        once as arrays of its kappa (H, k) and rho (H, k, n) parts, and
        composition as a table of the kappa parts of all composites."""
        K = self.kmodule
        kadd, kact = K.addition, K.action
        kminus = kadd[:, K.additive_group().neg]
        homs, parts = {}, {}
        for n, k in itertools.product(range(max_arity + 1), repeat=2):
            homs[n, k] = hom = self.hom(n, k)
            parts[n, k] = (np.array([[kv for kv, _ in h] for h in hom], dtype=np.int64),
                           np.array([[rv for _, rv in h] for h in hom],
                                    dtype=np.int64).reshape(len(hom), k, n))
        for n, k, l in itertools.product(range(max_arity + 1), range(1, max_arity + 1),
                                         range(max_arity + 1)):
            comp = np.array([[[kv for kv, _ in self.compose(e1, e2, n, l)] for e2 in homs[l, n]]
                             for e1 in homs[n, k]], dtype=np.int64)
            (kap1, rho1), (kap2, rho2) = parts[n, k], parts[l, n]
            same = lambda rho, a, b: (rho[a] == rho[b]).all((-2, -1))
            # P(e1)(e2 - e2'): the R-matrix of e1 applied to a K-difference
            matvec = lambda a, diff: functools.reduce(
                lambda u, v: kadd[u, v], np.moveaxis(kact[rho1[a], diff[..., None, :]], -1, 0),
                K.zero)
            if first_violation((len(kap1), len(kap2), len(kap2)), [
                ("left-subtraction", lambda a, b, c: ~same(rho2, b, c) | (
                    kminus[comp[a, b], comp[a, c]] == matvec(a, kminus[kap2[b], kap2[c]])
                ).all(-1)),
            ]) or first_violation((len(kap1), len(kap1), len(kap2)), [
                # the right action on differences is trivial: composition is
                # affine in the outer K-part
                ("right-subtraction", lambda a, b, c: ~same(rho1, a, b) | (
                    kminus[comp[a, c], comp[b, c]] == kminus[kap1[a], kap1[b]]).all(-1)),
            ]):
                return False
        return True

