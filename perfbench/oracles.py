"""Answer checkers for the benchmark's `mk` jobs.

Each checker recomputes or re-verifies an answer from the input tables the
benchmark generated, in plain Python, and imports nothing from maltkit: a
checker that shared code with the layer it checks would repeat that layer's
mistakes.  A checker returns None when the answer is right and a one-line
reason when it is wrong.
"""

from __future__ import annotations

import itertools
import json
import re


# --- groups -----------------------------------------------------------------

class Group:
    """A finite group given by its multiplication table."""

    def __init__(self, mul):
        self.n = n = int(round(len(mul) ** 0.5))
        self.mul = [list(mul[a * n:(a + 1) * n]) for a in range(n)]
        self.e = next(a for a in range(n) if all(self.mul[a][b] == b for b in range(n)))
        self.inv = [next(b for b in range(n) if self.mul[a][b] == self.e) for a in range(n)]

    def comm(self, a, b):
        m, i = self.mul, self.inv
        return m[m[a][b]][m[i[a]][i[b]]]

    def closure(self, gens) -> frozenset:
        out = {self.e}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in out:
                continue
            out.add(x)
            frontier.extend(self.mul[x][y] for y in list(out))
            frontier.extend(self.mul[y][x] for y in list(out))
        return frozenset(out)

    def commutator(self, h, k) -> frozenset:
        return self.closure(self.comm(a, b) for a in h for b in k)

    def center(self) -> frozenset:
        n, m = self.n, self.mul
        return frozenset(g for g in range(n) if all(m[g][h] == m[h][g] for h in range(n)))

    def is_abelian(self) -> bool:
        return len(self.center()) == self.n

    def whole(self) -> frozenset:
        return frozenset(range(self.n))

    def trivial(self) -> frozenset:
        return frozenset({self.e})

    def next_center(self, z) -> frozenset:
        """Preimage of the center of G/Z: elements commuting with G modulo Z."""
        return frozenset(
            g for g in range(self.n) if all(self.comm(g, x) in z for x in range(self.n))
        )

    def cosets(self, sub) -> frozenset:
        """The congruence of a normal subgroup, as a set of blocks."""
        return frozenset(frozenset(self.mul[x][s] for s in sub) for x in range(self.n))

    def lower_series(self):
        """Lower central series, stopped where maltkit's series stops."""
        whole = self.whole()
        terms = [whole]
        for _ in range(max(self.n - 1, 1)):
            nxt = self.commutator(whole, terms[-1])
            if nxt == terms[-1]:
                break
            terms.append(nxt)
            if nxt == self.trivial():
                break
        cls = next((i for i, t in enumerate(terms) if t == self.trivial()), None)
        return terms, cls

    def upper_series(self):
        terms = [self.trivial()]
        for _ in range(max(self.n - 1, 1)):
            nxt = self.next_center(terms[-1])
            if nxt == terms[-1]:
                break
            terms.append(nxt)
            if nxt == self.whole():
                break
        return terms


def _partition(blocks):
    return frozenset(frozenset(b) for b in blocks)


def _payload(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_commutator(group: Group, r_sub, s_sub, code, out):
    got = (_payload(out) or {}).get("commutator")
    if code != 0 or got is None:
        return f"exit {code}, expected a commutator"
    want = group.cosets(group.commutator(r_sub, s_sub))
    return None if _partition(got) == want else "commutator differs from [N,M] cosets"


def check_center(group: Group, code, out):
    got = (_payload(out) or {}).get("center")
    if code != 0 or got is None:
        return f"exit {code}, expected a center"
    return None if _partition(got) == group.cosets(group.center()) else "center differs from Z(G)"


def check_nilpotence(group: Group, code, out):
    got = _payload(out) or {}
    if code != 0 or "class" not in got:
        return f"exit {code}, expected a nilpotence report"
    lower, cls = group.lower_series()
    if got["class"] != cls:
        return f"class {got['class']}, expected {cls}"
    if got["abelian"] != group.is_abelian():
        return "abelian flag differs from commutativity"
    if [_partition(t) for t in got["lower"]] != [group.cosets(t) for t in lower]:
        return "lower central series differs"
    if [_partition(t) for t in got["upper"]] != [group.cosets(t) for t in group.upper_series()]:
        return "upper central series differs"
    return None


def check_not_abelian(code, out):
    err = (_payload(out) or {}).get("error", {})
    if code == 1 and err.get("code") == "NotAbelian":
        return None
    return f"exit {code} {err.get('code')}, expected NotAbelian on a non-abelian group"


def check_abelian_form(group: Group, code, out):
    """The abelianization of an abelian group with its constant is id: Z_e -> Z_e,
    e the exponent: check the returned ring, module and form up to isomorphism."""
    form = (_payload(out) or {}).get("form")
    if code != 0 or form is None:
        return f"exit {code}, expected a linear form"
    exponent = 1
    for g in range(group.n):
        k, x = 1, g
        while x != group.e:
            x, k = group.mul[x][g], k + 1
        exponent = exponent * k // _gcd(exponent, k)
    ring, module, d = form["ring"], form["module"], form["d"]
    why = _ring_problem(ring) or _module_problem(ring, module)
    if why:
        return why
    n = ring["size"]
    if n != exponent or module["size"] != exponent:
        return f"ring/module of size {n}/{module['size']}, expected exponent {exponent}"
    add = ring["add"]
    x, k = ring["one"], 1
    while x != ring["zero"]:
        x, k = add[x * n + ring["one"]], k + 1
    if k != n:
        return "ring is not cyclic"
    if sorted(d) != list(range(n)):
        return "d is not a bijection"
    madd, act = module["add"], module["act"]
    m = module["size"]
    for a, b in itertools.product(range(m), repeat=2):
        if d[madd[a * m + b]] != add[d[a] * n + d[b]]:
            return "d is not additive"
    for r, a in itertools.product(range(n), range(m)):
        if d[act[r * m + a]] != ring["mul"][r * n + d[a]]:
            return "d is not linear"
    return None


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _ring_problem(ring):
    n, add, mul = ring["size"], ring["add"], ring["mul"]
    zero, one = ring["zero"], ring["one"]
    for a in range(n):
        if add[zero * n + a] != a or mul[one * n + a] != a or mul[a * n + one] != a:
            return "ring zero or one is wrong"
    for a, b, c in itertools.product(range(n), repeat=3):
        if add[add[a * n + b] * n + c] != add[a * n + add[b * n + c]]:
            return "ring addition is not associative"
        if mul[mul[a * n + b] * n + c] != mul[a * n + mul[b * n + c]]:
            return "ring multiplication is not associative"
        if mul[a * n + add[b * n + c]] != add[mul[a * n + b] * n + mul[a * n + c]]:
            return "ring is not distributive"
    if any(add[a * n + b] != add[b * n + a] for a, b in itertools.product(range(n), repeat=2)):
        return "ring addition is not commutative"
    return None


def _module_problem(ring, module):
    n, m = ring["size"], module["size"]
    add, act = module["add"], module["act"]
    radd, rmul = ring["add"], ring["mul"]
    for r, s, a in itertools.product(range(n), range(n), range(m)):
        if act[radd[r * n + s] * m + a] != add[act[r * m + a] * m + act[s * m + a]]:
            return "module action is not additive in the scalar"
        if act[rmul[r * n + s] * m + a] != act[r * m + act[s * m + a]]:
            return "module action is not associative"
    return None


# --- herds ------------------------------------------------------------------

def check_torsor_group(size, commutative, code, out):
    """The group of a herd x*y^-1*z has the herd's order and its commutativity,
    and the class of (x, y) sends y to x."""
    grp = (_payload(out) or {}).get("group")
    if code != 0 or grp is None:
        return f"exit {code}, expected a group"
    n, add, neg, zero = grp["size"], grp["add"], grp["neg"], grp["zero"]
    if n != size:
        return f"group of order {n}, herd has {size} elements"
    for a in range(n):
        if add[zero][a] != a or add[a][zero] != a or add[a][neg[a]] != zero:
            return "group identity or inverse is wrong"
    for a, b, c in itertools.product(range(n), repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return "group operation is not associative"
    is_comm = all(add[a][b] == add[b][a] for a, b in itertools.product(range(n), repeat=2))
    if is_comm != commutative or grp["abelian"] != commutative:
        return "commutativity differs from the herd's group"
    if any(grp["action"][grp["sub"][x][y]][y] != x for x, y in itertools.product(range(n), repeat=2)):
        return "class of (x, y) does not send y to x"
    return None


# --- linear forms -----------------------------------------------------------

def check_roundtrip(ring_size, ring_zero, ring_one, module_size, module_zero, code, out):
    """The payload names isomorphisms from the recovered form to the input but
    not the recovered form itself; check that both are bijections and that the
    recovered zero and one (the first two convex binary terms, x1 and x2, and
    the identity unary term) land on the input's zero and one."""
    got = _payload(out) or {}
    if code != 0 or got.get("ok") is not True:
        return f"exit {code}, ok={got.get('ok')}: the form should be recovered"
    f, g = got["ring_iso"], got["module_iso"]
    if sorted(f) != list(range(ring_size)) or sorted(g) != list(range(module_size)):
        return "ring_iso or module_iso is not a bijection"
    if f[0] != ring_zero or (ring_size > 1 and f[1] != ring_one) or g[0] != module_zero:
        return "isomorphism does not preserve zero and one"
    return None


# --- Maltsev terms ----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\()|(\))|(,))")


def _parse_term(text):
    """Parse the `mk` term syntax f(x1, g(x2), c()) into nested tuples."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad term at {pos}")
        tokens.append(m.group(1) or m.group(2) or m.group(3) or m.group(4))
        pos = m.end()
    stack = [[]]
    for i, tok in enumerate(tokens):
        if tok in ("(", ","):
            continue
        if tok == ")":
            node = stack.pop()
            stack[-1].append(tuple(node))
        elif i + 1 < len(tokens) and tokens[i + 1] == "(":
            stack.append([tok])
        else:
            stack[-1].append(("var", int(tok[1:]) - 1) if re.fullmatch(r"x\d+", tok) else (tok,))
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced term")
    return stack[0][0]


def _eval_term(term, ops, n, memo):
    """Table of a ternary term over n^3 argument triples."""
    if term in memo:
        return memo[term]
    if term[0] == "var":
        k = term[1]
        table = [t[k] for t in itertools.product(range(n), repeat=3)]
    else:
        arity, op = ops[term[0]]
        args = [_eval_term(t, ops, n, memo) for t in term[1:]]
        if len(args) != arity:
            raise ValueError(f"{term[0]} applied to {len(args)} arguments")
        if arity == 0:
            table = [op[0]] * n ** 3
        else:
            table = []
            for vals in zip(*args):
                idx = 0
                for v in vals:
                    idx = idx * n + v
                table.append(op[idx])
    memo[term] = table
    return table


def is_quasigroup(n, table) -> bool:
    rows = all(sorted(table[a * n:(a + 1) * n]) == list(range(n)) for a in range(n))
    cols = all(sorted(table[b::n]) == list(range(n)) for b in range(n))
    return rows and cols


def has_maltsev_term(n, ops, cap=200_000):
    """Decide by subpower membership: the projections restricted to the triples
    (x,y,y) and (y,y,x) generate a subalgebra of A^X; a Maltsev term exists iff
    it contains the tuple reading x at every coordinate.  None past `cap`."""
    coords = sorted({(x, y, y) for x in range(n) for y in range(n)}
                    | {(y, y, x) for x in range(n) for y in range(n)})
    target = tuple(t[0] if t[1] == t[2] else t[2] for t in coords)
    gens = [tuple(t[i] for t in coords) for i in range(3)]
    seen = set(gens)
    elems = list(gens)
    for _, (arity, table) in ops.items():
        if arity == 0:
            c = (table[0],) * len(coords)
            if c not in seen:
                seen.add(c)
                elems.append(c)
    done = 0
    while done < len(elems):
        frontier = len(elems)
        for arity, table in ops.values():
            if arity == 0:
                continue
            for combo in itertools.product(range(frontier), repeat=arity):
                if max(combo) < done:
                    continue
                rows = [elems[i] for i in combo]
                new = []
                for vals in zip(*rows):
                    idx = 0
                    for v in vals:
                        idx = idx * n + v
                    new.append(table[idx])
                new = tuple(new)
                if new not in seen:
                    if new == target:
                        return True
                    seen.add(new)
                    elems.append(new)
                    if len(elems) > cap:
                        return None
        done = frontier
    return target in seen


def check_maltsev_term(n, ops, code, out):
    """ops maps an operation name to (arity, flat table).  A found term is
    re-evaluated on the input tables; `found: false` is checked by subpower
    membership.  The payload's `complete` field is not consulted."""
    got = _payload(out) or {}
    if code != 0 or "found" not in got:
        return f"exit {code}, expected a term search result"
    if not got["found"]:
        binary = [t for a, t in ops.values() if a == 2]
        if len(ops) == 1 and binary and is_quasigroup(n, binary[0]):
            return "a quasigroup has a Maltsev term, but none was found"
        if has_maltsev_term(n, ops):
            return "a Maltsev term exists, but none was found"
        return None
    try:
        table = _eval_term(_parse_term(got["term"]), ops, n, {})
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"witness term does not evaluate: {exc}"
    if got["table"] != table:
        return "reported table differs from the witness term's table"
    for x, y in itertools.product(range(n), repeat=2):
        if table[(x * n + y) * n + y] != x or table[(y * n + y) * n + x] != x:
            return f"witness fails m(x,y,y) = x = m(y,y,x) at x={x}, y={y}"
    return None


# --- spec-file corpus -------------------------------------------------------

def check_derivations(code, out):
    got = _payload(out) or {}
    if code != 0 or "der" not in got:
        return f"exit {code}, expected a derivations report"
    if got["ider"] == 0 or got["der"] % got["ider"] or got["h1_order"] != got["der"] // got["ider"]:
        return "|H1| is not |Der| / |IDer|"
    if got["h0_order"] != len(got["h0"]) or len(got["h1_reps"]) != got["h1_order"]:
        return "orders disagree with the listed representatives"
    return None


def check_verdict(key, value, code, out):
    got = _payload(out) or {}
    if code != 0 or got.get(key) != value:
        return f"exit {code}, {key}={got.get(key)!r}, expected {value!r}"
    return None


def check_golden(golden: str, code, out):
    return None if code == 0 and out == golden else "output differs from the golden file"


def check_any_answer(code, out):
    """Mutated spec files: any answer or diagnostic is legal, if it is JSON."""
    return None if _payload(out) is not None else "stdout is not one JSON document"
