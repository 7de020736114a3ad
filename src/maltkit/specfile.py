"""Line-oriented spec files for every entity the toolkit computes with.

A spec file is a sequence of entities: a keyword, a new NAME, for some kinds
`on REF` or `over REF` naming an earlier entity, and clauses in braces.  A
clause is `word INT`, `word REF` or `word = [INT ..]`, a flat row-major
table; `#` comments run to the end of the line.  The grammar, with n the
size and each table's length in its brackets:

    algebra NAME { size n (op NAME/k = [n**k])* }
    cong NAME on ALGEBRA { blocks: INT* (| INT*)* }
    tern NAME { size n [base [n] fibered|mixed] table: ((INT INT INT -> INT))* }
    monoid NAME { size n unit INT mul = [n*n] }
    natsys NAME on MONOID { (group x { size g add = [g*g] }
                             | left b x = [..] | right x b = [..])* }
    ring NAME { size n add = [n*n] mul = [n*n] }
    module NAME over RING { size n add = [n*n] act = [r*n] }
    form NAME on MODULE { d = [m] }
    bimodule NAME on FORM { bsize b badd = [b*b] bleft = [r*b] bright = [b*r]
                            ksize k kadd = [k*k] kact = [r*k] delta = [k] dot = [b*m] }
    extension NAME { total MONOID base MONOID system NATSYS proj = [|total|] (act b = [..])* }
    crext NAME { total FORM base FORM pmap = [r] qmap = [m] }

r and m are the sizes of the ring and the module behind the REF (for a
crext, behind the total FORM).  A tern has one entry per triple of its
domain: the cube, or with `base p` the triples with p(x) = p(y) = p(z)
(fibered) or p(x) = p(y) (mixed).  A natsys needs a group for every element
x of the monoid and a left and a right action for every pair; an omitted
action of the unit is the identity.  An extension needs an action for every
element b of the base.

Definitions must precede uses, and every entity runs its full invariant
suite at load time.  A failure is a Diagnostic with a stable code and the
line and column of a token:

    E_SYNTAX     a token the grammar does not allow there, at that token;
                 also a repeated tern triple, at its `(`
    E_TABLE_LEN  a table whose length is not the one its clause fixes, at `[`
    E_RANGE      an integer outside the 64-bit range, at the integer; an
                 algebra table entry outside 0..n-1, at `[`; a tern entry
                 whose triple is outside the declared domain, at its `(`
    E_DUP_NAME   a NAME already given to an entity of any kind
    E_DANGLING   a REF that names no earlier entity of its kind
    E_INVARIANT  a law the entity fails, at its NAME (a natsys group's, at
                 its `group`): a constructor's law with its witness, a
                 partition that is not a congruence, or a missing natsys
                 group or action or extension action
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .abgroup import AbelianGroup
from .algebra import FiniteAlgebra, Operation
from .congruence import Congruence, congruence_violation
from .errors import InvariantViolation, MaltkitError
from .extensions import FormExtension
from .maltsev import FIBERED, FULL, MIXED, TernaryTable
from .monoid import FiniteMonoid, MonoidExtension, NaturalSystemOnMonoid
from .rings import DBimodule, FiniteRing, LeftModule, LinearForm


class Diagnostic(MaltkitError):
    def __init__(self, code: str, line: int, col: int, message: str):
        self.code, self.line, self.col = code, line, col
        super().__init__(f"{code} at {line}:{col}: {message}")

    def to_json(self):
        return {"code": self.code, "line": self.line, "col": self.col, "message": str(self)}


@dataclass
class Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


# A token of a line without its comment, or a character that starts none:
# punctuation, an integer in the decimal digits int() reads, a word (an
# identifier if it starts with a letter or "_") or anything but a blank.
_TOKEN = re.compile(r"(?P<punct>->|[{}\[\]()=|/:,])|(?P<int>-?\d+)|(?P<ident>\w+)"
                    r"|(?P<bad>[^ \t\r])")
# Every table is an int64 array, so a literal outside int64 is never usable.
_INT64 = range(-2**63, 2**63)
_PRINTABLE = 10**4300


def _lex(text: str) -> list[Token]:
    tokens = []
    for line, row in enumerate(text.split("\n"), 1):
        row = row.split("#", 1)[0]
        for m in _TOKEN.finditer(row):
            kind, word = m.lastgroup, m.group()
            if kind == "bad" or kind == "ident" and not (word[0].isalpha() or word[0] == "_"):
                raise Diagnostic("E_SYNTAX", line, m.start() + 1,
                                 f"unexpected character {word[0]!r}")
            tokens.append(Token(kind, word, line, m.start() + 1))
    tokens.append(Token("eof", "", line, len(row) + 1))
    return tokens


def _table_len(size: int, arity: int):
    """size**arity, the length of an operation table, if it has at most 4300
    digits (str() prints no more); else its text, which no length equals.
    size**arity >= 2**(arity * (bits - 1)) and 10**4300 < 2**14285, so a
    value past that bound is not computed, nor 0 to a negative power."""
    if size >= 2 and arity * (size.bit_length() - 1) > 14285 or size == 0 > arity:
        return f"{size}**{arity}"
    n = size**arity
    return n if n < _PRINTABLE else f"{size}**{arity}"


@dataclass
class SpecDocument:
    algebras: dict = field(default_factory=dict)
    congruences: dict = field(default_factory=dict)  # name -> (alg name, Congruence)
    terns: dict = field(default_factory=dict)
    monoids: dict = field(default_factory=dict)
    systems: dict = field(default_factory=dict)
    rings: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    bimodules: dict = field(default_factory=dict)
    extensions: dict = field(default_factory=dict)
    crexts: dict = field(default_factory=dict)

    def summary(self):
        return {kind: sorted(getattr(self, kind)) for kind in _ENTITIES.values()}


# entity keyword -> the SpecDocument field that keeps its entities
_ENTITIES = {"algebra": "algebras", "cong": "congruences", "tern": "terns", "monoid": "monoids",
             "natsys": "systems", "ring": "rings", "module": "modules", "form": "forms",
             "bimodule": "bimodules", "extension": "extensions", "crext": "crexts"}


class _Parser:
    def __init__(self, text: str, doc: SpecDocument | None = None):
        self.tokens = _lex(text)
        self.pos = 0
        self.doc = doc if doc is not None else SpecDocument()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def err(self, code, tok, message):
        raise Diagnostic(code, tok.line, tok.col, message)

    def expect_punct(self, text):
        t = self.next()
        if t.kind != "punct" or t.text != text:
            self.err("E_SYNTAX", t, f"expected {text!r}, found {t.text!r}")
        return t

    def expect_ident(self, what="identifier"):
        t = self.next()
        if t.kind != "ident":
            self.err("E_SYNTAX", t, f"expected {what}, found {t.text!r}")
        return t

    def expect_keyword(self, word):
        t = self.expect_ident(f"keyword {word!r}")
        if t.text != word:
            self.err("E_SYNTAX", t, f"expected {word!r}, found {t.text!r}")

    def expect_int(self) -> int:
        t = self.next()
        if t.kind != "int":
            self.err("E_SYNTAX", t, f"expected integer, found {t.text!r}")
        return self.int64(t) if len(t.text) > 18 else int(t.text)

    def int64(self, tok) -> int:
        # the digit count first: int() refuses over 4300 digits
        if len(tok.text.lstrip("-0")) > 19 or int(tok.text) not in _INT64:
            self.err("E_RANGE", tok, "integer outside the 64-bit range")
        return int(tok.text)

    def at(self, text) -> bool:
        """Whether the next token is this keyword or punctuation."""
        return self.tokens[self.pos].text == text

    def ints(self) -> tuple[int, ...]:
        """The run of integer tokens at the cursor."""
        start = end = self.pos
        while self.tokens[end].kind == "int":
            end += 1
        self.pos = end
        texts = [t.text for t in self.tokens[start:end]]
        if texts and max(map(len, texts)) > 18:
            return tuple(map(self.int64, self.tokens[start:end]))
        return tuple(map(int, texts))

    def table(self, n=None) -> tuple[int, ...]:
        """`[INT ..]` with n entries, or any number if n is None.  n may be
        the text of a length too large to compute, which no table has."""
        open_tok = self.expect_punct("[")
        values = self.ints()
        self.expect_punct("]")
        if n is not None and len(values) != n:
            self.err("E_TABLE_LEN", open_tok, f"table has {len(values)} entries, expected {n}")
        return values

    def header(self, what, link=None, kind=None):
        """`NAME [link REF] {`: the NAME token, the REF token and its entity."""
        tok = self.expect_ident(f"{what} name")
        if any(tok.text in getattr(self.doc, k) for k in _ENTITIES.values()):
            self.err("E_DUP_NAME", tok, f"name {tok.text!r} already defined")
        ref = self.ref(link, kind) if link else (None, None)
        self.expect_punct("{")
        return (tok, *ref)

    def number(self, word) -> int:
        """`word INT`."""
        self.expect_keyword(word)
        return self.expect_int()

    def clause(self, word, n=None) -> tuple[int, ...]:
        """`word = [..]` with n entries."""
        self.expect_keyword(word)
        self.expect_punct("=")
        return self.table(n)

    def ref(self, word, kind):
        """`word REF` naming an entity of the kind, kept in the document field
        kind + "s": the REF token and the entity."""
        self.expect_keyword(word)
        tok = self.expect_ident(f"{kind} name")
        entity = getattr(self.doc, kind + "s").get(tok.text)
        if entity is None:
            self.err("E_DANGLING", tok, f"unknown {kind} {tok.text!r}")
        return tok, entity

    def build(self, tok, ctor, *args, **kwargs):
        try:
            return ctor(*args, **kwargs)
        except MaltkitError as exc:
            self.err("E_INVARIANT", tok, str(exc))

    # --- entity parsers ---------------------------------------------------

    def parse_document(self) -> SpecDocument:
        while self.peek().kind != "eof":
            t = self.expect_ident("entity keyword")
            if t.text not in _ENTITIES:
                self.err("E_SYNTAX", t, f"unknown entity kind {t.text!r}")
            tok, entity = getattr(self, f"parse_{t.text}")()
            getattr(self.doc, _ENTITIES[t.text])[tok.text] = entity
        return self.doc

    def parse_algebra(self):
        tok = self.header("algebra")[0]
        size = self.number("size")
        ops = []
        while self.at("op"):
            self.next()
            op_name = self.expect_ident("operation name").text
            self.expect_punct("/")
            arity = self.expect_int()
            self.expect_punct("=")
            open_tok = self.peek()
            values = self.table(_table_len(size, arity) if size >= 0 else None)
            for v in values:
                if not 0 <= v < size:
                    self.err("E_RANGE", open_tok, f"table entry {v} outside 0..{size - 1}")
            ops.append(Operation(op_name, arity, values))
        self.expect_punct("}")
        return tok, self.build(tok, FiniteAlgebra, size, tuple(ops), name=tok.text)

    def parse_cong(self):
        tok, alg_tok, alg = self.header("congruence", "on", "algebra")
        self.expect_keyword("blocks")
        self.expect_punct(":")
        blocks = [self.ints()]
        while self.at("|"):
            self.next()
            blocks.append(self.ints())
        self.expect_punct("}")
        cong = self.build(tok, Congruence.from_blocks, alg.size, blocks)
        witness = congruence_violation(alg, cong)
        if witness is not None:
            self.err("E_INVARIANT", tok,
                     f"partition is not compatible with {alg.name or alg_tok.text}: "
                     f"elements {witness[1]} and {witness[2]} split under a translation")
        return tok, (alg_tok.text, cong)

    def parse_tern(self):
        tok = self.header("table")[0]
        size = self.number("size")
        kind, base = FULL, None
        if self.at("base"):
            self.next()
            base = self.table(size)
            kind_tok = self.expect_ident("domain kind")
            if kind_tok.text not in (FIBERED, MIXED):
                self.err("E_SYNTAX", kind_tok, "expected 'fibered' or 'mixed'")
            kind = kind_tok.text
        self.expect_keyword("table")
        self.expect_punct(":")
        mapping, opens = {}, []
        while self.at("("):
            opens.append(self.next())
            triple = (self.expect_int(), self.expect_int(), self.expect_int())
            self.expect_punct("->")
            v = self.expect_int()
            self.expect_punct(")")
            if triple in mapping:
                self.err("E_SYNTAX", opens[-1], f"duplicate entry for {triple}")
            mapping[triple] = v
        self.expect_punct("}")
        try:
            return tok, TernaryTable.from_entries(size, kind, base, mapping, tok.text)
        except InvariantViolation as exc:
            if exc.law != "tern-entry-domain":
                self.err("E_INVARIANT", tok, str(exc))
            self.err("E_RANGE", opens[list(mapping).index(exc.witness)],
                     f"entry {exc.witness} outside the declared domain")

    def parse_monoid(self):
        tok = self.header("monoid")[0]
        size, unit = self.number("size"), self.number("unit")
        mul = self.clause("mul", size * size)
        self.expect_punct("}")
        return tok, self.build(tok, FiniteMonoid, size, unit, mul, name=tok.text)

    def parse_natsys(self):
        tok, _, mon = self.header("system", "on", "monoid")
        groups, actions = {}, {}
        while True:
            t = self.peek()
            if self.at("group"):
                x = self.number("group")
                self.expect_punct("{")
                gsize = self.number("size")
                add = self.clause("add", gsize * gsize)
                self.expect_punct("}")
                groups[x] = self.build(t, AbelianGroup, gsize, add)
            elif self.at("left") or self.at("right"):
                self.next()
                key = (t.text, self.expect_int(), self.expect_int())
                self.expect_punct("=")
                actions[key] = self.table()
            else:
                break
        self.expect_punct("}")
        n = mon.size
        for x in range(n):
            if x not in groups:
                self.err("E_INVARIANT", tok, f"missing group for element {x}")

        def action(side, i, j):
            # `left b x` or `right x b`; the unit acts as the identity unless given
            b, x = (i, j) if side == "left" else (j, i)
            unit = tuple(range(groups[x].size)) if b == mon.unit else None
            return actions.get((side, i, j), unit) or self.err(
                "E_INVARIANT", tok, f"missing {side} action {i} {j}")

        rows = {side: tuple(tuple(action(side, i, j) for j in range(n)) for i in range(n))
                for side in ("left", "right")}
        return tok, self.build(
            tok, NaturalSystemOnMonoid, mon, tuple(groups[x] for x in range(n)),
            rows["left"], rows["right"], name=tok.text)

    def parse_ring(self):
        tok = self.header("ring")[0]
        size = self.number("size")
        add, mul = self.clause("add", size * size), self.clause("mul", size * size)
        self.expect_punct("}")
        return tok, self.build(tok, FiniteRing.from_tables, add, mul, tok.text)

    def parse_module(self):
        tok, _, ring = self.header("module", "over", "ring")
        size = self.number("size")
        add, act = self.clause("add", size * size), self.clause("act", ring.size * size)
        self.expect_punct("}")
        return tok, self.build(tok, LeftModule, ring, size, add, act, name=tok.text)

    def parse_form(self):
        tok, _, module = self.header("form", "on", "module")
        d = self.clause("d", module.size)
        self.expect_punct("}")
        return tok, self.build(tok, LinearForm, module, d, name=tok.text)

    def parse_bimodule(self):
        tok, _, form = self.header("bimodule", "on", "form")
        r = form.ring.size
        b = self.number("bsize")
        badd, bleft, bright = (self.clause(w, n) for w, n in
                               (("badd", b * b), ("bleft", r * b), ("bright", b * r)))
        k = self.number("ksize")
        kadd, kact, delta, dot = (self.clause(w, n) for w, n in (
            ("kadd", k * k), ("kact", r * k), ("delta", k), ("dot", b * form.module.size)))
        self.expect_punct("}")
        bgroup = self.build(tok, AbelianGroup, b, badd)
        kmod = self.build(tok, LeftModule, form.ring, k, kadd, kact)
        return tok, self.build(tok, DBimodule, form, bgroup, bleft, bright, kmod, delta, dot,
                               name=tok.text)

    def parse_extension(self):
        tok = self.header("extension")[0]
        total = self.ref("total", "monoid")[1]
        base = self.ref("base", "monoid")[1]
        system = self.ref("system", "system")[1]
        proj = self.clause("proj", total.size)
        actions = {}
        while self.at("act"):
            b = self.number("act")
            self.expect_punct("=")
            actions[b] = self.table()
        self.expect_punct("}")
        for b in range(base.size):
            if b not in actions:
                self.err("E_INVARIANT", tok, f"missing action table for {b}")
        return tok, self.build(
            tok, MonoidExtension, total, base, proj, system,
            tuple(actions[b] for b in range(base.size)), name=tok.text)

    def parse_crext(self):
        tok = self.header("diagram")[0]
        total = self.ref("total", "form")[1]
        base = self.ref("base", "form")[1]
        pmap, qmap = self.clause("pmap", total.ring.size), self.clause("qmap", total.module.size)
        self.expect_punct("}")
        return tok, self.build(tok, FormExtension, total, base, pmap, qmap, name=tok.text)


def parse(text: str, doc: SpecDocument | None = None) -> SpecDocument:
    return _Parser(text, doc).parse_document()


def parse_files(paths) -> SpecDocument:
    doc = SpecDocument()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parse(fh.read(), doc)
    return doc


# --- serialisation ----------------------------------------------------------

def _name(store, entity) -> str:
    """The name a store keeps the entity under, else the entity's own."""
    return next((k for k, v in store.items() if v == entity), entity.name)


def _clauses(*clauses) -> str:
    """`word value` for an integer or a name, `word = [..]` for a table."""
    return " ".join(f"{w} {v}" if isinstance(v, (int, str)) else
                    f"{w} = [{' '.join(map(str, np.ravel(v).tolist()))}]" for w, v in clauses)


def serialize(doc: SpecDocument) -> str:
    out = []

    def put(keyword, name, body, link=""):
        out.append(f"{keyword} {name}{link} {{ {body} }}")

    for name, alg in sorted(doc.algebras.items()):
        put("algebra", name, _clauses(("size", alg.size), *(
            (f"op {op.name}/{op.arity}", op.table) for op in alg.ops)))
    for name, (alg_name, cong) in sorted(doc.congruences.items()):
        blocks = " | ".join(" ".join(map(str, b)) for b in cong.blocks())
        put("cong", name, f"blocks: {blocks}", f" on {alg_name}")
    for name, tern in sorted(doc.terns.items()):
        base = f" base [{' '.join(map(str, tern.base))}] {tern.kind}" if tern.kind != FULL else ""
        entries = " ".join(f"({x} {y} {z} -> {tern(x, y, z)})" for x, y, z in tern.domain())
        put("tern", name, f"size {tern.size}{base} table: {entries}")
    for name, mon in sorted(doc.monoids.items()):
        put("monoid", name, _clauses(("size", mon.size), ("unit", mon.unit),
                                     ("mul", mon.multiplication)))
    for name, sys_ in sorted(doc.systems.items()):
        n = range(sys_.monoid.size)
        groups = (f"group {x} {{ {_clauses(('size', g.size), ('add', g.addition))} }}"
                  for x, g in enumerate(sys_.groups))
        put("natsys", name, " ".join([*groups, _clauses(
            *((f"left {b} {x}", sys_.left[b][x]) for b in n for x in n),
            *((f"right {x} {b}", sys_.right[x][b]) for x in n for b in n))]),
            f" on {_name(doc.monoids, sys_.monoid)}")
    for name, ring in sorted(doc.rings.items()):
        put("ring", name, _clauses(("size", ring.size), ("add", ring.add), ("mul", ring.mul)))
    for name, mod in sorted(doc.modules.items()):
        put("module", name, _clauses(("size", mod.size), ("add", mod.add), ("act", mod.act)),
            f" over {_name(doc.rings, mod.ring)}")
    for name, form in sorted(doc.forms.items()):
        put("form", name, _clauses(("d", form.d)), f" on {_name(doc.modules, form.module)}")
    for name, bim in sorted(doc.bimodules.items()):
        put("bimodule", name, _clauses(
            ("bsize", bim.bgroup.size), ("badd", bim.bgroup.addition), ("bleft", bim.bleft),
            ("bright", bim.bright), ("ksize", bim.kmodule.size), ("kadd", bim.kmodule.add),
            ("kact", bim.kmodule.act), ("delta", bim.delta), ("dot", bim.dot)),
            f" on {_name(doc.forms, bim.form)}")
    for name, ext in sorted(doc.extensions.items()):
        put("extension", name, _clauses(
            ("total", _name(doc.monoids, ext.total)), ("base", _name(doc.monoids, ext.base)),
            ("system", _name(doc.systems, ext.system)), ("proj", ext.proj),
            *((f"act {b}", ext.actions[b]) for b in range(ext.base.size))))
    for name, ext in sorted(doc.crexts.items()):
        put("crext", name, _clauses(
            ("total", _name(doc.forms, ext.total)), ("base", _name(doc.forms, ext.base)),
            ("pmap", ext.ring_map), ("qmap", ext.module_map)))
    return "\n".join(out) + ("\n" if out else "")
