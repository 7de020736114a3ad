"""Line-oriented spec files for every entity the toolkit computes with.

The grammar is deliberately tiny: named blocks of `key value` clauses with
flat integer tables in brackets.  Diagnostics carry a stable code plus the
line/column of the offending token:

    algebra Z2 { size 2 op plus/2 = [0 1 1 0] }
    cong C on Z2 { blocks: 0 | 1 }
    tern T { size 2 table: (0 0 0 -> 0) ... }
    monoid M { size 2 unit 0 mul = [0 1 1 1] }
    natsys D on M { group 0 { size 1 add = [0] } ... left 0 1 = [..] right 1 0 = [..] }
    ring R { size 2 add = [0 1 1 0] mul = [0 0 0 1] }
    module M2 over R { size 2 add = [0 1 1 0] act = [0 0 0 1] }
    form F on M2 { d = [0 1] }
    bimodule W on F { bsize .. badd = [..] bleft = [..] bright = [..]
                      ksize .. kadd = [..] kact = [..] delta = [..] dot = [..] }
    extension E { total MT base M system D proj = [..] act 0 = [..] }
    crext X { total F2 base F pmap = [..] qmap = [..] }

Definitions must precede uses.  Every entity runs its full invariant suite
at load time; failures surface as E_INVARIANT diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
        self.code = code
        self.line = line
        self.col = col
        super().__init__(f"{code} at {line}:{col}: {message}")

    def to_json(self):
        return {
            "code": self.code,
            "line": self.line,
            "col": self.col,
            "message": str(self),
        }


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

    def all_names(self):
        for kind in _KINDS:
            yield from getattr(self, kind)

    def summary(self):
        return {kind: sorted(getattr(self, kind)) for kind in _KINDS}


_KINDS = (
    "algebras", "congruences", "terns", "monoids", "systems",
    "rings", "modules", "forms", "bimodules", "extensions", "crexts",
)


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
        return t

    def expect_int(self) -> tuple[int, Token]:
        t = self.next()
        if t.kind != "int":
            self.err("E_SYNTAX", t, f"expected integer, found {t.text!r}")
        return int(t.text), t

    def at_keyword(self, word) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def table(self, expected_len=None) -> tuple[list[int], Token]:
        open_tok = self.expect_punct("[")
        values = []
        while self.peek().kind == "int":
            values.append(int(self.next().text))
        self.expect_punct("]")
        if expected_len is not None and len(values) != expected_len:
            self.err(
                "E_TABLE_LEN",
                open_tok,
                f"table has {len(values)} entries, expected {expected_len}",
            )
        return values, open_tok

    def fresh_name(self, tok):
        if tok.text in set(self.doc.all_names()):
            self.err("E_DUP_NAME", tok, f"name {tok.text!r} already defined")
        return tok.text

    def resolve(self, store, tok, kind):
        entry = getattr(self.doc, store).get(tok.text)
        if entry is None:
            self.err("E_DANGLING", tok, f"unknown {kind} {tok.text!r}")
        return entry

    def build(self, tok, ctor, *args, **kwargs):
        try:
            return ctor(*args, **kwargs)
        except InvariantViolation as exc:
            self.err("E_INVARIANT", tok, str(exc))

    # --- entity parsers ---------------------------------------------------

    def parse_document(self) -> SpecDocument:
        while self.peek().kind != "eof":
            t = self.expect_ident("entity keyword")
            handler = getattr(self, f"parse_{t.text}", None)
            if handler is None:
                self.err("E_SYNTAX", t, f"unknown entity kind {t.text!r}")
            handler(t)
        return self.doc

    def parse_algebra(self, kw):
        name_tok = self.expect_ident("algebra name")
        name = self.fresh_name(name_tok)
        self.expect_punct("{")
        self.expect_keyword("size")
        size, _ = self.expect_int()
        ops = []
        while self.at_keyword("op"):
            self.next()
            op_name = self.expect_ident("operation name").text
            self.expect_punct("/")
            arity, _ = self.expect_int()
            self.expect_punct("=")
            values, tok = self.table(size**arity if size >= 0 else None)
            for v in values:
                if not 0 <= v < size:
                    self.err("E_RANGE", tok, f"table entry {v} outside 0..{size - 1}")
            ops.append(Operation(op_name, arity, tuple(values)))
        self.expect_punct("}")
        alg = self.build(name_tok, FiniteAlgebra, size, tuple(ops), name=name)
        self.doc.algebras[name] = alg

    def parse_cong(self, kw):
        name_tok = self.expect_ident("congruence name")
        name = self.fresh_name(name_tok)
        self.expect_keyword("on")
        alg_tok = self.expect_ident("algebra name")
        alg = self.resolve("algebras", alg_tok, "algebra")
        self.expect_punct("{")
        self.expect_keyword("blocks")
        self.expect_punct(":")
        blocks = [[]]
        while True:
            t = self.peek()
            if t.kind == "int":
                blocks[-1].append(int(self.next().text))
            elif t.kind == "punct" and t.text == "|":
                self.next()
                blocks.append([])
            else:
                break
        close = self.expect_punct("}")
        cong = self.build(name_tok, Congruence.from_blocks, alg.size, blocks)
        witness = congruence_violation(alg, cong)
        if witness is not None:
            self.err(
                "E_INVARIANT",
                name_tok,
                f"partition is not compatible with {alg.name or alg_tok.text}: "
                f"elements {witness[1]} and {witness[2]} split under a translation",
            )
        self.doc.congruences[name] = (alg_tok.text, cong)

    def parse_tern(self, kw):
        name_tok = self.expect_ident("table name")
        name = self.fresh_name(name_tok)
        self.expect_punct("{")
        self.expect_keyword("size")
        size, _ = self.expect_int()
        kind = FULL
        base = None
        if self.at_keyword("base"):
            self.next()
            base, _ = self.table(size)
            kind_tok = self.expect_ident("domain kind")
            if kind_tok.text not in (FIBERED, MIXED):
                self.err("E_SYNTAX", kind_tok, "expected 'fibered' or 'mixed'")
            kind = kind_tok.text
        self.expect_keyword("table")
        self.expect_punct(":")
        mapping = {}
        while self.peek().kind == "punct" and self.peek().text == "(":
            open_tok = self.next()
            x, _ = self.expect_int()
            y, _ = self.expect_int()
            z, _ = self.expect_int()
            self.expect_punct("->")
            v, _ = self.expect_int()
            self.expect_punct(")")
            if (x, y, z) in mapping:
                self.err("E_SYNTAX", open_tok, f"duplicate entry for {(x, y, z)}")
            mapping[(x, y, z)] = v
        self.expect_punct("}")
        tern = self.build(
            name_tok, TernaryTable.from_entries, size, kind, base, mapping, name
        )
        self.doc.terns[name] = tern

    def parse_monoid(self, kw):
        name_tok = self.expect_ident("monoid name")
        name = self.fresh_name(name_tok)
        self.expect_punct("{")
        self.expect_keyword("size")
        size, _ = self.expect_int()
        self.expect_keyword("unit")
        unit, _ = self.expect_int()
        self.expect_keyword("mul")
        self.expect_punct("=")
        mul, _ = self.table(size * size)
        self.expect_punct("}")
        self.doc.monoids[name] = self.build(
            name_tok, FiniteMonoid, size, unit, tuple(mul), name=name
        )

    def parse_natsys(self, kw):
        name_tok = self.expect_ident("system name")
        name = self.fresh_name(name_tok)
        self.expect_keyword("on")
        mon_tok = self.expect_ident("monoid name")
        mon = self.resolve("monoids", mon_tok, "monoid")
        self.expect_punct("{")
        groups: dict[int, AbelianGroup] = {}
        left: dict[tuple[int, int], tuple] = {}
        right: dict[tuple[int, int], tuple] = {}
        while True:
            if self.at_keyword("group"):
                g_tok = self.next()
                x, _ = self.expect_int()
                self.expect_punct("{")
                self.expect_keyword("size")
                gsize, _ = self.expect_int()
                self.expect_keyword("add")
                self.expect_punct("=")
                add, _ = self.table(gsize * gsize)
                self.expect_punct("}")
                groups[x] = self.build(g_tok, AbelianGroup, gsize, tuple(add))
            elif self.at_keyword("left"):
                self.next()
                b, _ = self.expect_int()
                x, _ = self.expect_int()
                self.expect_punct("=")
                values, _ = self.table()
                left[(b, x)] = tuple(values)
            elif self.at_keyword("right"):
                self.next()
                x, _ = self.expect_int()
                b, _ = self.expect_int()
                self.expect_punct("=")
                values, _ = self.table()
                right[(x, b)] = tuple(values)
            else:
                break
        self.expect_punct("}")
        n = mon.size
        for x in range(n):
            if x not in groups:
                self.err("E_INVARIANT", name_tok, f"missing group for element {x}")
        ident = lambda x: tuple(range(groups[x].size))
        left_rows = tuple(
            tuple(left.get((b, x), ident(x) if b == mon.unit else None) or self.err(
                "E_INVARIANT", name_tok, f"missing left action {b} {x}") for x in range(n))
            for b in range(n)
        )
        right_rows = tuple(
            tuple(right.get((x, b), ident(x) if b == mon.unit else None) or self.err(
                "E_INVARIANT", name_tok, f"missing right action {x} {b}") for b in range(n))
            for x in range(n)
        )
        self.doc.systems[name] = self.build(
            name_tok,
            NaturalSystemOnMonoid,
            mon,
            tuple(groups[x] for x in range(n)),
            left_rows,
            right_rows,
            name=name,
        )

    def parse_ring(self, kw):
        name_tok = self.expect_ident("ring name")
        name = self.fresh_name(name_tok)
        self.expect_punct("{")
        self.expect_keyword("size")
        size, _ = self.expect_int()
        self.expect_keyword("add")
        self.expect_punct("=")
        add, _ = self.table(size * size)
        self.expect_keyword("mul")
        self.expect_punct("=")
        mul, _ = self.table(size * size)
        self.expect_punct("}")
        self.doc.rings[name] = self.build(
            name_tok, FiniteRing.from_tables, tuple(add), tuple(mul), name
        )

    def parse_module(self, kw):
        name_tok = self.expect_ident("module name")
        name = self.fresh_name(name_tok)
        self.expect_keyword("over")
        ring_tok = self.expect_ident("ring name")
        ring = self.resolve("rings", ring_tok, "ring")
        self.expect_punct("{")
        self.expect_keyword("size")
        size, _ = self.expect_int()
        self.expect_keyword("add")
        self.expect_punct("=")
        add, _ = self.table(size * size)
        self.expect_keyword("act")
        self.expect_punct("=")
        act, _ = self.table(ring.size * size)
        self.expect_punct("}")
        self.doc.modules[name] = self.build(
            name_tok, LeftModule, ring, size, tuple(add), tuple(act), name=name
        )

    def parse_form(self, kw):
        name_tok = self.expect_ident("form name")
        name = self.fresh_name(name_tok)
        self.expect_keyword("on")
        mod_tok = self.expect_ident("module name")
        module = self.resolve("modules", mod_tok, "module")
        self.expect_punct("{")
        self.expect_keyword("d")
        self.expect_punct("=")
        d, _ = self.table(module.size)
        self.expect_punct("}")
        self.doc.forms[name] = self.build(
            name_tok, LinearForm, module, tuple(d), name=name
        )

    def parse_bimodule(self, kw):
        name_tok = self.expect_ident("bimodule name")
        name = self.fresh_name(name_tok)
        self.expect_keyword("on")
        form_tok = self.expect_ident("form name")
        form = self.resolve("forms", form_tok, "form")
        self.expect_punct("{")
        self.expect_keyword("bsize")
        bsize, _ = self.expect_int()
        self.expect_keyword("badd")
        self.expect_punct("=")
        badd, _ = self.table(bsize * bsize)
        self.expect_keyword("bleft")
        self.expect_punct("=")
        bleft, _ = self.table(form.ring.size * bsize)
        self.expect_keyword("bright")
        self.expect_punct("=")
        bright, _ = self.table(bsize * form.ring.size)
        self.expect_keyword("ksize")
        ksize, _ = self.expect_int()
        self.expect_keyword("kadd")
        self.expect_punct("=")
        kadd, _ = self.table(ksize * ksize)
        self.expect_keyword("kact")
        self.expect_punct("=")
        kact, _ = self.table(form.ring.size * ksize)
        self.expect_keyword("delta")
        self.expect_punct("=")
        delta, _ = self.table(ksize)
        self.expect_keyword("dot")
        self.expect_punct("=")
        dot, _ = self.table(bsize * form.module.size)
        self.expect_punct("}")
        bgroup = self.build(name_tok, AbelianGroup, bsize, tuple(badd))
        kmod = self.build(
            name_tok, LeftModule, form.ring, ksize, tuple(kadd), tuple(kact)
        )
        self.doc.bimodules[name] = self.build(
            name_tok,
            DBimodule,
            form,
            bgroup,
            tuple(bleft),
            tuple(bright),
            kmod,
            tuple(delta),
            tuple(dot),
            name=name,
        )

    def parse_extension(self, kw):
        name_tok = self.expect_ident("extension name")
        name = self.fresh_name(name_tok)
        self.expect_punct("{")
        self.expect_keyword("total")
        total = self.resolve("monoids", self.expect_ident("monoid name"), "monoid")
        self.expect_keyword("base")
        base = self.resolve("monoids", self.expect_ident("monoid name"), "monoid")
        self.expect_keyword("system")
        system = self.resolve("systems", self.expect_ident("system name"), "system")
        self.expect_keyword("proj")
        self.expect_punct("=")
        proj, _ = self.table(total.size)
        actions = {}
        while self.at_keyword("act"):
            self.next()
            b, _ = self.expect_int()
            self.expect_punct("=")
            values, _ = self.table()
            actions[b] = tuple(values)
        self.expect_punct("}")
        rows = []
        for b in range(base.size):
            if b not in actions:
                self.err("E_INVARIANT", name_tok, f"missing action table for {b}")
            rows.append(actions[b])
        self.doc.extensions[name] = self.build(
            name_tok,
            MonoidExtension,
            total,
            base,
            tuple(proj),
            system,
            tuple(rows),
            name=name,
        )

    def parse_crext(self, kw):
        name_tok = self.expect_ident("diagram name")
        name = self.fresh_name(name_tok)
        self.expect_punct("{")
        self.expect_keyword("total")
        total = self.resolve("forms", self.expect_ident("form name"), "form")
        self.expect_keyword("base")
        base = self.resolve("forms", self.expect_ident("form name"), "form")
        self.expect_keyword("pmap")
        self.expect_punct("=")
        pmap, _ = self.table(total.ring.size)
        self.expect_keyword("qmap")
        self.expect_punct("=")
        qmap, _ = self.table(total.module.size)
        self.expect_punct("}")
        try:
            ext = FormExtension(total, base, tuple(pmap), tuple(qmap), name=name)
        except MaltkitError as exc:
            self.err("E_INVARIANT", name_tok, str(exc))
        self.doc.crexts[name] = ext


def parse(text: str, doc: SpecDocument | None = None) -> SpecDocument:
    return _Parser(text, doc).parse_document()


def parse_files(paths) -> SpecDocument:
    doc = SpecDocument()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parse(fh.read(), doc)
    return doc


# --- serialisation ----------------------------------------------------------

def _fmt_table(values) -> str:
    return "[" + " ".join(str(v) for v in values) + "]"


def serialize(doc: SpecDocument) -> str:
    out = []
    for name, alg in sorted(doc.algebras.items()):
        ops = " ".join(
            f"op {op.name}/{op.arity} = {_fmt_table(op.table)}" for op in alg.ops
        )
        out.append(f"algebra {name} {{ size {alg.size} {ops} }}".replace("  }", " }"))
    for name, (alg_name, cong) in sorted(doc.congruences.items()):
        blocks = " | ".join(" ".join(str(x) for x in b) for b in cong.blocks())
        out.append(f"cong {name} on {alg_name} {{ blocks: {blocks} }}")
    for name, tern in sorted(doc.terns.items()):
        head = f"tern {name} {{ size {tern.size}"
        if tern.kind != FULL:
            head += f" base {_fmt_table(tern.base)} {tern.kind}"
        entries = " ".join(
            f"({x} {y} {z} -> {tern(x, y, z)})" for x, y, z in tern.domain()
        )
        out.append(f"{head} table: {entries} }}")
    for name, mon in sorted(doc.monoids.items()):
        out.append(
            f"monoid {name} {{ size {mon.size} unit {mon.unit} mul = {_fmt_table(mon.mul)} }}"
        )
    for name, sys_ in sorted(doc.systems.items()):
        mon_name = next(
            (k for k, v in doc.monoids.items() if v == sys_.monoid), sys_.monoid.name
        )
        parts = []
        for x, g in enumerate(sys_.groups):
            parts.append(f"group {x} {{ size {g.size} add = {_fmt_table(g.add)} }}")
        for b in range(sys_.monoid.size):
            for x in range(sys_.monoid.size):
                parts.append(f"left {b} {x} = {_fmt_table(sys_.left[b][x])}")
        for x in range(sys_.monoid.size):
            for b in range(sys_.monoid.size):
                parts.append(f"right {x} {b} = {_fmt_table(sys_.right[x][b])}")
        out.append(f"natsys {name} on {mon_name} {{ " + " ".join(parts) + " }")
    for name, ring in sorted(doc.rings.items()):
        out.append(
            f"ring {name} {{ size {ring.size} add = {_fmt_table(ring.add)} "
            f"mul = {_fmt_table(ring.mul)} }}"
        )
    for name, mod in sorted(doc.modules.items()):
        ring_name = next(
            (k for k, v in doc.rings.items() if v == mod.ring), mod.ring.name
        )
        out.append(
            f"module {name} over {ring_name} {{ size {mod.size} "
            f"add = {_fmt_table(mod.add)} act = {_fmt_table(mod.act)} }}"
        )
    for name, form in sorted(doc.forms.items()):
        mod_name = next(
            (k for k, v in doc.modules.items() if v == form.module), form.module.name
        )
        out.append(f"form {name} on {mod_name} {{ d = {_fmt_table(form.d)} }}")
    for name, bim in sorted(doc.bimodules.items()):
        form_name = next(
            (k for k, v in doc.forms.items() if v == bim.form), bim.form.name
        )
        out.append(
            f"bimodule {name} on {form_name} {{ "
            f"bsize {bim.bgroup.size} badd = {_fmt_table(bim.bgroup.add)} "
            f"bleft = {_fmt_table(bim.bleft)} bright = {_fmt_table(bim.bright)} "
            f"ksize {bim.kmodule.size} kadd = {_fmt_table(bim.kmodule.add)} "
            f"kact = {_fmt_table(bim.kmodule.act)} delta = {_fmt_table(bim.delta)} "
            f"dot = {_fmt_table(bim.dot)} }}"
        )
    for name, ext in sorted(doc.extensions.items()):
        total_name = next(
            (k for k, v in doc.monoids.items() if v == ext.total), ext.total.name
        )
        base_name = next(
            (k for k, v in doc.monoids.items() if v == ext.base), ext.base.name
        )
        sys_name = next(
            (k for k, v in doc.systems.items() if v == ext.system), ext.system.name
        )
        acts = " ".join(
            f"act {b} = {_fmt_table(ext.actions[b])}" for b in range(ext.base.size)
        )
        out.append(
            f"extension {name} {{ total {total_name} base {base_name} "
            f"system {sys_name} proj = {_fmt_table(ext.proj)} {acts} }}"
        )
    for name, ext in sorted(doc.crexts.items()):
        total_name = next(
            (k for k, v in doc.forms.items() if v == ext.total), ext.total.name
        )
        base_name = next(
            (k for k, v in doc.forms.items() if v == ext.base), ext.base.name
        )
        out.append(
            f"crext {name} {{ total {total_name} base {base_name} "
            f"pmap = {_fmt_table(ext.ring_map)} qmap = {_fmt_table(ext.module_map)} }}"
        )
    return "\n".join(out) + ("\n" if out else "")
