"""Single-term tensor-map identities and cochain infiltration.

An identity file declares generators with arities and single-term identities
over them:

    gen mu: 2 -> 1;
    identity assoc: mu*(mu x id) = mu*(id x mu);

Expression grammar ('*' is composition with the leftmost factor applied
last, 'x' is the tensor product and binds tighter, `id` is the one-strand
identity, `X` the adjacent transposition):

    expr := term ('*' term)*
    term := atom ('x' atom)*
    atom := 'id' | 'X' | generator-name | '(' expr ')'

Every leaf of an expression is an Id or a Sym: a generator, its cochain
symbol phi[gen], the marked map f, or the swap X (X_SWAP).  Infiltration
walks every generator occurrence of an identity, replaces that one
occurrence by phi[gen], and collects the terms into a formal sum; lhs
terms minus rhs terms is the identity's 2-differential.  X is the one
symbol it skips: never numbered, never replaced.  The induced
1-differential of a generator F: p -> q on a one-strand map f is

    sum_{i=1..q} (id^{i-1} x f x id^{q-i}) F  -  sum_{j=1..p} F (id^{j-1} x f x id^{p-j})

and check_d2d1 confirms, for concrete data satisfying the identity, that the
2-differential vanishes on these induced cochains.

Evaluation is compiled.  A term flattens into its placements (key, slot),
first-applied first, each generator, cochain, f and X acting on its own
strands only (linmap.apply_local); Id places nothing.  A sum of terms is
grouped by last placement, Horner style, with identical subsums shared
(_Program), so one pass evaluates it from a single identity map.
check_d2d1 expands d2 over d1 and compiles it with the gate lhs - rhs
into one program per identity, on its first call.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd

from . import SkeinlabError
from .linmap import LinearMap, apply_local, swap
from .rmatrix import check_strands
from .scalars import Ring


class DslError(SkeinlabError):
    """Base for identity-DSL errors."""


class DslSyntaxError(DslError):
    pass


class ArityError(DslError):
    """Sub-expression arities do not meet; message names the sub-expression."""


class IdentityNotSatisfiedError(DslError):
    """check_d2d1's hypothesis gate: the assignment violates the identity."""


class UnknownNameError(DslError):
    """A label or symbol that the identity file or assignment does not bind."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

GEN = "gen"
COCHAIN = "cochain"
MARKED = "marked"
SWAP = "swap"


@dataclass(frozen=True)
class Sym:
    """A named map symbol: a generator, its cochain, the marked test map,
    or the swap X (X_SWAP), which infiltration never numbers or replaces."""

    name: str
    p: int
    q: int
    role: str = GEN
    occ: int | None = None


@dataclass(frozen=True)
class Id:
    n: int


@dataclass(frozen=True)
class Tensor:
    parts: tuple


@dataclass(frozen=True)
class Compose:
    """parts[0] is applied last (written leftmost)."""

    parts: tuple


Expr = object

X_SWAP = Sym("X", 2, 2, role=SWAP)


def signature(expr: Expr) -> tuple[int, int]:
    """(domain arity, codomain arity); raises ArityError on a mismatch."""
    if isinstance(expr, Sym):
        return expr.p, expr.q
    if isinstance(expr, Id):
        return expr.n, expr.n
    if isinstance(expr, Tensor):
        p = q = 0
        for part in expr.parts:
            pp, pq = signature(part)
            p, q = p + pp, q + pq
        return p, q
    if isinstance(expr, Compose):
        sigs = [signature(part) for part in expr.parts]
        for upper, lower, upart in zip(sigs, sigs[1:], expr.parts):
            if upper[0] != lower[1]:
                raise ArityError(
                    f"composition mismatch: {to_text(upart)} takes {upper[0]} "
                    f"strands but is fed {lower[1]}"
                )
        return sigs[-1][0], sigs[0][1]
    raise TypeError(f"not an expression: {expr!r}")


def _width(expr: Expr) -> int:
    """The most strands any part of expr spans, inside or at its ends."""
    return max(*signature(expr), *map(_width, getattr(expr, "parts", ())))


def to_text(expr: Expr) -> str:
    """Render back to the DSL-ish surface syntax (plans show name#occ)."""
    if isinstance(expr, Sym):
        base = f"phi[{expr.name}]" if expr.role == COCHAIN else expr.name
        return base if expr.occ is None else f"{base}#{expr.occ}"
    if isinstance(expr, Id):
        return "id" if expr.n == 1 else " x ".join(["id"] * max(expr.n, 0)) or "id0"
    if isinstance(expr, (Tensor, Compose)):
        return (" x " if isinstance(expr, Tensor) else "*").join(
            f"({to_text(p)})" if isinstance(p, (Compose, Tensor)) else to_text(p)
            for p in expr.parts
        )
    raise TypeError(f"not an expression: {expr!r}")


def canonicalize(expr: Expr) -> Expr:
    """Normal form for structural comparison: nested Compose/Tensor are
    flattened, identity factors in a composition are dropped, and adjacent
    identity strands in a tensor are merged."""
    if isinstance(expr, (Sym, Id)):
        return expr if isinstance(expr, Id) or expr.occ is None else replace(expr, occ=None)
    if isinstance(expr, Tensor):
        parts: list[Expr] = []
        for part in expr.parts:
            part = canonicalize(part)
            if isinstance(part, Tensor):
                parts.extend(part.parts)
            elif isinstance(part, Id) and part.n == 0:
                continue
            else:
                parts.append(part)
        merged: list[Expr] = []
        for part in parts:
            if merged and isinstance(part, Id) and isinstance(merged[-1], Id):
                merged[-1] = Id(merged[-1].n + part.n)
            else:
                merged.append(part)
        if not merged:
            return Id(0)
        return merged[0] if len(merged) == 1 else Tensor(tuple(merged))
    if isinstance(expr, Compose):
        width = signature(expr)
        parts = []
        for part in expr.parts:
            part = canonicalize(part)
            if isinstance(part, Compose):
                parts.extend(part.parts)
            elif isinstance(part, Id):
                continue
            else:
                parts.append(part)
        if not parts:
            return Id(width[0])
        return parts[0] if len(parts) == 1 else Compose(tuple(parts))
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Formal sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalSum:
    """Integer combination of expressions, compared up to term order and
    the canonical form above."""

    terms: tuple[tuple[int, Expr], ...]

    def canonical(self) -> "FormalSum":
        acc: dict[str, tuple[int, Expr]] = {}
        for coeff, expr in self.terms:
            ce = canonicalize(expr)
            key = to_text(ce)
            old = acc.get(key)
            acc[key] = (coeff + old[0] if old else coeff, ce)
        cleaned = sorted(
            ((k, c, e) for k, (c, e) in acc.items() if c != 0)
        )
        return FormalSum(tuple((c, e) for _, c, e in cleaned))

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.canonical().terms == other.canonical().terms

    def __hash__(self):
        return hash(self.canonical().terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(self.terms + other.terms)

    def __neg__(self) -> "FormalSum":
        return FormalSum(tuple((-c, e) for c, e in self.terms))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for i, (coeff, expr) in enumerate(self.terms):
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            sign = ("-" if coeff < 0 else "") if i == 0 else (" - " if coeff < 0 else " + ")
            out.append(f"{sign}{mag}{to_text(expr)}")
        return "".join(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleTermIdentity:
    label: str
    gens: dict[str, tuple[int, int]]
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        ls, rs = signature(self.lhs), signature(self.rhs)
        if ls != rs:
            raise ArityError(
                f"identity {self.label}: sides have different signatures "
                f"{ls} vs {rs}"
            )

    @cached_property
    def _d2d1(self):
        """check_d2d1's symbols and program, compiled on the first call
        (_d2d1_program) and kept with the identity."""
        return _d2d1_program(self)


@dataclass(frozen=True)
class IdentityFile:
    gens: dict[str, tuple[int, int]]
    identities: tuple[SingleTermIdentity, ...]

    def identity(self, label: str) -> SingleTermIdentity:
        for ident in self.identities:
            if ident.label == label:
                return ident
        raise UnknownNameError(f"no identity labelled {label!r}")


_RESERVED = {"gen", "identity", "id", "X", "x", "t", "phi", "f"}


_DslTok = namedtuple("_DslTok", "kind text line col")

# names are \w runs that start with a letter or '_'; an integer is a run of
# decimal digits, exactly what int() accepts
_DSL_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>\w+)|(?P<op>->|[:;=*()])|\S")

# the deepest parenthesis nesting the parser reads; each level is three
# Python frames, so a bound keeps deep input from a RecursionError
_MAX_NESTING = 200


def _at(tok: _DslTok, msg, cls=DslSyntaxError) -> DslError:
    """cls(msg), prefixed with tok's line and column."""
    return cls(f"line {tok.line}, column {tok.col}: {msg}")


def _dsl_tokens(text: str) -> list[_DslTok]:
    """Tokens with 1-based line and column.  A `#` comment runs to the end
    of its line; end of input is placed after the last line's code."""
    toks = []
    for line, row in enumerate(text.split("\n"), 1):
        code = row.partition("#")[0]
        for m in _DSL_TOKEN.finditer(code):
            kind, tok, col = m.lastgroup, m[0], m.start() + 1
            if kind is None or kind == "name" and not (tok[0].isalpha() or tok[0] == "_"):
                raise DslSyntaxError(f"line {line}, column {col}: unexpected {tok[0]!r}")
            toks.append(_DslTok(tok if kind == "op" else kind, tok, line, col))
    return toks + [_DslTok("end", "", line, len(code) + 1)]


class _DslParser:
    def __init__(self, text: str):
        self.toks = _dsl_tokens(text)
        self.i = 0

    def peek(self) -> _DslTok:
        return self.toks[self.i]

    def take(self, kind: str, what: str = "") -> _DslTok:
        t = self.toks[self.i]
        if t.kind != kind:
            found = t.text or "end of input"
            raise _at(t, f"expected {what or repr(kind)}, found {found!r}")
        self.i += 1
        return t

    @staticmethod
    def placed(tok: _DslTok, make):
        """make(), with an ArityError it raises placed at tok."""
        try:
            return make()
        except ArityError as e:
            raise _at(tok, e, ArityError) from None

    def parse_file(self) -> IdentityFile:
        gens: dict[str, tuple[int, int]] = {}
        idents: list[SingleTermIdentity] = []
        while self.peek().kind != "end":
            head = self.take("name", "'gen' or 'identity'")
            if head.text == "gen":
                name_tok = self.take("name", "generator name")
                name = name_tok.text
                if name in _RESERVED:
                    raise _at(name_tok, f"{name!r} is reserved")
                if name in gens:
                    raise DslSyntaxError(
                        f"line {name_tok.line}: generator {name!r} redeclared"
                    )
                self.take(":")
                p = int(self.take("int", "domain arity").text)
                self.take("->")
                q = int(self.take("int", "codomain arity").text)
                self.take(";")
                gens[name] = (p, q)
            elif head.text == "identity":
                label_tok = self.take("name", "identity label")
                label = label_tok.text
                if any(i.label == label for i in idents):
                    raise DslSyntaxError(
                        f"line {label_tok.line}: identity {label!r} redeclared"
                    )
                self.take(":")
                lhs = self.expr(gens)
                self.take("=")
                rhs = self.expr(gens)
                self.take(";")
                idents.append(self.placed(
                    label_tok, lambda: SingleTermIdentity(label, dict(gens), lhs, rhs)))
            else:
                raise _at(head, f"expected 'gen' or 'identity', found {head.text!r}")
        return IdentityFile(gens, tuple(idents))

    def expr(self, gens, depth: int = 0) -> Expr:
        """An expression inside depth parentheses."""
        first = self.peek()
        parts = [self.term(gens, depth)]
        while self.peek().kind == "*":
            self.take("*")
            parts.append(self.term(gens, depth))
        out = parts[0] if len(parts) == 1 else Compose(tuple(parts))
        self.placed(first, lambda: signature(out))  # where we still know the source
        return out

    def term(self, gens, depth: int) -> Expr:
        parts = [self.atom(gens, depth)]
        while self.peek().kind == "name" and self.peek().text == "x":
            self.take("name")
            parts.append(self.atom(gens, depth))
        return parts[0] if len(parts) == 1 else Tensor(tuple(parts))

    def atom(self, gens, depth: int) -> Expr:
        t = self.peek()
        if t.kind == "(":
            if depth == _MAX_NESTING:
                raise _at(t, f"parentheses nested deeper than {_MAX_NESTING}")
            self.take("(")
            inner = self.expr(gens, depth + 1)
            self.take(")")
            return inner
        tok = self.take("name", "'id', 'X' or a generator name")
        if tok.text == "id":
            return Id(1)
        if tok.text == "X":
            return X_SWAP
        if tok.text in gens:
            p, q = gens[tok.text]
            return Sym(tok.text, p, q)
        raise _at(tok, f"unknown generator {tok.text!r}")


def parse_identity_file(text: str) -> IdentityFile:
    return _DslParser(text).parse_file()


# ---------------------------------------------------------------------------
# Elaboration and infiltration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElaboratePlan:
    """Both sides with generator occurrences numbered (depth-first, a
    composition's last-applied factor first, tensor factors left to right;
    counters run per generator and per side)."""

    lhs: Expr
    rhs: Expr
    lhs_counts: dict[str, int]
    rhs_counts: dict[str, int]


def _map_syms(expr: Expr, fn) -> Expr:
    """expr with every Sym leaf x replaced by fn(x), visited depth-first
    and left to right; the swap X is never replaced."""
    if isinstance(expr, Sym) and expr.role != SWAP:
        return fn(expr)
    if isinstance(expr, (Sym, Id)):
        return expr
    if isinstance(expr, (Tensor, Compose)):
        return type(expr)(tuple(_map_syms(p, fn) for p in expr.parts))
    raise TypeError(f"not an expression: {expr!r}")


def _number_occurrences(expr: Expr, counters: dict[str, int]) -> Expr:
    def number(x: Sym) -> Sym:
        counters[x.name] = counters.get(x.name, 0) + 1
        return replace(x, occ=counters[x.name])

    return _map_syms(expr, number)


def elaborate(identity: SingleTermIdentity) -> ElaboratePlan:
    lhs_counts: dict[str, int] = {}
    rhs_counts: dict[str, int] = {}
    lhs = _number_occurrences(identity.lhs, lhs_counts)
    rhs = _number_occurrences(identity.rhs, rhs_counts)
    return ElaboratePlan(lhs, rhs, lhs_counts, rhs_counts)


def _swap_occurrence(expr: Expr, name: str, occ: int) -> Expr:
    def mark(x: Sym) -> Sym:
        if x.name == name and x.occ == occ:
            return Sym(x.name, x.p, x.q, role=COCHAIN)
        return replace(x, occ=None)

    return _map_syms(expr, mark)


def infiltrate(plan: ElaboratePlan) -> FormalSum:
    """The identity's 2-differential: one formal term per generator
    occurrence and side, with that single occurrence replaced by the
    generator's cochain symbol, lhs terms minus rhs terms."""
    sums = []
    for labeled, counts in ((plan.lhs, plan.lhs_counts), (plan.rhs, plan.rhs_counts)):
        terms = []
        for name in sorted(counts):
            for occ in range(1, counts[name] + 1):
                terms.append((1, _swap_occurrence(labeled, name, occ)))
        sums.append(FormalSum(tuple(terms)))
    return sums[0] - sums[1]


def one_differential(name: str, p: int, q: int) -> FormalSum:
    """Induced 1-differential of a generator on the marked one-strand map f."""
    gen = Sym(name, p, q)
    f = Sym("f", 1, 1, role=MARKED)
    terms = []
    for i in range(1, q + 1):
        layer = Tensor((Id(i - 1), f, Id(q - i)))
        terms.append((1, Compose((layer, gen))))
    for j in range(1, p + 1):
        layer = Tensor((Id(j - 1), f, Id(p - j)))
        terms.append((-1, Compose((gen, layer))))
    return FormalSum(tuple(terms))


# ---------------------------------------------------------------------------
# Compiled evaluation against concrete linear maps
# ---------------------------------------------------------------------------


def _placements(expr: Expr) -> tuple:
    """expr as its steps (key, slot), first-applied first: each generator,
    cochain phi[gen], marked f and X placed at strands slot.. of the map
    the steps before it made; an Id adds nothing."""
    out: list[tuple[str, int]] = []

    def walk(e: Expr, slot: int) -> int:
        if isinstance(e, Sym):
            out.append((f"phi[{e.name}]" if e.role == COCHAIN else e.name, slot))
            return e.q
        if isinstance(e, Id):
            return e.n
        if isinstance(e, Tensor):
            end = slot
            for part in e.parts:
                end += walk(part, end)
            return end - slot
        if isinstance(e, Compose):
            for part in reversed(e.parts):
                q = walk(part, slot)
            return q
        raise TypeError(f"not an expression: {e!r}")

    walk(expr, 0)
    return tuple(out)


def _collect(terms: dict, steps: tuple, coeff: int) -> None:
    """Add coeff * steps to the sum terms (steps -> coefficient), dropping
    a term whose coefficient cancels to 0."""
    c = terms.get(steps, 0) + coeff
    if c:
        terms[steps] = c
    else:
        terms.pop(steps, None)


class _Program:
    """Sums of step tuples (see _placements), compiled to be evaluated
    together on maps p -> q.

    Each sum is grouped by its terms' last step, Horner style: the sum is
    base * 1 + sum over last steps a of a . (the sum of the rests before
    a), down to the empty rest, whose coefficient is the base.  A group of
    rests is divided by its gcd, signed so that its least rest counts
    positively, and that factor k rides on the step.  Groups that come out
    identical, within one sum or across sums, are one node, numbered after
    its children, so node i evaluates as

        base_i * 1 + sum over its steps (key, slot, k, j) of
                     k * apply_local(env[key], slot, node_j)

    and one pass over the nodes evaluates every sum, each placement once.
    """

    def __init__(self, sums, p: int, q: int):
        self.p, self.q = p, q
        self.nodes: list[tuple[int, tuple]] = []
        index: dict[tuple, int] = {}
        self.roots = [self._node(terms, index) if terms else None for terms in sums]
        self.swaps = any(key == "X" for _, steps in self.nodes for key, *_ in steps)

    def _node(self, terms: dict, index: dict) -> int:
        groups: dict[tuple, dict] = {}
        for steps, c in terms.items():
            if steps:
                groups.setdefault(steps[-1], {})[steps[:-1]] = c
        edges = []
        for (key, slot), rests in groups.items():
            k = gcd(*rests.values())
            if rests[min(rests)] < 0:
                k = -k
            child = self._node({r: c // k for r, c in rests.items()}, index)
            edges.append((key, slot, k, child))
        node = (terms.get((), 0), tuple(sorted(edges)))
        if node not in index:
            index[node] = len(self.nodes)
            self.nodes.append(node)
        return index[node]

    def values(self, env: dict[str, LinearMap], d: int, ring: Ring) -> list[LinearMap]:
        """Each sum as a map, with every key but X bound by env; an empty
        sum is the zero map."""
        if self.swaps:
            env = {**env, "X": swap(d, ring)}
        one = LinearMap.identity(d, self.p, ring)
        vals: list[LinearMap] = []
        for base, edges in self.nodes:
            acc = None if not base else one if base == 1 else one.scale(base)
            for key, slot, k, child in edges:
                m = apply_local(env[key], slot, vals[child])
                if k == -1:
                    acc = -m if acc is None else acc - m
                else:
                    m = m if k == 1 else m.scale(k)
                    acc = m if acc is None else acc + m
            vals.append(acc)
        return [LinearMap.zero(d, self.p, self.q, ring) if r is None else vals[r]
                for r in self.roots]


def _d2d1_program(identity: SingleTermIdentity) -> tuple[tuple, _Program]:
    """The symbols (key, p, q) that the identity's sides place, in the order
    they place them, and the program of two sums: the gate lhs - rhs, and
    the 2-differential with each phi[gen] expanded into the steps of
    one_differential(gen) at its slot, coefficients multiplied."""
    lhs, rhs = _placements(identity.lhs), _placements(identity.rhs)
    names = dict.fromkeys(key for key, _ in lhs + rhs if key != "X")
    gate: dict[tuple, int] = {}
    _collect(gate, lhs, 1)
    _collect(gate, rhs, -1)
    d1 = {
        f"phi[{name}]": [
            (c, _placements(t)) for c, t in one_differential(name, *identity.gens[name]).terms
        ]
        for name in names
    }
    d2d1: dict[tuple, int] = {}
    for c, term in infiltrate(elaborate(identity)).terms:
        steps = _placements(term)
        i = next(i for i, (key, _) in enumerate(steps) if key in d1)
        key, at = steps[i]
        for c1, inner in d1[key]:
            shifted = tuple((k, at + slot) for k, slot in inner)
            _collect(d2d1, steps[:i] + shifted + steps[i + 1:], c * c1)
    symbols = tuple((name, *identity.gens[name]) for name in names)
    return symbols, _Program((gate, d2d1), *signature(identity.lhs))


def check_d2d1(
    identity: SingleTermIdentity,
    assignment: dict[str, LinearMap],
    f: LinearMap,
) -> bool:
    """True iff the identity's 2-differential vanishes on the induced
    1-differentials of f (it always does when the hypothesis gate passes).

    Refuses first, by rmatrix.check_strands, an identity whose widest part
    spans too many strands to build.  Every generator the identity places
    needs an assignment of its declared arity (UnknownNameError,
    ArityError), and so does f (1 -> 1); generators it does not place need
    none.  Then the hypothesis gate: the assignment must satisfy the
    identity exactly (IdentityNotSatisfiedError otherwise).

    Both sums, lhs - rhs and d2 d1 (f), are one program, compiled on the
    first call and kept on the identity (SingleTermIdentity._d2d1): a call
    builds one identity map and places each shared subterm once, 5
    placements for s1 and s2 (14 term by term), 15 for assoc (18).
    """
    d, ring = f.shape.d, f.ring
    check_strands(max(_width(identity.lhs), _width(identity.rhs)), d)
    symbols, program = identity._d2d1
    env = {key: assignment.get(key) for key, _, _ in symbols}
    env["f"] = f
    for key, p, q in (*symbols, ("f", 1, 1)):
        m = env[key]
        if m is None:
            raise UnknownNameError(f"no assignment for symbol {key}")
        if (m.shape.p, m.shape.q) != (p, q):
            raise ArityError(f"assignment for {key} has shape {m.shape}, declared {p}->{q}")
    gate, d2d1 = program.values(env, d, ring)
    if not gate.is_zero():
        raise IdentityNotSatisfiedError(
            f"assignment does not satisfy identity {identity.label!r}"
        )
    return d2d1.is_zero()
