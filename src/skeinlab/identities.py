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

Infiltration walks every generator occurrence of an identity, replaces that
one occurrence by the generator's cochain symbol phi[gen], and collects the
terms into a formal sum; lhs terms minus rhs terms is the identity's
2-differential.  The induced 1-differential of a generator F: p -> q on a
one-strand map f is

    sum_{i=1..q} (id^{i-1} x f x id^{q-i}) F  -  sum_{j=1..p} F (id^{j-1} x f x id^{p-j})

and check_d2d1 confirms, for concrete data satisfying the identity, that the
2-differential vanishes on these induced cochains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .linmap import LinearMap, compose, permutation, tensor
from .scalars import Ring


class DslError(ValueError):
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


@dataclass(frozen=True)
class Sym:
    """A named map symbol: a generator, its cochain, or the marked test map."""

    name: str
    p: int
    q: int
    role: str = GEN
    occ: int | None = None


@dataclass(frozen=True)
class Id:
    n: int


@dataclass(frozen=True)
class Perm:
    perm: tuple[int, ...]


@dataclass(frozen=True)
class Tensor:
    parts: tuple


@dataclass(frozen=True)
class Compose:
    """parts[0] is applied last (written leftmost)."""

    parts: tuple


Expr = object

X_SWAP = Perm((1, 0))


def signature(expr: Expr) -> tuple[int, int]:
    """(domain arity, codomain arity); raises ArityError on a mismatch."""
    if isinstance(expr, Sym):
        return expr.p, expr.q
    if isinstance(expr, Id):
        return expr.n, expr.n
    if isinstance(expr, Perm):
        return len(expr.perm), len(expr.perm)
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


def to_text(expr: Expr) -> str:
    """Render back to the DSL-ish surface syntax (plans show name#occ)."""
    if isinstance(expr, Sym):
        base = f"phi[{expr.name}]" if expr.role == COCHAIN else expr.name
        return base if expr.occ is None else f"{base}#{expr.occ}"
    if isinstance(expr, Id):
        return "id" if expr.n == 1 else " x ".join(["id"] * max(expr.n, 0)) or "id0"
    if isinstance(expr, Perm):
        return "X" if expr.perm == (1, 0) else f"perm{expr.perm}"
    if isinstance(expr, Tensor):
        return " x ".join(
            f"({to_text(p)})" if isinstance(p, (Compose, Tensor)) else to_text(p)
            for p in expr.parts
        )
    if isinstance(expr, Compose):
        return "*".join(
            f"({to_text(p)})" if isinstance(p, (Compose, Tensor)) else to_text(p)
            for p in expr.parts
        )
    raise TypeError(f"not an expression: {expr!r}")


def canonicalize(expr: Expr) -> Expr:
    """Normal form for structural comparison: nested Compose/Tensor are
    flattened, identity factors in a composition are dropped, and adjacent
    identity strands in a tensor are merged."""
    if isinstance(expr, (Sym, Id)):
        return expr if not isinstance(expr, Sym) or expr.occ is None else replace(expr, occ=None)
    if isinstance(expr, Perm):
        return Id(len(expr.perm)) if expr.perm == tuple(range(len(expr.perm))) else expr
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


@dataclass(frozen=True)
class IdentityFile:
    gens: dict[str, tuple[int, int]]
    identities: tuple[SingleTermIdentity, ...]

    def identity(self, label: str) -> SingleTermIdentity:
        for ident in self.identities:
            if ident.label == label:
                return ident
        raise UnknownNameError(f"no identity labelled {label!r}")


_RESERVED = {"gen", "identity", "id", "X", "x", "t", "phi"}


class _DslTok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _dsl_tokens(text: str) -> list[_DslTok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_DslTok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_DslTok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            toks.append(_DslTok("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in ":;=*()":
            toks.append(_DslTok(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"line {line}, column {col}: unexpected {ch!r}")
    toks.append(_DslTok("end", "", line, col))
    return toks


class _DslParser:
    def __init__(self, text: str):
        self.toks = _dsl_tokens(text)
        self.i = 0

    def peek(self) -> _DslTok:
        return self.toks[self.i]

    def take(self, kind: str, what: str = "") -> _DslTok:
        t = self.toks[self.i]
        if t.kind != kind:
            want = what or repr(kind)
            raise DslSyntaxError(
                f"line {t.line}, column {t.col}: expected {want}, "
                f"found {t.text or 'end of input'!r}"
            )
        self.i += 1
        return t

    def parse_file(self) -> IdentityFile:
        gens: dict[str, tuple[int, int]] = {}
        idents: list[SingleTermIdentity] = []
        while self.peek().kind != "end":
            head = self.take("name", "'gen' or 'identity'")
            if head.text == "gen":
                name_tok = self.take("name", "generator name")
                name = name_tok.text
                if name in _RESERVED:
                    raise DslSyntaxError(
                        f"line {name_tok.line}, column {name_tok.col}: "
                        f"{name!r} is reserved"
                    )
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
                label = self.take("name", "identity label").text
                self.take(":")
                lhs = self.expr(gens)
                self.take("=")
                rhs = self.expr(gens)
                self.take(";")
                idents.append(SingleTermIdentity(label, dict(gens), lhs, rhs))
            else:
                raise DslSyntaxError(
                    f"line {head.line}, column {head.col}: expected 'gen' or "
                    f"'identity', found {head.text!r}"
                )
        return IdentityFile(gens, tuple(idents))

    def expr(self, gens) -> Expr:
        parts = [self.term(gens)]
        while self.peek().kind == "*":
            self.take("*")
            parts.append(self.term(gens))
        out = parts[0] if len(parts) == 1 else Compose(tuple(parts))
        signature(out)  # arity check here, where we still know the source
        return out

    def term(self, gens) -> Expr:
        parts = [self.atom(gens)]
        while self.peek().kind == "name" and self.peek().text == "x":
            self.take("name")
            parts.append(self.atom(gens))
        return parts[0] if len(parts) == 1 else Tensor(tuple(parts))

    def atom(self, gens) -> Expr:
        t = self.peek()
        if t.kind == "(":
            self.take("(")
            inner = self.expr(gens)
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
        raise DslSyntaxError(
            f"line {tok.line}, column {tok.col}: unknown generator {tok.text!r}"
        )


def parse_identity_file(text: str) -> IdentityFile:
    return _DslParser(text).parse_file()


def parse_identity(text: str) -> SingleTermIdentity:
    """Parse a file-let that declares its generators and exactly one identity."""
    f = parse_identity_file(text)
    if len(f.identities) != 1:
        raise DslSyntaxError(
            f"expected exactly one identity, found {len(f.identities)}"
        )
    return f.identities[0]


# ---------------------------------------------------------------------------
# Elaboration and infiltration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElaboratePlan:
    """Both sides with generator occurrences numbered (depth-first, a
    composition's last-applied factor first, tensor factors left to right;
    counters run per generator and per side)."""

    identity: SingleTermIdentity
    lhs: Expr
    rhs: Expr
    lhs_counts: dict[str, int]
    rhs_counts: dict[str, int]


def _number_occurrences(expr: Expr, counters: dict[str, int]) -> Expr:
    if isinstance(expr, Sym):
        counters[expr.name] = counters.get(expr.name, 0) + 1
        return replace(expr, occ=counters[expr.name])
    if isinstance(expr, (Id, Perm)):
        return expr
    if isinstance(expr, Tensor):
        return Tensor(tuple(_number_occurrences(p, counters) for p in expr.parts))
    if isinstance(expr, Compose):
        return Compose(tuple(_number_occurrences(p, counters) for p in expr.parts))
    raise TypeError(f"not an expression: {expr!r}")


def elaborate(identity: SingleTermIdentity) -> ElaboratePlan:
    lhs_counts: dict[str, int] = {}
    rhs_counts: dict[str, int] = {}
    lhs = _number_occurrences(identity.lhs, lhs_counts)
    rhs = _number_occurrences(identity.rhs, rhs_counts)
    return ElaboratePlan(identity, lhs, rhs, lhs_counts, rhs_counts)


def _swap_occurrence(expr: Expr, name: str, occ: int) -> Expr:
    if isinstance(expr, Sym):
        if expr.name == name and expr.occ == occ:
            return Sym(expr.name, expr.p, expr.q, role=COCHAIN)
        return replace(expr, occ=None)
    if isinstance(expr, (Id, Perm)):
        return expr
    if isinstance(expr, Tensor):
        return Tensor(tuple(_swap_occurrence(p, name, occ) for p in expr.parts))
    if isinstance(expr, Compose):
        return Compose(tuple(_swap_occurrence(p, name, occ) for p in expr.parts))
    raise TypeError(f"not an expression: {expr!r}")


@dataclass(frozen=True)
class Infiltration:
    plan: ElaboratePlan
    lhs_sum: FormalSum
    rhs_sum: FormalSum

    @property
    def differential(self) -> FormalSum:
        """The identity's 2-differential: lhs terms minus rhs terms."""
        return self.lhs_sum - self.rhs_sum


def infiltrate(plan: ElaboratePlan) -> Infiltration:
    """One formal term per generator occurrence and side, with that single
    occurrence replaced by the generator's cochain symbol."""
    sums = []
    for labeled, counts in ((plan.lhs, plan.lhs_counts), (plan.rhs, plan.rhs_counts)):
        terms = []
        for name in sorted(counts):
            for occ in range(1, counts[name] + 1):
                terms.append((1, _swap_occurrence(labeled, name, occ)))
        sums.append(FormalSum(tuple(terms)))
    return Infiltration(plan, sums[0], sums[1])


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
# Evaluation against concrete linear maps
# ---------------------------------------------------------------------------


def _env_key(sym: Sym) -> str:
    return f"phi[{sym.name}]" if sym.role == COCHAIN else sym.name


def evaluate_expr(expr: Expr, env: dict[str, LinearMap], d: int, ring: Ring) -> LinearMap:
    if isinstance(expr, Sym):
        key = _env_key(expr)
        if key not in env:
            raise UnknownNameError(f"no assignment for symbol {key}")
        m = env[key]
        if (m.shape.p, m.shape.q) != (expr.p, expr.q):
            raise ArityError(
                f"assignment for {key} has shape {m.shape}, "
                f"declared {expr.p}->{expr.q}"
            )
        return m
    if isinstance(expr, Id):
        return LinearMap.identity(d, expr.n, ring)
    if isinstance(expr, Perm):
        return permutation(d, len(expr.perm), expr.perm, ring)
    if isinstance(expr, Tensor):
        out = LinearMap.identity(d, 0, ring)
        for part in expr.parts:
            out = tensor(out, evaluate_expr(part, env, d, ring))
        return out
    if isinstance(expr, Compose):
        out = evaluate_expr(expr.parts[-1], env, d, ring)
        for part in reversed(expr.parts[:-1]):
            out = compose(evaluate_expr(part, env, d, ring), out)
        return out
    raise TypeError(f"not an expression: {expr!r}")


def _sum_env(fs: FormalSum, env: dict[str, LinearMap], d: int, ring: Ring) -> LinearMap:
    if not fs.terms:
        raise ValueError("cannot evaluate an empty formal sum without a shape")
    p, q = signature(fs.terms[0][1])
    out = LinearMap.zero(d, p, q, ring)
    for coeff, expr in fs.terms:
        m = evaluate_expr(expr, env, d, ring)
        out = out + (m if coeff == 1 else m.scale(coeff))
    return out


def evaluate(
    fs: FormalSum,
    assignment: dict[str, LinearMap],
    cochain: dict[str, LinearMap] | None = None,
) -> LinearMap:
    """Evaluate a formal sum.  `assignment` binds generator names and the
    marked f; `cochain` binds cochain symbols by generator name."""
    env = dict(assignment)
    for name, m in (cochain or {}).items():
        env[f"phi[{name}]"] = m
    probe = next(iter(env.values()))
    return _sum_env(fs, env, probe.shape.d, probe.ring)


def check_d2d1(
    identity: SingleTermIdentity,
    assignment: dict[str, LinearMap],
    f: LinearMap,
) -> bool:
    """True iff the identity's 2-differential vanishes on the induced
    1-differentials of f (it always does when the hypothesis gate passes).

    Gates on the hypothesis first: the assignment must satisfy the identity
    exactly (IdentityNotSatisfiedError otherwise).
    """
    d, ring = f.shape.d, f.ring
    lhs = evaluate_expr(identity.lhs, assignment, d, ring)
    rhs = evaluate_expr(identity.rhs, assignment, d, ring)
    if not (lhs - rhs).is_zero():
        raise IdentityNotSatisfiedError(
            f"assignment does not satisfy identity {identity.label!r}"
        )
    env = dict(assignment)
    env["f"] = f
    for name, (p, q) in identity.gens.items():
        env[f"phi[{name}]"] = _sum_env(one_differential(name, p, q), env, d, ring)
    diff = infiltrate(elaborate(identity)).differential
    return _sum_env(diff, env, d, ring).is_zero()
