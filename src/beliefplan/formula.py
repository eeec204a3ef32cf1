"""PrSTL abstract syntax, parser, horizon, and bounded-semantics monitor.

The formula grammar is negation-free: atomics are conjunctions of chance
constraints plus a mode-set predicate, composed with and/or and the
bounded temporal operators U[a,b] and R[a,b]. Always and eventually are
derived: G[a,b] f == false R[a,b] f, F[a,b] f == true U[a,b] f.

One array evaluator serves both monitors. It maps a formula to its
satisfaction at every position of a finite signal, with positions past
the end counting as false (Maler & Nickovic, "Monitoring Temporal
Properties of Continuous Signals", 2004). monitor_word() feeds it
atomic arrays from word labels; monitor() feeds it cone containment of
each belief. A belief trace gets three-valued bounded semantics: a
verdict is definite when it does not depend on time points beyond the
end of the trace, otherwise monitor() raises InsufficientTraceError.
Because the grammar has no negation, extending a trace can never turn a
definite verdict around.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .gaussian import BeliefState
from .geometry import (
    CONTAINMENT_TOL,
    BeliefCone,
    DiscretePredicate,
    LinearExpression,
    ProbabilisticLinearPredicate,
    cone_contains,
)


class UnsupportedBoundError(ValueError):
    """Temporal bound is infinite or otherwise not representable."""


class InsufficientTraceError(ValueError):
    """The trace is too short to decide satisfaction."""


class NameCollisionError(ValueError):
    """Two structurally distinct atomics share a name."""


class FormulaSyntaxError(ValueError):
    """Parse failure, annotated with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atomic:
    """State formula: belief cone plus mode-set predicate.

    modes=None leaves the mode unconstrained (the full declared set).
    """

    cone: BeliefCone = field(default_factory=BeliefCone)
    modes: DiscretePredicate | None = None
    name: str | None = None


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("And requires at least one child")
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("Or requires at least one child")
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Until:
    left: object
    right: object
    a: int
    b: int

    def __post_init__(self):
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class Release:
    left: object
    right: object
    a: int
    b: int

    def __post_init__(self):
        _check_interval(self.a, self.b)


Formula = Atomic | And | Or | Until | Release


def _check_interval(a, b):
    if a != int(a) or b != int(b):
        raise UnsupportedBoundError(f"temporal bounds must be integers, got [{a}, {b}]")
    if a < 0:
        raise ValueError(f"temporal delay must be nonnegative, got {a}")
    if not a < b:
        raise ValueError(f"temporal interval requires a < b, got [{a}, {b}]")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def top() -> Atomic:
    """True: empty cone, unconstrained mode."""
    return Atomic(BeliefCone(), None, "true")


def bottom(state_dim: int) -> Atomic:
    """False: a statically infeasible cone constraint (0.x + 1 <= 0)."""
    pred = ProbabilisticLinearPredicate(
        LinearExpression(np.zeros(state_dim), 1.0), 0.5
    )
    return Atomic(BeliefCone((pred,)), DiscretePredicate(frozenset()), "false")


def until(left, a: int, b: int, right) -> Until:
    return Until(left, right, int(a), int(b))


def release(left, a: int, b: int, right) -> Release:
    return Release(left, right, int(a), int(b))


def always(a: int, b: int, f, state_dim: int | None = None) -> Release:
    """G[a,b] f == false R[a,b] f."""
    if state_dim is None:
        state_dim = _infer_state_dim(f)
    return Release(bottom(state_dim), f, int(a), int(b))


def eventually(a: int, b: int, f) -> Until:
    """F[a,b] f == true U[a,b] f."""
    return Until(top(), f, int(a), int(b))


def conjunction(*children, name: str | None = None):
    """Conjunction; a conjunction of atomics folds into a single Atomic
    (cone constraints concatenated, mode sets intersected)."""
    flat = []
    for ch in children:
        if isinstance(ch, And):
            flat.extend(ch.children)
        else:
            flat.append(ch)
    if not flat:
        raise ValueError("conjunction requires at least one operand")
    if all(isinstance(ch, Atomic) for ch in flat):
        constraints = []
        modes = None
        for ch in flat:
            constraints.extend(ch.cone.constraints)
            if ch.modes is not None:
                modes = (
                    DiscretePredicate(ch.modes.modes)
                    if modes is None
                    else DiscretePredicate(modes.modes & ch.modes.modes)
                )
        return Atomic(BeliefCone(tuple(constraints)), modes, name)
    if name is not None:
        raise ValueError("only a purely atomic conjunction can carry a name")
    return And(tuple(flat))


def disjunction(*children, name: str | None = None):
    """Disjunction; mode-only atomics fold into one Atomic with the
    union of their mode sets."""
    flat = []
    for ch in children:
        if isinstance(ch, Or):
            flat.extend(ch.children)
        else:
            flat.append(ch)
    if not flat:
        raise ValueError("disjunction requires at least one operand")
    if all(isinstance(ch, Atomic) and not ch.cone.constraints for ch in flat):
        if any(ch.modes is None for ch in flat):
            return Atomic(BeliefCone(), None, name)
        union = frozenset().union(*(ch.modes.modes for ch in flat))
        return Atomic(BeliefCone(), DiscretePredicate(union), name)
    if name is not None:
        raise ValueError("only a foldable disjunction can carry a name")
    return Or(tuple(flat))


def named(f, name: str):
    """Attach a name to an atomic state formula."""
    if not isinstance(f, Atomic):
        raise ValueError("only atomic state formulas can be named")
    return Atomic(f.cone, f.modes, name)


def _infer_state_dim(f) -> int:
    for a in _walk_atomics(f):
        if a.cone.constraints:
            return a.cone.constraints[0].expr.dim
    return 1


def _walk_atomics(f):
    if isinstance(f, Atomic):
        yield f
    elif isinstance(f, (And, Or)):
        for ch in f.children:
            yield from _walk_atomics(ch)
    else:
        yield from _walk_atomics(f.left)
        yield from _walk_atomics(f.right)


# ---------------------------------------------------------------------------
# Atomic classification and labels
# ---------------------------------------------------------------------------

def _split_constraints(a: Atomic):
    """Partition cone constraints into constant (zero h) and
    state-dependent ones."""
    const, state = [], []
    for p in a.cone.constraints:
        (const if not np.any(p.expr.h) else state).append(p)
    return const, state


def _constant_part_holds(a: Atomic) -> bool:
    const, _ = _split_constraints(a)
    return all(p.expr.c <= CONTAINMENT_TOL for p in const)


def is_trivially_true(a: Atomic) -> bool:
    return not a.cone.constraints and a.modes is None


def is_trivially_false(a: Atomic) -> bool:
    return not _constant_part_holds(a)


def atomic_label(a: Atomic) -> str:
    """Stable identity used for words and deduplication."""
    if a.name is not None:
        return a.name
    parts = []
    for p in a.cone.constraints:
        coeffs = ",".join(f"{v:.17g}" for v in p.expr.h)
        parts.append(f"P([{coeffs}].x+{p.expr.c:.17g}<=0)>={1.0 - p.epsilon:.17g}")
    if a.modes is not None:
        parts.append("q in {%s}" % ",".join(str(m) for m in sorted(a.modes.modes)))
    return " & ".join(parts) if parts else "true"


def _atomic_key(a: Atomic):
    constraints = tuple(
        sorted((tuple(p.expr.h), p.expr.c, p.epsilon) for p in a.cone.constraints)
    )
    modes = None if a.modes is None else tuple(sorted(a.modes.modes))
    return constraints, modes


def atomic_propositions(f) -> list[Atomic]:
    """Non-constant atomics, deduplicated by label, in first-occurrence
    order. Raises NameCollisionError for distinct atomics with one name."""
    seen: dict[str, Atomic] = {}
    order: list[Atomic] = []
    for a in _walk_atomics(f):
        if is_trivially_true(a) or is_trivially_false(a):
            continue
        label = atomic_label(a)
        if label in seen:
            if _atomic_key(seen[label]) != _atomic_key(a):
                raise NameCollisionError(
                    f"two distinct atomic propositions share the name {label!r}"
                )
            continue
        seen[label] = a
        order.append(a)
    return order


# ---------------------------------------------------------------------------
# Horizon
# ---------------------------------------------------------------------------

def horizon(f) -> int:
    """Number of steps beyond the evaluation index that the formula can
    reference."""
    if isinstance(f, Atomic):
        return 0
    if isinstance(f, (And, Or)):
        return max(horizon(ch) for ch in f.children)
    return f.b + max(horizon(f.left), horizon(f.right))


# ---------------------------------------------------------------------------
# Monitors: one array evaluator, two front ends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trace:
    """Belief trajectory: T+1 beliefs and the T modes applied between
    them (modes[k] acts between steps k and k+1)."""

    beliefs: tuple
    modes: tuple

    def __post_init__(self):
        beliefs = tuple(self.beliefs)
        modes = tuple(int(m) for m in self.modes)
        if len(modes) != len(beliefs) - 1:
            raise ValueError(
                f"trace needs len(modes) == len(beliefs) - 1, got "
                f"{len(modes)} modes for {len(beliefs)} beliefs"
            )
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "modes", modes)

    def __len__(self) -> int:
        return len(self.beliefs)


def _sat(f, atom, memo) -> np.ndarray:
    """Satisfaction of f at every position of a finite signal, as a
    Boolean array. atom(a) gives an atomic's array; all arrays share one
    length, and positions past the end count as false."""
    key = id(f)
    if key in memo:
        return memo[key]
    if isinstance(f, Atomic):
        sat = atom(f)
    elif isinstance(f, And):
        sat = np.logical_and.reduce([_sat(ch, atom, memo) for ch in f.children])
    elif isinstance(f, Or):
        sat = np.logical_or.reduce([_sat(ch, atom, memo) for ch in f.children])
    elif isinstance(f, (Until, Release)):
        until = isinstance(f, Until)
        left, right = _sat(f.left, atom, memo), _sat(f.right, atom, memo)
        # A witness j in [k+a, k+b] needs `hit` at j while `guard` holds
        # on [k+a, j) for U (left before right) or on [k+a, j] for R.
        guard, hit = (left, right) if until else (right, left)
        L = len(guard)
        k = np.arange(L)
        lo = np.minimum(k + f.a, L)
        hi = np.minimum(k + f.b, L - 1)
        # first_fail[j]: smallest index >= j where guard is false, else L
        first_fail = np.minimum.accumulate(np.append(np.where(guard, L, k), L)[::-1])[::-1]
        hits = np.concatenate(([0], np.cumsum(hit)))
        last = np.maximum(np.minimum(hi, first_fail[lo] - (not until)), lo - 1)
        sat = hits[last + 1] > hits[lo]
        if not until:  # right holds on the whole window, inside the signal
            sat |= first_fail[lo] > k + f.b
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = sat
    return sat


def _atomic_sat(a: Atomic, holds, modes: np.ndarray) -> np.ndarray:
    """Atomic array over len(modes) + 1 positions: holds(a) masked by
    the mode arriving at each position k >= 1 (modes[k-1]); position 0
    passes the mode test. A trivially false atomic is false everywhere."""
    if is_trivially_false(a):
        return np.zeros(len(modes) + 1, dtype=bool)
    sat = holds(a)
    if a.modes is not None:
        sat = sat & np.concatenate(([True], np.isin(modes, list(a.modes.modes))))
    return sat


def monitor(f, tr: Trace, k: int = 0) -> bool:
    """Satisfaction of the trace at index k.

    With at least k + horizon(f) + 1 beliefs the verdict is exact. On a
    shorter trace the verdict is returned only when it is already
    definite (true under pessimistic completion, or false under
    optimistic completion); otherwise InsufficientTraceError is raised.
    """
    n = len(tr.beliefs)
    if k < 0 or k >= n:
        raise ValueError(f"evaluation index {k} outside trace")
    need = k + horizon(f) + 1
    modes = np.asarray(tr.modes, dtype=np.int64)
    cones = {}

    def holds(a):
        return np.fromiter((cone_contains(a.cone, b) for b in tr.beliefs), bool, n)

    def verdict(missing: bool) -> bool:
        def atom(a):
            if id(a) not in cones:
                cones[id(a)] = _atomic_sat(a, holds, modes)
            return np.append(cones[id(a)], np.full(max(need - n, 0), missing))

        return bool(_sat(f, atom, {})[k])

    strong = verdict(False)
    if n >= need or strong:
        return strong
    if not verdict(True):
        return False
    raise InsufficientTraceError(
        f"trace of length {n} cannot decide a formula of "
        f"horizon {horizon(f)} at index {k}"
    )


def monitor_word(f, word) -> bool:
    """Boolean-level satisfaction of a finite word.

    Each word entry is (label-set, mode): the names of the atomics
    assumed true at that step, and the mode of the segment active there.
    Universal obligations that reach past the end of the word count as
    violated, so a True verdict is a genuine finite witness and is
    preserved under extension of the word. This is the pessimistic trace
    semantics with label membership in place of cone containment.
    """
    word = list(word)
    if not word:
        raise ValueError("word must be nonempty")
    labels = [frozenset(ls) for ls, _ in word]
    modes = np.array([int(m) for _, m in word[:-1]], dtype=np.int64)

    def holds(a):
        if not _split_constraints(a)[1]:  # no state-dependent constraint
            return np.ones(len(labels), dtype=bool)
        label = atomic_label(a)
        return np.fromiter((label in ls for ls in labels), bool, len(labels))

    return bool(_sat(f, lambda a: _atomic_sat(a, holds, modes), {})[0])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|>=|<=|[&|()\[\]{},+\-*])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, state_dim, num_modes, named):
        self.tokens = tokens
        self.pos = 0
        self.n = state_dim
        self.N = num_modes
        self.named = named or {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise FormulaSyntaxError(msg, tok.line, tok.column)

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            self.error(f"expected {value!r}, found {tok.value!r}", tok)
        return tok

    # grammar: binary := unary (("U"|"R") "[" int "," int "]" unary)?
    def parse_binary(self):
        left = self.parse_unary()
        tok = self.peek()
        if tok.kind == "ident" and tok.value in ("U", "R"):
            self.next()
            a, b = self.parse_interval()
            right = self.parse_unary()
            try:
                node = Until if tok.value == "U" else Release
                return node(left, right, a, b)
            except ValueError as exc:
                self.error(str(exc), tok)
        return left

    # unary := ("G"|"F") "[" int "," int "]" unary | disj
    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.value in ("G", "F"):
            self.next()
            a, b = self.parse_interval()
            sub = self.parse_unary()
            try:
                if tok.value == "G":
                    return always(a, b, sub, state_dim=self.n)
                return eventually(a, b, sub)
            except ValueError as exc:
                self.error(str(exc), tok)
        return self.parse_disj()

    def parse_disj(self):
        children = [self.parse_conj()]
        while self.peek().value == "|":
            self.next()
            children.append(self.parse_conj())
        if len(children) == 1:
            return children[0]
        return disjunction(*children)

    def parse_conj(self):
        children = [self.parse_atom()]
        while self.peek().value == "&":
            self.next()
            children.append(self.parse_atom())
        if len(children) == 1:
            return children[0]
        try:
            return conjunction(*children)
        except ValueError as exc:
            self.error(str(exc))

    def parse_atom(self):
        tok = self.peek()
        if tok.value == "(":
            self.next()
            inner = self.parse_binary()
            self.expect(")")
            return inner
        if tok.value == "true":
            self.next()
            return top()
        if tok.value == "false":
            self.next()
            return bottom(self.n)
        if tok.value == "P":
            return self.parse_probpred()
        if tok.value == "q":
            return self.parse_modepred()
        if tok.kind == "ident":
            self.next()
            if tok.value in self.named:
                return self.named[tok.value]
            self.error(f"unknown formula name {tok.value!r}", tok)
        self.error(f"expected an atom, found {tok.value!r}", tok)

    def parse_probpred(self):
        self.expect("P")
        self.expect("(")
        h, c = self.parse_linexpr()
        self.expect("<=")
        rhs = self.parse_signed_number()
        self.expect(")")
        tok = self.expect(">=")
        p = self.parse_signed_number()
        eps = 1.0 - p
        if not (0.0 <= eps <= 0.5):
            self.error(
                f"probability bound must lie in [0.5, 1], got {p:g}", tok
            )
        expr = LinearExpression(h, c - rhs)
        return Atomic(BeliefCone((ProbabilisticLinearPredicate(expr, eps),)))

    def parse_modepred(self):
        self.expect("q")
        tok = self.next()
        if tok.value == "==":
            mode = self.parse_mode_index()
            return Atomic(BeliefCone(), DiscretePredicate(frozenset({mode})))
        if tok.value == "in":
            self.expect("{")
            modes = {self.parse_mode_index()}
            while self.peek().value == ",":
                self.next()
                modes.add(self.parse_mode_index())
            self.expect("}")
            return Atomic(BeliefCone(), DiscretePredicate(frozenset(modes)))
        self.error(f"expected '==' or 'in' after 'q', found {tok.value!r}", tok)

    def parse_mode_index(self) -> int:
        tok = self.next()
        if tok.kind != "number" or not tok.value.isdigit():
            self.error(f"expected a mode index, found {tok.value!r}", tok)
        mode = int(tok.value)
        if mode >= self.N:
            self.error(
                f"mode index {mode} out of range for {self.N} declared modes", tok
            )
        return mode

    def parse_interval(self):
        self.expect("[")
        a_tok = self.next()
        if a_tok.kind != "number" or not a_tok.value.isdigit():
            self.error("expected an integer bound", a_tok)
        self.expect(",")
        b_tok = self.next()
        if b_tok.kind != "number" or not b_tok.value.isdigit():
            self.error("expected an integer bound", b_tok)
        self.expect("]")
        a, b = int(a_tok.value), int(b_tok.value)
        if a >= b:
            self.error(f"temporal interval requires a < b, got [{a}, {b}]", a_tok)
        return a, b

    def parse_signed_number(self) -> float:
        sign = 1.0
        if self.peek().value == "-":
            self.next()
            sign = -1.0
        tok = self.next()
        if tok.kind != "number":
            self.error(f"expected a number, found {tok.value!r}", tok)
        return sign * float(tok.value)

    def parse_linexpr(self):
        """Affine expression over x0..x{n-1}: signed terms
        NUMBER ['*' var] | var, joined by + and -."""
        h = np.zeros(self.n)
        c = 0.0
        sign = 1.0
        if self.peek().value in ("+", "-"):
            sign = -1.0 if self.next().value == "-" else 1.0
        while True:
            coeff, var = self.parse_term()
            if var is None:
                c += sign * coeff
            else:
                h[var] += sign * coeff
            tok = self.peek()
            if tok.value in ("+", "-"):
                self.next()
                sign = -1.0 if tok.value == "-" else 1.0
            else:
                return h, c

    def parse_term(self):
        tok = self.next()
        if tok.kind == "number":
            coeff = float(tok.value)
            if self.peek().value == "*":
                self.next()
                return coeff, self.parse_state_var()
            return coeff, None
        if tok.kind == "ident":
            self.pos -= 1
            return 1.0, self.parse_state_var()
        self.error(f"expected a term, found {tok.value!r}", tok)

    def parse_state_var(self) -> int:
        tok = self.next()
        m = re.fullmatch(r"x(\d+)", tok.value)
        if tok.kind != "ident" or m is None:
            self.error(f"expected a state variable x0..x{self.n - 1}", tok)
        idx = int(m.group(1))
        if idx >= self.n:
            self.error(
                f"state variable x{idx} out of range for dimension {self.n}", tok
            )
        return idx


def parse_formula(text: str, state_dim: int, num_modes: int, named=None):
    """Parse a PrSTL formula in the text grammar.

    named maps formula names to already-built formulas; a bare NAME in
    the text resolves against it.
    """
    parser = _Parser(_tokenize(text), state_dim, num_modes, named)
    result = parser.parse_binary()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"unexpected trailing input {tok.value!r}", tok)
    return result
