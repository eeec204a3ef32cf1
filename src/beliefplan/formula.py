"""PrSTL abstract syntax, parser and bounded-semantics monitor;
the same tokenizer and parser also read a mode's noise expression.

The formula grammar is negation-free: atomics are conjunctions of chance
constraints plus a mode-set predicate, composed with and/or and the
bounded temporal operators U[a,b] and R[a,b]. Always and eventually are
derived: G[a,b] f == false R[a,b] f, F[a,b] f == true U[a,b] f.

Nodes are immutable and built children first, so each derives at
construction its horizon from its children's, which bounds the words
the dwell search tries, and for an atomic the label and constant
verdict the monitors read. Named formulas share
subtrees, so a formula is a DAG: one walk lists each distinct node once,
children first, and the nesting bound, the atomic propositions and the
monitors are loops over that list, linear in the distinct nodes.

One array evaluator serves every monitor. It maps a formula to its
satisfaction at every position of a finite signal, with positions past
the end counting as false (Maler & Nickovic, "Monitoring Temporal
Properties of Continuous Signals", 2004). One atomic rule, a state test
masked by the arriving mode, feeds it; the state test reads the labels
of a batch of run-length words in monitor_dwells() (one row per dwell
vector of a (label, mode) segment sequence; monitor_word() is one row),
and cone containment of each belief in monitor(). Both monitors read
only the signal's own positions; neither pads it to the horizon.
Because the grammar has no negation, extending a trace can never turn
a true verdict false.
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


# The deepest nesting a formula or noise expression may have: open
# parentheses and prefix operators while parsing, and operator levels of
# the syntax tree once named formulas are substituted. Parsing recurses
# a few frames per level and runs out of frames near 200.
MAX_NESTING = 64

# The longest horizon a formula may have, in steps, once named formulas
# are substituted. The dwell search keeps horizon + 1 positions per
# word; the bound keeps a mistyped bound from exhausting memory.
MAX_HORIZON = 10_000


class UnsupportedBoundError(ValueError):
    """Temporal bound is infinite or otherwise not representable."""


class InsufficientTraceError(ValueError):
    """The trace is too short to decide satisfaction. Nothing in the
    package raises it, since monitor() reads positions past the end of
    a trace as false; it stays because bench/workloads.py catches it."""


class NameCollisionError(ValueError):
    """Two structurally distinct atomics share a name, or a named formula
    takes a keyword of the grammar."""


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
    Construction derives label, the identity in words and deduplication
    (the name, else the constraints and mode set spelled out), and
    whether the atomic is trivially_false (a constant row of the cone
    fails) and reads_state (some row reads the state).
    """

    cone: BeliefCone = field(default_factory=BeliefCone)
    modes: DiscretePredicate | None = None
    name: str | None = None
    label: str = field(init=False, repr=False, compare=False)
    trivially_false: bool = field(init=False, repr=False, compare=False)
    reads_state: bool = field(init=False, repr=False, compare=False)
    horizon = 0  # steps beyond the evaluation index it references

    def __post_init__(self):
        H, c = self.cone.H, self.cone.c
        parts = []
        for p in self.cone.constraints:
            coeffs = ",".join(f"{v:.17g}" for v in p.expr.h)
            parts.append(f"P([{coeffs}].x+{p.expr.c:.17g}<=0)>={1.0 - p.epsilon:.17g}")
        if self.modes is not None:
            parts.append("q in {%s}" % ",".join(str(m) for m in sorted(self.modes.modes)))
        label = self.name if self.name is not None else " & ".join(parts) or "true"
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "trivially_false", bool(np.any(c[~H.any(axis=1)] > CONTAINMENT_TOL)))
        object.__setattr__(self, "reads_state", bool(H.any()))


@dataclass(frozen=True)
class _Junction:
    """The body of And and Or; the horizon is the largest child's."""

    children: tuple
    horizon: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.children:
            raise ValueError(f"{type(self).__name__} requires at least one child")
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "horizon", max(ch.horizon for ch in self.children))


class And(_Junction):
    pass


class Or(_Junction):
    pass


@dataclass(frozen=True)
class _Bounded:
    """The body of Until and Release; the horizon is b plus the larger operand's."""

    left: object
    right: object
    a: int
    b: int
    horizon: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = self.a, self.b
        if a != int(a) or b != int(b):
            raise UnsupportedBoundError(f"temporal bounds must be integers, got [{a}, {b}]")
        if a < 0:
            raise ValueError(f"temporal delay must be nonnegative, got {a}")
        if not a < b:
            raise ValueError(f"temporal interval requires a < b, got [{a}, {b}]")
        object.__setattr__(self, "horizon", b + max(self.left.horizon, self.right.horizon))


class Until(_Bounded):
    pass


class Release(_Bounded):
    pass


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


def always(a: int, b: int, f, state_dim: int) -> Release:
    """G[a,b] f == false R[a,b] f."""
    return Release(bottom(state_dim), f, int(a), int(b))


def eventually(a: int, b: int, f) -> Until:
    """F[a,b] f == true U[a,b] f."""
    return Until(top(), f, int(a), int(b))


def conjunction(*children):
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
        return Atomic(BeliefCone(tuple(constraints)), modes)
    return And(tuple(flat))


def disjunction(*children):
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
            return Atomic(BeliefCone(), None)
        union = frozenset().union(*(ch.modes.modes for ch in flat))
        return Atomic(BeliefCone(), DiscretePredicate(union))
    return Or(tuple(flat))


def named(f, name: str):
    """Attach a name to an atomic state formula."""
    if not isinstance(f, Atomic):
        raise ValueError("only atomic state formulas can be named")
    return Atomic(f.cone, f.modes, name)


def _children(node) -> tuple:
    """The operands of a formula node, or of a noise expression node: a
    tuple whose operands are the tuples after its tag."""
    if isinstance(node, Atomic):
        return ()
    if isinstance(node, (And, Or)):
        return node.children
    if isinstance(node, tuple):
        return tuple(ch for ch in node[1:] if isinstance(ch, tuple))
    return (node.left, node.right)


def _program(f) -> list:
    """Each distinct node of f once (by id), children before parents, in
    the order a left-to-right walk first finishes them. Named formulas
    make f a DAG, so this is linear in its distinct nodes where a tree
    walk can be exponential."""
    order, seen = [], set()
    stack = [(f, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            for ch in reversed(_children(node)):
                stack.append((ch, False))
    return order


def _levels(root) -> int:
    """Operator levels of a syntax tree, 0 at a leaf, counted without
    recursion over its distinct nodes: a long sum is a deep left chain."""
    levels = {}
    for node in _program(root):
        levels[id(node)] = max((1 + levels[id(ch)] for ch in _children(node)), default=0)
    return levels[id(root)]


# ---------------------------------------------------------------------------
# Atomic propositions and horizon
# ---------------------------------------------------------------------------

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
    for a in _program(f):
        if not isinstance(a, Atomic):
            continue
        if (not a.cone.constraints and a.modes is None) or a.trivially_false:
            continue  # constant: true or false everywhere
        label = a.label
        if label in seen:
            if _atomic_key(seen[label]) != _atomic_key(a):
                raise NameCollisionError(
                    f"two distinct atomic propositions share the name {label!r}"
                )
            continue
        seen[label] = a
        order.append(a)
    return order


def horizon(f) -> int:
    """Number of steps beyond the evaluation index that the formula can
    reference: f.horizon, derived when f was built."""
    return f.horizon


# ---------------------------------------------------------------------------
# Monitors: one array evaluator, one atomic rule, two front ends
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


def _sat(f, atom) -> np.ndarray:
    """Satisfaction of f at every position of a finite signal, as a
    Boolean array whose last axis is the position; leading axes batch
    independent signals. atom(a) gives an atomic's array; all arrays
    share one shape, and positions past the end count as false."""
    value = {}
    for node in _program(f):
        if isinstance(node, Atomic):
            sat = atom(node)
        elif isinstance(node, (And, Or)):
            op = np.logical_and if isinstance(node, And) else np.logical_or
            sat = op.reduce([value[id(ch)] for ch in node.children])
        else:
            until = isinstance(node, Until)
            left, right = value[id(node.left)], value[id(node.right)]
            # A witness j in [k+a, k+b] needs `hit` at j while `guard` holds
            # on [k+a, j) for U (left before right) or on [k+a, j] for R.
            guard, hit = (left, right) if until else (right, left)
            batch, L = guard.shape[:-1], guard.shape[-1]
            k = np.arange(L, dtype=np.int32)
            lo = np.minimum(k + node.a, L)
            hi = np.minimum(k + node.b, L - 1)
            # first_fail[..., j]: smallest index >= j where guard is false, else L
            fails = np.concatenate(
                (np.where(guard, np.int32(L), k), np.full(batch + (1,), L, np.int32)), axis=-1
            )
            first_fail = np.minimum.accumulate(fails[..., ::-1], axis=-1)[..., ::-1]
            hits = np.zeros(batch + (L + 1,), np.int32)
            np.cumsum(hit, axis=-1, dtype=np.int32, out=hits[..., 1:])
            fail_lo = first_fail[..., lo]
            last = np.maximum(np.minimum(hi, fail_lo - (not until)), lo - 1)
            sat = np.take_along_axis(hits, last + 1, axis=-1) > hits[..., lo]
            if not until:  # right holds on the whole window, inside the signal
                sat |= fail_lo > k + node.b
        value[id(node)] = sat
    return value[id(f)]


def _atomic_sat(a: Atomic, truth, arrive: np.ndarray) -> np.ndarray:
    """The atomic rule of every monitor: truth(a), the atomic's state
    test as an array shaped like arrive, masked by the mode arriving at
    each position (arrive; -1 where none arrives, which passes the mode
    test). A trivially false atomic is false everywhere."""
    if a.trivially_false:
        return np.zeros(arrive.shape, dtype=bool)
    sat = truth(a)
    if a.modes is not None:
        sat = sat & ((arrive < 0) | np.isin(arrive, list(a.modes.modes)))
    return sat


def monitor(f, tr: Trace, k: int = 0) -> bool:
    """Satisfaction of the trace at index k, with positions past its end
    counting as false."""
    n = len(tr.beliefs)
    if k < 0 or k >= n:
        raise ValueError(f"evaluation index {k} outside trace")
    arrive = np.array((-1, *tr.modes), dtype=np.int64)
    beliefs = BeliefState(np.array([b.mean for b in tr.beliefs]), np.array([b.cov for b in tr.beliefs]))

    def truth(a):
        return cone_contains(a.cone, beliefs)

    return bool(_sat(f, lambda a: _atomic_sat(a, truth, arrive))[k])


def monitor_dwells(f, signature, dwells) -> np.ndarray:
    """Word-monitor verdicts for many dwell vectors over one signature.

    signature is a sequence of K (label, mode) segments and dwells a
    (B, K) matrix of non-negative dwells; row b stands for the word that
    holds segment s for dwells[b, s] positions, one label per position.
    Returns the (B,) Boolean verdicts at position 0. All rows are
    evaluated in one array pass, padded with false to the longest row:
    past its end a word is false anyway.
    """
    dwells = np.asarray(dwells, dtype=np.int32)
    if dwells.ndim != 2 or dwells.shape[1] != len(signature):
        raise ValueError(
            f"dwells must be a (B, {len(signature)}) matrix, got shape {dwells.shape}"
        )
    if np.any(dwells < 0) or not np.all(dwells.sum(axis=1) > 0):
        raise ValueError("dwells must be non-negative with a nonempty word per row")
    B, K = dwells.shape
    ends = np.cumsum(dwells, axis=1, dtype=np.int32)
    L = int(ends[:, -1].max())
    # seg[b, p]: segment active at position p of row b, K past the end.
    seg = (ends[:, None, :] <= np.arange(L, dtype=np.int32)[:, None]).sum(
        axis=2, dtype=np.int32
    )
    labels = [label for label, _ in signature]
    # prev[b, p]: segment at p - 1, whose mode arrives at p; K at position
    # 0 (and past the end, where the word is false), where none arrives.
    prev = np.concatenate((np.full((B, 1), K, np.int32), seg[:, :-1]), axis=1)
    arrive = np.array([int(m) for _, m in signature] + [-1], dtype=np.int64)[prev]

    def truth(a):
        return np.array([not a.reads_state or a.label == lb for lb in labels] + [False])[seg]

    return _sat(f, lambda a: _atomic_sat(a, truth, arrive))[:, 0]


def monitor_word(f, signature, dwells) -> bool:
    """monitor_dwells on one dwell vector: the verdict at position 0 of
    the word that holds segment s of signature for dwells[s] positions."""
    return bool(monitor_dwells(f, signature, [dwells])[0])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|>=|<=|[&|()\[\]{},+\-*^])
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


# Words the parser reads before the table of named formulas, so a
# formula named after one would be shadowed or would not parse.
KEYWORDS = frozenset(("true", "false", "P", "q", "G", "F"))


class _Parser:
    """One cursor over the tokens of a formula or a noise expression
    (language names it in the nesting error), with one nesting counter."""

    def __init__(self, tokens, state_dim, num_modes=0, named=None, language="formula"):
        self.tokens = tokens
        self.pos = 0
        self.n = state_dim
        self.N = num_modes
        self.named = named or {}
        self.depth = 0
        self.too_deep = f"{language} nests deeper than {MAX_NESTING} levels"

    def nested(self, tok: _Token, parse):
        """parse(), one more open level deep, the level opened at tok."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(self.too_deep, tok)
        node = parse()
        self.depth -= 1
        return node

    def finish(self, root):
        """root, once the text ends here and its syntax tree nests at
        most MAX_NESTING operator levels."""
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.value!r}", tok)
        if _levels(root) > MAX_NESTING:
            self.error(self.too_deep, self.tokens[0])
        return root

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
            sub = self.nested(tok, self.parse_unary)
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
            inner = self.nested(tok, self.parse_binary)
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
        start = self.expect("P")
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
        if not (np.all(np.isfinite(h)) and np.isfinite(c - rhs)):
            self.error("predicate coefficients must be finite", start)
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

    # noise grammar: sum := product (("+"|"-") product)*
    def parse_sum(self):
        node = self.parse_product()
        while self.peek().value in ("+", "-"):
            node = (self.next().value, node, self.parse_product())
        return node

    # product := signed ("*" signed)*
    def parse_product(self):
        node = self.parse_signed()
        while self.peek().value == "*":
            self.next()
            node = ("*", node, self.parse_signed())
        return node

    # signed := "-" signed | base ("^" INT)?, so -x0^2 is -(x0^2)
    def parse_signed(self):
        tok = self.peek()
        if tok.value == "-":
            self.next()
            return ("neg", self.nested(tok, self.parse_signed))
        node = self.parse_base()
        if self.peek().value == "^":
            self.next()
            tok = self.next()
            if tok.kind != "number" or not float(tok.value).is_integer():
                self.error(f"exponent must be an integer literal, found {tok.value!r}", tok)
            node = ("^", node, int(float(tok.value)))
        return node

    # base := NUMBER | x<i> | "(" sum ")"
    def parse_base(self):
        tok = self.peek()
        if tok.value == "(":
            self.next()
            node = self.nested(tok, self.parse_sum)
            self.expect(")")
            return node
        if tok.kind == "number":
            self.next()
            value = float(tok.value)
            if not np.isfinite(value):
                self.error(f"number {tok.value!r} is not finite", tok)
            return ("num", value)
        return ("var", self.parse_state_var())

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
    the text resolves against it. A text or a resulting syntax tree that
    nests deeper than MAX_NESTING levels, or whose horizon exceeds
    MAX_HORIZON, raises FormulaSyntaxError.
    """
    parser = _Parser(_tokenize(text), state_dim, num_modes, named)
    f = parser.finish(parser.parse_binary())
    if f.horizon > MAX_HORIZON:
        parser.error(f"horizon {f.horizon} exceeds {MAX_HORIZON} steps", parser.tokens[0])
    return f


def parse_noise(text: str, dim: int):
    """Parse a scalar noise expression over x0..x{dim-1} into its syntax
    tree of tuples: ("num", float), ("var", i), ("neg", a), ("^", a, int)
    and (op, a, b) for op in + - *. It shares the formula's tokens,
    number syntax and nesting bound, and raises FormulaSyntaxError."""
    parser = _Parser(_tokenize(text), dim, language="noise expression")
    return parser.finish(parser.parse_sum())
