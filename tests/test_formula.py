import numpy as np
import pytest

from beliefplan.formula import (
    And,
    Atomic,
    FormulaSyntaxError,
    InsufficientTraceError,
    NameCollisionError,
    Or,
    Release,
    Trace,
    Until,
    always,
    atomic_label,
    atomic_propositions,
    bottom,
    conjunction,
    disjunction,
    eventually,
    horizon,
    monitor,
    monitor_word,
    named,
    parse_formula,
    top,
)
from beliefplan.gaussian import make_belief
from beliefplan.geometry import (
    BeliefCone,
    DiscretePredicate,
    LinearExpression,
    ProbabilisticLinearPredicate,
)

from oracles import oracle_atomic, oracle_monitor, random_formula, random_trace


def _atomic(h, c, eps, modes=None, name=None):
    pred = ProbabilisticLinearPredicate(LinearExpression(h, c), eps)
    mset = None if modes is None else DiscretePredicate(frozenset(modes))
    return Atomic(BeliefCone((pred,)), mset, name)


def _const_trace(mean, cov, modes):
    b = make_belief(mean, cov)
    return Trace(tuple(b for _ in range(len(modes) + 1)), tuple(modes))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_interval_validation():
    a = top()
    with pytest.raises(ValueError):
        Until(a, a, 2, 2)
    with pytest.raises(ValueError):
        Until(a, a, -1, 3)
    with pytest.raises(ValueError):
        Release(a, a, 5, 3)


def test_horizon():
    a = _atomic([1.0], 0.0, 0.1)
    assert horizon(a) == 0
    assert horizon(Until(a, a, 0, 240)) == 240
    f = Until(a, Release(bottom(1), a, 0, 40), 0, 240)
    assert horizon(f) == 280
    assert horizon(And((a, Until(a, a, 1, 5)))) == 5


def test_conjunction_folds_atomics():
    a = _atomic([1.0], -1.0, 0.1, modes={0, 1})
    b = _atomic([-1.0], -1.0, 0.2, modes={1, 2})
    c = conjunction(a, b)
    assert isinstance(c, Atomic)
    assert len(c.cone.constraints) == 2
    assert c.modes.modes == frozenset({1})


def test_disjunction_folds_mode_atomics():
    a = Atomic(BeliefCone(), DiscretePredicate(frozenset({0})))
    b = Atomic(BeliefCone(), DiscretePredicate(frozenset({2})))
    d = disjunction(a, b)
    assert isinstance(d, Atomic)
    assert d.modes.modes == frozenset({0, 2})


def test_disjunction_keeps_cone_atomics_apart():
    a = _atomic([1.0], 0.0, 0.1)
    b = _atomic([-1.0], 0.0, 0.1)
    assert isinstance(disjunction(a, b), Or)


def test_named_requires_atomic():
    a = _atomic([1.0], 0.0, 0.1)
    assert named(a, "goal").name == "goal"
    with pytest.raises(ValueError):
        named(Until(a, a, 0, 3), "nope")


def test_atomic_propositions_dedup_and_collision():
    a1 = _atomic([1.0], 0.0, 0.1, name="a")
    a2 = _atomic([1.0], 0.0, 0.1, name="a")
    f = And((a1, Until(a2, _atomic([-1.0], 0.0, 0.2, name="b"), 0, 3)))
    assert [atomic_label(x) for x in atomic_propositions(f)] == ["a", "b"]
    clash = And((a1, _atomic([2.0], 0.0, 0.1, name="a")))
    with pytest.raises(NameCollisionError):
        atomic_propositions(clash)


def test_atomic_propositions_skips_constants():
    a = _atomic([1.0], 0.0, 0.1, name="a")
    f = Until(top(), Release(bottom(1), a, 0, 2), 0, 3)
    assert [atomic_label(x) for x in atomic_propositions(f)] == ["a"]


# ---------------------------------------------------------------------------
# trace monitor
# ---------------------------------------------------------------------------

def test_atomic_mode_rule_vacuous_at_zero():
    a = _atomic([1.0], -10.0, 0.1, modes={1})
    tr = _const_trace([0.0], [[0.01]], [0, 0])
    # at k=0 the mode predicate is vacuously satisfied
    assert monitor(a, tr, 0) is True
    assert monitor(a, tr, 1) is False


def test_always_and_eventually():
    near = _atomic([1.0], -1.0, 0.1)  # P(x <= 1) >= 0.9
    tr = _const_trace([0.0], [[0.01]], [0] * 5)
    assert monitor(always(0, 5, near, state_dim=1), tr, 0) is True
    far = _atomic([1.0], 1.0, 0.1)  # x <= -1, never true here
    assert monitor(eventually(0, 5, far), tr, 0) is False


def test_monitor_three_valued():
    a = _atomic([1.0], -1.0, 0.1)
    short = _const_trace([0.0], [[0.01]], [0, 0])
    # G[0,10] over a 3-point trace: satisfied so far but indeterminate
    with pytest.raises(InsufficientTraceError):
        monitor(always(0, 10, a, state_dim=1), short, 0)
    # F[0,10]: already witnessed at k=0, definite True on the short trace
    assert monitor(eventually(0, 10, a), short, 0) is True
    # G with a violation inside the trace: definite False
    bad = _atomic([1.0], 1.0, 0.1)
    assert monitor(always(0, 10, bad, state_dim=1), short, 0) is False


def test_monitor_index_bounds():
    a = top()
    tr = _const_trace([0.0], [[1.0]], [0])
    with pytest.raises(ValueError):
        monitor(a, tr, 5)


def test_until_left_required_strictly_before_witness():
    left = _atomic([1.0], 1.0, 0.1)  # always false
    right = _atomic([1.0], -1.0, 0.1)  # always true
    tr = _const_trace([0.0], [[0.01]], [0] * 6)
    # right holds at k' = a immediately, so no left obligation exists
    assert monitor(Until(left, right, 0, 5), tr, 0) is True
    # but if right only holds later, left must bridge the gap
    assert monitor(Until(left, left, 0, 5), tr, 0) is False


def test_monitor_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        dim = int(rng.integers(1, 3))
        num_modes = int(rng.integers(1, 4))
        f = random_formula(rng, dim, num_modes, depth=int(rng.integers(0, 4)))
        h = horizon(f)
        length = h + 1 + int(rng.integers(0, 3))
        if length > 12:
            continue
        tr = random_trace(rng, dim, num_modes, length)
        assert monitor(f, tr, 0) == oracle_monitor(f, tr, 0)


def test_monitor_definite_verdicts_extension_stable():
    # any definite verdict on a prefix must persist on the full trace
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        dim = 1
        num_modes = 2
        f = random_formula(rng, dim, num_modes, depth=2)
        h = horizon(f)
        if h + 1 > 12:
            continue
        tr = random_trace(rng, dim, num_modes, h + 1)
        for cut in range(1, h + 1):
            prefix = Trace(tr.beliefs[:cut], tr.modes[: cut - 1])
            try:
                verdict = monitor(f, prefix, 0)
            except InsufficientTraceError:
                continue
            assert verdict == monitor(f, tr, 0)
            checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# word monitor
# ---------------------------------------------------------------------------

def test_monitor_word_basic():
    a = _atomic([1.0], 0.0, 0.1, name="a")
    b = _atomic([-1.0], 0.0, 0.1, name="b")
    f = Until(a, b, 0, 10)
    word = [(frozenset({"a"}), 0)] * 3 + [(frozenset({"b"}), 0)] * 2
    assert monitor_word(f, word) is True
    assert monitor_word(f, [(frozenset({"a"}), 0)] * 3) is False


def test_monitor_word_always_needs_full_window():
    a = _atomic([1.0], 0.0, 0.1, name="a")
    g = always(0, 40, a, state_dim=1)
    assert monitor_word(g, [(frozenset({"a"}), 0)] * 41) is True
    assert monitor_word(g, [(frozenset({"a"}), 0)] * 40) is False


def test_monitor_word_mode_rule():
    a = Atomic(BeliefCone(), DiscretePredicate(frozenset({1})), "m1")
    word = [(frozenset(), 0), (frozenset(), 1)]
    # position 0: vacuous; position 1: arrived via mode word[0] = 0
    assert monitor_word(a, word) is True
    sat_at_1 = monitor_word(Until(top(), a, 1, 2), word)
    assert sat_at_1 is False
    word2 = [(frozenset(), 1), (frozenset(), 0)]
    assert monitor_word(Until(top(), a, 1, 2), word2) is True


def test_monitor_word_empty():
    with pytest.raises(ValueError):
        monitor_word(top(), [])


def test_monitor_word_agrees_with_trace_monitor_on_induced_traces():
    """A word where atomic `a` holds exactly when the belief is in its
    cone must produce the same verdict as the belief monitor."""
    rng = np.random.default_rng(7)
    from beliefplan.geometry import cone_contains

    for _ in range(200):
        num_modes = 2
        a1 = _atomic([1.0], float(rng.normal()), 0.2, name="p")
        a2 = _atomic([-1.0], float(rng.normal()), 0.2,
                     modes=set(int(m) for m in rng.choice(2, size=1)), name="r")
        f = random_formula_over(rng, a1, a2)
        h = horizon(f)
        if h + 1 > 12:
            continue
        tr = random_trace(rng, 1, num_modes, h + 1)
        # word position k carries the labels of the cones containing
        # belief k; both monitors read the mode applied on the step
        # into k, so word[k].mode = modes[k] (last entry is never read)
        word = []
        for k in range(len(tr.beliefs)):
            labels = set()
            if cone_contains(a1.cone, tr.beliefs[k]):
                labels.add("p")
            if cone_contains(a2.cone, tr.beliefs[k]):
                labels.add("r")
            mode = tr.modes[k] if k < len(tr.modes) else 0
            word.append((frozenset(labels), mode))
        assert monitor_word(f, word) == monitor(f, tr, 0)


def test_monitor_word_matches_bruteforce_oracle_on_induced_words():
    """The word monitor against the brute-force oracle, not against the
    trace monitor: a word carries the label of each atomic whose cone the
    oracle finds satisfied at that belief, and the trace's modes. Past
    the end the oracle reads false, which is the word semantics, so the
    verdicts agree on short traces too; there the trace monitor may
    answer True only when the oracle does."""
    rng = np.random.default_rng(2004)
    lengths = {"short": 0, "full": 0}
    for _ in range(300):
        dim = int(rng.integers(1, 3))
        num_modes = int(rng.integers(1, 4))
        f = random_formula(rng, dim, num_modes, depth=int(rng.integers(0, 4)))
        h = horizon(f)
        if h + 3 > 14:
            continue
        length = int(rng.integers(1, h + 4))
        tr = random_trace(rng, dim, num_modes, length)
        atomics = atomic_propositions(f)
        word = []
        for k in range(length):
            labels = frozenset(
                atomic_label(a) for a in atomics if oracle_atomic(Atomic(a.cone), tr, k)
            )
            word.append((labels, tr.modes[k] if k < length - 1 else 0))
        assert monitor_word(f, word) == oracle_monitor(f, tr, 0)
        if length >= h + 1:
            lengths["full"] += 1
            continue
        lengths["short"] += 1
        for k in range(min(length, 3)):
            try:
                verdict = monitor(f, tr, k)
            except InsufficientTraceError:
                verdict = None
            assert (verdict is True) == oracle_monitor(f, tr, k)
    assert lengths["short"] > 50 and lengths["full"] > 50


def random_formula_over(rng, a1, a2):
    kind = rng.integers(0, 4)
    a = int(rng.integers(0, 2))
    b = a + int(rng.integers(1, 4))
    if kind == 0:
        return Until(a1, a2, a, b)
    if kind == 1:
        return Release(a1, a2, a, b)
    if kind == 2:
        return Until(a2, Release(a1, a2, a, b), 0, 3)
    return Release(a1, Until(a1, a2, a, b), 0, 3)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_probpred():
    f = parse_formula("P(x0 - 2*x1 <= 3) >= 0.95", 2, 1)
    assert isinstance(f, Atomic)
    (pred,) = f.cone.constraints
    assert np.allclose(pred.expr.h, [1.0, -2.0])
    assert pred.expr.c == pytest.approx(-3.0)
    assert pred.epsilon == pytest.approx(0.05)


def test_parse_modepred():
    f = parse_formula("q == 1", 1, 3)
    assert f.modes.modes == frozenset({1})
    f = parse_formula("q in {0, 2}", 1, 3)
    assert f.modes.modes == frozenset({0, 2})


def test_parse_temporal_and_boolean():
    text = "(P(x0 <= 1) >= 0.99) U[0,240] G[0,40] (P(-x0 <= 0.25) >= 0.95)"
    f = parse_formula(text, 1, 1)
    assert isinstance(f, Until)
    assert (f.a, f.b) == (0, 240)
    assert isinstance(f.right, Release)
    assert horizon(f) == 280


def test_parse_conjunction_folds():
    f = parse_formula("P(x0 <= 1) >= 0.99 & P(-x0 <= 1) >= 0.99 & q == 0", 1, 1)
    assert isinstance(f, Atomic)
    assert len(f.cone.constraints) == 2
    assert f.modes.modes == frozenset({0})


def test_parse_named_resolution():
    goal = parse_formula("P(x0 <= 0) >= 0.9", 1, 1)
    f = parse_formula("F[0,5] goal", 1, 1, named={"goal": goal})
    assert isinstance(f, Until)
    assert f.right is goal


def test_parse_errors_report_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("P(x0 <= 1) >= 0.3", 1, 1)  # p < 0.5
    assert exc.value.line == 1
    with pytest.raises(FormulaSyntaxError):
        parse_formula("G[5,2] true", 1, 1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("unknown_name", 1, 1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("q == 4", 1, 2)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P(x5 <= 1) >= 0.9", 2, 1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("true U[0,3]", 1, 1)
