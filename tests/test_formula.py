import dataclasses
import itertools
import os
import re
from collections import Counter

import numpy as np
import pytest

from beliefplan import cli, formula
from beliefplan.formula import (
    And,
    Atomic,
    FormulaSyntaxError,
    MAX_NESTING,
    NameCollisionError,
    Or,
    Release,
    Trace,
    Until,
    always,
    atomic_propositions,
    bottom,
    conjunction,
    disjunction,
    eventually,
    horizon,
    monitor,
    monitor_dwells,
    monitor_word,
    named,
    parse_formula,
    top,
)
from beliefplan.gaussian import make_belief
from beliefplan.geometry import (
    BeliefCone,
    LinearExpression,
    ProbabilisticLinearPredicate,
    cone_contains,
)

from oracles import (
    list_cone_contains,
    oracle_atomic,
    oracle_atomic_propositions,
    oracle_horizon,
    oracle_monitor,
    oracle_walk_atomics,
    oracle_word,
    random_dag,
    random_formula,
    random_trace,
    read_trajectory_csv,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def _atomic(h, c, eps, modes=None, name=None):
    pred = ProbabilisticLinearPredicate(LinearExpression(h, c), eps)
    mset = None if modes is None else frozenset(modes)
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
    """Each node carries its horizon from construction; horizon() reads it."""
    a = _atomic([1.0], 0.0, 0.1)
    assert a.horizon == 0
    assert Until(a, a, 0, 240).horizon == 240
    f = Until(a, Release(bottom(1), a, 0, 40), 0, 240)
    assert f.horizon == 280 and horizon(f) == 280
    assert And((a, Until(a, a, 1, 5))).horizon == 5
    assert Or((Release(a, a, 2, 7), a)).horizon == 7


def test_atomics_carry_label_and_constant_verdict():
    a = _atomic([1.0, 0.0], -2.0, 0.25, modes={2, 0})
    assert a.label == "P([1,0].x+-2<=0)>=0.75 & q in {0,2}"
    assert not a.trivially_false and a.reads_state
    assert named(a, "goal").label == "goal"
    assert top().label == "true" and not top().trivially_false and not top().reads_state
    assert bottom(2).label == "false" and bottom(2).trivially_false
    mode_only = Atomic(BeliefCone(), frozenset({1}))
    assert mode_only.label == "q in {1}" and not mode_only.reads_state
    assert _atomic([0.0, 0.0], 1e-3, 0.1).trivially_false  # 0.x + 1e-3 <= 0
    assert not _atomic([0.0, 0.0], 0.0, 0.1).trivially_false
    # The derived fields stay out of the constructor, equality and repr.
    assert [f.name for f in dataclasses.fields(Atomic) if f.init or f.compare] == ["cone", "modes", "name"]
    assert "label" not in repr(a) and "horizon" not in repr(Until(a, a, 0, 3))


def test_atomics_over_several_states_compare_by_value():
    """Two atomics over a 2-D state compare by their coefficients, as
    do the junctions over them, and membership tests work."""
    a, b = _atomic([1.0, 0.0], -2.0, 0.25), _atomic([1.0, 0.0], -2.0, 0.25)
    other = _atomic([0.0, 1.0], -2.0, 0.25)
    assert (a == b) is True and (a == other) is False and a != other
    assert And((a, other)) == And((b, other)) and And((a, b)) != And((a, other))
    assert a in (b,) and a not in (other,)
    assert LinearExpression([1.0, 0.0], 1.0) != LinearExpression([1.0, 0.0], 2.0)


def test_junction_and_bounded_operators_keep_their_identity():
    a = _atomic([1.0], 0.0, 0.1)
    assert And((a,)) != Or((a,)) and Until(a, a, 0, 3) != Release(a, a, 0, 3)
    assert And([a, a]) == And((a, a)) and isinstance(And((a,)).children, tuple)
    assert repr(Or((a,))).startswith("Or(children=")
    with pytest.raises(ValueError, match="^Or requires at least one child$"):
        Or(())
    with pytest.raises(ValueError, match="^And requires at least one child$"):
        And(())


def test_conjunction_folds_atomics():
    a = _atomic([1.0], -1.0, 0.1, modes={0, 1})
    b = _atomic([-1.0], -1.0, 0.2, modes={1, 2})
    c = conjunction(a, b)
    assert isinstance(c, Atomic)
    assert len(c.cone.constraints) == 2
    assert c.modes == frozenset({1})


def test_disjunction_folds_mode_atomics():
    a = Atomic(BeliefCone(), frozenset({0}))
    b = Atomic(BeliefCone(), frozenset({2}))
    d = disjunction(a, b)
    assert isinstance(d, Atomic)
    assert d.modes == frozenset({0, 2})


def test_disjunction_keeps_cone_atomics_apart():
    a = _atomic([1.0], 0.0, 0.1)
    b = _atomic([-1.0], 0.0, 0.1)
    assert isinstance(disjunction(a, b), Or)


def test_parse_parenthesised_disjunction_flattens():
    """(a | b) | c parses to one Or of three atomics, as a | b | c does."""
    f = parse_formula("(P(x0 <= 1) >= 0.9 | P(x0 <= 2) >= 0.9) | P(x0 <= 3) >= 0.9", 1, 1)
    flat = parse_formula("P(x0 <= 1) >= 0.9 | P(x0 <= 2) >= 0.9 | P(x0 <= 3) >= 0.9", 1, 1)
    assert isinstance(f, Or) and all(isinstance(ch, Atomic) for ch in f.children)
    assert [ch.label for ch in f.children] == [ch.label for ch in flat.children]


def test_parse_disjunction_with_true_folds_to_true():
    """A mode atomic or true is the unconstrained, always-true atomic."""
    f = parse_formula("q == 0 | true", 1, 2)
    assert isinstance(f, Atomic) and f.modes is None and not f.cone.constraints
    assert f.label == "true" and not f.trivially_false
    assert atomic_propositions(f) == []


def test_named_requires_atomic():
    a = _atomic([1.0], 0.0, 0.1)
    assert named(a, "goal").name == "goal"
    with pytest.raises(ValueError):
        named(Until(a, a, 0, 3), "nope")


def test_atomic_propositions_dedup_and_collision():
    a1 = _atomic([1.0], 0.0, 0.1, name="a")
    a2 = _atomic([1.0], 0.0, 0.1, name="a")
    f = And((a1, Until(a2, _atomic([-1.0], 0.0, 0.2, name="b"), 0, 3)))
    assert [x.label for x in atomic_propositions(f)] == ["a", "b"]
    clash = And((a1, _atomic([2.0], 0.0, 0.1, name="a")))
    with pytest.raises(NameCollisionError):
        atomic_propositions(clash)


def test_atomic_propositions_skips_constants():
    a = _atomic([1.0], 0.0, 0.1, name="a")
    f = Until(top(), Release(bottom(1), a, 0, 2), 0, 3)
    assert [x.label for x in atomic_propositions(f)] == ["a"]


def test_dag_walks_match_the_tree_walk_references():
    """On formulas with shared subtrees, horizon and atomic_propositions
    (its order, and which label collision it reports) equal the
    recursive tree-walk references."""
    rng = np.random.default_rng(15)
    shared = 0
    for _ in range(1000):
        f = random_dag(rng, 2, 3, size=int(rng.integers(1, 9)))
        assert f.horizon == oracle_horizon(f)
        try:
            expected = oracle_atomic_propositions(f)
        except NameCollisionError as exc:
            with pytest.raises(NameCollisionError, match=re.escape(str(exc))):
                atomic_propositions(f)
        else:
            got = atomic_propositions(f)
            assert len(got) == len(expected)
            assert all(g is e for g, e in zip(got, expected))
        atomics = list(oracle_walk_atomics(f))
        shared += len({id(a) for a in atomics}) < len(atomics)
    assert shared > 500


def test_named_chain_walks_in_linear_time():
    """A chain of named formulas, each using the one before twice, has a
    syntax tree of over 2**30 leaves; its 91 distinct nodes are walked once."""
    chain = {"n0": parse_formula("P(x0 <= 0) >= 0.9", 1, 1)}
    for i in range(1, 31):
        chain[f"n{i}"] = parse_formula(f"(n{i - 1}) & (true U[0,1] n{i - 1})", 1, 1, chain)
    f = chain["n30"]
    assert f.horizon == 30
    assert [a is chain["n0"] for a in atomic_propositions(f)] == [True]
    assert monitor_word(f, [(chain["n0"].label, 0)], [31]) is True


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


def test_monitor_matches_the_oracle_on_every_prefix():
    """Positions past the end of a trace are false: on a 3-point trace
    G[0,10] fails although nothing inside the trace violates it, and
    F[0,10] holds on its witness at 0. On random formulas and traces the
    verdict equals the brute-force oracle's at every index of every
    prefix, including prefixes shorter than the horizon."""
    a = _atomic([1.0], -1.0, 0.1)
    short = _const_trace([0.0], [[0.01]], [0, 0])
    assert monitor(always(0, 10, a, state_dim=1), short, 0) is False
    assert monitor(eventually(0, 10, a), short, 0) is True
    assert monitor(always(0, 2, a, state_dim=1), short, 0) is True
    rng = np.random.default_rng(35)
    lengths = Counter()
    verdicts = []
    for _ in range(150):
        dim, num_modes = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        f = random_formula(rng, dim, num_modes, depth=int(rng.integers(0, 4)))
        h = f.horizon
        if h + 2 > 12:
            continue
        tr = random_trace(rng, dim, num_modes, h + 2)
        for cut in range(1, h + 3):
            prefix = Trace(tr.beliefs[:cut], tr.modes[: cut - 1])
            lengths["short" if cut <= h else "full"] += 1
            for k in range(cut):
                verdict = monitor(f, prefix, k)
                assert verdict is oracle_monitor(f, prefix, k)
                verdicts.append(verdict)
    assert lengths["short"] > 200 and lengths["full"] > 100, lengths
    assert 300 < sum(verdicts) < len(verdicts) - 300


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
        h = f.horizon
        length = h + 1 + int(rng.integers(0, 3))
        if length > 12:
            continue
        tr = random_trace(rng, dim, num_modes, length)
        assert monitor(f, tr, 0) == oracle_monitor(f, tr, 0)


def test_monitor_true_verdicts_extension_stable():
    """Without negation, a true verdict on a prefix stays true on the
    full trace, which only turns positions past the prefix's end from
    false to their own truth."""
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        dim = 1
        num_modes = 2
        f = random_formula(rng, dim, num_modes, depth=2)
        h = f.horizon
        if h + 1 > 12:
            continue
        tr = random_trace(rng, dim, num_modes, h + 1)
        for cut in range(1, h + 1):
            prefix = Trace(tr.beliefs[:cut], tr.modes[: cut - 1])
            if monitor(f, prefix, 0):
                assert monitor(f, tr, 0) is True
                checked += 1
    assert checked > 50


def _stacked_monitor_calls(monkeypatch, f, tr):
    """monitor's verdict on tr and the number of its
    cone_contains calls, each checked against list_cone_contains at
    every belief of the trace."""
    calls = []

    def recording(cone, b):
        truths = cone_contains(cone, b)
        calls.append(truths.tolist())
        assert calls[-1] == [list_cone_contains(cone, m, c) for m, c in zip(b.mean, b.cov)]
        return truths

    with monkeypatch.context() as m:
        m.setattr(formula, "cone_contains", recording)
        verdict = monitor(f, tr, 0)
    return verdict, len(calls)


def test_stacked_monitor_matches_the_oracle_and_per_belief_truths(monkeypatch):
    """The trace monitor makes one cone_contains call per atomic over the
    stacked trace, whose truths equal list_cone_contains at each belief.
    On random formulas with epsilon = 0 rows, empty cones and mode sets,
    over beliefs with variance-free axes, the verdict on a random prefix
    equals the brute-force oracle's on that prefix, and a true one stays
    true on the full-length trace."""
    rng = np.random.default_rng(2016)
    outcomes = Counter()
    for _ in range(600):
        dim, num_modes = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        f = random_formula(rng, dim, num_modes, int(rng.integers(0, 4)), edge_cases=True)
        h = f.horizon
        if h + 1 > 12:
            continue
        tr = random_trace(rng, dim, num_modes, h + 1, edge_cases=True)
        cut = int(rng.integers(1, h + 2))
        prefix = Trace(tr.beliefs[:cut], tr.modes[: cut - 1])
        verdict, calls = _stacked_monitor_calls(monkeypatch, f, prefix)
        atomics = [a for a in oracle_walk_atomics(f) if not a.trivially_false]
        assert calls == len(atomics)
        assert verdict is oracle_monitor(f, prefix, 0)
        assert not verdict or oracle_monitor(f, tr, 0)
        outcomes["full" if cut == h + 1 else "short", verdict] += 1
    assert min(outcomes.values()) > 30 and len(outcomes) == 4, outcomes


def test_stacked_monitor_on_a_plan_through_a_dark_mode(monkeypatch):
    """The darkswitch plan at seed 3 dwells in the dark mode 0 (no
    observation) and is shorter than its formula's horizon. On every
    prefix the monitor makes one cone_contains call per atomic, with the
    truths of list_cone_contains at each belief; short prefixes fail the
    formula and the whole plan satisfies it."""
    problem = cli.load_problem(os.path.join(HERE, os.pardir, "bench", "darkswitch.json"))[0]
    plan = read_trajectory_csv(os.path.join(HERE, "data", "darkswitch_seed3", "trajectory.csv"))
    assert 0 in plan.modes and len(plan) < problem.formula.horizon + 1
    outcomes = Counter()
    for cut in range(1, len(plan) + 1):
        prefix = Trace(plan.beliefs[:cut], plan.modes[: cut - 1])
        verdict, calls = _stacked_monitor_calls(monkeypatch, problem.formula, prefix)
        assert calls == 2
        outcomes[verdict] += 1
    assert verdict is True and outcomes[False] > 0, outcomes


# ---------------------------------------------------------------------------
# word monitor
# ---------------------------------------------------------------------------

def test_monitor_word_basic():
    a = _atomic([1.0], 0.0, 0.1, name="a")
    b = _atomic([-1.0], 0.0, 0.1, name="b")
    f = Until(a, b, 0, 10)
    assert monitor_word(f, [("a", 0), ("b", 0)], [3, 2]) is True
    assert monitor_word(f, [("a", 0)], [3]) is False


def test_monitor_word_always_needs_full_window():
    a = _atomic([1.0], 0.0, 0.1, name="a")
    g = always(0, 40, a, state_dim=1)
    assert monitor_word(g, [("a", 0)], [41]) is True
    assert monitor_word(g, [("a", 0)], [40]) is False


def test_monitor_word_mode_rule():
    a = Atomic(BeliefCone(), frozenset({1}), "m1")
    signature = [("none", 0), ("none", 1)]
    # position 0: vacuous; position 1: arrived via mode 0 of position 0
    assert monitor_word(a, signature, [1, 1]) is True
    sat_at_1 = monitor_word(Until(top(), a, 1, 2), signature, [1, 1])
    assert sat_at_1 is False
    assert monitor_word(Until(top(), a, 1, 2), [("none", 1), ("none", 0)], [1, 1]) is True


def test_monitor_word_empty():
    with pytest.raises(ValueError):
        monitor_word(top(), [], [])
    with pytest.raises(ValueError):
        monitor_word(top(), [("a", 0), ("b", 1)], [0, 0])


def _induced_word(tr, atomics):
    """The run-length word of a trace: position k carries the name of
    the one atomic whose cone the oracle finds satisfied at belief k, or
    "none", and the mode applied on the step out of k (the mode arriving
    at k + 1; the last position's mode is never read)."""
    length = len(tr.beliefs)
    pairs = []
    for k in range(length):
        held = [a.name for a in atomics if oracle_atomic(Atomic(a.cone), tr, k)]
        assert len(held) <= 1, held
        pairs.append((held[0] if held else "none", tr.modes[k] if k < length - 1 else 0))
    runs = [(pair, len(list(run))) for pair, run in itertools.groupby(pairs)]
    return [pair for pair, _ in runs], [d for _, d in runs]


def _disjoint_atomics(rng, dim, num_modes):
    """Two named atomics whose cones share no belief with variance along
    h, P(h.x <= t) >= 1 - e1 (sometimes with one more constraint) and
    P(h.x >= t) >= 1 - e2, and a mode-only one, each with a random mode
    set (the first two also with none)."""
    def modes():
        size = int(rng.integers(1, num_modes + 1))
        chosen = rng.choice(num_modes, size=size, replace=False)
        return frozenset(int(m) for m in chosen)

    h, t = rng.normal(size=dim).round(2), float(rng.normal())
    if not h.any():
        h[0] = 1.0
    low = [ProbabilisticLinearPredicate(LinearExpression(h, -t), float(rng.uniform(0.05, 0.45)))]
    if rng.random() < 0.3:
        low.append(ProbabilisticLinearPredicate(LinearExpression(rng.normal(size=dim), 2.0), 0.1))
    high = ProbabilisticLinearPredicate(LinearExpression(-h, t), float(rng.uniform(0.05, 0.45)))
    return [
        Atomic(BeliefCone(tuple(low)), modes() if rng.random() < 0.5 else None, "p"),
        Atomic(BeliefCone((high,)), modes() if rng.random() < 0.5 else None, "r"),
        Atomic(BeliefCone(), modes(), "m"),
    ]


def test_monitor_word_agrees_with_trace_monitor_on_induced_traces():
    """The run-length word of a trace, holding at each position the one
    atomic whose cone contains the belief, gets the trace monitor's
    verdict from the word monitor and from the word oracle."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        num_modes = 2
        c = float(rng.normal())
        a1 = _atomic([1.0], c, 0.2, name="p")
        a2 = _atomic([-1.0], -c + abs(float(rng.normal())), 0.2,
                     modes=set(int(m) for m in rng.choice(2, size=1)), name="r")
        f = random_formula_over(rng, a1, a2)
        h = f.horizon
        if h + 1 > 12:
            continue
        tr = random_trace(rng, 1, num_modes, h + 1)
        signature, dwells = _induced_word(tr, [a1, a2])
        assert monitor_word(f, signature, dwells) == monitor(f, tr, 0)
        assert oracle_word(f, signature, dwells) == monitor(f, tr, 0)


def test_monitor_word_matches_bruteforce_oracle_on_induced_words():
    """The word oracle and the word monitor against the brute-force trace
    oracle, not against the trace monitor: random formulas over atomics
    with disjoint cones, true, false and a mode-only atomic, on the
    induced run-length word of a random trace. Past the end the trace
    oracle reads false, which is the word semantics, so the verdicts
    agree on short traces too, as do the trace monitor's there."""
    rng = np.random.default_rng(2004)
    lengths = {"short": 0, "full": 0}
    verdicts = []
    for _ in range(300):
        dim = int(rng.integers(1, 3))
        num_modes = int(rng.integers(1, 4))
        atomics = _disjoint_atomics(rng, dim, num_modes)
        leaves = atomics + [top(), bottom(dim)]
        f = random_formula(rng, dim, num_modes, depth=int(rng.integers(0, 4)), leaves=leaves)
        h = f.horizon
        if h + 3 > 14:
            continue
        length = int(rng.integers(1, h + 4))
        tr = random_trace(rng, dim, num_modes, length)
        signature, dwells = _induced_word(tr, atomics[:2])
        expected = oracle_monitor(f, tr, 0)
        assert oracle_word(f, signature, dwells) == expected
        assert monitor_word(f, signature, dwells) == expected
        verdicts.append(expected)
        if length >= h + 1:
            lengths["full"] += 1
            continue
        lengths["short"] += 1
        for k in range(min(length, 3)):
            assert monitor(f, tr, k) is oracle_monitor(f, tr, k)
    assert lengths["short"] > 50 and lengths["full"] > 50
    assert 30 < sum(verdicts) < len(verdicts) - 30


def test_monitor_dwells_matches_word_monitor():
    """Each row's batched verdict equals the brute-force word oracle's
    on the row's word, and monitor_word's, for random formulas, two
    labels, two modes and rows whose totals fall short of, meet and pass
    the horizon (zero dwells included). A batch of the rows shorter than
    horizon + 1 positions, evaluated over its longest row only, gets the
    same verdicts."""
    rng = np.random.default_rng(2013)
    verdicts, short_rows = [], 0
    for _ in range(150):
        f = random_formula(rng, 1, 2, depth=int(rng.integers(0, 4)))
        labels = [a.label for a in atomic_propositions(f)][:2]
        labels += ["other"] * (2 - len(labels))
        K = int(rng.integers(1, 5))
        signature = [(labels[int(rng.integers(2))], int(rng.integers(2))) for _ in range(K)]
        h = f.horizon
        dwells = rng.integers(0, h + 3, size=(int(rng.integers(1, 12)), K))
        dwells[dwells.sum(axis=1) == 0, 0] = 1
        got = monitor_dwells(f, signature, dwells)
        assert got.shape == (len(dwells),)
        for row, verdict in zip(dwells, got):
            assert verdict == oracle_word(f, signature, row)
            assert monitor_word(f, signature, row) is bool(verdict)
            verdicts.append(bool(verdict))
        short = dwells.sum(axis=1) <= h
        if short.any():
            assert monitor_dwells(f, signature, dwells[short]).tolist() == got[short].tolist()
            short_rows += int(short.sum())
    assert 200 < sum(verdicts) < len(verdicts) - 200
    assert short_rows > 50


def test_monitor_dwells_rejects_bad_shapes():
    a = _atomic([1.0], 0.0, 0.1, name="a")
    with pytest.raises(ValueError):
        monitor_dwells(a, [("a", 0)], [[1, 2]])
    with pytest.raises(ValueError):
        monitor_dwells(a, [("a", 0), ("b", 0)], [[0, 0]])
    with pytest.raises(ValueError):
        monitor_dwells(a, [("a", 0), ("b", 0)], [[2, -1]])


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
    assert f.modes == frozenset({1})
    f = parse_formula("q in {0, 2}", 1, 3)
    assert f.modes == frozenset({0, 2})


def test_parse_temporal_and_boolean():
    text = "(P(x0 <= 1) >= 0.99) U[0,240] G[0,40] (P(-x0 <= 0.25) >= 0.95)"
    f = parse_formula(text, 1, 1)
    assert isinstance(f, Until)
    assert (f.a, f.b) == (0, 240)
    assert isinstance(f.right, Release)
    assert f.horizon == 280


def test_parse_literal_false_is_bottom():
    """The literal false parses to bottom(n): a constant that no belief
    or word position satisfies, so both monitors say false."""
    f, b = parse_formula("false", 2, 2), bottom(2)
    assert isinstance(f, Atomic) and f.name == b.name == f.label == "false"
    assert f.modes == b.modes == frozenset()
    assert (f.cone.H.tolist(), f.cone.c.tolist()) == (b.cone.H.tolist(), b.cone.c.tolist())
    assert f.trivially_false and f.horizon == 0 and atomic_propositions(f) == []
    tr = _const_trace([0.0, 0.0], 0.01 * np.eye(2), [0, 1])
    assert monitor(f, tr) is False and monitor(f, tr, 2) is False
    assert monitor_dwells(f, [("a", 0), ("b", 1)], [[1, 0], [2, 3], [0, 4]]).tolist() == [False] * 3
    g = parse_formula("false | (P(x0 <= 1) >= 0.9)", 2, 2)
    assert isinstance(g, Or) and monitor(g, tr) is True


def test_parse_conjunction_folds():
    f = parse_formula("P(x0 <= 1) >= 0.99 & P(-x0 <= 1) >= 0.99 & q == 0", 1, 1)
    assert isinstance(f, Atomic)
    assert len(f.cone.constraints) == 2
    assert f.modes == frozenset({0})


def test_parse_named_resolution():
    goal = parse_formula("P(x0 <= 0) >= 0.9", 1, 1)
    f = parse_formula("F[0,5] goal", 1, 1, named={"goal": goal})
    assert isinstance(f, Until)
    assert f.right is goal


def test_nesting_bound_counts_parentheses_prefixes_and_named_formulas():
    """Nesting up to MAX_NESTING levels parses, one more level is a
    FormulaSyntaxError: open parentheses and G/F prefixes while parsing,
    and operator levels of the tree once named formulas are in."""
    deepest = {
        "parentheses": "(" * MAX_NESTING + "true" + ")" * MAX_NESTING,
        "prefixes": "G[0,1] " * MAX_NESTING + "true",
        "both": "F[0,1] (" * (MAX_NESTING // 2) + "true" + ")" * (MAX_NESTING // 2),
    }
    for text in deepest.values():
        parse_formula(text, 1, 1)
        for deeper in ("(" + text + ")", "G[0,1] " + text):
            with pytest.raises(FormulaSyntaxError, match="nests deeper than"):
                parse_formula(deeper, 1, 1)
    chain = {"n0": top()}
    for i in range(1, MAX_NESTING + 1):
        chain[f"n{i}"] = parse_formula(f"F[0,1] (n{i - 1})", 1, 1, named=chain)
    assert chain[f"n{MAX_NESTING}"].horizon == MAX_NESTING
    last = f"n{MAX_NESTING}"
    assert parse_formula(f"({last})", 1, 1, named=chain) is chain[last]
    for deeper in (f"F[0,1] ({last})", f"true | ({last})"):
        with pytest.raises(FormulaSyntaxError, match="nests deeper than"):
            parse_formula(deeper, 1, 1, named=chain)


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
