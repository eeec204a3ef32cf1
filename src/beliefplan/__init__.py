"""Belief-space trajectory synthesis for switched linear systems under
probabilistic signal temporal logic."""

from .gaussian import (
    BeliefState,
    DomainError,
    InvalidCovarianceError,
    make_belief,
    std_normal_quantile,
    uncertainty_measure,
)
from .geometry import (
    BeliefCone,
    DegeneratePolytopeError,
    LinearExpression,
    Polytope,
    ProbabilisticLinearPredicate,
    box_polytope,
    cone_contains,
    cone_margin,
    polytope_contains,
    polytope_sample,
)
from .formula import (
    And,
    Atomic,
    FormulaSyntaxError,
    InsufficientTraceError,
    NameCollisionError,
    Or,
    Release,
    Trace,
    Until,
    UnsupportedBoundError,
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
from .dynamics import (
    IllConditionedUpdateError,
    NoObservationError,
    SwitchedSystem,
    SystemMode,
    kalman_update,
    noise_cov,
    propagate_mlo,
    sample_observation,
    step_truth,
)
from .discrete_planner import (
    CounterexampleStore,
    DiscretePlan,
    PlanSegment,
    WitnessDisagreementError,
    abstract,
    add_counterexample,
    bmc_next_candidate,
)
from .belief_rrt import (
    InternalConsistencyError,
    RrtParams,
    RrtTree,
    SegmentResult,
    SegmentTask,
    rrt_drain,
    rrt_extend,
    rrt_select,
    solve_segment,
)
from .synthesis import (
    Problem,
    SolutionTrajectory,
    SynthesisResult,
    solve,
)
from .tracking import lqr_gains, simulate, track_step

__version__ = "0.1.0"
