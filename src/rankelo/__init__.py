"""Elo-style rating engine for multi-player ranked contests.

Ratings update from ranked results: a player's expected rank comes from
pairwise logistic win probabilities against everyone in the division,
the gap between expected and actual rank (in log2 units) drives the
rating change, and damping factors keep volatile or experienced ratings
stable.  The package also ships replay, evaluation, comparison, sweep,
and simulation tooling plus a ``rankelo`` command-line front end.
"""

from .errors import (
    InputError,
    InternalError,
    ParseError,
    RankEloError,
    SnapshotError,
)
from .metrics import (
    BucketRow,
    ComparisonRow,
    EXPERIENCE_BUCKETS,
    RatingStats,
    Report,
    RoundMetrics,
    SIZE_BUCKETS,
    aggregate_error,
    compare_systems,
    division_metrics,
    evaluate_replay,
    evaluate_timeline,
    kendall_tau,
    rating_stats,
    spearman_rho,
)
from .rating import (
    BITS_TO_RATING,
    DivisionResult,
    ELO_SCALE,
    EngineState,
    PerformanceBreakdown,
    PlayerState,
    PROFILES,
    RatingParams,
    RoundInput,
    division_ranks,
    get_or_create_player,
    rate_division,
    rate_round,
)
from .replay import (
    ReplayResult,
    replay,
    write_replay_log,
)
from .simulate import (
    SimConfig,
    SimResult,
    generate_history,
)
from .store import (
    export_snapshot,
    load_snapshot,
    parse_rounds,
    parse_timeline,
    save_snapshot,
    write_rounds,
)
from .sweep import (
    JointResult,
    SWEEP_TARGETS,
    SweepPoint,
    SweepResult,
    SweepSpec,
    joint_search,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BITS_TO_RATING",
    "BucketRow",
    "ComparisonRow",
    "DivisionResult",
    "ELO_SCALE",
    "EXPERIENCE_BUCKETS",
    "EngineState",
    "InputError",
    "InternalError",
    "JointResult",
    "PROFILES",
    "ParseError",
    "PerformanceBreakdown",
    "PlayerState",
    "RankEloError",
    "RatingParams",
    "RatingStats",
    "ReplayResult",
    "Report",
    "RoundInput",
    "RoundMetrics",
    "SIZE_BUCKETS",
    "SWEEP_TARGETS",
    "SimConfig",
    "SimResult",
    "SnapshotError",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "aggregate_error",
    "compare_systems",
    "division_metrics",
    "division_ranks",
    "evaluate_replay",
    "evaluate_timeline",
    "export_snapshot",
    "generate_history",
    "get_or_create_player",
    "joint_search",
    "kendall_tau",
    "load_snapshot",
    "parse_rounds",
    "parse_timeline",
    "rate_division",
    "rate_round",
    "rating_stats",
    "replay",
    "run_sweep",
    "save_snapshot",
    "spearman_rho",
    "write_replay_log",
    "write_rounds",
]
