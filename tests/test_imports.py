"""Every name a ``rankelo`` module imports is used in that module, and the
package exports exactly the pinned public API.

The package's ``__init__.py`` imports names to re-export them, so it is
exempt from the first check, and so is any import line marked
``# noqa: F401``.  The second check pins ``__all__`` and the names
``__init__.py`` imports to one list, so a change to the API edits it.
"""

import ast
from pathlib import Path

import pytest

import rankelo

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankelo"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

PUBLIC_API = [
    "BITS_TO_RATING", "BucketRow", "ComparisonRow", "DivisionResult", "ELO_SCALE",
    "EXPERIENCE_BUCKETS", "EngineState", "InputError", "InternalError", "JointResult",
    "PROFILES", "ParseError", "PerformanceBreakdown", "PlayerState", "RankEloError",
    "RatingParams", "RatingStats", "ReplayResult", "Report", "RoundInput",
    "RoundMetrics", "SIZE_BUCKETS", "SWEEP_TARGETS", "SimConfig", "SimResult",
    "SnapshotError", "SweepPoint", "SweepResult", "SweepSpec", "aggregate_error",
    "compare_systems", "division_metrics", "division_ranks", "evaluate_replay",
    "evaluate_timeline", "export_snapshot", "generate_history", "get_or_create_player",
    "joint_search", "kendall_tau", "load_snapshot", "parse_rounds", "parse_timeline",
    "rate_division", "rate_round", "rating_stats", "replay", "run_sweep",
    "save_snapshot", "spearman_rho", "write_replay_log", "write_rounds",
]


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or "# noqa: F401" in lines[node.lineno - 1]
                or getattr(node, "module", None) == "__future__"):
            continue
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (PACKAGE / "replay.py").read_text(encoding="utf-8")
    assert unused_imports("from .errors import InputError\n" + source) == ["InputError"]
    assert unused_imports("import os, sys as system\nos.getcwd()\n") == ["system"]
    assert unused_imports("from . import store  # noqa: F401\n") == []


def test_the_public_api_is_pinned():
    assert len(PUBLIC_API) == 52
    assert sorted(rankelo.__all__) == PUBLIC_API
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == PUBLIC_API
