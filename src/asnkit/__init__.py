"""asnkit: aggregated syntactic networks from dependency treebanks.

The toolkit turns collections of manually annotated dependency trees into
weighted directed word networks, ranks their words by hierarchical level,
summarizes their topology, fits discrete power laws to their degree
distributions, and tracks how the top of the hierarchy changes over time.
"""

from importlib import resources

from .corpus import (
    CorpusFormatError,
    CorpusIssue,
    CorpusSlice,
    DependencyTree,
    FilterDecision,
    GrammaticalRole,
    MissingPolicy,
    MISSING_LEMMAS,
    PHRASE_RULES,
    PRONOUN_ROLES,
    VERB_ROLES,
    Token,
    TreeValidationError,
    TreeViolation,
    audit_corpus,
    classify_phrase_rule,
    filter_missing,
    filter_slice,
    load_corpus,
    parse_corpus,
    render_corpus,
    tree_depth,
    tree_violations,
    validate_tree,
)
from .network import (
    Asn,
    NodeKey,
    aggregate,
    edge_csv,
    heads,
    to_dot,
    to_graphml,
)
from .hierarchy import (
    HierarchyLevels,
    HierarchyStats,
    LevelSolution,
    backward_levels,
    forward_levels,
    hierarchy_levels,
    hierarchy_stats,
    influence_ranking,
    level_csv,
)
from .stats import (
    NetworkSummary,
    degree_sequences,
    depth_vs_diameter,
    summarize,
)
from .powerlaw import (
    DegenerateDataError,
    LrtResult,
    PowerLawFit,
    bootstrap_pvalue,
    ccdf_rows,
    fit_power_law,
    hurwitz_zeta,
    lrt,
    sample_discrete_powerlaw,
)
from .diachrony import (
    EmergenceEvent,
    HeadTrajectory,
    TrajectoryPoint,
    detect_emergent_heads,
    phase_space,
    track,
)

__version__ = "0.1.0"


def demo_corpus_path() -> str:
    """Return the filesystem path of the bundled synthetic demo treebank."""
    return str(resources.files("asnkit").joinpath("data/demo.tb"))


__all__ = [
    "Asn",
    "CorpusFormatError",
    "CorpusIssue",
    "CorpusSlice",
    "DegenerateDataError",
    "DependencyTree",
    "EmergenceEvent",
    "FilterDecision",
    "GrammaticalRole",
    "HeadTrajectory",
    "HierarchyLevels",
    "HierarchyStats",
    "LevelSolution",
    "LrtResult",
    "MissingPolicy",
    "MISSING_LEMMAS",
    "NetworkSummary",
    "NodeKey",
    "PHRASE_RULES",
    "PRONOUN_ROLES",
    "PowerLawFit",
    "Token",
    "TrajectoryPoint",
    "TreeValidationError",
    "TreeViolation",
    "VERB_ROLES",
    "aggregate",
    "audit_corpus",
    "backward_levels",
    "bootstrap_pvalue",
    "ccdf_rows",
    "classify_phrase_rule",
    "degree_sequences",
    "demo_corpus_path",
    "depth_vs_diameter",
    "detect_emergent_heads",
    "edge_csv",
    "filter_missing",
    "filter_slice",
    "fit_power_law",
    "forward_levels",
    "heads",
    "hierarchy_levels",
    "hierarchy_stats",
    "hurwitz_zeta",
    "influence_ranking",
    "level_csv",
    "load_corpus",
    "lrt",
    "parse_corpus",
    "phase_space",
    "render_corpus",
    "sample_discrete_powerlaw",
    "summarize",
    "to_dot",
    "to_graphml",
    "track",
    "tree_depth",
    "tree_violations",
    "validate_tree",
]
