"""Legislation network toolkit.

Models a legislation corpus as a typed, temporal directed multigraph
and provides the analysis battery around it: sub-network extraction,
structural metrics, bow-tie decomposition, heavy-tail fitting,
small-world comparison, densification analysis, and failure/attack
resilience simulation.
"""

from .bowtie import BowTieDecomposition, decompose
from .corpus import (
    IngestReport,
    export,
    ingest,
    read_records,
    write_records,
)
from .errors import (
    AnalysisError,
    ConfigError,
    CorpusError,
    LegisnetError,
    ValidationError,
)
from .filters import annual_series, filter_reftype, filter_sector, snapshot
from .generator import GeneratorConfig, generate
from .graph import (
    RECIPROCAL_TYPES,
    SENTINEL_EXPIRY,
    LegislationGraph,
    RefType,
    Sector,
)
from .heavytail import (
    FitResult,
    TailFit,
    ccdf,
    fit_power_law,
    goodness_of_fit,
)
from .metrics import (
    ClusteringProfile,
    ComponentReport,
    DegreeStats,
    LorenzGini,
    PathMetrics,
    assortativity,
    clustering,
    components,
    degree_stats,
    gini_sorted,
    lorenz_gini,
    path_metrics,
)
from .randmodels import SmallWorldReport, erdos_renyi, small_world_compare
from .resilience import (
    ResilienceConfig,
    ResilienceCurve,
    compare_with_null,
    simulate,
)
from .temporal import (
    DensificationFit,
    SnapshotStat,
    densification_fit,
    evolution_series,
)

__version__ = "0.3.0"

__all__ = [
    "AnalysisError",
    "BowTieDecomposition",
    "ClusteringProfile",
    "ComponentReport",
    "ConfigError",
    "CorpusError",
    "DegreeStats",
    "DensificationFit",
    "FitResult",
    "GeneratorConfig",
    "IngestReport",
    "LegisnetError",
    "LegislationGraph",
    "LorenzGini",
    "PathMetrics",
    "RECIPROCAL_TYPES",
    "RefType",
    "ResilienceConfig",
    "ResilienceCurve",
    "SENTINEL_EXPIRY",
    "Sector",
    "SmallWorldReport",
    "SnapshotStat",
    "TailFit",
    "ValidationError",
    "annual_series",
    "assortativity",
    "ccdf",
    "clustering",
    "compare_with_null",
    "components",
    "decompose",
    "degree_stats",
    "densification_fit",
    "erdos_renyi",
    "evolution_series",
    "export",
    "filter_reftype",
    "filter_sector",
    "fit_power_law",
    "generate",
    "gini_sorted",
    "goodness_of_fit",
    "ingest",
    "lorenz_gini",
    "path_metrics",
    "read_records",
    "simulate",
    "small_world_compare",
    "snapshot",
    "write_records",
]
