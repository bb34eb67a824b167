"""Loop contraction machinery on spaces of finite subsets of a metric
space, with an independent persistent-homology probe."""

from .errors import (
    AmbiguousBranching,
    AmbiguousLift,
    CapExceeded,
    EmptyConfiguration,
    EndpointMismatch,
    InvalidPoint,
    ModeViolation,
    RanspaceError,
    SchemaError,
    SizeLimit,
    SpaceMismatch,
    UnsupportedDegree,
)
from .homology import (
    MetricCloud,
    PersistencePair,
    long_lived_h1_count,
    maxmin_subsample,
    rips_persistence_h1,
    sample_ran,
)
from .moves import (
    Inclusion,
    PipelineMode,
    SimplyConnected,
    contract_circle_generator,
    contract_pipeline,
    extract_strands,
    normalize,
    pushforward_contraction,
    staircase,
)
from .ran import Configuration, dedup, hausdorff, union
from .space import Circle, GraphPoint, Interval, MetricGraph, Space
from .tracks import (
    ContinuityReport,
    ContractionCertificate,
    Homotopy,
    StrandBundle,
    Track,
    certify,
    check_continuity,
    concatenate,
    conjugate,
    detect_branch_merge,
    make_track,
    project,
    resample,
    reverse,
    uniform_times,
    winding_number,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
