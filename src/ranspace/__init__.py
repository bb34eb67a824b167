"""Loop contraction machinery on spaces of finite subsets of a metric
space, with an independent persistent-homology probe."""

from types import ModuleType as _ModuleType

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
    PersistenceDiagram,
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
)
from .ran import Configuration, dedup, hausdorff
from .space import Circle, GraphPoint, Interval, MetricGraph, Space
from .tracks import (
    ContinuityReport,
    ContractionCertificate,
    Homotopy,
    StrandBundle,
    Track,
    certify,
    check_continuity,
    make_track,
    project,
    uniform_times,
    winding_number,
)

# the imported names; importing them binds the submodules here too, which
# a star import must not copy
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
