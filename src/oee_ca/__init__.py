"""Time-dependent cellular automata with unbounded-evolution and innovation
analysis: simulation variants, recurrence statistics, complexity measures and
ensemble reporting."""

__version__ = "0.1.0"

from .eca import (  # noqa: F401
    WolframClass,
    canonical_rule,
    canonical_rules,
    wolfram_class,
)
from .variants import (  # noqa: F401
    Trajectory,
    Variant,
    VariantConfig,
    detect_cycle,
    run_trajectory,
)
from .recurrence import (  # noqa: F401
    RecurrenceReport,
    poincare_time,
    projected_recurrence,
)
from .innovation import is_eca_reproducible  # noqa: F401
