"""Congruence-class sieve for the 3n+1 problem.

Iterates the Collatz map symbolically on affine patterns b*k - c,
certifies classes whose members provably merge into smaller numbers,
and tracks exact coverage of the integers by the certified classes.
"""

from .affine import (
    AffineForm,
    IndeterminateParityError,
    Parity,
    TrajectoryCapError,
    build_trajectory,
    evaluate,
    parity,
    step,
    strictly_below,
    v2,
)
from .coverage import (
    CoverageLedger,
    DeltaReport,
    ResidueClass,
    brute_force_density,
    delta_report,
    format_percent,
    from_pattern,
    residue_class,
    rounded_percent,
)
from .oracle import (
    StopRecord,
    StepCapExceededError,
    Trajectory,
    VerificationReport,
    VisitedLimitError,
    collatz_step,
    iter_modified_stops,
    longest_modified_stop,
    modified_stopping_time,
    stopping_time,
    trajectory,
    verify_success_record,
    visited_values_through,
)
from .search import (
    CertKind,
    CertificateError,
    ModuliReport,
    PatternClass,
    SearchConfig,
    SearchState,
    SuccessRecord,
    TrajectoryPattern,
    TrajectoryRegistry,
    analyze_moduli,
    check_class,
    is_3smooth_even,
    pattern_trajectory,
    run_search,
    rebuild_state,
    seed_record,
)

__version__ = "0.1.0"
