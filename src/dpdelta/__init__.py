"""Exact delta-invariant computations for degree-1 Du Val del Pezzo
surface configurations: parametric Zariski decompositions over Q, Fujita
expected orders, localized point bounds, blowup bookkeeping, a frozen
regression catalog and randomized cross-checking oracles."""
from __future__ import annotations

from .applications import (
    MAIN_THEOREM_ROWS,
    SingularityEntry,
    kstability_verdict,
    main_theorem_delta,
    multiplier_family_1_11,
    multiplier_family_2_1,
    parse_singularities,
    smooth_delta,
    verify_main_theorem_table,
)
from .blowup import BlowupResult, blowup
from .catalog import (
    CaseRecord,
    CaseReport,
    case_names,
    case_reports,
    catalog_root,
    certified_delta,
    load_case,
    verify_case,
)
from .config import (
    PointSpec,
    SurfaceConfig,
    config_from_json,
    config_to_json,
    load,
    save,
)
from .delta import (
    FlagReport,
    PointRow,
    certify_minimum,
    flag_report,
    local_h,
    s_flag,
    s_w_point,
)
from .errors import (
    Ambiguous,
    DimensionMismatch,
    DpDeltaError,
    InconsistentIncidence,
    IrrationalRoot,
    MissingFlag,
    NoSolution,
    NotCertified,
    NotPseudoEffective,
    NotSmooth,
    OutOfDomain,
    SchemaError,
)
from .oracle import (
    EquivalenceReport,
    QuadratureReport,
    SubsetTable,
    brute_force_negative_part,
    quadrature_check,
    random_equivalence,
    sample_parameters,
)
from .poly import PiecewisePoly, Poly
from .rationals import format_rational, parse_rational
from .zariski import (
    Chamber,
    Decomposition,
    decomposition_to_json,
    parametric_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "MAIN_THEOREM_ROWS",
    "SingularityEntry",
    "kstability_verdict",
    "main_theorem_delta",
    "multiplier_family_1_11",
    "multiplier_family_2_1",
    "parse_singularities",
    "smooth_delta",
    "verify_main_theorem_table",
    "BlowupResult",
    "blowup",
    "CaseRecord",
    "CaseReport",
    "case_names",
    "case_reports",
    "catalog_root",
    "certified_delta",
    "load_case",
    "verify_case",
    "PointSpec",
    "SurfaceConfig",
    "config_from_json",
    "config_to_json",
    "load",
    "save",
    "FlagReport",
    "PointRow",
    "certify_minimum",
    "flag_report",
    "local_h",
    "s_flag",
    "s_w_point",
    "Ambiguous",
    "DimensionMismatch",
    "DpDeltaError",
    "InconsistentIncidence",
    "IrrationalRoot",
    "MissingFlag",
    "NoSolution",
    "NotCertified",
    "NotPseudoEffective",
    "NotSmooth",
    "OutOfDomain",
    "SchemaError",
    "EquivalenceReport",
    "QuadratureReport",
    "SubsetTable",
    "brute_force_negative_part",
    "quadrature_check",
    "random_equivalence",
    "sample_parameters",
    "PiecewisePoly",
    "Poly",
    "format_rational",
    "parse_rational",
    "Chamber",
    "Decomposition",
    "decomposition_to_json",
    "parametric_decompose",
    "__version__",
]
