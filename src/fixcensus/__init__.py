"""fixcensus: exact fixed-point censuses of z -> z^d + c over finite fields.

The package counts fixed points of power maps on F_{p^n} two independent
ways, checks a registry of encoded counting claims against the brute-force
oracle (mismatches become witnesses, not errors), tabulates exact average
and density statistics for integer coefficients, and counts trinomials
x^d - x + c by discriminant and height.
"""

from .claims import ClaimReport, ClaimSpec, Verdict, Witness, check_all, registry
from .dynamics import (
    DEFAULT_EXP_CAP,
    CensusRecord,
    ExponentCapError,
    Family,
    OrbitCensus,
    classify_residue,
    count_profile,
    fixed_point_count,
    fixed_points,
    gcd_root_count,
    integer_root,
    integral_fixed_points,
    orbit_census,
)
from .ff import (
    DEFAULT_FIELD_CAP,
    ArgumentError,
    CapError,
    FFElement,
    FieldCapError,
    FieldSpec,
    certify_irreducible,
    find_irreducible,
    is_prime,
    standard_field,
)
from .nfcount import (
    FieldCountRow,
    IrreducibilityStatus,
    SquarefreeReport,
    closed_form_disc,
    count_by_disc,
    count_by_height,
    irreducibility_status,
    squarefree_disc_fraction,
    trinomial_disc,
)
from .stats import (
    AverageRow,
    DensityKind,
    DensityRow,
    Selector,
    average_report,
    density_table,
    prime_count,
    prime_sieve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # ff
    "DEFAULT_FIELD_CAP", "ArgumentError", "CapError", "FieldCapError", "is_prime",
    "find_irreducible", "certify_irreducible", "FieldSpec", "FFElement",
    "standard_field",
    # dynamics
    "DEFAULT_EXP_CAP", "ExponentCapError", "Family", "CensusRecord",
    "OrbitCensus", "fixed_point_count",
    "fixed_points", "count_profile", "gcd_root_count", "orbit_census",
    "classify_residue", "integral_fixed_points", "integer_root",
    # claims
    "Verdict", "Witness", "ClaimSpec", "ClaimReport", "registry", "check_all",
    # stats
    "Selector", "DensityKind", "AverageRow", "DensityRow", "prime_sieve", "prime_count",
    "average_report", "density_table",
    # nfcount
    "IrreducibilityStatus", "FieldCountRow", "SquarefreeReport",
    "trinomial_disc", "closed_form_disc", "irreducibility_status",
    "count_by_disc", "count_by_height", "squarefree_disc_fraction",
]
