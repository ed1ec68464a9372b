"""Exact Kronecker products and powers of symmetric-group characters,
computed by independent routes (character table, Schur-function
operators, walk enumeration, closed formulas) that cross-validate."""

from .partitions import (
    Cell,
    Partition,
    bijection_regime_ok,
    class_size,
    format_partition,
    parse_partition,
    partitions_of,
    standard_tableaux_count,
    weight,
)
from .symfunc import (
    SchurSum,
    h_to_schur,
    lr_coefficient,
    multiply,
    perp,
    schur_sum_to_json,
)
from .characters import (
    CharacterTable,
    character_table,
    character_value,
    kron_coefficient,
    kron_power_oracle,
    kron_product_via_characters,
)
from .kron_ops import (
    KroneckerOperator,
    apply,
    build_operator,
    kron_power_nm1,
    kron_product_via_operator,
)
from .tableaux import (
    BijectionError,
    DecCyclePermutation,
    EnumerationLimitError,
    KroneckerTableau,
    PartialStandardTableau,
    count_kronecker_tableaux,
    format_walk,
    from_pair,
    list_kronecker_tableaux,
    parse_walk,
    rsk_delete,
    rsk_insert,
    to_pair,
    walk_counts,
)
from .enumeration import (
    TruncatedEGF,
    egf_check,
    egf_rhs,
    multiplicity_formula,
    p2,
)

__version__ = "0.1.0"
