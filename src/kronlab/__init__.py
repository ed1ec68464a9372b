"""Exact Kronecker products and powers of symmetric-group characters,
computed by independent routes (character table, Schur-function
operators, walk enumeration, closed formulas) that cross-validate."""

from .partitions import (
    Cell,
    CornerSet,
    Partition,
    add_corner_positions,
    class_size,
    corners,
    format_partition,
    parse_partition,
    partitions_of,
    remove_corner,
    standard_tableaux_count,
    weight,
)
from .symfunc import (
    HMonomial,
    SchurSum,
    h_inner_s,
    h_to_schur,
    jacobi_trudi,
    lr_coefficient,
    multiply,
    perp,
    scalar,
    schur_sum_from_json,
    schur_sum_to_json,
)
from .characters import (
    CharacterTable,
    character_table,
    character_value,
    h_kron_oracle,
    kron_coefficient,
    kron_power_oracle,
    kron_product_via_characters,
    permutation_character,
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
    ReducedWalk,
    bijection_regime_ok,
    count_kronecker_tableaux,
    format_walk,
    from_pair,
    list_kronecker_tableaux,
    parse_walk,
    rsk_delete,
    rsk_insert,
    strip_first_row,
    successors,
    to_pair,
    unstrip,
    walk_counts,
)
from .enumeration import (
    TruncatedEGF,
    egf_check,
    egf_rhs,
    multiplicity_formula,
    no_small_blocks_egf,
    p2,
)

__version__ = "0.1.0"
