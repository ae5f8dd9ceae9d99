"""sboxkit: S-box strength metrics, permutation search, and a toy SPN lab."""

from .core import (
    CycleStructure,
    GFContext,
    MonomialConditionError,
    NotBijectiveError,
    SBox,
    SboxParseError,
    build_monomial_sbox,
    cycle_decomposition,
    default_context,
    format_sbox,
    gf_mul,
    gf_pow,
    inverse_sbox,
    is_bijective,
    parse_sbox,
)
from .data import AES_SBOX, DILLON_PERMUTATION, IRREDUCIBLE, KEY_SBOX, PBOX8
from .metrics import (
    DDT,
    LAT,
    BicReport,
    MetricReport,
    NonlinearityStats,
    SacReport,
    compute_ddt,
    compute_lat,
    dbic,
    differential_uniformity,
    dsac,
    du_max_count,
    full_report,
    max_bias,
    nonlinearity,
)
from .anf import algebraic_degree, sbox_algebraic_immunity
from .search import (
    CycleSpec,
    SearchConfig,
    SearchResult,
    builtin_cycle_specs,
    random_permutation,
    random_permutation_with_cycles,
    run_search,
)
from .spn import (
    AvalancheReport,
    SpnConfig,
    avalanche_experiment,
    decrypt_block,
    decrypt_blocks,
    encrypt_block,
    encrypt_blocks,
    key_schedule,
    load_pairs,
    save_pairs,
)

__version__ = "0.1.0"
