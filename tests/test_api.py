"""The public API: the names `import sboxkit` exports, and the ones it no longer has."""

import dataclasses
import inspect

import numpy as np

import sboxkit as sk
from sboxkit import anf, core, data, heatmap, spn

PUBLIC = {
    "AES_SBOX", "AvalancheReport", "BicReport", "CycleSpec", "CycleStructure", "DDT", "DILLON_PERMUTATION",
    "GFContext", "IRREDUCIBLE", "KEY_SBOX", "LAT", "MetricReport", "MonomialConditionError",
    "NonlinearityStats", "NotBijectiveError", "PBOX8", "SBox", "SacReport", "SboxParseError", "SearchConfig",
    "SearchResult", "SpnConfig", "algebraic_degree", "avalanche_experiment", "build_monomial_sbox",
    "builtin_cycle_specs", "compute_ddt", "compute_lat", "cycle_decomposition", "dbic", "decrypt_block",
    "decrypt_blocks", "default_context", "differential_uniformity", "dsac", "du_max_count", "encrypt_block",
    "encrypt_blocks", "format_sbox", "full_report", "gf_mul", "gf_pow", "inverse_sbox", "is_bijective",
    "key_schedule", "load_pairs", "max_bias", "nonlinearity", "parse_sbox", "random_permutation",
    "random_permutation_with_cycles", "run_search", "save_pairs", "sbox_algebraic_immunity",
}

# names that only the package's own tests called, each gone from the module that held it
REMOVED = {
    anf: ("AnfCoefficients", "anf_monomials", "dump_anf", "evaluate_anf", "mobius_transform", "_bit_vector",
          "_coordinate_anfs", "TruthTable", "component_truth_table", "algebraic_immunity"),
    core: ("hamming_distance", "trace"),
    data: ("NAMED_SBOXES", "reference_sbox"),
    heatmap: ("read_matrix_csv", "read_ppm"),
    spn: ("apply_pbox8", "apply_pbox64", "_check_perm"),
}

# each record stores every value once; what another field or a constant fixes is derived where it is read
RECORD_FIELDS = {
    sk.MetricReport: ("n", "du", "du_count", "max_bias", "nl", "nl_component_max", "nl_component_avg", "dsac",
                      "dbic", "cycles", "degree", "ai"),
    sk.NonlinearityStats: ("nl", "component_max", "component_avg"),
    sk.AvalancheReport: ("trials", "rounds", "mean_flips", "mean_abs_deviation", "per_input_bit_means"),
    sk.SearchResult: ("config", "best_sbox", "best_value", "mean_value", "elapsed"),
    sk.DDT: ("counts",),
    sk.LAT: ("sums",),
}


def test_public_names_are_pinned():
    names = {n for n in dir(sk) if not n.startswith("_") and not inspect.ismodule(getattr(sk, n))}
    assert names == PUBLIC, (sorted(names - PUBLIC), sorted(PUBLIC - names))


def test_removed_names_stay_removed():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(sk, name), name


def test_record_fields_are_pinned():
    for cls, names in RECORD_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__


def test_restated_record_attributes_stay_removed():
    s = sk.SBox(3, np.arange(8))
    records = [
        (sk.full_report(s), ("walsh_max", "nl_component_min")),
        (sk.nonlinearity(s), ("component_min",)),
        (sk.compute_ddt(s), ("n",)),
        (sk.compute_lat(s), ("n",)),
    ]
    for record, names in records:
        for name in names:
            assert not hasattr(record, name), f"{type(record).__name__}.{name}"


def test_format_sbox_takes_only_the_sbox():
    assert list(inspect.signature(sk.format_sbox).parameters) == ["s"]


def test_sbox_algebraic_immunity_takes_only_the_sbox():
    assert list(inspect.signature(sk.sbox_algebraic_immunity).parameters) == ["s"]


def test_field_scalars_take_the_context_and_their_operands():
    assert list(inspect.signature(sk.gf_mul).parameters) == ["ctx", "a", "b"]
    assert list(inspect.signature(sk.gf_pow).parameters) == ["ctx", "x", "e"]
