import types

import loopforge


def test_public_api():
    """The package exports what its commands and the benchmark run, and no
    helper that only the tests use (those live in the tests' references)."""
    assert sorted(loopforge.__all__) == [
        "CatalogEntry", "ClassCatalog", "CompatibilityGraph", "CrossingCount", "CurveSpec",
        "Drawing", "EnumerationIncompleteError", "ExpansionDecomposition", "FamilyBounds",
        "GapAlphabet", "NORTH", "OracleConfig", "PreconditionError", "Reduction", "SOUTH",
        "Span", "V", "VLoopClass", "Winding", "Word", "XLoopClass", "all_maximal_spans",
        "analytic_bounds", "canon_v", "canon_x", "compatibility_graph", "count_crossings",
        "count_vectors_exact", "decompose", "enumerate_classes", "family_bounds",
        "find_windings", "growth_report", "has_adjacent_repeat", "length_cap",
        "m_vector_count", "maximal_two_letter_words", "minimize_crossings", "multinomial",
        "pair_intersection_number", "parse_letters", "parse_word", "reduce_word",
        "segment_self_at_least", "self_intersection_number", "winding_self_lower_bound",
        "z_vector",
    ]
    # `from loopforge import *` binds no submodule
    assert not [name for name in loopforge.__all__
                if isinstance(getattr(loopforge, name), types.ModuleType)]
