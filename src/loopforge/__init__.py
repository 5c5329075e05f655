"""Loop words in a punctured plane: canonical homotopy classes, an exact
minimal-crossing oracle over chord-diagram drawings, certified intersection
lower bounds, expansion counting, and extremal class catalogs."""

from .words import (
    NORTH,
    SOUTH,
    GapAlphabet,
    PreconditionError,
    Reduction,
    Span,
    V,
    Word,
    all_maximal_spans,
    has_adjacent_repeat,
    maximal_two_letter_words,
    parse_letters,
    parse_word,
    reduce_word,
)
from .canon import (
    VLoopClass,
    XLoopClass,
    canon_v,
    canon_x,
)
from .oracle import (
    CrossingCount,
    CurveSpec,
    Drawing,
    OracleConfig,
    count_crossings,
    minimize_crossings,
    pair_intersection_number,
    segment_self_at_least,
    self_intersection_number,
)
from .bounds import (
    Winding,
    analytic_bounds,
    find_windings,
    winding_self_lower_bound,
)
from .expansion import (
    ExpansionDecomposition,
    count_vectors_exact,
    decompose,
    m_vector_count,
    multinomial,
    z_vector,
)
from .extremal import (
    CatalogEntry,
    ClassCatalog,
    CompatibilityGraph,
    EnumerationIncompleteError,
    FamilyBounds,
    compatibility_graph,
    enumerate_classes,
    family_bounds,
    growth_report,
    length_cap,
)

__all__ = [
    "NORTH", "SOUTH", "GapAlphabet", "PreconditionError", "Reduction", "Span", "V", "Word",
    "all_maximal_spans", "has_adjacent_repeat", "maximal_two_letter_words", "parse_letters",
    "parse_word", "reduce_word",
    "VLoopClass", "XLoopClass", "canon_v", "canon_x",
    "CrossingCount", "CurveSpec", "Drawing", "OracleConfig", "count_crossings",
    "minimize_crossings", "pair_intersection_number", "segment_self_at_least",
    "self_intersection_number",
    "Winding", "analytic_bounds", "find_windings", "winding_self_lower_bound",
    "ExpansionDecomposition", "count_vectors_exact", "decompose", "m_vector_count",
    "multinomial", "z_vector",
    "CatalogEntry", "ClassCatalog", "CompatibilityGraph", "EnumerationIncompleteError",
    "FamilyBounds", "compatibility_graph", "enumerate_classes", "family_bounds",
    "growth_report", "length_cap",
]
