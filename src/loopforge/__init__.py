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
    orientation,
    parse_letters,
    parse_word,
    reduce_word,
)
from .canon import (
    GeneratorString,
    VLoopClass,
    XLoopClass,
    canon_v,
    canon_x,
    format_generators,
    from_free_group,
    multiply,
    to_free_group,
)
from .oracle import (
    CrossingCount,
    CurveSpec,
    Drawing,
    OracleConfig,
    count_crossings,
    minimize_crossings,
    pair_intersection_number,
    segment_pair_intersections,
    segment_self_at_least,
    segment_self_intersections,
    self_intersection_number,
)
from .bounds import (
    BoundsReport,
    Snail,
    Winding,
    analytic_bounds,
    family_bound_snails,
    find_snails,
    find_windings,
    forced_arc_intersection,
    snail_pair_lower_bound,
    winding_self_lower_bound,
)
from .expansion import (
    ExpansionDecomposition,
    apply_expansion,
    count_vectors_exact,
    decompose,
    expansion_lower_bound,
    m_vector_count,
    multinomial,
    multiplicity_profile,
    z_majorizes,
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

__all__ = [name for name in dir() if not name.startswith("_")]
