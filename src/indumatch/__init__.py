"""Exact barcodes and morphism-induced partial matchings on a finite grid."""

from .gf import (
    DimensionMismatch,
    Subspace,
    intersect,
    rank,
)
from .modules import (
    Barcode,
    GridInterval,
    Morphism,
    PersistenceBasis,
    PersistenceModule,
    ValidationError,
    barcode,
    direct_sum,
    direct_sum_morphism,
    hom_exists,
    image_barcode,
    image_factorization,
    image_module,
    interval_module,
    module_from_bars,
    persistence_basis,
    zero_module,
)
from .matching import (
    GMatchingTable,
    MMatchingTable,
    RepMatching,
    XModule,
    g_matching,
    m_matching,
    representation,
    x_module,
)
from .bauer_lesnick import chi
from .ladders import (
    CATALOG_CODES,
    THICK_CODES,
    THIN_CODES,
    LadderCode,
    enumerate_catalog,
    from_code,
    random_ladder,
    random_module,
)
from .oracle import (
    RealizationCertificate,
    count_generators,
    im_minus,
    im_plus,
    iota,
    is_eps_matching,
    ker_minus,
    ker_plus,
    lambda_,
    naive_barcode,
    one_eps_morphism,
    realize_as_m,
    restrict,
    shift_module,
    shift_morphism,
    v_minus,
    v_plus,
    y_minus,
    y_plus,
)
