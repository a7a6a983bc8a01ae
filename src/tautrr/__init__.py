"""Exact intersection-number engine and pairing-level relation certifier."""

from .cache import (
    CacheFormatError,
    CacheStore,
    cache_load,
    cache_save,
    format_rational,
    load_engine_cache,
    parse_rational,
    save_engine_cache,
)
from .engine import (
    CorrelatorEngine,
    CorrelatorKey,
    UnstableModuliError,
    genus0_closed_form,
    one_point_value,
    two_point_value,
)
from .relations import (
    VerificationReport,
    build_bbt,
    build_fqq,
    build_variation,
    build_vpe,
    build_xi,
    verify,
    verify_vyt,
    verify_xi_witness,
    xi_witness,
    xi_witness_expected,
)
from .strata import (
    AmbientSpace,
    ClassExpr,
    InteriorTerm,
    NonSeparatingPushforward,
    SeparatingStratum,
    TestMonomial,
    enumerate_tests,
    pair_with_test,
)
from .universal import (
    VectorFieldPt,
    psi_eval,
    sreduce_check,
    symmetry_check,
    tau,
    tau_shift,
    verify_conjC,
)

__version__ = "0.1.0"
