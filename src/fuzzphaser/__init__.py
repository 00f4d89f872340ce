"""Density-matrix meaning updating for compositional text semantics.

Word meanings live in density matrices.  Sentences act on them through
projector updates, fuzz (decohering mixtures), and phasers (spectral
filters); double density matrices unify the latter two as completely
positive maps, and a small controlled grammar compiles short texts into
update circuits over a joint state.
"""

from .ddm import (
    DdmBranch,
    DdmFactor,
    DoubleDensityMatrix,
    apply_kraus,
    canonicalize,
    choi_matrix,
    ddm_as_state,
    ddm_from_fuzz,
    ddm_from_phaser,
    ddm_kraus,
    ddm_update,
    kraus_from_state,
    same_channel,
)
from .density import (
    DensityMatrix,
    Projector,
    PureState,
    decohere,
    from_pure,
    projector_update,
    purity,
    renormalize,
)
from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    FuzzPhaserError,
    IncompleteFamilyError,
    LexiconError,
    NotHermitianError,
    NotPSDError,
    NumericalFailureError,
    ParseError,
    SizeCapError,
    SpaceMismatchError,
    UnknownActorError,
    UnknownWordError,
    ZeroTraceError,
)
from .lexicon import load_lexicon, save_lexicon
from .linalg import (
    SpectralDecomposition,
    grouped_eigh,
    hermitian_eig,
    matrix_sqrt,
    partial_trace,
)
from .spider import OrthonormalBasis, SpiderTensor, cap, contract, cup, make_spider, phase_apply
from .textcirc import (
    Circuit,
    Lexicon,
    LexiconEntry,
    WorldState,
    compile_sentences,
    compile_text,
    evaluate,
    evaluate_trajectory,
    parse,
    reduced_state,
)
from .update import (
    PhaserData,
    TracePreservationReport,
    fuzz,
    phaser,
    phaser_as_spider,
    phaser_general,
    phaser_pure,
    trace_preservation_report,
)

__version__ = "0.1.0"
