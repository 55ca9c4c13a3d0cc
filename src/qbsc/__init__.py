"""Simulator and numerical verification lab for two quantum bit string
commitment protocols: qubit-per-bit commitments and codebook commitments
over near-orthogonal state families, with every security bound checked
against exact brute-force oracles at desk scale."""

__version__ = "0.1.0"  # bound first: transcript reads it for its tool id

from .adversary import (
    CheatStrategy,
    guess_all_oracle,
    run_cheat_session,
    top_eigenvector_strategy,
)
from .codebook import (
    BinaryCode,
    Codebook,
    capacity,
    derive_seed,
    fingerprint_states,
    generate_certified_codebook,
    generate_code,
    rank_gf2,
    verify_epsilon,
)
from .errors import (
    CertificationError,
    GenerationError,
    InputError,
    NumericalError,
    PhaseOrderError,
    ProtocolError,
)
from .harness import BoundReport, bound_sweep, commit_session, unveil_session, verify_session
from .linalg import (
    DensityMatrix,
    HermitianOp,
    Ket,
    binary_entropy,
    projector,
    von_neumann_entropy,
)
from .protocol1 import (
    Commitment1,
    SecurityParams,
    binding_bound1,
    commit,
    encode_bit,
    hiding_gap,
    holevo_bound1,
    holevo_power_form,
    identify_all_bound,
    identify_all_bound_raw,
    projection_probability,
    reveal_operator,
    smallest_hiding_n,
    top_reveal_eigenvalue,
    uniform_commitment_state,
    verify_unveil,
)
from .protocol2 import (
    CheatSet,
    Commitment2,
    binding_bound2,
    cheat_set_for,
    cheat_set_gram,
    code_ensemble_entropy,
    commit2,
    equality_configuration,
    hiding_bound2,
    q_operator,
    verify_unveil2,
)
from .transcript import Transcript
