"""Pairwise urgency ranking for patient message inboxes.

The library turns a labeled message corpus into evaluation pairs,
training triplets and exports, runs pairwise tournaments with pluggable
comparators, and scores the results with triage-aware ranking metrics.
"""

from .annotate import auto_label_corpus, classify_response, sextile_classes
from .compare import (
    CachedComparator,
    Comparator,
    ComparisonCache,
    ComparisonOutcome,
    DirectionScore,
    LogprobComparator,
    NoisyOracleComparator,
    ReasoningComparator,
    RewardComparator,
    ScoreKind,
    Winner,
    compare,
    perfect_oracle,
)
from .corpus import (
    EhrRecord,
    Gender,
    LabeledMessage,
    Message,
    Source,
    UrgencyLabel,
    labels_by_id,
    load_corpus,
    load_messages,
    save_corpus,
    split_ordinal,
)
from .gateway import CompletionResult, EndpointConfig, complete, score
from .metrics import (
    AgreementReport,
    BiasReport,
    BiasScheme,
    IntrinsicReport,
    agreement,
    bias_strata,
    chi_square_independence,
    expected_t_ndcg,
    intrinsic_accuracy,
    ndcg_at_k,
    t_ndcg_at_k,
)
from .pairs import (
    Difficulty,
    EvalPair,
    InboxSpec,
    Triplet,
    assemble_inbox,
    build_eval_pairs,
    build_triplets,
    export_reward,
    export_sft,
)
from .rank import TournamentResult, insert_incremental, run_tournament

__version__ = "0.1.0"
