"""RouTEE: a payment routing hub with spend-all settlement, plus the
simulated UTXO chain and attack harness that exercise its security story."""

from .blocks import Block, apply_block, validate_block
from .crypto import CryptoSuite, DeterministicRng, address_of, sha256d
from .headers import (
    BlockHeader,
    ChainParams,
    CompactTarget,
    HeaderChain,
    bits_to_target,
    check_pow,
    expected_target,
    merkle_root,
    target_to_bits,
)
from .hub import FeeEstimator, Hub, HubConfig, SettlementPlan
from .simchain import SimClock, SimNode, forge_chain, replay_utxo
from .transactions import Transaction, TxInput, TxOutput, formula_size

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockHeader",
    "ChainParams",
    "CompactTarget",
    "CryptoSuite",
    "DeterministicRng",
    "FeeEstimator",
    "HeaderChain",
    "Hub",
    "HubConfig",
    "SettlementPlan",
    "SimClock",
    "SimNode",
    "Transaction",
    "TxInput",
    "TxOutput",
    "address_of",
    "apply_block",
    "bits_to_target",
    "check_pow",
    "expected_target",
    "forge_chain",
    "formula_size",
    "merkle_root",
    "replay_utxo",
    "sha256d",
    "target_to_bits",
    "validate_block",
]
