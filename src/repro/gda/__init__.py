"""GDI-RMA ("GDA"): the paper's distributed-memory GDI implementation.

Layers (paper Section 5): 64-bit distributed pointers (:mod:`.dptr`),
the BGDL block level (:mod:`.blocks`), holder objects of the Logical
Layout level (:mod:`.holder`, :mod:`.entries`), the lock-free internal
index (:mod:`.dht`), scalable RW locks (:mod:`.locks`), replicated
metadata (:mod:`.metadata`), explicit indexes (:mod:`.index_impl`),
transactions (:mod:`.transaction_impl`), and the database object
(:mod:`.database_impl`).
"""

from .blocks import BlockManager, OutOfBlocksError
from .checkpoint import restore, snapshot
from .database_impl import GdaConfig, GdaDatabase, TxStats
from .dht import DistributedHashTable
from .dptr import (
    DPTR_NULL,
    DPtr,
    is_null,
    pack_dptr,
    pack_edge_uid,
    pack_tagged,
    unpack_dptr,
    unpack_edge_uid,
    unpack_tagged,
)
from .holder import (
    EdgeHolder,
    EdgeSlot,
    HolderStorage,
    StoredHolder,
    VertexHolder,
)
from .index_impl import ExplicitEdgeIndex, ExplicitIndex, VertexDirectory
from .locks import LockTimeout
from .metadata import Label, MetadataReplica, MetadataStore, PropertyType
from .recovery import (
    Checkpoint,
    CommitLog,
    CommitRecord,
    recover,
    replay_entries_idempotent,
    take_checkpoint,
)
from .relocate import plan_balance, plan_offload, rebalance
from .replication import ReplicationManager
from .retry import RetryDeadlineExceeded, RetryPolicy, run_transaction
from .transaction_impl import (
    EdgeHandle,
    Transaction,
    VertexHandle,
    VolatileVertexId,
)

__all__ = [
    "BlockManager",
    "OutOfBlocksError",
    "snapshot",
    "restore",
    "GdaConfig",
    "GdaDatabase",
    "TxStats",
    "DistributedHashTable",
    "DPTR_NULL",
    "DPtr",
    "is_null",
    "pack_dptr",
    "pack_edge_uid",
    "pack_tagged",
    "unpack_dptr",
    "unpack_edge_uid",
    "unpack_tagged",
    "EdgeHolder",
    "EdgeSlot",
    "HolderStorage",
    "StoredHolder",
    "VertexHolder",
    "ExplicitIndex",
    "ExplicitEdgeIndex",
    "VertexDirectory",
    "LockTimeout",
    "ReplicationManager",
    "replay_entries_idempotent",
    "Label",
    "MetadataReplica",
    "MetadataStore",
    "PropertyType",
    "EdgeHandle",
    "Transaction",
    "VertexHandle",
    "VolatileVertexId",
    "plan_balance",
    "plan_offload",
    "rebalance",
    "Checkpoint",
    "CommitLog",
    "CommitRecord",
    "recover",
    "take_checkpoint",
    "RetryPolicy",
    "run_transaction",
    "RetryDeadlineExceeded",
]
