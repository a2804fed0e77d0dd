"""Network cost model for the simulated RMA substrate.

The paper evaluates GDI-RMA on Piz Daint (Cray XC40/XC50 servers, Aries
interconnect, Dragonfly topology).  We cannot run on that machine, so every
one-sided operation and collective in :mod:`repro.rma` charges *simulated*
time into per-rank clocks according to a LogGP-style model:

    T(one-sided, remote) = alpha + nbytes * beta
    T(one-sided, local)  = alpha_local + nbytes * beta_local
    T(remote atomic)     = alpha + gamma
    T(collective)        = ceil(log2 P) * (alpha + nbytes * beta) (tree-based)
    T(alltoall)          = (P - 1) * (alpha + nbytes * beta)

``alpha`` is the per-message network latency, ``beta`` the inverse
bandwidth, and ``gamma`` the extra cost of a network-accelerated atomic.
The constants for the XC40/XC50 profiles are calibrated to published Aries
measurements (~1-1.5 us one-sided latency, ~10 GB/s injection per node);
XC50 nodes have fewer cores sharing the NIC, hence more network bandwidth
per core, which is the paper's explanation (Section 6.4) for XC50
outperforming XC40 on read-mostly workloads.

The *shape* of every scaling experiment in the paper (who wins, slopes,
crossovers) is derived from operation counts and message sizes, which this
model preserves; absolute magnitudes are approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "MachineProfile",
    "XC40",
    "XC50",
    "UNIFORM",
    "ZERO_COST",
    "CostModel",
    "log2ceil",
]


def log2ceil(p: int) -> int:
    """Number of rounds of a binomial tree over ``p`` participants."""
    if p <= 1:
        return 0
    return int(math.ceil(math.log2(p)))


@dataclass(frozen=True)
class MachineProfile:
    """Hardware constants of one class of compute server.

    Attributes
    ----------
    name:
        Human-readable profile name (appears in benchmark reports).
    alpha:
        One-sided remote message latency in seconds.
    beta:
        Inverse network bandwidth in seconds per byte (per core share).
    gamma:
        Additional latency of a remote atomic (CAS/FAA) in seconds.
    alpha_local:
        Latency of an operation that stays within the local rank.
    beta_local:
        Inverse local memory bandwidth in seconds per byte.
    cores_per_server:
        Cores per physical server; used to convert rank counts into the
        server counts the paper reports.
    mem_per_server:
        Bytes of DRAM per server (64 GB on both Piz Daint partitions).
    o_target:
        Target-side NIC service time per incoming message in seconds.
        Models receiver congestion: a rank bombarded by remote accesses
        cannot proceed past a synchronization point until its NIC has
        served them, which is what makes load imbalance hurt.
    o_atomic:
        Per-additional-operation overhead of a *batched* atomic in
        seconds.  Aries pipelines back-to-back AMOs to the same NIC, so
        a doorbell batch of ``n`` same-target atomics costs one full
        ``alpha + gamma`` round plus ``(n - 1) * o_atomic`` issue slots
        instead of ``n`` full rounds.
    congestion_feedback:
        Fraction of the receiver NIC's queueing delay charged back to
        the *issuing* rank's clock (0.0 = legacy open-loop accounting,
        where receiver busy time only moves ``effective_clock``).  With
        feedback enabled the target NIC is a FIFO queue: an op arriving
        while the NIC's busy horizon is ahead of the issuer's clock
        waits its turn, and ``congestion_feedback`` of that wait lands
        on the issuer.  This is what makes a *hot shard* a genuinely
        shared bottleneck — every rank hammering the same NIC slows
        down — and what a rebalance that spreads the shard's vertices
        measurably repairs.  Opt-in so calibrated baselines keep their
        legacy numbers.
    """

    name: str
    alpha: float
    beta: float
    gamma: float
    alpha_local: float
    beta_local: float
    cores_per_server: int
    mem_per_server: int
    o_target: float = 0.4e-6
    o_atomic: float = 0.05e-6
    congestion_feedback: float = 0.0

    def servers(self, nranks: int) -> float:
        """Server count equivalent to ``nranks`` simulated ranks."""
        return nranks / self.cores_per_server


#: Cray XC40 partition of Piz Daint: 2x18-core Xeon E5-2695v4, 64 GB.
XC40 = MachineProfile(
    name="XC40",
    alpha=1.4e-6,
    beta=1.0 / 10e9 * 36,  # one Aries NIC shared by 36 cores
    gamma=0.7e-6,
    alpha_local=0.08e-6,
    beta_local=1.0 / 50e9,
    cores_per_server=36,
    mem_per_server=64 * 2**30,
)

#: Cray XC50 partition: single 12-core Xeon E5-2690 (HT), 64 GB.  Fewer
#: cores share the NIC, so the per-core beta is smaller (more bandwidth
#: per core), matching the paper's Section 6.4 observation.
XC50 = MachineProfile(
    name="XC50",
    alpha=1.3e-6,
    beta=1.0 / 10e9 * 12,
    gamma=0.7e-6,
    alpha_local=0.08e-6,
    beta_local=1.0 / 50e9,
    cores_per_server=12,
    mem_per_server=64 * 2**30,
)

#: Architecture-neutral profile used by unit tests and examples.
UNIFORM = MachineProfile(
    name="UNIFORM",
    alpha=1.0e-6,
    beta=1.0e-9,
    gamma=0.5e-6,
    alpha_local=0.05e-6,
    beta_local=0.02e-9,
    cores_per_server=16,
    mem_per_server=64 * 2**30,
)

#: Profile where everything is free; useful for pure-correctness tests.
ZERO_COST = MachineProfile(
    name="ZERO_COST",
    alpha=0.0,
    beta=0.0,
    gamma=0.0,
    alpha_local=0.0,
    beta_local=0.0,
    cores_per_server=1,
    mem_per_server=64 * 2**30,
    o_target=0.0,
    o_atomic=0.0,
)


@dataclass
class CostModel:
    """Charges simulated time for RMA operations under a machine profile.

    A single :class:`CostModel` is shared by all ranks of a runtime; the
    per-rank clocks themselves live in :class:`repro.rma.runtime.RmaRuntime`
    so that the model stays stateless and reusable.
    """

    profile: MachineProfile = field(default_factory=lambda: UNIFORM)

    # -- one-sided -------------------------------------------------------
    def onesided(self, origin: int, target: int, nbytes: int) -> float:
        """Cost of a put/get of ``nbytes`` from ``origin`` to ``target``:
        one message, whether ``nbytes`` is one operation's payload or the
        summed payload of a doorbell batch coalesced towards ``target``."""
        p = self.profile
        if origin == target:
            return p.alpha_local + nbytes * p.beta_local
        return p.alpha + nbytes * p.beta

    def atomic(self, origin: int, target: int, count: int = 1) -> float:
        """Cost of ``count`` 8-byte remote atomics (CAS/FAA/APUT/AGET)
        issued to one target in one doorbell batch: the first pays the
        full round, each further one only the pipelined ``o_atomic``
        issue slot."""
        p = self.profile
        if origin == target:
            return p.alpha_local + (count - 1) * p.o_atomic
        return p.alpha + p.gamma + (count - 1) * p.o_atomic

    def target_service(self, nbytes: int) -> float:
        """Receiver-side NIC busy time caused by one incoming message."""
        p = self.profile
        return p.o_target + nbytes * p.beta

    def flush(self, origin: int, target: int | None) -> float:
        """Cost of completing pending operations towards ``target``.

        Non-blocking operations overlap; a flush pays one round-trip.
        """
        p = self.profile
        if target is not None and origin == target:
            return p.alpha_local
        return p.alpha

    # -- collectives -----------------------------------------------------
    def tree_collective(self, nranks: int, nbytes: int) -> float:
        """Cost of a binomial-tree collective (bcast/reduce/allreduce)."""
        p = self.profile
        return log2ceil(nranks) * (p.alpha + nbytes * p.beta)

    def barrier(self, nranks: int) -> float:
        """Cost of a dissemination barrier."""
        return log2ceil(nranks) * self.profile.alpha

    def gather(self, nranks: int, nbytes_per_rank: int) -> float:
        """Cost of gather/allgather of ``nbytes_per_rank`` contributions.

        Modeled as a binomial tree whose payload doubles each round, i.e.
        latency log P plus bandwidth term for the full P * nbytes payload.
        """
        p = self.profile
        total = nranks * nbytes_per_rank
        return log2ceil(nranks) * p.alpha + total * p.beta

    def alltoall(self, nranks: int, nbytes_per_pair: int) -> float:
        """Cost of a personalized all-to-all exchange."""
        p = self.profile
        if nranks <= 1:
            return p.alpha_local
        return (nranks - 1) * (p.alpha + nbytes_per_pair * p.beta)

    # -- compute ---------------------------------------------------------
    def compute(self, nops: int, flops_per_second: float = 2.0e9) -> float:
        """Cost of ``nops`` local scalar operations.

        Workload drivers use this to charge for local work (e.g. filtering
        property values) so that compute-bound phases are represented in
        simulated time, not just communication.
        """
        return nops / flops_per_second
