"""Service-provider facade (the untrusted full node answering queries)."""

from __future__ import annotations

import os
from typing import Sequence

from repro.accumulators.base import MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.chain.chain import Blockchain
from repro.chain.miner import ProtocolParams
from repro.core.prover import QueryProcessor


class ServiceProvider:
    """A full node offering verifiable query services to light users.

    Thin façade over :class:`QueryProcessor`.  Transports talk to it
    through :class:`repro.api.ServiceEndpoint`, which also multiplexes
    subscription queries via
    :class:`repro.subscribe.engine.SubscriptionEngine`.

    An SP over a durable chain directory reopens across process
    restarts via :meth:`open` — headers are re-validated on the way up
    and answers are byte-identical to the pre-restart chain's.
    """

    def __init__(
        self,
        chain: Blockchain,
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        params: ProtocolParams,
        pool=None,
    ) -> None:
        """``pool`` (a :class:`~repro.parallel.CryptoPool`) parallelises
        the processor's disjointness proving; the SP does not own it —
        whoever built the pool closes it."""
        self.chain = chain
        self.accumulator = accumulator
        self.encoder = encoder
        self.params = params
        self.pool = pool
        self.processor = QueryProcessor(chain, accumulator, encoder, params, pool=pool)

    @classmethod
    def open(
        cls,
        data_dir: str | os.PathLike | Sequence[str | os.PathLike],
        fsync: bool = True,
    ) -> "ServiceProvider":
        """Reopen an SP from a chain directory written by a previous
        process (see :mod:`repro.storage.bootstrap` for what is
        reconstructed and re-validated).  ``data_dir`` takes anything
        :func:`~repro.storage.bootstrap.open_chain_setup` does —
        including a striped deployment's surviving quorum of node
        directories, which is how a standby SP takes over."""
        from repro.storage.bootstrap import open_chain_setup

        setup = open_chain_setup(data_dir, fsync=fsync)
        return cls(setup.chain, setup.accumulator, setup.encoder, setup.params)

    def close(self) -> None:
        """Close the chain's backing store (no-op for memory chains)."""
        self.chain.close()
