"""Query-user facade (the light node issuing verifiable queries)."""

from __future__ import annotations

from repro.accumulators.base import MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.chain.chain import Blockchain
from repro.chain.light import LightNode
from repro.chain.miner import ProtocolParams
from repro.chain.object import DataObject
from repro.core.query import TimeWindowQuery
from repro.core.verifier import QueryVerifier, VerifyStats
from repro.core.vo import TimeWindowVO


class QueryUser:
    """A light node: syncs headers, queries an SP, verifies the answer."""

    def __init__(
        self,
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        params: ProtocolParams,
        pool=None,
    ) -> None:
        """``pool`` (a :class:`~repro.parallel.CryptoPool`) parallelises
        :meth:`batch_verify`'s weighted aggregation; not owned here."""
        self.light = LightNode(difficulty_bits=params.difficulty_bits)
        self.verifier = QueryVerifier(
            self.light, accumulator, encoder, params, pool=pool
        )
        self.params = params

    def sync_headers(self, source: Blockchain) -> int:
        """Pull new block headers from any full node."""
        return self.light.sync(source)

    def verify(
        self,
        query: TimeWindowQuery,
        results: list[DataObject],
        vo: TimeWindowVO,
    ) -> tuple[list[DataObject], VerifyStats]:
        """Check an SP response; raises VerificationError when forged."""
        return self.verifier.verify_time_window(query, results, vo)

    def batch_verify(
        self, items: list[tuple]
    ) -> tuple[list[list[DataObject]], VerifyStats]:
        """Verify many ``(query, results, vo)`` answers in one pass.

        Cross-VO disjointness checks against the same clause collapse
        into one aggregated pairing (acc2); see
        :meth:`repro.core.verifier.QueryVerifier.batch_verify`.
        """
        return self.verifier.batch_verify(items)
