"""vChain reproduction: verifiable Boolean range queries over blockchain
databases (Xu, Zhang, Xu — SIGMOD 2019).

Quickstart::

    from repro import VChainNetwork

    net = VChainNetwork.create(acc_name="acc2", backend_name="simulated")
    net.mine([...objects...], timestamp=0)

    resp = (net.client.query()
                .window(0, 100)
                .range(low=(0,), high=(50,))
                .all_of("Sedan")
                .any_of("Benz", "BMW")
                .execute())
    resp.raise_for_forgery()          # or check resp.ok
    print(resp.results, resp.vo_nbytes, resp.sp_seconds, resp.user_seconds)

    with net.client.subscribe().any_of("Benz").open() as stream:
        net.mine([...more objects...], timestamp=30)
        for delivery in stream.poll():
            print(delivery.heights(), delivery.results)

The client talks to the service provider through a pluggable
:class:`repro.api.Transport`: in-process by default, or over a
length-prefixed socket protocol (:class:`repro.api.AsyncSocketServer`
+ ``VChainClient.connect``) where every request and response
round-trips through canonical :mod:`repro.wire` bytes.
``backend_name="ss512"`` swaps in the real supersingular pairing;
``"simulated"`` keeps the identical algebra on exponent arithmetic for
large runs (see DESIGN.md).  ``create(data_dir=...)`` makes the chain
durable (:mod:`repro.storage`) and ``VChainNetwork.open`` brings it
back in a later process with verifiable answers intact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.accumulators import ElementEncoder
from repro.accumulators.base import MultisetAccumulator
from repro.api import ServiceEndpoint, VChainClient
from repro.chain import Block, Blockchain, DataObject, Miner, ProtocolParams
from repro.core.sp import ServiceProvider
from repro.core.user import QueryUser
from repro.parallel import CryptoPool, ParallelConfig, make_pool, resolve_config
from repro.storage.bootstrap import (
    ChainSetup,
    StorageTarget,
    create_chain_setup,
    open_chain_setup,
)

__version__ = "1.9.0"

__all__ = [
    "CryptoPool",
    "ParallelConfig",
    "VChainClient",
    "VChainNetwork",
    "__version__",
    "make_pool",
]


@dataclass
class VChainNetwork:
    """A fully wired miner + SP + light-node user sharing one protocol.

    This is the three-party system model of the paper's Fig 3 in one
    object, for examples and tests; the individual pieces compose just
    as well by hand.  ``net.client`` is a ready
    :class:`repro.api.VChainClient` over an in-process transport.
    """

    params: ProtocolParams
    accumulator: MultisetAccumulator
    encoder: ElementEncoder
    chain: Blockchain
    miner: Miner
    sp: ServiceProvider
    user: QueryUser
    data_dir: str | None = None
    pool: CryptoPool | None = None
    _endpoint: ServiceEndpoint | None = field(default=None, repr=False)
    _client: VChainClient | None = field(default=None, repr=False)

    @classmethod
    def create(
        cls,
        acc_name: str = "acc2",
        backend_name: str = "simulated",
        params: ProtocolParams | None = None,
        seed: int | None = None,
        acc1_capacity: int = 4096,
        data_dir: "StorageTarget | None" = None,
        fsync: bool = True,
        workers: int = 1,
        parallel: ParallelConfig | None = None,
        stripes: int | None = None,
        parity: int = 2,
    ) -> "VChainNetwork":
        """Trusted setup + empty chain + one of each party.

        With ``data_dir`` the chain is file-backed: every mined block is
        fsync'd to an append-only log and the trusted setup is recorded
        in the directory's manifest, so :meth:`open` can bring the whole
        network back in a later process.  ``create`` refuses a directory
        that already holds a chain — reopen those instead.

        ``stripes`` erasure-codes the log across ``stripes + parity``
        node directories under (or listed in) ``data_dir``, tolerating
        up to ``parity`` lost directories — see
        :class:`repro.storage.StripedBlockStore`.

        ``workers`` scales the crypto across that many worker processes
        (a shared :class:`~repro.parallel.CryptoPool` serving miner, SP
        and user; ``parallel`` accepts a full
        :class:`~repro.parallel.ParallelConfig`).  The default of 1 is
        fully serial; any setting produces byte-identical chains and
        VOs.
        """
        # validate the parallel arguments before anything touches disk:
        # a bad combination must not leave a half-initialised data_dir
        parallel = resolve_config(workers, parallel)
        setup = create_chain_setup(
            data_dir=data_dir,
            acc_name=acc_name,
            backend_name=backend_name,
            params=params,
            seed=seed,
            acc1_capacity=acc1_capacity,
            fsync=fsync,
            stripes=stripes,
            parity=parity,
        )
        return cls._from_setup(setup, parallel=parallel)

    @classmethod
    def open(
        cls,
        data_dir: "StorageTarget",
        fsync: bool = True,
        workers: int = 1,
        parallel: ParallelConfig | None = None,
    ) -> "VChainNetwork":
        """Reopen a persisted network: chain, miner, SP and a fresh
        light node, all wired to the recorded trusted setup.

        The store recovers its log (truncating a damaged tail with a
        warning), every header is re-validated, and the light node
        syncs the recovered headers — so queries verify immediately and
        mining can continue where the previous process stopped.
        Striped deployments reopen from any surviving quorum: pass the
        parent directory or a list of surviving node directories.
        """
        parallel = resolve_config(workers, parallel)
        setup = open_chain_setup(data_dir, fsync=fsync)
        net = cls._from_setup(setup, parallel=parallel)
        net.user.sync_headers(net.chain)
        return net

    @classmethod
    def _from_setup(
        cls,
        setup: ChainSetup,
        parallel: ParallelConfig | None = None,
    ) -> "VChainNetwork":
        """Wire the parties over one setup; ``parallel`` is the already
        resolved config (callers validate ``workers=`` up front)."""
        pool = None
        try:
            pool = make_pool(setup.accumulator, setup.encoder, config=parallel)
            miner = Miner(
                setup.chain, setup.accumulator, setup.encoder, setup.params, pool=pool
            )
            sp = ServiceProvider(
                setup.chain, setup.accumulator, setup.encoder, setup.params, pool=pool
            )
            user = QueryUser(setup.accumulator, setup.encoder, setup.params, pool=pool)
            return cls(
                params=setup.params,
                accumulator=setup.accumulator,
                encoder=setup.encoder,
                chain=setup.chain,
                miner=miner,
                sp=sp,
                user=user,
                data_dir=setup.data_dir,
                pool=pool,
            )
        except Exception:
            # a failed wiring must not leak worker processes or leave
            # the (possibly durable) store open
            if pool is not None:
                pool.close()
            setup.chain.close()
            raise

    @property
    def endpoint(self) -> ServiceEndpoint:
        """The SP-side request dispatcher all default clients share."""
        if self._endpoint is None:
            self._endpoint = ServiceEndpoint(self.sp)
        return self._endpoint

    @property
    def client(self) -> VChainClient:
        """A verifying client over the in-process transport (cached)."""
        if self._client is None:
            self._client = VChainClient.local(self.endpoint, user=self.user)
        return self._client

    def connect(self, **engine_options) -> VChainClient:
        """A fresh client with its own light node and endpoint.

        ``engine_options`` (``lazy=``, ``use_iptree=``, …) configure the
        new endpoint's subscription engine.
        """
        return VChainClient.local(ServiceEndpoint(self.sp, **engine_options))

    def mine(self, objects: list[DataObject], timestamp: int) -> Block:
        """Mine one block and sync the user's light node."""
        block = self.miner.mine_block(objects, timestamp)
        self.user.sync_headers(self.chain)
        return block

    def mine_dataset(self, dataset) -> list[Block]:
        """Mine every block of a generated dataset; returns the blocks."""
        blocks = [
            self.miner.mine_block(objects, timestamp)
            for timestamp, objects in dataset.blocks
        ]
        self.user.sync_headers(self.chain)
        return blocks

    def close(self) -> None:
        """Shut down the default endpoint and the chain's backing store.

        Required for a durable network before another process reopens
        its ``data_dir``; harmless (and a no-op storage-wise) for
        in-memory networks.
        """
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
            self._client = None
        if self.pool is not None:
            self.pool.close()
        self.chain.close()

    def __enter__(self) -> "VChainNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
