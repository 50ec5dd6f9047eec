"""Construction 2: q-DHE multiset accumulator (paper Sec. 5.2.2).

The commitment is the pair ``acc(X) = (dA, dB)`` with

    dA = g^{A(s)},  A(s) = Σ_{x∈X} s^x
    dB = g^{B(s)},  B(s) = Σ_{x∈X} s^{q-x}

for encoded elements ``x ∈ [1, q-1]``.  If ``X1 ∩ X2 = ∅`` the product
``A(X1)·B(X2)`` contains no ``s^q`` term (an ``s^q`` term arises exactly
when ``x_i = x_j``), so ``π = g^{A(X1)B(X2)}`` is computable from the
published powers, which deliberately omit ``g^{s^q}``.  Verification
checks ``e(dA(X1), dB(X2)) == e(π, g)``.

The big win over acc1 is *linearity*: commitments and proofs of
multiset sums aggregate by plain group multiplication, which the paper
exposes as ``Sum`` and ``ProofSum`` and exploits for online batch
verification (Sec. 6.3) and lazy subscription proofs (Sec. 7.2).
"""

from __future__ import annotations

from collections import Counter

from repro.accumulators.base import AccumulatorValue, DisjointProof, MultisetAccumulator
from repro.accumulators.keys import Acc2PublicKey
from repro.errors import AggregationError, CryptoError, NotDisjointError


class Acc2(MultisetAccumulator):
    """q-DHE multiset accumulator with Sum/ProofSum aggregation."""

    name = "acc2"

    def __init__(self, public_key: Acc2PublicKey) -> None:
        self.public_key = public_key
        self.backend = public_key.backend

    # -- internals ---------------------------------------------------------
    def _check_domain(self, encoded: Counter) -> None:
        q = self.public_key.domain
        for element in encoded:
            if not 1 <= element <= q - 1:
                raise CryptoError(
                    f"encoded element {element} outside acc2 domain [1, {q - 1}]"
                )

    def _commit_exponents(self, exponents: Counter):
        """``g^{Σ count·s^index}`` over the published powers.

        One MSM over the referenced powers; the counts are small (object
        multiplicities), so Pippenger collapses the whole histogram into
        a single bucket pass.  The powers are materialized in batches
        (:meth:`~repro.accumulators.keys.KeyOracle.powers`).
        """
        backend = self.backend
        indices = []
        scalars = []
        for index, count in exponents.items():
            count %= backend.order
            if count == 0:
                continue
            indices.append(index)
            scalars.append(count)
        if not indices:
            return backend.identity()
        return backend.multi_exp(self.public_key.powers(indices), scalars)

    # -- accumulator API --------------------------------------------------------
    def accumulate(self, encoded: Counter) -> AccumulatorValue:
        self._check_domain(encoded)
        q = self.public_key.domain
        part_a = self._commit_exponents(encoded)
        part_b = self._commit_exponents(
            Counter({q - element: count for element, count in encoded.items()})
        )
        return AccumulatorValue(parts=(part_a, part_b))

    def prove_disjoint(self, encoded_a: Counter, encoded_b: Counter) -> DisjointProof:
        self._check_domain(encoded_a)
        self._check_domain(encoded_b)
        common = set(encoded_a) & set(encoded_b)
        if common:
            raise NotDisjointError(
                f"multisets share encoded elements {sorted(common)!r}"
            )
        q = self.public_key.domain
        # A(X1)·B(X2) expands to Σ c_i·c_j · s^{x_i + q - x_j}; collect the
        # exponent histogram, then commit.  x_i ≠ x_j guarantees no s^q.
        cross: Counter = Counter()
        for elem_a, count_a in encoded_a.items():
            for elem_b, count_b in encoded_b.items():
                cross[elem_a + q - elem_b] += count_a * count_b
        return DisjointProof(parts=(self._commit_exponents(cross),))

    def verify_disjoint(
        self,
        value_a: AccumulatorValue,
        value_b: AccumulatorValue,
        proof: DisjointProof,
    ) -> bool:
        if len(value_a.parts) != 2 or len(value_b.parts) != 2 or len(proof.parts) != 1:
            return False
        backend = self.backend
        # e(dA(X1), dB(X2)) == e(π, g), folded into one pairing product
        # e(dA(X1), dB(X2)) · e(π^{-1}, g) == 1 so both pairings share a
        # single final exponentiation.
        left = backend.multi_pairing(
            [
                (value_a.parts[0], value_b.parts[1]),
                (backend.inv(proof.parts[0]), backend.generator()),
            ]
        )
        return backend.gt_eq(left, backend.gt_identity())

    # -- aggregation (the acc2 differentiator) --------------------------------
    @property
    def supports_aggregation(self) -> bool:
        return True

    def sum_values(self, values: list[AccumulatorValue]) -> AccumulatorValue:
        """``Sum`` — commitment to the multiset sum ``Σ X_i``."""
        if not values:
            raise AggregationError("Sum() of an empty value list")
        backend = self.backend
        part_a = backend.identity()
        part_b = backend.identity()
        for value in values:
            if len(value.parts) != 2:
                raise AggregationError("Sum() received a non-acc2 value")
            part_a = backend.op(part_a, value.parts[0])
            part_b = backend.op(part_b, value.parts[1])
        return AccumulatorValue(parts=(part_a, part_b))

    def sum_proofs(self, proofs: list[DisjointProof]) -> DisjointProof:
        """``ProofSum`` — aggregate proofs sharing the same right multiset.

        The algebra: Σ A(X_i)·B(Y) = A(ΣX_i)·B(Y), so multiplying the π's
        yields the disjointness proof for the summed left side.  The
        same-``Y`` precondition is the *caller's* obligation (the paper
        states it as a requirement of ProofSum); violating it produces a
        proof that simply fails verification.
        """
        if not proofs:
            raise AggregationError("ProofSum() of an empty proof list")
        backend = self.backend
        total = backend.identity()
        for proof in proofs:
            if len(proof.parts) != 1:
                raise AggregationError("ProofSum() received a non-acc2 proof")
            total = backend.op(total, proof.parts[0])
        return DisjointProof(parts=(total,))
