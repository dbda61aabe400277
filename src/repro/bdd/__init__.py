"""From-scratch ROBDD engine.

The paper performs reachability and ATPG "by means of symbolic
techniques ... similar to those used for synchronous finite state
machines [10]" — i.e. BDD-based image computation.  This package
provides the production kernel: a hash-consed reduced ordered BDD
manager with complement edges, a unified ITE apply over one int-keyed
operation cache, quantification, the fused and-exists relational
product, arbitrary variable substitution, mark-and-sweep garbage
collection and in-place sifting (:mod:`repro.bdd.manager`).  The seed
engine is preserved as ``LegacyBddManager`` in :mod:`repro.bdd.legacy`
(not re-exported here) — the differential oracle and the benchmark
baseline.  :mod:`repro.bdd.reorder` hosts the offline variable-order
exploration utilities on top of the in-place machinery.
"""

from repro.bdd.manager import BddManager, BddStats

__all__ = ["BddManager", "BddStats"]
