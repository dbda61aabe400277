"""From-scratch ROBDD engine.

The paper performs reachability and ATPG "by means of symbolic
techniques ... similar to those used for synchronous finite state
machines [10]" — i.e. BDD-based image computation.  This package
provides the production kernel: a hash-consed reduced ordered BDD
manager with complement edges, a unified ITE apply over one int-keyed
operation cache, quantification, the fused and-exists relational
product and arbitrary variable substitution, append-only (nothing is
ever freed; :mod:`repro.bdd.manager`), the only BDD engine in the
package; the seed engine survives with the tests as their differential
oracle.  :mod:`repro.bdd.reorder` computes the netlist-driven variable
order the symbolic CSSG builder installs.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.bdd.manager": ("BddManager", "BddStats"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
