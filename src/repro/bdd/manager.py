"""The production ROBDD kernel.

This is the engine behind the symbolic construction of the TCSG/CSSG
(paper §3.1/§4.2) — rewritten for throughput, since symbolic traversal
is the fast path for every circuit too large to enumerate explicitly.

Design notes:

* **Complement edges.**  A function reference is ``(node_id << 1) | c``
  where ``c`` complements the whole function; node 0 is the single
  terminal, so ``FALSE == 0`` and ``TRUE == 1 == ~FALSE``.  Negation is
  one XOR instead of a full traversal, and ``f`` / ``~f`` share every
  node.  Canonical form: the *then* edge of a stored node is never
  complemented (the complement is pushed onto the reference and the
  else edge), so equality of functions is still equality of references.
* **Unified ITE.**  Every binary connective is an ``ite(f, g, h)`` call
  after standard-triple normalization (Brace/Rudell/Bryant), funnelled
  through one operation cache keyed by packed integers — one dict, int
  keys, no tuple hashing on the hot path.  Quantification, the fused
  and-exists relational product, substitution and cofactor-flips share
  the same cache with their own opcode tags.
* **Variable order ≠ variable identity.**  Variables keep their creation
  index forever; a ``var ↔ level`` permutation maps them to levels.  All
  recursion compares *levels*, so the order can change under live
  references.
* **Arena tables.**  The node store is three parallel int arrays
  (``_var`` / ``_lo`` / ``_hi``) indexed by node id.  The unique table
  and the operation cache are keyed by one packed integer each (no
  tuple allocation or tuple hashing on any hot path), backed by the
  runtime's open-addressed hash table.  The free list is an index
  chain threaded through ``_lo`` (``_free_head`` → ``_lo[node]`` → …),
  so reclaiming and reusing a slot is two array writes — no side list,
  no set membership tests.
* **Mark-and-sweep GC.**  :meth:`collect` marks from registered roots
  (:meth:`add_root`) plus any refs passed in (one flat ``bytearray``
  of marks, no hash sets), sweeps dead nodes onto the free chain, and
  invalidates the operation cache (freed ids may be re-allocated to
  different functions).  Node ids of surviving nodes do not move, so
  live references stay valid across collections.
* **In-place sifting.**  :meth:`sift` reorders by adjacent level swaps
  that rewrite nodes *in place* — a reference held by a caller keeps
  denoting the same function before and after a reorder.  The classic
  canonicity argument carries over to complement edges: the new then
  edge of a swapped node is a cofactor of a regular then edge, hence
  regular.  The sifting scaffolding is flat int arrays too: per-level
  node populations are intrusive doubly-linked chains (``_ln_next`` /
  ``_ln_prev`` index arrays plus one head per variable) and the
  reference counts a plain int array, so a level swap runs without
  set churn; dead cofactors are reclaimed with an iterative
  explicit-stack walk.  Repeated auto-reorders back off geometrically
  (see :meth:`checkpoint`): each completed sift doubles the growth
  factor the live-node count must reach before the next one, so a
  long fixpoint computation is not re-sifted at every plateau.
* **Housekeeping is explicit.**  GC and reordering run only from
  :meth:`collect` / :meth:`sift` / :meth:`checkpoint`, never from inside
  an operation, so intermediate results of a running computation cannot
  be reclaimed.  Long-running clients (the symbolic CSSG builder)
  register their persistent functions as roots and call ``checkpoint()``
  at iteration boundaries; the manager then collects and/or sifts when
  the node count crosses the configured thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import BddError

FALSE = 0
TRUE = 1

#: Sentinel level for the terminal node: below every real variable.
_TERMINAL_LEVEL = 1 << 60

# Opcode tags of the unified operation cache.
_OP_ITE = 0
_OP_EXISTS = 1
_OP_AND_EXISTS = 2
_OP_RENAME = 3
_OP_RESTRICT = 4
_OP_FLIP = 5

#: Field width used to pack (ref, ref, ref/tag, op) into one int key.
#: 2**34 node references is far beyond anything a Python process holds.
_SHIFT = 34

#: Field width used to pack (var, lo, hi) into one unique-table key —
#: one bit wider than _SHIFT so a packed *reference* (node << 1 | c)
#: always fits.
_USHIFT = 35


@dataclass
class BddStats:
    """Counters the manager keeps about itself.

    ``peak_nodes`` is the high-water mark of allocated-and-not-freed
    nodes (terminal included); ``n_gc_passes`` / ``n_reorders`` count
    completed :meth:`~BddManager.collect` / :meth:`~BddManager.sift`
    runs; ``cache_hits`` / ``cache_lookups`` profile the shared
    operation cache.
    """

    peak_nodes: int = 0
    n_allocated: int = 0
    n_freed: int = 0
    n_gc_passes: int = 0
    n_reorders: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0

    def to_json_dict(self) -> Dict:
        return {
            "peak_nodes": self.peak_nodes,
            "n_allocated": self.n_allocated,
            "n_freed": self.n_freed,
            "n_gc_passes": self.n_gc_passes,
            "n_reorders": self.n_reorders,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
        }


class BddManager:
    """Hash-consed ROBDD store with complement edges, GC and reordering.

    ``auto_gc_nodes`` / ``auto_reorder_nodes`` arm :meth:`checkpoint`:
    when the live node count crosses a threshold at a checkpoint, the
    manager garbage-collects (and, for the reorder threshold, sifts)
    against the registered roots.  Both default to off, in which case
    the manager never reclaims or reorders behind a caller's back.
    """

    def __init__(
        self,
        n_vars: int = 0,
        auto_gc_nodes: Optional[int] = None,
        auto_reorder_nodes: Optional[int] = None,
    ):
        # Node 0 is the shared terminal (constant FALSE as a regular
        # reference; TRUE is its complement).
        self._var: List[int] = [-1]
        self._lo: List[int] = [FALSE]
        self._hi: List[int] = [FALSE]
        self._unique: Dict[int, int] = {}
        # Free slots form an index chain threaded through _lo:
        # _free_head -> _lo[_free_head] -> ... -> -1.  A slot is free
        # iff its _var entry is -1 (node 0, the terminal, aside).
        self._free_head: int = -1
        self._cache: Dict[int, int] = {}
        self._var2level: List[int] = []
        self._level2var: List[int] = []
        self._roots: Dict[int, int] = {}
        self._quant_tags: Dict[frozenset, int] = {}
        self._subst_tags: Dict[Tuple, int] = {}
        self.stats = BddStats(peak_nodes=1, n_allocated=1)
        # Watermark of counters already pushed to the metrics registry:
        # _publish_metrics emits deltas against this, at GC/sift
        # boundaries only, so the hot ITE path carries no metric code.
        self._published = BddStats()
        self.auto_gc_nodes = auto_gc_nodes
        self.auto_reorder_nodes = auto_reorder_nodes
        self._next_gc = auto_gc_nodes if auto_gc_nodes is not None else 0
        self._next_reorder = (
            auto_reorder_nodes if auto_reorder_nodes is not None else 0
        )
        # Allocated-and-not-freed node count (terminal included),
        # maintained incrementally — the GC/reorder trigger metric.
        self._n_live = 1
        # Auto-reorder backoff: each completed auto-sift doubles the
        # growth factor required before the next one (capped).
        self._reorder_growth = 2
        self._n_live_before_sift = 1
        # Sifting scaffolding, live only inside sift(): per-node ref
        # counts plus intrusive doubly-linked per-variable node chains.
        self._ref: List[int] = []
        self._ln_next: List[int] = []
        self._ln_prev: List[int] = []
        self._vhead: List[int] = []
        self.n_vars = 0
        for _ in range(n_vars):
            self.new_var()

    # -- node plumbing -----------------------------------------------------

    def new_var(self) -> int:
        """Declare the next variable (initial level = declaration order);
        returns the BDD for that variable."""
        index = self.n_vars
        self.n_vars += 1
        self._var2level.append(index)
        self._level2var.append(index)
        return self.var(index)

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        neg = hi & 1
        if neg:  # canonical form: then edge regular
            lo ^= 1
            hi ^= 1
        key = (var << _USHIFT | lo) << _USHIFT | hi
        node = self._unique.get(key)
        if node is None:
            node = self._free_head
            if node != -1:
                self._free_head = self._lo[node]
                self._var[node] = var
                self._lo[node] = lo
                self._hi[node] = hi
            else:
                node = len(self._var)
                self._var.append(var)
                self._lo.append(lo)
                self._hi.append(hi)
            self._unique[key] = node
            stats = self.stats
            stats.n_allocated += 1
            self._n_live += 1
            if self._n_live > stats.peak_nodes:
                stats.peak_nodes = self._n_live
        return (node << 1) | neg

    def var(self, i: int) -> int:
        """The BDD of variable ``i`` (creation index, order-independent)."""
        if not 0 <= i < self.n_vars:
            raise BddError(f"variable {i} not declared (n_vars={self.n_vars})")
        return self._mk(i, FALSE, TRUE)

    def nvar(self, i: int) -> int:
        """The BDD of ``~variable i``."""
        return self.var(i) ^ 1

    def cube(self, assignment: Dict[int, int]) -> int:
        """Conjunction of literals ``{variable: 0/1}``, built directly
        (one node per literal, no ITE traffic) — the encoding of a
        single concrete state."""
        for v in assignment:  # validate before the sort key dereferences
            if not 0 <= v < self.n_vars:
                raise BddError(f"variable {v} not declared (n_vars={self.n_vars})")
        f = TRUE
        for v in sorted(
            assignment, key=lambda v: self._var2level[v], reverse=True
        ):
            if assignment[v]:
                f = self._mk(v, FALSE, f)
            else:
                f = self._mk(v, f, FALSE)
        return f

    @property
    def n_nodes(self) -> int:
        """Allocated, not-yet-reclaimed nodes (terminal included).  After
        a :meth:`collect` this is exactly the live node count."""
        return self._n_live

    @property
    def _free(self) -> List[int]:
        """Free slots, materialized as a list for introspection and
        tests.  The real structure is the index chain threaded through
        ``_lo`` starting at ``_free_head`` — allocation pops the head in
        O(1) without this list ever existing."""
        out = []
        node = self._free_head
        while node != -1:
            out.append(node)
            node = self._lo[node]
        return out

    def set_order(self, order: Sequence[int]) -> None:
        """Install an initial variable order (``order[level] = var``).

        Only valid while the store holds nothing beyond single-variable
        nodes (whose shape is order-independent) — permuting a *fresh*
        manager is pure bookkeeping, whereas reordering live multi-level
        structure is :meth:`sift`'s job.
        """
        for node in range(1, len(self._var)):
            if self._var[node] >= 0 and (
                self._lo[node] > TRUE or self._hi[node] > TRUE
            ):
                raise BddError(
                    "set_order on a manager with multi-level nodes "
                    "(use sift() to reorder live nodes)"
                )
        if sorted(order) != list(range(self.n_vars)):
            raise BddError("order must be a permutation of all variables")
        self._level2var = list(order)
        for level, v in enumerate(order):
            self._var2level[v] = level

    def order(self) -> List[int]:
        """The current variable order: ``order()[level] = var``."""
        return list(self._level2var)

    def top_var(self, f: int) -> int:
        """Variable index at the top of ``f`` (terminals: a sentinel
        below every real level, for loop-termination convenience)."""
        if f <= TRUE:
            return _TERMINAL_LEVEL
        return self._var[f >> 1]

    def cofactors(self, f: int, var: int) -> Tuple[int, int]:
        """(f|var=0, f|var=1) for a variable at or above f's top level."""
        if f <= TRUE:
            return f, f
        node = f >> 1
        if self._var[node] == var:
            neg = f & 1
            return self._lo[node] ^ neg, self._hi[node] ^ neg
        return f, f

    # -- the unified ITE ---------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: f·g + ~f·h, the universal connective.

        One recursive function: terminal short-circuits, standard-triple
        normalization (regular selector, regular then branch — the
        complement-edge canonical form doubles as the cache canonical
        form), one packed-int cache lookup, Shannon expansion."""
        # Terminal and absorbed-operand short-circuits.
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if f == g:
            g = TRUE
        elif f == (g ^ 1):
            g = FALSE
        if f == h:
            h = FALSE
        elif f == (h ^ 1):
            h = TRUE
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return f ^ 1
        if g == h:
            return g
        # Symmetric connectives: the topmost operand becomes the
        # selector, maximizing cache sharing between equivalent calls.
        var_arr = self._var
        v2l = self._var2level
        fl = v2l[var_arr[f >> 1]]  # f is non-terminal here
        if g == TRUE:  # OR(f, h)
            if h > TRUE and v2l[var_arr[h >> 1]] < fl:
                f, h = h, f
        elif h == FALSE:  # AND(f, g)
            if g > TRUE and v2l[var_arr[g >> 1]] < fl:
                f, g = g, f
        elif h == TRUE:  # ~f + g == ite(~g, ~f, TRUE)
            if g > TRUE and v2l[var_arr[g >> 1]] < fl:
                f, g = g ^ 1, f ^ 1
        elif g == FALSE:  # ~f·h == ite(~h, FALSE, ~f)
            if h > TRUE and v2l[var_arr[h >> 1]] < fl:
                f, h = h ^ 1, f ^ 1
        elif h == (g ^ 1):  # XNOR/XOR are selector-symmetric
            if g > TRUE and v2l[var_arr[g >> 1]] < fl:
                f, g = g, f
                h = g ^ 1
        # Regular selector; complement pushed to the else branch / out.
        if f & 1:
            f ^= 1
            g, h = h, g
        neg = g & 1
        if neg:
            g ^= 1
            h ^= 1
        key = (((f << _SHIFT | g) << _SHIFT | h) << 3) | _OP_ITE
        stats = self.stats
        stats.cache_lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            stats.cache_hits += 1
            return cached ^ neg
        lo_arr, hi_arr = self._lo, self._hi
        fl = v2l[var_arr[f >> 1]]  # recompute: the swaps above moved f
        gl = v2l[var_arr[g >> 1]] if g > TRUE else _TERMINAL_LEVEL
        hl = v2l[var_arr[h >> 1]] if h > TRUE else _TERMINAL_LEVEL
        level = fl
        if gl < level:
            level = gl
        if hl < level:
            level = hl
        var = self._level2var[level]
        if fl == level:
            node = f >> 1
            f0, f1 = lo_arr[node], hi_arr[node]  # f is regular here
        else:
            f0 = f1 = f
        if gl == level:
            node = g >> 1
            g0, g1 = lo_arr[node], hi_arr[node]  # g is regular here
        else:
            g0 = g1 = g
        if hl == level:
            node = h >> 1
            hneg = h & 1
            h0, h1 = lo_arr[node] ^ hneg, hi_arr[node] ^ hneg
        else:
            h0 = h1 = h
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        # result = _mk(var, lo, hi), unique lookup inlined — only an
        # allocation miss pays the call.
        if lo == hi:
            result = lo
        else:
            c = hi & 1
            unode = self._unique.get(
                (var << _USHIFT | (lo ^ c)) << _USHIFT | (hi ^ c)
            )
            result = (
                self._mk(var, lo, hi)
                if unode is None
                else (unode << 1) | c
            )
        self._cache[key] = result
        return result ^ neg

    def apply_not(self, f: int) -> int:
        """Complement — one XOR with complement edges."""
        return f ^ 1

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, g ^ 1, g)

    def apply_iff(self, f: int, g: int) -> int:
        return self.ite(f, g, g ^ 1)

    def and_all(self, fs: Iterable[int]) -> int:
        result = TRUE
        for f in fs:
            result = self.ite(result, f, FALSE)
            if result == FALSE:
                break
        return result

    def or_all(self, fs: Iterable[int]) -> int:
        result = FALSE
        for f in fs:
            result = self.ite(result, TRUE, f)
            if result == TRUE:
                break
        return result

    # -- quantification ------------------------------------------------------

    def _quant_tag(self, variables: Sequence[int]) -> Tuple[frozenset, int]:
        vset = frozenset(variables)
        for v in vset:
            if not 0 <= v < self.n_vars:
                raise BddError(f"variable {v} not declared (n_vars={self.n_vars})")
        tag = self._quant_tags.get(vset)
        if tag is None:
            tag = len(self._quant_tags)
            self._quant_tags[vset] = tag
        return vset, tag

    def exists(self, f: int, variables: Sequence[int]) -> int:
        """Existential quantification over the given variables."""
        vset, tag = self._quant_tag(variables)
        if not vset:
            return f
        max_level = max(self._var2level[v] for v in vset)
        return self._exists(f, vset, tag, max_level)

    def _exists(self, f: int, vset: frozenset, tag: int, max_level: int) -> int:
        if f <= TRUE:
            return f
        node = f >> 1
        var = self._var[node]
        if self._var2level[var] > max_level:
            return f  # f no longer depends on any quantified variable
        key = (((f << _SHIFT) << _SHIFT | tag) << 3) | _OP_EXISTS
        self.stats.cache_lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        neg = f & 1
        lo = self._exists(self._lo[node] ^ neg, vset, tag, max_level)
        if var in vset and lo == TRUE:
            result = TRUE
        else:
            hi = self._exists(self._hi[node] ^ neg, vset, tag, max_level)
            if var in vset:
                result = self.ite(lo, TRUE, hi)
            else:
                result = self._mk(var, lo, hi)
        self._cache[key] = result
        return result

    def forall(self, f: int, variables: Sequence[int]) -> int:
        return self.exists(f ^ 1, variables) ^ 1

    def and_exists(self, f: int, g: int, variables: Sequence[int]) -> int:
        """The relational product  ∃ variables . f ∧ g  without building
        the full conjunction first — the workhorse of image computation."""
        vset, tag = self._quant_tag(variables)
        if not vset:
            return self.ite(f, g, FALSE)
        max_level = max(self._var2level[v] for v in vset)
        return self._and_exists(f, g, vset, tag, max_level)

    def _and_exists(
        self, f: int, g: int, vset: frozenset, tag: int, max_level: int
    ) -> int:
        if f == FALSE or g == FALSE or f == (g ^ 1):
            return FALSE
        if f == TRUE and g == TRUE:
            return TRUE
        if f == TRUE:
            return self._exists(g, vset, tag, max_level)
        if g == TRUE or f == g:
            return self._exists(f, vset, tag, max_level)
        if f > g:
            f, g = g, f  # the product is commutative; canonicalize the key
        var_arr = self._var
        v2l = self._var2level
        fl = v2l[var_arr[f >> 1]] if f > TRUE else _TERMINAL_LEVEL
        gl = v2l[var_arr[g >> 1]] if g > TRUE else _TERMINAL_LEVEL
        if fl > max_level and gl > max_level:
            return self.ite(f, g, FALSE)  # below every quantified level
        key = (((f << _SHIFT | g) << _SHIFT | tag) << 3) | _OP_AND_EXISTS
        self.stats.cache_lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        level = fl if fl < gl else gl
        var = self._level2var[level]
        lo_arr, hi_arr = self._lo, self._hi
        if fl == level:
            node = f >> 1
            fneg = f & 1
            f0, f1 = lo_arr[node] ^ fneg, hi_arr[node] ^ fneg
        else:
            f0 = f1 = f
        if gl == level:
            node = g >> 1
            gneg = g & 1
            g0, g1 = lo_arr[node] ^ gneg, hi_arr[node] ^ gneg
        else:
            g0 = g1 = g
        lo = self._and_exists(f0, g0, vset, tag, max_level)
        if var in vset:
            # Early termination: lo OR hi, and lo == TRUE short-circuits.
            if lo == TRUE:
                result = TRUE
            else:
                hi = self._and_exists(f1, g1, vset, tag, max_level)
                result = self.ite(lo, TRUE, hi)
        else:
            hi = self._and_exists(f1, g1, vset, tag, max_level)
            result = self._mk(var, lo, hi)
        self._cache[key] = result
        return result

    # -- substitution ----------------------------------------------------------

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables by an arbitrary injective map ``{old: new}``.

        Implemented as a simultaneous substitution pass: each mapped
        variable is replaced by its target via ``ite`` on the way back
        up, so the map need *not* preserve the variable order (swaps and
        inversions are fine).  Two error cases are rejected:

        * a non-injective map (two variables renamed to one target),
        * a capturing map — a target that is also an unmapped variable
          of ``f``'s support would silently merge two variables.
        """
        mapping = {a: b for a, b in mapping.items() if a != b}
        if not mapping:
            return f
        for v in list(mapping) + list(mapping.values()):
            if not 0 <= v < self.n_vars:
                raise BddError(f"variable {v} not declared (n_vars={self.n_vars})")
        targets = set(mapping.values())
        if len(targets) != len(mapping):
            raise BddError(f"rename mapping is not injective: {mapping}")
        # Capture — a target that is also an unmapped support variable —
        # is detected on the fly during the recursion (no support walk).
        capture_set = targets - set(mapping)
        items = tuple(sorted(mapping.items()))
        tag = self._subst_tags.get(items)
        if tag is None:
            tag = len(self._subst_tags)
            self._subst_tags[items] = tag
        # Deep enough to reach every mapped variable *and* every
        # potential capture (targets sit at their own levels).
        max_level = max(
            max(self._var2level[v] for v in mapping),
            max(self._var2level[v] for v in targets),
        )
        return self._rename(f, mapping, capture_set, tag, max_level)

    def _rename(
        self,
        f: int,
        mapping: Dict[int, int],
        capture_set: set,
        tag: int,
        max_level: int,
    ) -> int:
        if f <= TRUE:
            return f
        node = f >> 1
        var = self._var[node]
        if self._var2level[var] > max_level:
            return f  # below every renamed variable
        neg = f & 1
        key = (((f << _SHIFT) << _SHIFT | tag) << 3) | _OP_RENAME
        self.stats.cache_lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached ^ neg
        target = mapping.get(var)
        if target is None and var in capture_set:
            raise BddError(
                f"rename mapping captures unmapped support variable "
                f"{var}: {mapping}"
            )
        lo = self._rename(self._lo[node], mapping, capture_set, tag, max_level)
        hi = self._rename(self._hi[node], mapping, capture_set, tag, max_level)
        if target is None:
            # An unmapped variable may no longer sit above its rebuilt
            # children (a deeper variable can be renamed to a level
            # above this one): _mk only when the order still holds,
            # full ITE re-insertion otherwise.
            vl = self._var2level[var]
            if (
                lo <= TRUE or self._var2level[self._var[lo >> 1]] > vl
            ) and (hi <= TRUE or self._var2level[self._var[hi >> 1]] > vl):
                result = self._mk(var, lo, hi)
            else:
                result = self.ite(self.var(var), hi, lo)
        else:
            result = self.ite(self.var(target), hi, lo)
        self._cache[key] = result
        return result ^ neg

    def restrict(self, f: int, assignments: Dict[int, int]) -> int:
        """Cofactor f by ``{variable: 0/1}``."""
        if f <= TRUE or not assignments:
            return f
        items = tuple(sorted(assignments.items()))
        tag = self._subst_tags.get(items)
        if tag is None:
            tag = len(self._subst_tags)
            self._subst_tags[items] = tag
        max_level = max(self._var2level[v] for v in assignments)
        return self._restrict(f, assignments, tag, max_level)

    def _restrict(
        self, f: int, assignments: Dict[int, int], tag: int, max_level: int
    ) -> int:
        if f <= TRUE:
            return f
        node = f >> 1
        var = self._var[node]
        if self._var2level[var] > max_level:
            return f
        neg = f & 1
        key = (((f << _SHIFT) << _SHIFT | tag) << 3) | _OP_RESTRICT
        self.stats.cache_lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached ^ neg
        fixed = assignments.get(var)
        if fixed is not None:
            branch = self._hi[node] if fixed else self._lo[node]
            result = self._restrict(branch, assignments, tag, max_level)
        else:
            lo = self._restrict(self._lo[node], assignments, tag, max_level)
            hi = self._restrict(self._hi[node], assignments, tag, max_level)
            result = self._mk(var, lo, hi)
        self._cache[key] = result
        return result ^ neg

    def flip_var(self, f: int, v: int) -> int:
        """Substitute ``v <- ~v``: swap the cofactors at variable ``v``.

        This is the fully-quantified image of a one-signal toggle — the
        per-gate transition step of the partitioned symbolic traversal —
        at the cost of one linear pass over the nodes above ``v``.
        """
        if not 0 <= v < self.n_vars:
            raise BddError(f"variable {v} not declared (n_vars={self.n_vars})")
        return self._flip(f, v, self._var2level[v])

    def _flip(self, f: int, v: int, v_level: int) -> int:
        if f <= TRUE:
            return f
        node = f >> 1
        var = self._var[node]
        if self._var2level[var] > v_level:
            return f  # f does not depend on v
        neg = f & 1
        if var == v:
            return self._mk(v, self._hi[node], self._lo[node]) ^ neg
        key = (((f << _SHIFT) << _SHIFT | v) << 3) | _OP_FLIP
        self.stats.cache_lookups += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached ^ neg
        lo = self._flip(self._lo[node], v, v_level)
        hi = self._flip(self._hi[node], v, v_level)
        result = self._mk(var, lo, hi)
        self._cache[key] = result
        return result ^ neg

    # -- model queries -----------------------------------------------------------

    def eval(self, f: int, assignment: Sequence[int]) -> int:
        """Evaluate under a full assignment (index = variable index)."""
        neg = f & 1
        while f > TRUE:
            node = f >> 1
            f = self._hi[node] if assignment[self._var[node]] else self._lo[node]
            neg ^= f & 1
        return neg  # f is terminal; neg accumulated every complement edge

    def sat_count(self, f: int, over: Optional[Sequence[int]] = None) -> int:
        """Number of satisfying assignments over the given variable set
        (default: all declared variables)."""
        variables = list(over) if over is not None else list(range(self.n_vars))
        variables.sort(key=lambda v: self._var2level[v])
        vpos = {v: i for i, v in enumerate(variables)}
        n = len(variables)
        cache: Dict[int, int] = {}

        def count(ref: int, depth: int) -> int:
            # depth = index into `variables` the caller has consumed
            if ref == FALSE:
                return 0
            if ref == TRUE:
                return 1 << (n - depth)
            node = ref >> 1
            var = self._var[node]
            pos = vpos.get(var)
            if pos is None:
                raise BddError("sat_count: function depends on excluded variable")
            below = cache.get(node)
            if below is None:
                below = count(self._lo[node], pos + 1) + count(
                    self._hi[node], pos + 1
                )
                cache[node] = below
            if ref & 1:
                below = (1 << (n - pos)) - below
            return below << (pos - depth)

        return count(f, 0)

    def sat_iter(self, f: int, over: Optional[Sequence[int]] = None) -> Iterator[Dict[int, int]]:
        """Yield satisfying assignments as ``{variable: value}`` dicts,
        enumerating excluded-variable freedom over ``over``."""
        variables = list(over) if over is not None else list(range(self.n_vars))
        variables.sort(key=lambda v: self._var2level[v])

        def rec(ref: int, idx: int, partial: Dict[int, int]):
            if ref == FALSE:
                return
            if idx == len(variables):
                if ref == TRUE:
                    yield dict(partial)
                    return
                # Mirror sat_count: an error, not a silent empty yield.
                raise BddError("sat_iter: function depends on excluded variable")
            var = variables[idx]
            if ref == TRUE:
                top_level = _TERMINAL_LEVEL
            else:
                top_level = self._var2level[self._var[ref >> 1]]
            var_level = self._var2level[var]
            if top_level == var_level:
                node = ref >> 1
                neg = ref & 1
                children = (self._lo[node] ^ neg, self._hi[node] ^ neg)
                for value in (0, 1):
                    partial[var] = value
                    yield from rec(children[value], idx + 1, partial)
                del partial[var]
            elif top_level > var_level:
                for value in (0, 1):
                    partial[var] = value
                    yield from rec(ref, idx + 1, partial)
                del partial[var]
            else:
                raise BddError("sat_iter: node above enumeration set")

        yield from rec(f, 0, {})

    def support(self, f: int) -> List[int]:
        """Variable indices f depends on."""
        seen = set()
        out = set()
        stack = [f >> 1]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            out.add(self._var[node])
            stack.append(self._lo[node] >> 1)
            stack.append(self._hi[node] >> 1)
        return sorted(out)

    def size(self, f: int) -> int:
        """Number of distinct nodes in f (terminal excluded)."""
        return self.shared_size([f])

    def shared_size(self, roots: Sequence[int]) -> int:
        """Distinct internal nodes shared across ``roots``."""
        seen: Set[int] = set()
        stack = [r >> 1 for r in roots]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            stack.append(self._lo[node] >> 1)
            stack.append(self._hi[node] >> 1)
        return len(seen)

    # -- roots and garbage collection -------------------------------------

    def add_root(self, ref: int) -> int:
        """Register ``ref`` as a GC/reorder root; returns ``ref``.
        Balanced by :meth:`remove_root` (a ref may be registered more
        than once; it stays a root until every registration is removed)."""
        self._roots[ref] = self._roots.get(ref, 0) + 1
        return ref

    def remove_root(self, ref: int) -> None:
        count = self._roots.get(ref)
        if count is None:
            raise BddError(f"ref {ref} is not a registered root")
        if count == 1:
            del self._roots[ref]
        else:
            self._roots[ref] = count - 1

    def roots(self) -> List[int]:
        return list(self._roots)

    def publish_metrics(self) -> None:
        """Flush kernel counter deltas to the ambient metrics registry.

        Happens automatically at GC/sift boundaries; call it explicitly
        at the end of a workload whose circuit is small enough never to
        trigger housekeeping (the symbolic CSSG builder does)."""
        self._publish_metrics()

    def _publish_metrics(self) -> None:
        """Push kernel counters into the ambient metrics registry as
        deltas since the last publication.  Called from :meth:`collect`,
        :meth:`sift`, and :meth:`publish_metrics` — housekeeping and
        end-of-workload boundaries — never the per-operation paths."""
        from repro.obs import metrics as obs

        if not obs.enabled():
            return
        reg = obs.get_registry()
        s, pub = self.stats, self._published
        for attr, name, help_text in (
            ("cache_hits", "repro_bdd_cache_hits_total",
             "ITE operation-cache hits."),
            ("cache_lookups", "repro_bdd_cache_lookups_total",
             "ITE operation-cache lookups."),
            ("n_gc_passes", "repro_bdd_gc_passes_total",
             "Completed mark-and-sweep passes."),
            ("n_freed", "repro_bdd_nodes_freed_total",
             "BDD nodes reclaimed by GC."),
            ("n_reorders", "repro_bdd_reorders_total",
             "Completed sifting passes."),
        ):
            delta = getattr(s, attr) - getattr(pub, attr)
            if delta:
                reg.counter(name, help_text).inc(delta)
                setattr(pub, attr, getattr(s, attr))

    def collect(self, roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep: free every node not reachable from the
        registered roots plus ``roots``; returns the number freed.

        The operation cache is invalidated (freed ids may be re-used by
        later allocations), but surviving node ids do not move — any
        reference whose function was marked stays valid.
        """
        from repro.obs.trace import get_tracer

        with get_tracer().span("bdd.gc", nodes=self.n_nodes):
            freed = self._collect(roots)
        self._publish_metrics()
        return freed

    def _collect(self, roots: Iterable[int] = ()) -> int:
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        marks = bytearray(len(var_arr))
        marks[0] = 1
        stack = [r >> 1 for r in self._roots]
        stack.extend(r >> 1 for r in roots)
        while stack:
            node = stack.pop()
            if marks[node]:
                continue
            marks[node] = 1
            stack.append(lo_arr[node] >> 1)
            stack.append(hi_arr[node] >> 1)
        unique = self._unique
        free_head = self._free_head
        freed = 0
        for node in range(1, len(var_arr)):
            v = var_arr[node]
            if v < 0 or marks[node]:
                continue  # already on the free chain, or live
            del unique[(v << _USHIFT | lo_arr[node]) << _USHIFT | hi_arr[node]]
            var_arr[node] = -1
            lo_arr[node] = free_head
            free_head = node
            freed += 1
        self._free_head = free_head
        self._cache.clear()
        self._n_live -= freed
        self.stats.n_freed += freed
        self.stats.n_gc_passes += 1
        return freed

    def checkpoint(self) -> None:
        """Housekeeping safe point for long computations.

        If the configured thresholds are crossed, garbage-collect and/or
        sift against the registered roots.  Callers must register (or
        have already registered) every reference they intend to use
        afterwards — anything unreachable from the roots is reclaimed.
        """
        n = self.n_nodes
        if self.auto_reorder_nodes is not None and n >= self._next_reorder:
            after = self.sift()
            # Convergence: sifting pays off while the order is bad; once
            # a pass barely shrinks the live set the order has settled
            # and further auto-sifts are pure overhead — disarm.  (The
            # baseline is the live count after the pre-sift collect, so
            # garbage does not masquerade as sifting gains.)
            before = self._n_live_before_sift
            if after >= before * 0.9:
                self._next_reorder = 1 << 62
                return
            # Geometric backoff: a traversal whose live size plateaus
            # just above the threshold would otherwise be re-sifted at
            # every checkpoint for no gain — each completed auto-sift
            # doubles the growth factor required to arm the next one.
            growth = self._reorder_growth
            self._next_reorder = max(
                self.auto_reorder_nodes, growth * self.n_nodes
            )
            if growth < 16:
                self._reorder_growth = growth * 2
            return
        if self.auto_gc_nodes is not None and n >= self._next_gc:
            self.collect()
            self._next_gc = max(self.auto_gc_nodes, 2 * self.n_nodes)

    # -- in-place sifting --------------------------------------------------

    def sift(
        self,
        roots: Iterable[int] = (),
        max_growth: float = 1.2,
    ) -> int:
        """Rudell sifting, in place: returns the live node count after.

        Each variable in turn (largest level population first) is moved
        through every level by adjacent swaps and left at its best
        position.  Node ids are preserved — live references denote the
        same functions afterwards.  Starts with a :meth:`collect`
        against the registered roots plus ``roots``, so the size metric
        counts live nodes only.  ``max_growth`` bounds how far past the
        best-seen size a variable may be dragged before the walk in
        that direction is abandoned (1.2, the classic sifting bound, keeps
        runaway walks from dominating reorder time).
        """
        from repro.obs.trace import get_tracer

        with get_tracer().span("bdd.sift", nodes=self.n_nodes):
            after = self._sift(roots, max_growth)
        self._publish_metrics()
        return after

    def _sift(
        self,
        roots: Iterable[int] = (),
        max_growth: float = 1.2,
    ) -> int:
        roots = list(roots)
        self.collect(roots)
        # Post-collect live count: checkpoint()'s convergence test
        # compares against this so reclaimed garbage does not
        # masquerade as a sifting gain.
        self._n_live_before_sift = self._n_live
        n_levels = self.n_vars
        if n_levels < 2:
            return self.n_nodes
        # Scaffolding, flat arrays only: per-node reference counts
        # (internal edges + one per distinct root) and per-variable node
        # populations as intrusive doubly-linked chains.
        cap = len(self._var)
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        ref = self._ref = [0] * cap
        ln_next = self._ln_next = [-1] * cap
        ln_prev = self._ln_prev = [-1] * cap
        vhead = self._vhead = [-1] * n_levels
        pop = [0] * n_levels
        for node in range(1, cap):
            v = var_arr[node]
            if v < 0:
                continue  # free slot
            head = vhead[v]
            ln_next[node] = head
            if head != -1:
                ln_prev[head] = node
            vhead[v] = node
            pop[v] += 1
            ref[lo_arr[node] >> 1] += 1
            ref[hi_arr[node] >> 1] += 1
        for r in self._roots:
            ref[r >> 1] += 1
        for r in roots:
            ref[r >> 1] += 1
        by_population = sorted(range(n_levels), key=lambda v: (-pop[v], v))
        for v in by_population:
            if vhead[v] == -1:
                # No nodes: every swap would be pure bookkeeping and the
                # walk would settle back at the start level — skip.
                continue
            self._sift_one(v, max_growth)
        self._ref = []
        self._ln_next = []
        self._ln_prev = []
        self._vhead = []
        self.stats.n_reorders += 1
        return self.n_nodes

    def _sift_one(self, v: int, max_growth: float) -> None:
        n_levels = self.n_vars
        start = self._var2level[v]
        best_size = self._n_live
        best_level = start
        limit = int(best_size * max_growth) + 2
        level = start
        # Walk to the nearer boundary first: those levels are traversed
        # twice (out and back), so keeping that leg the short one
        # roughly halves the swap count for variables near an end.
        down_first = (n_levels - 1 - start) <= start
        for leg in (0, 1):
            if (leg == 0) == down_first:
                while level < n_levels - 1:
                    self._swap_levels(level)
                    level += 1
                    if self._n_live < best_size:
                        best_size = self._n_live
                        best_level = level
                        limit = int(best_size * max_growth) + 2
                    elif self._n_live > limit:
                        break
            else:
                while level > 0:
                    self._swap_levels(level - 1)
                    level -= 1
                    if self._n_live < best_size:
                        best_size = self._n_live
                        best_level = level
                        limit = int(best_size * max_growth) + 2
                    elif self._n_live > limit:
                        break
        # ...and settle at the best position seen.
        while level < best_level:
            self._swap_levels(level)
            level += 1
        while level > best_level:
            self._swap_levels(level - 1)
            level -= 1

    def _swap_levels(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place."""
        x = self._level2var[level]
        y = self._level2var[level + 1]
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        ln_next, ln_prev, vhead = self._ln_next, self._ln_prev, self._vhead
        unique = self._unique
        ref = self._ref
        n = vhead[x]
        while n != -1:
            # Capture the successor first: _mk_counted prepends fresh
            # x-nodes at the chain head (behind the walk) and _drop_ref
            # only unlinks nodes strictly below this level.
            nxt = ln_next[n]
            lo, hi = lo_arr[n], hi_arr[n]
            lo_node, hi_node = lo >> 1, hi >> 1
            if var_arr[lo_node] != y and var_arr[hi_node] != y:
                n = nxt
                continue  # independent of y: the node just changes level
            if var_arr[lo_node] == y:
                e_neg = lo & 1
                e0, e1 = lo_arr[lo_node] ^ e_neg, hi_arr[lo_node] ^ e_neg
            else:
                e0 = e1 = lo
            if var_arr[hi_node] == y:
                # hi is a regular edge (canonical form), so no ^ neg.
                t0, t1 = lo_arr[hi_node], hi_arr[hi_node]
            else:
                t0 = t1 = hi
            # new_lo = mk(x, e0, t0), unique lookup inlined; only an
            # allocation miss leaves this loop.
            if e0 == t0:
                new_lo = e0
            else:
                c = t0 & 1
                key = (x << _USHIFT | (e0 ^ c)) << _USHIFT | (t0 ^ c)
                node = unique.get(key)
                if node is None:
                    node = self._alloc_counted(x, e0 ^ c, t0 ^ c, key)
                new_lo = (node << 1) | c
            # new_hi = mk(x, e1, t1); t1 is regular (cofactor of a
            # regular then edge), so new_hi is regular and the
            # rewritten node needs no complement.
            if e1 == t1:
                new_hi = e1
            else:
                key = (x << _USHIFT | e1) << _USHIFT | t1
                node = unique.get(key)
                if node is None:
                    node = self._alloc_counted(x, e1, t1, key)
                new_hi = node << 1
            del unique[(x << _USHIFT | lo) << _USHIFT | hi]
            var_arr[n] = y
            lo_arr[n] = new_lo
            hi_arr[n] = new_hi
            unique[(y << _USHIFT | new_lo) << _USHIFT | new_hi] = n
            # Move n from x's level chain to y's.
            prv = ln_prev[n]
            if prv != -1:
                ln_next[prv] = nxt
            else:
                vhead[x] = nxt
            if nxt != -1:
                ln_prev[nxt] = prv
            head = vhead[y]
            ln_prev[n] = -1
            ln_next[n] = head
            if head != -1:
                ln_prev[head] = n
            vhead[y] = n
            ref[new_lo >> 1] += 1
            ref[new_hi >> 1] += 1
            # Drop the old child references (reclaim cascade outlined).
            r = ref[lo_node] - 1
            ref[lo_node] = r
            if r <= 0 and lo_node:
                self._reclaim(lo_node)
            r = ref[hi_node] - 1
            ref[hi_node] = r
            if r <= 0 and hi_node:
                self._reclaim(hi_node)
            n = nxt
        self._level2var[level], self._level2var[level + 1] = y, x
        self._var2level[x] = level + 1
        self._var2level[y] = level

    def _alloc_counted(self, var: int, lo: int, hi: int, key: int) -> int:
        """Allocate one canonical-form node during sifting — the slow
        path of the unique lookups inlined in :meth:`_swap_levels`.
        The node joins its variable's level chain (at the head, behind
        any walk in progress) with a zero reference count — the caller
        links it — and counts one reference on each child."""
        node = self._free_head
        if node != -1:
            self._free_head = self._lo[node]
            self._var[node] = var
            self._lo[node] = lo
            self._hi[node] = hi
        else:
            node = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            # Fresh slot: grow the sifting scaffolding to match.
            self._ref.append(0)
            self._ln_next.append(-1)
            self._ln_prev.append(-1)
        self._unique[key] = node
        stats = self.stats
        stats.n_allocated += 1
        self._n_live += 1
        if self._n_live > stats.peak_nodes:
            stats.peak_nodes = self._n_live
        ref = self._ref
        ref[node] = 0
        head = self._vhead[var]
        self._ln_prev[node] = -1
        self._ln_next[node] = head
        if head != -1:
            self._ln_prev[head] = node
        self._vhead[var] = node
        ref[lo >> 1] += 1
        ref[hi >> 1] += 1
        return node

    def _reclaim(self, node: int) -> None:
        """Free a node whose sifting reference count reached zero,
        cascading to its children with an explicit stack (no recursion —
        cofactor chains can run deep)."""
        ref = self._ref
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        ln_next, ln_prev, vhead = self._ln_next, self._ln_prev, self._vhead
        unique = self._unique
        stack = [node]
        freed = 0
        while stack:
            node = stack.pop()
            v = var_arr[node]
            del unique[(v << _USHIFT | lo_arr[node]) << _USHIFT | hi_arr[node]]
            lo_node, hi_node = lo_arr[node] >> 1, hi_arr[node] >> 1
            # Unlink from its level chain, push onto the free chain.
            prv, nxt = ln_prev[node], ln_next[node]
            if prv != -1:
                ln_next[prv] = nxt
            else:
                vhead[v] = nxt
            if nxt != -1:
                ln_prev[nxt] = prv
            var_arr[node] = -1
            lo_arr[node] = self._free_head
            self._free_head = node
            freed += 1
            if lo_node != 0:
                ref[lo_node] -= 1
                if ref[lo_node] <= 0:
                    stack.append(lo_node)
            if hi_node != 0:
                ref[hi_node] -= 1
                if ref[hi_node] <= 0:
                    stack.append(hi_node)
        self._n_live -= freed
        self.stats.n_freed += freed
