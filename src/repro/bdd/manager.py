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
  index forever; a ``var ↔ level`` permutation maps them to levels, and
  all recursion compares *levels*.  The order is fixed once, by
  :meth:`set_order` on a fresh manager (the symbolic CSSG builder
  installs :func:`repro.bdd.reorder.static_order`), and never changes
  under live references.
* **Arena tables.**  The node store is three parallel int arrays
  (``_var`` / ``_lo`` / ``_hi``) indexed by node id.  The unique table
  and the operation cache are keyed by one packed integer each (no
  tuple allocation or tuple hashing on any hot path), backed by the
  runtime's open-addressed hash table.
* **Append-only.**  Nodes are hash-consed and never reclaimed: node ids
  never move and cache entries never go stale, so no operation needs
  roots, safe points or cache invalidation.  Each symbolic build owns
  its manager, so the store is returned whole when the build ends.
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

    ``n_allocated`` counts nodes ever made (terminal included); nothing
    is freed, so it is also the store's size and its peak.
    ``cache_hits`` / ``cache_lookups`` profile the shared operation
    cache.
    """

    n_allocated: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0


class BddManager:
    """Hash-consed, append-only ROBDD store with complement edges."""

    def __init__(self, n_vars: int = 0):
        # Node 0 is the shared terminal (constant FALSE as a regular
        # reference; TRUE is its complement).
        self._var: List[int] = [-1]
        self._lo: List[int] = [FALSE]
        self._hi: List[int] = [FALSE]
        self._unique: Dict[int, int] = {}
        self._cache: Dict[int, int] = {}
        self._var2level: List[int] = []
        self._level2var: List[int] = []
        self._quant_tags: Dict[frozenset, int] = {}
        self._subst_tags: Dict[Tuple, int] = {}
        self.stats = BddStats(n_allocated=1)
        # Watermark of counters already pushed to the metrics registry:
        # publish_metrics emits deltas against this, at the end of a
        # build only, so the hot ITE path carries no metric code.
        self._published = BddStats()
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
            node = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
            self.stats.n_allocated += 1
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

    def set_order(self, order: Sequence[int]) -> None:
        """Install the variable order (``order[level] = var``).

        Only valid while the store holds nothing beyond single-variable
        nodes (whose shape is order-independent): permuting a *fresh*
        manager is pure bookkeeping, and live multi-level structure is
        never reordered.
        """
        for node in range(1, len(self._var)):
            if self._lo[node] > TRUE or self._hi[node] > TRUE:
                raise BddError(
                    "set_order on a manager with multi-level nodes "
                    "(the order must be set before any BDD is built)"
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

    # -- metrics ---------------------------------------------------------------

    def publish_metrics(self) -> None:
        """Push the cache counters into the ambient metrics registry as
        deltas since the last publication.  Call it at the end of a
        workload (the symbolic CSSG builder does), never on the
        per-operation paths."""
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
        ):
            delta = getattr(s, attr) - getattr(pub, attr)
            if delta:
                reg.counter(name, help_text).inc(delta)
                setattr(pub, attr, getattr(s, attr))
