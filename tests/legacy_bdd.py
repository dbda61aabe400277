"""The seed ROBDD manager, kept with the tests as a differential oracle.

This is the original "clarity-first" engine: no complement edges, no
garbage collection, no reordering, tuple-keyed per-operation caches, and
:meth:`LegacyBddManager.rename` restricted to order-preserving maps.
The production kernel lives in :mod:`repro.bdd.manager`;
``tests/test_symbolic_diff.py`` uses this manager as an independent
implementation to cross-check its results.

Design notes (unchanged from the seed):

* Nodes live in parallel arrays (``var``, ``lo``, ``hi``) addressed by
  integer handles; 0 and 1 are the terminal handles.  A unique table
  guarantees canonicity, so equality of functions is handle equality.
* Variables are identified by their *level* (creation order = variable
  order).
* All binary operations funnel through a memoized Shannon-expansion
  ``apply``; quantification and the fused and-exists relational product
  have their own caches, keyed per call by operation tag.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BddError

FALSE = 0
TRUE = 1


class LegacyBddManager:
    """Hash-consed ROBDD store plus the usual operations (seed version)."""

    def __init__(self, n_vars: int = 0):
        # Terminals occupy handles 0 and 1; their var is a sentinel level
        # *below* every real variable so cofactor recursion stops cleanly.
        self._var: List[int] = [1 << 60, 1 << 60]
        self._lo: List[int] = [0, 1]
        self._hi: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple, int] = {}
        self.n_vars = 0
        for _ in range(n_vars):
            self.new_var()

    # -- node plumbing -----------------------------------------------------

    def new_var(self) -> int:
        """Declare the next variable (level = declaration order); returns
        the BDD for that variable."""
        self.n_vars += 1
        return self.var(self.n_vars - 1)

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def var(self, i: int) -> int:
        """The BDD of variable ``i``."""
        if not 0 <= i < self.n_vars:
            raise BddError(f"variable {i} not declared (n_vars={self.n_vars})")
        return self._mk(i, FALSE, TRUE)

    def nvar(self, i: int) -> int:
        """The BDD of ``~variable i``."""
        return self._mk(i, TRUE, FALSE)

    @property
    def n_nodes(self) -> int:
        return len(self._var)

    def top_var(self, f: int) -> int:
        return self._var[f]

    def cofactors(self, f: int, var: int) -> Tuple[int, int]:
        """(f|var=0, f|var=1) for a variable at or above f's top level."""
        if self._var[f] == var:
            return self._lo[f], self._hi[f]
        return f, f

    # -- core operations -----------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: f·g + ~f·h, the universal connective."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = ("ite", f, g, h)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        var = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self.cofactors(f, var)
        g0, g1 = self.cofactors(g, var)
        h0, h1 = self.cofactors(h, var)
        result = self._mk(var, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._apply_cache[key] = result
        return result

    def apply_not(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_iff(self, f: int, g: int) -> int:
        return self.ite(f, g, self.apply_not(g))

    def and_all(self, fs: Iterable[int]) -> int:
        result = TRUE
        for f in fs:
            result = self.apply_and(result, f)
            if result == FALSE:
                break
        return result

    def or_all(self, fs: Iterable[int]) -> int:
        result = FALSE
        for f in fs:
            result = self.apply_or(result, f)
            if result == TRUE:
                break
        return result

    # -- quantification ------------------------------------------------------

    def exists(self, f: int, variables: Sequence[int]) -> int:
        """Existential quantification over the given variable levels."""
        vset = frozenset(variables)
        return self._exists(f, vset)

    def _exists(self, f: int, vset: frozenset) -> int:
        if f <= TRUE:
            return f
        var = self._var[f]
        if all(v < var for v in vset):
            return f  # f no longer depends on any quantified variable
        key = ("ex", f, vset)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        lo = self._exists(self._lo[f], vset)
        hi = self._exists(self._hi[f], vset)
        if var in vset:
            result = self.apply_or(lo, hi)
        else:
            result = self._mk(var, lo, hi)
        self._apply_cache[key] = result
        return result

    def forall(self, f: int, variables: Sequence[int]) -> int:
        return self.apply_not(self.exists(self.apply_not(f), variables))

    def and_exists(self, f: int, g: int, variables: Sequence[int]) -> int:
        """The relational product  ∃ variables . f ∧ g  without building
        the full conjunction first — the workhorse of image computation."""
        vset = frozenset(variables)
        return self._and_exists(f, g, vset)

    def _and_exists(self, f: int, g: int, vset: frozenset) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE and g == TRUE:
            return TRUE
        if f == TRUE:
            return self._exists(g, vset)
        if g == TRUE:
            return self._exists(f, vset)
        key = ("ae", f, g, vset)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        var = min(self._var[f], self._var[g])
        f0, f1 = self.cofactors(f, var)
        g0, g1 = self.cofactors(g, var)
        lo = self._and_exists(f0, g0, vset)
        if var in vset:
            # Early termination: lo OR hi, and lo == TRUE short-circuits.
            if lo == TRUE:
                result = TRUE
            else:
                hi = self._and_exists(f1, g1, vset)
                result = self.apply_or(lo, hi)
        else:
            hi = self._and_exists(f1, g1, vset)
            result = self._mk(var, lo, hi)
        self._apply_cache[key] = result
        return result

    # -- substitution ----------------------------------------------------------

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables by level map; the map must preserve relative
        order (e.g. next-state level 2i+1 -> current level 2i)."""
        items = sorted(mapping.items())
        for (a1, b1), (a2, b2) in zip(items, items[1:]):
            if not (a1 < a2 and b1 < b2):
                raise BddError("rename mapping must be order-preserving")
        key = ("rn", f, tuple(items))
        return self._rename(f, dict(mapping), key[2])

    def _rename(self, f: int, mapping: Dict[int, int], tag) -> int:
        if f <= TRUE:
            return f
        key = ("rn", f, tag)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        var = self._var[f]
        nvar = mapping.get(var, var)
        result = self._mk(
            nvar,
            self._rename(self._lo[f], mapping, tag),
            self._rename(self._hi[f], mapping, tag),
        )
        self._apply_cache[key] = result
        return result

    def restrict(self, f: int, assignments: Dict[int, int]) -> int:
        """Cofactor f by {variable level: 0/1}."""
        if f <= TRUE or not assignments:
            return f
        key = ("rs", f, tuple(sorted(assignments.items())))
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        var = self._var[f]
        fixed = assignments.get(var)
        if fixed is not None:
            branch = self._hi[f] if fixed else self._lo[f]
            result = self.restrict(branch, assignments)
        else:
            lo = self.restrict(self._lo[f], assignments)
            hi = self.restrict(self._hi[f], assignments)
            result = self._mk(var, lo, hi)
        self._apply_cache[key] = result
        return result

    # -- model queries -----------------------------------------------------------

    def eval(self, f: int, assignment: Sequence[int]) -> int:
        """Evaluate under a full assignment (index = variable level)."""
        while f > TRUE:
            f = self._hi[f] if assignment[self._var[f]] else self._lo[f]
        return f

    def sat_count(self, f: int, over: Optional[Sequence[int]] = None) -> int:
        """Number of satisfying assignments over the given variable set
        (default: all declared variables)."""
        variables = sorted(over) if over is not None else list(range(self.n_vars))
        vpos = {v: i for i, v in enumerate(variables)}

        cache: Dict[int, int] = {}

        def count(node: int, depth: int) -> int:
            # depth = index into `variables` we are currently at
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1 << (len(variables) - depth)
            var = self._var[node]
            if var not in vpos:
                raise BddError("sat_count: function depends on excluded variable")
            key = node
            cached = cache.get(key)
            if cached is None:
                below = count(self._lo[node], vpos[var] + 1) + count(
                    self._hi[node], vpos[var] + 1
                )
                cache[key] = below
            else:
                below = cached
            return below << (vpos[var] - depth)

        return count(f, 0)

    def sat_iter(self, f: int, over: Optional[Sequence[int]] = None) -> Iterator[Dict[int, int]]:
        """Yield satisfying assignments as {variable level: value} dicts,
        enumerating excluded-variable freedom over ``over``."""
        variables = sorted(over) if over is not None else list(range(self.n_vars))

        def rec(node: int, idx: int, partial: Dict[int, int]):
            if node == FALSE:
                return
            if idx == len(variables):
                if node == TRUE:
                    yield dict(partial)
                return
            var = variables[idx]
            top = self._var[node]
            if top == var:
                for value, child in ((0, self._lo[node]), (1, self._hi[node])):
                    partial[var] = value
                    yield from rec(child, idx + 1, partial)
                del partial[var]
            elif top > var:
                for value in (0, 1):
                    partial[var] = value
                    yield from rec(node, idx + 1, partial)
                del partial[var]
            else:
                raise BddError("sat_iter: node above enumeration set")

        yield from rec(f, 0, {})

    def support(self, f: int) -> List[int]:
        """Variable levels f depends on."""
        seen = set()
        out = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            out.add(self._var[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return sorted(out)

    def size(self, f: int) -> int:
        """Number of distinct nodes in f (terminals excluded)."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return len(seen)
