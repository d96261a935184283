"""The generic pattern domain Pat(R) (paper §5).

An abstract substitution over n variables consists of

* the **same-value component**: ``sv`` maps each variable to a subterm
  index — two variables mapping to the same index surely have the same
  value;
* the **pattern component**: a subterm either has a *pattern*
  ``f(i1, ..., ik)`` (its principal functor is surely ``f`` and its
  arguments are the given subterms) or is a *leaf*;
* the **R-component**: each leaf carries a value of the leaf domain
  (a type grammar for ``Pat(Type)``).

:class:`AbstractSubst` is the frozen, canonically-numbered form used
for tabulation; :class:`SubstBuilder` is the union-find engine that
executes abstract unification (goals ``Xi = Xj`` and
``Xi = f(Xj...)``).  Unification is intersection on the leaf values —
sound because type-graph denotations are instantiation-closed (§6.9
"our type graphs are downward-closed").

Upper bound and widening keep the structure and sharing *common to
both* operands and collapse everything else into leaves, combining the
collapsed subtrees with the leaf domain's join/widen — exactly the
Pat/Type interaction described in §5: indices are removed from Pat(R)
and replaced by an equivalent type graph.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..typegraph import arena, opcache
from .leaf import LeafDomain, TrivialLeafDomain, TypeLeafDomain

__all__ = [
    "PatNode", "AbstractSubst", "SubstBuilder", "PAT_BOTTOM", "PatBottom",
    "intern_subst", "subst_top", "subst_join", "subst_widen", "subst_le",
    "subst_eq", "value_of", "display_subst", "make_builder",
]


#: The C leaf kinds (``LEAF_*`` in ``typegraph/_arenakernels.c``):
#: whose primitives the native builder and walks mirror.
_LEAF_TYPE = 0
_LEAF_TRIVIAL = 1


def _native_for(domain: LeafDomain):
    """``(native-tier module, C leaf kind)`` when the native tier may
    handle ``domain``, else None.

    The Type kind covers every :class:`TypeLeafDomain`, including
    DepthBoundLeafDomain, which inherits the meet/split/le primitives
    the C walks mirror and keeps its own join/widen as Python
    callbacks.  The trivial kind covers exactly
    :class:`TrivialLeafDomain`, whose degenerate primitives the C side
    hard-codes.  Other leaf domains stay on the Python walks."""
    native = arena.NATIVE
    if native is None or not arena.enabled():
        return None
    if isinstance(domain, TypeLeafDomain):
        return native, _LEAF_TYPE
    if type(domain) is TrivialLeafDomain:
        return native, _LEAF_TRIVIAL
    return None


def _c_join(domain: LeafDomain) -> bool:
    """The native merge may join Type leaves in C (mode 1)."""
    return type(domain).join is TypeLeafDomain.join


def _c_widen(domain: LeafDomain) -> bool:
    """The native merge may widen Type leaves in C (mode 2): the type
    database extension grafts arbitrary Python grammars."""
    return (type(domain).widen is TypeLeafDomain.widen
            and domain.type_database is None)


def runs_in_c(domain: LeafDomain) -> bool:
    """True when the native tier runs all of ``domain``'s pattern and
    leaf work: the builder and walks (:func:`_native_for`) and the
    leaf join and widen.  A Python join or widen callback (depth-``k``
    bounding, the type database extension) builds vertex graphs, which
    are cyclic."""
    gate = _native_for(domain)
    if gate is None:
        return False
    return gate[1] == _LEAF_TRIVIAL or (_c_join(domain)
                                         and _c_widen(domain))


class PatNode:
    """One subterm.  ``args is None`` means leaf (then ``value`` holds
    the R-value); otherwise the node has pattern ``name(args...)``.

    A slotted value class with the hash computed once at construction:
    nodes are hashed on every substitution intern probe, and leaf
    values are interned grammars whose hashes are themselves cached,
    so the tuple hash below is cheap exactly once."""

    __slots__ = ("name", "is_int", "args", "value", "_hashv")

    def __init__(self, name: Optional[str] = None, is_int: bool = False,
                 args: Optional[Tuple[int, ...]] = None,
                 value: object = None) -> None:
        self.name = name
        self.is_int = is_int
        self.args = args
        self.value = value
        self._hashv = hash((name, is_int, args, value))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PatNode):
            return NotImplemented
        return (self._hashv == other._hashv and self.name == other.name
                and self.is_int == other.is_int and self.args == other.args
                and self.value == other.value)

    def __hash__(self) -> int:
        return self._hashv

    def __reduce__(self):
        return (PatNode, (self.name, self.is_int, self.args, self.value))

    @property
    def is_leaf(self) -> bool:
        return self.args is None

    @property
    def fkey(self) -> Tuple[str, str, int]:
        assert self.args is not None
        return ("i" if self.is_int else "f", self.name, len(self.args))


class PatBottom:
    """The empty abstract substitution (unification surely fails)."""

    __slots__ = ()
    _instance: Optional["PatBottom"] = None

    def __new__(cls) -> "PatBottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<bottom>"


PAT_BOTTOM = PatBottom()

#: Pattern-level operation memo tables (bounded LRUs shared with the
#: type-graph op caches' configuration and counters).
_JOIN_CACHE = opcache.cache_for("subst_join")
_WIDEN_CACHE = opcache.cache_for("subst_widen")
_LE_CACHE = opcache.cache_for("subst_le")


def _unpickle_subst(nvars, sv, nodes, was_interned):
    subst = AbstractSubst(nvars, sv, nodes)
    if was_interned:
        return intern_subst(subst)
    return subst


#: Process-wide weak intern table for frozen substitutions, mirroring
#: the grammar intern table: the engine's tables, clause-output caches,
#: and differential joins circulate the same frozen substitutions over
#: and over, and interning makes their equality an identity check and
#: the pattern-level operations memoizable by id pair.
_SUBST_INTERN: "weakref.WeakValueDictionary[tuple, AbstractSubst]" = \
    weakref.WeakValueDictionary()
#: Guards probe-then-insert and the sid counter — same identity
#: invariant (and the same reasoning) as
#: ``repro.typegraph.grammar._INTERN_LOCK``.
_SUBST_INTERN_LOCK = threading.Lock()
_NEXT_SID = 0


def intern_subst(subst: "AbstractSubst") -> "AbstractSubst":
    """Canonical shared instance of a frozen substitution (structural
    hash-consing; semantically-equal-but-structurally-different
    substitutions stay distinct, exactly like `==`).  Thread-safe."""
    global _NEXT_SID
    if subst.interned:
        return subst
    key = (subst.nvars, subst.sv, subst.nodes)
    with _SUBST_INTERN_LOCK:
        # setdefault hashes the key once; the subst's own memoized
        # hash fills in lazily from the same tuple.
        canonical = _SUBST_INTERN.setdefault(key, subst)
        if canonical is subst:
            subst.interned = True
            subst.sid = _NEXT_SID
            _NEXT_SID += 1
    return canonical


class AbstractSubst:
    """Frozen abstract substitution.  Nodes are numbered in DFS order
    from ``sv`` (canonical), so structurally equal substitutions
    compare equal.  The hash is memoized: with leaf grammars interned,
    it reduces to combining precomputed grammar hashes, which is what
    makes the engine's hash-indexed table lookups cheap."""

    __slots__ = ("nvars", "sv", "nodes", "_hash", "_collapse",
                 "interned", "sid", "__weakref__")

    def __init__(self, nvars: int, sv: Tuple[int, ...],
                 nodes: Tuple[PatNode, ...]) -> None:
        self.nvars = nvars
        self.sv = sv
        self.nodes = nodes
        self._hash: Optional[int] = None
        #: per-instance :func:`value_of` memo, keyed (did, index) —
        #: the engine collapses the same cached clause outputs on
        #: every join/compare, so the memo pays across calls, not just
        #: within one merge walk.
        self._collapse: Optional[Dict] = None
        #: interning marker + dense per-process id (see
        #: :func:`intern_subst`); -1 until interned, never reused.
        self.interned = False
        self.sid = -1

    def __reduce__(self):
        # Like grammars, canonical identity is per-process: unpickled
        # substitutions re-intern on arrival instead of claiming the
        # sending process's id.
        return (_unpickle_subst,
                (self.nvars, self.sv, self.nodes, self.interned))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbstractSubst):
            return NotImplemented
        return (self.nvars == other.nvars and self.sv == other.sv
                and self.nodes == other.nodes)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.sv, self.nodes))
        return self._hash

    def refcounts(self) -> List[int]:
        counts = [0] * len(self.nodes)
        for index in self.sv:
            counts[index] += 1
        for node in self.nodes:
            if node.args is not None:
                for arg in node.args:
                    counts[arg] += 1
        return counts

    def __repr__(self) -> str:
        parts = []
        for k in range(self.nvars):
            parts.append("X%d->s%d" % (k, self.sv[k]))
        return "<subst %s over %d nodes>" % (" ".join(parts),
                                             len(self.nodes))


# -- the union-find unification engine ---------------------------------------

class _UNode:
    __slots__ = ("parent", "name", "is_int", "args", "value", "size")

    def __init__(self, value=None, name: Optional[str] = None,
                 is_int: bool = False,
                 args: Optional[List["_UNode"]] = None) -> None:
        self.parent: Optional["_UNode"] = None
        self.name = name
        self.is_int = is_int
        self.args = args
        self.value = value
        self.size = 1  # union-by-size weight (class size at the root)

    @property
    def is_leaf(self) -> bool:
        return self.args is None


def _freeze_build(sv: tuple, descs: list) -> "AbstractSubst":
    """Intern callback for the native builder's freeze: node
    descriptors (``(value,)`` leaf / ``(name, is_int, args)`` pattern,
    already in first-visit order) to the canonical frozen form."""
    nodes = []
    append = nodes.append
    for desc in descs:
        if len(desc) == 1:
            append(PatNode(value=desc[0]))
        else:
            append(PatNode(desc[0], desc[1], tuple(desc[2])))
    return intern_subst(AbstractSubst(len(sv), tuple(sv), tuple(nodes)))


def _subst_rows(subst: "AbstractSubst") -> tuple:
    """Flat per-node rows handed to the C tier on first sight of a
    sid: ``(name, is_int, args_or_None, value)`` per node."""
    rows = [(node.name, node.is_int, node.args, node.value)
            for node in subst.nodes]
    return (subst.sv, rows)


class _CyclicPattern(Exception):
    """Raised inside :meth:`SubstBuilder.freeze` when the occur check
    fails (unification built a cyclic pattern)."""


class SubstBuilder:
    """Mutable abstract substitution on which kernel goals execute."""

    def __init__(self, domain: LeafDomain) -> None:
        self.domain = domain

    # -- node management ----------------------------------------------------

    def fresh_leaf(self, value=None) -> _UNode:
        if value is None:
            value = self.domain.top()
        return _UNode(value=value)

    def make_pattern(self, name: str, is_int: bool,
                     children: List[_UNode]) -> _UNode:
        return _UNode(name=name, is_int=is_int, args=list(children))

    @staticmethod
    def find(node: _UNode) -> _UNode:
        # Path halving: every node on the walk is pointed at its
        # grandparent, so the chain shortens in the same single pass
        # that locates the root (no second compression loop).
        parent = node.parent
        while parent is not None:
            grand = parent.parent
            if grand is None:
                return parent
            node.parent = grand
            node = grand
            parent = node.parent
        return node

    @staticmethod
    def _union(keep: _UNode, merge: _UNode) -> None:
        keep.size += merge.size
        merge.parent = keep
        merge.args = None
        merge.value = None

    # -- snapshot / fork -----------------------------------------------------

    def fork(self, roots: Sequence[_UNode]
             ) -> Tuple["SubstBuilder", List[_UNode]]:
        """Persistent snapshot of the union-find state reachable from
        ``roots``: an isomorphic copy (fresh nodes, same structure,
        sharing and leaf values preserved) that shares no mutable state
        with the original.  Execution can continue on either side
        independently — the engine snapshots the builder before every
        call site so a clause whose callee later improves resumes from
        that point instead of from the clause head (GAIA-style prefix
        resumption)."""
        copies: Dict[int, _UNode] = {}
        originals: List[_UNode] = []
        stack = list(roots)
        while stack:
            node = stack.pop()
            if id(node) in copies:
                continue
            copy = _UNode(value=node.value, name=node.name,
                          is_int=node.is_int)
            copy.size = node.size
            copies[id(node)] = copy
            originals.append(node)
            if node.parent is not None:
                stack.append(node.parent)
            if node.args is not None:
                stack.extend(node.args)
        for node in originals:
            copy = copies[id(node)]
            if node.parent is not None:
                copy.parent = copies[id(node.parent)]
            if node.args is not None:
                copy.args = [copies[id(arg)] for arg in node.args]
        return (SubstBuilder(self.domain),
                [copies[id(root)] for root in roots])

    # -- abstract unification ------------------------------------------------

    def unify(self, a: _UNode, b: _UNode) -> bool:
        """Abstract ``a = b``; False signals sure failure (bottom)."""
        domain = self.domain
        work = [(a, b)]
        while work:
            x, y = work.pop()
            x, y = self.find(x), self.find(y)
            if x is y:
                continue
            if not x.is_leaf and not y.is_leaf:
                if (x.name, x.is_int, len(x.args)) != \
                        (y.name, y.is_int, len(y.args)):
                    return False
                y_args = y.args
                self._union(x, y)
                work.extend(zip(x.args, y_args))
            elif not x.is_leaf:  # y is a leaf
                pieces = domain.split(y.value, x.name, len(x.args), x.is_int)
                if pieces is None:
                    return False
                self._union(x, y)
                for child, piece in zip(x.args, pieces):
                    if not self.constrain(child, piece):
                        return False
            elif not y.is_leaf:  # x is a leaf
                pieces = domain.split(x.value, y.name, len(y.args), y.is_int)
                if pieces is None:
                    return False
                self._union(y, x)
                for child, piece in zip(y.args, pieces):
                    if not self.constrain(child, piece):
                        return False
            else:
                value = domain.meet(x.value, y.value)
                if value is None:
                    return False
                # Leaf-leaf is the one direction-free union: keep the
                # larger class as the root (union by size), so the
                # forest stays shallow under adversarial merge orders.
                if y.size > x.size:
                    x, y = y, x
                self._union(x, y)
                x.value = value
        return True

    def constrain(self, node: _UNode, value) -> bool:
        """Meet ``node`` with an R-value, pushing through patterns."""
        domain = self.domain
        work = [(node, value)]
        seen = set()
        while work:
            n, v = work.pop()
            n = self.find(n)
            if domain.is_top(v):
                continue
            key = (id(n), v)
            if key in seen:
                continue
            seen.add(key)
            if n.is_leaf:
                met = domain.meet(n.value, v)
                if met is None:
                    return False
                n.value = met
            else:
                pieces = domain.split(v, n.name, len(n.args), n.is_int)
                if pieces is None:
                    return False
                work.extend(zip(n.args, pieces))
        return True

    # -- freeze / thaw / instantiate ------------------------------------------

    def freeze(self, roots: Sequence[_UNode]):
        """Canonical frozen form restricted to what ``roots`` reach;
        PAT_BOTTOM if the occur check fails.

        The occur check runs *inside* the freezing DFS (a pattern node
        re-entered while its arguments are still being built is a
        cycle) instead of as a separate :meth:`acyclic` traversal."""
        index: Dict[int, int] = {}
        out: List[Optional[PatNode]] = []
        building: set = set()
        find = self.find

        def visit(node: _UNode) -> int:
            node = find(node)
            key = id(node)
            slot = index.get(key)
            if slot is not None:
                if key in building:
                    raise _CyclicPattern
                return slot
            slot = len(out)
            index[key] = slot
            out.append(None)
            if node.is_leaf:
                out[slot] = PatNode(value=node.value)
            else:
                building.add(key)
                args = tuple(visit(child) for child in node.args)
                building.discard(key)
                out[slot] = PatNode(node.name, node.is_int, args)
            return slot

        try:
            sv = tuple(visit(root) for root in roots)
        except _CyclicPattern:
            # cyclic patterns denote no finite tree: sure failure
            return PAT_BOTTOM
        return intern_subst(AbstractSubst(len(sv), sv, tuple(out)))

    def instantiate(self, subst: AbstractSubst) -> List[_UNode]:
        """Copy ``subst`` into this builder (fresh nodes, sharing
        preserved); returns the node of each position."""
        cache: Dict[int, _UNode] = {}

        def visit(i: int) -> _UNode:
            if i in cache:
                return cache[i]
            node = subst.nodes[i]
            if node.is_leaf:
                unode = self.fresh_leaf(node.value)
            else:
                unode = _UNode(name=node.name, is_int=node.is_int, args=[])
                cache[i] = unode
                unode.args = [visit(a) for a in node.args]
                return unode
            cache[i] = unode
            return unode

        return [visit(self.sv_index(subst, k)) for k in range(subst.nvars)]

    @staticmethod
    def sv_index(subst: AbstractSubst, k: int) -> int:
        return subst.sv[k]


def make_builder(domain: LeafDomain):
    """A substitution builder for ``domain`` on the active kernel tier
    (the C union-find engine when the native tier is loaded and mirrors
    the leaf domain, else the reference builder).  Both freeze to
    identical interned :class:`AbstractSubst` instances."""
    gate = _native_for(domain)
    if gate is not None:
        native, kind = gate
        return native.make_builder(domain, kind)
    return SubstBuilder(domain)


# -- operations on frozen substitutions ---------------------------------------

def subst_top(nvars: int, domain: LeafDomain) -> AbstractSubst:
    """n variables, no structure, no sharing, all leaves top —
    the input pattern ``p(Any, ..., Any)``."""
    nodes = tuple(PatNode(value=domain.top()) for _ in range(nvars))
    return intern_subst(AbstractSubst(nvars, tuple(range(nvars)), nodes))


def value_of(subst: AbstractSubst, index: int, domain: LeafDomain,
             memo: Optional[Dict[int, object]] = None):
    """Collapse the subtree at ``index`` into a single R-value.

    Memoized on the substitution instance (nodes are immutable), keyed
    by the domain's ``did`` (not the domain itself, which a pinned
    substitution would then keep alive), so repeated joins/compares
    against the same frozen substitution collapse each subtree once
    per process instead of once per call.  The ``memo`` parameter is
    kept for API compatibility; the instance cache subsumes it."""
    if subst.interned:
        gate = _native_for(domain)
        if gate is not None:
            native, kind = gate
            return native.value_of(subst, index, domain.did,
                                   domain.max_or_width, kind)
    cache = subst._collapse
    if cache is None:
        cache = {}
        subst._collapse = cache
    key = (domain.did, index)
    value = cache.get(key)
    if value is not None:
        return value
    node = subst.nodes[index]
    if node.is_leaf:
        value = node.value
    else:
        children = [value_of(subst, a, domain) for a in node.args]
        value = domain.from_functor(node.name, node.is_int, children)
    cache[key] = value
    return value


def _merge(s1: AbstractSubst, s2: AbstractSubst, domain: LeafDomain,
           combine: Callable) -> AbstractSubst:
    """Common-structure walk with leaf combiner (join or widen)."""
    assert s1.nvars == s2.nvars
    memo: Dict[Tuple[int, int], int] = {}
    out: List[Optional[PatNode]] = []

    def walk(i1: int, i2: int) -> int:
        key = (i1, i2)
        if key in memo:
            return memo[key]
        slot = len(out)
        memo[key] = slot
        out.append(None)
        n1, n2 = s1.nodes[i1], s2.nodes[i2]
        if not n1.is_leaf and not n2.is_leaf and n1.fkey == n2.fkey:
            args = tuple(walk(a1, a2) for a1, a2 in zip(n1.args, n2.args))
            out[slot] = PatNode(n1.name, n1.is_int, args)
        else:
            value = combine(value_of(s1, i1, domain),
                            value_of(s2, i2, domain))
            out[slot] = PatNode(value=value)
        return slot

    sv = tuple(walk(s1.sv[k], s2.sv[k]) for k in range(s1.nvars))
    return intern_subst(AbstractSubst(s1.nvars, sv, tuple(out)))


def _merge_join(s1: AbstractSubst, s2: AbstractSubst,
                domain: LeafDomain) -> AbstractSubst:
    """``_merge`` with the leaf join, through the native walk when the
    tier can run it.  A domain that inherits ``TypeLeafDomain.join``
    unmodified gets the pure-C combiner (mode 1); an overriding domain
    (e.g. depth-``k`` bounding) keeps its Python join as a callback.
    The trivial kind joins to TOP in C whatever the mode."""
    if s1.interned and s2.interned:
        gate = _native_for(domain)
        if gate is not None:
            native, kind = gate
            mode = 1 if _c_join(domain) else 0
            return native.subst_merge(s1, s2, domain.did,
                                      domain.max_or_width, mode, True,
                                      domain.join, kind)
    return _merge(s1, s2, domain, domain.join)


def _merge_widen(old: AbstractSubst, new: AbstractSubst,
                 domain: LeafDomain, strict: bool) -> AbstractSubst:
    """``_merge`` with the leaf widening; pure-C (mode 2) only when the
    domain keeps ``TypeLeafDomain.widen`` and has no type database."""
    if old.interned and new.interned:
        gate = _native_for(domain)
        if gate is not None:
            native, kind = gate
            mode = 2 if _c_widen(domain) else 0
            return native.subst_merge(
                old, new, domain.did, domain.max_or_width, mode, strict,
                lambda a, b: domain.widen(a, b, strict), kind)
    return _merge(old, new, domain,
                  lambda a, b: domain.widen(a, b, strict))


def subst_join(s1, s2, domain: LeafDomain):
    """Upper bound (operation UNION of GAIA).

    Memoized on interned identities (the differential engine re-joins
    the same cached clause outputs on every re-analysis)."""
    if s1 is PAT_BOTTOM:
        return s2
    if s2 is PAT_BOTTOM:
        return s1
    if s1 is s2 and domain.idempotent_joins:
        return s1  # x ⊔ x = x; the merge walk would rebuild s1
    if s1.interned and s2.interned and opcache.enabled():
        # open-coded opcache.cached: this is one of the engine's
        # hottest call sites, so skip the closure per call
        cache = _JOIN_CACHE
        key = (domain.did, s1.sid, s2.sid)
        value = cache.get(key)
        if value is None:
            value = _merge_join(s1, s2, domain)
            cache.put(key, value)
        return value
    return _merge_join(s1, s2, domain)


def subst_widen(old, new, domain: LeafDomain, strict: bool = True):
    """Widening: the Pat(R) upper bound with the leaf join replaced by
    the leaf widening (§5).  The pattern component of the result is a
    prefix of ``old``'s, so widening chains stabilize structurally; the
    leaf chains stabilize by Theorem 7.1 (in strict mode)."""
    if old is PAT_BOTTOM:
        return new
    if new is PAT_BOTTOM:
        return old
    if old is new and domain.idempotent_joins:
        return old  # x V x = x for the leaf widening too
    if old.interned and new.interned and opcache.enabled():
        cache = _WIDEN_CACHE
        key = (domain.did, old.sid, new.sid, strict)
        value = cache.get(key)
        if value is None:
            value = _merge_widen(old, new, domain, strict)
            cache.put(key, value)
        return value
    return _merge_widen(old, new, domain, strict)


def subst_le(s1, s2, domain: LeafDomain) -> bool:
    """Order: Cc(s1) ⊆ Cc(s2).  Exact when structures align; when s1
    has a leaf where s2 has a pattern, decided through the leaf domain
    if s2's subtree is sharing-free, else conservatively False.

    Memoized on interned identities (the engine's table scans compare
    the same candidate/entry pattern pairs across iterations)."""
    if s1 is s2:
        return True
    if s1 is PAT_BOTTOM:
        return True
    if s2 is PAT_BOTTOM:
        return False
    if s1.nvars != s2.nvars:
        raise ValueError("arity mismatch")
    if s1.interned and s2.interned and opcache.enabled():
        cache = _LE_CACHE
        key = (domain.did, s1.sid, s2.sid)
        value = cache.get(key)
        if value is None:
            value = _subst_le_impl(s1, s2, domain)
            cache.put(key, value)
        return value
    return _subst_le_impl(s1, s2, domain)


def _subst_le_impl(s1, s2, domain: LeafDomain) -> bool:
    if s1.interned and s2.interned:
        gate = _native_for(domain)
        if gate is not None:
            native, kind = gate
            return native.subst_le(s1, s2, domain.did,
                                   domain.max_or_width, kind)
    refcounts2 = s2.refcounts()
    map21: Dict[int, int] = {}

    def subtree_shared(i2: int) -> bool:
        seen = set()
        stack = [i2]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            if i != i2 and refcounts2[i] > 1:
                return True
            node = s2.nodes[i]
            if node.args is not None:
                stack.extend(node.args)
        return False

    def le(i1: int, i2: int) -> bool:
        if i2 in map21:
            return map21[i2] == i1  # s2's sharing must hold in s1
        map21[i2] = i1
        n1, n2 = s1.nodes[i1], s2.nodes[i2]
        if n2.is_leaf:
            return domain.le(value_of(s1, i1, domain), n2.value)
        if not n1.is_leaf and n1.fkey == n2.fkey:
            return all(le(a1, a2) for a1, a2 in zip(n1.args, n2.args))
        if n1.is_leaf:
            # A leaf can only be below a pattern if the leaf domain can
            # certify the structure (Type can, via grammars; the
            # principal-functor baseline cannot).
            if subtree_shared(i2):
                return False
            n2_children = [value_of(s2, a, domain) for a in n2.args]
            return domain.le_tree(value_of(s1, i1, domain),
                                  n2.name, n2.is_int, n2_children)
        return False

    return all(le(s1.sv[k], s2.sv[k]) for k in range(s1.nvars))


def subst_eq(s1, s2, domain: LeafDomain) -> bool:
    if s1 is s2:
        return True
    if s1 is PAT_BOTTOM or s2 is PAT_BOTTOM:
        return False
    # The structural == walk is only worth attempting when the
    # memoized hashes agree (with interned leaf grammars both hashes
    # are a few cached integer combines); differing hashes certify the
    # walk would fail, so fall straight through to the semantic check.
    if s1.nvars == s2.nvars and hash(s1) == hash(s2) and s1 == s2:
        return True
    return subst_le(s1, s2, domain) and subst_le(s2, s1, domain)


def display_subst(subst, domain: LeafDomain,
                  names: Optional[Sequence[str]] = None) -> str:
    """Human-readable rendering, one line per variable."""
    if subst is PAT_BOTTOM:
        return "<bottom>"
    lines = []
    refcounts = subst.refcounts()

    def node_text(index: int, depth: int) -> str:
        node = subst.nodes[index]
        tag = "s%d:" % index if refcounts[index] > 1 else ""
        if node.is_leaf:
            value_text = domain.display(node.value)
            if "\n" in value_text:
                value_text = "{%s}" % "; ".join(value_text.splitlines())
            return tag + value_text
        if depth > 8:
            return tag + "..."
        if not node.args:
            return tag + node.name
        inner = ",".join(node_text(a, depth + 1) for a in node.args)
        return "%s%s(%s)" % (tag, node.name, inner)

    for k in range(subst.nvars):
        name = names[k] if names else "X%d" % k
        lines.append("%s = %s" % (name, node_text(subst.sv[k], 0)))
    return "\n".join(lines)
