"""Native execution tier: a lazily-compiled C extension.

The kernels in ``_arenakernels.c`` are compiled on first use with the
system C compiler (``cc`` or ``$REPRO_KERNEL_CC``) into a per-source-
hash cache directory, so the repo needs no build step and no toolchain:
when compilation is impossible the loader reports a reason and the
tier machinery in :mod:`repro.typegraph.arena` silently falls back to
the numpy/python tiers.  The C module holds only integers — every
Grammar/AbstractSubst it returns is produced through the same intern
tables as the pure-Python tier (see ``arena._grammar_from_intkey`` and
``pattern._freeze_build``), so results are *identical objects* across
tiers and the opcache/serialize layers stay tier-oblivious.

This module is the object published as ``arena.NATIVE``; the functions
below are the dispatch surface the python-level call sites use.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
from typing import List, Optional, Tuple

#: The loaded C module (None until :func:`load` succeeds) and, after a
#: failed attempt, the reason the tier is unavailable.
_CMOD = None
_REASON: Optional[str] = None
_TRIED = False


def _source_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "_arenakernels.c")


def _cache_dir() -> str:
    explicit = os.environ.get("REPRO_KERNEL_CACHE")
    if explicit:
        return explicit
    return os.path.join(
        tempfile.gettempdir(),
        "repro-kernels-py%d%d" % sys.version_info[:2])


def _build(source: str) -> str:
    """Compile (once per source hash) and return the .so path."""
    import hashlib
    with open(source, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    cache_dir = _cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    target = os.path.join(cache_dir,
                          "_arenakernels_%s%s" % (digest, suffix))
    if os.path.exists(target):
        return target
    cc = os.environ.get("REPRO_KERNEL_CC") or "cc"
    include = sysconfig.get_paths()["include"]
    scratch = target + ".build-%d" % os.getpid()
    cmd = [cc, "-O2", "-fPIC", "-shared", "-I", include,
           "-o", scratch, source]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=180)
    except (OSError, subprocess.SubprocessError) as exc:
        raise RuntimeError("%s: %s" % (cc, exc))
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout or "").strip()
        raise RuntimeError(
            "%s exited %d%s" % (cc, proc.returncode,
                                ": " + detail[-400:] if detail else ""))
    os.replace(scratch, target)  # atomic publish for concurrent builds
    return target


#: The pattern module, imported on first builder use — the kernel tier
#: resolves during ``repro.typegraph.arena``'s own import, which the
#: ``repro`` package may reach *through* ``repro.domains``; importing
#: pattern eagerly here would re-enter that half-initialized package.
_PATTERN = None


def _pattern_mod():
    global _PATTERN
    if _PATTERN is None:
        from ..domains import pattern
        _PATTERN = pattern
    return _PATTERN


def _trivial_top():
    from ..domains.leaf import TOP
    return TOP


def _wire(cmod) -> None:
    """Hand the C module its callbacks into the Python object layer.
    The pattern-layer callbacks are trampolines (see above); they only
    fire from builder paths, by which point the domain layer exists."""
    from . import arena
    from .grammar import g_any, g_bottom, g_int_literal

    cmod.init({
        "from_flat": arena._grammar_from_intkey,
        "arena_flat": arena._arena_flat,
        "sym_rows": arena._sym_rows,
        "sym_f": arena._sym_f,
        "int_literal": lambda name: g_int_literal(int(name)),
        "freeze_build":
            lambda sv, descs: _pattern_mod()._freeze_build(sv, descs),
        "subst_rows": lambda subst: _pattern_mod()._subst_rows(subst),
        "any": g_any(),
        "bottom": g_bottom(),
        "pat_bottom": lambda: _pattern_mod().PAT_BOTTOM,
        "trivial_top": _trivial_top,
    })


def load():
    """(C module, None) on success, (None, reason) when the tier is
    unavailable.  The outcome is cached; ``_reset_for_tests`` clears
    it so fallback behaviour stays testable."""
    global _CMOD, _REASON, _TRIED
    if _CMOD is not None:
        return _CMOD, None
    if _TRIED:
        return None, _REASON
    _TRIED = True
    try:
        cmod_path = _build(_source_path())
        spec = importlib.util.spec_from_file_location("_arenakernels",
                                                      cmod_path)
        cmod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cmod)
        _wire(cmod)
    except Exception as exc:  # no toolchain, bad cache dir, ...
        _REASON = "%s" % (exc,) or repr(exc)
        return None, _REASON
    _CMOD = cmod
    return _CMOD, None


def _reset_for_tests() -> None:
    global _CMOD, _REASON, _TRIED
    if _CMOD is not None:
        _CMOD.clear_memos()
    _CMOD = None
    _REASON = None
    _TRIED = False


# -- arena-op dispatch surface (arena.NATIVE.<fn>) ---------------------------

def normalize_dense(any_f, int_f, funcs, root_i,
                    max_or_width: Optional[int], prune: bool = True):
    return _CMOD.normalize_dense(any_f, int_f, funcs, root_i,
                                 max_or_width, prune)


def arena_le(g1, g2) -> bool:
    return _CMOD.arena_le(g1, g2)


def arena_union(g1, g2, max_or_width: Optional[int]):
    return _CMOD.arena_union(g1, g2, max_or_width)


def arena_intersect(g1, g2, max_or_width: Optional[int]):
    return _CMOD.arena_intersect(g1, g2, max_or_width)


def arena_functor(name, children, max_or_width: Optional[int]):
    return _CMOD.arena_functor(name, children, max_or_width)


def arena_subgrammar(grammar, nt: int):
    from . import arena
    return _CMOD.subgrammar(grammar, arena.arena_of(grammar).index_of(nt))


def g_split(grammar, name, arity: int, is_int: bool):
    return _CMOD.g_split(grammar, name, arity, is_int)


def g_widen(g_old, g_new, max_or_width: Optional[int], strict: bool):
    return _CMOD.g_widen(g_old, g_new, max_or_width, strict)


# -- pattern-layer dispatch surface ------------------------------------------
#
# ``kind`` is the C leaf kind the walk mirrors (``LEAF_*`` in
# _arenakernels.c): 0 = TypeLeafDomain's grammar leaves, 1 =
# TrivialLeafDomain's TOP-only leaves.

def value_of(subst, index: int, did: int, max_or_width: Optional[int],
             kind: int):
    return _CMOD.value_of(subst, index, did, max_or_width, kind)


def subst_le(s1, s2, did: int, max_or_width: Optional[int],
             kind: int) -> bool:
    return _CMOD.subst_le(s1, s2, did, max_or_width, kind)


def subst_merge(s1, s2, did: int, max_or_width: Optional[int],
                mode: int, strict: bool, combine, kind: int):
    """The ``pattern._merge`` walk in C.  For the Type kind ``mode``
    selects the leaf combiner: 1 = the pure-C union
    (``TypeLeafDomain.join``), 2 = the pure-C widening
    (``TypeLeafDomain.widen``, no type database), 0 = call back into
    the Python ``combine`` for overriding domains.  The trivial kind
    combines leaves to TOP in C whatever the mode."""
    return _CMOD.subst_merge(s1, s2, did, max_or_width, mode, strict,
                             combine, kind)


class NativeSubstBuilder:
    """Drop-in for :class:`repro.domains.pattern.SubstBuilder` whose
    union-find nodes and walks live in C.  Built for the leaf domains
    whose primitives the C tier mirrors exactly, named by ``kind``:
    :class:`~repro.domains.leaf.TypeLeafDomain` (and subclasses that
    keep its meet/split/le primitives) and
    :class:`~repro.domains.leaf.TrivialLeafDomain`."""

    __slots__ = ("domain", "_w", "_kind")

    def __init__(self, domain, kind: int) -> None:
        self.domain = domain
        width = domain.max_or_width
        self._w = -1 if width is None else int(width)
        self._kind = kind

    def fresh_leaf(self, value=None):
        return _CMOD.kn_leaf(value, self._kind)

    def make_pattern(self, name: str, is_int: bool, children):
        return _CMOD.kn_pattern(name, is_int, children)

    @staticmethod
    def find(node):
        return _CMOD.kn_find(node)

    def fork(self, roots) -> Tuple["NativeSubstBuilder", List]:
        return (NativeSubstBuilder(self.domain, self._kind),
                _CMOD.kn_fork(list(roots)))

    def unify(self, a, b) -> bool:
        return _CMOD.kn_unify(a, b, self._w, self._kind)

    def constrain(self, node, value) -> bool:
        return _CMOD.kn_constrain(node, value, self._w, self._kind)

    def freeze(self, roots):
        return _CMOD.kn_freeze(list(roots), self._w)

    def instantiate(self, subst) -> List:
        return _CMOD.kn_instantiate(subst, self._kind)

    @staticmethod
    def sv_index(subst, k: int) -> int:
        return subst.sv[k]


def make_builder(domain, kind: int) -> NativeSubstBuilder:
    return NativeSubstBuilder(domain, kind)


# -- profiling / memo control -------------------------------------------------

def set_profile(enable: bool) -> None:
    _CMOD.set_profile(bool(enable))


def kernel_counters():
    return _CMOD.kernel_counters()


def reset_kernel_counters() -> None:
    _CMOD.reset_kernel_counters()


def stats():
    return _CMOD.stats()


def clear_memos() -> None:
    _CMOD.clear_memos()


def memo_stats():
    return _CMOD.memo_stats()
