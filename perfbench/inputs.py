"""Seeded, program-blind inputs.  Everything here depends only on the
seed and the corpus sources; the program sees only what these
functions generate."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: Table 3's three or-width configurations and the §9 principal-functor
#: baseline domain.  The baseline rows run the fixpoint and pattern
#: domain with no type graphs at all: the bypass for a type-graph
#: change.
CONFIGS: Dict[str, dict] = {
    "full": {"or_width": None},
    "or5": {"or_width": 5},
    "or2": {"or_width": 2},
    "baseline": {"baseline": True},
}

#: Pad variants per program in the served hot set.  Each variant has
#: its own program hash, so a program's reads spread over both shards
#: instead of loading whichever shard one key happens to hash to.
#: Each is a real analysis in the untimed warm-up.
VARIANTS = 4
#: Zipf exponent over a program's variants.
ZIPF_S = 0.5


def _rng(seed: int, *labels) -> random.Random:
    return random.Random("/".join(str(x) for x in (seed,) + labels))


def pad_source(source: str, seed: int, name: str, variant: int) -> str:
    """``source`` plus one inert fact of a fresh predicate.  The pad
    predicate is outside every query's cone, so the analysis table (and
    its fingerprint) is the base program's while the program hash, and
    so every cache key, is new.  The pad has the same length for every
    seed."""
    rng = _rng(seed, "pad", name, variant)
    return "%s\nbench_pad_%08x(p%06d).\n" % (
        source.rstrip("\n"), rng.getrandbits(32), rng.randrange(10 ** 6))


def shuffled(seed: int, label: str, items: Sequence) -> list:
    out = list(items)
    _rng(seed, "order", label).shuffle(out)
    return out


def resident_jobs(programs: Sequence[str]) -> List[Tuple[str, str]]:
    """The (program, configuration) pairs of one resident pass, in
    Table 3 order.  The order is the same for every seed: where the
    interpreter's garbage collections fall depends on the order, and a
    seeded order moved those pauses onto different jobs in every run,
    which decided the pass's p90."""
    return [(p, c) for p in programs for c in CONFIGS]


def zipf_pick(rng: random.Random, count: int, s: float = ZIPF_S) -> int:
    weights = [1.0 / (rank + 1) ** s for rank in range(count)]
    return rng.choices(range(count), weights=weights)[0]


def served_block(programs: Sequence[str], checked: str) -> List[str]:
    """The programs of one block of served requests: every program and
    the checked program once."""
    return list(programs) + [checked]


def served_schedule(seed: int, label: str, rate: float, blocks: int,
                    block: Sequence[str], variants: int = VARIANTS
                    ) -> List[dict]:
    """``blocks`` blocks of open-loop reads at ``rate`` per second.
    Arrivals are evenly spaced with a seeded jitter of up to 40% of the
    gap either way.  Each block holds the programs of ``block`` in a
    seeded order, so every step has the same program mix whatever the
    seed; within a program a Zipf-ranked variant is read (the rank
    order of the variants is itself seeded)."""
    rng = _rng(seed, "served", label)
    ranks = {p: shuffled(seed, "ranks/" + p, range(variants))
             for p in sorted(set(block))}
    gap = 1.0 / rate
    out: List[dict] = []
    for _ in range(blocks):
        order = list(block)
        rng.shuffle(order)
        for program in order:
            out.append({
                "due": (len(out) + 0.5 + rng.uniform(-0.4, 0.4)) * gap,
                "program": program,
                "variant": ranks[program][zipf_pick(rng, variants)]})
    return out
