"""Benchmark inputs owned by the benchmark: coordinates, run instance lists,
reference tours and the independent tour checks.

Coordinates come from this file's own PCG64 (XSL-RR 128/64, the generator
behind numpy's default_rng), so a change to tspheat.generate_random cannot
change a workload. Reference data lives in data/<workload>.json and is
checked against the regenerated coordinates every time it is loaded.
"""

from __future__ import annotations

import json
import math
import os

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# stream that orders a run's instances; coordinate streams use the city count
_SELECTION_STREAM = 0x7F4A7C15
# relative tolerance between a reported length and the benchmark's own
LENGTH_RTOL = 1e-9


class BadReference(ValueError):
    """Stored reference data disagrees with the regenerated instance."""


class Pcg64:
    """PCG64 with pcg's setseq seeding: inc = 2*initseq + 1, then step,
    add initstate, step. Each output steps first, then permutes the state."""

    def __init__(self, initstate: int, initseq: int):
        self.inc = ((initseq << 1) | 1) & _MASK128
        self.state = 0
        self._step()
        self.state = (self.state + initstate) & _MASK128
        self._step()

    def _step(self) -> None:
        self.state = (self.state * _PCG_MULT + self.inc) & _MASK128

    def next_u64(self) -> int:
        self._step()
        s = self.state
        rot = s >> 122
        x = ((s >> 64) ^ s) & _MASK64
        return ((x >> rot) | (x << ((64 - rot) & 63))) & _MASK64

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / 9007199254740992.0)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection (no modulo bias)."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def coordinates(n: int, instance_id: int) -> list[tuple[float, float]]:
    """n cities uniform on the unit square for one pool instance."""
    rng = Pcg64(instance_id, n)
    return [(rng.random(), rng.random()) for _ in range(n)]


def run_ids(seed: int, ranked: list[int], count: int) -> list[int]:
    """Pool ids for one run, in a seeded order.

    `ranked` lists the pool ids by the work their round-capped run did. It is
    cut into `count` strata of consecutive ids and one id is drawn from each,
    so every seed gets a different instance set with about the same total
    work, and run times differ little from seed to seed.
    """
    rng = Pcg64(seed & _MASK128, _SELECTION_STREAM)
    pool = len(ranked)
    ids = []
    for j in range(count):
        lo, hi = j * pool // count, (j + 1) * pool // count
        ids.append(ranked[lo + rng.below(hi - lo)])
    for i in range(count - 1, 0, -1):
        j = rng.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    return ids


def tour_problem(coords, order) -> str | None:
    """Why `order` is not a tour of `coords`, or None when it is one."""
    n = len(coords)
    try:
        cities = [int(c) for c in order]
    except (TypeError, ValueError):
        return "order is not a sequence of integers"
    if len(cities) != n or sorted(cities) != list(range(n)):
        return f"order is not a permutation of 0..{n - 1}"
    return None


def tour_length(coords, order) -> float:
    """Closed-tour length from the coordinates, independent of tspheat."""
    n = len(order)
    return math.fsum(
        math.dist(coords[int(order[k])], coords[int(order[(k + 1) % n])])
        for k in range(n)
    )


def lengths_agree(a: float, b: float) -> bool:
    return abs(a - b) <= LENGTH_RTOL * max(abs(a), abs(b))


def load_references(workload: str) -> dict:
    """Pool description and per-id reference records of one workload."""
    with open(os.path.join(DATA_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["by_id"] = {rec["id"]: rec for rec in data["instances"]}
    data["ranked"] = [rec["id"] for rec in sorted(
        data["instances"], key=lambda rec: (rec["work"], rec["id"]))]
    return data


def checked_reference(refs: dict, instance_id: int, coords) -> dict:
    """The reference record of one instance after re-measuring its tour."""
    rec = refs["by_id"][instance_id]
    problem = tour_problem(coords, rec["ref_tour"])
    if problem is not None:
        raise BadReference(f"instance {instance_id}: reference {problem}")
    length = tour_length(coords, rec["ref_tour"])
    if not lengths_agree(length, rec["ref_length"]):
        raise BadReference(
            f"instance {instance_id}: reference tour measures {length!r}, "
            f"file says {rec['ref_length']!r}"
        )
    return rec
