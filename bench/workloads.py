"""The benchmark's workloads: command lines, seeded inputs and exact oracles.

Every oracle checks a CLI report against facts derived independently of
nervekit (closed-form cell counts and known homology), never against a
digest recorded from an earlier run.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

# The 6-vertex triangulation of the real projective plane.
RP2_TRIANGLES = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
)


def _closed_surface_faces(triangles) -> list[frozenset]:
    """All faces of a triangulated closed surface, after checking it is one."""
    edges = Counter(frozenset(e) for t in triangles for e in combinations(t, 2))
    bad = sorted(tuple(sorted(e)) for e, c in edges.items() if c != 2)
    if bad:
        raise ValueError(f"edges not in exactly two triangles: {bad}")
    faces = {frozenset(s) for t in triangles for r in (1, 2, 3) for s in combinations(t, r)}
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


def rp2_face_poset(seed: int) -> str:
    """``poset:`` description of the face poset of the barycentric subdivision of RP².

    The subdivision's faces are the chains of faces of RP² (31 + 90 + 60 =
    181); the poset relates a chain to the chains one face longer that
    contain it. Elements are labelled by a permutation drawn from ``seed``.
    `build_example` orders elements by their label's string, so the seed
    fixes the cell order, not the space.
    """
    faces = _closed_surface_faces(RP2_TRIANGLES)
    chains = []
    for r in (1, 2, 3):
        for combo in combinations(faces, r):
            if all(a < b for a, b in zip(combo, combo[1:])):
                chains.append(frozenset(combo))
    labels = list(range(len(chains)))
    random.Random(seed).shuffle(labels)
    label = dict(zip(chains, labels))
    relations = sorted(
        (label[c - {f}], label[c]) for c in chains if len(c) > 1 for f in c
    )
    if len(chains) != 181 or len(relations) != 360:
        raise ValueError("unexpected subdivision size")
    return "poset:" + ",".join(f"{a}<{b}" for a, b in relations)


# --- closed forms for bg:z<m> ------------------------------------------------


def levelwise_card(m: int, p: int, q: int) -> int:
    """Chains of p morphisms among the m^q level-q cells of nerve(Z/m)."""
    return m ** (p * q)


def compare_counts(m: int, L: int) -> dict:
    """The counters `compare` reports for bg:z<m> at level bound L."""
    B = [levelwise_card(m, k, k) for k in range(L + 1)]
    rng = range(L + 1)
    return {
        "B": B,
        "validate_checked": sum((n + 1) * B[n] for n in range(1, L + 1))
        + sum((n + 1) * B[n] for n in range(L)),
        "diagonal": sum(B),
        "vertex_slices": sum((p + 1) * levelwise_card(m, p, q) for p in rng for q in rng),
        "row_restrictions": sum((n + 1) * levelwise_card(m, k, n) for k in rng for n in rng),
    }


def horn_maps(m: int, n: int) -> int:
    """Maps from the (n, k)-horn into nerve(Z/m): a free choice per spine edge."""
    return 1 if n == 1 else m ** n


# --- oracles ------------------------------------------------------------------


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_compare(results: dict, coeff: str, m: int = 2, L: int = 3) -> list[str]:
    """Comparison map, chain isomorphism and consistency on bg:z<m>."""
    problems: list[str] = []
    want = compare_counts(m, L)
    vrep = results.get("map_simplicial", {})
    _expect(problems, "map_simplicial.ok", vrep.get("ok"), True)
    _expect(problems, "map_simplicial.checked", vrep.get("checked"), want["validate_checked"])
    iso = results.get("chain_iso", {})
    _expect(problems, "chain_iso.verdict", iso.get("verdict"), "pass")
    # K(Z/2, 2) in degrees 0..2, on both sides: Z, 0, Z/2; mod 2: 1, 0, 1
    if coeff == "f2":
        keys = ("dim_source", "dim_target", "surjective")
        want_h = [(d, d, True) for d in (1, 0, 1)]
    else:
        keys = ("source", "target", "surjective", "injective")
        groups = [{"betti": 1, "torsion": []}, {"betti": 0, "torsion": []}, {"betti": 0, "torsion": [2]}]
        want_h = [(g, g, True, True) for g in groups]
    for n, exp in enumerate(want_h):
        h = iso.get("bounds", {}).get(f"H{n}", {})
        _expect(problems, f"chain_iso.H{n}", tuple(h.get(k) for k in keys), exp)
    cons = results.get("consistency", {})
    _expect(problems, "consistency.verdict", cons.get("verdict"), "pass")
    for key in ("diagonal", "vertex_slices", "row_restrictions"):
        _expect(problems, f"consistency.{key}", cons.get("bounds", {}).get(key), want[key])
    return problems


def check_homology_f2(results: dict, dims: tuple) -> list[str]:
    problems: list[str] = []
    h = results.get("homology", {})
    _expect(problems, "coeff", h.get("coeff"), "f2")
    _expect(problems, "groups", h.get("groups"), [{"degree": n, "dim": d} for n, d in enumerate(dims)])
    return problems


def check_homology_z(results: dict, groups: tuple) -> list[str]:
    problems: list[str] = []
    h = results.get("homology", {})
    _expect(problems, "coeff", h.get("coeff"), "z")
    _expect(problems, "groups", h.get("groups"),
            [{"degree": n, "betti": b, "torsion": list(t)} for n, (b, t) in enumerate(groups)])
    return problems


def check_horncheck(results: dict, m: int, top: int) -> list[str]:
    """Every horn of nerve(Z/m) up to level ``top`` fills: nerves of groups are Kan."""
    problems: list[str] = []
    horns = results.get("horns", [])
    want = [(n, k) for n in range(1, top + 1) for k in range(n + 1)]
    _expect(problems, "horns", [(h.get("bounds", {}).get("n"), h.get("bounds", {}).get("k")) for h in horns], want)
    for h in horns:
        b = h.get("bounds", {})
        n, k = b.get("n"), b.get("k")
        _expect(problems, f"horn({n},{k})", (h.get("verdict"), b.get("unfillable"), b.get("horn_maps")),
                ("pass", 0, horn_maps(m, n) if isinstance(n, int) else None))
    return problems


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    max_dim: int
    extra: tuple
    check: Callable[[dict], list]
    example_fn: Callable[[int], str]
    # level counts of spaces the traced run sees built, by span name
    levels: dict = field(default_factory=dict)

    def example(self, seed: int) -> str:
        return self.example_fn(seed)

    def argv(self, seed: int) -> list[str]:
        return [self.verb, "--example", self.example(seed), "--max-dim", str(self.max_dim), *self.extra]

    def verify(self, report: dict, seed: int) -> list[str]:
        """Problems with one report; empty when it matches the oracle."""
        problems = []
        _expect(problems, "command echo", report.get("command"), self.argv(seed))
        return problems + self.check(report.get("results", {}))


def _fixed(example: str) -> Callable[[int], str]:
    return lambda seed: example


COMPARE_LEVELS = {
    "nerves.classifying_space": compare_counts(2, 3)["B"],
    "nerves.coherent_nerve": [2 ** (n * (n - 1) // 2) for n in range(4)],
}

# Why each workload is in the benchmark: see BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-bgz2-L3-f2", "compare", 3, ("--coeff", "f2"),
            lambda r: check_compare(r, "f2"), _fixed("bg:z2"), COMPARE_LEVELS,
        ),
        Workload(
            "homology-bgz2-L4-f2", "homology", 4, ("--coeff", "f2"),
            lambda r: check_homology_f2(r, (1, 0, 1, 1)), _fixed("bg:z2"),
            {"nerves.classifying_space": compare_counts(2, 4)["B"]},
        ),
        Workload(
            "homology-rp2-z", "homology", 3, (),
            lambda r: check_homology_z(r, ((1, ()), (0, (2,)), (0, ()))), rp2_face_poset,
        ),
        Workload(
            "horncheck-bgz3-D4", "horncheck", 4, (),
            lambda r: check_horncheck(r, 3, 4), _fixed("bg:z3"),
        ),
    )
}

# Runnable by name but not part of the benchmark: every run fails at the
# commit that introduced the benchmark ("image leaves the cycle lattice" in
# degree 2), and a benchmark workload must not fail. Once it passes, it
# replaces compare-bgz2-L3-f2.
KNOWN_DEFECTS = {
    "compare-bgz2-L3-z": Workload(
        "compare-bgz2-L3-z", "compare", 3, (),
        lambda r: check_compare(r, "z"), _fixed("bg:z2"), COMPARE_LEVELS,
    ),
}
