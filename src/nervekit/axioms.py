"""Whole-object validators: every axiom of a simplicial set, bisimplicial
set, simplicial category, relative category or functor, checked by
enumeration with the witnessing cell named.

Only the ``validate`` verb, loading a document (`nervekit.schema`) and
the functor search (`nervekit.gadgets`) run these, so ``import
nervekit`` does not load this module up front: the package resolves
its names on first use. `sset.validate_map`, which ``compare`` runs on
the comparison map, stays with the maps (its body in `nervekit.maps`).
"""

from __future__ import annotations

from .bisimplicial import BisimplicialSet
from .bitables import _bisset_families
from .cat import RelativeSimplicialCategory, SimplicialCategory
from .components import _pi0_classes
from .functors import SimplicialFunctor
from .reporting import ValidationReport
from .spaces import ProductSset, vertices
from .sset import SimplicialMap, SimplicialSet, _families, validate_map


def validate_sset(X, subject: str = "") -> ValidationReport:
    """Check every simplicial identity that fits inside the truncation.

    Covers table shapes and ranges, the face-face and
    degeneracy-degeneracy exchange laws, and all mixed relations.
    Violations name the identity, the operator indices and the cell.
    """
    rep = ValidationReport(subject or getattr(X, "name", "") or "simplicial set")
    D = X.D
    ranged = True
    if isinstance(X, SimplicialSet):
        families = [
            (getattr(X, kind + "s"), "face" if step < 0 else "degeneracy", symbol, rows, step)
            for kind, symbol, rows, step in _families(D)
        ]
        for tables, noun, _, rows, _ in families:
            for n in range(D + 1):
                if rows(n) and (len(tables[n]) != rows(n) or any(len(r) != X.cards[n] for r in tables[n])):
                    rep.add("table shape", (n,), f"{noun} tables misshapen")
                    ranged = False
        if not ranged:
            return rep
        for tables, noun, symbol, rows, step in families:
            for n in range(D + 1):
                for i in range(rows(n)):
                    for x, v in enumerate(tables[n][i]):
                        if not 0 <= v < X.cards[n + step]:
                            rep.add(f"{noun} range", (n, i, x), f"{symbol}_{i} lands at {v}")
                            ranged = False
        if not ranged:
            return rep
    for n in range(2, D + 1):
        for j in range(n + 1):
            for i in range(j):
                for x in range(X.card(n)):
                    lhs = X.face(n - 1, i, X.face(n, j, x))
                    rhs = X.face(n - 1, j - 1, X.face(n, i, x))
                    rep.checked += 1
                    if lhs != rhs:
                        rep.add("d_i d_j = d_{j-1} d_i", (n, i, j, x), f"{lhs} != {rhs}")
    for n in range(D - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for x in range(X.card(n)):
                    lhs = X.degen(n + 1, i, X.degen(n, j, x))
                    rhs = X.degen(n + 1, j + 1, X.degen(n, i, x))
                    rep.checked += 1
                    if lhs != rhs:
                        rep.add("s_i s_j = s_{j+1} s_i", (n, i, j, x), f"{lhs} != {rhs}")
    for n in range(D):
        for j in range(n + 1):
            for x in range(X.card(n)):
                sx = X.degen(n, j, x)
                for i in range(n + 2):
                    got = X.face(n + 1, i, sx)
                    rep.checked += 1
                    if i == j or i == j + 1:
                        if got != x:
                            rep.add("d_j s_j = id = d_{j+1} s_j", (n, i, j, x), f"{got} != {x}")
                    elif i < j:
                        want = X.degen(n - 1, j - 1, X.face(n, i, x))
                        if got != want:
                            rep.add("d_i s_j = s_{j-1} d_i", (n, i, j, x), f"{got} != {want}")
                    else:
                        want = X.degen(n - 1, j, X.face(n, i - 1, x))
                        if got != want:
                            rep.add("d_i s_j = s_j d_{i-1}", (n, i, j, x), f"{got} != {want}")
    return rep


def validate_bisset(X: BisimplicialSet, subject: str = "") -> ValidationReport:
    """Both directions' simplicial identities plus all commutation squares."""
    rep = ValidationReport(subject or X.name or "bisimplicial set")
    for q in range(X.Q + 1):
        rep.merge(validate_sset(X.row(q), subject=f"row {q}"), f"row {q}: ")
    for p in range(X.P + 1):
        rep.merge(validate_sset(X.column(p), subject=f"column {p}"), f"column {p}: ")
    if not rep.ok:
        return rep
    families = _bisset_families(X.P, X.Q)
    # each horizontal family against each vertical one
    squares = [
        (getattr(X, h), hrows, dp, getattr(X, v), vrows, dq, f"{vs}_j {hs}_i = {hs}_i {vs}_j")
        for h, hs, hrows, dp, _ in families[:2]
        for v, vs, vrows, _, dq in families[2:]
    ]
    for p in range(X.P + 1):
        for q in range(X.Q + 1):
            for x in range(X.card(p, q)):
                for hop, hrows, dp, vop, vrows, dq, law in squares:
                    for i in range(hrows(p, q)):
                        for j in range(vrows(p, q)):
                            rep.checked += 1
                            lhs = vop(p + dp, q, j, hop(p, q, i, x))
                            rhs = hop(p, q + dq, i, vop(p, q, j, x))
                            if lhs != rhs:
                                rep.add(law, (p, q, i, j, x), f"{lhs} != {rhs}")
    return rep


def validate_simplicial_category(SC: SimplicialCategory, subject: str = "") -> ValidationReport:
    """Check hom validity, simpliciality of composition, units, associativity.

    Each composition's tables are checked as a map out of the product
    ``ProductSset(hom(b, c), hom(a, b))``, whose pairing is the index
    ``g * hom(a, b).card(n) + f`` of the tables.
    """
    rep = ValidationReport(subject or SC.name or "simplicial category")
    L = SC.D
    for (a, b), H in SC.homs.items():
        rep.merge(validate_sset(H, subject=f"hom({a},{b})"), f"hom({a},{b}): ")
    for a in SC.objects:
        if (a, a) not in SC.homs or not 0 <= SC.ids.get(a, -1) < SC.hom(a, a).card(0):
            rep.add("identity vertex", (a,), "missing or out of range")
            return rep
    shaped = True
    for (a, b), F in SC.homs.items():
        for (b2, c), G in SC.homs.items():
            tables = SC.comps.get((a, b, c))
            if b2 == b and (tables is not None or F.card(0) and G.card(0)):
                sizes = [G.card(n) * F.card(n) for n in range(L + 1)]
                if tables is None or [len(t) for t in tables] != sizes:
                    rep.add("composition table", (a, b, c), f"missing or not of sizes {sizes}")
                    shaped = False
    if not shaped:
        return rep
    in_range = True
    for (a, b, c), tables in SC.comps.items():
        view = SimplicialMap(ProductSset(SC.hom(b, c), SC.hom(a, b)), SC.hom(a, c), values=tables)
        sub = validate_map(view, subject=f"comp({a},{b},{c})")
        rep.merge(sub, f"comp({a},{b},{c}) simplicial: ")
        in_range = in_range and all(v.identity != "value range" for v in sub.violations)
    if not in_range:
        # the unit and associativity checks would compose the stray entries
        return rep
    for (a, b), H in SC.homs.items():
        for n in range(L + 1):
            ida = SC.identity_cell(a, n)
            idb = SC.identity_cell(b, n)
            for f in range(H.card(n)):
                rep.checked += 1
                if SC.compose(a, a, b, n, f, ida) != f:
                    rep.add("right unit", (a, b, n, f), "f after id differs from f")
                if SC.compose(a, b, b, n, idb, f) != f:
                    rep.add("left unit", (a, b, n, f), "id after f differs from f")
    for a in SC.objects:
        for b in SC.objects:
            for c in SC.objects:
                for d in SC.objects:
                    if any(
                        (p, q) not in SC.homs
                        for p, q in [(a, b), (b, c), (c, d)]
                    ):
                        continue
                    for n in range(L + 1):
                        fs = range(SC.hom(a, b).card(n))
                        gs = range(SC.hom(b, c).card(n))
                        hs = range(SC.hom(c, d).card(n))
                        for f in fs:
                            for g in gs:
                                gf = SC.compose(a, b, c, n, g, f)
                                for h in hs:
                                    rep.checked += 1
                                    lhs = SC.compose(a, c, d, n, h, gf)
                                    rhs = SC.compose(
                                        a, b, d, n, SC.compose(b, c, d, n, h, g), f
                                    )
                                    if lhs != rhs:
                                        rep.add(
                                            "associativity",
                                            (a, b, c, d, n, f, g, h),
                                            f"{lhs} != {rhs}",
                                        )
    return rep


def validate_relative(R: RelativeSimplicialCategory, subject: str = "") -> ValidationReport:
    """Check the wide-subcategory conditions with witness cells.

    Covers: index validity, closure of each sub hom under faces and
    degeneracies, presence of identities, closure under composition,
    and wideness (each sub hom is exactly the set of cells living in a
    union of connected components). A sub list of the wrong length or
    holding a cell out of range ends the check there.
    """
    rep = ValidationReport(subject or R.name)
    SC = R.cat
    for (a, b), per_level in R.sub.items():
        if (a, b) not in SC.homs:
            rep.add("sub pair exists", (a, b), "sub on an empty hom")
            continue
        H = SC.hom(a, b)
        # the checks below would read a missing level or a stray cell
        if len(per_level) != SC.D + 1:
            rep.add("sub shape", (a, b), "per-level list has wrong length")
            return rep
        stray = [(n, x) for n in range(SC.D + 1) for x in per_level[n] if not 0 <= x < H.card(n)]
        for n, x in stray:
            rep.add("sub cell range", (a, b, n, x), "cell out of range")
        if stray:
            return rep
        for kind, _, rows, step in _families(SC.D):
            noun, nouns = ("face", "faces") if step < 0 else ("degeneracy", "degeneracies")
            for n in range(SC.D + 1):
                for x in per_level[n]:
                    for i in range(rows(n)):
                        rep.checked += 1
                        if getattr(H, kind)(n, i, x) not in per_level[n + step]:
                            rep.add(f"sub closed under {nouns}", (a, b, n, i, x), f"{noun} escapes sub")
    for a in SC.objects:
        for n in range(SC.D + 1):
            rep.checked += 1
            if SC.identity_cell(a, n) not in R.sub_cells(a, a, n):
                rep.add("identities in sub", (a, n), "identity cell missing from sub")
    for (a, b, c), m in SC.comps.items():
        for n in range(SC.D + 1):
            for g in R.sub_cells(b, c, n):
                for f in R.sub_cells(a, b, n):
                    rep.checked += 1
                    if SC.compose(a, b, c, n, g, f) not in R.sub_cells(a, c, n):
                        rep.add("sub closed under composition", (a, b, c, n, g, f), "composite escapes sub")
    for (a, b), H in SC.homs.items():
        classes = _pi0_classes(H)
        kept = {classes[v] for v in R.sub_cells(a, b, 0)}
        for n in range(SC.D + 1):
            in_sub = R.sub_cells(a, b, n)
            for x in range(H.card(n)):
                rep.checked += 1
                belongs = classes[vertices(H, n, x)[0]] in kept
                if belongs and x not in in_sub:
                    rep.add("wideness", (a, b, n, x), "cell in a marked component but not in sub")
                if not belongs and x in in_sub:
                    rep.add("wideness", (a, b, n, x), "sub cell outside the marked components")
    return rep


def validate_functor(F: SimplicialFunctor, subject: str = "functor") -> ValidationReport:
    """Check hom maps are simplicial, identities and composition preserved."""
    rep = ValidationReport(subject)
    S, T = F.source, F.target
    L = S.D
    in_range = True
    for (a, b), H in S.homs.items():
        if (a, b) not in F.homs:
            rep.add("hom map present", (a, b), "missing hom component")
            return rep
        sub = validate_map(F.homs[(a, b)], subject=f"hom({a},{b})")
        rep.merge(sub, f"hom({a},{b}) simplicial: ")
        in_range = in_range and all(v.identity != "value range" for v in sub.violations)
    if not in_range:
        # the identity and composition checks would compose the stray values
        return rep
    for a in S.objects:
        rep.checked += 1
        if F.apply_hom(a, a, 0, S.identity_cell(a, 0)) != T.identity_cell(F.obj[a], 0):
            rep.add("identity preserved", (a,), "image of identity vertex differs")
    for (a, b, c) in S.comps.keys():
        fa, fb, fc = F.obj[a], F.obj[b], F.obj[c]
        for n in range(L + 1):
            cg = S.hom(b, c).card(n)
            cf = S.hom(a, b).card(n)
            for g in range(cg):
                for f in range(cf):
                    rep.checked += 1
                    lhs = F.apply_hom(a, c, n, S.compose(a, b, c, n, g, f))
                    rhs = T.compose(
                        fa, fb, fc, n, F.apply_hom(b, c, n, g), F.apply_hom(a, b, n, f)
                    )
                    if lhs != rhs:
                        rep.add("composition preserved", (a, b, c, n, g, f), f"{lhs} != {rhs}")
    return rep
