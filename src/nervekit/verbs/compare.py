"""``compare``: the comparison map, its chain isomorphism and the agreement of its routes."""

from __future__ import annotations

from ..homology import induced_chain_iso
from ..nerves import comparison_map, consistency_check
from ..sset import validate_map
from . import _as_cat, _level_bound


def run(args, value, results: dict) -> bool:
    SC = _as_cat(value)
    f = comparison_map(SC, _level_bound(args, SC.D))
    vrep = validate_map(f, subject="comparison map")
    iso = induced_chain_iso(f, coeff=args.coeff)
    cons = consistency_check(SC, f)
    results["map_simplicial"] = vrep.to_json()
    results["chain_iso"] = iso.to_json()
    results["consistency"] = cons.to_json()
    return not (vrep.ok and iso.ok and cons.ok)
