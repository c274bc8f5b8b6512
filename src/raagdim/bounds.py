"""Dimension bound engine for right-angled Artin groups.

Given a flag complex L, combines exact homology, nonvanishing certificates,
the top coboundary solve and the star/link recursion into certified
intervals for the van Kampen dimension of the octahedralization, the
embedding dimension, and the action dimension of the associated group.
There is one lower-bound search, `_lower_bounds`: the octahedral sphere,
the highest certified degree above the running bound, then the bound of
every vertex link plus one (vkdim(OL) >= vkdim(O lk v) + 1).  `analyze`
records each rise of the bound, and `vkdim_lower` keeps the last.

The link search is branch and bound (see `vkdim_lower`): a link is
searched only for a value that would raise the running bound, and none is
built once that bound reaches 2 dim L - 1, the most a link can give.
Every emitted bound re-checks its hypothesis and carries a named rule;
bounds resting on an unprovable step carry caveats and, when the step is
genuinely open (the dimension-2 completeness gap), stay out of the
certified interval.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import SimplicialComplex, is_flag, link
from .homology import mod2_betti, rational_betti
from .obstruction import MAX_CELLS, CycleCertificate, VanishingResult, certify_nonvanishing, certify_vanishing

CAVEAT_DIM2_INCOMPLETE = "top-obstruction-incomplete-in-dim-2"
CAVEAT_CODIMENSION = "codimension-hypothesis-unverified"
CAVEAT_MOD2_ONLY = "mod-2-vanishing-only"

# Depth of the star/link recursion below the analyzed complex.
STAR_DEPTH = 3


class BoundRecord(NamedTuple):
    quantity: str  # 'vkdim' | 'embdim' | 'actdim'
    kind: str  # 'lower' | 'upper'
    value: int
    rule: str
    detail: str
    caveats: tuple = ()
    in_interval: bool = True

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "kind": self.kind,
            "value": self.value,
            "rule": self.rule,
            "detail": self.detail,
            "caveats": list(self.caveats),
            "certified": self.in_interval,
        }


class DimensionReport(NamedTuple):
    vertices: int
    dim: int
    flag: bool
    missing_clique: tuple | None
    gd: int
    l2dim: int | None
    mod2_betti: tuple
    rational_betti: tuple
    vkdim: tuple
    embdim: tuple
    actdim: tuple | None
    conjecture_status: str | None
    records: tuple
    certificate: CycleCertificate | None
    sub_certificates: tuple
    vanishing: VanishingResult | None
    warnings: tuple = ()

    @property
    def determined(self) -> bool:
        spans = [self.vkdim, self.embdim] + ([self.actdim] if self.flag else [])
        return all(s is not None and s[0] == s[1] for s in spans)


def geometric_dimension(L: SimplicialComplex) -> int:
    """dim L + 1 for a nonempty L; the trivial group gets 0."""
    if L.dim < 0:
        return 0
    return L.dim + 1


def l2_dimension(betti: tuple) -> int | None:
    """1 + the top degree with nonzero reduced rational homology, or None
    when every reduced Betti number vanishes; `betti` is rational_betti(L)."""
    nonzero = [i for i, b in enumerate(betti) if b]
    if not nonzero:
        return None
    return 1 + max(nonzero)


def is_full_simplex(L: SimplicialComplex) -> bool:
    return L.dim >= 0 and len(L.vertices) == L.dim + 1


def _lower_bounds(L: SimplicialComplex, depth: int, cache: dict, above: int):
    """(value, rule, what, why) each time the running bound, from `above`,
    rises: for the octahedral sphere (what None); for the highest degree d
    with 2d above the bound and the sphere floor -1 where
    `certify_nonvanishing` finds a certificate (what (d, certificate));
    while `depth > 0`, for each vertex v whose link, asked through
    `vkdim_lower` above the bound - 1, beats it (what (v, link bound,
    why)).  `why` is the rise's explanation in `vkdim_lower`; the
    rule and `what` are the data `analyze` records.  A link gives at most
    2 dim L - 1, so from that bound on none is built."""
    if is_full_simplex(L) and L.dim - 1 > above:
        above = L.dim - 1
        yield above, "octahedral-sphere", None, f"octahedral sphere of dimension {L.dim}"
    above = max(above, -1)
    for degree in range(L.dim, -1, -1):
        if 2 * degree <= above:
            break
        cert = certify_nonvanishing(L, degree)
        if cert is not None:
            above = 2 * degree
            yield above, "covering-chain-certificate", (degree, cert), f"covering-chain certificate in degree {degree}"
            break
    if depth <= 0:
        return
    ceiling = 2 * L.dim - 1
    for v in L.vertices:
        if above >= ceiling:
            return
        lk = link(L, (v,))
        if lk.dim >= 0:
            found = vkdim_lower(lk, depth - 1, cache, above - 1)
            if found is not None:
                above = found[0] + 1
                yield above, "star-link", (v, *found), "star/link at vertex {!r}: link gives {} ({})".format(v, *found)


def vkdim_lower(L: SimplicialComplex, depth: int = STAR_DEPTH, _cache=None, _above=-2):
    """Certified lower bound for the van Kampen dimension of the
    octahedralization, from the certificate search in all degrees
    (`certify_nonvanishing`) and the star/link recursion over vertices
    (capped at `depth`): the last value that `_lower_bounds` yields, or
    the sphere floor.

    Returns (value, explanation).  The floor for a nonempty complex is -1
    (the octahedralization of a vertex is a 0-sphere), so a call without
    `_above` always gets the pair; an empty complex gets
    (None, "empty complex").  The private `_above` asks only for a value
    above it: the call returns the exact (value, explanation) when the
    value beats `_above` and None when it does not.

    The value is at most 2 dim L, by induction on the dimension: a
    certificate lives in a degree d <= dim L and gives 2d, and a link
    gives at most 2 (dim L - 1) + 1.  The search relies on it, so a value
    above it raises RuntimeError.  With the threshold the search keeps a
    candidate only when it beats both `_above` and the candidates before
    it, in the order floor, full simplex, certificate, vertex links.  The
    unpruned search keeps the first candidate that reaches the maximum; if
    that maximum beats `_above`, the pruned search keeps the same
    candidate, and if it does not, nothing passes.  So the explanation is
    the same one, and the certificate floor and every link's threshold
    can be raised to `_above` without changing it.

    `_cache` maps (complex, depth), as the depth left changes the bound,
    to the exact pair or to an int t proven to bound the value from
    above.  A bound t answers every call whose threshold is at least t;
    any other call searches again and refines the entry.
    """
    if _cache is None:
        _cache = {}
    if L.dim < 0:
        return None, "empty complex"
    if 2 * L.dim <= _above:
        return None
    known = _cache.get((L, depth))
    if type(known) is tuple:
        return known if known[0] > _above else None
    if known is not None and known <= _above:
        return None
    best = (-1, "sphere floor: the doubled vertex pair")
    for value, _rule, _what, why in _lower_bounds(L, depth, _cache, _above):
        best = (value, why)
    if best[0] > 2 * L.dim:
        raise RuntimeError(f"star/link bound {best[0]} exceeds twice the dimension {L.dim}: {best[1]}")
    if best[0] <= _above:
        _cache[L, depth] = _above
        return None
    _cache[L, depth] = best
    return best


def analyze(L: SimplicialComplex, allow_non_flag: bool = False, integral: bool = False,
            max_cells: int = MAX_CELLS) -> DimensionReport:
    """Assemble the full dimension report for a complex.

    Flag complexes get group-level conclusions; non-flag inputs (accepted
    only when `allow_non_flag`) get the octahedralization bounds and a
    warning, since the group dictionary needs flagness.  An empty complex,
    or a non-flag one without `allow_non_flag`, raises ValueError, whose
    message the CLI prints.
    """
    if L.dim < 0:
        raise ValueError("empty complex: the associated group is trivial")
    witness = is_flag(L)
    if not witness.flag and not allow_non_flag:
        raise ValueError(
            f"complex is not flag (missing clique {witness.missing_clique!r}); "
            "pass allow_non_flag=True (--allow-non-flag) to analyze the octahedralization only"
        )
    warnings: list = []
    records: list = []
    k = L.dim
    gd = geometric_dimension(L)
    betti2 = mod2_betti(L)
    bettiq = rational_betti(L)
    l2 = l2_dimension(bettiq)

    def end(quantity: str, kind: str) -> int:
        """One end of a certified interval, from the records so far: the max
        of the certified lower bounds, or the min of the upper ones.  Only
        the vkdim lower end can lack a record: it is then the sphere floor
        -1."""
        values = [r.value for r in records if r.quantity == quantity and r.kind == kind and r.in_interval]
        return max(values, default=-1) if kind == "lower" else min(values)

    # --- van Kampen dimension of the octahedralization -----------------
    records.append(BoundRecord("vkdim", "upper", 2 * k,
                               "top-degree", "pair cells stop at twice the complex dimension"))
    sphere = is_full_simplex(L)
    certificate = None
    sub_certs: tuple = ()
    for value, rule, what, _why in _lower_bounds(L, STAR_DEPTH, {}, -2):
        if rule == "octahedral-sphere":
            detail = f"the octahedralization is the {k}-sphere"
            records.append(BoundRecord("vkdim", "lower", value, rule, detail))
            records.append(BoundRecord("vkdim", "upper", value, rule, detail))
            continue
        if rule == "covering-chain-certificate":
            degree, cert = what
            if degree == k:
                certificate = cert
                detail = "top cocycle pairs to 1 with the certificate cycle"
            else:
                sub_certs = (cert,)
                detail = f"certificate on the {degree}-skeleton"
        else:
            detail = "link of {!r} gives {}: {}".format(*what)
        records.append(BoundRecord("vkdim", "lower", value, rule, detail))

    vanishing = None
    if certificate is None and k >= 1:
        vanishing = certify_vanishing(L, integral=integral, max_cells=max_cells)
        if vanishing.status == "primitive":
            records.append(BoundRecord("vkdim", "upper", 2 * k - 1, "top-cocycle-coboundary",
                                       "the top cocycle is a coboundary mod 2"))
            if vanishing.reason:
                warnings.append(f"integer coboundary solve skipped: {vanishing.reason}")
        elif vanishing.status == "obstructed":
            records.append(BoundRecord("vkdim", "lower", 2 * k, "cocycle-pairing-witness",
                                       "unsolvability witness cycle pairs to 1"))
        else:
            warnings.append(f"coboundary solve skipped: {vanishing.reason}")

    vanished = vanishing is not None and vanishing.status == "primitive"
    # Without an integer primitive, nonzero top homology leaves the
    # vanishing route resting on the mod-2 solve alone.
    mod2_only = vanished and betti2[k] != 0 and vanishing.integral_primitive is None

    vk_lo, vk_hi = end("vkdim", "lower"), end("vkdim", "upper")

    # --- embedding dimension of the octahedralization ------------------
    records.append(BoundRecord("embdim", "lower", vk_lo + 1, "embdim-above-vkdim",
                               "embedding dimension exceeds the van Kampen dimension"))
    if sphere:
        records.append(BoundRecord("embdim", "upper", k, "octahedral-sphere",
                                   "a sphere embeds in itself"))
    else:
        records.append(BoundRecord("embdim", "upper", 2 * k + 1, "general-position",
                                   "any k-complex embeds in dimension 2k+1"))
    if vanished:
        caveats = []
        if k == 2:
            caveats.append(CAVEAT_DIM2_INCOMPLETE)
        if mod2_only:
            caveats.append(CAVEAT_MOD2_ONLY)
        records.append(BoundRecord("embdim", "upper", 2 * k, "vanishing-route",
                                   "vanishing top obstruction is complete away from dimension 2",
                                   caveats=tuple(caveats), in_interval=not caveats))
    emb_lo, emb_hi = end("embdim", "lower"), end("embdim", "upper")

    # --- action dimension of the group ----------------------------------
    actdim = None
    conjecture = None
    if witness.flag:
        records.append(BoundRecord("actdim", "lower", gd, "classifying-space",
                                   "a proper action on a contractible n-manifold yields an n-dimensional classifying space"))
        if vk_lo + 2 > gd:
            records.append(BoundRecord("actdim", "lower", vk_lo + 2, "obstructor",
                                       "the octahedralization sits in the boundary at infinity"))
        records.append(BoundRecord("actdim", "upper", 2 * gd, "double-geometric-dimension",
                                   "thicken a classifying space to a manifold of twice its dimension"))
        if sphere:
            records.append(BoundRecord("actdim", "upper", gd, "free-abelian",
                                       "a full simplex gives a free abelian group acting on euclidean space"))
        if vanished and k != 2:
            caveats = [CAVEAT_CODIMENSION] if 2 * k <= k + 2 else []
            if mod2_only:
                caveats.append(CAVEAT_MOD2_ONLY)
            records.append(BoundRecord("actdim", "upper", 2 * k + 1, "vanishing-route",
                                       "vanishing top obstruction caps the action dimension at 2k+1",
                                       caveats=tuple(caveats), in_interval=not mod2_only))
        elif vanished and k == 2:
            records.append(BoundRecord("actdim", "upper", 2 * k + 1, "vanishing-route",
                                       "would follow if the top obstruction were complete in dimension 2",
                                       caveats=(CAVEAT_DIM2_INCOMPLETE,), in_interval=False))
        act_lo = end("actdim", "lower")
        actdim = (act_lo, end("actdim", "upper"))
        if l2 is None:
            conjecture = "vacuous"
        elif act_lo >= 2 * l2:
            conjecture = "verified"
        else:
            conjecture = "open-here"
    else:
        warnings.append("input is not flag: group-level conclusions are omitted")

    for lo, hi in filter(None, ((vk_lo, vk_hi), (emb_lo, emb_hi), actdim)):
        if lo > hi:
            raise RuntimeError(f"inconsistent certified bounds: [{lo}, {hi}]")

    return DimensionReport(
        vertices=len(L.vertices),
        dim=k,
        flag=witness.flag,
        missing_clique=witness.missing_clique,
        gd=gd,
        l2dim=l2,
        mod2_betti=betti2,
        rational_betti=bettiq,
        vkdim=(vk_lo, vk_hi),
        embdim=(emb_lo, emb_hi),
        actdim=actdim,
        conjecture_status=conjecture,
        records=tuple(records),
        certificate=certificate,
        sub_certificates=sub_certs,
        vanishing=vanishing,
        warnings=tuple(warnings),
    )
