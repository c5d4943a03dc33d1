"""Case-by-case construction of tripod structures on wheel Cayley graphs.

Terminals in one copy route through the copy plus neighbor copies;
terminals split two/one harvest copy paths and fan from the lone vertex;
terminals in three copies match slice vertices across copies and thread
the remaining demand through the untouched copies.  A terminal's doors are
its outside neighbors there; it has at least one, as its three outside
neighbors lie in three copies other than its own.  "Chat" paths join c's
doors one to one to the ends the plan names: doors of a or b, each with
its owner, and at most one bridge vertex.  Each route returns its
outcome as data, ``(structure, case_id, roles, aux)`` or None, and
``build_structure`` records the one CaseTrace.  A route that fails or misses
the standard bundle counts falls back to the generic solver on the whole
graph; the one full check of a structure is ``pairing.pair_structure``.
"""

from __future__ import annotations

import itertools
from collections import Counter

from ._util import mix_seed
from .certify import CASE_1_1, CASE_1_2_1, CASE_1_2_2, CASE_2, CASE_3_1, CASE_3_2, CASE_3_3
from .certify import CASE_EVEN, CASE_FALLBACK, CaseTrace
from .errors import (
    ConstructionFailed,
    DuplicateVertices,
    InsufficientConnectivity,
    WrongFamily,
)
from .flows import (
    disjoint_set_paths,
    k_fan,
    max_internally_disjoint_paths,
    shortest_path,
)
from .graphs import (
    CayleyGraph,
    Path,
    copy_union,
    cross_edges,
    delete_copies,
    full_view,
    outside_neighbors,
    spanning_intra_view,
)
from .perms import Family, compose, inverse, rank
from .tripod import solve_tripod
from .verification import StructureTarget, TripodStructure, standard_target


def _cat(*parts) -> Path:
    """Concatenate vertex runs, merging equal junction vertices."""
    out: list[int] = []
    for part in parts:
        vs = part.vertices if isinstance(part, Path) else tuple(part)
        if out and vs and out[-1] == vs[0]:
            out.extend(vs[1:])
        else:
            out.extend(vs)
    return Path(tuple(out))


def _bundle_between(structure: TripodStructure, x: int, y: int) -> list[Path]:
    o = structure.omega
    table = {
        frozenset((o[0], o[1])): structure.bundle_ab,
        frozenset((o[0], o[2])): structure.bundle_ac,
        frozenset((o[1], o[2])): structure.bundle_bc,
    }
    paths = table[frozenset((x, y))]
    return [p if p.vertices[0] == x else p.reverse() for p in paths]


# ------------------------------------------------------------- dispatcher

def build_structure(g: CayleyGraph, omega, seed: int = 0):
    """Build a tripod structure with ``standard_target(g.n)`` bundle
    counts for the terminal triple; its validity is checked by
    ``pairing.pair_structure``, not here.

    Routes return outcomes, not traces; this dispatcher records the one
    CaseTrace.  Returns (TripodStructure, CaseTrace); raises
    ConstructionFailed when even the generic fallback cannot realize the
    target.
    """
    if g.family is not Family.WHEEL:
        raise WrongFamily("structure construction runs on the wheel family")
    tri = tuple(sorted(omega))
    if len(set(tri)) != 3:
        raise DuplicateVertices(f"need three distinct terminals, got {tuple(omega)}")
    for v in tri:
        g.check_rank(v)
    target = standard_target(g.n)

    if g.n % 2 == 0:
        got = _case_even(g, tri, seed, target)
    else:
        copies = [g.copy_id[v] for v in tri]
        distinct = len(set(copies))
        if distinct == 1:
            got = _same_copy(g, tri, seed)
        elif distinct == 2:
            got = _two_copies(g, tri)
        else:
            got = _three_copies(g, tri)
    if got is None or got[0].counts() != target.as_tuple():
        got = _fallback(g, tri, seed, target)
    structure, case_id, roles, aux = got
    if structure.counts() != target.as_tuple():
        raise ConstructionFailed(f"bundle counts {structure.counts()} for terminals "
                                 f"{tri} miss the target {target.as_tuple()}")
    trace = CaseTrace(case_id, dict(zip("abc", roles)),
                      {r: g.copy_id[v] for r, v in zip("abc", roles)},
                      aux, case_id == CASE_FALLBACK, seed)
    return structure, trace


def _case_even(g, tri, seed, target):
    res = solve_tripod(spanning_intra_view(g), tri, target, seed)
    if isinstance(res, TripodStructure):
        return res, CASE_EVEN, tri, {}
    return None


def _fallback(g, tri, seed, target):
    res = solve_tripod(full_view(g), tri, target, mix_seed(seed, 0xFA11))
    if isinstance(res, TripodStructure):
        return res, CASE_FALLBACK, tri, {}
    raise ConstructionFailed(
        f"no structure for terminals {tri} at n={g.n}: {res.reason}")


# ------------------------------------------------------- one shared copy

def _detect_cyclic_triple(g, tri):
    """Ordered roles (A, B, C) with B = A t and C = B t for a 3-cycle
    t moving positions {1, j, j+1}, or None."""
    n = g.n
    perms = {v: g.perm(v) for v in tri}
    for A, B, C in itertools.permutations(tri):
        t = compose(inverse(perms[A]), perms[B])
        j = t.images[0]
        if not 2 <= j <= n - 2:
            continue
        if t.images[j - 1] != j + 1 or t.images[j] != 1:
            continue
        if any(t.images[i] != i + 1 for i in range(n) if i not in (0, j - 1, j)):
            continue
        if rank(compose(perms[B], t)) == C:
            return (A, B, C, j)
    return None


def _same_copy(g, tri, seed):
    d = g.n // 2
    K = g.copy_id[tri[0]]
    rot = _detect_cyclic_triple(g, tri)
    if rot is not None:
        got = _route_cyclic(g, K, rot, seed)
        if got is not None:
            return got
    cview = copy_union(g, {K})
    base_target = StructureTarget(2 * d - 2, 2 * d - 2, 2 * d - 2)
    for attempt in range(3):
        aseed = mix_seed(seed, 11, attempt)
        base = solve_tripod(cview, tri, base_target, aseed)
        if not isinstance(base, TripodStructure):
            continue
        hit = _scan_unused_neighbor(cview, tri, base)
        if hit is not None:
            t, w = hit
            return _route_1_1(g, K, tri, base, t, w, aseed)
        got = _route_1_2_1(g, K, cview, tri, base, aseed)
        if got is not None:
            return got
    return None


def _scan_unused_neighbor(cview, tri, base):
    used = set()
    for p in base.all_paths():
        used.update(p.vertices)
    for t in tri:
        for w in cview.neighbors(t):
            if w not in used:
                return (t, w)
    return None


def _route_1_1(g, K, tri, base, t, w, order_seed):
    """Terminal t has a copy neighbor w untouched by the base structure:
    t takes the role with the larger bundles and w doubles its exits."""
    others = [v for v in tri if v != t]
    a, b, c = others[0], others[1], t
    detours = _outside_detours(g, K, (a, b, c), w, order_seed)
    if detours is None:
        return None
    tagged = [("ab", p) for p in _bundle_between(base, a, b)]
    tagged += [("ac", p) for p in _bundle_between(base, a, c)]
    tagged += [("bc", p) for p in _bundle_between(base, b, c)]
    structure = TripodStructure.from_tagged((a, b, c), tagged + detours)
    return structure, CASE_1_1, (a, b, c), {"unused_neighbor": w}


def _spare_neighbors(cview, x, own, opposite):
    """Copy neighbours of x on no path of x's own bundles, each with the
    first path of the opposite bundle it lies on."""
    used = {v for p in own for v in p.vertices}
    for v in cview.neighbors(x):
        if v not in used:
            hit = next((p for p in opposite if v in p.vertices), None)
            if hit is not None:
                yield v, hit


def _route_1_2_1(g, K, cview, tri, base, order_seed):
    """Every copy neighbor of every terminal sits on some base path:
    cannibalize three paths to free a detour vertex g0 next to C."""
    for A, B, C in itertools.permutations(tri):
        ab = _bundle_between(base, A, B)
        ac = _bundle_between(base, A, C)
        bc = _bundle_between(base, B, C)
        c_pr, P1 = next(_spare_neighbors(cview, C, ac + bc, ab), (None, None))
        b_pr, Q1 = next(_spare_neighbors(cview, B, ab + bc, ac), (None, None))
        if P1 is None or Q1 is None:
            continue
        for a_pr, R1 in _spare_neighbors(cview, A, ab + ac, bc):
            idx = R1.vertices.index(a_pr)
            if len(R1.vertices) - 1 - idx >= 2:
                return _finish_1_2_1(g, K, (A, B, C), ab, ac, bc,
                                     (P1, Q1, R1), (a_pr, b_pr, c_pr), idx,
                                     order_seed)
    return None


def _finish_1_2_1(g, K, roles, ab, ac, bc, picked, primes, idx, order_seed):
    A, B, C = roles
    P1, Q1, R1 = picked
    a_pr, b_pr, c_pr = primes
    g0 = R1.vertices[-2]
    # rewire: ab keeps its count via the freed bc segment, ac and bc each
    # hand one vertex to a cross exit
    p1_star = Path((A,) + tuple(R1.vertices[idx::-1]))
    ci = P1.vertices.index(c_pr)
    q1_star = Path(tuple(P1.vertices[: ci + 1]) + (C,))
    qi = Q1.vertices.index(b_pr)
    r1_star = Path((B,) + tuple(Q1.vertices[qi:]))
    detours = _outside_detours(g, K, roles, g0, order_seed)
    if detours is None:
        return None
    tagged = [("ab", p1_star)] + [("ab", p) for p in ab if p is not P1]
    tagged += [("ac", q1_star)] + [("ac", p) for p in ac if p is not Q1]
    tagged += [("bc", r1_star)] + [("bc", p) for p in bc if p is not R1]
    structure = TripodStructure.from_tagged(roles, tagged + detours)
    return structure, CASE_1_2_1, roles, {
        "a_prime": a_pr, "b_prime": b_pr, "c_prime": c_pr, "detour": g0}


def _outside_detours(g, K, roles, detour, order_seed):
    """Four tagged paths outside copy K from C (its three outside neighbors,
    plus one through its copy neighbor ``detour``) to the first two outside
    neighbors of A and B, or None.  The eight ends differ (the detour is a
    fourth member of copy K, and copy-mates have pairwise distinct outside
    neighbors, ``tests/test_construct.py``) and CW_n minus K is
    (2n-4)-connected, so the linkage exists: callers try no other candidate."""
    A, B, C = roles
    a_out = outside_neighbors(g, A)
    b_out = outside_neighbors(g, B)
    c_out = outside_neighbors(g, C)
    d_plus = outside_neighbors(g, detour)[0]
    X = [c_out[0], c_out[1], c_out[2], d_plus]
    Y = [a_out[0], a_out[1], b_out[0], b_out[1]]
    outside = delete_copies(g, {K})
    try:
        fam = disjoint_set_paths(outside, X, Y, 4, order_seed=order_seed)
    except InsufficientConnectivity:
        return None
    tagged = []
    for p in fam.paths:
        prefix = (C, detour) if p.vertices[0] == d_plus else (C,)
        owner = A if p.vertices[-1] in (a_out[0], a_out[1]) else B
        tagged.append(("ac" if owner == A else "bc", _cat(prefix, p, (owner,))))
    return tagged


def _route_cyclic(g, K, rot, seed):
    """Roles form a rotation under a 3-cycle moving {1, j, j+1}: their
    outside neighbors pair up inside shared copies.

    The nine outside neighbors are distinct, and each paired region lies
    in its own copy other than K (``tests/test_lemmas.py`` walks every
    rotation at n = 5 and 7)."""
    A, B, C, j = rot
    outs = {V: outside_neighbors(g, V) for V in (A, B, C)}
    owner_of = {w: V for V in (A, B, C) for w in outs[V]}
    aP, aM, aS = outs[A]
    bP, bM, bS = outs[B]
    cP, cM, cS = outs[C]
    if j == 2:
        regions = [(aP, cS, "ac"), (aS, bP, "ab"), (bS, cP, "bc"), (bM, cM, "bc")]
    elif j == g.n - 2:
        regions = [(aP, bM, "ab"), (bP, cM, "bc"), (aM, cP, "ac"), (bS, cS, "bc")]
    else:
        return _route_cyclic_bridge(g, K, rot, outs, owner_of, seed)
    tally = Counter(tag for _u, _v, tag in regions)
    tagged_cross = []
    for u, v, tag in regions:
        inner = shortest_path(copy_union(g, {g.copy_id[u]}), u, v)
        tagged_cross.append((tag, _cat((owner_of[u],), inner, (owner_of[v],))))
    return _finish_cyclic(g, K, (A, B, C), j, tally, tagged_cross, seed,
                          regime=f"paired-j{j}")


def _finish_cyclic(g, K, roles, j, tally, tagged_cross, seed, regime):
    d = g.n // 2
    in_target = StructureTarget(
        2 * d - 2 - tally["ab"], 2 * d - tally["ac"], 2 * d - tally["bc"])
    base = solve_tripod(copy_union(g, {K}), roles, in_target, mix_seed(seed, 122))
    if not isinstance(base, TripodStructure):
        return None
    tagged = [("ab", p) for p in base.bundle_ab]
    tagged += [("ac", p) for p in base.bundle_ac]
    tagged += [("bc", p) for p in base.bundle_bc]
    tagged += tagged_cross
    structure = TripodStructure.from_tagged(roles, tagged)
    return structure, CASE_1_2_2, roles, {"rotation_step": j, "regime": regime}


def _tag(roles, u, v):
    """Bundle tag ("ab" | "ac" | "bc") of a path joining terminals u and v."""
    names = dict(zip(roles, "abc"))
    return "".join(sorted((names[u], names[v])))


def _route_cyclic_bridge(g, K, rot, outs, owner_of, seed):
    """Middle rotation steps leave the minus and star images unpaired;
    a cross edge between their two copies stitches them together.

    The minus images share one copy, the star images another, and the
    plus images lie in three distinct copies (``tests/test_lemmas.py``).
    Only the first cross edge clear of both image sets is tried: its two
    flows join 2 + 2 ends in a (2n-5)-connected copy, a re-anchored w-c*
    path runs in a copy minus two vertices, which stays connected, the
    a*-b* path and the tally {ab 1, ac 2, bc 1} hold for every bridged
    n = 7 triple (a slow gate in ``tests/test_construct.py``), and with
    that tally any edge makes the same ``solve_tripod`` call."""
    A, B, C, j = rot
    roles = (A, B, C)
    aP, aM, aS = outs[A]
    bP, bM, bS = outs[B]
    cP, cM, cS = outs[C]
    copy_minus, copy_star = g.copy_id[aM], g.copy_id[aS]
    vs = copy_union(g, {copy_star})
    plus_path = shortest_path(copy_union(g, {g.copy_id[v] for v in (aP, bP, cP)}), aP, cP)
    if plus_path is None:
        return None
    u, w = next((u, w) for u, w in cross_edges(g, copy_minus, copy_star)
                if u not in (aM, bM, cM) and w not in (aS, bS, cS))
    try:
        fam1 = disjoint_set_paths(copy_union(g, {copy_minus}), [aM, bM], [cM, u], 2)
        fam2 = disjoint_set_paths(vs, [aS, w], [bS, cS], 2)
    except InsufficientConnectivity:
        return None
    ends = {p.vertices[-1]: p for p in fam1.paths}
    starts = {p.vertices[0]: p for p in fam2.paths}
    to_u, to_cm, from_w, from_as = ends[u], ends[cM], starts[w], starts[aS]
    bridge_owner = owner_of[to_u.vertices[0]]
    if bridge_owner == B and from_w.vertices[-1] == bS:
        # a b-to-b bridge collapses; re-anchor the star copy
        from_w = shortest_path(vs.without({aS, bS}), w, cS)
        from_as = shortest_path(vs, aS, bS, avoid=from_w.vertices)
        if from_as is None:
            return None
    end_owner = owner_of[from_w.vertices[-1]]
    cm_owner = owner_of[to_cm.vertices[0]]
    as_owner = owner_of[from_as.vertices[-1]]
    tagged_cross = [
        (_tag(roles, bridge_owner, end_owner),
         _cat((bridge_owner,), to_u, from_w, (end_owner,))),
        (_tag(roles, cm_owner, C), _cat((cm_owner,), to_cm, (C,))),
        (_tag(roles, A, as_owner), _cat((A,), from_as, (as_owner,))),
        ("ac", _cat((A,), plus_path, (C,))),
    ]
    tally = Counter(tag for tag, _p in tagged_cross)
    return _finish_cyclic(g, K, roles, j, tally, tagged_cross, seed,
                          regime=f"bridged-j{j}")


# ------------------------------------------------------------- two copies

def _two_copies(g, tri):
    """a and c share copy K; b lies in another.  One pass, as every step
    succeeds by the lemmas ``tripaths lemmas`` checks: K is
    (2n-5)-connected, so the a-c flow returns 2n - 5 paths (fewer is
    final); a direct edge rules out common neighbours and two vertices
    share at most 3, so at most 3 paths are shorter than 3 edges and n - 4
    long ones exist; their 2n - 4 fan targets are distinct and never b (the
    star map is a bijection into other copies, and c's other outside
    neighbours differ from every star image of K); CW_n minus K is
    (2n-4)-connected, so the fan lemma gives the fan.  A failed lemma
    would surface as a fallback, which the zero-fallback gates count."""
    d = g.n // 2
    by_copy: dict[int, list[int]] = {}
    for v in tri:
        by_copy.setdefault(g.copy_id[v], []).append(v)
    K = next(cc for cc, vs in by_copy.items() if len(vs) == 2)
    a, c = sorted(by_copy[K])
    b = next(v for cc, vs in by_copy.items() if len(vs) == 1 for v in vs)
    star = g.star_image

    paths = list(max_internally_disjoint_paths(copy_union(g, {K}), a, c).paths)
    if len(paths) < 4 * d - 3:
        return None
    chosen = [p for p in paths if p.length >= 3][:2 * d - 3]
    keep = [p for p in paths if p not in chosen]

    directs: list[tuple[str, Path]] = []
    legs: list[tuple[str, int, int]] = []  # tag, copy vertex, fan target
    for p in chosen:
        u_i, v_i = p.vertices[1], p.vertices[-2]
        if star[u_i] == b:
            directs.append(("ab", Path((a, u_i, b))))
        else:
            legs.append(("ab", u_i, star[u_i]))
        if star[v_i] == b:
            directs.append(("bc", Path((b, v_i, c))))
        else:
            legs.append(("bc", v_i, star[v_i]))
    if star[a] == b:
        directs.append(("ab", Path((a, b))))
    else:
        legs.append(("ab", a, star[a]))
    for w in outside_neighbors(g, c):
        if w == b:
            directs.append(("bc", Path((b, c))))
        else:
            legs.append(("bc", c, w))

    targets = [t for _tag, _v, t in legs]
    try:
        # k_fan raises ValueError on a repeated target
        fanfam = k_fan(delete_copies(g, {K}), b, targets, len(targets))
    except (InsufficientConnectivity, ValueError):
        return None
    by_end = {p.vertices[-1]: p for p in fanfam.paths}
    tagged = [("ac", p) for p in keep] + list(directs)
    for tag, inner_v, tgt in legs:
        fp = by_end[tgt]
        if tag == "ab":
            run = (a,) if inner_v == a else (a, inner_v)
            tagged.append((tag, _cat(run, fp.reverse())))
        else:
            run = (c,) if inner_v == c else (inner_v, c)
            tagged.append((tag, _cat(fp, run)))
    structure = TripodStructure.from_tagged((a, b, c), tagged)
    return structure, CASE_2, (a, b, c), {
        "harvested": [p.vertices[1] for p in chosen]}


# ----------------------------------------------------------- three copies

def _star_pairs(g, copy):
    """(w, w*) for every member w of a copy, ascending.  The star image is
    read off ``g.star_image``: ``build_structure`` admits only the wheel
    family and copy members are in range, so the checks of
    ``outside_neighbors`` would repeat to no purpose."""
    members = g.copy_members[copy]
    return zip(members, map(g.star_image.__getitem__, members))


def _slice_pool(g, i_from, j_to, reserved):
    """Vertices w of copy i_from whose star image lands in copy j_to with
    both ends clear of reserved vertices; returns (w, w*) pairs ascending."""
    return [(w, ws) for w, ws in _star_pairs(g, i_from)
            if w not in reserved and g.copy_id[ws] == j_to and ws not in reserved]


def _extra_or_direct(root: int, target: int, far: int, tag: str, plan: dict) -> None:
    """Fan leg root->target followed by the edge target->far, degrading to
    the direct root-far edge when the target is the root terminal itself."""
    if target == root:
        plan["directs"].append((tag, Path((min(root, far), max(root, far)))))
    else:
        plan["extras"].append((root, target, far, tag))


def _three_copies(g, tri):
    n, d = g.n, g.n // 2
    outs = {v: outside_neighbors(g, v) for v in tri}
    term_copies = {g.copy_id[v] for v in tri}
    # at most two of a terminal's three outside copies hold terminals: h >= 1
    doors = {v: [w for w in outs[v] if g.copy_id[w] not in term_copies]
             for v in tri}
    h = {v: len(doors[v]) for v in tri}
    twos = sorted(v for v in tri if h[v] == 2)
    ones = sorted(v for v in tri if h[v] == 1)

    if twos:
        c = twos[0]
        t_c = next(w for w in outs[c] if g.copy_id[w] in term_copies)
        if t_c in tri:
            a = t_c
        else:
            a = next(v for v in tri if v != c and g.copy_id[v] == g.copy_id[t_c])
        b = next(v for v in tri if v not in (a, c))
        plan = _plan_3_1(g, a, b, c, t_c, doors, d)
        case_id = CASE_3_1
    elif len(ones) >= 2:
        b, c = ones[0], ones[1]
        a = next(v for v in tri if v not in (b, c))
        plan = _plan_3_2(g, a, b, c, outs, doors, d)
        case_id = CASE_3_2
    else:
        if ones:
            a = ones[0]
            b, c = sorted(v for v in tri if v != a)
        else:
            a, b, c = tri
        plan = _plan_3_3(a, b, c, doors, d)
        case_id = CASE_3_3

    # one attempt: every miss is deterministic or a max-flow value, seed or not
    chat_copies = frozenset(range(1, n + 1)) - term_copies
    built = _execute_three(g, (a, b, c), chat_copies, plan)
    if built is None:
        return None
    return built, case_id, (a, b, c), plan["aux"]


def _plan_3_1(g, a, b, c, t_c, doors, d):
    pick = next(((ya, yb) for ya in sorted(doors[a]) for yb in sorted(doors[b])
                 if ya != yb), None)
    if pick is not None:
        ya, yb = pick
        plan = {
            "xsizes": [2 * d - 2, 2 * d - 2, 2 * d - 1],
            "extras": [], "directs": [],
            "chat_x": sorted(doors[c]), "y_owner": {ya: a, yb: b}, "bridge": None,
            "aux": {"t_c": t_c},
        }
        _extra_or_direct(a, t_c, c, "ac", plan)
        return plan
    # both fans share one sole outer door w, so h[a] = h[b] = 1 and a and b
    # each have an outside neighbor in c's copy: leave via a bridge vertex
    w = doors[a][0]
    plan = {
        "xsizes": [2 * d - 2, 2 * d - 3, 2 * d - 2],
        "extras": [], "directs": [],
        "chat_x": sorted(doors[c]), "y_owner": {w: b}, "bridge": (a, "ac"),
        "aux": {"t_c": t_c, "shared_door": w},
    }
    _extra_or_direct(a, t_c, c, "ac", plan)
    # alpha_c != beta_c: two vertices share at most one outside neighbour,
    # as a^-1 b = st for outside generators s != t and the six ordered
    # pairs of (1 n), (n-1 n), (2 n) give six distinct 3-cycles st.  The
    # door w is that one, so alpha_c == beta_c, in c's copy, cannot occur
    alpha_c = next(v for v in outside_neighbors(g, a)
                   if v == c or g.copy_id[v] == g.copy_id[c])
    beta_c = next(v for v in outside_neighbors(g, b)
                  if v == c or g.copy_id[v] == g.copy_id[c])
    _extra_or_direct(c, alpha_c, a, "ac", plan)
    _extra_or_direct(c, beta_c, b, "bc", plan)
    return plan


def _plan_3_2(g, a, b, c, outs, doors, d):
    ia, ib, ic = g.copy_id[a], g.copy_id[b], g.copy_id[c]
    beta_a = next(v for v in outs[b] if v == a or g.copy_id[v] == ia)
    gamma_a = next(v for v in outs[c] if v == a or g.copy_id[v] == ia)
    gamma_b = next(v for v in outs[c] if v == b or g.copy_id[v] == ib)
    beta_c = next(v for v in outs[b] if v == c or g.copy_id[v] == ic)
    alpha0 = sorted(doors[a])[0]
    gamma0 = doors[c][0]
    plan = {
        "xsizes": [2 * d - 3, 2 * d - 2, 2 * d - 2],
        "extras": [], "directs": [],
        "chat_x": [gamma0], "y_owner": {alpha0: a}, "bridge": None,
        "aux": {"alpha0": alpha0, "gamma0": gamma0},
    }
    if beta_a == gamma_a and beta_a != a:
        # one shared helper next to both b and c: spend it on the a-c side
        plan["xsizes"][0] = 2 * d - 2
        plan["extras"].append((a, gamma_a, c, "ac"))
        plan["aux"]["shared_helper"] = beta_a
    else:
        _extra_or_direct(a, beta_a, b, "ab", plan)
        _extra_or_direct(a, gamma_a, c, "ac", plan)
    if gamma_b == b and beta_c == c:
        # b and c adjacent: both helper legs collapse onto one edge
        plan["directs"].append(("bc", Path((min(b, c), max(b, c)))))
        plan["xsizes"][2] = 2 * d - 1
    else:
        _extra_or_direct(b, gamma_b, c, "bc", plan)
        _extra_or_direct(c, beta_c, b, "bc", plan)
    return plan


def _plan_3_3(a, b, c, doors, d):
    # b and c have h = 3, so two doors of b differ from alpha0
    alpha0 = sorted(doors[a])[0]
    yb1, yb2 = [v for v in sorted(doors[b]) if v != alpha0][:2]
    return {
        "xsizes": [2 * d - 2, 2 * d - 1, 2 * d - 2],
        "extras": [], "directs": [],
        "chat_x": sorted(doors[c]), "y_owner": {alpha0: a, yb1: b, yb2: b},
        "bridge": None, "aux": {"alpha0": alpha0},
    }


def _execute_three(g, roles, chat_copies, plan):
    a, b, c = roles
    ia, ib, ic = g.copy_id[a], g.copy_id[b], g.copy_id[c]
    x1, x2, x3 = plan["xsizes"]
    ends = {"ab": (a, b), "ac": (a, c), "bc": (b, c)}
    chat_y = list(plan["y_owner"])
    reserved = {a, b, c} | set(plan["chat_x"]) | set(chat_y)
    reserved.update(target for _root, target, _far, _tag in plan["extras"])

    w1 = _slice_pool(g, ia, ib, reserved)
    w2 = _slice_pool(g, ia, ic, reserved)
    w3 = _slice_pool(g, ib, ic, reserved)
    if len(w1) < x1 or len(w2) < x2 or len(w3) < x3:
        return None
    matches = ([(w, ws, "ab") for w, ws in w1[:x1]]
               + [(w, ws, "ac") for w, ws in w2[:x2]]
               + [(w, ws, "bc") for w, ws in w3[:x3]])

    bridge = None
    if plan["bridge"] is not None:
        root, btag = plan["bridge"]
        used_from = {w for w, _ws, _t in matches} | reserved
        for v, v_star in _star_pairs(g, g.copy_id[root]):
            if v in used_from:
                continue
            if g.copy_id[v_star] in chat_copies and v_star not in reserved:
                bridge = (root, v, v_star, btag)
                chat_y.append(v_star)
                break
        if bridge is None:
            return None

    fan_targets: dict[int, list[int]] = {a: [], b: [], c: []}
    for w, ws, tag in matches:
        left, right = ends[tag]
        fan_targets[left].append(w)
        fan_targets[right].append(ws)
    for root, target, _far, _tag in plan["extras"]:
        fan_targets[root].append(target)
    if bridge is not None:
        fan_targets[bridge[0]].append(bridge[1])

    # no ValueError to catch: fan targets are distinct and never the reserved root
    fans: dict[int, dict[int, Path]] = {}
    for term, tgts in fan_targets.items():
        try:
            fam = k_fan(copy_union(g, {g.copy_id[term]}), term, tgts, len(tgts))
        except InsufficientConnectivity:
            return None
        fans[term] = {p.vertices[-1]: p for p in fam.paths}

    # no ValueError to catch: chat_x is c's doors (one per copy) or
    # [gamma0], chat_y the distinct y_owner keys plus a bridge end kept out
    # of them, and each plan gives c as many doors as chat ends
    try:
        fam = disjoint_set_paths(copy_union(g, chat_copies), plan["chat_x"], chat_y,
                                 len(plan["chat_x"]))
    except InsufficientConnectivity:
        return None
    # len(chat_x) == len(chat_y), so every chat end closes exactly one path
    chat = {p.vertices[-1]: p for p in fam.paths}

    tagged: list[tuple[str, Path]] = list(plan["directs"])
    for w, ws, tag in matches:
        left, right = ends[tag]
        tagged.append((tag, _cat(fans[left][w], fans[right][ws].reverse())))
    for root, target, far, tag in plan["extras"]:
        tagged.append((tag, _cat(fans[root][target], (far,))))
    if bridge is not None:
        root, u, u_star, btag = bridge
        tagged.append((btag, _cat(fans[root][u], chat.pop(u_star).reverse(), (c,))))
    for y, p in chat.items():
        # the plan reserved each other end as a door of its owner
        owner = plan["y_owner"][y]
        tagged.append(("ac" if owner == a else "bc", _cat((owner,), p.reverse(), (c,))))
    # each plan's tally is standard_target(n) exactly (tests/test_construct.py)
    return TripodStructure.from_tagged(roles, tagged)
