"""Property test: ``check_omega_path_set`` against the paper's definition.

Ω-paths P_1, ..., P_k of a view are internally disjoint when each P_i is
a path of the view through all of Ω, V(P_i) ∩ V(P_j) = Ω and
E(P_i) ∩ E(P_j) = ∅ for i ≠ j.  The Ω-path sets of built n = 4 and 5
structures are mutated (a path replaced, two paths spliced, a path
duplicated, truncated or reversed), and the checker's verdict must equal
that definition, computed here from pairwise set intersections.  The run
is derandomized, so it draws the same examples every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tripaths.construct import build_structure
from tripaths.graphs import Path, build, full_view
from tripaths.pairing import pair_structure, sample_triples
from tripaths.perms import Family
from tripaths.verification import check_omega_path_set


def _built(n, count):
    g = build(n, Family.WHEEL)
    view = full_view(g)
    out = []
    for tri in sample_triples(g, count, 1):
        structure, _ = build_structure(g, tri)
        out.append((structure.omega, pair_structure(view, structure).paths))
    # every Ω-path and bundle path of the graph's structures, for replacing and splicing
    pool = [p for omega, paths in out for p in paths]
    pool += [p for tri in sample_triples(g, 2, 2)
             for p in build_structure(g, tri)[0].bundle_ab]
    return view, out, pool


BUILT = {n: _built(n, count) for n, count in ((4, 4), (5, 6))}
OPS = st.tuples(st.sampled_from(["replace", "splice", "duplicate", "truncate", "reverse"]),
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=200))


def _mutate(paths, pool, op, i, j, cut, cut2):
    i %= len(paths)
    vs = paths[i].vertices
    other = pool[j % len(pool)].vertices
    if op == "replace":
        paths[i] = Path(other)
    elif op == "splice":
        paths[i] = Path(vs[:cut % (len(vs) + 1)] + other[cut2 % (len(other) + 1):])
    elif op == "duplicate":
        paths.append(paths[i])
    elif op == "truncate":
        paths[i] = Path(vs[:cut % (len(vs) + 1)])
    else:
        paths[i] = paths[i].reverse()


def _is_view_path(view, vs):
    return (len(vs) > 0 and len(set(vs)) == len(vs) and all(view.contains(v) for v in vs)
            and all(view.adjacent(x, y) for x, y in zip(vs, vs[1:])))


def _definition(view, omega, paths):
    verts = [set(p.vertices) for p in paths]
    edges = [{frozenset(e) for e in zip(p.vertices, p.vertices[1:])} for p in paths]
    return (all(_is_view_path(view, p.vertices) and set(omega) <= vs
                for p, vs in zip(paths, verts))
            and all(verts[i] & verts[j] == set(omega) and not edges[i] & edges[j]
                    for i in range(len(paths)) for j in range(i)))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(n=st.sampled_from([4, 5]), which=st.integers(min_value=0, max_value=20),
       ops=st.lists(OPS, max_size=3))
def test_omega_checker_agrees_with_the_definition(n, which, ops):
    view, built, pool = BUILT[n]
    omega, paths = built[which % len(built)]
    paths = list(paths)
    for op in ops:
        _mutate(paths, pool, *op)
    verdict = check_omega_path_set(view, omega, paths)
    assert verdict.ok == _definition(view, omega, paths), verdict.violations


def test_unmutated_sets_meet_the_definition():
    for view, built, _ in BUILT.values():
        for omega, paths in built:
            assert _definition(view, omega, paths)
            assert check_omega_path_set(view, omega, paths).ok
