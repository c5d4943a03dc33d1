"""Exact packing oracle for small views.

An integral program whose optimum is the largest number of internally
disjoint paths through all three terminals.  It cross-checks the
constructive bound in the tests and is the only user of scipy, so
nothing on the solve, verify or CLI path imports this module.

Variables, all integers:

- a 0/1 unit on each arc of each bundle's commodity (ab from a to b, ac
  from a to c, bc from b to c): both ways along every edge of the view,
  but no arc touches the third terminal, enters the source or leaves
  the sink;
- m_ab, m_ac, m_bc, the paths each bundle carries, at most the smaller
  degree of its two terminals;
- mu_a, mu_b, mu_c, the paths that join two bundles at that terminal,
  at most the largest cap on an m.

Rows: each commodity conserves flow at every vertex but its terminals,
and its source sends m_k; one unit enters each vertex outside omega and
one crosses each edge; mu_a + mu_b <= m_ab, mu_a + mu_c <= m_ac and
mu_b + mu_c <= m_bc.  The objective maximises mu_a + mu_b + mu_c.
"""

from __future__ import annotations

import math

from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import OracleScaleExceeded, TripathsError
from .verification import check_terminals

MILP_VERTEX_LIMIT = 40


def exact_pi(view, omega) -> int:
    """Exact maximum number of internally disjoint paths through all of
    omega, by integral multicommodity flow with pairing counters."""
    if view.vertex_count > MILP_VERTEX_LIMIT:
        raise OracleScaleExceeded(
            f"exact oracle capped at {MILP_VERTEX_LIMIT} vertices, "
            f"got {view.vertex_count}")
    check_terminals(view, omega)
    a, b, c = omega
    bundles = ((a, b, c), (a, c, b), (b, c, a))  # source, sink, third terminal
    edges = []
    for u in view.vertices():
        for w in view.neighbors(u):
            if u < w:
                edges.append((u, w))
    arcs = []  # (bundle, tail, head, edge index), one variable each
    for k, (s, t, r) in enumerate(bundles):
        for e, (u, v) in enumerate(edges):
            if r in (u, v):
                continue
            if v != s and u != t:
                arcs.append((k, u, v, e))
            if u != s and v != t:
                arcs.append((k, v, u, e))
    m0 = len(arcs)  # m_ab, m_ac, m_bc, then mu_a, mu_b, mu_c
    n_vars = m0 + 6
    rows = []  # (coefficients, lower bound, upper bound)
    for k, (s, t, r) in enumerate(bundles):
        # vertex -> inflow minus outflow of this bundle there
        flow = {w: [0] * n_vars for w in view.vertices() if w not in (s, t, r)}
        send = [0] * n_vars  # the source sends m_k
        send[m0 + k] = -1
        for i, (k_i, u, v, _) in enumerate(arcs):
            if k_i != k:
                continue
            if v in flow:
                flow[v][i] = 1
            if u in flow:
                flow[u][i] = -1
            if u == s:
                send[i] = 1
        for row in flow.values():
            if any(row):
                rows.append((row, 0, 0))
        rows.append((send, 0, 0))
    # vertex outside omega -> arcs entering it
    into = {w: [0] * n_vars for w in view.vertices() if w not in omega}
    over = [[0] * n_vars for _ in edges]  # edge -> arcs along it
    for i, (_, _, v, e) in enumerate(arcs):
        if v in into:
            into[v][i] = 1
        over[e][i] = 1
    for row in into.values():
        if any(row):
            rows.append((row, 0, 1))
    for row in over:
        rows.append((row, 0, 1))
    for k, (x, y) in enumerate(((0, 1), (0, 2), (1, 2))):
        row = [0] * n_vars
        row[m0 + 3 + x] = row[m0 + 3 + y] = 1
        row[m0 + k] = -1
        rows.append((row, -math.inf, 0))

    caps = [min(view.degree(s), view.degree(t)) for s, t, _ in bundles]
    matrix, lower, upper = zip(*rows)
    res = milp(c=[0] * (m0 + 3) + [-1] * 3,
               constraints=LinearConstraint(matrix, lower, upper),
               integrality=[1] * n_vars,
               bounds=Bounds([0] * n_vars, [1] * m0 + caps + [max(caps)] * 3))
    if res.status != 0:
        raise TripathsError(f"exact oracle MILP failed: {res.message}")
    return int(round(-res.fun))
