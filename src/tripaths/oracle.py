"""Exact packing oracle for small views.

An integral multicommodity program, one commodity per bundle, with
pairing counters on top: the optimum is the largest number of
internally disjoint paths through all three terminals.  It cross-checks
the constructive bound in the tests and is the only user of scipy, so
nothing on the solve, verify or CLI path imports this module.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import OracleScaleExceeded, TripathsError
from .tripod import _check_terminals

MILP_VERTEX_LIMIT = 40


def _view_edges(view):
    edges = []
    for u in view.vertices():
        for w, _ in view.neighbors(u):
            if u < w:
                edges.append((u, w))
    return edges


def _commodity_arcs(edges, s, t, r):
    arcs = []
    for (u, v) in edges:
        if r in (u, v):
            continue
        if v != s and u != t:
            arcs.append((u, v))
        if u != s and v != t:
            arcs.append((v, u))
    return arcs


class _MilpModel:
    """Three-commodity integral flow on a view, one commodity per bundle."""

    def __init__(self, view, omega):
        a, b, c = omega
        self.omega = omega
        self.edges = _view_edges(view)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.commodities = [("ab", a, b, c), ("ac", a, c, b), ("bc", b, c, a)]
        self.arcs = []
        self.offsets = []
        off = 0
        for _, s, t, r in self.commodities:
            arcs = _commodity_arcs(self.edges, s, t, r)
            self.offsets.append(off)
            self.arcs.append(arcs)
            off += len(arcs)
        self.n_arc_vars = off
        self.verts = view.vertices()
        self.view = view

    def conservation_rows(self, rows, demand_terms):
        """rows: list of (coeffs dict var->coef, lb, ub).  demand_terms maps
        commodity index -> list of (var, coef) added to its source row."""
        for ci, (_, s, t, r) in enumerate(self.commodities):
            off = self.offsets[ci]
            arcs = self.arcs[ci]
            in_at = {}
            out_at = {}
            for ai, (u, v) in enumerate(arcs):
                out_at.setdefault(u, []).append(off + ai)
                in_at.setdefault(v, []).append(off + ai)
            for w in self.verts:
                if w in (s, t, r):
                    continue
                coeffs = {var: 1 for var in in_at.get(w, [])}
                for var in out_at.get(w, []):
                    coeffs[var] = coeffs.get(var, 0) - 1
                if coeffs:
                    rows.append((coeffs, 0, 0))
            coeffs = {var: 1 for var in out_at.get(s, [])}
            for var, coef in demand_terms[ci]:
                coeffs[var] = coeffs.get(var, 0) + coef
            rows.append((coeffs, 0, 0))

    def capacity_rows(self, rows):
        omega = set(self.omega)
        in_rows: dict[int, dict[int, int]] = {}
        edge_rows: dict[int, dict[int, int]] = {}
        for ci in range(3):
            off = self.offsets[ci]
            for ai, (u, v) in enumerate(self.arcs[ci]):
                if v not in omega:
                    in_rows.setdefault(v, {})[off + ai] = 1
                e = (u, v) if u < v else (v, u)
                edge_rows.setdefault(self.edge_index[e], {})[off + ai] = 1
        for w in sorted(in_rows):
            rows.append((in_rows[w], 0, 1))
        for ei in sorted(edge_rows):
            rows.append((edge_rows[ei], 0, 1))

    def solve(self, rows, n_vars, objective, integrality, lower, upper):
        data, ri, ci_ = [], [], []
        lbs, ubs = [], []
        for rn, (coeffs, lb, ub) in enumerate(rows):
            for var, coef in coeffs.items():
                ri.append(rn)
                ci_.append(var)
                data.append(coef)
            lbs.append(lb)
            ubs.append(ub)
        mat = sparse.csc_matrix((data, (ri, ci_)), shape=(len(rows), n_vars))
        res = milp(c=np.asarray(objective, dtype=float),
                   constraints=LinearConstraint(mat, np.asarray(lbs, dtype=float),
                                                np.asarray(ubs, dtype=float)),
                   integrality=np.asarray(integrality),
                   bounds=Bounds(np.asarray(lower, dtype=float),
                                 np.asarray(upper, dtype=float)))
        return res


def exact_pi(view, omega) -> int:
    """Exact maximum number of internally disjoint paths through all of
    omega, by integral multicommodity flow with pairing counters."""
    if view.vertex_count > MILP_VERTEX_LIMIT:
        raise OracleScaleExceeded(
            f"exact oracle capped at {MILP_VERTEX_LIMIT} vertices, "
            f"got {view.vertex_count}")
    _check_terminals(view, omega)
    model = _MilpModel(view, omega)
    n_arcs = model.n_arc_vars
    # variables: arcs, then m_ab m_ac m_bc, then mu_a mu_b mu_c
    m0, mu0 = n_arcs, n_arcs + 3
    n_vars = n_arcs + 6
    rows: list = []
    demands = {ci: [(m0 + ci, -1)] for ci in range(3)}
    model.conservation_rows(rows, demands)
    model.capacity_rows(rows)
    # mu_a + mu_b <= m_ab and cyclic mates
    rows.append(({mu0 + 0: 1, mu0 + 1: 1, m0 + 0: -1}, -np.inf, 0))
    rows.append(({mu0 + 0: 1, mu0 + 2: 1, m0 + 1: -1}, -np.inf, 0))
    rows.append(({mu0 + 1: 1, mu0 + 2: 1, m0 + 2: -1}, -np.inf, 0))
    deg_cap = [min(view.degree(s), view.degree(t)) for _, s, t, _ in model.commodities]
    lower = [0] * n_vars
    upper = [1] * n_arcs + deg_cap + [max(deg_cap)] * 3
    objective = [0.0] * n_arcs + [0.0] * 3 + [-1.0] * 3
    res = model.solve(rows, n_vars, objective, [1] * n_vars, lower, upper)
    if res.status != 0:
        raise TripathsError(f"exact oracle MILP failed: {res.message}")
    return int(round(-res.fun))
