"""Timing hooks around the layers of `contact_hj`, for the traced run only.

Hooks go where each name is looked up (`contact_hj.value.fundamental_direct`
is a different binding from `contact_hj.cli.fundamental_direct`).  Layer
boundaries record spans (name, start, end, parent, thread); the hot
evaluators `ContactSystem.L` and `HamiltonianSystem.H*` are counted and
timed without a span each, their time charged to the enclosing span.
A hook whose target no longer exists is skipped, and every metric that
depends on it is reported as missing with the target's name.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import statistics
import threading
from time import perf_counter

import numpy as np

# (span or counter name, target "module:attribute.path", kind)
HOOKS = (
    ("systems.L", "contact_hj.systems:ContactSystem.L", "leaf"),
    ("systems.H", "contact_hj.systems:HamiltonianSystem.H", "leaf"),
    ("systems.H", "contact_hj.systems:HamiltonianSystem.Hp", "leaf"),
    ("systems.H", "contact_hj.systems:HamiltonianSystem.Hx", "leaf"),
    ("systems.H", "contact_hj.systems:HamiltonianSystem.Hu", "leaf"),
    ("cost_ode.sweep", "contact_hj.cost_ode:_rk4_sweep", "span"),
    ("fundamental.direct", "contact_hj.cli:fundamental_direct", "span"),
    ("fundamental.direct", "contact_hj.value:fundamental_direct", "span"),
    ("fundamental.direct", "contact_hj.vanishing:fundamental_direct", "span"),
    ("fundamental.shooting", "contact_hj.cli:fundamental_shooting", "span"),
    ("value.point", "contact_hj.cli:solve_value", "span"),
    ("value.point", "contact_hj.value:solve_value", "span"),
    ("value.point", "contact_hj.vanishing:solve_value", "span"),
    ("value.golden", "contact_hj.value:golden_min", "span"),
    ("value.mu_radius", "contact_hj.value:mu_radius", "lookup"),
    ("vanishing.run", "contact_hj.cli:run_vanishing", "span"),
    ("vanishing.contact_bound", "contact_hj.vanishing:contact_bound", "span"),
    ("cli.main", "contact_hj.cli:main", "span"),
    ("cli.pool", "contact_hj.cli:_parallel_map", "probe"),
)

_LIB_SPANS = ("fundamental.direct", "fundamental.shooting", "value.point",
              "vanishing.run")

# metric -> (unit, hook names it depends on)
PER_LAYER = {
    "systems.L_calls": ("count", ("systems.L",)),
    "systems.L_rows_per_call": ("rows", ("systems.L",)),
    "systems.L_s": ("s", ("systems.L",)),
    "systems.H_calls": ("count", ("systems.H",)),
    "systems.H_s": ("s", ("systems.H",)),
    "cost_ode.sweeps": ("count", ("cost_ode.sweep",)),
    "cost_ode.stage_rows": ("count", ("cost_ode.sweep",)),
    "cost_ode.sweep_s": ("s", ("cost_ode.sweep",)),
    "cost_ode.ns_per_stage_row": ("ns", ("cost_ode.sweep",)),
    "cost_ode.self_s": ("s", ("cost_ode.sweep", "systems.L")),
    "fundamental.direct_solves": ("count", ("fundamental.direct",)),
    "fundamental.direct_s": ("s", ("fundamental.direct",)),
    "fundamental.direct_self_s": ("s", ("fundamental.direct", "cost_ode.sweep", "systems.L")),
    "fundamental.lbfgs_iters_per_solve": ("count", ("fundamental.direct",)),
    "fundamental.evals_per_iter": ("ratio", ("fundamental.direct", "cost_ode.sweep")),
    "fundamental.nonconverged_frac": ("ratio", ("fundamental.direct",)),
    "fundamental.shooting_solves": ("count", ("fundamental.shooting",)),
    "fundamental.shooting_s": ("s", ("fundamental.shooting",)),
    "fundamental.newton_iters_per_solve": ("count", ("fundamental.shooting",)),
    "value.points": ("count", ("value.point",)),
    "value.point_s_p50": ("s", ("value.point",)),
    "value.inner_solves_per_point": ("count", ("value.point", "fundamental.direct")),
    "value.golden_share": ("ratio", ("value.point", "value.golden", "fundamental.direct")),
    "value.self_s": ("s", ("value.point", "value.golden", "fundamental.direct", "systems.L")),
    "value.argmin_boundary_hits": ("count", ("value.point", "value.mu_radius")),
    "vanishing.contact_bound_calls": ("count", ("vanishing.contact_bound",)),
    "vanishing.contact_bound_s": ("s", ("vanishing.contact_bound",)),
    "vanishing.base_resolves": ("count", ("vanishing.run", "fundamental.direct")),
    "vanishing.self_s": ("s", ("vanishing.run", "vanishing.contact_bound", "value.point",
                               "fundamental.direct", "cost_ode.sweep", "systems.L")),
    "cli.jobs": ("count", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",) + _LIB_SPANS),
    "cli.threads": ("count", ("cli.pool",)),
    "trace.overhead_ratio": ("ratio", ()),
}


def _resolve(target: str):
    mod_name, path = target.split(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack = []      # frames [span id, leaf seconds]
        self.spans = []      # (id, name, start, end, parent, thread, leaf_s, info)
        self.leaf = {}       # name -> [calls, rows, seconds]


class Tracer:
    """Installs the hooks, keeps spans in memory, derives per-layer metrics."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self._undo = []
        self.root = None         # open cli.main span: parent of pool-thread spans
        self.missing = {}        # hook name -> [missing targets]
        self.pool_threads = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    # installation ---------------------------------------------------------

    def install(self) -> None:
        for name, target, kind in HOOKS:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                self._gone(name, target)
                continue
            if kind == "lookup":
                continue
            make = {"leaf": self._leaf, "span": self._span, "probe": self._probe}[kind]
            own = vars(owner).get(attr) if isinstance(owner, type) else original
            setattr(owner, attr, make(name, original))
            self._undo.append((owner, attr, own))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._undo):
            if own is None:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, own)
        self._undo.clear()

    def _leaf(self, name, fn):
        state = self._state

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            res = fn(*args, **kwargs)
            dt = perf_counter() - t0
            st = state()
            c = st.leaf.get(name)
            if c is None:
                c = st.leaf[name] = [0, 0, 0.0]
            c[0] += 1
            c[1] += getattr(res, "size", 1)
            c[2] += dt
            if st.stack:
                st.stack[-1][1] += dt
            return res
        return wrapped

    def _span(self, name, fn):
        state, ids, info_of = self._state, self._ids, _INFO.get(name)
        is_root = name == "cli.main"

        def wrapped(*args, **kwargs):
            st = state()
            parent = st.stack[-1][0] if st.stack else self.root
            frame = [next(ids), 0.0]
            st.stack.append(frame)
            if is_root:
                self.root = frame[0]
            done = False
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf_counter()
                st.stack.pop()
                if is_root:
                    self.root = None
                info = self._info(name, info_of, args, kwargs, res) if done and info_of else None
                st.spans.append((frame[0], name, t0, t1, parent, st.ident, frame[1], info))
            return res
        return wrapped

    def _probe(self, name, fn):
        def wrapped(*args, **kwargs):
            try:
                items, threads = args[1], int(args[2])
                self.pool_threads.append(max(1, min(threads, len(items))))
            except (IndexError, TypeError, ValueError):
                self._gone(name, "signature of _parallel_map(fn, items, threads) changed")
            return fn(*args, **kwargs)
        return wrapped

    def _info(self, name, fn, args, kwargs, res):
        """Counters read off a call's arguments or result (None if unreadable)."""
        try:
            return fn(args, kwargs, res)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self._gone(name, f"arguments/result of {name} unreadable ({exc!r})")
            return None

    # results ----------------------------------------------------------------

    def spans(self) -> list:
        out = []
        for st in self._states:
            out.extend(st.spans)
        out.sort(key=lambda s: s[2])
        return out

    def leaf_totals(self, name: str) -> list:
        tot = [0, 0, 0.0]
        for st in self._states:
            c = st.leaf.get(name)
            if c:
                tot = [a + b for a, b in zip(tot, c)]
        return tot

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,thread,evaluator_s\n")
            for sid, name, t0, t1, parent, thread, leaf, _ in self.spans():
                fh.write(f"{sid},{name},{t0!r},{t1!r},{parent or ''},{thread},{leaf!r}\n")

    def _gone(self, name: str, what: str) -> None:
        lst = self.missing.setdefault(name, [])
        if what not in lst:
            lst.append(what)

    def metrics(self, overhead_ratio: float) -> dict:
        """PER_LAYER metrics: {"value", "unit"}, plus "missing" (and value
        None) when a hook they depend on is gone."""
        values = _derive(self.spans(), self)
        values["trace.overhead_ratio"] = overhead_ratio
        out = {}
        for metric, (unit, deps) in PER_LAYER.items():
            gone = [t for d in deps for t in self.missing.get(d, [])]
            if gone:
                out[metric] = {"value": None, "unit": unit,
                               "missing": "hook unavailable: " + ", ".join(gone)}
            else:
                out[metric] = {"value": values[metric], "unit": unit}
        return out


def _sweep_rows(args, kwargs, res):
    nodes, substeps = args[2], args[4]
    B, Np1 = nodes.shape[0], nodes.shape[1]
    return 4 * B * (Np1 - 1) * int(substeps)


def _value_point(args, kwargs, res):
    S, datum, t, x = args[:4]
    search = args[4] if len(args) > 4 else kwargs.get("search")
    ytol = search.ytol if search is not None else 1e-6
    return (S, datum, float(t), np.atleast_1d(np.asarray(x, float)), res[1], ytol)


_INFO = {
    "cost_ode.sweep": _sweep_rows,
    "fundamental.direct": lambda a, k, r: (int(r.iterations), bool(r.converged)),
    "fundamental.shooting": lambda a, k, r: int(r.iterations),
    "value.point": _value_point,
}


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _derive(spans, tracer: Tracer) -> dict:
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    self_t = {}
    for s in spans:
        kids = [(c[2], c[3]) for c in children.get(s[0], ())]
        self_t[s[0]] = (s[3] - s[2]) - _covered(kids, s[2], s[3]) - s[6]

    def named(name):
        return [s for s in spans if s[1] == name]

    def ancestors(s):
        p = by_id.get(s[4])
        while p is not None:
            yield p
            p = by_id.get(p[4])

    def dur(ss):
        return sum(s[3] - s[2] for s in ss)

    def self_sum(ss):
        return sum(self_t[s[0]] for s in ss)

    def ratio(a, b):
        return a / b if b else 0.0

    L_calls, L_rows, L_s = tracer.leaf_totals("systems.L")
    H_calls, _, H_s = tracer.leaf_totals("systems.H")
    sweeps = named("cost_ode.sweep")
    rows = sum(s[7] or 0 for s in sweeps)
    direct = named("fundamental.direct")
    solved = [s for s in direct if s[7] is not None]
    iters = sum(s[7][0] for s in solved)
    # every L-BFGS evaluation is one sweep; the last sweep re-integrates the optimum
    evals = sum(max(0, sum(c[1] == "cost_ode.sweep" for c in children.get(s[0], ())) - 1)
                for s in solved)
    shooting = named("fundamental.shooting")
    shot = [s for s in shooting if s[7] is not None]
    points = named("value.point")
    golden = named("value.golden")
    under_value = [s for s in direct if any(a[1] == "value.point" for a in ancestors(s))]
    under_golden = [s for s in under_value if any(a[1] == "value.golden" for a in ancestors(s))]
    runs = named("vanishing.run")
    bounds = named("vanishing.contact_bound")
    mains = named("cli.main")
    return {
        "systems.L_calls": L_calls,
        "systems.L_rows_per_call": ratio(L_rows, L_calls),
        "systems.L_s": L_s,
        "systems.H_calls": H_calls,
        "systems.H_s": H_s,
        "cost_ode.sweeps": len(sweeps),
        "cost_ode.stage_rows": rows,
        "cost_ode.sweep_s": dur(sweeps),
        "cost_ode.ns_per_stage_row": 1e9 * ratio(dur(sweeps), rows),
        "cost_ode.self_s": self_sum(sweeps),
        "fundamental.direct_solves": len(direct),
        "fundamental.direct_s": dur(direct),
        "fundamental.direct_self_s": self_sum(direct),
        "fundamental.lbfgs_iters_per_solve": ratio(iters, len(solved)),
        "fundamental.evals_per_iter": ratio(evals, iters),
        "fundamental.nonconverged_frac": ratio(sum(not s[7][1] for s in solved), len(solved)),
        "fundamental.shooting_solves": len(shooting),
        "fundamental.shooting_s": dur(shooting),
        "fundamental.newton_iters_per_solve": ratio(sum(s[7] for s in shot), len(shot)),
        "value.points": len(points),
        "value.point_s_p50": statistics.median([s[3] - s[2] for s in points]) if points else 0.0,
        "value.inner_solves_per_point": ratio(len(under_value), len(points)),
        "value.golden_share": ratio(len(under_golden), len(under_value)),
        "value.self_s": self_sum(points) + self_sum(golden),
        "value.argmin_boundary_hits": _boundary_hits(points),
        "vanishing.contact_bound_calls": len(bounds),
        "vanishing.contact_bound_s": dur(bounds),
        "vanishing.base_resolves": sum(by_id[s[4]][1] == "vanishing.run"
                                       for s in direct if s[4] in by_id),
        "vanishing.self_s": self_sum(runs) + self_sum(bounds),
        "cli.jobs": len(mains),
        "cli.self_s": self_sum(mains),
        "cli.threads": max(tracer.pool_threads, default=1),
    }


def _boundary_hits(points) -> int:
    """Argmins within ytol of the certified radius mu(t) t (0 expected)."""
    from contact_hj.value import mu_radius
    hits = 0
    for s in points:
        if s[7] is None:
            continue
        S, datum, t, x, y_star, ytol = s[7]
        radius = mu_radius(S, datum, t) * t
        if float(np.linalg.norm(np.asarray(y_star, float) - x)) >= radius - ytol:
            hits += 1
    return hits
