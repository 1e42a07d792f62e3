"""In-memory span tracer and the traced run's instrumentation.

A span is (name, start, end, parent, op): ``parent`` is the index of the
span open when it started (-1 for none) and ``op`` the id of the benchmark
op it belongs to, shared by all spans of that op.  Spans live in compact
arrays while the run goes on and are written out once, when it ends.  A
span's self time is its duration minus the time covered by its children.

:func:`install` puts spans at the layer boundaries of ``rswlab`` from the
outside, without touching its source:

* the public functions of every module, replaced on the module (and on the
  modules that imported them by name, such as ``rswlab.cli``);
* ``FlowField.eval``, ``FlowField.jet`` and ``FlowField.values_unchecked``;
* the family kernels, through fields re-wrapped with
  ``dataclasses.replace(field, value_fn=..., jet_fn=...)``, both for the
  fields the benchmark builds and, via a wrapped ``rswlab.cli.make_family``,
  for those the CLI builds inside a command.

``verify._sample_conserved`` (the FV oracle's full-grid exact sampling) gets
a span too, to tell it apart from the ghost strips.  Counts (ODE steps, FV
steps, residual points, bytes written) are recorded at the same
boundaries.  Everything here only runs in the traced process.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
from array import array
from time import perf_counter

import numpy as np

import rswlab.cli as cli
import rswlab.core as core
import rswlab.liealg as liealg
import rswlab.reduction as reduction
import rswlab.solutions as solutions
import rswlab.transforms as transforms
import rswlab.verify as verify

LAYERS = ("cli", "core", "solutions", "transforms", "reduction", "liealg", "verify")


class Tracer:
    """Spans and counts of one process, kept in memory until the end."""

    def __init__(self) -> None:
        self.on = False
        self.op_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.counts: collections.Counter = collections.Counter()
        self.fv_grid: dict[int, int] = {}  # fv_oracle span -> cells per side

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        if self.on:
            self.counts[key] += n

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call while on."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def wrap_field(self, field_: core.FlowField, prefix: str | None = None) -> core.FlowField:
        """Copy of a field whose kernels record spans.

        Family kernels get ``solutions.value.<family>``; views built by
        transforms and ``as_cartesian`` pass their own ``prefix``.
        """
        if prefix is None:
            family = field_.meta.get("family", "unknown")
            value_name, jet_name = f"solutions.value.{family}", f"solutions.jet.{family}"
        else:
            value_name, jet_name = f"{prefix}.value", f"{prefix}.jet"
        jet = field_.jet_fn
        return dataclasses.replace(
            field_,
            value_fn=self.wrap(field_.value_fn, value_name),
            jet_fn=self.wrap(jet, jet_name) if jet is not None else None,
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def _patch(saved: list, owner, attr: str, value) -> None:
    saved.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def install(tracer: Tracer):
    """Wrap rswlab's layer boundaries; returns a function that undoes it."""
    saved: list = []
    wrap = tracer.wrap

    def patch_everywhere(owners, attr, value):
        for owner in owners:
            _patch(saved, owner, attr, value)

    # core: the evaluation contract; jets are split by derivative mode
    orig_jet = core.FlowField.jet
    jet_ids = {"analytic": tracer.name_id("core.jet.analytic"), "fd": tracer.name_id("core.jet.fd")}

    def traced_jet(self, t, a, b):
        if not tracer.on:
            return orig_jet(self, t, a, b)
        i = tracer.open(jet_ids[self.derivative_mode])
        try:
            return orig_jet(self, t, a, b)
        finally:
            tracer.close(i)

    _patch(saved, core.FlowField, "eval", wrap(core.FlowField.eval, "core.eval"))
    _patch(saved, core.FlowField, "jet", traced_jet)
    _patch(saved, core.FlowField, "values_unchecked",
           wrap(core.FlowField.values_unchecked, "core.values_unchecked"))

    as_cart_span = wrap(core.as_cartesian, "core.as_cartesian")

    def traced_as_cartesian(field_, label=None):
        view = as_cart_span(field_, label)
        if not tracer.on or view is field_:
            return view
        return tracer.wrap_field(view, "core.as_cartesian")

    # fv_oracle's internal view stays unwrapped: it samples through
    # values_unchecked, which has its own span
    patch_everywhere((core, cli), "as_cartesian", traced_as_cartesian)

    # cli: each command, and family construction inside it (kernels wrapped
    # per field)
    _patch(saved, cli, "main", wrap(cli.main, "cli.main"))
    make_span = wrap(cli.make_family, "cli.make_family")

    def traced_make_family(name, params, **kw):
        field_ = make_span(name, params, **kw)
        return tracer.wrap_field(field_) if tracer.on else field_

    _patch(saved, cli, "make_family", traced_make_family)
    _patch(saved, solutions, "default_catalog", wrap(solutions.default_catalog, "solutions.default_catalog"))

    # reduction: per-point solvers and the collapse tabulation
    _patch(saved, solutions, "solve_cubic_real", wrap(reduction.solve_cubic_real, "reduction.cubic"))
    _patch(saved, solutions, "cubic_roots", wrap(reduction.cubic_roots, "reduction.cubic"))
    _patch(saved, solutions, "ring_bounds", wrap(reduction.ring_bounds, "reduction.ring_bounds"))
    build = wrap(reduction.collapse2_build, "reduction.collapse_build")
    patch_everywhere((solutions, reduction), "collapse2_build", build)
    _patch(saved, reduction, "collapse2_verify_ode",
           wrap(reduction.collapse2_verify_ode, "reduction.collapse_ode"))
    _patch(saved, reduction.ImplicitCollapse, "eta_of_t",
           wrap(reduction.ImplicitCollapse.eta_of_t, "reduction.eta_of_t"))

    # transforms: constructors, and their views' evaluation
    for attr, tag in (("transport_solution", "transport"),
                      ("map_field_rsw_to_sw", "rsw2sw"),
                      ("map_field_sw_to_rsw", "sw2rsw")):
        span = wrap(getattr(transforms, attr), f"transforms.{attr}")

        def traced_map(*args, _span=span, _tag=tag, **kwargs):
            mapped = _span(*args, **kwargs)
            return tracer.wrap_field(mapped, f"transforms.{_tag}") if tracer.on else mapped

        patch_everywhere((transforms, cli), attr, traced_map)

    # liealg
    for attr in ("structure_constants", "verify_isomorphism"):
        patch_everywhere((liealg, cli), attr, wrap(getattr(liealg, attr), f"liealg.{attr}"))

    # verify: trajectories, PV, residuals, material curves, FV
    integrate_span = wrap(verify.integrate_trajectory, "verify.integrate_trajectory")

    def traced_integrate(*args, **kwargs):
        traj = integrate_span(*args, **kwargs)
        tracer.count("verify.ode_steps", traj.stats.get("steps", 0))
        tracer.count("verify.ode_rejected", traj.stats.get("rejected", 0))
        return traj

    patch_everywhere((verify, cli), "integrate_trajectory", traced_integrate)
    _patch(saved, verify, "pv_along_trajectory",
           wrap(verify.pv_along_trajectory, "verify.pv_along_trajectory"))

    residual_spans = {mode: wrap(verify.residual_report, f"verify.residual.{mode}")
                      for mode in ("analytic", "fd")}

    def traced_residual(field_, **kw):
        rep = residual_spans[field_.derivative_mode](field_, **kw)
        tracer.count(f"verify.residual_points.{field_.derivative_mode}", rep.n_points)
        return rep

    patch_everywhere((verify, cli), "residual_report", traced_residual)
    _patch(saved, verify, "evolve_material_curve",
           wrap(verify.evolve_material_curve, "verify.evolve_material_curve"))
    _patch(saved, verify, "fv_convergence", wrap(verify.fv_convergence, "verify.fv_convergence"))
    orig_fv = verify.fv_oracle
    fv_id = tracer.name_id("verify.fv_oracle")

    def traced_fv_oracle(*args, **kwargs):
        if not tracer.on:
            return orig_fv(*args, **kwargs)
        i = tracer.open(fv_id)
        try:
            run = orig_fv(*args, **kwargs)
        finally:
            tracer.close(i)
        tracer.fv_grid[i] = run.n
        tracer.count("verify.fv_steps", run.steps)
        tracer.count("verify.fv_cell_updates", run.n * run.n * run.steps)
        return run

    _patch(saved, verify, "fv_oracle", traced_fv_oracle)
    # the full-grid samples of initial data and final exact solution get a
    # span of their own, so that values_unchecked spans directly under
    # fv_oracle are the ghost strips alone
    if hasattr(verify, "_sample_conserved"):
        _patch(saved, verify, "_sample_conserved",
               wrap(verify._sample_conserved, "verify.fv_sample_grid"))

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

FAMILIES = solutions.FAMILY_NAMES


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [("setup.import_s", "s"), ("setup.build_s", "s")]
    out += [(f"solutions.value_us.{fam}", "us") for fam in FAMILIES]
    out += [(f"solutions.jet_us.{fam}", "us") for fam in FAMILIES]
    out += [("solutions.value_calls", "count"), ("solutions.jet_calls", "count"),
            ("solutions.self_s", "s")]
    out += [("core.eval_calls", "count"), ("core.eval_overhead_us", "us"),
            ("core.jet_calls", "count"), ("core.fd_jet_us", "us"),
            ("core.fd_evals_per_jet", "count"), ("core.as_cartesian_value_us", "us"),
            ("core.self_s", "s")]
    out += [("transforms.transport_value_us", "us"), ("transforms.rsw2sw_value_us", "us"),
            ("transforms.sw2rsw_value_us", "us"), ("transforms.self_s", "s")]
    out += [("reduction.eta_of_t_us", "us"), ("reduction.eta_of_t_calls", "count"),
            ("reduction.cubic_us", "us"), ("reduction.ring_bounds_ms", "ms"),
            ("reduction.collapse_build_ms", "ms"), ("reduction.collapse_ode_s", "s"),
            ("reduction.self_s", "s")]
    out += [("liealg.structure_constants_ms", "ms"), ("liealg.verify_isomorphism_ms", "ms"),
            ("liealg.self_s", "s")]
    out += [("verify.ode_steps", "count"), ("verify.ode_rejected", "count"),
            ("verify.ode_accept_ratio", "ratio"), ("verify.rhs_evals_per_step", "count"),
            ("verify.ode_self_s", "s"), ("verify.pv_s", "s"),
            ("verify.residual_points_per_s", "1/s"), ("verify.residual_fd_points_per_s", "1/s"),
            ("verify.fv_steps", "count"), ("verify.fv_cell_updates", "count"),
            ("verify.fv_boundary_sample_s", "s"), ("verify.fv_boundary_share", "ratio"),
            ("verify.fv_flux_s", "s")]
    out += [("cli.commands", "count"), ("cli.build_ms", "ms"), ("cli.self_s", "s"),
            ("cli.bytes_written", "B")]
    out += [("trace.overhead_frac", "ratio")]
    return out


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics (all but ``setup.*`` and ``trace.*``) from the spans."""
    a = tracer.arrays()
    names = tracer.names
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    n = len(name)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
    self_time = dur - child_time

    ids = {nm: i for i, nm in enumerate(names)}

    def sel(nm: str) -> np.ndarray:
        return name == ids[nm] if nm in ids else np.zeros(n, dtype=bool)

    def sel_prefix(prefix: str) -> np.ndarray:
        hit = [i for i, nm in enumerate(names) if nm.startswith(prefix)]
        return np.isin(name, hit) if hit else np.zeros(n, dtype=bool)

    def mean_us(mask) -> float:
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    def total(mask) -> float:
        return float(dur[mask].sum())

    m: dict[str, float] = {}
    for fam in FAMILIES:
        m[f"solutions.value_us.{fam}"] = mean_us(sel(f"solutions.value.{fam}"))
        m[f"solutions.jet_us.{fam}"] = mean_us(sel(f"solutions.jet.{fam}"))
    values = sel_prefix("solutions.value.")
    m["solutions.value_calls"] = int(values.sum())
    m["solutions.jet_calls"] = int(sel_prefix("solutions.jet.").sum())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(self_time[sel_prefix(layer + ".")].sum())

    evals = sel("core.eval")
    fd_jets = sel("core.jet.fd")
    m["core.eval_calls"] = int(evals.sum())
    m["core.eval_overhead_us"] = float(self_time[evals].mean() * 1e6) if evals.any() else 0.0
    m["core.jet_calls"] = int((sel("core.jet.analytic") | fd_jets).sum())
    m["core.fd_jet_us"] = mean_us(fd_jets)
    fd_ids = np.flatnonzero(fd_jets)
    evals_in_fd = int(np.isin(parent[evals], fd_ids).sum())
    m["core.fd_evals_per_jet"] = _ratio(evals_in_fd, len(fd_ids))
    m["core.as_cartesian_value_us"] = mean_us(sel("core.as_cartesian.value"))

    m["transforms.transport_value_us"] = mean_us(sel("transforms.transport.value"))
    m["transforms.rsw2sw_value_us"] = mean_us(sel("transforms.rsw2sw.value"))
    m["transforms.sw2rsw_value_us"] = mean_us(sel("transforms.sw2rsw.value"))

    eta = sel("reduction.eta_of_t")
    m["reduction.eta_of_t_us"] = mean_us(eta)
    m["reduction.eta_of_t_calls"] = int(eta.sum())
    m["reduction.cubic_us"] = mean_us(sel("reduction.cubic"))
    m["reduction.ring_bounds_ms"] = mean_us(sel("reduction.ring_bounds")) / 1e3
    m["reduction.collapse_build_ms"] = mean_us(sel("reduction.collapse_build")) / 1e3
    m["reduction.collapse_ode_s"] = total(sel("reduction.collapse_ode"))

    m["liealg.structure_constants_ms"] = mean_us(sel("liealg.structure_constants")) / 1e3
    m["liealg.verify_isomorphism_ms"] = mean_us(sel("liealg.verify_isomorphism")) / 1e3

    # kernel calls made on behalf of the ODE integrator: nearest verify.*
    # ancestor is integrate_trajectory
    is_verify = sel_prefix("verify.")
    par = parent.tolist()
    isv = is_verify.tolist()
    near = [-1] * n
    for i in range(n):
        p = par[i]
        if p >= 0:
            near[i] = p if isv[p] else near[p]
    nearest = np.asarray(near, dtype=np.int64)
    integrate_ids = np.flatnonzero(sel("verify.integrate_trajectory"))
    rhs_calls = int(np.isin(nearest[values], integrate_ids).sum())
    steps = tracer.counts["verify.ode_steps"]
    rejected = tracer.counts["verify.ode_rejected"]
    m["verify.ode_steps"] = int(steps)
    m["verify.ode_rejected"] = int(rejected)
    m["verify.ode_accept_ratio"] = _ratio(steps, steps + rejected)
    m["verify.rhs_evals_per_step"] = _ratio(rhs_calls, steps)
    m["verify.ode_self_s"] = float(self_time[sel("verify.integrate_trajectory")].sum())
    m["verify.pv_s"] = total(sel("verify.pv_along_trajectory"))
    m["verify.residual_points_per_s"] = _ratio(
        tracer.counts["verify.residual_points.analytic"], total(sel("verify.residual.analytic")))
    m["verify.residual_fd_points_per_s"] = _ratio(
        tracer.counts["verify.residual_points.fd"], total(sel("verify.residual.fd")))

    # ghost strips: values_unchecked spans directly under fv_oracle.  Each
    # step samples four strips of n + 2 cells in one block; a block runs from
    # its first call's start to its last call's end, so the strip loop's own
    # overhead between the calls counts as sampling, not as flux work
    fv = sel("verify.fv_oracle")
    unchecked = sel("core.values_unchecked")
    strip_spans_s = boundary_s = 0.0
    for i, cells in tracer.fv_grid.items():
        kids = np.flatnonzero(unchecked & (parent == i))
        block = 4 * (cells + 2)
        strip_spans_s += total(kids)
        if len(kids) % block == 0:
            boundary_s += float((a["end"][kids[block - 1::block]] - a["start"][kids[::block]]).sum())
        else:  # not the block layout above: the calls alone
            boundary_s += total(kids)
    m["verify.fv_steps"] = int(tracer.counts["verify.fv_steps"])
    m["verify.fv_cell_updates"] = int(tracer.counts["verify.fv_cell_updates"])
    m["verify.fv_boundary_sample_s"] = boundary_s
    m["verify.fv_boundary_share"] = _ratio(boundary_s, total(fv))
    # self time less the strip loop's overhead: no exact sampling of any kind
    m["verify.fv_flux_s"] = float(self_time[fv].sum()) - (boundary_s - strip_spans_s)

    m["cli.commands"] = int(sel("cli.main").sum())
    m["cli.build_ms"] = mean_us(sel("cli.make_family")) / 1e3
    m["cli.bytes_written"] = int(tracer.counts["cli.bytes_written"])
    return m
