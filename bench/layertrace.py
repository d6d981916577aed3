"""Layer attribution for the traced benchmark run.

Every layer is one module of the program.  The tracer wraps each layer's
public entry points from outside the program and keeps one span per call
that enters a layer from another layer.  A layer's self time is its span
time minus the time of the spans of other layers that it called, so the
self times of all layers add up to the traced time.  A call from a layer
into itself adds to the call count but opens no span.

The hot element-level entry points (COUNTED) run millions of times per
run, and a wrapper would cost as much as many of them do.  They are
therefore left unwrapped in the timed pass, where their time counts to
the layer that called them, and are counted in a second pass over the same
ops (`Tracer(counted=True)`) that wraps nothing else.

Calls that do not go through a wrapped entry point (private helpers,
generators such as `partitions_of` while they are iterated) are timed as
part of the layer that made them.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (layer, entry point, workload on which the traced run must call it)
ENTRY_POINTS = (
    ("ring", "RingParams.__init__", "query"),
    ("ring", "RingParams.rational", "modes"),
    ("ring", "RingParams.zeta", "modes"),
    ("ring", "RingParams.two_to", "modes"),
    ("ring", "Scalar.__add__", "modes"),
    ("ring", "Scalar.__mul__", "modes"),
    ("ring", "Scalar.__neg__", "modes"),
    ("ring", "Scalar.__eq__", "large-k"),
    ("labels", "all_labels", "large-k"),
    ("labels", "validate_label", "query"),
    ("labels", "normalize_lam_index", "query"),
    ("labels", "parse_label", "query"),
    ("labels", "lattice_coset", "query"),
    ("labels", "top_weight", "large-k"),
    ("labels", "u_plus", "query"),
    ("labels", "u_minus", "query"),
    ("labels", "lam", "query"),
    ("labels", "half", "query"),
    ("labels", "tw", "query"),
    ("labels", "m_vac", "query"),
    ("labels", "m_lam", "query"),
    ("labels", "m_tw", "query"),
    ("fock", "_SparseVector.__init__", "modes"),
    ("fock", "_SparseVector.__add__", "modes"),
    ("fock", "_SparseVector.map_terms", "modes"),
    ("fock", "_SparseVector.__mul__", "modes"),
    ("fock", "heis_act", "modes"),
    ("fock", "theta", "modes"),
    ("fock", "graded_dim", "large-k"),
    ("fock", "m1_graded_dim", "large-k"),
    ("fock", "top_vector", "query"),
    ("fock", "lattice_vector", "large-k"),
    ("untwisted", "vertex_mode", "modes"),
    ("untwisted", "omega_vec", "large-k"),
    ("untwisted", "j_vec", "large-k"),
    ("untwisted", "e_vec", "large-k"),
    ("untwisted", "p_coeff_apply", "large-k"),
    ("twisted", "tilde_mode", "modes"),
    ("twisted", "mtheta_mode", "modes"),
    ("twisted", "twisted_mode", "modes"),
    ("twisted", "delta_apply", "modes"),
    ("twisted", "psi_map", "modes"),
    ("intertwine", "intertwiner_mode", "modes"),
    ("intertwine", "phase_apply", "modes"),
    ("intertwine", "direct_witness", "query"),
    ("zhu", "top_action", "large-k"),
    ("zhu", "top_action_table", "large-k"),
    ("zhu", "expected_top_actions", "large-k"),
    ("zhu", "generator_vector", "large-k"),
    ("zhu", "contragredient", "query"),
    ("fusion", "FusionEngine.__init__", "query"),
    ("fusion", "FusionEngine.fusion", "query"),
    ("fusion", "upper_bound", "query"),
    ("fusion", "decompose", "query"),
    ("fusion", "m1_fusion", "query"),
    ("cli", "main", "query"),
)

# hot element-level entry points: counted in a pass of their own, never timed.
# m1_fusion runs about 10^7 times in 48 `query` ops, and m_lam about 8 * 10^5
# times in 52 `large-k` ops, against a span cost of about 2 us
COUNTED = frozenset({
    "Scalar.__add__", "Scalar.__mul__", "_SparseVector.__add__", "_SparseVector.map_terms",
    "m1_fusion", "m_lam",
})

# entry points whose nonzero results count toward a layer's nonzero_ratio
MODE_ENTRIES = {
    "untwisted": ("vertex_mode",),
    "twisted": ("tilde_mode", "mtheta_mode", "twisted_mode"),
    "intertwine": ("intertwiner_mode",),
}


class Tracer:
    """Spans and counts for the entry points outside COUNTED, or, with
    `counted`, bare counts for those in it.  Records only while `active`, so
    the benchmark's own input building and checks stay out."""

    def __init__(self, layers, counted: bool = False):
        self.active = False
        self.counted = counted
        self.layers = tuple(layers)
        self.stack = [["", 0.0]]
        self.self_s = dict.fromkeys(self.layers, 0.0)
        # entry -> [calls, calls from other layers, nonzero results of those, their seconds]
        self.entries = {
            name: [0, 0, 0, 0.0] for _layer, name, _w in ENTRY_POINTS
            if (name in COUNTED) == counted
        }

    def reset(self) -> None:
        """Zero every count in place; the wrappers hold these objects."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for rec in self.entries.values():
            rec[:] = [0, 0, 0, 0.0]

    def wrap(self, layer: str, name: str, fn, mode: bool):
        rec = self.entries[name]
        stack = self.stack
        self_s = self.self_s
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec[0] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            rec[1] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                stack[-1][1] += dt
                rec[3] += dt
            if mode and result:
                rec[2] += 1
            return result

        return _named(traced, fn, name)

    def count(self, name: str, fn):
        rec = self.entries[name]
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                rec[0] += 1
            return fn(*args, **kwargs)

        return _named(counted, fn, name)

    def install(self, modules: dict) -> None:
        """Wrap every entry point where it is defined and in every module
        namespace of the program that bound it by import."""
        namespaces = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name == "orbifold_voa" or mod_name.startswith("orbifold_voa.")
        ]
        for layer, name, _workload in ENTRY_POINTS:
            if name not in self.entries:
                continue
            mod = modules[layer]
            if "." in name:
                cls_name, attr = name.split(".")
                owner = [getattr(mod, cls_name)]
                fn = vars(owner[0])[attr]
            else:
                owner = namespaces
                fn = getattr(mod, name)
            if self.counted:
                traced = self.count(name, fn)
            else:
                traced = self.wrap(layer, name, fn, name in MODE_ENTRIES.get(layer, ()))
            for space in owner:
                for key, value in list(vars(space).items()):
                    if value is fn:
                        setattr(space, key, traced)

    def metrics(self) -> dict:
        """The per-layer metrics this pass gives, of everything recorded
        since `reset`."""
        e = self.entries
        if self.counted:
            return {
                "fusion.m1_fusion_calls": e["m1_fusion"][0],
                "fock.vector_ops": e["_SparseVector.__add__"][0] + e["_SparseVector.map_terms"][0],
                "ring.mul_calls": e["Scalar.__mul__"][0],
                "ring.add_calls": e["Scalar.__add__"][0],
            }

        def outer(names, field):
            return sum(e[n][field] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{layer}.self_s": self.self_s[layer] for layer in self.layers}
        out["fusion.upper_bound_calls"] = e["upper_bound"][0]
        out["cli.calls"] = e["main"][0]
        for layer, names in MODE_ENTRIES.items():
            out[f"{layer}.mode_calls"] = outer(names, 1)
            if layer != "intertwine":
                out[f"{layer}.nonzero_ratio"] = ratio(outer(names, 2), outer(names, 1))
        out["twisted.delta_apply_calls"] = e["delta_apply"][0]
        out["fock.count_calls"] = e["graded_dim"][0] + e["m1_graded_dim"][0]
        out["zhu.top_action_calls"] = e["top_action"][0]
        return out


def _named(wrapper, fn, name: str):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper
