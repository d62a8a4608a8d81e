"""Span tracer for one benchmark child process.

`install` wraps the public functions of every superkoszul layer (one layer
per module) in a timing wrapper, and replaces *every* reference to each
wrapped function inside the package: the defining module's global, names
imported into other modules (`from .superspace import blocked_image`), and
class attributes that alias a method (`SparseMap.__matmul__ = compose`).
Patching only the defining name would let those calls run unseen.

Each call records a span (name, start, end, parent, run id).  Spans and
counters stay in memory; `Tracer.dump` writes them out when the child ends.
While spans close, the tracer also accumulates:

- `self_s[layer]`: span time minus the time of its child spans, so the
  layer self times add up to the traced time without double counting;
- `incl[key]`: inclusive time of the outermost calls of each metric group,
  so a function that recurses or is called from a sibling of its own group
  is not counted twice;
- counters and maxima set by the per-function hooks below.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("linalg", "superspace", "koszul", "glrep", "characters", "harness",
          "cli")

FAMILY_GROUP = "glrep.family"

# Constructor method -> family label used in glrep.family_s.<label>.
FAMILIES = {
    "h31": "H31",
    "image_module": "IMD",
    "y_summand": "Y",
    "z1": "Z1",
    "zk": "ZK",
    "mmp": "MMP",
    "mfinal": "MFINAL",
    "ilambda": "ILAMBDA",
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []  # span name table; spans refer to it by index
        self._name_ix = {}
        self.spans = []  # [id, name index, start ns, end ns, parent id]
        self._stack = []  # [span id, group, start ns, child ns, parent]
        self._active = {}  # group -> open span count
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.incl_ns = {}
        self.counts = {}
        self.maxima = {}
        self.fired = set()
        self._seen_calls = set()

    def name_index(self, name):
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def enter(self, group):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._active[group] = self._active.get(group, 0) + 1
        self._stack.append([sid, group, time.perf_counter_ns(), 0, parent])

    def exit(self, name_ix, layer, key):
        end = time.perf_counter_ns()
        sid, group, start, child, parent = self._stack.pop()
        dur = end - start
        self.spans[sid] = (sid, name_ix, start, end, parent)
        self.self_ns[layer] += dur - child
        depth = self._active[group] - 1
        self._active[group] = depth
        if key is not None and depth == 0:
            self.incl_ns[key] = self.incl_ns.get(key, 0) + dur
        if self._stack:
            self._stack[-1][3] += dur

    def exclude(self, ns):
        """Charge hook work to no layer: it counts as a child of the caller."""
        if self._stack:
            self._stack[-1][3] += ns

    def repeated(self, call):
        """True when this exact call was made before in this process."""
        if call in self._seen_calls:
            return True
        self._seen_calls.add(call)
        return False

    def summary(self):
        return {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "incl_s": {k: v / 1e9 for k, v in self.incl_ns.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "fired": sorted(self.fired),
            "spans": len(self.spans),
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "fields": ["id", "name", "start_ns", "end_ns",
                                  "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# hooks: before(tracer, args) -> state; after(tracer, args, result, state)


def _entry_bits(mat):
    bits = 0
    for v in mat.entries.values():
        b = max(v.numerator.bit_length(), v.denominator.bit_length())
        if b > bits:
            bits = b
    return bits


def _elimination(tracer, args, result, state):
    mat = args[0]
    tracer.count("linalg.eliminations")
    tracer.maximum("linalg.max_block_dim", max(mat.dom_dim, mat.cod_dim))
    tracer.maximum("linalg.max_entry_bits", _entry_bits(mat))


def _compose(tracer, args, result, state):
    tracer.count("linalg.compose_calls")


def _rational_spectrum(tracer, args, result, state):
    tracer.count("linalg.rational_spectra")


def _power_basis_before(tracer, args):
    from superkoszul import superspace
    return len(superspace._PB_CACHE)


def _power_basis(tracer, args, result, state):
    from superkoszul import superspace
    tracer.count("superspace.basis_calls")
    if len(superspace._PB_CACHE) > state:
        tracer.count("superspace.basis_builds")
    else:
        tracer.count("superspace.basis_hits")


def _split_graded(tracer, args, result, state):
    tracer.count("superspace.blocks", len(result))


def _verify_spectrum_before(tracer, args):
    return tracer.counts.get("linalg.rational_spectra", 0)


def _verify_spectrum(tracer, args, result, state):
    # args: (blocks, total_dim, derived, ...).  The prediction-first path
    # proves the spectrum by annihilation; the fallback factors
    # characteristic polynomials block by block.
    if args[2] is not None:
        tracer.count("koszul.spectra_predicted")
        if tracer.counts.get("linalg.rational_spectra", 0) == state:
            tracer.count("koszul.spectra_annihilated")


def _generator_matrix(tracer, args, result, state):
    tracer.count("glrep.generator_matrices")


def _on_product_before(tracer, args):
    return len(args[0]._product)


def _on_product(tracer, args, result, state):
    tracer.count("glrep.on_product_calls")
    if len(args[0]._product) == state:
        tracer.count("glrep.on_product_hits")


def _module_build(tracer, args, result, state):
    tracer.maximum("glrep.max_module_dim", result.dim)


def _family_call(method):
    def hook(tracer, args, result, state):
        tracer.count("glrep.family_calls")
        if tracer.repeated((method, repr(args[1:]))):
            tracer.count("glrep.family_repeats")
    return hook


# ---------------------------------------------------------------------------
# what to wrap
#
# A key names the inclusive-time metric the span feeds (a callable key is
# worked out from the call's arguments); None marks a span kept only so its
# self time lands in the right layer.  Hot helpers that
# run millions of times per workload (SparseMap.apply, vec_add,
# Subspace.coordinates_of, LaurentPoly arithmetic) are deliberately not
# wrapped: their time is charged to the traced caller in the same layer or
# the one above.


def _spec(module, qualname, key=None, after=None, before=None, group=None):
    return {"module": module, "qualname": qualname, "key": key,
            "after": after, "before": before, "group": group or key}


def _specs():
    out = [
        _spec("linalg", "SparseMap.compose", "linalg.compose_s", _compose),
        _spec("linalg", "SparseMap.kron", "linalg.kron_s"),
        _spec("linalg", "SparseMap.add", "linalg.add_s"),
        _spec("linalg", "SparseMap.scaled"),
        _spec("linalg", "SparseMap.rank", "linalg.elim_s", _elimination),
        _spec("linalg", "SparseMap.kernel", "linalg.elim_s", _elimination),
        _spec("linalg", "SparseMap.image", "linalg.elim_s", _elimination),
        _spec("linalg", "SparseMap.restrict", "linalg.restrict_s"),
        _spec("linalg", "SparseMap.rational_spectrum", None,
              _rational_spectrum),
        _spec("linalg", "Subspace.from_vectors", "linalg.subspace_s"),
        _spec("linalg", "Subspace.intersect", "linalg.subspace_s"),
        _spec("linalg", "Subspace.complement_of", "linalg.subspace_s"),
        _spec("superspace", "power_basis", None, _power_basis,
              _power_basis_before),
        _spec("superspace", "PowerBasis.factor_map",
              "superspace.factor_map_s"),
        _spec("superspace", "split_graded", "superspace.split_graded_s",
              _split_graded),
        _spec("superspace", "blocked_rank"),
        _spec("superspace", "blocked_kernel"),
        _spec("superspace", "blocked_image"),
        _spec("koszul", "verify_spectrum", "koszul.verify_spectrum_s",
              _verify_spectrum, _verify_spectrum_before),
        _spec("glrep", "generator_matrix", "glrep.generator_matrix_s",
              _generator_matrix),
        _spec("glrep", "GLAction.on_product", "glrep.on_product_s",
              _on_product, _on_product_before),
        _spec("glrep", "check_equivariance", "glrep.equivariance_s"),
        _spec("glrep", "module_from_subspace", "glrep.module_build_s",
              _module_build),
        _spec("glrep", "quotient_module", "glrep.module_build_s",
              _module_build),
        _spec("glrep", "ambient_module", "glrep.module_build_s",
              _module_build),
        _spec("glrep", "dual_module"),
        _spec("glrep", "berezinian_twist"),
        _spec("glrep", "GLModule.is_irreducible", "glrep.irreducible_s"),
        _spec("glrep", "GLModule.raising_kernel"),
        _spec("glrep", "GLModule.submodule_span"),
        _spec("glrep", "GLModule.twist"),
        _spec("characters", "supercharacter", "characters.enumerate_s"),
        _spec("characters", "CharFraction.compare", "characters.compare_s"),
        _spec("characters", "CharFraction.to_poly"),
        _spec("harness", "run"),
        _spec("harness", "run_group"),
        _spec("harness", "construct_report"),
        _spec("harness", "spectrum_report"),
        _spec("harness", "character_report"),
        _spec("harness", "export_matrix"),
        _spec("harness", "export_basis"),
        _spec("harness", "store_report"),
        _spec("harness", "Report.finish", "harness.report_s"),
        _spec("harness", "Report.to_json", "harness.report_s"),
        _spec("cli", "_emit", "cli.emit_s"),
    ]
    for name in ("pair_d", "pair_del", "pair_p", "pair_q"):
        out.append(_spec("koszul", f"KoszulContext.{name}",
                         "koszul.pair_op_s"))
    out += [
        _spec("koszul", "KoszulContext.operator", "koszul.triple_op_s"),
        _spec("koszul", "KoszulContext.composed", "koszul.composed_s"),
        _spec("koszul", "KoszulContext.loop_blocks", "koszul.loop_blocks_s"),
        _spec("koszul", "KoszulContext.splitting", "koszul.splitting_s"),
        _spec("koszul", "KoszulContext.loop_spectrum",
              lambda args: f"koszul.loop_spectrum_s.{args[1]}"),
    ]
    for name in ("d_rank", "d_del_identity", "p_q_identity",
                 "d_squared_is_zero", "p_squared_is_zero", "commute_check",
                 "k_homology_dim", "k_homology", "kerp_space",
                 "kerp_is_incoming_image", "d_restricts_to_kerp",
                 "del_restricts_to_kerp", "loop_setup", "xdanh_check"):
        out.append(_spec("koszul", f"KoszulContext.{name}"))
    for name in ("ch_typical", "ch_atypical", "ch_v", "kac_sum",
                 "ch_schur_super", "image_char", "mmp_char", "y_char",
                 "z1_char", "zk_char", "zk_char_stated", "mfinal_char"):
        out.append(_spec("characters", name, "characters.formula_s"))
    for method, label in FAMILIES.items():
        out.append(_spec("glrep", f"Constructor.{method}",
                         f"glrep.family_s.{label}", _family_call(method),
                         group=FAMILY_GROUP))
    for name in ("verify", "construct", "spectrum", "character", "export"):
        out.append(_spec("cli", f"_cmd_{name}", "cli.handler_s"))
    return out


SPECS = _specs()
SPAN_NAMES = tuple(f"{s['module']}.{s['qualname']}" for s in SPECS)


def _make_wrapper(tracer, spec, fn):
    layer = spec["module"]
    name = f"{layer}.{spec['qualname']}"
    name_ix = tracer.name_index(name)
    before, after = spec["before"], spec["after"]
    key_of = spec["key"] if callable(spec["key"]) else None
    key, group = spec["key"], spec["group"]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.fired.add(name)
        state = before(tracer, args) if before else None
        if key_of:
            k = g = key_of(args)
        else:
            k, g = key, group
        tracer.enter(g)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(name_ix, layer, k)
        if after:
            t = time.perf_counter_ns()
            after(tracer, args, result, state)
            tracer.exclude(time.perf_counter_ns() - t)
        return result

    return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "superkoszul" or n.startswith("superkoszul."))
            and m is not None]


def _classes(module):
    return [v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__]


def original(spec):
    """(function, is classmethod) that a spec names, as the package defines it."""
    mod = importlib.import_module(f"superkoszul.{spec['module']}")
    owner_name, _, attr = spec["qualname"].rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    raw = vars(owner)[attr]
    is_cm = isinstance(raw, classmethod)
    return (raw.__func__ if is_cm else raw), is_cm


def install(tracer):
    """Wrap every traced function and every alias of it in the package."""
    for layer in LAYERS:
        importlib.import_module(f"superkoszul.{layer}")
    modules = _package_modules()
    owners = modules + [c for m in modules for c in _classes(m)]
    for spec in SPECS:
        fn, is_cm = original(spec)
        wrapper = _make_wrapper(tracer, spec, fn)
        replaced = 0
        for o in owners:
            for k, v in list(vars(o).items()):
                if v is fn or (is_cm and isinstance(v, classmethod)
                               and v.__func__ is fn):
                    setattr(o, k, classmethod(wrapper) if is_cm else wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"no reference to {spec['qualname']} found")
