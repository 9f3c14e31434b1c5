"""Spans and counters at schurq's layer boundaries, recorded from outside
the program by replacing public names with timing wrappers.

Python binds a name at import time, so a wrapper must replace the original
object in every schurq module that holds it (``schurq.symfunc.schur``,
``schurq.fock.schur``, ``schurq.verify.schur``, ...), and on a class under
every alias (``__mul__`` and ``__rmul__``).  Names held inside containers,
such as the substitutions in ``schurq.cli._SUBST``, are not replaced; no
workload reaches them.

Each boundary call pushes a frame on one stack.  A frame's self time is its
duration minus the durations of the boundary calls made inside it.  Calls to
the ``exactalg`` boundaries run hundreds of thousands of times, so they are
not kept as single spans: they are summed per (parent span, boundary), which
keeps the trace bounded.  Every other call is kept as a span
``(id, boundary, parent id, start, end, self)``.
"""

import sys
import time

# boundary name -> (module, attribute path) of each public name it covers
BOUNDARIES = {
    "exactalg.poly_mul": [("schurq.exactalg", "SparsePoly.__mul__")],
    "exactalg.poly_add": [("schurq.exactalg", "SparsePoly.__add__")],
    "exactalg.substitute": [("schurq.exactalg", "SparsePoly.substitute")],
    "exactalg.poly_eq": [("schurq.exactalg", "SparsePoly.__eq__")],
    "exactalg.render": [("schurq.exactalg", "SparsePoly.__str__")],
    "exactalg.scalar_mul": [("schurq.exactalg", "Sqrt2Rational.__mul__")],
    "exactalg.scalar_add": [("schurq.exactalg", "Sqrt2Rational.__add__")],
    "partitions.enumerate_added": [("schurq.partitions", "enumerate_added")],
    "partitions.bar_quotient": [("schurq.partitions", "bar_quotient")],
    "partitions.signs": [("schurq.partitions", "delta0"),
                         ("schurq.partitions", "delta1"),
                         ("schurq.partitions", "stats")],
    "symfunc.generators": [("schurq.symfunc", "h_poly"),
                           ("schurq.symfunc", "q_poly")],
    "symfunc.poly_det": [("schurq.symfunc", "poly_det")],
    "symfunc.pfaffian": [("schurq.symfunc", "pfaffian")],
    "symfunc.qq_pair": [("schurq.symfunc", "qq_pair")],
    "symfunc.schur": [("schurq.symfunc", "schur")],
    "symfunc.schur_q": [("schurq.symfunc", "schur_q")],
    "symfunc.subst": [("schurq.symfunc", "subst_2t2"),
                      ("schurq.symfunc", "subst_u"),
                      ("schurq.symfunc", "subst_odd"),
                      ("schurq.symfunc", "subst_q_u"),
                      ("schurq.symfunc", "power_sum_specialize")],
    "fock.beta_apply": [("schurq.fock", "beta_apply")],
    "fock.f_apply": [("schurq.fock", "f_apply")],
    "fock.vector_add": [("schurq.fock", "FockVector.__add__")],
    "fock.to_normal_words": [("schurq.fock", "to_normal_words")],
    "fock.normal_word_image": [("schurq.fock", "normal_word_image")],
    "fock.phi_closed_form": [("schurq.fock", "phi_closed_form")],
    "fock.boson_add": [("schurq.fock", "BosonElement.__add__")],
    "verify.check": [("schurq.verify", name) for name in (
        "check_main1", "check_main2", "check_trapezoid", "check_f_power",
        "check_core_states", "check_phi_consistency", "check_symfunc_props",
        "check_symfunc_homogeneity", "check_symfunc_antisymmetry",
        "check_symfunc_pfaffian_det", "check_symfunc_bialternant")],
    "cli.main": [("schurq.cli", "main")],
}


def replace_everywhere(module_name, path, make_wrapper):
    """Replace the object at `module_name`.`path` by make_wrapper(original)
    wherever schurq holds it: as a module global in any loaded schurq module,
    or under any alias in the class that defines it."""
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = getattr(owner, parts[-1])
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name != "schurq" and not name.startswith("schurq."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Holds the spans, sums and counters of one traced process."""

    def __init__(self):
        self.names = list(BOUNDARIES)
        self.spans = []      # (id, boundary index, parent id, start, end, self)
        self.summed = {}     # (parent id, boundary index) -> [calls, total, self]
        self.stack = [[0.0, 0]]  # frames: [time in child calls, span id]
        self.next_id = 1
        self.members = 0
        self.words_out = 0
        self.terms_out = 0
        self.keys = {"symfunc.schur": [0, set()], "symfunc.schur_q": [0, set()]}

    def install(self):
        for boundary, targets in BOUNDARIES.items():
            index = self.names.index(boundary)
            summed = boundary.startswith("exactalg.")
            for module_name, path in targets:
                replace_everywhere(
                    module_name, path,
                    lambda fn, i=index, s=summed, b=boundary: self._wrap(fn, i, s, b))

    def _wrap(self, fn, index, summed, boundary):
        stack = self.stack
        clock = time.perf_counter
        count = self._counter(boundary)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if summed:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, self.next_id]
                self.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                own = duration - frame[0]
                if summed:
                    acc = self.summed.setdefault((parent[1], index), [0, 0.0, 0.0])
                    acc[0] += 1
                    acc[1] += duration
                    acc[2] += own
                else:
                    self.spans.append((frame[1], index, parent[1], start, end, own))
            if count is not None:
                count(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, boundary):
        """Size and sharing counters taken from a boundary's arguments and
        returned object, outside its own span."""
        if boundary == "partitions.enumerate_added":
            def count(args, out):
                self.members += len(out)
        elif boundary == "fock.to_normal_words":
            def count(args, out):
                self.words_out += len(out)
        elif boundary == "fock.vector_add":
            def count(args, out):
                self.terms_out += len(out.terms)
        elif boundary == "symfunc.schur":
            def count(args, out):
                entry = self.keys[boundary]
                entry[0] += 1
                entry[1].add(tuple(int(p) for p in args[0] if int(p) > 0))
        elif boundary == "symfunc.schur_q":
            def count(args, out):
                entry = self.keys[boundary]
                entry[0] += 1
                entry[1].add(tuple(int(p) for p in args[0] if int(p) != 0))
        else:
            return None
        return count

    def summary(self):
        """calls and self seconds per boundary (0 for boundaries never
        called), plus the counters."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for _, index, _, _, _, self_s in self.spans:
            calls[index] += 1
            own[index] += self_s
        for (_, index), (n, _, self_s) in self.summed.items():
            calls[index] += n
            own[index] += self_s
        out = {}
        for index, name in enumerate(self.names):
            out[name + ".calls"] = calls[index]
            out[name + ".self_s"] = own[index]
        out["partitions.members"] = self.members
        out["fock.to_normal_words.words_out"] = self.words_out
        out["fock.vector_add.terms_out"] = self.terms_out
        for name, (n, keys) in self.keys.items():
            out[name + ".repeat_share"] = 1 - len(keys) / n if n else 0.0
            out[name + ".distinct_keys"] = len(keys)
        out["trace.spans"] = len(self.spans)
        out["trace.summed_entries"] = len(self.summed)
        return out
