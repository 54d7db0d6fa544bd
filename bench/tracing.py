"""Per-layer tracing for the traced run, from the benchmark's side only.

``Tracer`` replaces module globals and class attributes of intervalcat with
timing wrappers while it is entered and puts the originals back on exit;
nothing in ``src/`` changes.  A wrapper is installed on every name a
caller looks up at call time: a function imported with ``from ... import``
is bound again in the importing module, so each binding is wrapped.

Times are self times: a span's duration minus the spans it encloses, so
the layer times of one round add up to at most the traced round time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from importlib import import_module
from time import perf_counter

from intervalcat.intervals import universe_size

# import_module, because the package re-exports a function named closure
# that hides the submodule of that name.
cli, closure, counting, oracle = (
    import_module(f"intervalcat.{name}") for name in ("cli", "closure", "counting", "oracle")
)

# Endpoint formulas that rule generation looks up in intervalcat.closure.
ENDPOINT_FORMULAS = (
    "all_intervals", "hom_dim", "quotients", "subobjects", "ext_middle",
    "cokernel_single", "cokernel_pair", "kernel_single", "kernel_pair",
)


class Tracer:
    def __init__(self):
        self.names = ["root"]  # open spans, innermost last
        self.inner = [0.0]  # time of closed child spans, per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.nested_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.names.append(name)
        self.inner.append(0.0)

    def _leave(self, name: str, dt: float) -> None:
        self.names.pop()
        inner = self.inner.pop()
        self.inner[-1] += dt
        self.self_s[name] += dt - inner
        self.nested_s[name, self.names[-1]] += dt
        self.calls[name] += 1

    def span(self, name, fn, after=None):
        def wrapped(*args, **kwargs):
            self._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, perf_counter() - t0)
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def leaf(self, name, fn):
        """A span that encloses no other span: no stack push."""
        inner, self_s, calls = self.inner, self.self_s, self.calls

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner[-1] += dt
                self_s[name] += dt
                calls[name] += 1

        return wrapped

    def generator(self, name, fn):
        """Times each step of a generator; the consumer's work between steps is not counted."""

        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._enter(name)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, perf_counter() - t0)
                self.counts[name + ".items"] += 1
                yield item

        return wrapped

    def rule_closure(self, fn):
        """RuleTable.closure: time, calls, early exits, and the calls Next-Closure makes."""
        names, inner, counts, self_s, calls = self.names, self.inner, self.counts, self.self_s, self.calls

        def wrapped(table, mask, forbidden=0):
            t0 = perf_counter()
            result = fn(table, mask, forbidden)
            dt = perf_counter() - t0
            inner[-1] += dt
            self_s["closure.closure"] += dt
            calls["closure.closure"] += 1
            if result is None:
                counts["closure.forbidden"] += 1
            if names[-1] == "counting.lectic":
                counts["lectic.closure_calls"] += 1
                if result is None:
                    counts["lectic.rejected"] += 1
            return result

        return wrapped

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        counts = self.counts
        RuleTable = closure.RuleTable

        def count_instances(args, result):
            counts["closure.instances"] += len(result)

        def count_kept(args, result):
            counts["closure.rules_kept"] += args[0].rule_count

        def count_masks(args, result):
            counts["sweep.masks"] += 1 << universe_size(args[0])

        def count_covers(args, result):
            counts["lattice.covers"] += len(result.covers)

        self._patch(cli, "main", self.span("cli", cli.main))
        self._patch(RuleTable, "__init__", self.span("closure.table_build", RuleTable.__init__, count_kept))
        self._patch(RuleTable, "closure", self.rule_closure(RuleTable.closure))
        self._patch(closure, "rule_instances", self.span("closure.rule_gen", closure.rule_instances, count_instances))
        for name in ENDPOINT_FORMULAS:
            self._patch(closure, name, self.leaf("intervals", getattr(closure, name)))
        self._patch(counting, "_lectic_masks", self.generator("counting.lectic", counting._lectic_masks))
        sweep = self.span("counting.sweep", counting.count_brute, count_masks)
        count = self.span("counting.count", counting.count_next_closure)
        iterate = self.generator("counting.iter", counting.iter_closed_sets)
        for module in (counting, cli):
            self._patch(module, "count_brute", sweep)
            self._patch(module, "count_next_closure", count)
            self._patch(module, "iter_closed_sets", iterate)
        self._patch(cli, "closure", self.span("closure.query", cli.closure))
        self._patch(cli, "sequence", self.span("counting.sequence", cli.sequence))
        self._patch(cli, "lattice", self.span("counting.lattice", cli.lattice, count_covers))
        self._patch(oracle, "morphism_between_sums", self.span("oracle.morphism", oracle.morphism_between_sums))
        self._patch(oracle, "module_of", self.leaf("oracle.module_of", oracle.module_of))
        self._patch(oracle, "block_diag", self.leaf("gf2.block_diag", oracle.block_diag))
        self._patch(oracle, "cokernel_rep", self.leaf("oracle.cokernel", oracle.cokernel_rep))
        self._patch(oracle, "kernel_rep", self.leaf("oracle.kernel", oracle.kernel_rep))
        self._patch(oracle, "barcode", self.leaf("oracle.barcode", oracle.barcode))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self, useful_maps: int) -> dict[str, float]:
        s, c, k = self.self_s, self.calls, self.counts
        instances, kept = k["closure.instances"], k["closure.rules_kept"]
        closure_calls = c["closure.closure"]
        sets = k["counting.lectic.items"]
        maps = c["oracle.morphism"]
        return {
            "closure.instances": instances,
            "closure.rules_kept": kept,
            "closure.kept_ratio": _ratio(kept, instances),
            "closure.rule_gen_s": s["closure.rule_gen"],
            "closure.table_build_s": s["closure.table_build"],
            "intervals.s": s["intervals"],
            "closure.closure_calls": closure_calls,
            "closure.closure_us": _ratio(s["closure.closure"] * 1e6, closure_calls),
            "closure.forbidden_exits": k["closure.forbidden"],
            "counting.closure_calls_per_set": _ratio(k["lectic.closure_calls"], sets),
            "counting.rejected_per_set": _ratio(k["lectic.rejected"], sets),
            "counting.lectic_s": s["counting.lectic"],
            "counting.sweep_s": s["counting.sweep"],
            "counting.sweep_masks_per_s": _ratio(k["sweep.masks"], s["counting.sweep"]),
            "counting.lattice_enum_s": self.nested_s["counting.iter", "counting.lattice"],
            "counting.covers_s": s["counting.lattice"],
            "counting.covers": k["lattice.covers"],
            "oracle.maps": maps,
            "oracle.morphism_s": s["oracle.morphism"],
            "oracle.module_of_per_map": _ratio(c["oracle.module_of"], maps),
            "oracle.cokernel_s": s["oracle.cokernel"],
            "oracle.kernel_s": s["oracle.kernel"],
            "oracle.barcode_s": s["oracle.barcode"],
            "oracle.useful_ratio": _ratio(useful_maps, maps),
            "gf2.block_diag_s": s["gf2.block_diag"],
            "cli.overhead_s": s["cli"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
