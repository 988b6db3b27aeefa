"""Outside-in tracer: wraps public `l2approx` functions from the benchmark.

Nothing in the library changes.  `Tracer.install()` replaces each function
named in SPANS by a wrapper in every `l2approx` module that binds it, since
`from .exactalg import rank_exact` copies the name into `foxhomology` and
`rankfun`.  Each call becomes a span (name, start, end, parent, run id) kept
in memory and written as JSON lines by `write()`.

Exact work counts are taken from call arguments and results.  The time spent
taking them is excluded from every enclosing span, so self times measure the
library and not the counting.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional


def _rank_exact(counts, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    counts["exactalg.rank_exact.entries"] += m.rows * m.cols * m.field.degree
    counts["exactalg.rank_exact.nnz"] += sum(1 for e in m.entries if e)
    counts["exactalg.rank_exact.rank_sum"] += result


def _evaluate(counts, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    counts["groupcore.evaluate.words"] += len(x.support())
    counts["groupcore.evaluate.out_entries"] += result.rows * result.cols


def _weight_images(counts, args, kwargs, result):
    counts["repweights.weight_images.dim_sum"] += result[0].rows if result else 0


def _subgroup_closure(counts, args, kwargs, result):
    key = "rankfun.subgroup_closure.size_max"
    counts[key] = max(counts[key], len(result))


# module -> {function or Class.method: count hook}; the layers are the modules
SPANS: dict[str, dict[str, Optional[Callable]]] = {
    "census": {"builtin_entry": None},
    "cli": {"main": None, "run_experiment": None},
    "limitlab": {"weight_schedule": None},
    "foxhomology": {"homology_dims": None, "presentation_complex": None, "fox_jacobian": None},
    "repweights": {"RepAssignment.weight_images": _weight_images, "sym_power": None},
    "groupcore": {"evaluate": _evaluate},
    "exactalg": {"rank_exact": _rank_exact},
    "rankfun": {"luck_rank": None, "finite_vn_rank": None, "subgroup_closure": _subgroup_closure},
    "padicharris": {"harris_sequence": None, "congruence_quotient_map": None},
}

COUNTERS = ("exactalg.rank_exact.entries", "exactalg.rank_exact.nnz",
            "exactalg.rank_exact.rank_sum", "groupcore.evaluate.words",
            "groupcore.evaluate.out_entries", "repweights.weight_images.dim_sum",
            "rankfun.subgroup_closure.size_max")


def span_names() -> list[str]:
    return [f"{mod}.{qual.rsplit('.', 1)[-1]}" for mod, funcs in SPANS.items() for qual in funcs]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index, counting time inside the span]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counting_s = 0.0  # total time spent in count hooks so far
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        """Wrap every function in SPANS that the imported library defines."""
        import l2approx  # noqa: F401  (imports every module)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "l2approx" or n.startswith("l2approx.")]
        for mod_name, funcs in SPANS.items():
            mod = sys.modules.get(f"l2approx.{mod_name}")
            for qual, hook in funcs.items():
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # removed by a later version; its time falls to the caller
                wrapper = self._wrap(f"{mod_name}.{attr}", original, hook)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, key, wrapper)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.counting_s]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                rec[4] = self.counting_s - rec[4]
            if hook is not None:
                t0 = perf_counter()
                hook(self.counts, args, kwargs, result)
                self.counting_s += perf_counter() - t0
            return result
        return wrapper

    def self_times(self, start: float = float("-inf")) -> dict[str, float]:
        """Per-span-name self time over spans that began at or after `start`:
        duration minus counting time minus the durations of child spans."""
        eff = [end - beg - counting for _, beg, end, _, counting in self.spans]
        own = list(eff)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= eff[k]
        out: dict[str, float] = defaultdict(float)
        for k, (name, beg, _, _, _) in enumerate(self.spans):
            if beg >= start:
                out[name] += own[k]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "a") as fh:
            for name, beg, end, parent, counting in self.spans:
                fh.write(json.dumps({"name": name, "start": beg, "end": end, "parent": parent,
                                     "run": self.run_id, "counting_s": counting}) + "\n")
