"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each ``noisyqfi`` module with
wrappers that record a span (name, start, end, parent) per call.  A function
is replaced in every ``noisyqfi`` namespace that holds it, because modules
import each other's functions by name (``protocols`` calls ``mstate``,
``series`` and ``fisher``; ``cli`` calls ``protocols`` and ``series``), and
in module-level dispatch tables (``cli._RUNNERS``).
``uninstall`` puts the originals back, so untraced passes run the program
unchanged.  A layer's self time is its spans' durations minus the parts
covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from noisyqfi import bloch
from noisyqfi.mstate import OrderedState

# module -> public functions that are timed
TARGETS = {
    "mstate": ("initial_state", "initial_state_orders", "prep_conjugate",
               "apply_channel", "apply_channel_derivative", "to_dense"),
    "series": ("channel_output_orders", "sld_orders", "qfi_orders",
               "fit_qfi_orders", "canonical_directions"),
    "fisher": ("qfi_exact", "cfi"),
    "protocols": ("build_state", "protocol_qfi", "local_measurement_sim"),
    "cli": ("main", "run_qfi", "run_measure", "run_fit_orders", "format_csv"),
    "bloch": ("svd3",),
}


def _state_bytes(state) -> int:
    if isinstance(state, OrderedState):
        return sum(st.coeffs.nbytes for st in state.orders)
    return state.coeffs.nbytes


def _prep_name(args, kwargs) -> str:
    state = args[0] if args else kwargs["state"]
    kind = "orders" if isinstance(state, OrderedState) else "fixed"
    return f"mstate.prep_conjugate.{kind}"


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, bytes in]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counted_from = 0           # spans before this index are not counted

    def _wrap(self, name: str, fn):
        tracer = self
        classify = _prep_name if name == "mstate.prep_conjugate" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = classify(args, kwargs) if classify else name
            nbytes = _state_bytes(args[0] if args else kwargs["state"]) if classify else 0
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, time.perf_counter(), 0.0, parent, nbytes]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "noisyqfi" or key.startswith("noisyqfi."))]
        for layer, names in TARGETS.items():
            owner = sys.modules[f"noisyqfi.{layer}"]
            for attr in names:
                orig = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for mod in modules:
                    namespace = vars(mod)
                    tables = [v for v in namespace.values() if isinstance(v, dict)]
                    for table in (namespace, *tables):
                        for key, value in list(table.items()):
                            if value is orig:
                                self._restore.append((table, key, orig))
                                table[key] = wrapper
        orig_eval = bloch.ChannelFamily.eval
        self._restore.append((bloch.ChannelFamily, "eval", orig_eval))
        bloch.ChannelFamily.eval = self._wrap("bloch.ChannelFamily.eval", orig_eval)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def start_counting(self) -> None:
        """Spans recorded from now on also count toward calls and bytes."""
        self.counted_from = len(self.spans)

    def summary(self, cells: int) -> dict[str, float]:
        """Self time per span name and per layer; calls and bytes of counted spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        nbytes = 0
        for idx, (name, start, end, _, size) in enumerate(self.spans):
            own = end - start - child[idx]
            self_s[name] += own
            self_s[name.split(".", 1)[0]] += own
            if idx >= self.counted_from:
                calls[name] += 1
                nbytes += size
        out = {f"{name}.self_s": value for name, value in self_s.items()}
        out["mstate.prep_conjugate.calls"] = (calls["mstate.prep_conjugate.orders"]
                                              + calls["mstate.prep_conjugate.fixed"])
        out["mstate.prep_conjugate.bytes_in"] = nbytes
        for name in ("fisher.qfi_exact", "protocols.protocol_qfi",
                     "protocols.local_measurement_sim"):
            out[f"{name}.calls"] = calls[name]
        out["series.sld_orders.calls_per_cell"] = calls["series.sld_orders"] / cells
        return out
