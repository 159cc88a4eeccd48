"""Outside-in span tracer: wraps lanton's functions where they are looked up.

Nothing inside the package is edited. Each wrapped call records a span
``(name, start_ns, end_ns, parent, op)``; spans stay in memory and are
written out once, at the end. A layer's self time is its span's duration
minus the durations of its direct children (calls nest, one thread).
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute, span name). A function is wrapped in every module
# namespace it is called through, because `from x import f` copies the
# binding. `lanton.lmo` on the package is the function `lmo` (the package
# __init__ shadows the submodule), so the module comes from sys.modules.
TARGETS = (
    ("lanton.harness", "parse_config", "harness.parse_config"),
    ("lanton.harness", "run_experiment", "harness.run_experiment"),
    ("lanton.harness", "build_task", "harness.build_task"),
    ("lanton.harness", "execute_run", "harness.execute_run"),
    ("lanton.harness", "value_grad", "tasks.value_grad"),
    ("lanton.harness", "perturb_gradients", "tasks.perturb_gradients"),
    ("lanton.harness", "lanton_step", "optimizer.lanton_step"),
    ("lanton.harness", "baseline_step", "optimizer.baseline_step"),
    ("lanton.harness", "emit_metrics", "harness.emit_metrics"),
    ("lanton.harness", "read_metrics", "harness.read_metrics"),
    ("lanton.optimizer", "lmo", "lmo.lmo"),
    ("lanton.optimizer", "dual_norm", "norms.dual_norm"),
    ("lanton.optimizer", "update_noise_tracker", "optimizer.update_noise_tracker"),
    ("lanton.optimizer", "alpha_and_ratio", "optimizer.alpha_and_ratio"),
    ("lanton.tasks", "dual_norm", "norms.dual_norm"),
    ("lanton.lmo", "newton_schulz", "lmo.newton_schulz"),
    ("lanton.cli", "main", "cli.main"),
    ("lanton.cli", "build_task", "harness.build_task"),
    ("lanton.cli", "read_metrics", "harness.read_metrics"),
    ("lanton.cli", "compare_runs", "harness.compare_runs"),
    ("lanton.cli", "alpha_ratio_envelope", "diagnostics.alpha_ratio_envelope"),
    ("lanton.cli", "h_bounds_check", "diagnostics.h_bounds_check"),
    ("lanton.cli", "noise_range_estimate", "diagnostics.noise_range_estimate"),
)

# A dual norm is attributed to the role of the span that called it.
DUAL_NORM_ROLES = {
    "tasks.perturb_gradients": "noise",
    "optimizer.update_noise_tracker": "tracker",
    "optimizer.lanton_step": "telemetry",
    "optimizer.baseline_step": "telemetry",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op]
        self.emitted_bytes = 0
        self._stack: list[int] = []
        self._saved: list = []
        self.op = -1  # index of the op the next spans belong to

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        if name == "harness.emit_metrics":
            @functools.wraps(fn)
            def traced_emit(records, path):
                traced(records, path)
                self.emitted_bytes += os.path.getsize(path)
            return traced_emit
        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start_ns,end_ns,parent,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(f"{sid},{name},{start},{end},{parent},{op}\n")

    def breakdown(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns and self ns.

        Dual norms also get one calls-only row per calling role, keyed
        ``norms.dual_norm.<role>`` and marked with ``role_of``.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["incl_ns"] += end - start
            row["self_ns"] += end - start - child_ns[sid]
            if name == "norms.dual_norm":
                role = DUAL_NORM_ROLES.get(self.spans[parent][0] if parent >= 0 else "")
                key = f"{name}.{role}"
                out.setdefault(key, {"calls": 0, "role_of": name})["calls"] += 1
        return out
