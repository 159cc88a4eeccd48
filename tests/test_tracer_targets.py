"""Every name the benchmark's tracer patches still exists and is callable,
and the step makes the calls the tracer counts, from the callers it expects.

``perfbench/tracer.py`` wraps functions where lanton looks them up, by
module and attribute name. A refactor that drops or renames one of them
breaks ``perfbench/run.py --trace 1`` with an AttributeError; the first test
reads the tracer's table and fails fast instead. The second wraps the
tracer's dual-norm, LMO and Newton-Schulz targets with counters and checks
the per-caller counts the algorithm gives, so a change that moves, merges or
drops one of those calls fails here, not only in ``perfbench/selftest.py``.
"""

import collections
import importlib
import importlib.util
import json
import pathlib
import sys

import pytest

from lanton import harness

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,attr,span", _targets())
def test_tracer_target_resolves(module, attr, span):
    importlib.import_module(module)
    # The tracer takes the module from sys.modules, so the check does too.
    assert callable(getattr(sys.modules[module], attr, None)), f"{module}.{attr} ({span})"


# Two hidden layers (one tall, one wide), an embedding/head layer and a
# vector layer; every layer has a nonzero noise radius, so each gradient
# draws one noise sample per layer.
_LAYERS = [
    {"name": "tall", "shape": [5, 3], "group": "hidden", "sigma_lo": 0.01, "sigma_hi": 0.05},
    {"name": "wide", "shape": [3, 5], "group": "hidden", "sigma_lo": 0.2, "sigma_hi": 0.6},
    {"name": "emb", "shape": [3, 4], "group": "embedding_head", "sigma_lo": 0.0, "sigma_hi": 0.02},
    {"name": "vec", "shape": [4], "group": "vector_norm", "sigma_lo": 0.002, "sigma_hi": 0.004},
]
_SPANS = ("norms.dual_norm", "lmo.lmo", "lmo.newton_schulz")


def _counted_steps(monkeypatch, noise_option, total_steps):
    """Counts of (span, calling function) for each step of one seed's run.

    The counters sit where the tracer patches; a step's counts are taken
    when its optimizer step returns, after its noise draws and its update.
    """
    counts = collections.Counter()
    per_step = []
    for module, attr, span in _targets():
        if span not in _SPANS:
            continue
        original = getattr(sys.modules[module], attr)

        def counted(*args, _original=original, _span=span, **kwargs):
            counts[_span, sys._getframe(1).f_code.co_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sys.modules[module], attr, counted)
    step = harness.lanton_step

    def counted_step(*args, **kwargs):
        out = step(*args, **kwargs)
        per_step.append(dict(counts))
        counts.clear()
        return out

    monkeypatch.setattr(harness, "lanton_step", counted_step)
    cfg = harness.parse_config(json.dumps({
        "task": {"kind": "quadratic", "seed": 3, "layers": _LAYERS},
        "optimizer": {"kind": "lanton", "noise_option": noise_option, "noise_update_interval": 1},
        "total_steps": total_steps, "seeds": [0],
    }))
    records, _ = harness.execute_run(cfg, 0)
    assert len(records) == len(per_step) == total_steps
    return per_step


def _expected(noise_draws, tracker_norms):
    n_layers, n_hidden = len(_LAYERS), 2
    expected = {
        ("norms.dual_norm", "sample_dual_noise"): noise_draws * n_layers,
        ("norms.dual_norm", "update_noise_tracker"): tracker_norms * n_layers,
        ("norms.dual_norm", "_step"): n_layers,
        ("lmo.lmo", "_step"): n_layers,
        ("lmo.newton_schulz", "lmo"): n_hidden,
    }
    return {k: v for k, v in expected.items() if v}


def test_option_two_step_calls(monkeypatch):
    # A twin step: two noise draws per layer, one tracker norm of the twin
    # difference, one telemetry norm and one LMO per layer, and Newton-Schulz
    # for each hidden layer.
    (step,) = _counted_steps(monkeypatch, "II", 1)
    assert step == _expected(noise_draws=2, tracker_norms=1)


def test_option_one_step_calls(monkeypatch):
    # Option I has no previous gradient at step 0, so its first tracker
    # update folds in nothing; step 1 folds in one norm per layer.
    first, second = _counted_steps(monkeypatch, "I", 2)
    assert first == _expected(noise_draws=1, tracker_norms=0)
    assert second == _expected(noise_draws=1, tracker_norms=1)
