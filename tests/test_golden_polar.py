"""Golden bytes of a run whose LMO is the exact SVD polar.

With ``oracle_polar: true`` the hidden-layer directions come from
``lmo.polar_exact``, that is from ``linalg.jacobi_svd``. A change to the
Jacobi sweep's float order alters these bytes even when every SVD stays
within its tolerances; re-pin only for a change that means to and says so.
The digests were taken on x86-64 Linux with Python 3.11 and numpy 2.4.6,
the same with one BLAS thread and with the default count.
"""

import json

from lanton.harness import parse_config, run_experiment
from test_golden import _KINDS, _MODES, _TASK, _digest

# sha256 of (config.json, seed_0.csv, summary.json).
GOLDEN_ORACLE_POLAR = (
    "34799c05ece65aeb76029f14afec862a2c486f223f4e7a9b5643b65f1c85642a",
    "1baa728b3d3899b6f78bea638600ef8bf5849b27f7f86f267908e8103d71f4a5",
    "e2dfd9b218b29e0dc7859557e0d8a146bcb81f3c310728328f21115c3874342c",
)


def test_golden_oracle_polar_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(json.dumps({
        "task": _TASK,
        "optimizer": {**_KINDS["lanton_II"], **_MODES["raw"], "oracle_polar": True},
        "seeds": [0],
        "total_steps": 20,
        "telemetry": {"h": True, "ratio": True, "dual_grad_norm": True},
        "output_path": "run",
        "loss_threshold": 0.5,
    }))
    run_experiment(cfg)
    got = tuple(_digest(tmp_path / "run" / name)
                for name in ("config.json", "seed_0.csv", "summary.json"))
    assert got == GOLDEN_ORACLE_POLAR
