"""Golden bytes of a run whose LMO is the exact SVD polar.

With ``oracle_polar: true`` the hidden-layer directions come from
``lmo.polar_exact``, that is from LAPACK's reduced SVD through
``np.linalg.svd``. The CSV and summary bytes were re-pinned when that SVD
replaced a one-sided Jacobi SVD: the polar factors agree to about 1e-13,
but their float order differs, so the run's bits do. The config bytes did
not change. A change of SVD routine or of its float order alters these
bytes even when every SVD stays within its tolerances; re-pin only for a
change that means to and says so. The digests were taken on x86-64 Linux
with Python 3.11, numpy 2.4.6 and its bundled OpenBLAS, the same with one
BLAS thread and with the default count.
"""

import json

from lanton.harness import parse_config, run_experiment
from test_golden import _KINDS, _MODES, _TASK, _digest

# sha256 of (config.json, seed_0.csv, summary.json).
GOLDEN_ORACLE_POLAR = (
    "34799c05ece65aeb76029f14afec862a2c486f223f4e7a9b5643b65f1c85642a",
    "5dcd1556964f1578bf0c58c341b29e981fd279936bfedccd403d32c266bbd230",
    "3ff8164cbc96c0e418f566897f3edd8169ef216f63168a14e722e58c34cf8eaf",
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
