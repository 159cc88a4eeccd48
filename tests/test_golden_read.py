"""Golden bytes of the read side: ``lanton diagnose`` and ``lanton compare``.

The digests were taken from the code as it stood before ``diagnose`` stopped
building the task and before ``read_metrics`` was rewritten (``hetero_twin``:
before the records became named tuples and the diagnostics single-pass), on
x86-64 Linux with Python 3.11 and numpy 2.4.6. A change that alters any byte of
``diagnostics.json``, of the ``diagnose`` stdout or of the ``compare`` stdout
for these run directories fails here. Re-pin only for a change that means to
alter the reports and says why.
"""

import hashlib
import json

import pytest

from lanton.cli import main

# A layer list with a layer of each group, so the equivalence constants,
# the layer groups and the noise radii all differ between layers.
_QUADRATIC = {
    "kind": "quadratic",
    "seed": 5,
    "layers": [
        {"name": "hid", "shape": [5, 3], "group": "hidden", "smoothness": 2.0,
         "sigma_lo": 0.01, "sigma_hi": 0.05},
        {"name": "hid2", "shape": [3, 5], "group": "hidden", "smoothness": 1.0,
         "sigma_lo": 0.2, "sigma_hi": 0.6},
        {"name": "emb", "shape": [3, 4], "group": "embedding_head", "smoothness": 0.5,
         "sigma_lo": 0.0, "sigma_hi": 0.02},
        {"name": "vec", "shape": [4], "group": "vector_norm", "smoothness": 1.0,
         "sigma_lo": 0.002, "sigma_hi": 0.004},
    ],
}

_MLP = {"kind": "mlp", "widths": [6, 16, 3], "n_samples": 48, "dataset_seed": 2,
        "label_noise": 0.05, "seed": 1,
        "noise": {"w1": [0.002, 0.004], "w2": [0.05, 0.2]}}

# Per case: the task, the diagnosed run's optimizer, the compared run's
# optimizer, the seeds, the step count and the compare threshold.
_CASES = {
    # Option II at interval 1: diagnose runs all three diagnostics.
    "quadratic_twin": (_QUADRATIC,
                       {"kind": "lanton", "noise_option": "II", "noise_update_interval": 1,
                        "eta_max": 0.02, "eta_min": 0.002},
                       {"kind": "fixed_rate_lmo", "eta_max": 0.02, "eta_min": 0.002},
                       [0], 40, 2.0),
    # Lanton defaults beside fixed_rate_lmo on two seeds, as in the benchmark.
    "mlp_pair": (_MLP,
                 {"kind": "lanton", "eta_max": 0.05, "eta_min": 0.005},
                 {"kind": "fixed_rate_lmo", "eta_max": 0.05, "eta_min": 0.005},
                 [0, 1], 30, 0.1),
    # The benchmark's hetero_twin shape: the heterogeneous preset (6 hidden
    # 8x8 layers), option II at interval 1, three seeds.
    "hetero_twin": ({"kind": "quadratic", "preset": "heterogeneous", "spread": 100.0, "seed": 3},
                    {"kind": "lanton", "mode": "raw", "noise_option": "II",
                     "noise_update_interval": 1, "eta_max": 5e-3, "eta_min": 5e-4},
                    {"kind": "fixed_rate_lmo", "eta_max": 5e-3, "eta_min": 5e-4},
                    [0, 1, 2], 60, 1.5),
}

# sha256 of (diagnostics.json, diagnose stdout, compare stdout) per case.
GOLDEN = {
    "hetero_twin": (
        "bd5560a58e0ee9de44ca310f52f06ad977b16af0b234e1e79e6467d06aadcd63",
        "bd5560a58e0ee9de44ca310f52f06ad977b16af0b234e1e79e6467d06aadcd63",
        "dbd7378b7af05cbc4d13452cfcfcbc160e832dd5d4253b664eb7dd9e8fdcf16f",
    ),
    "mlp_pair": (
        "279056a5f18fabf1f8101c8e7d4ec43d43bfafcd8003de599a92ce951c9c62e5",
        "279056a5f18fabf1f8101c8e7d4ec43d43bfafcd8003de599a92ce951c9c62e5",
        "70f1e82beb78ce2bf1f80850f504933c31bf3570ddfd8227c478f2440347e80d",
    ),
    "quadratic_twin": (
        "9718ddf2f09f3041ed0650632dac902a44fbde11401a0d75ae711393aa907053",
        "9718ddf2f09f3041ed0650632dac902a44fbde11401a0d75ae711393aa907053",
        "cc66a079a37fc12c942c1f052994401240ae148fc669cead8b25b0310f8038bf",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(_CASES))
def test_golden_read_side(case, tmp_path, monkeypatch, capsys):
    # Relative run directories keep the paths the reports echo fixed.
    monkeypatch.chdir(tmp_path)
    task, diagnosed, compared, seeds, steps, threshold = _CASES[case]
    for label, optimizer in (("a", diagnosed), ("b", compared)):
        (tmp_path / f"{label}.json").write_text(json.dumps({
            "task": task, "optimizer": optimizer, "seeds": seeds,
            "total_steps": steps, "output_path": label,
        }))
        assert main(["run", f"{label}.json"]) == 0
    capsys.readouterr()
    assert main(["diagnose", "a"]) == 0
    diagnose_out = capsys.readouterr().out
    assert main(["compare", "a", "b", "--threshold", repr(threshold)]) == 0
    compare_out = capsys.readouterr().out
    got = (_sha((tmp_path / "a" / "diagnostics.json").read_bytes()),
           _sha(diagnose_out.encode()), _sha(compare_out.encode()))
    assert got == GOLDEN[case]
