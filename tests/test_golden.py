"""Golden bytes: every optimizer kind and step mode writes pinned output files.

The digests were taken from the code as it stood before the optimizer
schema and the step bodies were merged, on x86-64 Linux with Python 3.11 and
numpy 2.4.6; they were the same with one BLAS thread and with the default
count. A change that alters any byte of ``config.json``, ``seed_0.csv`` or
``summary.json`` for these configs fails here. Re-pin only for a change that
means to alter the outputs and says why.
"""

import hashlib
import json

import pytest

from lanton.harness import parse_config, run_experiment

# A layer-list task with a layer of each group, all noisy. The two hidden
# layers differ in noise, so lanton's ratios move away from 1.
_TASK = {
    "kind": "quadratic",
    "seed": 3,
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

_KINDS = {
    "lanton_I": {"kind": "lanton", "noise_option": "I", "noise_update_interval": 3},
    "lanton_II": {"kind": "lanton", "noise_option": "II", "noise_update_interval": 2},
    "fixed_rate_lmo": {"kind": "fixed_rate_lmo"},
    "signum": {"kind": "signum"},
    "sgd": {"kind": "sgd"},
}

_MODES = {
    "raw": {"mode": "raw", "eta_max": 0.02, "eta_min": 0.002},
    "practical": {"mode": "practical", "eta_max": 0.002, "eta_min": 0.0002,
                  "warmup_steps": 4, "weight_decay": 0.1,
                  "embedding_dual": "alternate", "r1": 3.0, "r2": 0.5},
}

# sha256 of (config.json, seed_0.csv, summary.json) per kind and mode.
GOLDEN = {
    "fixed_rate_lmo-practical": (
        "43751c133b4a1306e80159f0c7a81577119e33313a2b4056c85491f8dd97cdf7",
        "b89a2870098fae7eac29bf316ca55d93394e34efa5e3bed6c5e8f23ee1597bee",
        "38f31fca1316b6b099f74776ff97fbf95a0a25230cc5b521a4e45efee678c65a",
    ),
    "fixed_rate_lmo-raw": (
        "9ca5d7e7678051201c686f68d7377a78dcea3f0bd838ae0d4befef2f40c7c455",
        "5371828dcdad6b5a38ec2f6aa6b4ba3ecb7acd7e4ee1da11f975076b0c354add",
        "9b6d11741f53d847cf6ef54cd39d518d99eedb51447b5afe9c79ad47eb229023",
    ),
    "lanton_I-practical": (
        "8d4939f1465dadd25c102ed808a749d2a79abdab926d4d15ac3aceb7a544ada0",
        "5c19b32f6c822d5e02bfc9e46313557e33d5a329ceb746d74bf73b2cff28f342",
        "8ea709c5a4dc3f61975b5de880fc3d75704863ece16e5f562dcd5be7bbaf27a4",
    ),
    "lanton_I-raw": (
        "74edcea7a90dfe6d640c73d5dc652463bcc3eee621db7805a034ea0b4f264338",
        "5907c7025a60a954ffccb5bb61f1e125f7dc557fcaf948b82c65218b61235e3f",
        "2f30c3777ef8602cd934d5f1f0205ff979de52e8220e51caa44bf7333733bc3b",
    ),
    "lanton_II-practical": (
        "6f79d55fd91083e7e8cbef477fc0ebd08e92e944967df7fe57b64552d41f2f8b",
        "c4b0fa4fd49915aad99e561512d8befbd0258705091988568469fa5a2564ef64",
        "67aebf96ff60f27cde8d0fd568f3c841235eda8cdf88b325860cf1da646f5026",
    ),
    "lanton_II-raw": (
        "f9906d5cd1cd38ec7002fde0ea200d2f5f2334af3aaaeb7fb1c44e7ed5a17932",
        "fc68b3c28a46919e289c5a8853264e5ef0ae6b0162a779b125b6212a5af786e8",
        "74c5818bd20838a39e5192cd4e42b17945d929e7a6ffc5e44da3ce35251c294f",
    ),
    "sgd-practical": (
        "0816f2403c6314dc08bd43a93b1dc43cdef29b55efd2336d50d348e47d7d0c0c",
        "71652abb8555cac01fb17203c178bac41ef70f08a06eb4101a301ddad13e080b",
        "b7282f4a3997d0ac1c405eae789caa4491912d756b2f04ccad70e476db3d9971",
    ),
    "sgd-raw": (
        "a1b217f87ce7c311cd5aa02516abb01154b486698c5c327e4ea2b1d1b76ce7ac",
        "5dee182d2a56e3edbc7e057cb3da9e95e93d7bc8b054d05531e4edda1cf22976",
        "18463b3e286323a6ef85e7ca821629306fbbb84ab9ebf101d05a0576e1a8277e",
    ),
    "signum-practical": (
        "62e099ebc2ef206f5811e2f0e6653bf5a4623b63acbea64be78f4a587a0e504f",
        "9c104cc1e77e2fd3a6f1b0809f10c5c577799f86152c02ea0a69143d08103754",
        "130306f25fa6bcdeff005a8ae845fa94270b3eac90f87c22c2c701327f0dd4bc",
    ),
    "signum-raw": (
        "ee570f5ec1c7b24e34ce5740e901436a71a70053c5a9738c8c3a3f63a8a29b43",
        "c6cb4e750ae254f673c5e36e2c260294a5e213cc95ab03cd058216d3d492a03b",
        "ce6564960cf0b54ea78c1efef1a56289450c5523cef6cb4cd61d510c92ec8492",
    ),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_golden_bytes(kind, mode, tmp_path, monkeypatch):
    # A relative output path keeps config.json's output_path echo fixed.
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(json.dumps({
        "task": _TASK,
        "optimizer": {**_KINDS[kind], **_MODES[mode]},
        "seeds": [0],
        "total_steps": 20,
        "telemetry": {"h": True, "ratio": True, "dual_grad_norm": mode == "raw"},
        "output_path": "run",
        "loss_threshold": 0.5,
    }))
    run_experiment(cfg)
    got = tuple(_digest(tmp_path / "run" / name)
                for name in ("config.json", "seed_0.csv", "summary.json"))
    assert got == GOLDEN[f"{kind}-{mode}"]


# An MLP task, whose gradients come from backpropagation, not a closed form.
_MLP_TASK = {"kind": "mlp", "widths": [6, 16, 3], "n_samples": 48, "dataset_seed": 2,
             "label_noise": 0.05, "seed": 1,
             "noise": {"w1": [0.002, 0.004], "w2": [0.05, 0.2]}}

_MLP_KINDS = {
    "lanton_I": {"kind": "lanton", "noise_option": "I", "noise_update_interval": 3},
    "fixed_rate_lmo": {"kind": "fixed_rate_lmo"},
}

# sha256 of (config.json, seed_0.csv, seed_1.csv, summary.json) per kind.
GOLDEN_MLP = {
    "fixed_rate_lmo": (
        "6e18e19de90f7c3d246ebecb2e192777f1f41a6562735f6b91daf5b9c6aed259",
        "b2b9b1acdab2e2d0bc1e147f6188a93124f686151cdd7edb7a4cbf71e7f382cd",
        "531faf5e526977d59ada11c96c42b2726e12167cf4a2f860c09a122bb137dac2",
        "ecd998c16f213dba4c89828954a0a18061ba3445c8c3adef3e2a6300897ea8bc",
    ),
    "lanton_I": (
        "99300e25312820c4b7ed688e6cc3bc21b72a3a12e7f56c95226ae751a3a67946",
        "ef4ab8368f49d751a08e783f2b5b70512e51f8e2ae76ee2d50d41a99465bba1a",
        "574ae18a28c17ecd8f065f1af38b8fa32e7867447f1f5a4f0a52d4c6fa4c0787",
        "823158a52deab8a2cf03e7856636875a6e183b39010f88807425015dd7f6f01c",
    ),
}


@pytest.mark.parametrize("kind", sorted(_MLP_KINDS))
def test_golden_mlp_bytes(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(json.dumps({
        "task": _MLP_TASK,
        "optimizer": {**_MLP_KINDS[kind], "eta_max": 0.05, "eta_min": 0.005},
        "seeds": [0, 1],
        "total_steps": 20,
        "output_path": "run",
        "loss_threshold": 0.5,
    }))
    run_experiment(cfg)
    got = tuple(_digest(tmp_path / "run" / name)
                for name in ("config.json", "seed_0.csv", "seed_1.csv", "summary.json"))
    assert got == GOLDEN_MLP[kind]
