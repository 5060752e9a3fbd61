"""Golden outputs: the sha256 of the files the CLI writes.

Criterion 9 only compares reruns within one version; these pins hold the
bytes of `series.csv`, `batch.csv`, the two surface tables and their
figures fixed across versions, so a refactor or speedup that changes
any output fails here.
"""

import hashlib

import pytest

from marketflow.cli import main

SERIES_SHA256 = {
    (0, 0.99, 1): "5f00ba700088dfcc3281a4d47bac82caf2b41d5a2e3713011b7447d56f0cd917",
    (7, 0.99, 1): "cf766724613bac37a5207ff010eb21d59dfb8a1c9a244642fddb2f75c59e5d76",
    (0, 0.99, 20): "4e28c4f6ce21cc314f952ff612d7e5c8c13b883e0ca9845e9587ef0d02348dce",
    (7, 0.99, 20): "2d95c7f86d6e55930ee545dd673242f3da39d93aeba443f3b9d1933479c4539d",
    (0, 0.15, 1): "47a5fd888ab59133403c4e8f4f0f58e84a49113232463f62f20fcb078f5a11e1",
    (7, 0.15, 1): "e63034a259dc189512968a898a0a55142115c94fa0ef7e2103cec78b0468bbdb",
    (0, 0.15, 20): "a4370a4ca953fb89e917fcef8f32bdfb2192e2f4e7a02d07bcf2a107aa148eb4",
    (7, 0.15, 20): "af47e1db8a8696269882aa17ceb8215483feafe17aec6f2d52cc8f445b94f0b6",
}

BATCH_SHA256 = "ab97964472a9a67d7719ba4234a23dae9a099a585759043b2a2ea7b1229149bf"

# (seed, P, window, steps): a window far above the default 20, and the
# saturated P = 1 branch, where every Reynolds value is inf.
WIDE_SHA256 = {
    (3, 0.5, 200, 2000): "5a37f38dbc307cebf2da5724b765df4f93324a133fe21397410e69f07f8da912",
    (1, 1.0, 50, 600): "e91b0354e24d9a2d8cae2a6edf982716bac3c856d116c1a99fee5e628f6dfbe6",
}


# The closed-form Reynolds tables and heatmaps `surface --svg` writes on
# its default grids.
SURFACE_SHA256 = {
    "surface_speed.csv": "4c25725e4e8bfd672f5c71fa07a5fc8b714d37cb8931124d34f713e500b270cf",
    "surface_spread.csv": "c5ed29e70f29e8f1d4cf1f9ce402d16f1e1546dfcc9f420f540c2f57b7a87eae",
    "surface_speed.svg": "ed837f53794d35fc80d3e8ecc120282ac01f47b5f339863ab0c7845eca641e94",
    "surface_spread.svg": "293c9526ae35796edac26f8bd4c2e64ceb50e6d204a093773d9f9408d5081977",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed,p,spread", sorted(SERIES_SHA256))
def test_series_csv_bytes(tmp_path, seed, p, spread):
    code = main(["simulate", "--seed", str(seed),
                 "--collision-probability", str(p), "--spread", str(spread),
                 "--out", str(tmp_path)])
    assert code == 0
    assert _sha256(tmp_path / "series.csv") == SERIES_SHA256[seed, p, spread]


@pytest.mark.parametrize("seed,p,window,steps", sorted(WIDE_SHA256))
def test_series_csv_bytes_wide_window(tmp_path, seed, p, window, steps):
    code = main(["simulate", "--seed", str(seed), "--collision-probability", str(p),
                 "--window", str(window), "--steps", str(steps),
                 "--out", str(tmp_path)])
    assert code == 0
    assert _sha256(tmp_path / "series.csv") == WIDE_SHA256[seed, p, window, steps]


def test_batch_csv_bytes(tmp_path):
    assert main(["batch", "--n-seeds", "2", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "batch.csv") == BATCH_SHA256


def test_surface_csv_bytes(tmp_path):
    assert main(["surface", "--svg", "--out", str(tmp_path)]) == 0
    for name, digest in SURFACE_SHA256.items():
        assert _sha256(tmp_path / name) == digest, name
