"""The bundle bytes in tier-1: sha256 of each generated bundle's text files.

`gcnsim gen` writes `gen_powerlaw` + `export_bundle`, and every seeded
workload, the golden census included, starts from those bytes. So a change to
the generator's draws, the edge pairing or the writers' formatting shows here,
even when the files still parse to the same matrices.

The digests are pinned in bundle_bytes.json. Re-record only for a deliberate
change of the generator or the file format, and log that change and its
reason in CHANGES.md:

    PYTHONPATH=src python tests/test_bundle_bytes.py --record
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gcnsim.formats import export_bundle
from gcnsim.graphs import gen_powerlaw

DIGESTS = Path(__file__).with_name("bundle_bytes.json")

# gen_powerlaw arguments: (nodes, mean degree, exponent, seed[, features, density])
BUNDLES = {
    "512-seed42": (512, 4, 2.1, 42),
    "golden-census": (1536, 4.0, 2.1, 5, 48, 0.12),
    "8192-seed0": (8192, 4, 2.1, 0, 64, 0.1),
    "16384-seed7919": (16384, 4, 2.1, 7919, 32, 0.1),
}


def bundle_digests(name: str, out: Path) -> dict:
    paths = export_bundle(out / name, gen_powerlaw(*BUNDLES[name]))
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths.values()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_exactly_the_bundles(pinned):
    assert sorted(pinned) == sorted(BUNDLES)


@pytest.mark.parametrize("name", BUNDLES)
def test_bundle_bytes_match_the_pinned_digests(name, pinned, tmp_path):
    assert bundle_digests(name, tmp_path) == pinned[name]


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: bundle_digests(name, Path(tmp)) for name in BUNDLES}
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pinned)} bundles in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
