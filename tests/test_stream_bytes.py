"""The stream bytes in tier-1: sha256 of each file `gcnsim preprocess` writes.

The golden census pins what the streams count and the bundle digests pin
what preprocess reads, but neither pins the `.pcoo` bytes themselves. So a
change to the codec, the row assignment or the stall pass that moves a
packet without moving a census number shows here. Each config's digests
cover meta.json and every .pcoo file of the golden-census bundle.

The digests are pinned in stream_bytes.json. Re-record only for a
deliberate change of the stream format or the schedule, and log that change
and its reason in CHANGES.md:

    PYTHONPATH=src python tests/test_stream_bytes.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gcnsim.cli import EXIT_OK, main
from gcnsim.formats import export_bundle
from gcnsim.graphs import gen_powerlaw

DIGESTS = Path(__file__).with_name("stream_bytes.json")

# the golden-census bundle: (nodes, mean degree, exponent, seed, features, density)
BUNDLE = (1536, 4.0, 2.1, 5, 48, 0.12)

CONFIGS = {
    "auto-K8-T512": ("--pe", "8", "--tile", "512"),
    "H16-K16-r2-T1024": ("--value-bits", "16", "--pe", "16", "--replicas", "2",
                         "--tile", "1024"),
}


def stream_digests(config: str, tmp: Path) -> dict:
    bundle, out = tmp / "bundle", tmp / config
    if not bundle.exists():
        export_bundle(bundle, gen_powerlaw(*BUNDLE))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["preprocess", str(bundle), "--out", str(out),
                     *CONFIGS[config]]) == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_exactly_the_configs(pinned):
    assert sorted(pinned) == sorted(CONFIGS)


@pytest.mark.parametrize("config", CONFIGS)
def test_stream_bytes_match_the_pinned_digests(config, pinned, tmp_path):
    assert stream_digests(config, tmp_path) == pinned[config]


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {config: stream_digests(config, Path(tmp)) for config in CONFIGS}
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pinned)} configs in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
