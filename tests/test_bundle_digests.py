"""The bundled scenarios' results, pinned bitwise.

Each bundled scenario's run has one SHA-256 over its frames' bytes and
``repr(report.slice_stats)``, recorded in ``bundle_digests.json``.  A change
that moves a digest says why in CHANGES.md.  Regenerate the file with

    PYTHONPATH=src python tests/test_bundle_digests.py
"""

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("bundle_digests.json")


def digest(field, report):
    """SHA-256 of the frames' bytes followed by the slice stats' repr."""
    sha = hashlib.sha256(field.frames.tobytes())
    sha.update(repr(report.slice_stats).encode())
    return sha.hexdigest()


def test_bundled_results_match_their_recorded_digests(bundle):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert {name: digest(field, report) for name, (_, field, report) in bundle.items()} == recorded


if __name__ == "__main__":
    import slabflow as sf

    runs = {name: sf.run_scheme(sf.load_scenario(path)) for name, path in sorted(sf.bundled_scenario_paths().items())}
    DIGESTS.write_text(json.dumps({name: digest(*run) for name, run in runs.items()}, indent=1) + "\n",
                       encoding="utf-8")
