"""The recognizer's outputs on the digest corpora of
``scripts/outcome_digest.py`` are pinned to the digests it printed when they
were last changed on purpose.

The first corpus covers ``recognize(g).to_json_dict()`` with the SPQR tree
and the pair search on 1,744 biconnected graphs; the third covers the tree
and the recognition on 1,300 sparse biconnected graphs.  Their traces count
the live orders after every reinsertion step, which the recognizer-vs-oracle
sweep does not compare, so these pins see a change in the reinsertion's mark
test that the acceptance suite misses.  A change that moves an output on
purpose updates the pin here and says why.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "outcome_digest.py"

CORPUS_SHA256 = "3a7fb31157ff614776cc8b616a599450df467b815f569654bbcc68154cbc227d"
SPQR_SHA256 = "d6973d28ed089d36c4e04eddcd96ab7b29d8594596b0f0da6ec18c619b5714f4"


def load_script():
    spec = importlib.util.spec_from_file_location("outcome_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recognition_digests_are_unchanged(capsys):
    digest = load_script()
    digest.digest_lines("", digest.corpus(), digest.outputs)
    digest.digest_lines("spqr ", digest.spqr_corpus(), digest.spqr_outputs)
    assert capsys.readouterr().out.splitlines() == [
        "graphs 1744",
        f"sha256 {CORPUS_SHA256}",
        "spqr graphs 1300",
        f"spqr sha256 {SPQR_SHA256}",
    ]
