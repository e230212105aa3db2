"""The recognizer's outputs on the digest corpora of
``scripts/outcome_digest.py`` are pinned to the digests it printed when they
were last changed on purpose.

The first corpus covers ``recognize(g).to_json_dict()`` with the SPQR tree
and the pair search on 1,744 biconnected graphs; the third covers the tree
and the recognition on 1,300 sparse biconnected graphs.  Their traces count
the live orders after every reinsertion step, which the recognizer-vs-oracle
sweep does not compare, so these pins see a change in the reinsertion's mark
test that the acceptance suite misses.  The second corpus covers
``is_biconnected`` and ``cut_vertices`` on 560 connected graphs, trees and
graphs with a cut vertex; the fourth covers the oracle's first order, raw
orders, maximality and distinct drawings on 960 small graphs, so these two
pins guard the connectivity search and the candidate orders.  A change that
moves an output on purpose updates the pin here and says why.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "outcome_digest.py"

CORPUS_SHA256 = "3a7fb31157ff614776cc8b616a599450df467b815f569654bbcc68154cbc227d"
SPQR_SHA256 = "d6973d28ed089d36c4e04eddcd96ab7b29d8594596b0f0da6ec18c619b5714f4"
CUT_SHA256 = "6025a4f6acbc6df2fa176e2877e284ecaf9f014402d652cbe9bdc4398057019a"
ORACLE_SHA256 = "5e66fa238c73c167488451128d71ff6a089700cc1f04e133cd13e81d482b1070"


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


def test_connectivity_and_oracle_digests_are_unchanged(capsys):
    digest = load_script()
    digest.digest_lines("cut ", digest.cut_corpus(), digest.cut_outputs)
    digest.digest_lines("oracle ", digest.oracle_corpus(), digest.oracle_outputs)
    assert capsys.readouterr().out.splitlines() == [
        "cut graphs 560",
        f"cut sha256 {CUT_SHA256}",
        "oracle graphs 960",
        f"oracle sha256 {ORACLE_SHA256}",
    ]
