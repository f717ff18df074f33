"""Claim reports on seeded random products, pinned by one digest.

The registry instances pin verify output only where the CLI and
``verify all`` run. This digest covers every claim but lemma4 (which checks
matrix pairs, not products) on small random parent pairs, most of them
off the registry: statuses, ``checked`` counts, details and
counterexamples. A change to any of them moves it.
"""

import hashlib
import json
import random

from hgpbarrier.codes import ClassicalCode
from hgpbarrier.errors import NoLogicals
from hgpbarrier.f2core import BitMatrix
from hgpbarrier.verify import CLAIMS, run_claim

# sha256 of the records below; only a deliberate change of a claim's report
# may move it, and such a change must say so
DIGEST = "eef4920d839aff4b82c7fda2df2398818cefed7840963d6432ce2709228b6567"


def _pairs(count=80, max_qubits=10):
    """``count`` seeded parent pairs with 1-3 rows over 1-4 bits each,
    whose products have at most ``max_qubits`` qubits."""
    rng = random.Random(4051)

    def parent():
        r, n = rng.randint(1, 3), rng.randint(1, 4)
        return ClassicalCode(BitMatrix(r, n, tuple(rng.randrange(1 << n) for _ in range(r))))

    pairs = []
    while len(pairs) < count:
        h1, h2 = parent(), parent()
        if h1.n * h2.n + h1.r * h2.r <= max_qubits:
            pairs.append((h1, h2))
    return pairs


def _records():
    for i, pair in enumerate(_pairs()):
        for claim in CLAIMS:
            if claim == "lemma4":
                continue
            try:
                reports = run_claim(claim, seed=i, pair=pair, instance=f"pair-{i}")
            except NoLogicals:
                yield {"claim": claim, "instance": f"pair-{i}", "error": "NoLogicals"}
                continue
            yield from (r.to_json_dict() for r in reports)


def test_claim_reports_on_random_pairs_match_the_recorded_digest():
    payload = json.dumps(list(_records()), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == DIGEST
