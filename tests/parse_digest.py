"""Print one sha256 over what `okc.parse` makes of a seeded mix of lines.

    PYTHONPATH=src python tests/parse_digest.py

The lines are those of the frontend's completeness test
(`digest_inputs.parser_lines`), every line of the seed-3 files of the
benchmark workloads, and 200,000 seeded mutations of lines drawn from
both, over the test's mutation alphabet plus U+3000 and form feed.  The
script parses them as one text and hashes `repr` of the declarations and
P1 diagnostics that `parse` returns, so two checkouts print the same line
exactly when their frontends read every line alike, class, fields and
line number included.  Run it over the `src` of two checkouts and compare
the outputs with `diff`: of `okc` it imports only `okc.parse`.  The name
does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "perfbench"))

import families  # noqa: E402
from digest_inputs import MUTATION_ALPHABET, mutate, parser_lines  # noqa: E402

from okc import parse  # noqa: E402

SEED = 3
MUTATIONS = 200_000


def lines() -> list[str]:
    workload = [line for _, family in sorted(families.FAMILIES.items())
                for w in [family(SEED)] for f in w.files + w.half
                for line in f.text.split("\n")]
    base = parser_lines() + workload
    rng = random.Random(20261022)
    alphabet = MUTATION_ALPHABET + "\u3000\x0c"
    return base + [mutate(rng, rng.choice(base), alphabet) for _ in range(MUTATIONS)]


def main() -> None:
    text = "\n".join(lines())
    print(hashlib.sha256(repr(parse(text, "<mutations>")).encode()).hexdigest())


if __name__ == "__main__":
    main()
