"""The inputs of `tests/output_digests.py` stand apart from `okc`.

The digest script runs over the `src` of other checkouts too, so its
inputs must load without `okc`, and the one input rendered by `okc` is a
checked-in file that must stay what this checkout renders.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from helpers import random_shared_model

from okc.frontend import render

TESTS = Path(__file__).resolve().parent


def test_shared_model_file_is_the_render_of_its_model():
    text = (TESTS / "shared_model_1.oks").read_text(encoding="utf-8")
    assert text == render(random_shared_model(1))


def test_digest_inputs_import_nothing_from_okc():
    probe = (
        "import sys\n"
        "sys.modules['okc'] = None  # any import of okc raises ImportError\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import digest_inputs\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'okc'))\n")
    result = subprocess.run([sys.executable, "-I", "-c", probe, str(TESTS)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["['okc']"]
