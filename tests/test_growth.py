"""Growth gates that read no clock: the `tracemalloc` peak per doubling.

Wall time at sizes tier-1 can afford is too noisy to gate growth, but a
`tracemalloc` peak is deterministic for a given Python build.  Each shape
runs the real check path in-process (parse, load with the kernel and
`validate`) at n, 2n and 4n, with the cyclic collector off as in
`okc.cli.main`.  A linear shape reads about 2 per doubling and a
quadratic one about 4; the bound leaves room for the closure's bitsets,
which widen with the concept count.

Parse alone is gated per accepted declaration instead: a declaration
holds its line number, and a per-record span would show as about 80
bytes more each.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from helpers import REPO_ROOT, r_up_chain_source

from okc.checks import validate
from okc.frontend import parse
from okc.kernel import merge_with_kernel
from okc.model import SourceText

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import families  # noqa: E402

PER_DOUBLING = 2.25
# Measured at n = 400 (5,700 declarations) on CPython 3.10-3.13: 318-345
# bytes per declaration, and 398-425 with a `SourceSpan` in each record.
PARSE_BYTES_PER_DECLARATION = 380

# shape -> (source of size n, the smallest n)
SHAPES = {
    "activities": (lambda n: families.activities_file(1, n).text, 200),
    "taxonomy": (lambda n: families.taxonomy_file(1, n).text, 400),
    "r_up_chain": (r_up_chain_source, 1000),
}


def _load(text: str):
    onto, diags = merge_with_kernel(parse(text, "growth.oks")[0], SourceText("growth.oks", text))
    assert onto is not None, [d.render() for d in diags]
    return onto


def _peak(run) -> int:
    gc.disable()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def _ratios(peaks: list[int]) -> list[float]:
    return [round(after / before, 3) for before, after in zip(peaks, peaks[1:])]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_check_path_peak_grows_linearly(shape):
    source, n = SHAPES[shape]
    texts = [source(n * k) for k in (1, 2, 4)]  # generated outside the traced run
    ratios = _ratios([_peak(lambda: validate(_load(text))) for text in texts])
    assert max(ratios) <= PER_DOUBLING, (shape, ratios)


def test_validate_peak_grows_linearly_on_activities():
    source, n = SHAPES["activities"]
    ontologies = [_load(source(n * k)) for k in (1, 2, 4)]
    ratios = _ratios([_peak(lambda: validate(onto)) for onto in ontologies])
    assert max(ratios) <= PER_DOUBLING, ratios


def test_parse_peak_per_declaration_on_activities():
    source, _ = SHAPES["activities"]
    text = source(400)
    parse(source(5), "warm.oks")  # the first parse in a process allocates once
    parsed = []
    peak = _peak(lambda: parsed.append(parse(text, "growth.oks")))
    [(decls, diags)] = parsed
    assert not diags and len(decls) > 5_000
    assert peak / len(decls) <= PARSE_BYTES_PER_DECLARATION, peak / len(decls)
