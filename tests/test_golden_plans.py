"""Golden plans: the search's choice for every kernel x format pair.

For each kernel in ``ALL_KERNELS`` and each of the seven single-matrix
storage formats, the cold search on a seeded ``can_1072_like(n=300)``
(its lower/upper triangle for the triangular solves) must pick the same
plan as when the fixture was recorded: the same ``repr(cost)``, the same
candidate description, the same ``plan.pretty()`` (by sha1) and the same
candidate funnel ``(generated, legal, lowered)``.  Pairs with no legal
plan pin their ``PlanError`` message.  Speed-ups of the search must not
change a single row.

Regenerate the fixture (only for an intended change of the search's
result) with::

    PYTHONPATH=src python tests/test_golden_plans.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.core.compiler import infer_param_values
from repro.core.plan import PlanError
from repro.formats import as_format
from repro.formats.generate import (
    can_1072_like,
    lower_triangular_of,
    upper_triangular_of,
)
from repro.ir.kernels import ALL_KERNELS
from repro.polyhedra.fm import clear_memos
from repro.core.embedding import clear_pair_memo
from repro.search import search

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_plans.json")
FORMATS = ("csr", "csc", "jad", "msr", "coo", "ell", "dia")

_SOURCES = {}


def _source(kernel: str):
    """The seeded matrix a kernel is searched on (built once per process)."""
    if not _SOURCES:
        can = can_1072_like(n=300, target_nnz=3480, seed=1072)
        _SOURCES["full"] = can
        _SOURCES["lower"] = lower_triangular_of(can)
        _SOURCES["upper"] = upper_triangular_of(can)
    if kernel.startswith("ts_lower"):
        return _SOURCES["lower"]
    if kernel == "ts_upper":
        return _SOURCES["upper"]
    return _SOURCES["full"]


def golden_row(kernel: str, fmt: str) -> dict:
    """Cold search of one pair: every matrix of the kernel bound to its own
    fresh instance of ``fmt``."""
    clear_memos()
    clear_pair_memo()
    prog = ALL_KERNELS[kernel]()
    src = _source(kernel)
    bindings = {name: as_format(src, fmt) for name in prog.matrices()}
    params = infer_param_values(prog, bindings)
    try:
        res = search(prog, bindings, None, params)
    except PlanError as e:
        return {"error": str(e)}
    st = res.stats
    return {
        "cost": repr(res.cost),
        "candidate": res.candidate.descr,
        "plan_sha1": hashlib.sha1(res.plan.pretty().encode()).hexdigest(),
        "funnel": [st.generated, st.legal, st.lowered],
    }


def _load():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("kernel", sorted(ALL_KERNELS))
def test_golden_plans(kernel):
    want = _load()
    for fmt in FORMATS:
        key = f"{kernel}/{fmt}"
        assert key in want, f"fixture has no row for {key}"
        assert golden_row(kernel, fmt) == want[key], key


def test_fixture_covers_every_pair():
    want = _load()
    assert sorted(want) == sorted(f"{k}/{f}" for k in ALL_KERNELS
                                  for f in FORMATS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_plans.py --write")
    rows = {f"{k}/{f}": golden_row(k, f)
            for k in sorted(ALL_KERNELS) for f in FORMATS}
    with open(FIXTURE, "w") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(rows)} rows to {FIXTURE}")
