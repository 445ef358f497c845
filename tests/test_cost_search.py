"""Cost model (paper Figure 11) and the search driver (Sections 4.2-4.3)."""

import numpy as np
import pytest

from repro.analysis import dependences
from repro.core import compile_kernel
from repro.cost.model import plan_cost, step_totals
from repro.formats import as_format
from repro.ir.kernels import mvm, ts_lower
from repro.search import generate_candidates, search
from repro.search.candidates import _path_choices


class TestStepTotals:
    def test_csr(self, small_rect):
        f = as_format(small_rect, "csr")
        assert step_totals(f, "rows") == [6, f.nnz]

    def test_csc(self, small_rect):
        f = as_format(small_rect, "csc")
        assert step_totals(f, "cols") == [8, f.nnz]

    def test_coo(self, small_rect):
        f = as_format(small_rect, "coo")
        assert step_totals(f, "flat") == [f.nnz]

    def test_jad(self, small_rect):
        f = as_format(small_rect, "jad")
        assert step_totals(f, "flat") == [f.nnz]
        assert step_totals(f, "rows") == [6, f.nnz]

    def test_dense(self, small_rect):
        f = as_format(small_rect, "dense")
        assert step_totals(f, "rowmajor") == [6, 48]

    def test_measured_agrees_with_analytic(self, small_rect):
        from repro.cost.model import _measured_step_totals

        for name in ["csr", "csc", "coo", "dia"]:
            f = as_format(small_rect, name)
            pid = f.paths()[0].path_id
            assert _measured_step_totals(f, pid) == \
                [float(x) for x in step_totals(f, pid)]


class TestPlanCost:
    def test_cost_positive(self, small_rect):
        f = as_format(small_rect, "csr")
        k = compile_kernel(mvm(), {"A": f})
        assert k.cost > 0

    def test_best_not_worse_than_worst(self, lower_tri):
        f = as_format(lower_tri, "jad")
        best = compile_kernel(ts_lower(), {"L": f}, pick="best")
        worst = compile_kernel(ts_lower(), {"L": f}, pick="worst")
        assert best.cost <= worst.cost

    def test_cost_scales_with_nnz(self):
        from repro.formats.generate import random_sparse

        small = as_format(random_sparse(10, 10, 0.1, seed=1), "csr")
        big = as_format(random_sparse(100, 100, 0.1, seed=1), "csr")
        k_small = compile_kernel(mvm(), {"A": small})
        k_big = compile_kernel(mvm(), {"A": big})
        assert k_big.cost > k_small.cost


class TestSearch:
    def test_stats_consistent(self, lower_tri):
        f = as_format(lower_tri, "jad")
        deps = dependences(ts_lower())
        res = search(ts_lower(), {"L": f}, deps)
        s = res.stats
        assert s.generated >= s.legal >= s.lowered >= 1
        assert len(res.ranked) == s.lowered
        costs = [c for c, _, _ in res.ranked]
        assert costs == sorted(costs)

    def test_pick_first_stops_early(self, lower_tri):
        f = as_format(lower_tri, "jad")
        deps = dependences(ts_lower())
        res = search(ts_lower(), {"L": f}, deps, pick="first")
        assert res.stats.lowered == 1

    def test_heuristic_prunes_path_choices(self, lower_tri):
        """Section 4.3: one enumeration per matrix — the same-path
        heuristic collapses the per-reference path cross product."""
        f = as_format(lower_tri, "jad")
        with_h = list(_path_choices(ts_lower(), {"L": f}, True))
        without = list(_path_choices(ts_lower(), {"L": f}, False))
        assert len(with_h) == 2    # flat / rows, both references together
        assert len(without) == 4   # 2 refs x 2 paths

    def test_heuristics_shrink_candidates(self, lower_tri):
        f = as_format(lower_tri, "jad")
        deps = dependences(ts_lower())
        pruned = sum(1 for _ in generate_candidates(
            ts_lower(), {"L": f}, deps))
        full = sum(1 for _ in generate_candidates(
            ts_lower(), {"L": f}, deps, same_matrix_same_path=False))
        assert pruned < full

    def test_jad_chooses_rows_perspective_for_ts(self, lower_tri):
        """The flat perspective cannot satisfy the solve's ordering; the
        search must land on the rows perspective (the paper's conclusion
        for the running example)."""
        f = as_format(lower_tri, "jad")
        k = compile_kernel(ts_lower(), {"L": f})
        ref_paths = {r.path.path_id for c in k.plan.space.copies
                     for r in c.refs}
        assert ref_paths == {"rows"}

    def test_jad_mvm_prefers_flat(self, small_rect):
        """For an order-free accumulation the flat (fast) perspective wins
        on cost."""
        f = as_format(small_rect, "jad")
        k = compile_kernel(mvm(), {"A": f})
        ref_paths = {r.path.path_id for c in k.plan.space.copies
                     for r in c.refs}
        assert ref_paths == {"flat"}


class TestColdSearch:
    """Per-search memos live on objects each search builds fresh (statement
    copies, contexts of a fresh program), so once the process-wide FM and
    pair memos are cleared a repeated search redoes exactly the same
    work."""

    @pytest.mark.parametrize("kernel,fmt", [("mvm", "msr"),
                                            ("ts_lower", "jad")])
    def test_repeat_search_does_the_same_work(self, kernel, fmt, lower_tri):
        from repro.core.compiler import infer_param_values
        from repro.core.embedding import clear_pair_memo
        from repro.ir.kernels import ALL_KERNELS
        from repro.polyhedra.fm import clear_memos

        def cold():
            clear_memos()
            clear_pair_memo()
            prog = ALL_KERNELS[kernel]()
            bindings = {prog.matrices()[0]: as_format(lower_tri, fmt)}
            st = search(prog, bindings, None,
                        infer_param_values(prog, bindings)).stats
            return st.fm_eliminations, (st.generated, st.legal, st.lowered)

        first = cold()
        assert first[0] > 0
        assert cold() == first
