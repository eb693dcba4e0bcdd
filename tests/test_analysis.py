"""Tests for the design index's VDG and CDFG facts, and for slicing."""

import pytest

from repro.analysis import compute_static_slice, design_index, slice_statements
from repro.core.features import log_rows
from repro.sim import Simulator
from repro.verilog import parse_module


def reads_of(module, target):
    """The reads of every statement assigning ``target``, in id order."""
    index = design_index(module)
    return [index.reads(s.stmt_id) for s in index.statements if s.target.name == target]


class TestVDG:
    def test_data_edges(self, arbiter):
        data = {name for reads in reads_of(arbiter, "gnt1") for name in reads.data}
        assert {"req1", "req2"} <= data

    def test_control_edges(self, arbiter):
        gnt1 = reads_of(arbiter, "gnt1")
        assert gnt1 and all(reads.control == ("state",) for reads in gnt1)
        assert "state" in design_index(arbiter).cone("gnt1")

    def test_control_edge_from_reset(self, arbiter):
        state = reads_of(arbiter, "state")
        assert state and all(reads.control == ("rst_n",) for reads in state)

    def test_data_plus_control_label(self):
        m = parse_module(
            "module t(a, y); input a; output reg y;"
            " always @(*) if (a) y = a; else y = 1'b0; endmodule"
        )
        then_reads, else_reads = reads_of(m, "y")
        assert then_reads.data == ("a",) and then_reads.control == ("a",)
        assert else_reads.data == () and else_reads.control == ("a",)

    def test_case_subject_is_control(self):
        m = parse_module(
            "module t(s, y); input [1:0] s; output reg y;"
            " always @(*) case (s) default: y = 1'b1; endcase endmodule"
        )
        (reads,) = reads_of(m, "y")
        assert reads.control == ("s",) and reads.data == ()
        assert design_index(m).cone("y") == {"s", "y"}

    def test_lvalue_index_is_data_dep(self):
        m = parse_module(
            "module t(i, y); input [1:0] i; output reg [3:0] y;"
            " always @(*) y[i] = 1'b1; endmodule"
        )
        (reads,) = reads_of(m, "y")
        assert reads.select == ("i",) and reads.data == ()
        assert design_index(m).cone("y") == {"i", "y"}

    def test_parameters_excluded(self):
        m = parse_module(
            "module t(a, y); parameter P = 1; input a; output y;"
            " assign y = a & P; endmodule"
        )
        (reads,) = reads_of(m, "y")
        assert reads.data == ("a", "P")
        assert design_index(m).cone("y") == {"a", "y"}

    def test_dependency_cone(self, arbiter):
        cone = design_index(arbiter).cone("gnt1")
        assert cone == {"gnt1", "req1", "req2", "state", "rst_n"}

    def test_dependency_cone_includes_target(self, arbiter):
        assert "gnt2" in design_index(arbiter).cone("gnt2")

    def test_dependency_cone_unknown_target(self, arbiter):
        with pytest.raises(ValueError, match="ghost") as excinfo:
            design_index(arbiter).cone("ghost")
        # The error lists the available candidates, not a bare KeyError.
        assert "gnt1" in str(excinfo.value)
        assert "available" in str(excinfo.value)


class TestCDFG:
    """Statement-level control and data dependences, served by the index."""

    def test_stmt_nodes_cover_all_statements(self, arbiter):
        ids = [stmt.stmt_id for stmt in design_index(arbiter).statements]
        assert ids == sorted(s.stmt_id for s in arbiter.statements())

    def test_data_edge_between_statements(self):
        m = parse_module(
            "module t(a, y); input a; output y; wire mid;"
            " assign mid = ~a; assign y = mid; endmodule"
        )
        index = design_index(m)
        assert index.reads(1).data == ("mid",)
        assert index.statement(0).target.name == "mid"
        assert index.static_slice("y").stmt_ids == {0, 1}

    def test_case_without_default_falls_through(self):
        m = parse_module(
            "module t(s, y); input [1:0] s; output reg y;"
            " always @(*) case (s) 2'd0: y = 1'b1; endcase endmodule"
        )
        (reads,) = reads_of(m, "y")  # must not raise
        assert reads.control == ("s",)


class TestSlicing:
    def test_static_slice_statements(self, arbiter):
        sl = compute_static_slice(arbiter, "gnt1")
        targets = {arbiter.statement_by_id(sid).target.name for sid in sl.stmt_ids}
        assert targets == {"gnt1", "state"}

    def test_static_slice_excludes_other_output(self, arbiter):
        sl = compute_static_slice(arbiter, "gnt1")
        gnt2_stmts = {
            s.stmt_id for s in arbiter.statements() if s.target.name == "gnt2"
        }
        assert not (sl.stmt_ids & gnt2_stmts)

    def test_slice_statements_ordered(self, arbiter):
        sl = compute_static_slice(arbiter, "gnt1")
        stmts = slice_statements(arbiter, sl)
        assert [s.stmt_id for s in stmts] == sorted(s.stmt_id for s in stmts)

    # The dynamic slice of a trace is the executed part of the static
    # slice: the localizer reads exactly the rows ``log_rows`` keeps.
    @staticmethod
    def dynamic_slice(module, target, stimulus):
        sl = compute_static_slice(module, target)
        trace = Simulator(module).run(stimulus)
        keyed, _lhs, order = log_rows([(design_index(module).contexts(target), [trace], sl.stmt_ids)])
        return sl, keyed[:, 1].tolist(), order.tolist()

    def test_dynamic_slice_excludes_untaken(self, arbiter):
        _, stmt_ids, _ = self.dynamic_slice(
            arbiter, "gnt1", [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 0}]
        )
        # state=0 -> only the else-branch gnt1 stmt (id 4) executes.
        assert 4 in stmt_ids
        assert 2 not in stmt_ids

    def test_dynamic_slice_subset_of_static(self, arbiter):
        sl, stmt_ids, _ = self.dynamic_slice(
            arbiter, "gnt1", [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 1} for _ in range(4)]
        )
        assert stmt_ids and set(stmt_ids) <= sl.stmt_ids

    def test_dynamic_slice_execution_order(self, arbiter):
        _, _, order = self.dynamic_slice(
            arbiter, "gnt1", [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 0} for _ in range(3)]
        )
        assert order == sorted(order)
