"""Tests for the Random Verilog Design Generator."""

from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
from repro.datagen.mutation import creates_combinational_cycle
from repro.sim import Simulator, TestbenchConfig, generate_stimulus


class TestGeneration:
    def test_generates_parseable_design(self):
        module = RandomVerilogDesignGenerator(seed=0).generate("d0")
        assert module.name == "d0"

    def test_deterministic_by_seed(self):
        src1 = RandomVerilogDesignGenerator(seed=9).generate_source("d")
        src2 = RandomVerilogDesignGenerator(seed=9).generate_source("d")
        assert src1 == src2

    def test_different_seeds_differ(self):
        src1 = RandomVerilogDesignGenerator(seed=1).generate_source("d")
        src2 = RandomVerilogDesignGenerator(seed=2).generate_source("d")
        assert src1 != src2

    def test_template_structure(self):
        """Paper §V: one clocked block (C) and one comb block (NC)."""
        module = RandomVerilogDesignGenerator(seed=3).generate("d")
        clocked = [b for b in module.always_blocks if b.is_clocked]
        comb = [b for b in module.always_blocks if not b.is_clocked]
        assert len(clocked) == 1
        assert len(comb) == 1

    def test_port_counts_follow_config(self):
        config = RVDGConfig(n_inputs=6, n_outputs=3, n_state=2)
        module = RandomVerilogDesignGenerator(config, seed=0).generate("d")
        # clk + rst_n + inputs
        assert len(module.inputs) == 8
        assert len(module.outputs) == 3

    def test_no_combinational_cycles(self):
        for seed in range(10):
            module = RandomVerilogDesignGenerator(seed=seed).generate(f"d{seed}")
            assert not creates_combinational_cycle(module)

    def test_simulates_without_error(self):
        for seed in range(5):
            module = RandomVerilogDesignGenerator(seed=seed).generate(f"d{seed}")
            stim = generate_stimulus(module, TestbenchConfig(n_cycles=10), seed=seed)
            trace = Simulator(module).run(stim)
            assert trace.n_cycles == 10

    def test_outputs_toggle_somewhere(self):
        """The corpus must have label variety or training degenerates."""
        values = set()
        for seed in range(6):
            module = RandomVerilogDesignGenerator(seed=seed).generate(f"d{seed}")
            stim = generate_stimulus(module, TestbenchConfig(n_cycles=20), seed=1)
            trace = Simulator(module).run(stim)
            for out in module.outputs:
                values.update(trace.output_series(out))
        assert values == {0, 1}

    def test_corpus_names(self):
        modules = RandomVerilogDesignGenerator(seed=0).generate_corpus(3, prefix="x")
        assert [m.name for m in modules] == ["x_0", "x_1", "x_2"]

    def test_max_operands_respected(self):
        config = RVDGConfig(max_operands=2, max_operators=1)
        module = RandomVerilogDesignGenerator(config, seed=4).generate("d")
        from repro.verilog import collect_identifiers

        for stmt in module.statements():
            # at most 2 operand instances per statement under this config
            count = sum(
                1 for node in stmt.rhs.walk() if type(node).__name__ == "Identifier"
            )
            assert count <= 2

    def test_interdependency_exists(self):
        """RVDG must create data flows among generated variables."""
        from repro.analysis import design_index

        index = design_index(RandomVerilogDesignGenerator(seed=2).generate("d"))
        internal = [
            (source, reads.target)
            for reads in map(index.reads, (stmt.stmt_id for stmt in index.statements))
            for source in reads.data + reads.select + reads.control
            if source.startswith(("s", "n")) and reads.target.startswith(("s", "n", "out"))
        ]
        assert internal
