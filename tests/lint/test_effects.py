"""Unit tests for the transitive effect-inference pass."""

import ast
import textwrap

from repro.lint.effects import (
    CLOCK,
    COUNTER_RNG,
    IO,
    MUTATES_TRACKED,
    RNG,
    Program,
)


def program(*modules):
    return Program([
        (rel, rel, ast.parse(textwrap.dedent(source)))
        for rel, source in modules])


class TestSeeds:
    def seed_effects(self, source, qualname):
        prog = program(("core/m.py", source))
        return prog.effects.effects_of(f"core/m.py::{qualname}")

    def test_tracked_subscript_store(self):
        src = """
        def add(tracked, rnti, ue):
            tracked[rnti] = ue
        """
        assert self.seed_effects(src, "add") == {MUTATES_TRACKED}

    def test_tracked_attribute_store_through_subscript(self):
        src = """
        def mark(tracked, rnti):
            tracked[rnti].last_seen_s = 1.0
        """
        assert self.seed_effects(src, "mark") == {MUTATES_TRACKED}

    def test_tracked_pop(self):
        src = """
        class T:
            def drop(self, rnti):
                self.tracked.pop(rnti)
        """
        assert self.seed_effects(src, "T.drop") == {MUTATES_TRACKED}

    def test_rebinding_local_named_tracked_is_not_mutation(self):
        src = """
        def snapshot(table):
            tracked = dict(table)
            return tracked
        """
        assert self.seed_effects(src, "snapshot") == set()

    def test_known_mutator_methods_are_seeds(self):
        src = """
        class RachSniffer:
            def discover(self, rnti):
                pass

        class TrackedUe:
            def touch(self, t):
                pass
        """
        assert self.seed_effects(src, "RachSniffer.discover") \
            == {MUTATES_TRACKED}
        assert self.seed_effects(src, "TrackedUe.touch") \
            == {MUTATES_TRACKED}

    def test_rng_forms(self):
        src = """
        import numpy as np

        def a():
            return np.random.default_rng(3)

        def b(rng):
            return rng.random()

        def c():
            return np.random.default_rng(9).normal()

        def d():
            return np.random.rand()
        """
        for fn in ("a", "b", "c", "d"):
            assert self.seed_effects(src, fn) == {RNG}, fn

    def test_clock_and_io(self):
        src = """
        import time

        def stamp():
            return time.time()

        def dump(path, text):
            path.write_text(text)

        def load(name):
            return open(name)
        """
        assert self.seed_effects(src, "stamp") == {CLOCK}
        assert self.seed_effects(src, "dump") == {IO}
        assert self.seed_effects(src, "load") == {IO}

    def test_counter_uniform_is_a_boundary(self):
        src = """
        import numpy as np

        def counter_uniform(*fields):
            # The real one is pure hashing; even if its body mentioned
            # RNG the boundary must stop descent.
            return np.random.default_rng(0).random()

        def caller(a, b):
            return counter_uniform(a, b)
        """
        assert self.seed_effects(src, "counter_uniform") == {COUNTER_RNG}
        assert self.seed_effects(src, "caller") == {COUNTER_RNG}

    def test_pure_function_has_no_effects(self):
        src = """
        def fold(values):
            return sum(v * v for v in values)
        """
        assert self.seed_effects(src, "fold") == set()


class TestPropagation:
    def test_effects_flow_caller_ward_with_witness(self):
        prog = program(("core/m.py", """
            import time

            def leaf():
                return time.time()

            def middle():
                return leaf()

            def top():
                return middle()
            """))
        effects = prog.effects
        assert effects.effects_of("core/m.py::top") == {CLOCK}
        assert effects.witness_chain("core/m.py::top", CLOCK) == [
            "core/m.py::top", "core/m.py::middle", "core/m.py::leaf"]
        described = effects.describe("core/m.py::top", CLOCK)
        assert "top -> middle -> leaf" in described
        assert "core/m.py:" in described

    def test_recursion_converges(self):
        prog = program(("core/m.py", """
            def ping(n, tracked):
                tracked[n] = 1
                return pong(n - 1, tracked)

            def pong(n, tracked):
                return ping(n, tracked) if n else 0
            """))
        assert MUTATES_TRACKED in \
            prog.effects.effects_of("core/m.py::pong")

    def test_cross_module_propagation(self):
        prog = program(
            ("core/a.py", """
             from repro.core.b import draw

             def stage(ctx):
                 return draw()
             """),
            ("core/b.py", """
             import numpy as np

             def draw():
                 return np.random.default_rng().random()
             """))
        assert RNG in prog.effects.effects_of("core/a.py::stage")


class TestStageRoots:
    def test_decorator_root(self):
        prog = program(("core/m.py", """
            def parallel_stage(fn):
                return fn

            @parallel_stage
            def decode(ctx):
                pass
            """))
        assert [r.qualname for r in prog.stage_roots] == \
            ["core/m.py::decode"]
        assert prog.stage_roots[0].how == "decorator"

    def test_stage_call_root_with_self_method(self):
        prog = program(("core/m.py", """
            class Stage:
                def __init__(self, name, fn, parallel=False):
                    pass

            class Pipe:
                def __init__(self):
                    self.s = Stage("dci", self._decode, parallel=True)

                def _decode(self, ctx):
                    pass
            """))
        assert [r.qualname for r in prog.stage_roots] == \
            ["core/m.py::Pipe._decode"]
        assert prog.stage_roots[0].how == "stage-call"

    def test_stage_call_root_picked_by_configuration(self):
        """A stage that picks its job with a conditional expression
        roots every branch, each anchored at its definition when the
        job lives in another module."""
        prog = program(
            ("core/jobs.py", """
             def grid_job(payload):
                 pass

             def record_job(payload):
                 pass
             """),
            ("core/m.py", """
             from repro.core.jobs import grid_job, record_job

             class Stage:
                 def __init__(self, name, fn, parallel=False):
                     pass

             class Pipe:
                 def __init__(self, iq):
                     self.s = Stage("dci", grid_job if iq else record_job,
                                    parallel=True)
             """))
        assert [(r.qualname, r.lineno, r.how) for r in prog.stage_roots] \
            == [("core/jobs.py::grid_job", 2, "stage-call"),
                ("core/jobs.py::record_job", 5, "stage-call")]

    def test_non_parallel_stage_is_not_a_root(self):
        prog = program(("core/m.py", """
            class Stage:
                def __init__(self, name, fn, parallel=False):
                    pass

            def backbone(ctx):
                pass

            S = Stage("sync", backbone)
            """))
        assert prog.stage_roots == []

    def test_parallel_reachable_closure(self):
        prog = program(("core/m.py", """
            def parallel_stage(fn):
                return fn

            def helper():
                pass

            def unrelated():
                pass

            @parallel_stage
            def decode(ctx):
                helper()
            """))
        reachable = prog.parallel_reachable()
        assert "core/m.py::decode" in reachable
        assert "core/m.py::helper" in reachable
        assert "core/m.py::unrelated" not in reachable


class TestReport:
    def test_report_shape_and_purity(self):
        prog = program(("core/m.py", """
            import time

            def parallel_stage(fn):
                return fn

            @parallel_stage
            def impure(ctx):
                return time.time()
            """))
        report = prog.effect_report()
        assert report["modules"] == 1
        assert report["stage_roots"] == ["core/m.py::impure"]
        frontier = report["purity_frontier"][0]
        assert frontier == {"root": "core/m.py::impure",
                            "detected_by": frontier["detected_by"],
                            "reachable": ["core/m.py::impure"],
                            "effects": [CLOCK]}

    def test_production_tree_frontier_is_pure(self):
        """The real parallel stage reaches only counter-keyed RNG."""
        from pathlib import Path
        from repro.lint.engine import LintEngine

        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        engine = LintEngine(rules=[])
        modules, failures = engine.collect([repo_src])
        assert failures == []
        prog = engine.build_program(modules)
        roots = [r.qualname for r in prog.stage_roots]
        assert roots == ["core/dci_decoder.py::grid_decode_job",
                         "core/dci_decoder.py::record_decode_job"]
        report = prog.effect_report()
        frontier = report["purity_frontier"][0]
        assert frontier["effects"] in ([], [COUNTER_RNG])
        assert len(frontier["reachable"]) > 20
