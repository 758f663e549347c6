"""Positive and negative self-tests for every built-in nrlint rule."""

import textwrap
from pathlib import Path

from repro.lint import LintEngine
from repro.lint.obsconform import collect_emissions
from repro.obs.events import KNOWN_EVENTS

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint(source: str, rel: str, engine: LintEngine | None = None):
    """Lint a source snippet as if it lived at package path ``rel``."""
    engine = engine or LintEngine()
    return engine.run_source(textwrap.dedent(source), rel=rel)


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestR001MagicNumbers:
    def test_flags_inline_sfn_modulus(self):
        findings = lint("def f(sfn):\n    return sfn % 1024\n",
                        "core/tracker.py")
        assert any(f.rule_id == "R001" for f in findings)
        assert "SFN_MODULO" in findings[0].message

    def test_flags_inline_rnti_and_crc_poly(self):
        src = """
        def g(rnti):
            if rnti == 0xFFFF:
                return 0x864CFB
        """
        findings = lint(src, "core/tracker.py")
        assert sum(f.rule_id == "R001" for f in findings) == 2

    def test_allows_constants_module(self):
        findings = lint("SFN_MODULO = 1024\nSI_RNTI = 0xFFFF\n",
                        "constants.py")
        assert not findings

    def test_allows_named_module_level_constant(self):
        findings = lint("SEGMENT_E_BITS = 1024\n", "phy/pdsch.py")
        assert not rule_ids(findings) & {"R001"}

    def test_allows_mcs_tables(self):
        findings = lint("RATE = 948 / 1024\n_X = 65535\n",
                        "phy/mcs_tables.py")
        assert not findings

    def test_ignores_unlisted_numbers(self):
        findings = lint("def f(x):\n    return x * 42 + 1000\n",
                        "core/x.py")
        assert not findings

    def test_flags_inline_slot_duration(self):
        findings = lint("def budget():\n    return 0.5e-3\n",
                        "core/scope.py")
        assert rule_ids(findings) == {"R001"}
        assert "slot_duration_s(30)" in findings[0].message

    def test_flags_60khz_slot_duration(self):
        findings = lint("def f(n):\n    return n * 0.25e-3\n",
                        "gnb/scheduler.py")
        assert any("TTI_DURATION_S[60]" in f.message for f in findings)

    def test_allows_named_slot_duration_constant(self):
        findings = lint("SLOT_S = 0.5e-3\n", "core/scope.py")
        assert not rule_ids(findings) & {"R001"}

    def test_ignores_generic_floats(self):
        findings = lint("def f(x):\n    return x * 1e-3 + 0.5\n",
                        "core/x.py")
        assert not findings


class TestR002BitContract:
    def test_flags_width_mismatch(self):
        src = """
        class Message:
            def encode(self, writer):
                writer.write(self.a, 4)
                writer.write(self.b, 7)

            @classmethod
            def decode_fields(cls, reader):
                return cls(a=reader.read(4), b=reader.read(6))
        """
        findings = lint(src, "rrc/messages.py")
        assert any(f.rule_id == "R002" for f in findings)
        assert "7 bits" in findings[0].message
        assert "6 bits" in findings[0].message

    def test_flags_missing_unpack_step(self):
        src = """
        class Message:
            def encode(self, writer):
                writer.write(self.a, 4)
                writer.write(self.b, 2)

            @classmethod
            def decode_fields(cls, reader):
                return cls(a=reader.read(4))
        """
        findings = lint(src, "rrc/messages.py")
        assert any("no matching unpack" in f.message for f in findings)

    def test_flags_signedness_mismatch(self):
        src = """
        class Message:
            def encode(self, writer):
                writer.write_signed(self.power, 9)

            @classmethod
            def decode_fields(cls, reader):
                return cls(power=reader.read(9))
        """
        findings = lint(src, "rrc/messages.py")
        assert any(f.rule_id == "R002" for f in findings)

    def test_accepts_symmetric_codec_with_tag_bool_nested_loop(self):
        src = """
        class Message:
            def encode(self):
                w = BitWriter().write(_TAG_MSG, 6)
                w.write(self.a, 4)
                w.write_bool(self.flag)
                self.sub.encode_into(w)
                for c in (self.x, self.y):
                    w.write(c, 3)
                return w.to_bits()

            @classmethod
            def decode_fields(cls, reader):
                return cls(
                    a=reader.read(4),
                    flag=reader.read_bool(),
                    sub=Sub.decode_from(reader),
                    x=reader.read(3),
                    y=reader.read(3),
                )
        """
        findings = lint(src, "rrc/messages.py")
        assert not findings

    def test_flags_unpack_bypassing_shared_layout(self):
        src = """
        def field_layout(fmt, cfg):
            return [("mcs", 5)]

        def pack(dci, cfg):
            bits = []
            for name, width in field_layout(dci.format, cfg):
                bits.append(0)
            return bits

        def unpack(bits, cfg):
            return bits[0:5]
        """
        findings = lint(src, "phy/dci.py")
        assert any("no matching unpack" in f.message for f in findings)

    def test_flags_coding_contract_mismatch(self):
        src = """
        def encode_block(bits):
            return crc_attach(bits, "crc24a")

        def decode_block(bits):
            return crc_check(bits, "crc24b")
        """
        findings = lint(src, "phy/block.py")
        assert any("coding contract mismatch" in f.message
                   for f in findings)
        assert any("crc24a" in f.message for f in findings)

    def test_accepts_symmetric_coded_channel(self):
        src = """
        def encode_block(bits, cell_id):
            with_crc = crc_attach(bits, "crc24c")
            code = polar.construct(with_crc.size, E_BITS)
            return modulate(polar.encode(with_crc, code), QPSK)

        def decode_block(symbols, k, noise_var):
            llrs = demodulate_soft(symbols, QPSK, noise_var)
            code = polar.construct(k + 24, E_BITS)
            block = polar.decode(llrs, code)
            if not crc_check(block, "crc24c"):
                return None
            return block[:k]
        """
        findings = lint(src, "phy/block.py")
        assert not findings

    def test_flags_layout_field_unknown_to_dci(self):
        src = """
        class Dci:
            mcs: int

        class DciSizeConfig:
            n_prb_bwp: int

        def field_layout(fmt, cfg):
            return [("mcs", 5), ("bogus", 2)]

        def pack(dci, cfg):
            return list(field_layout(dci, cfg))

        def unpack(bits, cfg):
            return list(field_layout(None, cfg))
        """
        findings = lint(src, "phy/dci.py")
        assert any("'bogus'" in f.message for f in findings)

    def test_flags_layout_width_not_from_size_config(self):
        src = """
        class Dci:
            mcs: int

        class DciSizeConfig:
            mcs_bits: int

        def field_layout(fmt, cfg):
            return [("mcs", cfg.imaginary_bits)]

        def pack(dci, cfg):
            return list(field_layout(dci, cfg))

        def unpack(bits, cfg):
            return list(field_layout(None, cfg))
        """
        findings = lint(src, "phy/dci.py")
        assert any("neither a literal nor derived" in f.message
                   for f in findings)

    def test_real_dci_module_is_clean(self):
        from pathlib import Path
        import repro.phy.dci as dci_mod
        findings = LintEngine().run_file(Path(dci_mod.__file__),
                                         rel="phy/dci.py")
        assert not findings

    def test_nested_codec_width_mismatch_in_sub_message(self):
        """A nested codec is checked on its own: the outer message
        delegating to it must not mask the inner asymmetry."""
        src = """
        class Sub:
            def encode_into(self, w):
                w.write(self.kind, 3)
                w.write(self.level, 5)

            @classmethod
            def decode_from(cls, reader):
                return cls(kind=reader.read(3), level=reader.read(4))

        class Outer:
            def encode(self):
                w = BitWriter()
                w.write(self.a, 2)
                self.sub.encode_into(w)
                return w.to_bits()

            @classmethod
            def decode_fields(cls, reader):
                return cls(a=reader.read(2),
                           sub=Sub.decode_from(reader))
        """
        findings = lint(src, "rrc/messages.py")
        r002 = [f for f in findings if f.rule_id == "R002"]
        assert r002, findings
        assert any("5 bits" in f.message and "4 bits" in f.message
                   for f in r002)

    def test_layout_width_missing_from_size_config_is_flagged(self):
        """A layout width read off DciSizeConfig must name a field the
        config actually declares — the cross-check miss."""
        src = """
        class Dci:
            freq: int

        class DciSizeConfig:
            freq_bits: int

        def field_layout(fmt, cfg):
            return [("freq", cfg.freq_bits_typo)]

        def pack(dci, cfg):
            return list(field_layout(dci, cfg))

        def unpack(bits, cfg):
            return list(field_layout(None, cfg))
        """
        findings = lint(src, "phy/dci.py")
        assert any(f.rule_id == "R002" for f in findings)

    def test_layout_width_present_on_size_config_is_clean(self):
        src = """
        class Dci:
            freq: int

        class DciSizeConfig:
            freq_bits: int

        def field_layout(fmt, cfg):
            return [("freq", cfg.freq_bits)]

        def pack(dci, cfg):
            return list(field_layout(dci, cfg))

        def unpack(bits, cfg):
            return list(field_layout(None, cfg))
        """
        findings = lint(src, "phy/dci.py")
        assert not [f for f in findings if f.rule_id == "R002"]


class TestR003FloatEquality:
    def test_flags_float_equality_in_phy(self):
        findings = lint("def f(x):\n    return x == 1.0\n", "phy/agc.py")
        assert rule_ids(findings) == {"R003"}
        assert "named module-level constant" in findings[0].message
        assert "baseline" not in findings[0].message

    def test_allows_a_named_sentinel(self):
        src = """
        UNSET_GAIN = -1.0

        def f(x):
            return x == UNSET_GAIN
        """
        assert not lint(src, "phy/agc.py")

    def test_flags_not_equal_in_radio(self):
        findings = lint("def f(r):\n    return r != 0.5\n",
                        "radio/frontend.py")
        assert rule_ids(findings) == {"R003"}

    def test_flags_identity_with_literal(self):
        findings = lint("def f(x):\n    return x is 1\n", "phy/agc.py")
        assert rule_ids(findings) == {"R003"}
        assert "identity" in findings[0].message

    def test_allows_outside_hot_paths(self):
        findings = lint("def f(x):\n    return x == 1.0\n",
                        "analysis/metrics.py")
        assert not findings

    def test_allows_int_equality_and_inequalities(self):
        src = """
        def f(x):
            return x == 1 or x <= 1.0 or x > 2.5
        """
        findings = lint(src, "phy/agc.py")
        assert not findings


class TestR004SlotArithmetic:
    def test_flags_raw_slot_modulo(self):
        findings = lint("def f(s):\n    return s % 20\n",
                        "phy/dmrs_like.py")
        assert rule_ids(findings) == {"R004"}

    def test_flags_sfn_wrap_outside_helpers(self):
        findings = lint("def f(sfn):\n    return sfn % 1024\n",
                        "gnb/scheduler.py")
        assert "R004" in rule_ids(findings)

    def test_allows_numerology_module(self):
        findings = lint("def f(s):\n    return s % 20\n",
                        "phy/numerology.py")
        assert not findings

    def test_allows_non_slot_moduli(self):
        findings = lint("def f(x, n):\n    return x % 3 + x % n\n",
                        "gnb/scheduler.py")
        assert not findings

    def test_flags_inline_scs_table(self):
        src = """
        def slots(scs_khz):
            return {15: 1, 30: 2, 60: 4}[scs_khz]
        """
        findings = lint(src, "core/scope.py")
        assert "R004" in rule_ids(findings)
        assert "SCS-keyed" in findings[0].message

    def test_allows_named_scs_table(self):
        findings = lint("_SCS_CODES = {15: 0, 30: 1, 60: 2}\n",
                        "rrc/messages.py")
        assert not rule_ids(findings) & {"R004"}

    def test_allows_scs_table_in_constants(self):
        findings = lint("def f():\n    return {15: 1, 30: 2}\n",
                        "constants.py")
        assert not findings

    def test_ignores_non_scs_dicts(self):
        src = """
        def f():
            return {1: 10, 2: 20}, {15: "low"}, {30: 2}
        """
        findings = lint(src, "core/scope.py")
        assert not findings


class TestR005Determinism:
    def test_flags_stdlib_random(self):
        src = """
        import random

        def backoff():
            return random.randint(0, 15)
        """
        findings = lint(src, "gnb/rach.py")
        assert "R005" in rule_ids(findings)

    def test_flags_random_import_from(self):
        findings = lint("from random import choice\n", "ue/traffic.py")
        assert "R005" in rule_ids(findings)

    def test_flags_numpy_legacy_global_rng(self):
        src = """
        import numpy as np

        def noise():
            return np.random.rand()
        """
        findings = lint(src, "ue/channel.py")
        assert "R005" in rule_ids(findings)

    def test_flags_unseeded_default_rng(self):
        src = """
        import numpy as np

        def make():
            return np.random.default_rng()
        """
        findings = lint(src, "simulation.py")
        assert "R005" in rule_ids(findings)

    def test_flags_wall_clock(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        findings = lint(src, "gnb/gnb.py")
        assert "R005" in rule_ids(findings)

    def test_allows_seeded_rng(self):
        src = """
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
        """
        findings = lint(src, "gnb/gnb.py")
        assert not findings

    def test_allows_randomness_outside_sim_core(self):
        src = """
        import numpy as np

        def bootstrap():
            return np.random.rand()
        """
        findings = lint(src, "analysis/metrics.py")
        assert not findings


class TestR007RngOwnership:
    def r007(self, findings):
        return [f for f in findings if f.rule_id == "R007"]

    def test_stdlib_random_in_core(self):
        findings = lint("""
        import random

        def flip():
            return random.random()
        """, "core/decider.py")
        assert any("unowned global randomness" in f.message
                   for f in self.r007(findings))

    def test_stdlib_random_import_from_in_core(self):
        findings = lint("from random import choice\n", "core/decider.py")
        assert self.r007(findings)

    def test_legacy_np_random_in_core(self):
        findings = lint("""
        import numpy as np

        def noise(n):
            return np.random.randn(n)
        """, "core/noise.py")
        assert any("global RNG state" in f.message
                   for f in self.r007(findings))

    def test_unseeded_default_rng(self):
        findings = lint("""
        import numpy as np

        def make():
            return np.random.default_rng()
        """, "core/factory.py")
        assert any("entropy-seeded" in f.message
                   for f in self.r007(findings))

    def test_fresh_generator_one_shot_draw(self):
        findings = lint("""
        import numpy as np

        def decide():
            return np.random.default_rng(7).random() < 0.5
        """, "core/decider.py")
        assert any("discarded" in f.message for f in self.r007(findings))

    def test_seeded_stored_generator_is_clean(self):
        findings = lint("""
        import numpy as np

        class Scope:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def decide(self):
                return self._rng.random() < 0.5
        """, "core/scope_like.py")
        assert not self.r007(findings)

    def test_not_applied_outside_core(self):
        findings = lint("""
        import numpy as np

        def bootstrap():
            return np.random.default_rng()
        """, "analysis/resample.py")
        assert not self.r007(findings)


class TestR008DtypeHygiene:
    def r008(self, findings):
        return [f for f in findings if f.rule_id == "R008"]

    def test_flags_dtypeless_allocators_in_phy(self):
        findings = lint("""
        import numpy as np

        def scratch(n):
            return np.zeros(n), np.empty(n), np.ones(n), np.full(n, 0.5)
        """, "phy/kernel.py")
        assert len(self.r008(findings)) == 4

    def test_flags_stacked_batch_allocation(self):
        """The batched-gather shape: a dtype-less ``(rows, width)``
        scratch matrix upcasts every stacked candidate to float64."""
        findings = lint("""
        import numpy as np

        def gather_batch(grid, starts, width):
            stacked = np.empty((len(starts), width))
            for row, start in enumerate(starts):
                stacked[row] = grid[start:start + width]
            return stacked
        """, "phy/pdcch.py")
        assert len(self.r008(findings)) == 1

    def test_batch_kernel_with_pinned_dtypes_is_clean(self):
        findings = lint("""
        import numpy as np

        def gather_batch(grid, starts, width):
            stacked = np.empty((len(starts), width),
                               dtype=np.complex128)
            energies = np.zeros(len(starts), dtype=np.float64)
            return stacked, energies
        """, "phy/pdcch.py")
        assert not self.r008(findings)

    def test_dtype_keyword_is_clean(self):
        findings = lint("""
        import numpy as np

        def scratch(n):
            return np.zeros(n, dtype=np.complex64)
        """, "phy/kernel.py")
        assert not self.r008(findings)

    def test_positional_dtype_is_clean(self):
        findings = lint("""
        import numpy as np

        def scratch(n):
            return np.zeros(n, np.float32), np.full(n, 0.5, np.float32)
        """, "phy/kernel.py")
        assert not self.r008(findings)

    def test_like_variants_are_exempt(self):
        findings = lint("""
        import numpy as np

        def scratch(proto):
            return np.zeros_like(proto), np.empty_like(proto)
        """, "phy/kernel.py")
        assert not self.r008(findings)

    def test_applies_to_radio_but_not_analysis(self):
        src = """
        import numpy as np

        def scratch(n):
            return np.zeros(n)
        """
        assert self.r008(lint(src, "radio/frontend.py"))
        assert not self.r008(lint(src, "analysis/metrics.py"))


class TestR012ObsConformance:
    def r012(self, findings):
        return [f for f in findings if f.rule_id == "R012"]

    def lint_obs(self, body):
        return self.r012(lint(body, "core/runtime.py"))

    def test_flags_dynamic_name(self):
        findings = self.lint_obs("""
            def run(self, stage):
                self._obs.emit(f"stage.{stage}", slot=1)
        """)
        assert len(findings) == 1
        assert "built at runtime" in findings[0].message

    def test_flags_unknown_name(self):
        findings = self.lint_obs("""
            def run(self):
                self._obs.emit("decode.wat", slot=1)
        """)
        assert len(findings) == 1
        assert "not declared in KNOWN_EVENTS" in findings[0].message

    def test_flags_kind_mismatch(self):
        findings = self.lint_obs("""
            def run(self):
                self._obs.emit("dci.decoded", slot=1)
        """)
        assert len(findings) == 1
        assert "declared kind 'counter'" in findings[0].message

    def test_flags_missing_required_field(self):
        findings = self.lint_obs("""
            def run(self):
                self._obs.emit("dci.miss", slot=1, rnti=2, stage="dci")
        """)
        assert len(findings) == 1
        assert "requires field 'reason'" in findings[0].message

    def test_flags_undeclared_field(self):
        findings = self.lint_obs("""
            def run(self):
                self._obs.emit("sync.acquired", slot=1, beam=3)
        """)
        assert len(findings) == 1
        assert "field 'beam'" in findings[0].message

    def test_flags_dynamic_label_value(self):
        findings = self.lint_obs("""
            def run(self, slot):
                self._obs.emit("dci.miss", slot=1, rnti=2, stage="dci",
                               reason=f"slot-{slot}")
        """)
        assert len(findings) == 1
        assert "cardinality" in findings[0].message

    def test_flags_deferred_queue_entry(self):
        findings = self.lint_obs("""
            def run(self, slot):
                self.events.append(("decode.nope", {"slot": slot}))
        """)
        assert len(findings) == 1
        assert "decode.nope" in findings[0].message

    def test_relay_is_exempt(self):
        findings = self.lint_obs("""
            def run(self, name, fields):
                self._obs.emit(name, **fields)
        """)
        assert not findings

    def test_conforming_sites_are_clean(self):
        findings = self.lint_obs("""
            def run(self, slot, duration_s):
                self._obs.emit("sync.acquired", slot=slot)
                self._obs.count("dci.decoded", slot=slot)
                self._obs.timing("stage.span", duration_s,
                                 stage="decode", outcome="ok")
                self.events.append(("msg4.tracked",
                                    {"slot": slot, "rnti": 1,
                                     "stage": "msg4"}))
        """)
        assert not findings

    def test_non_obs_receiver_is_ignored(self):
        findings = self.lint_obs("""
            def run(self, queue):
                queue.emit("decode.wat", slot=1)
        """)
        assert not findings

    def test_collects_emission_sites_on_repo(self):
        """The collector still finds the package's real emission sites
        (a floor, so a collector that silently finds nothing fails),
        and every site names a declared event."""
        modules, parse_failures = LintEngine(rules=[]).collect([REPO_SRC])
        assert parse_failures == []
        sites = [site for module in modules
                 for site in collect_emissions(module.tree)]
        assert len(sites) >= 14
        assert all(site.name in KNOWN_EVENTS for site in sites)
