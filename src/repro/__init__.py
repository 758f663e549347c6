"""repro: a reproduction of NR-Scope (CoNEXT '24) on a simulated 5G SA RAN.

The package is layered:

* :mod:`repro.phy` - 3GPP physical-layer substrate (38.211/212/214).
* :mod:`repro.rrc` - the RRC message set NR-Scope decodes (MIB, SIB1,
  RRC Setup).
* :mod:`repro.gnb`, :mod:`repro.ue`, :mod:`repro.radio` - the simulated
  5G Standalone network standing in for the paper's testbeds.
* :mod:`repro.core` - NR-Scope itself: cell search, RACH sniffing, DCI
  decoding, throughput / HARQ / spare-capacity telemetry.
* :mod:`repro.analysis` - ground-truth matching and the paper's metrics.
* :mod:`repro.experiments` - one module per evaluation figure.

Quickstart::

    from repro import NRScope, Simulation, SRSRAN_PROFILE
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=1)
    scope = NRScope.attach(sim)
    sim.run(seconds=1.0)
    for rnti, rate_bps in scope.per_ue_throughput(sim.now_s).items():
        print(f"UE 0x{rnti:04x}: {rate_bps / 1e6:.2f} Mbps")
"""

__version__ = "1.0.0"

#: Names re-exported lazily so that importing a subpackage (e.g.
#: ``repro.phy``) never drags in the whole stack.
_LAZY_EXPORTS = {
    "NRScope": ("repro.core.scope", "NRScope"),
    "Simulation": ("repro.simulation", "Simulation"),
    "CellProfile": ("repro.gnb.cell_config", "CellProfile"),
    "SRSRAN_PROFILE": ("repro.gnb.cell_config", "SRSRAN_PROFILE"),
    "MOSOLAB_PROFILE": ("repro.gnb.cell_config", "MOSOLAB_PROFILE"),
    "AMARISOFT_PROFILE": ("repro.gnb.cell_config", "AMARISOFT_PROFILE"),
    "TMOBILE_N25_PROFILE": ("repro.gnb.cell_config", "TMOBILE_N25_PROFILE"),
    "TMOBILE_N71_PROFILE": ("repro.gnb.cell_config", "TMOBILE_N71_PROFILE"),
    "ObsContext": ("repro.obs.context", "ObsContext"),
    "OBS_NOOP": ("repro.obs.context", "OBS_NOOP"),
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
