"""The transient Newton loop: its iteration cap and its factor reuse.

``repro.sim.transient`` runs every solve of a run through one damped
Newton loop whose settings are module constants.  A device-free netlist
has a constant step Jacobian, so a run that starts at its DC point
factors exactly once on either engine leg.
"""

import pytest

from repro.circuits import Capacitor, Mosfet, Netlist, VoltageSource, ptm45
from repro.errors import ConvergenceError
from repro.sim import MnaSystem, transient, transient_analysis
from repro.sim.transient import pulse_waveform, step_waveform


def _inverter(tech):
    net = Netlist("inv")
    net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
    net.add(VoltageSource("VIN", "g", "0", dc=0.0))
    net.add(Mosfet("MN", "out", "g", "0", "0", polarity="nmos",
                   params=tech.nmos, w=2e-6, l=0.2e-6))
    net.add(Mosfet("MP", "out", "g", "vdd", "vdd", polarity="pmos",
                   params=tech.pmos, w=4e-6, l=0.2e-6))
    net.add(Capacitor("CL", "out", "0", 10e-15))
    return net


class TestFailureMasking:
    def test_scalar_engine_raises_with_finite_report(self, monkeypatch):
        """The non-convergence path must not reference an unbound loop
        variable when the iteration cap forbids any iteration."""
        tech = ptm45()
        wave = {"VIN": pulse_waveform(0.0, tech.vdd, delay=0.2e-9,
                                      rise=50e-12, width=2e-9)}
        monkeypatch.setattr(transient, "_MAX_ITER", 0)
        with pytest.raises(ConvergenceError):
            transient_analysis(MnaSystem(_inverter(tech)), t_stop=0.5e-9,
                               dt=5e-12, waveforms=wave)


@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_device_free_netlist_factors_once(engine, rc_netlist, monkeypatch):
    factors = []

    def counted(A):
        factors.append(A)
        return lu_factor(A)

    lu_factor = transient._lu_factor
    monkeypatch.setattr(transient, "_lu_factor", counted)
    system = MnaSystem(rc_netlist, engine=engine)
    result = transient_analysis(
        system, t_stop=5e-6, dt=5e-9,
        waveforms={"V1": step_waveform(0.0, 1.0, t_step=1e-7)})
    assert len(result.time) > 1000
    assert len(factors) == 1
