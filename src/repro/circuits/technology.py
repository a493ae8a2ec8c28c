"""Technology cards: the per-process device constants the MOSFET model needs.

The paper runs on three "processes": a 45 nm BSIM predictive technology
(through a generic schematic simulator), TSMC 16 nm FinFET (through
Spectre), and the same 16 nm process through BAG with layout parasitics.
We reproduce the *axis* — two distinct technologies with different supply
voltages, thresholds and transconductance constants — with two calibrated
cards for the smooth square-law model in :mod:`repro.circuits.mosfet`:

* :func:`ptm45` — a 45 nm-class planar CMOS card (1.0 V supply).
* :func:`finfet16` — a 16 nm-class FinFET card (0.8 V supply, higher
  drive, quantised widths conceptually represented by the finer grid the
  topology uses).

Process corners (TT/FF/SS/FS/SF) scale threshold voltage and mobility in
the usual correlated way; temperature scales mobility with a power law and
shifts the threshold linearly.  These feed the PVT sweep in
:mod:`repro.pex.corners`.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.units import EPSILON_0, EPSILON_SIO2, ROOM_TEMPERATURE


class Corner(enum.Enum):
    """Process corner: (NMOS flavour, PMOS flavour)."""

    TT = "tt"
    FF = "ff"
    SS = "ss"
    FS = "fs"
    SF = "sf"

    @property
    def nmos_fast(self) -> bool:
        return self.value[0] == "f"

    @property
    def nmos_slow(self) -> bool:
        return self.value[0] == "s"

    @property
    def pmos_fast(self) -> bool:
        return self.value[1] == "f"

    @property
    def pmos_slow(self) -> bool:
        return self.value[1] == "s"


@dataclasses.dataclass(frozen=True)
class DeviceParams:
    """Constants of one MOSFET flavour (NMOS or PMOS) in one technology.

    Attributes
    ----------
    kp:
        Transconductance parameter ``mu * Cox`` [A/V^2].
    vth0:
        Zero-bias threshold voltage magnitude [V] (positive for both
        flavours; the model applies polarity).
    lambda_l:
        Channel-length-modulation coefficient per unit length [V^-1 * m]:
        the effective lambda of a device is ``lambda_l / L``.
    cox:
        Gate-oxide capacitance per area [F/m^2].
    c_overlap:
        Gate-drain/source overlap capacitance per width [F/m].
    c_junction:
        Drain/source junction capacitance per width [F/m] (includes the
        diffusion length implicitly).
    gamma_noise:
        Channel thermal-noise excess factor (2/3 long channel, >1 short).
    kf:
        Flicker-noise coefficient [J] in ``S_id = kf * gm^2 / (Cox W L f)``.
    body_k:
        Linearised body-effect coefficient dVth/dVsb [V/V].
    subthreshold_v:
        Smoothing width of the overdrive softplus [V]; sets an effective
        subthreshold slope.
    vth_corner_shift:
        Threshold shift magnitude [V] applied at fast (−) / slow (+) corners.
    mobility_corner_scale:
        Multiplicative kp spread at fast (×(1+s)) / slow (×(1−s)) corners.
    """

    kp: float
    vth0: float
    lambda_l: float
    cox: float
    c_overlap: float
    c_junction: float
    gamma_noise: float
    kf: float
    body_k: float = 0.2
    subthreshold_v: float = 0.04
    vth_corner_shift: float = 0.04
    mobility_corner_scale: float = 0.12
    vth_temp_coeff: float = -1.0e-3  # dVth/dT [V/K]
    mobility_temp_exp: float = -1.5  # kp ~ (T/T0)^exp

    def at(self, fast: bool, slow: bool, temperature: float) -> "DeviceParams":
        """Return a corner/temperature-adjusted copy of this card."""
        vth = self.vth0
        kp = self.kp
        if fast:
            vth -= self.vth_corner_shift
            kp *= 1.0 + self.mobility_corner_scale
        elif slow:
            vth += self.vth_corner_shift
            kp *= 1.0 - self.mobility_corner_scale
        dt = temperature - ROOM_TEMPERATURE
        vth += self.vth_temp_coeff * dt
        kp *= (temperature / ROOM_TEMPERATURE) ** self.mobility_temp_exp
        return dataclasses.replace(self, vth0=vth, kp=kp)


@dataclasses.dataclass(frozen=True)
class Technology:
    """A process technology: NMOS/PMOS cards plus global constants."""

    name: str
    nmos: DeviceParams
    pmos: DeviceParams
    vdd: float
    l_min: float
    #: Default channel length used by the reproduction's topologies [m].
    l_default: float

    def device(self, polarity: str, corner: Corner = Corner.TT,
               temperature: float = ROOM_TEMPERATURE) -> DeviceParams:
        """Return the (corner, temperature)-adjusted card for ``"nmos"``/``"pmos"``."""
        if polarity == "nmos":
            return self.nmos.at(corner.nmos_fast, corner.nmos_slow, temperature)
        if polarity == "pmos":
            return self.pmos.at(corner.pmos_fast, corner.pmos_slow, temperature)
        raise ValueError(f"unknown device polarity {polarity!r}")


def _cox_for_tox(tox_m: float) -> float:
    """Oxide capacitance per area for an (effective) oxide thickness."""
    return EPSILON_0 * EPSILON_SIO2 / tox_m


def ptm45() -> Technology:
    """45 nm-class planar CMOS card (stands in for the paper's 45 nm BSIM
    predictive technology models).

    Calibrated so that the paper's two-stage op-amp parameter grid
    (widths 0.5..50 um at L = 0.5 um, Cc 0.1..10 pF) spans gains of a few
    hundred V/V, unity-gain bandwidths of 1..25 MHz and bias currents of
    0.1..10 mA — the spec ranges of paper §III-B.
    """
    cox = _cox_for_tox(1.75e-9)  # ~1.97e-2 F/m^2
    nmos = DeviceParams(
        kp=180e-6,
        vth0=0.42,
        lambda_l=0.035e-6,
        cox=cox,
        c_overlap=0.35e-9,
        c_junction=0.9e-9,
        gamma_noise=1.0,
        kf=2.0e-26,
    )
    pmos = DeviceParams(
        kp=75e-6,
        vth0=0.40,
        lambda_l=0.045e-6,
        cox=cox,
        c_overlap=0.35e-9,
        c_junction=1.1e-9,
        gamma_noise=1.0,
        kf=1.0e-26,
    )
    return Technology(name="ptm45", nmos=nmos, pmos=pmos, vdd=1.8,
                      l_min=45e-9, l_default=0.5e-6)


def finfet16() -> Technology:
    """16 nm-class FinFET card (stands in for TSMC 16FF through Spectre).

    Higher drive per width, lower supply, stronger short-channel
    channel-length modulation and a larger thermal-noise excess factor —
    the qualitative differences that matter to the sizing loop.
    """
    cox = _cox_for_tox(1.1e-9)
    nmos = DeviceParams(
        kp=420e-6,
        vth0=0.33,
        lambda_l=0.025e-6,
        cox=cox,
        c_overlap=0.45e-9,
        c_junction=0.7e-9,
        gamma_noise=1.3,
        kf=1.5e-26,
        subthreshold_v=0.035,
    )
    pmos = DeviceParams(
        kp=360e-6,
        vth0=0.31,
        lambda_l=0.030e-6,
        cox=cox,
        c_overlap=0.45e-9,
        c_junction=0.8e-9,
        gamma_noise=1.3,
        kf=0.8e-26,
        subthreshold_v=0.035,
    )
    return Technology(name="finfet16", nmos=nmos, pmos=pmos, vdd=0.8,
                      l_min=16e-9, l_default=60e-9)


#: All corners swept by the PEX/PVT flow, matching a standard signoff set.
SIGNOFF_CORNERS = (Corner.TT, Corner.FF, Corner.SS, Corner.FS, Corner.SF)

