"""Smooth square-law MOSFET model with analytic derivatives.

This is the transistor model behind every analysis in the reproduction.  It
is a C1-continuous ("smooth") square-law model — the same class of model
SPICE's Level-1 implements — with three smoothing devices that make Newton
iteration robust:

* a **softplus overdrive** ``vov_eff = theta * ln(1 + exp((vgs-vth)/theta))``
  that blends the off and on regions and yields an exponential
  subthreshold characteristic with slope ~``theta`` per e-fold;
* a **tanh drain saturation** ``vds_eff = vdsat * tanh(vds / vdsat)`` that
  blends triode into saturation with the correct limits (slope
  ``beta*vov`` at vds=0, current ``beta*vov^2/2`` in saturation);
* a **softplus channel-length modulation** ``1 + lambda * sp(vds)`` that is
  inactive for reverse bias.

All partial derivatives are analytic and are property-tested against finite
differences in ``tests/circuits/test_mosfet.py``.

Polarity is handled with the sign trick: PMOS devices evaluate the same
normalised model on negated terminal voltages, which makes the MNA Jacobian
entries polarity-independent (see :meth:`Mosfet.eval_companion`).

Array evaluation
----------------
The Newton hot loop does not call :meth:`Mosfet.eval_companion` per device;
it evaluates *all* devices at once through :class:`DeviceArrays` (the
per-device constants packed into one ``(13, ..., K)`` array) and
:func:`eval_companion_batch`, which accept any leading batch shape —
``(K,)`` terminal voltages for one design or ``(B, K)`` for a stacked
batch of designs.  The scalar entry points remain
as the readable reference implementation and are property-tested against
the array path in ``tests/circuits/test_mosfet.py``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from repro.circuits.elements import Element, NoiseSource
from repro.circuits.technology import DeviceParams
from repro.errors import NetlistError
from repro.units import BOLTZMANN

#: Smoothing width [V] of the channel-length-modulation softplus.
_CLM_SMOOTH_V = 0.05

#: Floor for vdsat to keep vds/vdsat finite when the device is deeply off.
_VDSAT_FLOOR = 1e-9


def _softplus(x: float, width: float) -> tuple[float, float]:
    """Return ``(width * ln(1+exp(x/width)), d/dx)`` without overflow."""
    u = x / width
    if u > 40.0:
        return x, 1.0
    if u < -40.0:
        return width * math.exp(u), math.exp(u)
    e = math.exp(u)
    return width * math.log1p(e), e / (1.0 + e)


@dataclasses.dataclass(frozen=True)
class ChannelCurrent:
    """Drain current of the normalised (NMOS-referenced) model and its
    partial derivatives with respect to the source-referenced voltages."""

    ids: float
    d_vgs: float
    d_vds: float
    d_vsb: float
    vov_eff: float
    vds_eff: float
    saturation: float  # 0 = deep triode, 1 = full saturation


def channel_current(params: DeviceParams, w: float, l: float, m: float,
                    vgs: float, vds: float, vsb: float) -> ChannelCurrent:
    """Evaluate the normalised channel model.

    Parameters are the source-referenced voltages of an NMOS-polarity
    device; PMOS callers negate their terminal voltages first.  ``vds`` may
    be negative: the MOSFET is drain/source symmetric, so reverse bias
    evaluates the forward model with the terminals swapped (gate voltage
    referenced to the electrical source, i.e. the lower terminal) and the
    current negated.  The composite is C1-continuous at vds = 0.
    """
    if vds < 0.0:
        swapped = _forward_channel_current(params, w, l, m,
                                           vgs - vds, -vds, vsb + vds)
        return ChannelCurrent(
            ids=-swapped.ids,
            d_vgs=-swapped.d_vgs,
            d_vds=swapped.d_vgs + swapped.d_vds - swapped.d_vsb,
            d_vsb=-swapped.d_vsb,
            vov_eff=swapped.vov_eff,
            vds_eff=-swapped.vds_eff,
            saturation=swapped.saturation,
        )
    return _forward_channel_current(params, w, l, m, vgs, vds, vsb)


def _forward_channel_current(params: DeviceParams, w: float, l: float, m: float,
                             vgs: float, vds: float, vsb: float) -> ChannelCurrent:
    """Forward-bias (vds >= 0) branch of the channel model."""
    beta = params.kp * (w * m / l)
    lam = params.lambda_l / l

    vth = params.vth0 + params.body_k * vsb
    vov = vgs - vth
    vov_eff, sig_v = _softplus(vov, params.subthreshold_v)

    vdsat = vov_eff if vov_eff > _VDSAT_FLOOR else _VDSAT_FLOOR
    dvdsat_dvov = 1.0 if vov_eff > _VDSAT_FLOOR else 0.0

    u = vds / vdsat
    if u > 40.0:
        t = 1.0
        sech2 = 0.0
    else:
        t = math.tanh(u)
        sech2 = 1.0 - t * t
    vds_eff = vdsat * t
    dvdseff_dvds = sech2
    dvdseff_dvdsat = t - u * sech2

    q = vov_eff - 0.5 * vds_eff
    i0 = beta * q * vds_eff

    sp, dsp = _softplus(vds, _CLM_SMOOTH_V)
    clm = 1.0 + lam * sp
    dclm_dvds = lam * dsp

    # Chain rule: vov_eff depends on vgs (through vov) and vsb (through vth).
    di0_dvov = beta * ((1.0 - 0.5 * dvdseff_dvdsat * dvdsat_dvov) * vds_eff
                       + q * dvdseff_dvdsat * dvdsat_dvov)
    di0_dvds = beta * sech2 * (vov_eff - vds_eff)

    ids = i0 * clm
    d_vgs = di0_dvov * sig_v * clm
    d_vds = di0_dvds * clm + i0 * dclm_dvds
    d_vsb = -di0_dvov * sig_v * params.body_k * clm

    saturation = min(max(abs(t), 0.0), 1.0)
    return ChannelCurrent(ids=ids, d_vgs=d_vgs, d_vds=d_vds, d_vsb=d_vsb,
                          vov_eff=vov_eff, vds_eff=vds_eff,
                          saturation=saturation)


@dataclasses.dataclass(frozen=True)
class MosfetState:
    """Operating-point summary of one MOSFET.

    Produced by the DC solver and consumed by AC/noise/transient analyses
    and by the measurement layer (e.g. to check saturation margins).
    """

    ids: float  # drain current in the device's own polarity [A], >= 0 when forward
    gm: float
    gds: float
    gmb: float
    vgs: float  # polarity-normalised source-referenced voltages
    vds: float
    vsb: float
    vov_eff: float
    saturation: float
    cgs: float
    cgd: float
    cdb: float
    csb: float

    @property
    def region(self) -> str:
        """Coarse region label: ``"off"``, ``"triode"`` or ``"saturation"``."""
        if self.vov_eff < 1e-3:
            return "off"
        return "saturation" if self.saturation > 0.75 else "triode"


class Mosfet(Element):
    """Four-terminal MOSFET netlist element (d, g, s, b).

    Parameters
    ----------
    name, d, g, s, b:
        Instance name and terminal node names.
    polarity:
        ``"nmos"`` or ``"pmos"``.
    params:
        Technology card (already corner/temperature adjusted).
    w, l:
        Channel width and length [m].
    m:
        Multiplier (number of parallel fingers/units).
    """

    is_nonlinear = True

    def __init__(self, name: str, d: str, g: str, s: str, b: str, *,
                 polarity: str, params: DeviceParams,
                 w: float, l: float, m: float = 1.0):
        super().__init__(name, (d, g, s, b))
        if polarity not in ("nmos", "pmos"):
            raise NetlistError(f"mosfet {name}: polarity must be nmos/pmos")
        if not all(0.0 < v < math.inf for v in (w, l, m)):
            raise NetlistError(
                f"mosfet {name}: w, l, m must be finite and positive")
        self.polarity = polarity
        self.params = params
        self.w = float(w)
        self.l = float(l)
        self.m = float(m)
        self._sign = 1.0 if polarity == "nmos" else -1.0

    # -- terminal helpers --------------------------------------------------
    @property
    def d(self) -> str:
        """Drain node name."""
        return self.nodes[0]

    @property
    def g(self) -> str:
        """Gate node name."""
        return self.nodes[1]

    @property
    def s(self) -> str:
        """Source node name."""
        return self.nodes[2]

    @property
    def b(self) -> str:
        """Bulk node name."""
        return self.nodes[3]

    # -- large signal -------------------------------------------------------
    def stamp(self, stamper) -> None:
        """Linear stamp is empty: the MOSFET is fully handled by the Newton
        companion model and the small-signal stamps."""

    def dc_edges(self) -> tuple[tuple[str, str], ...]:
        """The channel, ``d``–``s``: the gate is insulated and the bulk
        draws no current, so neither anchors its node."""
        return ((self.d, self.s),)

    def terminal_voltages(self, v: Callable[[str], float]) -> tuple[float, float, float]:
        """Return polarity-normalised (vgs, vds, vsb) given a node-voltage getter."""
        s = self._sign
        vgs = s * (v(self.g) - v(self.s))
        vds = s * (v(self.d) - v(self.s))
        vsb = s * (v(self.s) - v(self.b))
        return vgs, vds, vsb

    def eval_companion(self, v: Callable[[str], float]):
        """Evaluate the Newton companion model at node voltages ``v``.

        Returns ``(i_d, g_d, g_g, g_s, g_b)`` where ``i_d`` is the current
        leaving the drain node into the device and ``g_x`` is
        ``d i_d / d v_x``.  The source row is the negation; the caller
        stamps both KCL rows.
        """
        vgs, vds, vsb = self.terminal_voltages(v)
        cc = channel_current(self.params, self.w, self.l, self.m, vgs, vds, vsb)
        i_d = self._sign * cc.ids
        g_g = cc.d_vgs
        g_d = cc.d_vds
        g_s = -cc.d_vgs - cc.d_vds + cc.d_vsb
        g_b = -cc.d_vsb
        return i_d, g_d, g_g, g_s, g_b

    # -- small signal -------------------------------------------------------
    def capacitances(self, saturation: float) -> tuple[float, float, float, float]:
        """Return (cgs, cgd, cdb, csb) [F] with a smooth triode/saturation blend.

        In saturation the intrinsic gate capacitance sits mostly on the
        source side (2/3 Cox W L); in triode it splits evenly.  Junction
        capacitances scale with width.
        """
        p = self.params
        area_c = p.cox * self.w * self.l * self.m
        cov = p.c_overlap * self.w * self.m
        cj = p.c_junction * self.w * self.m
        s = saturation
        cgs = area_c * (0.5 + s / 6.0) + cov
        cgd = area_c * 0.5 * (1.0 - s) + cov
        return cgs, cgd, cj, cj

    def state_at(self, v: Callable[[str], float]) -> MosfetState:
        """Compute the full small-signal state at node voltages ``v``."""
        vgs, vds, vsb = self.terminal_voltages(v)
        cc = channel_current(self.params, self.w, self.l, self.m, vgs, vds, vsb)
        cgs, cgd, cdb, csb = self.capacitances(cc.saturation)
        return MosfetState(
            ids=cc.ids, gm=max(cc.d_vgs, 0.0), gds=max(cc.d_vds, 0.0),
            gmb=abs(cc.d_vsb), vgs=vgs, vds=vds, vsb=vsb,
            vov_eff=cc.vov_eff, saturation=cc.saturation,
            cgs=cgs, cgd=cgd, cdb=cdb, csb=csb,
        )

    # -- array evaluation ---------------------------------------------------
    # The vectorised path lives in DeviceArrays / channel_current_batch
    # below; Mosfet only contributes its constants through
    # DeviceArrays.from_mosfets.

    # -- noise ----------------------------------------------------------------
    def noise_sources(self, op) -> list[NoiseSource]:
        """Channel thermal noise plus 1/f noise, both drain-source current PSDs."""
        state = op.mosfet_state(self.name)
        p = self.params
        thermal = 4.0 * BOLTZMANN * op.temperature * p.gamma_noise * state.gm
        flicker_k = p.kf * state.gm ** 2 / (p.cox * self.w * self.l * self.m)

        def psd(freq, _t: float = thermal, _f: float = flicker_k):
            freq = np.asarray(freq, dtype=float)
            with np.errstate(divide="ignore"):
                flicker = np.where(freq > 0.0, _f / freq, 0.0)
            return _t + flicker

        return [(self.d, self.s, psd)]


# ---------------------------------------------------------------------------
# Vectorised (array) evaluation
# ---------------------------------------------------------------------------

def _sized_fields(kp, lambda_l, cox, c_overlap, c_junction, w, l, m):
    """The size-dependent bank fields ``(beta, lam, c_area, c_ov, c_j)``
    of a device card and sizing: floats for one device
    (:meth:`DeviceArrays.from_mosfets`), arrays for many designs at once
    (:meth:`DeviceArrays.fill_sized`).  Written once so both evaluate
    the same operations in the same order."""
    return (kp * w * m / l, lambda_l / l, cox * w * l * m,
            c_overlap * w * m, c_junction * w * m)


class DeviceArrays:
    """Per-device constants of K MOSFETs, packed into one array.

    ``data`` has shape ``(13, ..., K)``: one row per constant, in the
    order of :attr:`FIELDS`, and every named field below is a view of its
    row.  A single design's bank is ``(13, K)``; a stacked bank of B
    designs is ``(13, B, K)``, so :meth:`take` (select designs) and
    :meth:`stack` (join banks) are one numpy operation each, whatever the
    number of fields.  Every field broadcasts against terminal-voltage
    arrays of shape ``(..., K)``, so the same object drives both
    single-design and stacked-batch evaluation.  ``beta``/``lam`` are the
    width/length-derived composites the channel model actually consumes,
    precomputed so the hot loop never touches Python-object device
    attributes.

    Fields: ``beta`` (kp W m / L), ``lam`` (lambda_l / L), ``vth0``,
    ``body_k``, ``subth`` (subthreshold softplus width), ``sign`` (+1
    NMOS, -1 PMOS), ``c_area`` (cox W L m), ``c_ov`` (c_overlap W m),
    ``c_j`` (c_junction W m), ``gamma_n`` (channel thermal-noise gamma),
    ``kf`` (flicker-noise coefficient), and the hot-loop derived
    ``inv_subth`` (1 / subth) and ``lam_sp`` (lam * the CLM smoothing
    width).

    A bank an :class:`~repro.sim.system.MnaSystem` owns is replaced, never
    mutated, on restamp; a :class:`~repro.sim.batch.SystemStack` refills
    its own bank in place, slice by slice or all at once
    (:meth:`fill_sized`).
    """

    #: Row names of :attr:`data`, in order.
    FIELDS = ("beta", "lam", "vth0", "body_k", "subth", "sign", "c_area",
              "c_ov", "c_j", "gamma_n", "kf", "inv_subth", "lam_sp")

    __slots__ = ("data",) + FIELDS

    def __init__(self, data: np.ndarray):
        self.data = data
        (self.beta, self.lam, self.vth0, self.body_k, self.subth, self.sign,
         self.c_area, self.c_ov, self.c_j, self.gamma_n, self.kf,
         self.inv_subth, self.lam_sp) = data

    @classmethod
    def from_mosfets(cls, mosfets: Sequence["Mosfet"]) -> "DeviceArrays":
        """Pack the constants of ``mosfets`` (one column per device)."""
        rows = []
        for m in mosfets:
            p = m.params
            beta, lam, c_area, c_ov, c_j = _sized_fields(
                p.kp, p.lambda_l, p.cox, p.c_overlap, p.c_junction,
                m.w, m.l, m.m)
            rows.append((beta, lam, p.vth0, p.body_k, p.subthreshold_v,
                         m._sign, c_area, c_ov, c_j, p.gamma_noise, p.kf))
        data = np.empty((len(cls.FIELDS), len(rows)))
        data[:11] = np.array(rows, dtype=float).reshape(len(rows), 11).T
        np.divide(1.0, data[4], out=data[11])
        np.multiply(data[1], _CLM_SMOOTH_V, out=data[12])
        return cls(data)

    @staticmethod
    def cards(mosfets: Sequence["Mosfet"]) -> np.ndarray:
        """``(13, K)`` card rows of ``mosfets`` in bank layout, the
        ``cards`` argument of :meth:`fill_sized`: the size-free rows
        (``vth0``, ``body_k``, ``subth``, ``sign``, ``gamma_n``, ``kf``,
        ``inv_subth``) as a bank holds them, and in the size-dependent
        rows the card value :func:`_sized_fields` scales (``kp``,
        ``lambda_l``, ``cox``, ``c_overlap``, ``c_junction``; ``lam_sp``
        is left 0)."""
        cards = np.zeros((len(DeviceArrays.FIELDS), len(mosfets)))
        cards[:11] = np.array(
            [(m.params.kp, m.params.lambda_l, m.params.vth0,
              m.params.body_k, m.params.subthreshold_v, m._sign,
              m.params.cox, m.params.c_overlap, m.params.c_junction,
              m.params.gamma_noise, m.params.kf) for m in mosfets],
            dtype=float).reshape(len(mosfets), 11).T
        np.divide(1.0, cards[4], out=cards[11])
        return cards

    def fill_sized(self, cards: np.ndarray, w: np.ndarray, l: np.ndarray,
                   m: np.ndarray) -> None:
        """Fill this ``(13, B, K)`` bank from :meth:`cards` and the
        devices' ``(B, K)`` width, length and multiplier matrices.

        The size-dependent rows come from the same
        :func:`_sized_fields` arithmetic as :meth:`from_mosfets`', on
        whole matrices, so block ``b`` is bitwise the bank
        ``from_mosfets`` packs for the devices sized as row ``b``.
        """
        data = self.data
        data[...] = cards[:, None]                # the size-free rows
        (data[0], data[1], data[6], data[7], data[8]) = _sized_fields(
            cards[0], cards[1], cards[6], cards[7], cards[8], w, l, m)
        np.multiply(self.lam, _CLM_SMOOTH_V, out=self.lam_sp)

    @classmethod
    def empty(cls, n_designs: int, n_devices: int) -> "DeviceArrays":
        """Uninitialised ``(13, n_designs, n_devices)`` bank (filled one
        design block at a time, e.g. by ``SystemStack.set_design``)."""
        return cls(np.empty((len(cls.FIELDS), n_designs, n_devices)))

    @classmethod
    def stack(cls, banks: Sequence["DeviceArrays"]) -> "DeviceArrays":
        """Stack B single-design banks into one ``(13, B, K)`` bank."""
        return cls(np.stack([b.data for b in banks], axis=1))

    def take(self, idx) -> "DeviceArrays":
        """Designs ``idx`` of a stacked bank: an int gives a ``(13, K)``
        view, an index array or bool mask a ``(13, len, K)`` copy."""
        return DeviceArrays(self.data[:, idx])

    def __len__(self) -> int:
        return self.data.shape[-1]


@dataclasses.dataclass(frozen=True)
class ChannelArrays:
    """Array counterpart of :class:`ChannelCurrent` (shapes ``(..., K)``).

    ``ids_res`` is the drain current with the channel-length-modulation
    factor in the association of :func:`channel_ids_batch`,
    ``1 + (lam * C) * L``, where ``ids`` uses ``1 + lam * (C * L)`` (C the
    smoothing width, L the softplus of ``vds / C``).  The two differ by
    rounding only; ``ids_res`` makes a residual taken from a companion
    evaluation bitwise the one the current-only model gives.
    """

    ids: np.ndarray
    d_vgs: np.ndarray
    d_vds: np.ndarray
    d_vsb: np.ndarray
    vov_eff: np.ndarray
    vds_eff: np.ndarray
    saturation: np.ndarray
    ids_res: np.ndarray


def _softplus_arrays(u: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``(width * ln(1+exp(u)), sigmoid(u))`` without overflow.

    ``logaddexp(0, u)`` is the overflow-safe softplus and
    ``exp(u - softplus(u))`` is the overflow-safe sigmoid (the exponent is
    always <= 0), matching the clamped scalar :func:`_softplus` to rounding.
    """
    sp = np.logaddexp(0.0, u)
    return width * sp, np.exp(u - sp)


def channel_current_batch(dev: DeviceArrays, vgs: np.ndarray, vds: np.ndarray,
                          vsb: np.ndarray) -> ChannelArrays:
    """Vectorised :func:`channel_current` over stacked devices.

    Accepts any broadcastable batch shape ``(..., K)``; reverse bias
    (``vds < 0``) is handled with the same terminal-swap algebra as the
    scalar model, applied element-wise.
    """
    neg = vds < 0.0
    any_neg = bool(neg.any())
    if any_neg:
        vgs_f = np.where(neg, vgs - vds, vgs)
        vsb_f = np.where(neg, vsb + vds, vsb)
        vds_f = np.abs(vds)
    else:
        vgs_f, vsb_f, vds_f = vgs, vsb, vds

    vov = vgs_f - (dev.vth0 + dev.body_k * vsb_f)
    vov_eff, sig = _softplus_arrays(vov / dev.subth, dev.subth)
    vdsat = np.maximum(vov_eff, _VDSAT_FLOOR)
    dvdsat_dvov = vov_eff > _VDSAT_FLOOR  # bool; promotes to 0/1 in arithmetic

    u = vds_f / vdsat
    t = np.tanh(u)
    sech2 = 1.0 - t * t
    vds_eff = vdsat * t
    dvdseff_dvdsat = t - u * sech2

    q = vov_eff - 0.5 * vds_eff
    i0 = dev.beta * q * vds_eff

    # The CLM softplus unscaled, for ids_res (overflow-safe forms as in
    # _softplus_arrays).
    u3 = vds_f / _CLM_SMOOTH_V
    raw = np.logaddexp(0.0, u3)
    clm = 1.0 + dev.lam * (_CLM_SMOOTH_V * raw)
    dclm_dvds = dev.lam * np.exp(u3 - raw)

    chain = dvdseff_dvdsat * dvdsat_dvov
    di0_dvov = dev.beta * ((1.0 - 0.5 * chain) * vds_eff + q * chain)
    di0_dvds = dev.beta * sech2 * (vov_eff - vds_eff)

    ids = i0 * clm
    ids_res = i0 * (1.0 + dev.lam_sp * raw)
    d_vgs = di0_dvov * sig * clm
    d_vds = di0_dvds * clm + i0 * dclm_dvds
    d_vsb = -d_vgs * dev.body_k
    saturation = np.abs(t)

    if any_neg:
        flip = np.where(neg, -1.0, 1.0)
        d_vds = np.where(neg, d_vgs + d_vds - d_vsb, d_vds)
        ids = flip * ids
        ids_res = flip * ids_res
        d_vgs = flip * d_vgs
        d_vsb = flip * d_vsb
        vds_eff = flip * vds_eff
    return ChannelArrays(ids=ids, d_vgs=d_vgs, d_vds=d_vds, d_vsb=d_vsb,
                         vov_eff=vov_eff, vds_eff=vds_eff,
                         saturation=saturation, ids_res=ids_res)


def channel_ids_batch(dev: DeviceArrays, vgs: np.ndarray, vds: np.ndarray,
                      vsb: np.ndarray) -> np.ndarray:
    """Current-only vectorised channel evaluation (no derivatives).

    Used by KCL residual checks, which previously evaluated the full
    companion model per device only to discard all four conductances.
    :attr:`ChannelArrays.ids_res` of :func:`channel_current_batch` is
    bitwise this value.
    """
    neg = vds < 0.0
    any_neg = bool(neg.any())
    if any_neg:
        vgs_f = np.where(neg, vgs - vds, vgs)
        vsb_f = np.where(neg, vsb + vds, vsb)
        vds_f = np.abs(vds)
    else:
        vgs_f, vsb_f, vds_f = vgs, vsb, vds

    vov = vgs_f - (dev.vth0 + dev.body_k * vsb_f)
    vov_eff = dev.subth * np.logaddexp(0.0, vov / dev.subth)
    vdsat = np.maximum(vov_eff, _VDSAT_FLOOR)
    vds_eff = vdsat * np.tanh(vds_f / vdsat)
    i0 = dev.beta * (vov_eff - 0.5 * vds_eff) * vds_eff
    clm = 1.0 + dev.lam * _CLM_SMOOTH_V * np.logaddexp(0.0, vds_f / _CLM_SMOOTH_V)
    ids = i0 * clm
    if any_neg:
        ids = np.where(neg, -ids, ids)
    return ids


#: Maps stacked (vd, vg, vs, vb) columns to (vgs, vds, vsb); the device
#: sign is applied separately (``V * sign`` before the matmul).
_TERMINAL_MAP = np.array([
    [0.0, 1.0, 0.0],    # vd ->        vds
    [1.0, 0.0, 0.0],    # vg -> vgs
    [-1.0, -1.0, 1.0],  # vs -> -vgs, -vds, vsb
    [0.0, 0.0, -1.0],   # vb ->              -vsb
])

#: Maps (d_vgs, d_vds, d_vsb) to the companion conductances (g_d, g_g,
#: g_s, g_b) = d i_d / d (v_d, v_g, v_s, v_b).
_COMPANION_MAP = np.array([
    [0.0, 1.0, -1.0, 0.0],   # d_vgs -> g_g, -g_s
    [1.0, 0.0, -1.0, 0.0],   # d_vds -> g_d, -g_s
    [0.0, 0.0, 1.0, -1.0],   # d_vsb -> g_s, -g_b
])


def terminal_voltages_batch(dev: DeviceArrays, V: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polarity-normalised (vgs, vds, vsb) from ``V = (..., K, 4)`` stacked
    (drain, gate, source, bulk) node voltages."""
    views = (V * dev.sign[..., :, None]) @ _TERMINAL_MAP  # (..., K, 3)
    return views[..., 0], views[..., 1], views[..., 2]


def eval_companion_batch(dev: DeviceArrays, V: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :meth:`Mosfet.eval_companion` over all devices at once.

    Parameters
    ----------
    V:
        ``(..., K, 4)`` terminal voltages in (d, g, s, b) column order.

    Returns
    -------
    ``(i_d, g)`` where ``i_d`` has shape ``(..., K)`` (current leaving the
    drain) and ``g`` has shape ``(..., K, 4)`` with columns ``d i_d / d
    (v_d, v_g, v_s, v_b)`` — the same quantities the scalar method returns,
    for every device in one call.
    """
    i_d, g, _ = eval_companion_ids_batch(dev, V)
    return i_d, g


def eval_companion_ids_batch(dev: DeviceArrays, V: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`eval_companion_batch` plus :func:`eval_ids_batch` in one
    device pass: returns ``(i_d, g, ids)`` where ``ids`` is bitwise
    ``eval_ids_batch(dev, V)`` (see :attr:`ChannelArrays.ids_res`), so a
    Newton driver can test the residual at the iterate it linearises at.
    """
    vgs, vds, vsb = terminal_voltages_batch(dev, V)
    cc = channel_current_batch(dev, vgs, vds, vsb)
    i_d = dev.sign * cc.ids
    g = np.stack([cc.d_vgs, cc.d_vds, cc.d_vsb], axis=-1) @ _COMPANION_MAP
    return i_d, g, dev.sign * cc.ids_res


def eval_ids_batch(dev: DeviceArrays, V: np.ndarray) -> np.ndarray:
    """Current-only vectorised companion evaluation (for residuals)."""
    vgs, vds, vsb = terminal_voltages_batch(dev, V)
    return dev.sign * channel_ids_batch(dev, vgs, vds, vsb)


def state_arrays_batch(dev: DeviceArrays, vgs: np.ndarray, vds: np.ndarray,
                       vsb: np.ndarray) -> dict[str, np.ndarray]:
    """All :class:`MosfetState` fields as arrays of shape ``(..., K)``.

    The capacitance blend matches :meth:`Mosfet.capacitances`.
    """
    cc = channel_current_batch(dev, vgs, vds, vsb)
    s = cc.saturation
    cgs = dev.c_area * (0.5 + s / 6.0) + dev.c_ov
    cgd = dev.c_area * 0.5 * (1.0 - s) + dev.c_ov
    return {
        "ids": cc.ids,
        "gm": np.maximum(cc.d_vgs, 0.0),
        "gds": np.maximum(cc.d_vds, 0.0),
        "gmb": np.abs(cc.d_vsb),
        "vgs": vgs, "vds": vds, "vsb": vsb,
        "vov_eff": cc.vov_eff,
        "saturation": s,
        "cgs": cgs, "cgd": cgd, "cdb": dev.c_j, "csb": dev.c_j,
    }


# ---------------------------------------------------------------------------
# Workspace (allocation-free) evaluation for the single-design Newton loop
# ---------------------------------------------------------------------------

#: 1 / _CLM_SMOOTH_V, folded into the hot loop.
_INV_CLM = 1.0 / _CLM_SMOOTH_V


class ChannelWorkspace:
    """Preallocated temporaries for one system's K devices.

    A Newton iteration on a 10–20 unknown circuit is dominated by numpy
    *dispatch* cost, not arithmetic; reusing buffers via ``out=`` roughly
    halves the per-iteration model cost.  One workspace belongs to one
    :class:`~repro.sim.system.MnaSystem` (single-threaded use, like the
    system's own stamp buffers).
    """

    def __init__(self, n_devices: int):
        K = n_devices
        self.Vs = np.empty((K, 4))
        self.V3 = np.empty((K, 3))
        self.t = [np.empty(K) for _ in range(13)]
        self.mask = np.empty(K, dtype=bool)
        self.D = np.empty((K, 3))
        self.g = np.empty((K, 4))
        self.i_d = np.empty(K)
        self.gV = np.empty((K, 4))
        self.i_eq = np.empty(K)


def _forward_core_ws(dev: DeviceArrays, vgs, vds, vsb, ws: ChannelWorkspace,
                     derivatives: bool):
    """Fused forward-bias model on workspace buffers.

    Returns ``(ids, d_vgs, d_vds, d_vsb)`` views into ``ws`` (the last
    three are None when ``derivatives`` is False).  Callers guarantee
    ``vds >= 0`` for every device.
    """
    t = ws.t
    np.multiply(dev.body_k, vsb, out=t[0])
    np.add(dev.vth0, t[0], out=t[0])
    np.subtract(vgs, t[0], out=t[0])
    np.multiply(t[0], dev.inv_subth, out=t[0])            # u1
    np.logaddexp(0.0, t[0], out=t[1])                     # softplus(u1)
    np.multiply(dev.subth, t[1], out=t[2])                # vov_eff
    np.subtract(t[0], t[1], out=t[0])
    np.exp(t[0], out=t[0])                                # sigmoid(u1)
    np.maximum(t[2], _VDSAT_FLOOR, out=t[3])              # vdsat
    np.divide(vds, t[3], out=t[4])                        # u2
    np.tanh(t[4], out=t[5])
    np.multiply(t[5], t[5], out=t[6])
    np.subtract(1.0, t[6], out=t[6])                      # sech^2
    np.multiply(t[3], t[5], out=t[7])                     # vds_eff
    np.multiply(t[7], 0.5, out=t[9])
    np.subtract(t[2], t[9], out=t[9])                     # q
    np.multiply(dev.beta, t[9], out=t[10])
    np.multiply(t[10], t[7], out=t[10])                   # i0
    np.multiply(vds, _INV_CLM, out=t[11])                 # u3
    np.logaddexp(0.0, t[11], out=t[12])                   # softplus(u3)
    if derivatives:
        np.subtract(t[11], t[12], out=t[11])
        np.exp(t[11], out=t[11])                          # dsp
        np.multiply(dev.lam, t[11], out=t[11])            # dclm
    np.multiply(dev.lam_sp, t[12], out=t[12])
    np.add(1.0, t[12], out=t[12])                         # clm
    ids = np.multiply(t[10], t[12], out=t[8])
    if not derivatives:
        return ids, None, None, None
    # Keep ids in t[8]; reuse D columns as scratch for the chain rule.
    np.multiply(t[4], t[6], out=t[4])
    np.subtract(t[5], t[4], out=t[4])                     # dvdseff_dvdsat
    np.greater(t[2], _VDSAT_FLOOR, out=ws.mask)
    np.multiply(t[4], ws.mask, out=t[4])                  # chain
    D0, D1, D2 = ws.D[:, 0], ws.D[:, 1], ws.D[:, 2]
    np.multiply(t[4], 0.5, out=D0)
    np.subtract(1.0, D0, out=D0)
    np.multiply(D0, t[7], out=D0)
    np.multiply(t[9], t[4], out=D1)
    np.add(D0, D1, out=D0)
    np.multiply(dev.beta, D0, out=D0)                     # di0_dvov
    np.subtract(t[2], t[7], out=D1)
    np.multiply(t[6], D1, out=D1)
    np.multiply(dev.beta, D1, out=D1)                     # di0_dvds
    np.multiply(D0, t[0], out=D0)
    np.multiply(D0, t[12], out=D0)                        # d_vgs
    np.multiply(D1, t[12], out=D1)
    np.multiply(t[10], t[11], out=t[10])
    np.add(D1, t[10], out=D1)                             # d_vds
    np.multiply(D0, dev.body_k, out=D2)
    np.negative(D2, out=D2)                               # d_vsb
    return ids, D0, D1, D2


def eval_companion_ws(dev: DeviceArrays, V: np.ndarray,
                      ws: ChannelWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """Workspace variant of :func:`eval_companion_batch` for one design.

    Returns views into ``ws`` (valid until the next call on the same
    workspace).  Falls back to the general batch path when any device is
    reverse-biased (rare outside transient start-up).
    """
    np.multiply(V, dev.sign[:, None], out=ws.Vs)
    np.matmul(ws.Vs, _TERMINAL_MAP, out=ws.V3)
    vgs, vds, vsb = ws.V3[:, 0], ws.V3[:, 1], ws.V3[:, 2]
    if vds.min() < 0.0:
        cc = channel_current_batch(dev, vgs, vds, vsb)
        np.multiply(dev.sign, cc.ids, out=ws.i_d)
        ws.D[:, 0] = cc.d_vgs
        ws.D[:, 1] = cc.d_vds
        ws.D[:, 2] = cc.d_vsb
        np.matmul(ws.D, _COMPANION_MAP, out=ws.g)
        return ws.i_d, ws.g
    ids, _, _, _ = _forward_core_ws(dev, vgs, vds, vsb, ws, derivatives=True)
    np.multiply(dev.sign, ids, out=ws.i_d)
    np.matmul(ws.D, _COMPANION_MAP, out=ws.g)
    return ws.i_d, ws.g
