"""Magnitude-modulated probing-input design.

The probe is a step R * e_channel applied over the detection window. R must
exceed R0 = 2 mu0 mu1 / delta_min, where mu0 bounds the unknown initial
state (max-norm over current-type states, 2 % of the operating-point value),
mu1 bounds the output map (max induced 2-norm of C over scenarios, valid
because every scenario is stable), and delta_min is the smallest over
scenario pairs of the largest gap between zero-initial unit-step responses
within the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateDesignError, NumericalError
from .linsys import discretize_zoh, eigenvalues, step_response
from .ssbuild import ScenarioFamily, StateSpaceModel
from .util import doc_value

CHANNELS = ("d", "delta", "m_a")


def channel_index(channel) -> int:
    """Accept a u1 channel as index 0..2 (an int or its digit string, as a
    command line gives it) or name 'd'/'delta'/'m_a'."""
    if isinstance(channel, str) and not channel.lstrip("-").isdigit():
        if channel not in CHANNELS:
            raise DegenerateDesignError(
                f"unknown probe channel '{channel}' (one of {CHANNELS})")
        return CHANNELS.index(channel)
    ch = int(channel)
    if ch not in (0, 1, 2):
        raise DegenerateDesignError(f"probe channel index must be 0..2, got {ch}")
    return ch


def probe_margin(margin) -> float:
    """margin as the factor R / R0, which must be finite and exceed 1."""
    margin = float(margin)
    if not (margin > 1.0 and math.isfinite(margin)):
        raise DegenerateDesignError(f"margin must be finite and exceed 1, got {margin}")
    return margin


def whole_steps(name: str, span: float, ts: float) -> int:
    """span / ts as a count of samples: it must be whole (to 1e-6) and >= 1."""
    ratio = span / ts if ts > 0 else math.nan
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-6:
        raise ConfigError(f"{name}={span} is not a whole number (>= 1) of samples at ts={ts}")
    return steps


def current_state_mask(labels) -> np.ndarray:
    """True for current-type states: line, aux and load-branch currents plus
    the converter terminal current. The PV-array DC current is excluded."""
    return np.array([lab.startswith("I_") or lab.startswith("i_t_") for lab in labels])


@dataclass(frozen=True)
class ProbingDesign:
    """Designed step probe. Constructor enforces the magnitude condition."""

    mu0: float
    mu1: float
    delta_min: float
    R0: float
    R: float
    channel: int
    tau0: float
    ts: float | None = None
    argmin_pair: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("mu0", "mu1", "delta_min", "R0", "R", "tau0"):
            if not math.isfinite(getattr(self, name)):
                raise DegenerateDesignError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.tau0 > 0:
            raise DegenerateDesignError(f"tau0 must be > 0, got {self.tau0}")
        if not self.delta_min > 0:
            raise DegenerateDesignError(
                f"delta_min must be > 0, got {self.delta_min}")
        expected_R0 = 2.0 * self.mu0 * self.mu1 / self.delta_min
        if abs(self.R0 - expected_R0) > 1e-9 * max(1.0, abs(expected_R0)):
            raise DegenerateDesignError(
                f"R0={self.R0} inconsistent with 2*mu0*mu1/delta_min={expected_R0}")
        if not self.R > self.R0:
            raise DegenerateDesignError(
                f"probe magnitude R={self.R} does not exceed threshold R0={self.R0}")
        channel_index(self.channel)


@dataclass(frozen=True)
class DeltaMinResult:
    """delta_min value with diagnostics; `indistinguishable` flags a zero gap."""

    value: float
    pair: tuple[int, int]
    gaps: dict = field(default_factory=dict)  # (i, j) -> max |aggregate gap|

    @property
    def indistinguishable(self) -> bool:
        return not self.value > 0.0


def compute_mu0(model: StateSpaceModel, equilibrium: np.ndarray) -> float:
    """2 % of the largest operating-point current magnitude (max-norm)."""
    eq = np.asarray(equilibrium, dtype=float)
    if eq.shape != (model.n,):
        raise NumericalError(f"equilibrium must have length {model.n}")
    if not np.all(np.isfinite(eq)):
        raise NumericalError("equilibrium has non-finite entries")
    mask = current_state_mask(model.state_labels)
    if not mask.any():
        raise DegenerateDesignError("model has no current-type states")
    return 0.02 * float(np.max(np.abs(eq[mask])))


def compute_mu1(family: ScenarioFamily) -> float:
    """max over scenarios of ||C||_2; requires every scenario stable."""
    unstable = []
    for sc in family:
        mx = float(np.max(eigenvalues(sc).real))
        if mx >= 0.0:
            unstable.append(f"{sc.name}: max Re(lambda) = {mx:.6g}")
    if unstable:
        raise NumericalError(
            "output-map bound needs a stable family; offending scenarios: "
            + "; ".join(unstable))
    return max(float(np.linalg.norm(sc.C, 2)) for sc in family)


def compute_delta_min(family: ScenarioFamily, channel, tau0: float,
                      ts: float) -> DeltaMinResult:
    """Smallest over scenario pairs of the largest output-aggregate deviation
    between zero-initial unit-step responses on `channel` over [0, tau0].

    A zero result is reported (not raised) so callers can surface which pair
    is indistinguishable under this probe channel.
    """
    if len(family) < 2:
        raise DegenerateDesignError("delta_min needs at least two scenarios")
    ch = channel_index(channel)
    steps = whole_steps("tau0", tau0, ts)

    aggregates = [step_response(discretize_zoh(sc, ts), ch, steps).outputs.sum(axis=1)
                  for sc in family]

    gaps: dict[tuple[int, int], float] = {}
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            gaps[(i, j)] = float(np.max(np.abs(aggregates[i] - aggregates[j])))
    pair = min(gaps, key=lambda k: (gaps[k], k))
    return DeltaMinResult(value=gaps[pair], pair=pair, gaps=gaps)


def design_mami(family: ScenarioFamily, equilibrium: np.ndarray, channel,
                tau0: float, ts: float, margin: float = 1.01) -> ProbingDesign:
    """Full design: R0 = 2 mu0 mu1 / delta_min, R = margin * R0 (margin > 1)."""
    margin = probe_margin(margin)
    ch = channel_index(channel)
    mu1 = compute_mu1(family)
    dm = compute_delta_min(family, ch, tau0, ts)
    if dm.indistinguishable:
        raise DegenerateDesignError(
            f"scenarios {dm.pair} are output-indistinguishable under channel "
            f"'{CHANNELS[ch]}'; probing channel must change")
    mu0 = compute_mu0(family[0], equilibrium)
    if mu0 == 0.0:
        raise DegenerateDesignError(
            "operating point has zero currents; state bound mu0 degenerates")
    R0 = 2.0 * mu0 * mu1 / dm.value
    return ProbingDesign(mu0=mu0, mu1=mu1, delta_min=dm.value, R0=R0,
                         R=margin * R0, channel=ch, tau0=tau0, ts=ts,
                         argmin_pair=dm.pair)


def probe_to_json(p: ProbingDesign) -> dict:
    out = {
        "mu0": p.mu0, "mu1": p.mu1, "delta_min": p.delta_min,
        "R0": p.R0, "R": p.R, "channel": p.channel,
        "channel_name": CHANNELS[p.channel],
        "tau0": p.tau0, "shape": "step",
    }
    if p.ts is not None:
        out["ts"] = p.ts
    if p.argmin_pair is not None:
        out["argmin_pair"] = list(p.argmin_pair)
    return out


def _pair(value) -> tuple[int, int]:
    pair = tuple(int(i) for i in value)
    if len(pair) != 2:
        raise ValueError(f"expected two scenario indices, got {len(pair)}")
    return pair


def probe_from_json(doc: dict, source="probe document") -> ProbingDesign:
    """The design a probe_to_json document describes. A missing key, a value
    of the wrong type or a design that fails ProbingDesign's checks is a
    ConfigError naming `source`. The only shape is 'step'; a document may
    leave it out."""
    shape = doc_value(doc, "shape", str, source, "step")
    if shape != "step":
        raise ConfigError(f"{source}: unsupported probe shape '{shape}'")
    values = {key: doc_value(doc, key, float, source)
              for key in ("mu0", "mu1", "delta_min", "R0", "R", "tau0")}
    values.update(
        channel=doc_value(doc, "channel", int, source),
        ts=doc_value(doc, "ts", float, source, None),
        argmin_pair=doc_value(doc, "argmin_pair", _pair, source, None))
    try:
        return ProbingDesign(**values)
    except DegenerateDesignError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
