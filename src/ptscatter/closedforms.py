"""
Exact amplitude formulas for the built-in model families.

For the PT-symmetric delta pair at separations 1..3 the amplitudes come out
as ratios of complex conjugates, (1 - i*t)/(1 + i*t) with real t, which makes
|R|^2 + |T|^2 = 1 an algebraic identity.  The evaluators below are used as
ground truth against the generic solvers; phase conventions follow the
solvers' boundary anchoring (unit wave incident from the left, asymptotic
forms imposed at the window edges).

Separation 1:   T = 1/(1 + i*A),  R = -i*A/(1 + i*A),
                A = x^2/(1 - x^2) * cot(phi).

Separation 2:   2R = u - v,  2T = u + v  with u, v the Cayley ratios of
                alpha = x^2*cos(2*phi)*cot(phi) / (1 - 2*x^2*cos(phi)^2),
                beta  = x^2*sin(2*phi) / (1 + x^2*cos(2*phi)).

Separation 3:   T - R = (1 + 2*x^2*e^{-3i*phi}*cos(phi))
                      / (1 + 2*x^2*e^{+3i*phi}*cos(phi)),
                T + R = -e^{-2i*phi}
                      * (1 - e^{+i*phi}*cos(phi) - x^2*e^{-2i*phi}*cos(2*phi))
                      / (1 - e^{-i*phi}*cos(phi) - x^2*e^{+2i*phi}*cos(2*phi)).

Ultralocal (block on sites [0, 1]):
                R = -a^2*e^{2i*phi} / Delta,
                T = (1 - a)*(1 - e^{2i*phi}) / Delta,
                Delta = 1 - (1 - a^2)*e^{2i*phi}.
The reflection amplitude depends on where the two-site block sits on the
chain (translating the block by d multiplies R by e^{2i*d*phi}); the e^{2i*phi}
factor above is the [0, 1] placement.  T, |R| and the probability sum are
placement-invariant.  The probability sum also has its own closed form,

    |R|^2 + |T|^2 = (1 - a*q)/(1 + a*q),  q = 1/(1 + U),
    U(a, phi) = a^4 / (2*(1 - a)*(1 - cos(2*phi))),

evaluated independently by ``cf_ultralocal_prob_sum`` and cross-checked in
the tests against the amplitude route.
"""

from __future__ import annotations

import cmath
import math

from .core import PT_PAIR, ULTRALOCAL, ModelFamily, PhiAngle, ScatteringAmplitudes
from .errors import SingularCoupling

DENOM_RTOL = 1e-14


def _cayley(t: float) -> complex:
    """(1 - i*t)/(1 + i*t): unit modulus for real t."""
    return (1.0 - 1j * t) / (1.0 + 1j * t)


def _checked(value: complex | float, scale: float, what: str) -> complex | float:
    if abs(value) <= DENOM_RTOL * scale:
        raise SingularCoupling(f"{what} vanishes at this (coupling, phi) point")
    return value


# One function per real parameter, each checking only its own denominator.
# _param_gamma feeds no evaluator: it is the independent separation-3
# difference parameter that the tests hold cf_m3 to.


def _param_a(x: float, p: float) -> float:
    den = float(_checked(1.0 - x * x, 1.0 + x * x, "1 - x^2"))
    return x * x / den * math.cos(p) / math.sin(p)


def _param_alpha(x: float, p: float) -> float:
    den = float(_checked(1.0 - 2.0 * x * x * math.cos(p) ** 2, 1.0 + x * x, "1 - 2 x^2 cos^2(phi)"))
    return x * x * math.cos(2.0 * p) * math.cos(p) / math.sin(p) / den


def _param_beta(x: float, p: float) -> float:
    den = float(_checked(1.0 + x * x * math.cos(2.0 * p), 1.0 + x * x, "1 + x^2 cos(2 phi)"))
    return x * x * math.sin(2.0 * p) / den


def _param_gamma(x: float, p: float) -> float:
    den = float(
        _checked(1.0 + 2.0 * x * x * math.cos(p) * math.cos(3.0 * p), 1.0 + x * x, "1 + 2 x^2 cos(phi) cos(3 phi)")
    )
    return 2.0 * x * x * math.cos(p) * math.sin(3.0 * p) / den


def cf_m1(x: float, phi: PhiAngle) -> ScatteringAmplitudes:
    """Delta pair at separation 1: T = 1/(1+iA), R = -iA/(1+iA)."""
    big_a = _param_a(x, phi.phi)
    one = 1.0 + 1j * big_a  # |1 + iA| >= 1 for real A
    return ScatteringAmplitudes(R=-1j * big_a / one, T=1.0 / one)


def cf_m2(x: float, phi: PhiAngle) -> ScatteringAmplitudes:
    """Delta pair at separation 2 via the sum/difference Cayley ratios."""
    u, v = _cayley(_param_alpha(x, phi.phi)), _cayley(_param_beta(x, phi.phi))
    return ScatteringAmplitudes(R=(u - v) / 2.0, T=(u + v) / 2.0)


def cf_m3(x: float, phi: PhiAngle) -> ScatteringAmplitudes:
    """Delta pair at separation 3 via the displayed sum and difference ratios."""
    p = phi.phi
    scale = 1.0 + 2.0 * x * x
    e = cmath.exp(1j * p)
    cos_p, cos_2p = math.cos(p), math.cos(2.0 * p)
    diff_den = _checked(1.0 + 2.0 * x * x * e**3 * cos_p, scale, "difference-ratio denominator")
    sum_den = _checked(1.0 - cos_p / e - x * x * e**2 * cos_2p, scale, "sum-ratio denominator")
    diff = (1.0 + 2.0 * x * x * e**-3 * cos_p) / diff_den
    total = -(e**-2) * (1.0 - e * cos_p - x * x * e**-2 * cos_2p) / sum_den
    return ScatteringAmplitudes(R=(total - diff) / 2.0, T=(total + diff) / 2.0)


def cf_ultralocal(a: float, phi: PhiAngle) -> ScatteringAmplitudes:
    """Two-site antisymmetric block on [0, 1]: R = -a^2 e^{2i phi}/Delta, T = (1-a)(1-e^{2i phi})/Delta."""
    e2 = cmath.exp(2j * phi.phi)
    delta = _checked(1.0 - (1.0 - a * a) * e2, 1.0 + a * a, "Delta = 1 - (1 - a^2) e^{2i phi}")
    return ScatteringAmplitudes(R=-a * a * e2 / delta, T=(1.0 - a) * (1.0 - e2) / delta)


def ultralocal_anomaly_u(a: float, phi: PhiAngle) -> float:
    """U(a, phi) = a^4 / (2 (1 - a) (1 - cos 2 phi)) of the probability-sum formula."""
    den = 2.0 * (1.0 - a) * (1.0 - math.cos(2.0 * phi.phi))
    if den == 0.0:
        raise SingularCoupling("anomaly denominator 2 (1 - a) (1 - cos 2 phi) vanishes")
    return a**4 / den


def cf_ultralocal_prob_sum(a: float, phi: PhiAngle) -> float:
    """|R|^2 + |T|^2 for the ultralocal block, from its own closed form."""
    if abs(1.0 - a) <= DENOM_RTOL * (1.0 + abs(a)):
        raise SingularCoupling("probability-sum formula requires a != 1")
    q = 1.0 / (1.0 + ultralocal_anomaly_u(a, phi))
    den = float(_checked(1.0 + a * q, 1.0 + abs(a * q), "1 + a/(1 + U)"))
    return (1.0 - a * q) / den


def closed_form_amplitudes(model: ModelFamily, phi: PhiAngle) -> ScatteringAmplitudes:
    """Dispatch to the closed form covering the model, if one exists."""
    if model.kind == PT_PAIR:
        forms = {1: cf_m1, 2: cf_m2, 3: cf_m3}
        if model.m_sep in forms:
            return forms[model.m_sep](model.coupling, phi)
        raise ValueError(f"no closed form at separation {model.m_sep}; use a numeric solver")
    if model.kind == ULTRALOCAL:
        return cf_ultralocal(model.coupling, phi)
    raise ValueError("no closed form for custom windows; use a numeric solver")
