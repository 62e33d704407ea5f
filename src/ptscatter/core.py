"""
Domain types for plane-wave scattering on a discrete 1D chain.

The chain Hamiltonian is a doubly infinite tridiagonal matrix with hopping -1
on both off-diagonals (zero on-site term in the default convention) plus a
finite interaction block W supported on sites [lo, hi].  With the energy
parametrized by an angle phi in (0, pi), every row of the stationary
Schroedinger equation reads

    -psi[m-1] + 2*cos(phi)*psi[m] - psi[m+1] + sum_j W[m, j]*psi[j] = 0,

so exp(+-i*m*phi) solve the free rows exactly.  Scattering states take the
asymptotic plane-wave form

    psi[m] = exp(i*m*phi) + R*exp(-i*m*phi)   for m <= lo,
    psi[m] = T*exp(i*m*phi)                   for m >= hi,

with a unit wave incident from the left.

PT symmetry combines site reflection (P: m -> -m) and complex conjugation
(T).  After embedding the block in a symmetric index range, a window is
PT-symmetric iff W[i, j] == conj(W[-i, -j]) for all i, j.  The built-in
delta-pair family is PT-symmetric by construction; the two-site "ultralocal"
block is the standard PT-asymmetric counterexample.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

PT_PAIR = "pt-pair"
ULTRALOCAL = "ultralocal"
CUSTOM = "custom"
PHI_EDGE_GUARD = 1e-8
# Widest window, in sites, that InteractionWindow accepts.  Solving stores a
# band of 3*max(1, reach) + 1 cells per site, reach being the largest |i - j|
# of an entry.  A tridiagonal window (4 cells a site) costs about 12-34 us and
# 0.7 KB per site and angle, 1.2-3.4 s and ~100 MiB at this width; cost grows
# with the cells.  So a window wider than this, or one whose band has more
# cells than a tridiagonal window at this width, is refused before anything
# is built.  So is a site further than this from the origin, where m*phi in
# floating point loses the phase between neighbouring sites of e^{i m phi}.
MAX_WINDOW_SITES = 100_000


@dataclass(frozen=True)
class PhiAngle:
    """Plane-wave angle phi, strictly inside (0, pi) and PHI_EDGE_GUARD away from both ends.

    At the endpoints the two plane waves exp(+-i*m*phi) degenerate into one,
    so angles at or near them are rejected outright.
    """

    phi: float

    def __post_init__(self) -> None:
        if not (0.0 < self.phi < math.pi):
            raise ValueError(f"phi must lie strictly inside (0, pi), got {self.phi!r}")
        if self.phi < PHI_EDGE_GUARD or self.phi > math.pi - PHI_EDGE_GUARD:
            raise ValueError(f"phi={self.phi!r} is within {PHI_EDGE_GUARD} of the band edge; plane waves degenerate there")


def energy_from_phi(phi: PhiAngle, shifted: bool = False) -> float:
    """Lattice energy (stepsize h = 1) corresponding to the angle phi.

    The default zero-diagonal kinetic term gives E = -2*cos(phi) in (-2, 2);
    ``shifted=True`` selects the variant with 2 on the diagonal, giving
    E = 2 - 2*cos(phi) in the band (0, 4).  The two differ only by a
    constant energy offset; the scattering rows are identical.
    """
    if shifted:
        return 2.0 - 2.0 * math.cos(phi.phi)
    return -2.0 * math.cos(phi.phi)


@dataclass(frozen=True)
class InteractionWindow:
    """Finite interaction block W on lattice sites [lo, hi], stored sparsely.

    ``entries`` maps site pairs (i, j) to complex values; pairs that are
    absent count as zero.  lo, hi, i and j are integers (``operator.index``,
    kept as int), so no two keys round onto one pair.  The window spans at
    most MAX_WINDOW_SITES sites, all within MAX_WINDOW_SITES of the origin,
    its band of sites * (3*max(1, reach) + 1) cells holds at most
    4 * MAX_WINDOW_SITES, and every entry must have a finite modulus, so
    ``max_abs_entry`` and the solvers' bond checks stay finite.  Entries
    equal to exactly zero are dropped on construction, so windows that
    differ only by explicit zero padding of the entry map compare equal.
    Their reach, the largest |i - j|, is kept for ``is_tridiagonal`` and
    the solvers' band; ``_memo`` keeps the row stencil, built on first use.
    """

    lo: int
    hi: int
    entries: Mapping[tuple[int, int], complex] = field(default_factory=dict)
    _reach: int = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            lo, hi = operator.index(self.lo), operator.index(self.hi)
        except TypeError:
            raise ValueError(f"window bounds must be integers, got lo={self.lo!r}, hi={self.hi!r}") from None
        if lo > hi:
            raise ValueError(f"window bounds out of order: lo={lo} > hi={hi}")
        sites = hi - lo + 1
        if sites > MAX_WINDOW_SITES:
            raise ValueError(f"window [{lo}, {hi}] spans {sites} sites; at most {MAX_WINDOW_SITES} are allowed")
        if max(abs(lo), abs(hi)) > MAX_WINDOW_SITES:
            raise ValueError(f"window [{lo}, {hi}] has a site beyond {MAX_WINDOW_SITES} of the origin")
        cleaned: dict[tuple[int, int], complex] = {}
        for (i, j), value in self.entries.items():
            try:
                i, j = operator.index(i), operator.index(j)
            except TypeError:
                raise ValueError(f"entry ({i!r}, {j!r}) must have integer indices") from None
            if not (lo <= i <= hi and lo <= j <= hi):
                raise ValueError(f"entry ({i}, {j}) outside window [{lo}, {hi}]")
            value = complex(value)
            if not math.isfinite(math.hypot(value.real, value.imag)):
                raise ValueError(f"entry ({i}, {j}) = {value} must have a finite modulus")
            if value != 0:
                cleaned[(i, j)] = value
        reach = max((abs(i - j) for i, j in cleaned), default=0)
        cells = sites * (3 * max(1, reach) + 1)
        if cells > 4 * MAX_WINDOW_SITES:
            raise ValueError(
                f"window [{lo}, {hi}] has reach {reach}: its band of {cells} cells exceeds "
                f"the {4 * MAX_WINDOW_SITES} of a tridiagonal window {MAX_WINDOW_SITES} sites wide"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_reach", reach)
        object.__setattr__(self, "_memo", {})

    def entry(self, i: int, j: int) -> complex:
        return self.entries.get((i, j), 0j)

    def row(self, i: int) -> tuple[tuple[int, complex], ...]:
        """Nonzero entries (j, W[i, j]) of row i, in entry order; a scan of every entry."""
        return tuple((j, value) for (r, j), value in self.entries.items() if r == i)

    def max_abs_entry(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def is_tridiagonal(self) -> bool:
        return self._reach <= 1


def build_pt_delta_pair(m_sep: int, x: float) -> InteractionWindow:
    """PT-symmetric pair of point couplings at separation m_sep >= 1.

    The window spans [-m_sep, m_sep] and carries exactly four off-diagonal
    entries, antisymmetric across each bond and mirror-matched across the
    origin:

        W[1-M, -M] = W[M-1, M] = x,      W[-M, 1-M] = W[M, M-1] = -x.

    At |x| = 1 one total coupling -1 + x (or -1 - x) of the full chain
    vanishes; the window still builds but the solvers reject it as singular.
    """
    if m_sep < 1:
        raise ValueError(f"separation must be a positive integer, got {m_sep!r}")
    x = float(x)
    return InteractionWindow(
        lo=-m_sep,
        hi=m_sep,
        entries={
            (1 - m_sep, -m_sep): x,
            (m_sep - 1, m_sep): x,
            (-m_sep, 1 - m_sep): -x,
            (m_sep, m_sep - 1): -x,
        },
    )


def build_ultralocal(a: float) -> InteractionWindow:
    """Two-site antisymmetric block on sites [0, 1]: W[0, 1] = -a, W[1, 0] = a.

    Not PT-symmetric for a != 0; its scattering violates probability
    conservation with a sign set by the coupling.
    """
    a = float(a)
    return InteractionWindow(lo=0, hi=1, entries={(0, 1): -a, (1, 0): a})


def _finite_coupling(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"coupling must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelFamily:
    """One model point, built by one of the three constructors below.

    ``m_sep`` is the pt-pair separation (0 for ultralocal and custom models);
    ``coupling`` is x or a (nan for custom models).  Only ``custom_window``
    sets ``custom``; the other two build their window on demand.
    """

    kind: str
    m_sep: int
    coupling: float
    custom: InteractionWindow | None = None

    @classmethod
    def pt_delta_pair(cls, m_sep: int, x: float) -> ModelFamily:
        if m_sep < 1:
            raise ValueError(f"separation must be a positive integer, got {m_sep!r}")
        # Checked here rather than when the window is built, so a sweep or a
        # verify run past the cap fails before it solves anything.
        if 2 * m_sep + 1 > MAX_WINDOW_SITES:
            raise ValueError(f"separation {m_sep} spans {2 * m_sep + 1} sites; at most {MAX_WINDOW_SITES} are allowed")
        return cls(PT_PAIR, m_sep, _finite_coupling(x))

    @classmethod
    def ultralocal(cls, a: float) -> ModelFamily:
        return cls(ULTRALOCAL, 0, _finite_coupling(a))

    @classmethod
    def custom_window(cls, window: InteractionWindow) -> ModelFamily:
        return cls(CUSTOM, 0, math.nan, window)

    @property
    def x(self) -> float:
        """Read-only alias of ``coupling`` for pt-pair models."""
        return self.coupling

    @property
    def a(self) -> float:
        """Read-only alias of ``coupling`` for ultralocal models."""
        return self.coupling

    def window(self) -> InteractionWindow:
        if self.custom is not None:
            return self.custom
        if self.kind == PT_PAIR:
            return build_pt_delta_pair(self.m_sep, self.coupling)
        return build_ultralocal(self.coupling)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Reflection/transmission amplitudes of the left-incidence solution."""

    R: complex
    T: complex

    @property
    def prob_reflected(self) -> float:
        return abs(self.R) ** 2

    @property
    def prob_transmitted(self) -> float:
        return abs(self.T) ** 2

    @property
    def prob_sum(self) -> float:
        """|R|^2 + |T|^2; equals 1 for probability-conserving scattering."""
        return abs(self.R) ** 2 + abs(self.T) ** 2

    @property
    def defect(self) -> float:
        """prob_sum - 1 (the unitarity defect)."""
        return self.prob_sum - 1.0


def pt_conjugate(win: InteractionWindow) -> InteractionWindow:
    """Image of the window under PT: entry (i, j) -> conj at (-i, -j).

    Applied twice this is the identity on the symmetric embedding, since the
    antidiagonal reflection squares to one and conjugation is an involution.
    """
    n = max(abs(win.lo), abs(win.hi))
    mirrored = {(-i, -j): value.conjugate() for (i, j), value in win.entries.items()}
    return InteractionWindow(lo=-n, hi=n, entries=mirrored)


def first_pt_violation(win: InteractionWindow) -> tuple[tuple[int, int], complex, complex] | None:
    """First entry (in sorted index order) breaking W[i, j] == conj(W[-i, -j]).

    Returns ((i, j), W[i, j], conj(W[-i, -j])) or None when the window is
    PT-symmetric.  Scanning the stored support suffices: the condition at
    (i, j) and at (-i, -j) are conjugates of each other, so any violating
    pair has at least one member in the support.
    """
    for i, j in sorted(win.entries):
        value = win.entries[(i, j)]
        mirror = win.entry(-i, -j).conjugate()
        if value != mirror:
            return (i, j), value, mirror
    return None


def is_pt_symmetric(win: InteractionWindow) -> bool:
    """Whether the symmetrically embedded window commutes with PT."""
    return first_pt_violation(win) is None


def plane_wave(m: int, phi: float) -> complex:
    """exp(i*m*phi)."""
    return cmath.exp(1j * m * phi)
