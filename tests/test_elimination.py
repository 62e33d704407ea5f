"""The band-limited elimination against the dense Gaussian elimination it replaced.

``dense_reference`` is the full-matrix elimination with scaled partial
pivoting that ran before the elimination was limited to the band.
``band_solve`` packs dense test systems into the band store and calls the
kernel, ``_eliminate``, directly.  The kernel must give the reference's
SingularSystem messages verbatim and its solutions to within rounding (the
two back-substitutions sum in different orders), one system at a time and
in stacks that share a band.  The sweep and memory tests check the angle
stacks built on that kernel.
"""

import math
import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter import (
    InteractionWindow,
    ModelFamily,
    PhiAngle,
    SingularSystem,
    SweepSpec,
    build_matching_system,
    run_sweep,
    solve_matching,
    solve_matching_stack,
)
from ptscatter.solver import PIVOT_RTOL, _eliminate


def dense_reference(matrix, rhs):
    """Gaussian elimination with scaled partial pivoting over the full matrix."""
    a = np.array(matrix, dtype=complex)
    b = np.array(rhs, dtype=complex)
    n = b.size
    scale = np.max(np.abs(a), axis=1)
    if np.min(scale) == 0.0:
        raise SingularSystem("matching matrix has an identically zero row")
    for k in range(n):
        rel = np.abs(a[k:, k]) / scale[k:]
        p = int(np.argmax(rel)) + k
        if rel[p - k] < PIVOT_RTOL:
            raise SingularSystem(
                f"pivot magnitude {abs(a[p, k]):.3e} below {PIVOT_RTOL:g} of row scale in column {k}"
            )
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
            scale[[k, p]] = scale[[p, k]]
        if k + 1 < n:
            mult = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
            b[k + 1 :] -= mult * b[k]
    x = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - np.dot(a[k, k + 1 :], x[k + 1 :])) / a[k, k]
    return x


def band_solve(systems, lower, upper):
    """``_eliminate`` on dense systems (A, b) of one size, every A zero outside -lower <= c - r <= upper.

    Row r of the band store holds A[r, c] at slot c - r + lower.
    """
    n = len(systems[0][1])
    band = np.zeros((len(systems), n, 2 * lower + upper + 1), dtype=complex)
    for p, (a, _) in enumerate(systems):
        for r in range(n):
            first, end = max(r - lower, 0), min(r + upper + 1, n)
            band[p, r, first - r + lower : end - r + lower] = a[r, first:end]
    return _eliminate(band, np.array([b for _, b in systems], dtype=complex), lower, upper)


def solve_dense(matrix, rhs):
    """One system through ``band_solve``, its band read off the nonzero entries; raises its failure."""
    a = np.asarray(matrix, dtype=complex)
    rows, cols = np.nonzero(a)
    x, failures = band_solve([(a, rhs)], int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0)))
    if failures:
        raise failures[0]
    return x[0]


def reference_outcome(matrix, rhs):
    try:
        return dense_reference(matrix, rhs)
    except SingularSystem as exc:
        return str(exc)


def assert_same_outcome(got, expected, matrix):
    """The same failure message, or solutions equal to rounding amplified by the condition of ``matrix``."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    tol = 1e-13 * np.linalg.cond(matrix) * np.abs(expected).max()
    assert np.abs(got - expected).max() <= tol


def banded_system(rng, n, lower, upper, singular=None):
    """Random complex system of size n, zero outside -lower <= c - r <= upper.

    ``singular`` zeroes one column ("column") or one row ("row") inside the
    band, so the elimination must fail on a pivot or on the zero row.
    """
    rows, cols = np.indices((n, n))
    magnitude = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * magnitude
    a[(cols - rows > upper) | (rows - cols > lower)] = 0.0
    if singular == "column":
        a[:, rng.integers(n)] = 0.0
    elif singular == "row":
        a[rng.integers(n)] = 0.0
    return a, rng.normal(size=n) + 1j * rng.normal(size=n)


@st.composite
def stacks(draw):
    """(n, lower, upper, systems) for a stack sharing one band, banded or dense."""
    n = draw(st.integers(min_value=1, max_value=24))
    if draw(st.booleans()):
        lower = upper = n - 1
    else:
        lower = min(draw(st.integers(min_value=1, max_value=3)), n - 1)
        upper = min(draw(st.integers(min_value=1, max_value=3)), n - 1)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from([None, None, None, "column", "row"]), min_size=1, max_size=5))
    return n, lower, upper, [banded_system(rng, n, lower, upper, kind) for kind in kinds]


KERNEL_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@KERNEL_SETTINGS
@given(stacks())
def test_single_systems_match_the_dense_elimination(case):
    _, _, _, systems = case
    for a, b in systems:
        try:
            got = solve_dense(a, b)
        except SingularSystem as exc:
            got = str(exc)
        assert_same_outcome(got, reference_outcome(a, b), a)


@KERNEL_SETTINGS
@given(stacks())
def test_stacks_match_the_dense_elimination(case):
    _, lower, upper, systems = case
    x, failures = band_solve(systems, lower, upper)
    for p, (a, b) in enumerate(systems):
        assert_same_outcome(str(failures[p]) if p in failures else x[p], reference_outcome(a, b), a)


def test_a_singular_member_fails_alone_and_quietly():
    rng = np.random.default_rng(7)
    n, lower, upper = 12, 2, 1
    systems = [banded_system(rng, n, lower, upper) for _ in range(5)]
    systems.insert(2, banded_system(rng, n, lower, upper, "column"))
    expected = [reference_outcome(a, b) for a, b in systems]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, failures = band_solve(systems, lower, upper)
    assert list(failures) == [2]
    assert str(failures[2]) == expected[2]
    for p in (0, 1, 3, 4, 5):
        assert_same_outcome(x[p], expected[p], systems[p][0])


def test_angle_chunks_match_the_dense_elimination():
    """A full-width window splits its angles into chunks; each angle solves as the dense elimination does."""
    entries = {(i, i): 0.1 * (-1) ** i for i in range(40)}
    entries.update({(0, 39): 0.2, (39, 0): -0.2j, (5, 17): 0.3 + 0.1j})
    win = InteractionWindow(lo=0, hi=39, entries=entries)
    phis = tuple(PhiAngle(0.2 + 0.045 * k) for k in range(60))
    reports = list(solve_matching_stack((win, phi) for phi in phis))
    assert len(reports) == len(phis)
    for phi, report in zip(phis, reports):
        a, b = build_matching_system(win, phi)
        assert_same_outcome(report.psi[2:-2], dense_reference(a, b), a)


def test_sweep_matches_one_solve_per_point():
    models = [ModelFamily.pt_delta_pair(m, x) for m in (1, 2, 3, 8) for x in (-1.0, -0.5, 0.0, 0.7, 1.0)]
    models.append(ModelFamily.ultralocal(1.0))
    phis = tuple(PhiAngle(0.1 + 0.23 * k) for k in range(13))
    table = run_sweep(SweepSpec(models=models, phis=phis, solvers=("matching",)))

    rows, errors = [], []
    for model in models:
        win = model.window()
        coupling = model.coupling
        for phi in phis:
            try:
                report = solve_matching(win, phi)
            except SingularSystem as exc:
                errors.append((model.kind, model.m_sep, coupling, phi.phi, f"{type(exc).__name__}: {exc}"))
                continue
            amps = report.amplitudes
            rows.append((model.kind, model.m_sep, coupling, phi.phi, repr(amps.R), repr(amps.T), report.residual_max))
    assert errors and rows
    assert [(r.model, r.m_sep, r.coupling, r.phi, repr(r.amplitudes.R), repr(r.amplitudes.T), r.residual)
            for r in table.rows] == rows
    assert [(e.model, e.m_sep, e.coupling, e.phi, e.reason) for e in table.errors] == errors


# The angle batches must not hold every angle's full matrix at once: that
# dense stack would need 65 MB for the first case and 51 MB for the second.
PEAK_LIMIT = 16 * 2**20


def _traced_peak(spec):
    tracemalloc.start()
    try:
        table = run_sweep(spec)
        return tracemalloc.get_traced_memory()[1], table
    finally:
        tracemalloc.stop()


def test_wide_pair_sweep_memory():
    phis = tuple(PhiAngle(0.1 + 0.029 * k) for k in range(101))
    peak, table = _traced_peak(SweepSpec(models=[ModelFamily.pt_delta_pair(100, 0.3)], phis=phis))
    assert len(table.rows) == 101
    assert peak < PEAK_LIMIT


def test_full_width_window_sweep_memory():
    """40 sites whose corner entries make the band full width, so every angle's system is dense."""
    entries = {(i, i): 0.1 for i in range(40)}
    entries.update({(0, 39): 0.2, (39, 0): -0.2j})
    win = InteractionWindow(lo=0, hi=39, entries=entries)
    phis = tuple(PhiAngle(0.05 + (math.pi - 0.1) * k / 1999) for k in range(2000))
    peak, table = _traced_peak(SweepSpec(models=[ModelFamily.custom_window(win)], phis=phis))
    assert len(table.rows) == 2000
    assert peak < PEAK_LIMIT
