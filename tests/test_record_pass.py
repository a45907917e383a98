"""The field's stacked record pass against the per-record loop it replaced.

``oracle_integrate`` is the former record loop of :func:`fieldsim.integrate_field`:
it evaluates each record on its own state as the loop reaches it, with the
field-equation residuals built from per-state lightcone fields.  The stacked
pass must give the same rows, failure text and step count.
"""

from functools import lru_cache

import numpy as np
import pytest

from pltdual import fieldsim as fs
from pltdual.duality import GraphBlowupError, splitting
from pltdual.groups import FactorizationError, GroupKit
from pltdual.liecore import bracket_coeffs
from pltdual.models import make_preset


@lru_cache(maxsize=None)
def kit_and_split(algebra):
    preset = make_preset("modified-principal", algebra=algebra)
    return GroupKit(preset.bialgebra), splitting(preset)


def oracle_eom_residuals(state0, state1):
    """Both field-equation residuals from the lightcone fields of each time
    level on its own."""
    dt = state1.time - state0.time
    dx, bd = state0.dx, state0.boundary
    interior = slice(2, -2) if bd == "double-neumann" else slice(None)

    def residual(fields0, fields1, c_rhs):
        (a0, b0), (a1, b1) = fields0, fields1
        a_mid, b_mid = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        da_t, db_t = (a1 - a0) / dt, (b1 - b0) / dt
        da_x = 0.5 * (fs._x_derivative(a0, dx, bd, order=2) + fs._x_derivative(a1, dx, bd, order=2))
        db_x = 0.5 * (fs._x_derivative(b0, dx, bd, order=2) + fs._x_derivative(b1, dx, bd, order=2))
        lhs = 0.5 * (db_t - db_x) - 0.5 * (da_t + da_x)
        rhs = bracket_coeffs(c_rhs, a_mid, b_mid)
        return float(np.abs((lhs - rhs)[interior]).max())

    bialgebra = state0.split.preset.bialgebra
    return (
        residual(fs._primal_lightcone_fields(state0), fs._primal_lightcone_fields(state1),
                 bialgebra.m.c),
        residual(fs._dual_lightcone_fields(state0), fs._dual_lightcone_fields(state1),
                 bialgebra.g.c),
    )


def oracle_integrate(state, dt, n_steps, record_every=1, diagnostics=False):
    """The rows (t, H, moments, f_d, gap, res_g, res_dual), failure, steps
    and last recorded state of the per-record loop."""
    columns = [], [], [], [], [], [], []
    final_state = failure = None

    def record(s, prev_state):
        nonlocal final_state
        row = [s.time, fs.total_hamiltonian(s), fs.moment_map_basis(s), fs.loop_functions(s)[1]]
        row.append(fs.duality_check(s) if diagnostics else np.nan)
        row.extend(oracle_eom_residuals(prev_state, s) if diagnostics and prev_state is not None
                   else (np.nan, np.nan))
        for column, value in zip(columns, row):
            column.append(value)
        final_state = s

    where = f"at step 0 (t={state.time:g})"
    taken = 0
    try:
        record(state, None)
        for i in range(n_steps):
            where = f"at step {i + 1} (t={state.time + dt:g})"
            prev = state
            with np.errstate(all="ignore"):
                state = fs.step(state, dt)
            if not np.isfinite(state.k).all():
                failure = f"non-finite state {where}"
                break
            if (i + 1) % record_every == 0 or i == n_steps - 1:
                # a planted overflow reaches the diagnostics, which the
                # record pass evaluates without warnings as well
                with np.errstate(all="ignore"):
                    record(state, prev)
            taken = i + 1
    except (FactorizationError, GraphBlowupError, np.linalg.LinAlgError) as exc:
        failure = f"{type(exc).__name__} {where}: {exc}"
    return [np.array(c) for c in columns], failure, taken, final_state


def trajectory_columns(traj):
    return [traj.times, traj.hamiltonians, traj.moments, traj.f_d, traj.duality_gaps,
            traj.eom_residuals_g, traj.eom_residuals_dual]


def assert_matches_oracle(state, dt, n_steps, record_every, diagnostics=True):
    want, failure, taken, final_state = oracle_integrate(state, dt, n_steps, record_every,
                                                         diagnostics)
    traj = fs.integrate_field(state, dt, n_steps, record_every, diagnostics)
    assert traj.failure == failure
    assert traj.completed is (failure is None)
    assert traj.steps == taken
    got = trajectory_columns(traj)
    assert [len(c) for c in got] == [len(c) for c in want]
    if final_state is None:
        assert traj.final_state is None
        return
    assert np.array_equal(traj.final_state.k, final_state.k)
    assert traj.final_state.time == final_state.time
    # the times, H, moments and f_d come from the same arithmetic on each
    # record, to the bit; the gap and the residuals pass through
    # factorizations whose 2x2 products take another kernel on a stack than
    # on one small state (groups._vmul), which moves them by roundoff: each
    # residual by at most 1e-11 of its column's largest entry (3e-12 is
    # met near the chart exit below, where the graph maps are ill
    # conditioned; 1e-13 on the smooth runs), and the gap, itself a
    # roundoff figure, by at most the oracle's largest gap
    for g, w in zip(got[:4], want[:4]):
        assert np.array_equal(g, w)
    if not diagnostics:
        assert all(np.isnan(c).all() for c in got[4:])
        return
    gap, res_g, res_t = want[4:]
    assert np.abs(got[4] - gap).max() <= gap.max()
    for g, w in ((got[5], res_g), (got[6], res_t)):
        assert np.array_equal(np.isnan(g), np.isnan(w))
        if np.isfinite(w).any():
            assert np.nanmax(np.abs(g - w)) <= 1e-11 * np.nanmax(np.abs(w))


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("n_cells", [15, 16])
@pytest.mark.parametrize("boundary", ["periodic", "double-neumann"])
@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_stacked_pass_matches_per_record_loop(algebra, boundary, n_cells, record_every):
    kit, split = kit_and_split(algebra)
    state = fs.random_smooth_loop(kit, split, n_cells, boundary=boundary, seed=5, amplitude=0.3)
    # 10 steps: with record_every 3 the last record follows a record, so
    # its step before is shared as well
    assert_matches_oracle(state, 0.25 * state.dx, 10, record_every)


def test_stacked_pass_without_diagnostics_matches_per_record_loop():
    kit, split = kit_and_split("su2")
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=5, amplitude=0.3)
    assert_matches_oracle(state, 0.25 * state.dx, 10, 3, diagnostics=False)


def test_run_spanning_several_passes_matches_per_record_loop(monkeypatch):
    """Records split over several passes (the step before the first
    record of a pass was stacked in the pass before)."""
    monkeypatch.setattr(fs, "_PASS_NODES", 5 * 16)
    kit, split = kit_and_split("sl2r")
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=2, amplitude=0.3)
    for record_every in (1, 2):
        assert_matches_oracle(state, 0.25 * state.dx, 12, record_every)


def test_chart_exit_before_later_nonfinite_state_wins():
    """This sl2r run turns non-finite at step 43, and its record at step 40
    leaves the chart, in the same pass.  With diagnostics the chart exit,
    the earlier stop, is reported, with the rows before it and its step
    count, as the per-record loop, which never reaches step 43, reports it."""
    kit, split = kit_and_split("sl2r")
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=0, amplitude=1.6)
    no_diag = fs.integrate_field(state, 0.01, 80, record_every=4)
    assert no_diag.failure == "non-finite state at step 43 (t=0.43)" and no_diag.steps == 42
    assert_matches_oracle(state, 0.01, 80, 4)
    traj = fs.integrate_field(state, 0.01, 80, record_every=4, diagnostics=True)
    assert traj.failure.startswith("FactorizationError at step 40 (t=0.4): ")
    assert len(traj.times) == 10 and traj.steps == 39


def test_chart_exit_at_t0():
    kit, split = kit_and_split("sl2r")
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=3, amplitude=1.8)
    assert_matches_oracle(state, 0.01, 80, 4)
    traj = fs.integrate_field(state, 0.01, 80, record_every=4, diagnostics=True)
    assert traj.failure.startswith("FactorizationError at step 0 (t=0): ")
    assert len(traj.times) == 0 and traj.steps == 0 and traj.final_state is None


# k_R^-1 k_L = J, or k_R k_L^-1 = J, has a zero pivot in G.M, or in M.G
J = np.array([[0.0, 1.0], [-1.0, 0.0]])
DEFECTS = {"gm pivot": lambda kl, kr: (kr @ J, kr), "mg pivot": lambda kl, kr: (kl, J @ kl),
           "det drift": lambda kl, kr: (1.05 * kl, kr),
           # a det drift whose factors give an exactly singular graph map's lower block
           "singular side": lambda kl, kr: (np.diag([1.0, 0.0]), kr),
           # det 1 on both sides and every factorization check passes, but
           # Ad_u overflows, so the graph map has a non-finite node
           "overflow": lambda kl, kr: (np.diag([1e200, 1e-200]),) * 2}


@pytest.mark.parametrize("record_every, plants", [
    # the record fails G.M, the step before it fails an earlier check of G.M
    (3, {3: (5, "gm pivot"), 2: (2, "det drift")}),
    # the record fails M.G, the step before it G.M
    (3, {3: (5, "mg pivot"), 2: (2, "gm pivot")}),
    # a later record of the pass fails an earlier check than the first one
    (1, {2: (5, "mg pivot"), 4: (2, "det drift")}),
    # no later stacked call of the pass may raise for a failing node
    (1, {4: (3, "singular side")}),
    # a non-finite graph map fails as a graph blow-up, collected or not
    (1, {4: (3, "overflow")}),
], ids=["record-before-step", "orders", "later-record", "singular-side", "overflow"])
@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_chart_exit_meets_the_checks_in_the_order_of_its_record(monkeypatch, algebra,
                                                                 record_every, plants):
    """A stopped pass names the error that the first failing record, and
    the step before it, met evaluated on their own: ``plants`` writes a
    defect into one node of the state of each listed step."""
    kit, split = kit_and_split(algebra)
    state = fs.random_smooth_loop(kit, split, 16, boundary="periodic", seed=5, amplitude=0.3)
    dt = 0.25 * state.dx
    step = fs.step

    def planted(s, h):
        new = step(s, h)
        if (plant := plants.get(round(new.time / dt))) is not None:
            node, defect = plant
            new.k[node] = DEFECTS[defect](*new.k[node])
        return new

    monkeypatch.setattr(fs, "step", planted)
    assert_matches_oracle(state, dt, 8, record_every)


@pytest.mark.parametrize("boundary", ["periodic", "double-neumann"])
@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_diagnostics_of_a_stack_are_those_of_its_loops(algebra, boundary):
    """A LoopState holding a stack of loops on a leading axis gives, per
    loop, what each diagnostic gives that loop alone (24 cells, where a
    loop and a stack take the same 2x2 product kernel, so to the bit)."""
    kit, split = kit_and_split(algebra)
    state = fs.random_smooth_loop(kit, split, 24, boundary=boundary, seed=7, amplitude=0.3)
    loops = [state]
    for _ in range(3):
        loops.append(fs.step(loops[-1], 0.25 * state.dx))
    stack = fs.LoopState(kit, split, np.stack([s.k for s in loops]), boundary,
                         np.array([s.time for s in loops]))
    assert stack.n_nodes == state.n_nodes and stack.kl.shape == (4, state.n_nodes, 2, 2)
    for name in ("total_hamiltonian", "moment_map_basis", "duality_check",
                 "dressing_relation_residual"):
        fn = getattr(fs, name)
        assert np.array_equal(fn(stack), np.array([fn(s) for s in loops])), name
    f_v, f_d = fs.loop_functions(stack)
    assert np.array_equal(f_d, [fs.loop_functions(s)[1] for s in loops])
    pairs = fs.eom_residuals(fs.LoopState(kit, split, stack.k[:-1], boundary, stack.time[:-1]),
                             fs.LoopState(kit, split, stack.k[1:], boundary, stack.time[1:]))
    assert np.array_equal(np.transpose(pairs),
                          [fs.eom_residuals(a, b) for a, b in zip(loops, loops[1:])])
    for f, axis in ((stack.k, -4), (stack.gm_factors[0], -3), (stack.tangent, -2)):
        for order in (2, 4):
            got = fs._x_derivative(f, state.dx, boundary, order, axis=axis)
            assert np.array_equal(got, [fs._x_derivative(g, state.dx, boundary, order) for g in f])
