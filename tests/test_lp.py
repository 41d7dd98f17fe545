"""Simplex: certificates, duals, the pivot rule and its Bland fallback,
the float proposal pass, the pivot hook, pinned pivot paths and the
sparse tableau's invariants.

Optimal objectives are cross-checked against brute-force vertex
enumeration (helpers.brute_force_best), which shares no code with the
solver, the float pass against the exact simplex, and the integer
certificate checks against plain-Fraction ones (helpers.reference_*)."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from auctionlp.lp import (
    MAX,
    MIN,
    CertificateError,
    LpCertificate,
    dual_of,
    make_lp,
    recheck_certificate,
    solve,
)
from auctionlp.analysis import tight_downward_dual
from auctionlp import auction
from auctionlp.auction import build_blp, build_dslp, build_dual_blp, build_dual_dslp
from auctionlp.errors import NotOptimal
from auctionlp.lp import simplex
from auctionlp.lp.program import certify_optimal
from auctionlp.lp.simplex import _NO_PROPOSAL, _Simplex
from auctionlp.oracles import gen_instance
from helpers import assert_frozen, brute_force_best, ds_optimum, reference_optimal_check

F = Fraction


def lp_of(sense, c, dense_rows, b):
    rows = [
        [(j, F(q)) for j, q in enumerate(row) if q] for row in dense_rows
    ]
    return make_lp(sense, [F(q) for q in c], rows, [F(q) for q in b])


# -- construction -----------------------------------------------------------


def test_make_lp_rejects_malformed():
    with pytest.raises(ValueError):
        make_lp("maximize", [F(1)], [], [])
    with pytest.raises(ValueError):
        make_lp(MAX, [F(1)], [[(0, F(1)), (0, F(2))]], [F(1)])
    with pytest.raises(ValueError):
        make_lp(MAX, [F(1)], [[(3, F(1))]], [F(1)])
    with pytest.raises(ValueError):
        make_lp(MAX, [F(1)], [[(0, F(1))]], [F(1), F(2)])


def test_make_lp_drops_zero_coefficients():
    lp = lp_of(MAX, [1], [[0]], [5])
    assert lp.rows == ((),)


def test_make_lp_names_the_first_bad_column():
    c, b = [F(1), F(1)], [F(1), F(1)]
    clean = [(0, F(1)), (1, F(2))]
    with pytest.raises(ValueError, match=r"^column index -1 out of range$"):
        make_lp(MAX, c, [clean, [(-1, F(1))]], b)
    with pytest.raises(ValueError, match=r"^column index 5 out of range$"):
        make_lp(MAX, c, [clean, [(0, F(1)), (5, F(1)), (7, F(1))]], b)
    with pytest.raises(ValueError, match=r"^duplicate column 1 within a row$"):
        make_lp(MAX, c, [clean, [(1, F(1)), (0, F(2)), (1, F(3))]], b)
    # the same column in two rows is no duplicate
    assert make_lp(MAX, c, [clean, clean], b).rows == (tuple(clean), tuple(clean))


def test_make_lp_converts_numbers_and_drops_zeros():
    c, b = [1, F(1, 2)], [F(1), 2, F(3), F(4), F(5)]
    rows = [
        [(0, 2), (1, 3)],  # int coefficients
        [(0, F(1, 3)), (1, -4)],  # mixed int and Fraction
        [(0, F(0)), (1, F(5, 2))],  # a zero among Fractions
        [(0, F(0)), (1, 0)],  # nothing left
        [[1, F(7)]],  # a pair given as a list
    ]
    lp = make_lp(MAX, c, rows, b)
    assert lp.rows == (
        ((0, F(2)), (1, F(3))),
        ((0, F(1, 3)), (1, F(-4))),
        ((1, F(5, 2)),),
        (),
        ((1, F(7)),),
    )
    assert all(type(entry) is tuple for row in lp.rows for entry in row)
    assert all(type(q) is F for row in lp.rows for _, q in row)
    assert all(type(q) is F for q in lp.c + lp.b)
    assert lp.c == (F(1), F(1, 2)) and lp.b == (F(1), F(2), F(3), F(4), F(5))


# -- basic solves -----------------------------------------------------------


def test_single_bound():
    cert = solve(lp_of(MAX, [1], [[1]], [5]))
    assert cert.objective == 5
    assert cert.primal == (5,)
    assert cert.dual == (1,)


def test_min_sense_with_negative_rhs():
    # min x0 + x1 subject to x0 + x1 >= 2, written as -x0 - x1 <= -2
    cert = solve(lp_of(MIN, [1, 1], [[-1, -1]], [-2]))
    assert cert.objective == 2


def test_degenerate_rows():
    cert = solve(lp_of(MAX, [1, 0], [[1, 0], [1, 0], [1, 1]], [1, 1, 1]))
    assert cert.objective == 1


def test_unbounded():
    with pytest.raises(NotOptimal, match="^exact simplex: phase two ends unbounded$"):
        solve(lp_of(MAX, [1, 1], [[1, -1]], [1]))


def test_infeasible():
    with pytest.raises(NotOptimal, match="^exact simplex: phase one ends infeasible$"):
        solve(lp_of(MAX, [1], [[1], [-1]], [-3, 2]))


def test_zero_objective():
    cert = solve(lp_of(MAX, [0, 0], [[1, 1]], [4]))
    assert cert.objective == 0


# -- endings without an optimum ---------------------------------------------

_ITERATE = _Simplex._iterate


def ray_in_phase_one(run, obj, negative, phase_one=False):
    """_Simplex._iterate, except that phase one ends on a ray."""
    return 0 if phase_one else _ITERATE(run, obj, negative)


def strip_artificial_rows(run):
    """In place of phase one: leave every artificial basic and delete
    the rest of its row, so that nothing is left to pivot it out on."""
    art_lo = run.S + run.R
    for r, col in enumerate(run.basis):
        if col >= art_lo:
            for k in [k for k in run.T[r] if k < art_lo]:
                del run.T[r][k]
                run.cols[k].discard(r)


def refuse_mechanism(instance, mechanism, slacks):
    """In place of the model acceptor's primal check: every mechanism is
    infeasible, so the exact check rejects every vertex."""
    return False


# min x0 + x1 subject to x0 + x1 >= 2: one artificial, so phase one runs
PHASE_ONE_LP = lp_of(MIN, [1, 1], [[-1, -1]], [-2])
# an auction primal, and the model acceptor solve_form hands it to
ACCEPTED_ON_MODEL = gen_instance({"n": 2, "m": 1, "support": 2}, 1)
ACCEPTED_LAYOUT = auction._layout(ACCEPTED_ON_MODEL, auction.DS)

# (program, acceptor, (owner, name, replacement) patches, the ending's message)
NO_OPTIMUM = {
    "infeasible": (
        lp_of(MAX, [1], [[1], [-1]], [-3, 2]), certify_optimal, (), "phase one ends infeasible"
    ),
    "unbounded": (
        lp_of(MAX, [1, 1], [[1, -1]], [1]), certify_optimal, (), "phase two ends unbounded"
    ),
    "phase-one-ray": (
        PHASE_ONE_LP,
        certify_optimal,
        ((_Simplex, "_iterate", ray_in_phase_one),),
        "phase one claims unbounded",
    ),
    "artificial-row": (
        PHASE_ONE_LP,
        certify_optimal,
        ((_Simplex, "_phase_one", strip_artificial_rows),),
        "tableau row 0 has no entry left of the artificials",
    ),
    "vertex-refused": (
        build_dslp(ACCEPTED_ON_MODEL),
        partial(auction._accept, ACCEPTED_ON_MODEL, ACCEPTED_LAYOUT),
        ((auction, "mechanism_feasible", refuse_mechanism),),
        "its vertex fails the exact check: mechanism violates feasibility",
    ),
}


@pytest.mark.parametrize(
    "lp,accept,patches,ending", NO_OPTIMUM.values(), ids=list(NO_OPTIMUM)
)
def test_every_ending_without_an_optimum_is_not_optimal(
    monkeypatch, lp, accept, patches, ending
):
    # the float pass hands the program on; the exact pass, and so solve,
    # refuses it with NotOptimal, never with a ScaleLimit or a
    # CertificateError (an invalid input)
    for owner, name, replacement in patches:
        monkeypatch.setattr(owner, name, replacement)
    with pytest.raises(_NO_PROPOSAL, match=f"^float pass: {ending}$"):
        _Simplex(lp, accept, floating=True).run()
    for run in (_Simplex(lp, accept).run, partial(solve, lp, accept)):
        with pytest.raises(NotOptimal, match=f"^exact simplex: {ending}$"):
            run()


# -- certificates -----------------------------------------------------------


def test_recheck_accepts_and_tamper_detected():
    lp = lp_of(MAX, [2, 3], [[1, 1], [1, 3]], [4, 6])
    cert = solve(lp)
    recheck_certificate(lp, cert)
    forged = LpCertificate(cert.primal, cert.dual, cert.objective + 1)
    with pytest.raises(CertificateError):
        recheck_certificate(lp, forged)


# -- symbolic dual ----------------------------------------------------------


def test_dual_of_round_trip():
    lp = lp_of(MAX, [2, -3], [[1, 1], [-1, 2]], [4, -1])
    assert dual_of(dual_of(lp)) == lp
    assert dual_of(lp).sense == MIN
    assert (dual_of(lp).nrows, dual_of(lp).ncols) == (lp.ncols, lp.nrows)


def test_dual_objective_matches_primal():
    lp = lp_of(MAX, [2, 3], [[1, 1], [1, 3], [2, 1]], [4, 6, 5])
    a = solve(lp)
    d = solve(dual_of(lp))
    assert a.objective == d.objective
    mn = lp_of(MIN, [3, 2], [[-1, -1], [-2, -1]], [-3, -4])
    a = solve(mn)
    d = solve(dual_of(mn))
    assert a.objective == d.objective


# -- pivot rule and Bland fallback ------------------------------------------


def exact_runs(lp):
    """The float-first solve, the exact simplex, and the exact simplex
    under Bland's rule from its first pivot, as after a degenerate
    stall: each a call that returns its certificate."""
    bland = _Simplex(lp)
    bland.forced_bland = True
    return partial(solve, lp), _Simplex(lp).run, bland.run


def beale_lp():
    return lp_of(
        MAX,
        [F(3, 4), -150, F(1, 50), -6],
        [
            [F(1, 4), -60, F(-1, 25), 9],
            [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        [0, 0, 1],
    )


def test_beale_terminates_under_both_rules():
    lp = beale_lp()
    expected = brute_force_best(lp_of(
        MAX,
        [F(3, 4), -150, F(1, 50), -6],
        [
            [F(1, 4), -60, F(-1, 25), 9],
            [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0],
            [1, 1, 1, 1],
        ],
        [0, 0, 1, 100],
    ))
    assert expected == F(1, 20)
    for run in exact_runs(lp):
        assert run().objective == F(1, 20)


# -- brute-force cross-check ------------------------------------------------

coef = st.fractions(min_value=-4, max_value=4, max_denominator=4)
rhs = st.fractions(min_value=-3, max_value=6, max_denominator=4)


@st.composite
def tiny_lps(draw):
    ncols = draw(st.integers(1, 3))
    nrows = draw(st.integers(0, 3))
    c = [draw(coef) for _ in range(ncols)]
    dense = [[draw(coef) for _ in range(ncols)] for _ in range(nrows)]
    b = [draw(rhs) for _ in range(nrows)]
    # box row keeps the region bounded, which the enumerator needs
    dense.append([1] * ncols)
    b.append(F(8))
    sense = draw(st.sampled_from([MAX, MIN]))
    return lp_of(sense, c, dense, b)


@settings(max_examples=120, deadline=None)
@given(tiny_lps())
def test_solver_matches_enumeration(lp):
    expected = brute_force_best(lp)
    for run in exact_runs(lp):
        if expected is None:
            # the box row keeps every program bounded
            with pytest.raises(NotOptimal, match="infeasible"):
                run()
        else:
            assert run().objective == expected


@settings(max_examples=60, deadline=None)
@given(tiny_lps())
def test_strong_duality_on_random_lps(lp):
    try:
        cert = solve(lp)
    except NotOptimal:
        # an infeasible program's dual is infeasible or unbounded
        with pytest.raises(NotOptimal):
            solve(dual_of(lp))
        return
    assert solve(dual_of(lp)).objective == cert.objective


# -- pivot hook -------------------------------------------------------------


def test_pivots_go_through_module_eliminate(monkeypatch):
    # Pivot counters (the benchmark's lp.pivots) rebind
    # auctionlp.lp.simplex.eliminate; every pivot of either pass must
    # reach the rebinding.
    lp = lp_of(MAX, [2, 3], [[1, 1], [1, 3]], [4, 6])
    expected = solve(lp)
    calls = []
    original = simplex.eliminate

    def counting(tableau, r, c):
        calls.append(tableau)
        original(tableau, r, c)

    monkeypatch.setattr(simplex, "eliminate", counting)
    exact = _Simplex(lp)
    cert = exact.run()
    assert len(calls) == exact.pivots > 0
    assert cert == expected
    assert cert.objective == 9
    # an accepted solve pivots in the float pass alone
    calls.clear()
    assert solve(lp) == expected
    (proposal,) = set(calls)
    assert proposal.tol
    assert len(calls) == proposal.pivots > 0


# -- float proposal pass ----------------------------------------------------

# Seeded auction programs: (generator spec, seeds), each built in the
# dominant-strategy and the Bayesian form.
CROSS_SHAPES = {
    "9-profiles": ({"n": 2, "m": 1, "support": 2}, (3, 4, 5)),
    "1-buyer-2-items": ({"n": 1, "m": 2, "support": 4}, (3, 4, 5)),
    "16-profiles-product": ({"n": 2, "m": 2, "support": 1, "correlated": False}, (3, 4, 5)),
    "27-profiles": ({"n": 3, "m": 1, "support": 2}, (3, 4)),
    "25-profiles-integer": (
        {"n": 2, "m": 1, "support": 4, "denominator": 1, "value_range": 10},
        (3, 4),
    ),
}


def assert_float_pass_follows_exact(lp):
    """The float pass is accepted, and its certificate and pivot count
    are those of the exact simplex."""
    proposal = _Simplex(lp, floating=True)
    cert = proposal.run()  # raises when the float pass proposes nothing
    exact = _Simplex(lp)
    assert cert == exact.run()
    assert proposal.pivots == exact.pivots


@pytest.mark.parametrize(
    "spec,seeds", CROSS_SHAPES.values(), ids=list(CROSS_SHAPES)
)
def test_float_pass_matches_exact_on_auction_programs(spec, seeds):
    for seed in seeds:
        instance = gen_instance(spec, seed)
        for build in (build_dslp, build_blp):
            assert_float_pass_follows_exact(build(instance))


def face_program(instance):
    """The program tight_downward_dual solves on the instance's DS
    optimum: a min-sense search of the optimal dual face, whose
    payment rows have negative right-hand sides, so phase one runs.
    It reaches solve without make_lp, so it is held to make_lp here."""
    optimum = ds_optimum(instance)
    programs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auction, "solve", lambda lp: programs.append(lp) or solve(lp))
        tight_downward_dual(instance, *optimum)
    (lp,) = programs
    assert_frozen(lp)
    return lp


def test_float_pass_matches_exact_on_face_program():
    lp = face_program(gen_instance({"n": 2, "m": 1, "support": 2}, 3))
    assert lp.sense == MIN and any(q < 0 for q in lp.b)
    assert_float_pass_follows_exact(lp)


def test_rejected_proposal_falls_back_to_exact(monkeypatch):
    lp = lp_of(MAX, [2, 3], [[1, 1], [1, 3]], [4, 6])
    expected = _Simplex(lp).run()
    rounded = []
    exact_pivots = []
    original = simplex.eliminate

    def perturbed(value, bound):
        rounded.append(value)
        return F(value).limit_denominator(bound) + F(1, 7)

    def counting(tableau, r, c):
        if not tableau.tol:
            exact_pivots.append((r, c))
        original(tableau, r, c)

    monkeypatch.setattr(simplex, "_nearby_rational", perturbed)
    monkeypatch.setattr(simplex, "eliminate", counting)
    assert solve(lp) == expected
    assert rounded and exact_pivots


def assert_setup_converts_like_float(lp):
    """The float tableau holds float(q) of every exact entry, and the
    exact one the program's own coefficients."""
    exact, fast = _Simplex(lp), _Simplex(lp, floating=True)
    for entries, b, row, frow in zip(lp.rows, lp.b, exact.T, fast.T):
        assert frow == {k: float(v) for k, v in row.items()}
        assert all(type(v) is float for v in frow.values())
        if b >= 0:
            assert all(row[j] is coef for j, coef in entries)
    assert fast.obj == [float(q) for q in exact.obj]


@settings(max_examples=60, deadline=None)
@given(tiny_lps())
def test_setup_converts_like_float_on_random_lps(lp):
    assert_setup_converts_like_float(lp)


@pytest.mark.parametrize(
    "spec,seeds", CROSS_SHAPES.values(), ids=list(CROSS_SHAPES)
)
def test_setup_converts_like_float_on_auction_programs(spec, seeds):
    instance = gen_instance(spec, seeds[0])
    for build in (build_dslp, build_blp):
        assert_setup_converts_like_float(build(instance))


ROUNDED = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-6, 1e-6),
    st.floats(min_value=1e6, allow_infinity=False).flatmap(lambda v: st.sampled_from((v, -v))),
    st.integers(-(10**15), 10**15).map(float),
    # exact denominators within the bound
    st.builds(lambda n, e: n / 2**e, st.integers(-(10**9), 10**9), st.integers(0, 19)),
)


@settings(max_examples=400, deadline=None)
@given(ROUNDED, st.one_of(st.just(simplex._ROUND_BOUND), st.integers(1, 1000)))
# ties go to the smaller denominator, on both sides of zero
@example(0.5, 1)
@example(-0.5, 1)
@example(2.5, 1)
@example(1 / 3, 10**6)
@example(-(2.0**-40), 10**9)
def test_nearby_rational_is_limit_denominator(value, bound):
    rounded = simplex._nearby_rational(value, bound)
    assert type(rounded) is F
    assert rounded == F(value).limit_denominator(bound)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_nearby_rational_refuses_what_fraction_refuses(value):
    with pytest.raises((OverflowError, ValueError)) as expected:
        F(value)
    with pytest.raises(expected.type):
        simplex._nearby_rational(value, simplex._ROUND_BOUND)


# -- pinned pivot paths -----------------------------------------------------

PINNED_BUILDS = (build_dslp, build_blp, build_dual_dslp, build_dual_blp, face_program)

# (spec, seed, per program of PINNED_BUILDS: pivots and the stall count
# at the end).  Both passes take exactly these paths, and no run
# switches to Bland's rule.  The explicit duals and the face program
# start with artificials, so phase one runs.
PIVOT_PINS = [
    ({"n": 2, "m": 1, "support": 2}, 0, ((17, 1), (13, 0), (20, 0), (21, 0), (27, 0))),
    ({"n": 2, "m": 1, "support": 2}, 1, ((14, 0), (10, 0), (21, 0), (18, 0), (22, 0))),
    ({"n": 2, "m": 1, "support": 2}, 2, ((15, 1), (9, 0), (20, 0), (22, 0), (27, 0))),
    ({"n": 2, "m": 1, "support": 2}, 3, ((15, 0), (12, 0), (21, 0), (18, 0), (26, 0))),
    ({"n": 1, "m": 2, "support": 3}, 0, ((14, 0), (14, 0), (15, 0), (15, 0), (17, 1))),
    ({"n": 1, "m": 2, "support": 3}, 1, ((7, 4), (7, 4), (13, 0), (13, 0), (8, 0))),
    ({"n": 1, "m": 2, "support": 3}, 2, ((8, 1), (8, 1), (9, 0), (9, 0), (9, 0))),
    (
        {"n": 2, "m": 2, "support": 1, "correlated": False},
        0,
        ((14, 1), (11, 1), (26, 0), (24, 1), (37, 0)),
    ),
    (
        {"n": 2, "m": 2, "support": 1, "correlated": False},
        1,
        ((8, 0), (8, 0), (20, 0), (16, 0), (25, 0)),
    ),
    (
        {"n": 2, "m": 2, "support": 1, "correlated": False},
        2,
        ((6, 1), (6, 1), (15, 0), (15, 0), (19, 3)),
    ),
    ({"n": 3, "m": 1, "support": 2}, 0, ((44, 1), (25, 0), (62, 0), (49, 0), (84, 0))),
    ({"n": 3, "m": 1, "support": 2}, 1, ((36, 0), (18, 0), (66, 0), (59, 0), (67, 0))),
    ({"n": 2, "m": 2, "support": 2}, 0, ((27, 0), (29, 0), (29, 0), (27, 0), (35, 0))),
    ({"n": 2, "m": 2, "support": 2}, 1, ((59, 0), (33, 0), (51, 0), (47, 1), (48, 2))),
]


@pytest.mark.parametrize("spec,seed,pins", PIVOT_PINS)
def test_pivot_paths_are_pinned(spec, seed, pins):
    instance = gen_instance(spec, seed)
    for index, (build, pin) in enumerate(zip(PINNED_BUILDS, pins)):
        lp = build(instance)
        proposal, exact = _Simplex(lp, floating=True), _Simplex(lp)
        assert (exact.K > 0) == (index >= 2)
        assert proposal.run() == exact.run()
        for run in (proposal, exact):
            assert (run.pivots, run.stalls, run.forced_bland) == (*pin, False)


# -- sparse tableau ---------------------------------------------------------


def finished_runs(lp):
    """The exact and the float simplex on lp, each run to its ending."""
    runs = [_Simplex(lp), _Simplex(lp, floating=True)]
    for run in runs:
        try:
            run.run()
        except NotOptimal:
            assert not run.tol
        except _NO_PROPOSAL:
            assert run.tol
    return runs


def assert_tableau_consistent(run):
    """No row was deleted, cols[k] is exactly the set of rows holding
    column k, no stored entry is zero, or within the tolerance of zero
    in the float pass, and each objective row's pricing set holds
    exactly the columns where the row is negative."""
    assert len(run.T) == run.lp.nrows
    assert all(k < len(run.cols) for row in run.T for k in row)
    for k, rows in enumerate(run.cols):
        assert rows == {r for r, row in enumerate(run.T) if k in row}
    for row in run.T:
        assert all(abs(v) > run.tol for v in row.values())
    assert run.objs[0] == (run.obj, run.negative)
    for obj, negative in run.objs:
        assert negative == {j for j, v in enumerate(obj) if v < 0}


@settings(max_examples=60, deadline=None)
@given(tiny_lps())
# duplicated >= rows: one artificial stays basic after phase one
@example(lp_of(MAX, [1], [[-1], [-1], [1]], [-1, -1, 5]))
@example(lp_of(MIN, [1, 1], [[-1, -1], [-1, -1], [1, 1]], [-2, -2, 8]))
def test_tableau_stays_consistent_on_random_lps(lp):
    # after every pivot of either pass, as well as at the end
    original = simplex.eliminate

    def checked(tableau, r, c):
        original(tableau, r, c)
        assert_tableau_consistent(tableau)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "eliminate", checked)
        runs = finished_runs(lp)
    for run in runs:
        assert_tableau_consistent(run)


@pytest.mark.parametrize(
    "spec,seeds", CROSS_SHAPES.values(), ids=list(CROSS_SHAPES)
)
def test_tableau_stays_consistent_on_auction_programs(spec, seeds):
    instance = gen_instance(spec, seeds[0])
    for build in (build_dslp, build_blp):
        for run in finished_runs(build(instance)):
            assert_tableau_consistent(run)


def test_float_pivot_snaps_a_unit_pivot_row():
    # The program itself can hold an entry within the tolerance of zero;
    # the float pass drops it when its row is pivoted on, even on a
    # pivot of 1, and the exact pass keeps it.
    lp = lp_of(MAX, [1, 1], [[1, F(1, 10**12)], [1, 1]], [1, 2])
    fast, exact = _Simplex(lp, floating=True), _Simplex(lp)
    for run in (fast, exact):
        simplex.eliminate(run, 0, 0)
    assert fast.T[0] == {0: 1.0, 2: 1.0, fast.rhs: 1.0}
    assert exact.T[0][1] == F(1, 10**12)
    for run in (fast, exact):
        assert_tableau_consistent(run)


def test_float_pass_solves_256_profile_ds_program(monkeypatch):
    # The scale path: a 4352 x 2048 program that the float pass must
    # carry alone, with no silent fallback to the exact simplex.
    lp = build_dslp(gen_instance({"n": 4, "m": 1, "support": 3}, 5))
    runs = []

    class Recorded(_Simplex):
        def run(self):
            runs.append(self)
            return super().run()

    original = simplex.eliminate

    def no_exact_pivot(tableau, r, c):
        if not tableau.tol:
            raise AssertionError("the exact simplex pivoted")
        original(tableau, r, c)

    monkeypatch.setattr(simplex, "_Simplex", Recorded)
    monkeypatch.setattr(simplex, "eliminate", no_exact_pivot)
    cert = solve(lp)
    (run,) = runs
    assert run.tol
    assert run.pivots == 903
    assert cert.objective == F(67549, 17784)
    recheck_certificate(lp, cert)


def test_coefficients_beyond_float_range_fall_back_to_exact():
    huge = F(10**400)
    with pytest.raises(OverflowError):
        _Simplex(lp_of(MAX, [huge], [[1]], [3]), floating=True)
    cert = solve(lp_of(MAX, [huge], [[1]], [3]))
    assert cert.objective == 3 * huge


# -- integer certificate checks ---------------------------------------------


def check_message(check, *args):
    """The CertificateError message of a library check, None if it accepts."""
    try:
        check(*args)
    except CertificateError as exc:
        return str(exc)
    return None


def recheck(lp, x, y, objective):
    """recheck_certificate on the vectors, stated with the objective."""
    recheck_certificate(lp, LpCertificate(tuple(x), tuple(y), objective))


def assert_checks_match_reference(lp, x, y, objective):
    """recheck_certificate reaches the plain-Fraction reference's
    decision, with its message."""
    assert check_message(recheck, lp, x, y, objective) == reference_optimal_check(
        lp, x, y, objective
    )


def solved_vectors(lp):
    """(x, y, objective) from the program's certificate, zeros where the
    program has no optimum."""
    try:
        cert = solve(lp)
    except NotOptimal:
        return [F(0)] * lp.ncols, [F(0)] * lp.nrows, F(0)
    return list(cert.primal), list(cert.dual), cert.objective


# entries with large, unrelated denominators, and plain ints
edit_values = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=2**80),
    st.integers(-2, 2),
)


@st.composite
def certificate_cases(draw):
    lp = draw(tiny_lps())
    if draw(st.booleans()):
        # without the box row, so unbounded programs occur too
        lp = make_lp(lp.sense, lp.c, lp.rows[:-1], lp.b[:-1])
    x, y, objective = solved_vectors(lp)
    for _ in range(draw(st.integers(0, 3))):
        vec = draw(st.sampled_from([v for v in (x, y) if v]))
        vec[draw(st.integers(0, len(vec) - 1))] = draw(edit_values)
    if draw(st.booleans()):
        objective += draw(edit_values)
    return lp, x, y, objective


@settings(max_examples=40, deadline=None)
@given(certificate_cases())
def test_certificate_checks_match_reference_on_random_lps(case):
    assert_checks_match_reference(*case)


@pytest.mark.parametrize(
    "spec,seeds", CROSS_SHAPES.values(), ids=list(CROSS_SHAPES)
)
def test_certificate_checks_match_reference_on_auction_programs(spec, seeds):
    instance = gen_instance(spec, seeds[0])
    rng = random.Random(seeds[0])
    for build in (build_dslp, build_blp):
        lp = build(instance)
        x, y, objective = solved_vectors(lp)
        assert check_message(recheck, lp, x, y, objective) is None
        cases = [(x, y, objective + 1), (x, [q * F(3, 2) for q in y], objective)]
        for _ in range(2):
            x2, y2 = list(x), list(y)
            vec = rng.choice((x2, y2))
            k = rng.randrange(len(vec))
            vec[k] = rng.choice(
                (-vec[k] - 1, vec[k] + F(1, 2**70 + k), vec[k] - F(1, 3**40), F(0))
            )
            cases.append((x2, y2, objective))
        for x2, y2, objective2 in cases:
            assert_checks_match_reference(lp, x2, y2, objective2)
