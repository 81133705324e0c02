"""Batched sample draws of the invariant checks, and the verdicts they feed."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from slag_forge import atiyah_hitchin as ah, checks, elliptic, moment_maps as mm
from slag_forge import multiplets as mp
from slag_forge import slag_curves as sc, taub_nut as tn
from slag_forge.atiyah_hitchin import AHParams
from slag_forge.cli import main
from slag_forge.errors import ConvergenceError, PoleError

from test_atiyah_hitchin import regular_point
from test_multiplets import pinched_o2


class _CountingRng:
    """Forwards uniform() to a Generator and counts the calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs)


@pytest.mark.parametrize("seed", [0, 5, 42])
@pytest.mark.parametrize("n, y_guard", [(500, 1e-3), (100, 3e-3)])
def test_random_ah_point_matches_per_point_loop(seed, n, y_guard):
    """One array of candidates keeps bitwise the points that the per-point
    rejection loop (regular_point, four scalar draws per candidate) accepts."""
    p = AHParams(1.0, 1)
    loop = _CountingRng(seed)
    ref = [regular_point(loop, p, y_guard)[0] for _ in range(n)]
    assert loop.calls > 4 * n          # the loop rejected some candidates
    pt, state = checks.random_ah_point(np.random.default_rng(seed), p, n, y_guard)
    want = np.array([[q.k, q.theta, q.phi, q.psi] for q in ref])
    assert np.array_equal(np.column_stack([pt.k, pt.theta, pt.phi, pt.psi]), want)
    assert state.z.shape == (n,) and ah.ah_coeffs(state)[0].shape == (n,)


def test_ah_regular_is_the_one_rule_of_tracer_and_sampler(monkeypatch):
    """Negative control: with ah_regular rejecting every point, the tracer
    keeps no sample of a family that has traces, and the check sampler finds
    no regular point."""
    assert sc.ah_traces_theta_phi(0.5, -3.0)
    monkeypatch.setattr(ah, "ah_regular",
                        lambda z, v, x, data, y_guard: np.zeros(np.shape(z), dtype=bool))
    assert sc.ah_traces_theta_phi(0.5, -3.0) == []
    with pytest.raises(ConvergenceError):
        checks.random_ah_point(np.random.default_rng(0), AHParams(1.0, 1), 10)


def test_random_ah_point_runs_one_agm(monkeypatch):
    """One extended-AGM run over the candidates serves the regularity test
    (rho, curve data and chart) and the kept points' state, whose rows are
    the chart's own."""
    calls = []
    original = elliptic.elliptic_KE_vec

    def spy(k):
        calls.append(np.shape(k))
        return original(k)

    monkeypatch.setattr(elliptic, "elliptic_KE_vec", spy)
    checks.random_ah_point(np.random.default_rng(0), AHParams(1.0, 1), 100)
    assert calls == [(216,)]


def test_tn_monge_ampere_draws_match_per_sample_loop(monkeypatch):
    """The check's one (1000, 6) draw gives the parameters and points that
    drawing TNParams, then r, angle, phase and Im u, per sample gave."""
    seen = []
    original = tn.tn_metric_holo

    def spy(pt, p):
        seen.append((pt, p))
        return original(pt, p)

    monkeypatch.setattr(tn, "tn_metric_holo", spy)
    assert checks.check_tn_monge_ampere(np.random.default_rng(7))[0]
    (pt, p), = seen
    rng = np.random.default_rng(7)
    for i in range(1000):
        h, m = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0)
        r = rng.uniform(0.1, 100.0)
        ang = rng.uniform(0.05, math.pi - 0.05)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        z = r * math.sin(ang) / 2.0 * complex(math.cos(phase), math.sin(phase))
        assert (p.h[i], p.m[i], pt.u.imag[i]) == (h, m, rng.uniform(-3.0, 3.0))
        assert (pt.x[i], pt.z[i]) == pytest.approx((r * math.cos(ang), z), rel=1e-15)


def test_legendre_relation_makes_one_agm_call_on_k_and_kprime(monkeypatch):
    """The check's one elliptic_KE_vec call takes the rows k and k' that the
    per-sample loop passed to its scalar K and E, and gives their bits."""
    seen = []
    original = checks.elliptic_KE_vec

    def spy(k):
        seen.append(k)
        return original(k)

    monkeypatch.setattr(checks, "elliptic_KE_vec", spy)
    assert checks.check_legendre_relation(np.random.default_rng(0))[0]
    (k,) = seen
    ks = np.linspace(0.01, 0.95, 60)
    assert np.array_equal(k, [ks, [math.sqrt(1.0 - x * x) for x in ks]])
    assert np.array_equal(np.stack(original(k), axis=-1),
                          [[elliptic.elliptic_KE(x) for x in row] for row in k.tolist()])


def test_so3_equivariance_draws_match_per_sample_loop(monkeypatch):
    """One (20, 15) normal draw gives the q, p and rotation of each sample
    that drawing them one sample at a time gave, and the stacked QR and
    products give the per-sample moment inputs bit for bit."""
    seen = []
    original = mm.so3_cotangent_moment

    def spy(q, p):
        seen.append((np.asarray(q, dtype=float), np.asarray(p, dtype=float)))
        return original(q, p)

    monkeypatch.setattr(mm, "so3_cotangent_moment", spy)
    assert checks.check_so3_equivariance(np.random.default_rng(9))[0]
    _, plain, rotated = seen
    rng = np.random.default_rng(9)
    for i in range(20):
        q, p_vec = rng.normal(size=3), rng.normal(size=3)
        mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(mat) < 0:
            mat[:, 0] = -mat[:, 0]
        assert np.array_equal(plain[0][i], q) and np.array_equal(plain[1][i], p_vec)
        assert np.array_equal(rotated[0][i], mat @ q)
        assert np.array_equal(rotated[1][i], mat @ p_vec)


def test_o2_reality_roots_draws_match_per_sample_loop(monkeypatch):
    """Each multiplet's one (16, 2) normal draw gives the zeta that drawing
    them as complex(normal, normal) one at a time kept, and o2_eval takes
    those zeta, their reality images and both roots as arrays."""
    seen = []
    original = mp.o2_eval

    def spy(m, zeta):
        seen.append((m, zeta))
        return original(m, zeta)

    monkeypatch.setattr(mp, "o2_eval", spy)
    assert checks.check_o2_reality_roots(np.random.default_rng(4))[0]
    rng = np.random.default_rng(4)
    assert len(seen) == 3 * 50
    for j in range(50):
        m = checks._random_o2(rng)
        zetas = [z for z in (complex(rng.normal(), rng.normal()) for _ in range(16))
                 if abs(z) >= 1e-3]
        (m1, images), (m2, zeta), (m3, roots) = seen[3 * j:3 * j + 3]
        assert m1 == m2 == m3 == m
        assert np.array_equal(zeta, zetas)
        assert images == pytest.approx([-1.0 / np.conjugate(z) for z in zetas], rel=1e-15)
        assert np.array_equal(roots, mp.o2_roots(m))


def test_o4_roots_evaluates_each_multiplets_roots_as_one_array(monkeypatch):
    """o4_eval takes the four roots of each multiplet the per-sample loop
    drew, as one array."""
    seen = []
    original = mp.o4_eval

    def spy(m, zeta):
        seen.append((m, zeta))
        return original(m, zeta)

    monkeypatch.setattr(mp, "o4_eval", spy)
    assert checks.check_o4_roots(np.random.default_rng(6))[0]
    rng = np.random.default_rng(6)
    assert len(seen) == 50
    for m, roots in seen:
        want = checks._random_o4(rng)
        assert m == want
        assert np.array_equal(roots, [want.alpha, -1.0 / np.conjugate(want.alpha),
                                      want.beta, -1.0 / np.conjugate(want.beta)])


def test_tn_pullback_draw_matches_per_sample_loop(monkeypatch):
    """The check's one (20, 4) draw gives the points that drawing r, theta,
    phi and psi one sample at a time gave, and both metrics take them as one
    batch."""
    seen = []
    for name in ("tn_metric_spherical", "tn_metric_spherical_from_holo"):
        def spy(pt, p, original=getattr(tn, name)):
            seen.append(pt)
            return original(pt, p)

        monkeypatch.setattr(tn, name, spy)
    assert checks.check_tn_pullback(np.random.default_rng(8))[0]
    rng = np.random.default_rng(8)
    want = [(rng.uniform(0.3, 10.0), rng.uniform(0.2, math.pi - 0.2),
             rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 4.0 * math.pi))
            for _ in range(20)]
    assert len(seen) == 2 and seen[0] is seen[1]
    assert np.array_equal(np.column_stack([seen[0].r, seen[0].theta, seen[0].phi,
                                           seen[0].psi]), want)


@pytest.mark.parametrize("seed, fails", [
    (0, {"slag-ah-traces"}),
    (5, {"slag-ah-traces"}),
])
def test_verify_fail_lines_at_seeds(seed, fails, capsys):
    """slag-ah-traces is the documented defect; at seed 5 lie-derivative's
    plain central differences exceeded their 1e-3 gate by O(h^2) error, which
    its Richardson step removes."""
    assert main(["--seed", str(seed), "verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == list(checks.VERIFY_CHECKS)
    assert {line.split()[1] for line in lines if line.startswith("FAIL")} == fails


_LO, _HI = checks._TN_POINT_BOX


def _per_sample_hamiltonicity_tn(rng):
    """h, m, then (r, angle, phase, Im u) as one uniform call."""
    return [rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0),
            *rng.uniform((0.3,) + _LO, (20.0,) + _HI)]


def _per_sample_lie_derivative(rng):
    return list(rng.uniform((1.0,) + _LO, (10.0,) + _HI))


@pytest.mark.parametrize("name, n, per_sample", [
    ("hamiltonicity-tn-u1", 100, _per_sample_hamiltonicity_tn),
    ("hamiltonicity-tn-so2", 100, _per_sample_hamiltonicity_tn),
    ("lie-derivative", 10, _per_sample_lie_derivative),
])
def test_tn_point_draws_match_per_sample_loop(name, n, per_sample, monkeypatch):
    """One draw for all sample points gives the parameters and points that
    drawing them one sample at a time gave."""
    seen = []
    original = checks._tn_point

    def spy(p, *point):
        seen.append(np.column_stack(np.broadcast_arrays(
            *([p.h, p.m] if np.ndim(p.h) else []), *point)))
        return original(p, *point)

    monkeypatch.setattr(checks, "_tn_point", spy)
    checks.VERIFY_CHECKS[name](np.random.default_rng(11))
    rng = np.random.default_rng(11)
    (got,) = seen
    assert np.array_equal(got, [per_sample(rng) for _ in range(n)])


def test_elliptic_data_draw_matches_per_sample_loop(monkeypatch):
    seen = []
    original = checks.elliptic_data

    def spy(k, rho):
        seen.append((k, rho))
        return original(k, rho)

    monkeypatch.setattr(checks, "elliptic_data", spy)
    assert checks.check_elliptic_data_invariants(np.random.default_rng(3))[0]
    rng = np.random.default_rng(3)
    want = [(rng.uniform(0.01, 0.99), rng.uniform(0.1, 10.0)) for _ in range(1000)]
    ((k, rho),) = seen
    assert np.array_equal(np.column_stack([k, rho]), want)


def test_tn_chart_roundtrip_draw_matches_per_sample_loop(monkeypatch):
    seen = []
    original = tn.tn_chart_spherical_to_holo

    def spy(sph, p):
        seen.append(np.column_stack([p.h, p.m, sph.r, sph.theta, sph.phi, sph.psi]))
        return original(sph, p)

    monkeypatch.setattr(tn, "tn_chart_spherical_to_holo", spy)
    assert checks.check_tn_chart_roundtrip(np.random.default_rng(4))[0]
    rng = np.random.default_rng(4)
    want = [(rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.2, 20.0),
             rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.0, 2.0 * math.pi),
             rng.uniform(0.0, 4.0 * math.pi)) for _ in range(50)]
    assert np.array_equal(seen[0], want)


def _lie_derivative_curls(seed, h):
    """The check's d_ab by the plain central stencil at step h, one point and
    one sigma call at a time: [point, pair a < b]."""
    rng = np.random.default_rng(seed)
    p = tn.TNParams(1.0, 1.0)
    curls = []
    for action_name in ("U1_triholo", "SO2_rot"):
        action = mm.ActionSpec("TaubNUT", action_name)
        for _ in range(5):
            pt = checks._random_tn_point(rng, p, 1.0, 10.0)
            q0 = np.array([pt.u.real, pt.u.imag, pt.z.real, pt.z.imag])

            def sigma(q):
                point = tn.tn_point_from_uz(complex(q[0], q[1]), complex(q[2], q[3]), p)
                return mm._iota_omega(action, tn.tn_metric_holo(point, p), point.u, point.z)

            row = []
            for a in range(4):
                for b in range(a + 1, 4):
                    qa_p, qa_m = q0.copy(), q0.copy()
                    qa_p[a] += h
                    qa_m[a] -= h
                    qb_p, qb_m = q0.copy(), q0.copy()
                    qb_p[b] += h
                    qb_m[b] -= h
                    row.append((sigma(qa_p)[b] - sigma(qa_m)[b]) / (2 * h)
                               - (sigma(qb_p)[a] - sigma(qb_m)[a]) / (2 * h))
            curls.append(row)
    return np.array(curls)


@pytest.mark.parametrize("seed", [0, 5])
def test_lie_derivative_batch_matches_per_point_loop(seed):
    """The 16 shifted points of each base point form the batch; the worst
    Richardson-extrapolated second difference is the per-point loop's up to
    metric-block rounding amplified by 1/h (h = 1e-4), about 1e-11."""
    ok, detail = checks.check_lie_derivative(np.random.default_rng(seed))
    worst = float(detail.split()[0].split("=")[1])
    h = 1e-4
    ref = (4.0 * _lie_derivative_curls(seed, 0.5 * h) - _lie_derivative_curls(seed, h)) / 3.0
    assert ok
    assert worst == pytest.approx(np.max(np.abs(ref)), rel=2e-3, abs=2e-11)


@pytest.mark.parametrize("seed", [5, 35, 87])
def test_lie_derivative_plain_stencil_error_scales_as_h_squared(seed):
    """At the seeds where the plain h = 1e-4 stencil broke the 1e-3 gate, its
    worst residual falls 4x per halving of h: truncation error, not geometry.
    The Richardson step the check takes leaves under 1e-8."""
    worst = [np.max(np.abs(_lie_derivative_curls(seed, h))) for h in (4e-4, 2e-4, 1e-4, 5e-5)]
    assert worst[2] > 1e-3
    for coarse, fine in zip(worst, worst[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=2e-2)
    ok, detail = checks.check_lie_derivative(np.random.default_rng(seed))
    assert ok and float(detail.split()[0].split("=")[1]) < 1e-8


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _verdict(name, seed, capsys):
    argv = (["--seed", str(seed), "oracle"] if name in checks.ORACLE_CHECKS
            else ["--seed", str(seed), "verify", "--only", name])
    main(argv)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    (verdict,) = [words[0] for words in lines if words[1:2] == [name]]
    return verdict


def test_benchmark_check_reference_verdicts(capsys):
    """bench/reference.json leaves out of the checks workload the (check,
    seed) pairs that FAILed when the benchmark was made: lie-derivative at
    five seeds, by O(h^2) stencil error.  The check's Richardson step makes
    them PASS, as at the seeds the reference keeps; the list stays as it is
    until the benchmark is remade (bench/make_reference.py)."""
    ref = json.loads(REFERENCE.read_text())["checks"]
    assert {entry["check"] for entry in ref["excluded"]} == {"lie-derivative"}
    for entry in ref["excluded"]:
        assert _verdict(entry["check"], entry["seed"], capsys) == "PASS", entry
    for seed in ref["seeds"][:3]:
        assert _verdict("lie-derivative", seed, capsys) == "PASS", seed


def test_violated_so3_moment_reports_fail(monkeypatch, capsys):
    """A wrong moment map (mu = p x q) is a FAIL line and exit code 1 from
    `verify`, not an AssertionError; it is still SO(3)-equivariant, so only
    the basis identity mu(e1, e2) = e3 catches it."""
    monkeypatch.setattr(mm, "so3_cotangent_moment",
                        lambda q, p: np.cross(np.asarray(p, float), np.asarray(q, float)))
    assert main(["--seed", "0", "verify", "--only", "so3-equivariance"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL so3-equivariance mu(q=e1, p=e2)=[0.0, 0.0, -1.0]")


def test_forward_point_off_locus_reports_fail(monkeypatch, capsys):
    """A chart that turns z by e^{i phi}, where the true one turns it by
    e^{2 i phi}, puts z off the negative real axis at phi*: a FAIL line of
    `slag-ah-zero-set`, not an AssertionError."""
    zvx = checks.ah.ah_zvx_from_spherical

    def rotated(k, theta, phi, psi, h):
        z, v, x = zvx(k, theta, phi, psi, h)
        return z * np.exp(-1j * phi), v, x

    monkeypatch.setattr(checks.ah, "ah_zvx_from_spherical", rotated)
    assert main(["--seed", "0", "verify", "--only", "slag-ah-zero-set"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL slag-ah-zero-set forward point theta=")


def test_orbit_constancy_passes_at_every_check_seed():
    """Check seeds 0-119, the ones the benchmark's checks workload draws from."""
    for seed in range(120):
        ok, detail = checks.check_orbit_constancy(np.random.default_rng(seed))
        assert ok, (seed, detail)
        assert detail.startswith("mu_span=") and detail.endswith(" tol=1e-8/1e-6")


@pytest.mark.parametrize("generator", ["U1_triholo", "SO2_rot"])
@pytest.mark.parametrize("seed", [0, 1, 14])
def test_orbit_constancy_fails_a_flipped_generator(generator, seed, monkeypatch, capsys):
    """A Taub-NUT generator of the wrong sign still has mu constant along its
    flow, so only its orbit's velocity catches it: a FAIL line from `verify`
    on gen_err, with mu_span still within its gate."""
    field = mm.ActionSpec.field

    def flipped(self, w0, w1):
        wrong = (self.manifold, self.generator) == ("TaubNUT", generator)
        return -field(self, w0, w1) if wrong else field(self, w0, w1)

    monkeypatch.setattr(mm.ActionSpec, "field", flipped)
    assert main(["--seed", str(seed), "verify", "--only", "orbit-constancy"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    verdict, name, *fields = line.split()
    values = dict(f.split("=") for f in fields[:2])
    assert (verdict, name) == ("FAIL", "orbit-constancy")
    assert float(values["mu_span"]) <= 1e-8 and float(values["gen_err"]) > 1e-6



@pytest.mark.parametrize("check", ["hamiltonicity-tn-u1", "hamiltonicity-tn-so2"])
@pytest.mark.parametrize("seed", [0, 1, 14])
def test_hamiltonicity_fails_swapped_moments(check, seed, monkeypatch, capsys):
    """The Hamiltonicity checks read mu from ActionSpec.moment: with the two
    Taub-NUT moments swapped, iota_X omega = d mu fails for both actions."""
    moment = mm.ActionSpec.moment
    swap = {"U1_triholo": "SO2_rot", "SO2_rot": "U1_triholo"}

    def swapped(self, point, params):
        if self.manifold == "TaubNUT":
            self = mm.ActionSpec("TaubNUT", swap[self.generator])
        return moment(self, point, params)

    monkeypatch.setattr(mm.ActionSpec, "moment", swapped)
    assert main(["--seed", str(seed), "verify", "--only", check]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    verdict, name, err, *_ = line.split()
    assert (verdict, name) == ("FAIL", check)
    assert float(err.split("=")[1]) > 1e-5

def test_too_few_regular_ah_points_is_a_fail_line(monkeypatch, capsys):
    """random_ah_point raises ConvergenceError when too few candidates are
    regular (here: y_+ = 0 at every candidate, below the y guard), which
    `verify` reports as the check's FAIL line and exit code 1, not a
    traceback."""
    xy = ah.ah_xy_from_zvx

    def vanishing_y_plus(z, v, x):
        xp, xm, vp, vm, yp, ym = xy(z, v, x)
        return xp, xm, vp, vm, 0.0 * yp, ym

    monkeypatch.setattr(ah, "ah_xy_from_zvx", vanishing_y_plus)
    assert main(["verify", "--only", "ah-monge-ampere"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL ah-monge-ampere error: could not sample regular")


def _zero_set_roots_per_row():
    """The converse scan of slag-ah-zero-set one theta row at a time, each
    row's psi from the level at that scalar theta: the phi-roots and z there."""
    k, c1, h = 0.5, 0.0, 1.0
    roots, zs = [], []
    for th in np.linspace(0.3, math.pi - 0.3, 40):
        c2p = float(sc.ah_cos2psi_level(th, k, c1, h)[0])
        if not abs(c2p) <= 1.0 + 1e-12:
            continue
        psi = 0.5 * math.acos(min(1.0, max(-1.0, c2p)))
        phis = np.linspace(0.0, 2.0 * math.pi, 257)
        vals = sc.ah_condition(th, phis, k, c1, h, 1)
        i = np.flatnonzero((vals[:-1] > 0) != (vals[1:] > 0))
        a, b, fa = phis[i], phis[i + 1], vals[i]
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = sc.ah_condition(th, mid, k, c1, h, 1)
            left = (fa > 0) != (fm > 0)
            b = np.where(left, mid, b)
            a, fa = np.where(left, a, mid), np.where(left, fa, fm)
        roots.append(0.5 * (a + b))
        zs.append(ah.ah_zvx_from_spherical(k, th, roots[-1], psi, h)[0])
    return np.concatenate(roots), np.concatenate(zs)


def test_zero_set_row_batch_matches_per_row_loop(monkeypatch):
    """One (rows, 257) scan and one bisection over every row's brackets find
    the per-row loop's phi-roots, and z at them, bit for bit."""
    calls = []
    original = ah.ah_zvx_from_spherical

    def spy(k, theta, phi, psi, h):
        calls.append((phi, original(k, theta, phi, psi, h)))
        return calls[-1][1]

    monkeypatch.setattr(ah, "ah_zvx_from_spherical", spy)
    ok, detail = checks.check_slag_ah_zero_set(np.random.default_rng(0))
    assert ok, detail
    phi, (z, _, _) = calls[-1]
    want_phi, want_z = _zero_set_roots_per_row()
    assert want_phi.size > 0
    assert np.array_equal(phi, want_phi) and np.array_equal(z, want_z)


@pytest.mark.parametrize("seed", [0, 1, 14])
def test_i1_oracle_reads_the_closed_form(seed, monkeypatch):
    """ah-i1-i2-closed compares the contour I_1 with multiplets.ah_I1_closed_form
    itself, not with a copy of its formula: that closed form off by 1e-3
    is a FAIL."""
    closed = mp.ah_I1_closed_form
    monkeypatch.setattr(mp, "ah_I1_closed_form", lambda *args: closed(*args) + 1e-3)
    ok, detail = checks.oracle_ah_i1_i2(np.random.default_rng(seed), 50)
    assert not ok, detail


def test_h_constraint_fails_on_a_broken_chart_rho(monkeypatch, capsys):
    """ah-h-constraint reads omega1 from the curve data the chart map builds,
    so a chart whose rho is off 16 h^2 K^2 by 1 % is a FAIL line and exit 1.
    The chart builds its curve data with _curve_data from the K and E it
    has already evaluated, so that is where rho is put off."""
    curve_data = ah._curve_data
    monkeypatch.setattr(ah, "_curve_data",
                        lambda k, rho, K, E: curve_data(k, 1.01 * rho, K, E))
    assert main(["verify", "--only", "ah-h-constraint"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL ah-h-constraint max_err=")


def test_fxx_oracle_reports_its_loop_nodes(monkeypatch):
    """fxx-contour reports the most loop nodes that any sample needed: 1 024
    on the sampler's inputs at seed 0, and 8 192 once the samples sit at
    x/r = -0.996."""
    ok, detail = checks.oracle_fxx(np.random.default_rng(0), 50)
    assert ok and " nodes_max=1024 tol=1.0e-05" in detail, detail
    monkeypatch.setattr(checks, "_random_o2", lambda rng: pinched_o2(3.05))
    ok, detail = checks.oracle_fxx(np.random.default_rng(0), 3)
    assert ok and " nodes_max=8192 tol=1.0e-05" in detail, detail


def test_unconverged_fxx_loop_is_a_fail_line(monkeypatch, capsys):
    """At x/r = -0.9991 the F_xx loop is unconverged at 8 192 nodes: the
    oracle prints a FAIL line and exits 1, where it used to print a value
    off by 1e6."""
    monkeypatch.setattr(checks, "_random_o2", lambda rng: pinched_o2(3.1))
    assert main(["oracle", "--manifold", "tn", "--samples", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL fxx-contour error: tn_Fxx_contour_oracle: half-node gap ")


@pytest.mark.parametrize("check, n, lo, hi", [
    (checks.check_eta1_pair, 20, (0.05, 0.2), (0.95, 5.0)),
    (checks.check_legendre_quasi_periods, 10, (0.1, 0.3), (0.9, 3.0))])
def test_period_checks_draw_their_curves_as_one_batch(check, n, lo, hi, monkeypatch):
    """eta1-pair and legendre-quasi-periods build all their curves in one
    elliptic_data call, with the (k, rho) a per-curve loop would draw."""
    seen = []
    original = checks.elliptic_data

    def spy(k, rho):
        seen.append((k, rho))
        return original(k, rho)

    monkeypatch.setattr(checks, "elliptic_data", spy)
    assert check(np.random.default_rng(6))[0]
    rng = np.random.default_rng(6)
    want = [(rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])) for _ in range(n)]
    ((k, rho),) = seen
    assert np.array_equal(np.column_stack([k, rho]), want)


def _field_names(detail):
    return re.findall(r"(\w+)=", detail)


def test_in_oracles_report_nodes_and_skips(monkeypatch):
    """ah-i0 reports the most nodes a sample took; ah-i1-i2-closed also how
    many drawn samples it skipped, keyed by error class."""
    ok, detail = checks.oracle_ah_i0(np.random.default_rng(0), 50)
    assert ok and _field_names(detail) == ["rel_err", "nodes_max", "tol"], detail
    ok, detail = checks.oracle_ah_i1_i2(np.random.default_rng(0), 50)
    assert ok and " skipped=0 tol=1.0e-07" in detail, detail
    assert _field_names(detail) == ["rel_err", "nodes_max", "skipped", "tol"], detail
    pi_pair, calls = ah.pi_pair_from_zvx, []

    def first_two_on_a_pole(*args):
        calls.append(args)
        if len(calls) <= 2:
            raise PoleError("pi_pair_from_zvx: x_pm at a cut end")
        return pi_pair(*args)

    monkeypatch.setattr(ah, "pi_pair_from_zvx", first_two_on_a_pole)
    ok, detail = checks.oracle_ah_i1_i2(np.random.default_rng(0), 5)
    assert ok and " skipped=PoleError:2 tol=" in detail and len(calls) == 7, detail


def test_i1_i2_oracle_with_no_usable_draw_is_a_prompt_fail_line(monkeypatch, capsys):
    """If every draw is skipped, ah-i1-i2-closed gives up after 20 draws per
    sample with a FAIL line naming the skips, where it used to loop for ever."""
    def always_a_pole(*args):
        raise PoleError("pi_pair_from_zvx: x_pm at a cut end")

    monkeypatch.setattr(ah, "pi_pair_from_zvx", always_a_pole)
    assert main(["oracle", "--manifold", "ah", "--samples", "5"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if " ah-i1-i2-closed " in line]
    assert len(lines) == 1
    assert lines[0].startswith("FAIL ah-i1-i2-closed 0 of 5 samples drawn, skipped=PoleError:100 (")


def test_o4_sampler_with_no_acceptable_draw_is_a_fail_line(monkeypatch, capsys):
    """A multiplet sampler that never meets its |z| and |beta| guards raises
    after 20 draws, and the check that called it prints a FAIL line."""
    monkeypatch.setattr(mp, "o4_from_roots",
                        lambda al, be, rho: mp.O4Multiplet(0j, 0j, 0.0, al, be, rho))
    assert main(["verify", "--only", "o4-roots"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL o4-roots error: _random_o4: no multiplet kept in 20 draws (")
