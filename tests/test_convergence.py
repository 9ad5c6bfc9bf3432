"""Observed spatial convergence rates of the scheme, from runs of the stepper.

2D P1 on the manufactured case with dt tied to h (dt = h/2), so that the
spatial error, O(h) in the H1 norms, leads.
"""

import pytest

from msfem import mms, scheme

T_FINAL = 0.25


def final_h1_errors(M):
    n_steps = M // 2
    cfg = scheme.SchemeConfig(dim=2, M=M, degree=1, t_final=T_FINAL,
                              dt=T_FINAL / n_steps, n_steps=n_steps, mode="mms")
    report = scheme.AlternatingStepper(cfg).run(snapshot_steps=[n_steps]).report
    t = report.times()[-1]
    assert t == pytest.approx(T_FINAL)
    return {w: report.get(t, w).h1 for w in ("psi", "A", "phi")}


def test_p1_h1_errors_converge_at_first_order():
    errors = [final_h1_errors(M) for M in (8, 16, 32)]
    for which in ("psi", "A", "phi"):
        orders = [mms.observed_order(coarse[which], fine[which])
                  for coarse, fine in zip(errors, errors[1:])]
        assert min(orders) >= 0.9, (which, orders)
