import numpy as np

import ci_report
from superpos import sdp


def test_linalg_report_restores_what_it_counts(capsys):
    # the timings that follow it must not run through counting wrappers
    names = ("cholesky", "inv", "eigh", "eigvalsh", "qr", "norm")
    before = [getattr(np.linalg, name) for name in names] + [sdp._step_lengths]
    ci_report.linalg_calls()
    assert [getattr(np.linalg, name) for name in names] + [sdp._step_lengths] == before
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all("; primal-dual iterations " in line for line in lines)


def test_a_report_that_raises_leaves_the_others_running(monkeypatch, capsys):
    def broken():
        raise ValueError("planted")

    monkeypatch.setattr(ci_report, "REPORTS", {"broken": broken, "names": ci_report.exported_names})
    assert ci_report.main() == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "## broken" and out.splitlines()[1] == "## names"
    assert int(out.splitlines()[2]) > 0
    assert "Traceback" in err and "ValueError: planted" in err
