import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import reference
from lagrangeflow import (ROTATION_E3, TRANSLATION_E3, ProcessSample,
                          action_derivative_analytic, action_derivative_fd,
                          action_derivatives_fd, case_names, drift_process,
                          el_process, get_case, least_action_check, log_density_pu,
                          martingale_test, mean_with_error, noether_process_general,
                          noether_rotation_closed_form, simulate_pu, simulate_wiener)
from lagrangeflow.action import (DICTIONARIES, action_per_path, criticality_report,
                                 criticality_tables)
from lagrangeflow.girsanov import drifted_path_functionals, pressure_integral
from lagrangeflow.noether import el_reports

from conftest import threads


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _same_cells(report, values, x):
    for got, want in zip((report.statistic, report.std_error, report.z),
                         reference.martingale_cells(values, x)):
        _same(got, want)


@pytest.mark.parametrize("n", reference.EDGES)
# no shrinking: each shrink step reruns every estimator, so a red run would
# take minutes; the first failing draw already names its N, case and M
@settings(max_examples=8, deadline=None, database=None, phases=[Phase.generate])
@given(name=st.sampled_from([None] + case_names()), m=st.integers(2, 8),
       seed=st.integers(0, 2**64 - 1), count=st.sampled_from(["1", "2", "8"]),
       dictionary=st.sampled_from(sorted(DICTIONARIES)))
def test_every_estimator_equals_the_reference(n, name, m, seed, count, dictionary):
    # every estimator, at every worker count, gives the reference's bytes
    case, dictionary = None if name is None else get_case(name), DICTIONARIES[dictionary]()
    x = reference.positions(case, n, m, seed)
    times = np.broadcast_to(np.arange(m + 1) / m, (n, m + 1))
    with threads(count):
        if case is None:
            ens = simulate_wiener(n, m, seed)
            _same(ens.positions, x)
            if n >= 2:
                for values in (*ens.positions.transpose(2, 0, 1), times):
                    _same_cells(martingale_test(ProcessSample(ens, values, "p")), values, x)
            return
        ens = simulate_pu(case, n, m, seed)
        _same(ens.positions, x)
        _same(drift_process(ens).values, reference.drift(case, x))
        el = el_process(ens).values
        _same(el, reference.el(case, x))
        for gen in (ROTATION_E3, TRANSLATION_E3):
            _same(noether_process_general(ens, gen).values,
                  reference.noether_general(case, x, gen))
        for compensated in (True, False):
            _same(noether_rotation_closed_form(ens, compensated).values,
                  reference.noether_rotation(case, x, compensated))
        if n >= 2:
            for i, report in enumerate(el_reports(ens, 0.01)):
                _same_cells(report, el[..., i], x)
            _same_cells(martingale_test(ProcessSample(ens, times, "t")), times, x)

        rows = reference.girsanov_rows(case, x)
        _same(drifted_path_functionals(case, n, m, seed), rows)
        _same(action_per_path(case, n, m, seed), rows[2])
        wiener = reference.girsanov_rows(case, reference.positions(None, n, m, seed))
        _same(log_density_pu(case, n, m, seed), wiener[0])
        _same(pressure_integral(case, n, m, seed), wiener[1])

        analytic = reference.analytic_table(case, x, dictionary)
        fd = reference.fd_table(case, x, dictionary)
        _same(criticality_tables(case, n, m, seed, dictionary), [analytic, fd])
        probe = dictionary[-1]
        assert action_derivative_analytic(case, n, m, seed, probe) == \
            mean_with_error(analytic[-1])
        assert action_derivative_fd(case, n, m, seed, probe) == mean_with_error(fd[-1])
        if n >= 2:
            assert least_action_check(case, n, m, seed, dictionary) == \
                criticality_report(dictionary, analytic)
            assert action_derivatives_fd(case, n, m, seed, dictionary) == \
                [mean_with_error(row) for row in fd]
