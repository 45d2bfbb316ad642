import dataclasses
import tracemalloc

import numpy as np
import pytest

from lagrangeflow import (GeneratorField, ROTATION_E3, TRANSLATION_E3,
                          UnknownGeneratorError, case_names, drift_process,
                          el_process, get_case, get_generator, martingale_test,
                          noether_process_general,
                          noether_rotation_closed_form, simulate_pu,
                          symmetry_check)
from lagrangeflow.engine import ProcessSample, adapted_process
from lagrangeflow.noether import SYMMETRY_GATE_TOL, el_reports

import reference
from conftest import M_SMALL, N_SMALL, SEED


def scalar(sample, i):
    return ProcessSample(sample.ensemble, sample.values[:, :, i],
                         f"{sample.label}[{i}]")


def test_generator_registry():
    assert get_generator("translation_e3") is TRANSLATION_E3
    assert get_generator("rotation_e3") is ROTATION_E3
    with pytest.raises(UnknownGeneratorError):
        get_generator("scaling")


@pytest.mark.parametrize("name", ["taylor_green", "lamb_oseen", "zero_flow",
                                  "frozen_taylor_green", "taylor_green_rotated"])
@pytest.mark.parametrize("n", [1, 7, 300])
def test_slice_builders_equal_whole_array_construction(name, n):
    # bit for bit, signs of zero included
    case = get_case(name)
    ens = simulate_pu(case, n, 20, SEED)
    x = ens.positions
    assert drift_process(ens).values.tobytes() == reference.drift(case, x).tobytes()
    assert el_process(ens).values.tobytes() == reference.el(case, x).tobytes()
    for gen in (ROTATION_E3, TRANSLATION_E3):
        got = noether_process_general(ens, gen).values
        assert got.tobytes() == reference.noether_general(case, x, gen).tobytes()
    for compensated in (True, False):
        got = noether_rotation_closed_form(ens, compensated).values
        assert got.tobytes() == reference.noether_rotation(case, x, compensated).tobytes()


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _counted(fn, kind, slices):
    def wrapped(t, x):
        slices[kind] = slices.get(kind, 0) + 1
        return fn(t, x)
    return wrapped


@pytest.mark.parametrize("build, want", [
    (lambda ens, gen: drift_process(ens), {}),
    (lambda ens, gen: el_process(ens), {"gradp": 0}),
    (noether_process_general, {"xi": 1}),
    (lambda ens, gen: noether_rotation_closed_form(ens), {"curl": 0}),
    (lambda ens, gen: noether_rotation_closed_form(ens, False), {}),
], ids=["drift", "el", "general", "closed_form", "closed_form_ablated"])
def test_builders_evaluate_each_field_once_per_slice(build, want):
    # the calls of each field, M plus the offset listed: u and xi at each of
    # the M+1 slices, grad p and the curl (through the Jacobian) at each of
    # the M left points, and nothing else; the builders read the counted case
    # off the ensemble
    n, m, slices = 50, 12, {}
    base = get_case("lamb_oseen")
    ens = simulate_pu(base, n, m, SEED)
    u, p = base.velocity, base.pressure
    counted = dataclasses.replace(
        base,
        velocity=dataclasses.replace(u, eval=_counted(u.eval, "u", slices),
                                     jacobian=_counted(u.jacobian, "curl", slices)),
        pressure=dataclasses.replace(p, eval=_counted(p.eval, "p", slices),
                                     gradient=_counted(p.gradient, "gradp", slices)))
    gen = GeneratorField("rotation_e3", _counted(ROTATION_E3.xi, "xi", slices),
                         ROTATION_E3.flow)
    build(dataclasses.replace(ens, case=counted), gen)
    assert slices == {kind: m + extra for kind, extra in {"u": 1, **want}.items()}


@pytest.mark.parametrize("build, width", [
    (drift_process, 3),
    (el_process, 3),
    (lambda ens: noether_process_general(ens, ROTATION_E3), 1),
    (noether_rotation_closed_form, 1),
    (lambda ens: noether_rotation_closed_form(ens, False), 1),
], ids=["drift", "el", "general", "closed_form", "closed_form_ablated"])
def test_builder_scratch_is_one_time_slice(build, width):
    # beyond its (N, M+1) or (N, M+1, 3) output a builder holds a few (N, 3)
    # slices, not a whole drift, an (N, M, 3) grad p or an (N, M) compensator
    case = get_case("lamb_oseen")
    n, m = 4096, 50
    ens = simulate_pu(case, n, m, SEED)
    peak = _peak_bytes(build, ens)
    assert peak < n * (m + 1) * width * 8 + 20 * n * 3 * 8


@pytest.mark.parametrize("build", [
    lambda ens: adapted_process(ens, "v"),
    drift_process,
    el_process,
    lambda ens: el_reports(ens, 0.01),
    lambda ens: noether_process_general(ens, TRANSLATION_E3),
    noether_rotation_closed_form,
    lambda ens: noether_rotation_closed_form(ens, False),
], ids=["adapted", "drift", "el", "el_reports", "general", "closed_form",
        "closed_form_ablated"])
def test_builders_refuse_a_wiener_ensemble(build, wiener_ensemble):
    # Wiener paths carry no flow to read u, p or the curl from
    with pytest.raises(ValueError, match="Wiener ensemble has no flow"):
        build(wiener_ensemble)


class TestElProcess:
    def test_zero_flow_is_identically_zero(self, zero_ensemble):
        proc = el_process(zero_ensemble)
        assert np.all(proc.values == 0.0)

    def test_taylor_green_components_pass(self, tg_ensemble):
        proc = el_process(tg_ensemble)
        for i in range(3):
            report = martingale_test(scalar(proc, i))
            assert report.passed, (i, report.max_abs_z)

    def test_frozen_taylor_green_fails(self, frozen_ensemble):
        proc = el_process(frozen_ensemble)
        reports = [martingale_test(scalar(proc, i)) for i in range(3)]
        assert any(not r.passed for r in reports)
        assert max(r.max_abs_z for r in reports) >= 4.0


class TestNoetherProcesses:
    def test_translation_reduces_to_momentum(self, tg_ensemble):
        proc = noether_process_general(tg_ensemble, TRANSLATION_E3)
        v3 = drift_process(tg_ensemble).values[:, :, 2]
        assert np.array_equal(proc.values, v3)

    def test_zero_generator_gives_zero_process(self, tg_ensemble):
        zero_gen = GeneratorField("null", lambda t, x: np.zeros_like(x),
                                  lambda eps, x: x)
        proc = noether_process_general(tg_ensemble, zero_gen)
        assert np.all(proc.values == 0.0)

    def test_zero_flow_rotation_process_is_zero(self, zero_ensemble):
        proc = noether_rotation_closed_form(zero_ensemble)
        assert np.all(proc.values == 0.0)

    @pytest.mark.parametrize("name", ["taylor_green", "lamb_oseen"])
    def test_rotation_general_matches_closed_form(self, name, request):
        fixture = "tg_ensemble" if name == "taylor_green" else "lo_ensemble"
        ens = request.getfixturevalue(fixture)
        gen_proc = noether_process_general(ens, ROTATION_E3)
        closed = noether_rotation_closed_form(ens)
        diff = gen_proc.values - closed.values
        m = ens.grid.steps
        assert np.abs(diff).mean() <= 5.0 / m
        assert np.abs(diff.mean(axis=0)).max() <= 5.0 / m

    def test_bracket_gap_consistent_with_halving(self):
        # the systematic part of the ensemble-mean gap is O(dt): the terminal
        # mean gap at M and at 2M is consistent with a factor-two drop within
        # the Monte Carlo noise of both runs
        case = get_case("lamb_oseen")
        stats = {}
        for m in (M_SMALL, 2 * M_SMALL):
            ens = simulate_pu(case, N_SMALL, m, SEED + 5)
            d = (noether_process_general(ens, ROTATION_E3).values
                 - noether_rotation_closed_form(ens).values)[:, -1]
            stats[m] = (d.mean(), d.std(ddof=1) / np.sqrt(len(d)))
        gap_c, se_c = stats[M_SMALL]
        gap_f, se_f = stats[2 * M_SMALL]
        assert abs(gap_c - 2.0 * gap_f) <= 3.0 * np.hypot(se_c, 2.0 * se_f)

    def test_lamb_oseen_rotation_martingale_and_ablation(self, lo_ensemble):
        full = martingale_test(noether_rotation_closed_form(lo_ensemble))
        assert full.passed
        ablated = martingale_test(
            noether_rotation_closed_form(lo_ensemble, include_compensator=False))
        assert not ablated.passed
        assert ablated.max_abs_z >= 5.0


class TestSymmetryCheck:
    def test_taylor_green_translation_invariant(self):
        report = symmetry_check(get_case("taylor_green"), TRANSLATION_E3)
        assert report.max_pressure_violation <= 1e-12
        assert report.max_speed_violation <= 1e-12
        assert report.within_gate

    def test_lamb_oseen_rotation_invariant(self):
        report = symmetry_check(get_case("lamb_oseen"), ROTATION_E3)
        assert report.max_pressure_violation <= 1e-10
        assert report.max_speed_violation <= 1e-10
        assert report.within_gate

    def test_taylor_green_not_rotation_invariant(self):
        report = symmetry_check(get_case("taylor_green"), ROTATION_E3)
        assert report.max_pressure_violation >= 0.1
        assert not report.within_gate

    def test_rotated_variant_not_translation_invariant(self):
        report = symmetry_check(get_case("taylor_green_rotated"), TRANSLATION_E3)
        assert report.max_pressure_violation > SYMMETRY_GATE_TOL
        assert not report.within_gate

    def test_gate_reads_a_custom_generator_flow(self):
        e1 = np.array([1.0, 0.0, 0.0])
        translation_e1 = GeneratorField("translation_e1",
                                        lambda t, x: np.broadcast_to(e1, x.shape),
                                        lambda eps, x: x + eps * e1)
        assert symmetry_check(get_case("zero_flow"), translation_e1).within_gate
        report = symmetry_check(get_case("taylor_green"), translation_e1)
        assert report.max_pressure_violation > SYMMETRY_GATE_TOL
        assert not report.within_gate

    def test_gate_refuses_a_flow_that_returns_nan(self):
        # a nan violation is not within the gate, however the others read
        lost = GeneratorField("lost", TRANSLATION_E3.xi,
                              lambda eps, x: np.full_like(x, np.nan))
        report = symmetry_check(get_case("taylor_green"), lost)
        assert np.isnan(report.max_pressure_violation)
        assert np.isnan(report.max_speed_violation)
        assert not report.within_gate

    @pytest.mark.parametrize("gen", [TRANSLATION_E3, ROTATION_E3],
                             ids=lambda g: g.name)
    @pytest.mark.parametrize("name", case_names())
    def test_symmetry_tags_agree_with_the_gate(self, name, gen):
        # the tags are descriptive and the gate never reads them
        case = get_case(name)
        assert symmetry_check(case, gen).within_gate == (gen.name in case.symmetries)
