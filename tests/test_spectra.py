"""Closed-form spectra: values, family bookkeeping, serialization."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ECKART_ENERGIES,
    ECKART_FIXTURE,
    HULTHEN_FIXTURE,
    HULTHEN_TABLE,
    POOL_DOMAINS,
    PT_ENERGIES_MM,
    PT_ENERGY_MP,
    PT_FIXTURE,
    energy_sorted,
)
from ptspec import spectra
from ptspec.errors import DegenerateBeta, IndexOutOfRange, LevelMismatch, OutsideFamily
from ptspec.models import MODELS, EckartParams, HulthenParams, PTParams
from ptspec.spectra import (
    Level,
    check_level,
    eckart_gap,
    eckart_level,
    eckart_levels,
    family_key,
    hulthen_level,
    hulthen_levels,
    level_of,
    pt_level,
    pt_levels,
    pt_levels_complex,
    spectrum_of,
    spectrum_to_csv,
    spectrum_to_json,
)


def test_family_key_mapping():
    assert family_key(None, None) == "all"
    assert family_key(-1, -1) == "--"
    assert family_key(-1, +1) == "-+"
    assert family_key(+1, -1) == "+-"
    assert family_key(+1, +1) == "++"


# ---- eckart ------------------------------------------------------------------


def test_eckart_fixture_energies():
    spec = eckart_levels(ECKART_FIXTURE)
    assert [lv.N for lv in spec.levels] == [0, 1, 2]
    assert spec.family_counts == {"all": 3}
    for lv, want in zip(spec.levels, ECKART_ENERGIES):
        assert lv.energy == pytest.approx(want, rel=1e-12)


def test_eckart_internal_identities():
    p = ECKART_FIXTURE
    for lv in eckart_levels(p).levels:
        u, v = lv.internal["u"], lv.internal["v"]
        d = p.A - lv.N - 1.0
        assert 4.0 * u**2 == pytest.approx(-2j * p.beta - lv.energy, abs=1e-12)
        assert 4.0 * v**2 == pytest.approx(+2j * p.beta - lv.energy, abs=1e-12)
        assert u + v == pytest.approx(d, abs=1e-13)
        assert (u - v) * (u + v) == pytest.approx(-1j * p.beta, abs=1e-13)
        a, b, c = lv.internal["a"], lv.internal["b"], lv.internal["c"]
        assert (a - b) ** 2 == pytest.approx((2.0 * p.A - 1.0) ** 2, rel=1e-13)
        assert c == pytest.approx(1.0 + 2.0 * u, abs=1e-14)


def test_eckart_level_count_is_strict_in_well_depth():
    assert eckart_levels(EckartParams(1.0, 0.7)).levels == []
    assert len(eckart_levels(EckartParams(2.0, 0.7)).levels) == 1
    # N < A - 1 is strict: A = 3 admits N = 0, 1 but not N = 2
    assert len(eckart_levels(EckartParams(3.0, 0.7)).levels) == 2


def test_eckart_zero_coupling_reduces_to_real_well():
    spec = eckart_levels(EckartParams(4.2, 0.0))
    assert len(spec.levels) == 4
    for lv in spec.levels:
        d = 4.2 - lv.N - 1.0
        assert lv.energy == pytest.approx(-(d**2), rel=1e-14)
        assert lv.internal["u"].imag == 0.0


def test_eckart_energies_decrease_with_well_depth():
    p = ECKART_FIXTURE
    h = 1e-6
    up = eckart_levels(EckartParams(p.A + h, p.beta))
    dn = eckart_levels(EckartParams(p.A - h, p.beta))
    for n in range(3):
        fd = (up.levels[n].energy - dn.levels[n].energy) / (2.0 * h)
        d = p.A - n - 1.0
        assert fd == pytest.approx(-2.0 * d - 2.0 * p.beta**2 / d**3, rel=1e-6)
        assert fd < 0.0


def test_eckart_gap_fixture_value_and_closed_form():
    g = eckart_gap(ECKART_FIXTURE, 1)
    assert g == pytest.approx(4.284444444444444, rel=1e-12)
    d = ECKART_FIXTURE.A - 1.0 - 1.0
    closed = (2.0 * d + 1.0) * (1.0 + 1.0 / (d**2 * (d + 1.0) ** 2))
    assert g == pytest.approx(closed, rel=1e-12)
    assert eckart_gap(EckartParams(5.0, 0.0), 1) == pytest.approx(7.0, rel=1e-14)


def test_eckart_gap_index_bounds():
    for n in (0, 3, -1):
        with pytest.raises(IndexOutOfRange):
            eckart_gap(ECKART_FIXTURE, n)


def test_eckart_gaps_random_sweep_exceed_one():
    rng = np.random.default_rng(20080308)
    for _ in range(200):
        p = EckartParams(A=rng.uniform(2.0, 10.0), beta=rng.uniform(0.0, 5.0))
        spec = eckart_levels(p)
        for n in range(1, len(spec.levels)):
            g = eckart_gap(p, n)
            d = p.A - n - 1.0
            closed = (2.0 * d + 1.0) * (1.0 + p.beta**2 / (d**2 * (d + 1.0) ** 2))
            assert g > 1.0
            assert g == pytest.approx(closed, rel=1e-9)


# ---- poschl-teller -----------------------------------------------------------


def test_pt_fixture_families_and_energies():
    spec = pt_levels(PT_FIXTURE)
    assert spec.family_counts == {"--": 3, "-+": 1, "+-": 0, "++": 0}
    mm = [lv for lv in spec.levels if (lv.sigma, lv.tau) == (-1, -1)]
    mp = [lv for lv in spec.levels if (lv.sigma, lv.tau) == (-1, +1)]
    assert [lv.N for lv in mm] == [0, 1, 2]
    for lv, want in zip(mm, PT_ENERGIES_MM):
        assert lv.energy == pytest.approx(want, rel=1e-12)
    assert len(mp) == 1 and mp[0].N == 0
    assert mp[0].energy == pytest.approx(PT_ENERGY_MP, rel=1e-12)


def test_pt_shallow_well_has_no_levels():
    assert pt_levels(PTParams(0.4, 0.4, 0.5)).levels == []


def test_pt_degenerate_pair_across_families():
    spec = pt_levels(PTParams(1.0, 3.0, 0.5))
    assert spec.family_counts == {"--": 2, "-+": 0, "+-": 1, "++": 0}
    at_minus_one = [(lv.sigma, lv.tau, lv.N) for lv in spec.levels if lv.energy == pytest.approx(-1.0)]
    assert sorted(at_minus_one) == [(-1, -1, 1), (+1, -1, 0)]
    spec2 = pt_levels(PTParams(5.0, 2.0, 0.5))
    at_minus_four = [(lv.sigma, lv.tau) for lv in spec2.levels if lv.energy == pytest.approx(-4.0)]
    assert sorted(at_minus_four) == [(-1, -1), (-1, +1)]


def test_pt_family_thresholds_are_strict():
    # exactly at threshold the candidate level is excluded
    assert pt_levels(PTParams(0.5, 0.5, 0.5)).family_counts["--"] == 0
    assert pt_levels(PTParams(0.6, 0.4, 0.5)).family_counts["--"] == 0
    assert pt_levels(PTParams(1.5, 0.5, 0.5)).family_counts["-+"] == 0
    # just past it the level appears
    assert pt_levels(PTParams(0.6, 0.45, 0.5)).family_counts["--"] == 1
    assert pt_levels(PTParams(1.55, 0.5, 0.5)).family_counts["-+"] == 1


def test_pt_family_counts_random_sweep():
    rng = np.random.default_rng(20080308)
    for _ in range(200):
        p = PTParams(alpha=rng.uniform(0.1, 8.0), beta=rng.uniform(1.0, 8.0), epsilon=0.5)
        spec = pt_levels(p)
        assert spec.family_counts["--"] >= spec.family_counts["-+"]
        assert spec.family_counts["++"] == 0
        for lv in spec.levels:
            s = lv.sigma * p.alpha + lv.tau * p.beta
            assert 2 * lv.N + 1 < -s
            assert lv.energy == pytest.approx(-((2 * lv.N + 1 + s) ** 2), rel=1e-12)
            assert lv.energy < 0.0


def test_pt_complex_continuation_matches_real_levels():
    p = PT_FIXTURE
    spec = pt_levels(p)
    for lv in spec.levels:
        e = pt_levels_complex(p.alpha, p.beta, lv.sigma, lv.tau, lv.N)
        assert e.imag == 0.0
        assert e.real == pytest.approx(lv.energy, rel=1e-14)


def test_pt_complex_continuation_off_axis():
    e = pt_levels_complex(4.3 + 0.2j, 1.7, -1, -1, 0)
    assert e == pytest.approx(-24.96 - 2.0j, rel=1e-12)
    assert abs(e.imag) > 1.0


def test_pt_complex_continuation_family_guard():
    with pytest.raises(OutsideFamily):
        pt_levels_complex(4.3, 1.7, +1, +1, 0)
    with pytest.raises(OutsideFamily):
        pt_levels_complex(4.3, 1.7, -1, +1, 1)


# ---- hulthen -------------------------------------------------------------------


def test_hulthen_fixture_table():
    spec = hulthen_levels(HULTHEN_FIXTURE)
    assert spec.family_counts == {"--": 2, "+-": 1}
    assert len(spec.levels) == len(HULTHEN_TABLE)
    for lv, (sigma, n, s, kappa, beta_eff, tau, energy) in zip(spec.levels, HULTHEN_TABLE):
        assert (lv.sigma, lv.N, lv.tau) == (sigma, n, tau)
        assert lv.internal["s"] == pytest.approx(s, rel=1e-12)
        assert lv.internal["kappa"] == pytest.approx(kappa, rel=1e-12)
        assert lv.internal["beta_eff"] == pytest.approx(beta_eff, rel=1e-12)
        assert lv.energy == pytest.approx(energy, rel=1e-12)


def test_hulthen_energy_two_forms_agree():
    rng = np.random.default_rng(20080308)
    seen = 0
    for _ in range(1000):
        p = HulthenParams(alpha=rng.uniform(0.1, 5.0), C=rng.uniform(-30.0, -0.1))
        for lv in hulthen_levels(p).levels:
            s = lv.internal["s"].real
            other = p.C + 0.25 * (s - p.C / s) ** 2
            assert lv.energy == pytest.approx(other, rel=1e-12)
            assert lv.energy > 0.0
            assert lv.internal["kappa"].real > 0.0
            seen += 1
    assert seen > 1000  # the sweep actually exercises many accepted levels


def test_hulthen_no_levels_for_nonnegative_coupling_sum():
    assert hulthen_levels(HulthenParams(0.5, 1.0)).levels == []
    assert hulthen_levels(HulthenParams(0.5, 0.0)).levels == []


def test_hulthen_acceptance_window_not_contiguous():
    spec = hulthen_levels(HulthenParams(alpha=10.0, C=-1.21))
    accepted = sorted(lv.N for lv in spec.levels if lv.sigma == -1)
    assert accepted == [0, 1, 2, 3, 5]
    assert spec.family_counts == {"-+": 4, "--": 1}
    for lv in spec.levels:
        if (lv.sigma, lv.tau, lv.N) == (-1, -1, 5):
            assert lv.energy == pytest.approx(0.011025, rel=1e-9)
        if (lv.sigma, lv.tau, lv.N) == (-1, +1, 0):
            assert lv.energy == pytest.approx(19.649519, rel=1e-6)


def test_hulthen_level_rejections():
    with pytest.raises(OutsideFamily):
        hulthen_level(HULTHEN_FIXTURE, -1, 2)  # kappa <= 0
    with pytest.raises(OutsideFamily):
        hulthen_level(HulthenParams(3.0, 4.0), -1, 1)  # s = 0
    with pytest.raises(DegenerateBeta):
        hulthen_level(HulthenParams(3.0, 4.0), -1, 0)  # derived coupling vanishes


def test_hulthen_degenerate_candidate_is_noted_and_dropped():
    spec = hulthen_levels(HulthenParams(3.0, 4.0))
    assert spec.levels == []
    assert spec.notes == ["degenerate coupling at (sigma=-1, n=0); level rejected"]


# ---- level-count cap ---------------------------------------------------------------


def test_level_cap_is_checked_on_the_closed_form_bound(monkeypatch):
    monkeypatch.setattr(spectra, "MAX_LEVELS", 3)
    assert len(eckart_levels(EckartParams(A=4.0, beta=1.0)).levels) == 3
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        eckart_levels(EckartParams(A=4.5, beta=1.0))
    # (alpha + beta - 1)/2 = 2.5: three (-,-) levels fit under a cap of 3
    assert pt_levels(PT_FIXTURE).family_counts["--"] == 3
    monkeypatch.setattr(spectra, "MAX_LEVELS", 2)
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        pt_levels(PT_FIXTURE)
    # the Hulthen loop of the fixture runs n < floor((3 + 0.5 - 1) / 2) + 1 = 2
    monkeypatch.setattr(spectra, "MAX_LEVELS", 2)
    assert len(hulthen_levels(HULTHEN_FIXTURE).levels) == 3
    monkeypatch.setattr(spectra, "MAX_LEVELS", 1)
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        hulthen_levels(HULTHEN_FIXTURE)
    # each level builder checks its model's bound, so a lookup is refused as the enumeration is
    with pytest.raises(ValueError, match=r"^hulthen level bound = 2 exceeds MAX_LEVELS = 1$"):
        hulthen_level(HULTHEN_FIXTURE, -1, 0)
    with pytest.raises(ValueError, match=r"^pt level bound \(alpha \+ beta - 1\)/2 = 2\.5 exceeds MAX_LEVELS = 1$"):
        pt_level(PT_FIXTURE, -1, -1, 0)
    with pytest.raises(ValueError, match=r"^eckart level bound A - 1 = 2\.5 exceeds MAX_LEVELS = 1$"):
        eckart_level(ECKART_FIXTURE, 0)


def _hulthen_levels_on_the_candidate_bound(p: HulthenParams) -> tuple:
    """Levels and notes of the enumeration that tried every n up to
    ceil(sqrt(|C|) + alpha + 1), the loop bound before the tight one."""
    levels, notes = [], []
    for sigma in (-1, +1):
        for n in range(int(np.ceil(np.sqrt(abs(p.C)) + p.alpha + 1.0)) + 1):
            try:
                levels.append(hulthen_level(p, sigma, n))
            except OutsideFamily:
                continue
            except DegenerateBeta:
                notes.append(f"degenerate coupling at (sigma={sigma}, n={n}); level rejected")
    levels.sort(key=lambda lv: (lv.sigma, lv.tau, lv.N))
    return levels, notes


def test_hulthen_tight_bound_keeps_every_level_and_note():
    rng = np.random.default_rng(20080308)
    grid = [
        (alpha, C)
        for alpha in (0.05, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 5.0, 10.0, 20.0)
        for C in (-400.0, -100.0, -30.25, -20.8404, -9.0, -4.0, -1.21, -1.0, -0.25, 0.0, 4.0, 100.0)
    ]
    grid += [(3.0, 4.0), (5.0, 4.0), (5.0, 16.0)]  # degenerate couplings
    grid += list(zip(rng.uniform(0.01, 20.0, 300), rng.uniform(-500.0, 500.0, 300)))
    for alpha, C in grid:
        p = HulthenParams(float(alpha), float(C))
        spec = hulthen_levels(p)
        assert (spec.levels, spec.notes) == _hulthen_levels_on_the_candidate_bound(p), (alpha, C)


def test_hulthen_level_bound_does_not_refuse_levelless_models():
    spec = hulthen_levels(HulthenParams(0.5, 1e9))
    assert spec.levels == [] and spec.family_counts == {}
    with pytest.raises(ValueError, match="MAX_LEVELS"):
        hulthen_levels(HulthenParams(0.5, -1e300))


# ---- spectrum container and serialization ------------------------------------------


def test_energy_sorted_view():
    spec = hulthen_levels(HULTHEN_FIXTURE)
    energies = [lv.energy for lv in energy_sorted(spec)]
    assert energies == sorted(energies)
    assert energies[0] == pytest.approx(0.3025)


def test_to_dict_splits_complex_internals():
    spec = eckart_levels(ECKART_FIXTURE)
    d = spec.to_dict()
    assert d["model"] == "eckart"
    assert d["params"] == {"A": 3.5, "beta": 1.0}
    u = spec.levels[0].internal["u"]
    assert d["levels"][0]["internal"]["u"] == [u.real, u.imag]
    assert d["levels"][0]["sigma"] is None


def test_json_round_trip_is_byte_stable():
    for spec in (eckart_levels(ECKART_FIXTURE), pt_levels(PT_FIXTURE), hulthen_levels(HULTHEN_FIXTURE)):
        text = spectrum_to_json(spec)
        assert text == json.dumps(json.loads(text), indent=2)


def test_csv_uses_full_precision_and_zero_for_untagged():
    csv_h = spectrum_to_csv(hulthen_levels(HULTHEN_FIXTURE))
    assert csv_h.splitlines()[0] == "N,sigma,tau,energy"
    assert "0.30250000000000005" in csv_h
    csv_e = spectrum_to_csv(eckart_levels(ECKART_FIXTURE))
    for row in csv_e.splitlines()[1:]:
        n, sigma, tau, _ = row.split(",")
        assert (sigma, tau) == ("0", "0")
    assert csv_e.endswith("\n")


# ---- level guard ----------------------------------------------------------------


def test_check_level_accepts_own_levels():
    for p, spec in (
        (ECKART_FIXTURE, eckart_levels(ECKART_FIXTURE)),
        (PT_FIXTURE, pt_levels(PT_FIXTURE)),
        (HULTHEN_FIXTURE, hulthen_levels(HULTHEN_FIXTURE)),
    ):
        for lv in spec.levels:
            check_level(p, lv)


def test_check_level_rejects_mismatches():
    eck = eckart_levels(ECKART_FIXTURE).levels[0]
    with pytest.raises(LevelMismatch):
        check_level(PT_FIXTURE, eck)
    with pytest.raises(LevelMismatch):
        check_level(EckartParams(2.0, 1.0), dataclasses.replace(eck, N=5))
    with pytest.raises(LevelMismatch):
        check_level(ECKART_FIXTURE, dataclasses.replace(eck, energy=eck.energy + 0.5))
    hul = hulthen_levels(HULTHEN_FIXTURE).levels[0]
    with pytest.raises(LevelMismatch):
        check_level(HulthenParams(0.6, HULTHEN_FIXTURE.C), hul)
    with pytest.raises(LevelMismatch):
        check_level(HULTHEN_FIXTURE, dataclasses.replace(hul, energy=hul.energy + 1.0))
    with pytest.raises(TypeError):
        check_level(object(), eck)


def test_check_level_returns_the_canonical_level():
    lv = pt_levels(PT_FIXTURE).levels[1]
    nearby = dataclasses.replace(lv, energy=lv.energy * (1 + 1e-12), internal={})
    assert check_level(PT_FIXTURE, nearby) == lv


# ---- one level per key ------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: eckart_level(ECKART_FIXTURE, -1),
        lambda: eckart_level(ECKART_FIXTURE, 3),
        lambda: pt_level(PT_FIXTURE, -1, -1, -1),
        lambda: pt_level(PT_FIXTURE, -1, -1, 3),
        lambda: pt_level(PT_FIXTURE, +1, +1, 0),
        lambda: pt_level(PT_FIXTURE, None, -1, 0),
        lambda: pt_level(PT_FIXTURE, -1, 0, 0),
        lambda: hulthen_level(HULTHEN_FIXTURE, -1, -1),
        lambda: hulthen_level(HULTHEN_FIXTURE, None, 0),
    ],
    ids=["eckart-N-1", "eckart-past", "pt-N-1", "pt-past", "pt-empty-family", "pt-no-sigma", "pt-tau-0",
         "hulthen-N-1", "hulthen-no-sigma"],
)
def test_level_builders_refuse_keys_outside_their_family(build):
    with pytest.raises(OutsideFamily):
        build()


def _families(name: str) -> list:
    """The (sigma, tau) of every family a model's levels can be in."""
    return [(None, None)] if name == "eckart" else [(s, t) for s in (-1, 1) for t in (-1, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(POOL_DOMAINS)), st.floats(0.4, 1.2, exclude_max=True), st.data())
def test_every_level_is_the_one_level_at_its_key_over_the_pool_domains(name, eps, data):
    kind = MODELS[name]
    (a_lo, a_hi, a_open), (b_lo, b_hi, b_open) = POOL_DOMAINS[name]
    a = data.draw(st.floats(a_lo, a_hi, exclude_min=a_open, exclude_max=True))
    b = data.draw(st.floats(b_lo, b_hi, exclude_min=b_open, exclude_max=True))
    model = kind.build(a, b, eps)
    past = {}  # (sigma, tau) -> the N one past the family's last level
    for lv in spectrum_of(model).levels:
        assert check_level(model, lv) == lv
        assert level_of(model, sigma=lv.sigma, tau=lv.tau, N=lv.N) == lv
        assert level_of(model, **{k: getattr(lv, k) for k in kind.level_key}) == lv
        past[(lv.sigma, lv.tau)] = max(past.get((lv.sigma, lv.tau), 0), lv.N + 1)
    for sigma, tau in _families(name):
        for n in (-1, past.get((sigma, tau), 0)):
            assert level_of(model, sigma=sigma, tau=tau, N=n) is None, (sigma, tau, n)
            with pytest.raises(LevelMismatch):
                check_level(model, Level(name, n, sigma, tau, 0.0))


# ---- each family is a closed-form range -------------------------------------------


def _ulp_neighbours(x: float):
    """``x`` and the floats one ulp either side of it."""
    return st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])


@st.composite
def _models_on_a_family_bound(draw):
    """An Eckart model with A at an integer k, k +- 1 ulp or k + 1/2, or a PT model whose
    alpha + beta or alpha - beta sits at an odd integer or one ulp from it: the places where
    a count from the closed form could be one off."""
    if draw(st.booleans()):
        k = draw(st.integers(-2, 40))
        A = draw(_ulp_neighbours(float(k)) | st.just(k + 0.5))
        return EckartParams(A, draw(st.floats(0.0, 3.0)))
    m = 2 * draw(st.integers(0, 30)) + 1
    if draw(st.booleans()):
        # a dyadic beta below m makes alpha = target - beta exact, so alpha + beta is the target
        target, beta = draw(_ulp_neighbours(float(m))), draw(st.integers(1, 7)) / 8
        alpha = target - beta
        assert alpha + beta == target
    else:
        # beta >= m makes alpha - beta exact (Sterbenz), so it is m or one ulp of alpha from it
        beta = float(m + draw(st.integers(0, 4)))
        alpha = draw(_ulp_neighbours(m + beta))
        assert abs(alpha - beta - m) <= math.ulp(alpha)
    return PTParams(alpha, beta, 0.5)


@settings(max_examples=300, deadline=None)
@given(_models_on_a_family_bound())
def test_each_family_is_the_levels_below_the_first_key_its_builder_refuses(model):
    spectrum = spectrum_of(model)
    if isinstance(model, EckartParams):
        families = {(None, None): lambda n: eckart_level(model, n)}
    else:
        families = {(s, t): (lambda n, s=s, t=t: pt_level(model, s, t, n)) for s in (-1, 1) for t in (-1, 1)}
    for (sigma, tau), build in families.items():
        ns = [lv.N for lv in spectrum.levels if (lv.sigma, lv.tau) == (sigma, tau)]
        count = len(ns)
        assert ns == list(range(count))
        assert spectrum.family_counts[family_key(sigma, tau)] == count
        with pytest.raises(OutsideFamily):
            build(count)


def test_eckart_and_pt_enumerations_look_no_level_up(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectra, "level_of", counted(spectra.level_of))
    monkeypatch.setattr(spectra, "model_kind", counted(spectra.model_kind))
    rng = np.random.default_rng(26)
    levels = 0
    for name, enumerate_levels in (("eckart", eckart_levels), ("pt", pt_levels)):
        (a_lo, a_hi, _), (b_lo, b_hi, _) = POOL_DOMAINS[name]
        for a, b in zip(rng.uniform(a_lo, a_hi, 100), rng.uniform(b_lo, b_hi, 100)):
            levels += len(enumerate_levels(MODELS[name].build(a, b, 0.5)).levels)
    assert levels > 0
    assert calls == []
