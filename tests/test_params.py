import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoreg.params import (
    ParameterError,
    PhysicalConfig,
    derive_params,
    hole_leak_log,
    hole_leak_probability,
    onsite_interaction_hz,
    reference_config,
    parse_config_text,
    recoil_energy_hz,
    regime_check,
    trap_energy_scale_hz,
    tunneling_rate_hz,
)

RB87_MASS = 1.4431608951127549e-25
LAMBDA = 785e-9


class TestRecoilEnergy:
    def test_rb87_785nm(self):
        # direct evaluation of h/(2 m lambda^2)
        assert recoil_energy_hz(LAMBDA, RB87_MASS) == pytest.approx(3725.392, abs=0.01)
        assert abs(recoil_energy_hz(LAMBDA, RB87_MASS) - 3725.0) <= 1.0

    def test_wavelength_scaling(self):
        e = recoil_energy_hz(LAMBDA, RB87_MASS)
        assert recoil_energy_hz(2 * LAMBDA, RB87_MASS) == pytest.approx(e / 4, rel=1e-14)

    def test_mass_scaling(self):
        e = recoil_energy_hz(LAMBDA, RB87_MASS)
        assert recoil_energy_hz(LAMBDA, 2 * RB87_MASS) == pytest.approx(e / 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ParameterError):
            recoil_energy_hz(-1e-9, RB87_MASS)
        with pytest.raises(ParameterError):
            recoil_energy_hz(LAMBDA, 0.0)


class TestTunnelingRate:
    def test_reference_depth(self):
        e_r = recoil_energy_hz(LAMBDA, RB87_MASS)
        assert tunneling_rate_hz(22.0, e_r) == pytest.approx(7.2016, abs=2e-3)

    def test_deep_lattice_suppression(self):
        e_r = 3725.0
        assert tunneling_rate_hz(400.0, e_r) < 1e-10 * e_r

    def test_monotone_decreasing(self):
        e_r = 3725.0
        depths = [5 + 45 * k / 60 for k in range(61)]
        rates = [tunneling_rate_hz(v, e_r) for v in depths]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_insulator_ratio(self):
        cfg = reference_config()
        e_r = recoil_energy_hz(cfg.wavelength_m, cfg.mass_kg)
        ratio = onsite_interaction_hz(cfg) / tunneling_rate_hz(22.0, e_r)
        assert ratio == pytest.approx(500.0, rel=0.02)


class TestOnsiteInteraction:
    def test_reference_value(self):
        u = onsite_interaction_hz(reference_config())
        assert u == pytest.approx(3580.77, abs=0.01)
        assert u == pytest.approx(3574.0, rel=0.005)

    def test_zero_without_scattering(self):
        cfg = replace(reference_config(), scattering_length_m=1e-30)
        assert onsite_interaction_hz(cfg) == pytest.approx(0.0, abs=1e-15)

    def test_linear_in_scattering_length(self):
        cfg = reference_config()
        doubled = replace(cfg, scattering_length_m=2 * cfg.scattering_length_m)
        assert onsite_interaction_hz(doubled) == pytest.approx(
            2 * onsite_interaction_hz(cfg), rel=1e-14
        )


class TestTrapScale:
    def test_reference_value(self):
        assert trap_energy_scale_hz(8.0, LAMBDA, RB87_MASS) == pytest.approx(0.0423885, abs=1e-6)

    def test_edge_energy(self):
        delta = trap_energy_scale_hz(8.0, LAMBDA, RB87_MASS)
        u = onsite_interaction_hz(reference_config())
        assert delta * 275**2 / u == pytest.approx(0.9, rel=0.02)

    def test_homogeneous_limit(self):
        assert trap_energy_scale_hz(0.0, LAMBDA, RB87_MASS) == 0.0

    def test_quadratic_scaling(self):
        d = trap_energy_scale_hz(8.0, LAMBDA, RB87_MASS)
        assert trap_energy_scale_hz(16.0, LAMBDA, RB87_MASS) == pytest.approx(4 * d, rel=1e-14)


class TestDeriveParams:
    def test_reference_chain(self, reference_params):
        p = reference_params
        assert p.kappa_over_u == pytest.approx(0.13233, abs=1e-4)
        assert p.kappa_over_u == pytest.approx(0.13, rel=0.05)
        assert p.vc_over_u == pytest.approx(15.5, rel=0.02)
        assert p.s_a == pytest.approx(6.7e-8, rel=0.02)

    def test_exact_relations(self, reference_cfg, reference_params):
        p = reference_params
        assert p.gamma_m_over_u * p.u_hz == pytest.approx(2 * reference_cfg.linewidth_hz, rel=1e-14)
        expected_omega = math.sqrt(reference_cfg.franck_condon) * reference_cfg.atomic_rabi_gamma
        assert p.omega_m_over_u / (reference_cfg.linewidth_hz / p.u_hz) == pytest.approx(
            expected_omega, rel=1e-14
        )

    def test_light_shift_switch(self, reference_cfg):
        single = derive_params(replace(reference_cfg, light_shift_doubled=False))
        doubled = derive_params(reference_cfg)
        assert doubled.vc_over_u == pytest.approx(2 * single.vc_over_u, rel=1e-14)

    def test_resonant_catalysis_rejected(self, reference_cfg):
        with pytest.raises(ParameterError):
            derive_params(replace(reference_cfg, detuning_gamma=0.0))

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_rabi_scale_consistency(self, scale):
        base = derive_params(reference_config())
        scaled = derive_params(
            replace(reference_config(), atomic_rabi_gamma=25.0 * scale)
        )
        assert scaled.omega_m_over_u == pytest.approx(scale * base.omega_m_over_u, rel=1e-12)
        assert scaled.s_a == pytest.approx(scale**2 * base.s_a, rel=1e-12)
        assert scaled.vc_over_u == pytest.approx(scale**2 * base.vc_over_u, rel=1e-12)
        assert scaled.kappa_over_u == pytest.approx(scale**2 * base.kappa_over_u, rel=1e-12)

    def test_kappa_decreases_with_u(self):
        # stronger interactions detune the molecular line: physical kappa drops
        cfg = reference_config()
        kappas = []
        for a_s in (4e-9, 5.6e-9, 8e-9):
            p = derive_params(replace(cfg, scattering_length_m=a_s))
            kappas.append(p.kappa_over_u * p.u_hz)
        assert kappas[0] > kappas[1] > kappas[2]

    def test_all_nonnegative(self, reference_params):
        p = reference_params
        for value in (p.j_over_u, p.delta_over_u, p.kappa_over_u, p.vc_over_u, p.s_a):
            assert value >= 0.0


class TestRegimeCheck:
    def test_reference_regime(self, reference_params, reference_cfg):
        r = regime_check(reference_params, reference_cfg.register_sites, reference_cfg.atoms)
        assert r.strength == pytest.approx(1.5, rel=0.10)
        assert r.omega_ratio == pytest.approx(8.839e-3, abs=2e-5)
        assert r.omega_ok and r.strength_ok and r.edge_ok and r.holes_ok
        # the printed barrier figure of 0.28 is not reproduced by this chain
        assert r.barrier == pytest.approx(0.339, abs=0.002)

    def test_no_tunneling_sentinel(self, reference_params):
        frozen = replace(reference_params, j_over_u=0.0)
        r = regime_check(frozen, 501, 551)
        assert math.isinf(r.strength) and r.strength_ok
        assert r.p_h == 0.0

    def test_even_register_rejected(self, reference_params):
        with pytest.raises(ParameterError):
            regime_check(reference_params, 500, 551)


class TestHoleLeak:
    def test_no_tunneling(self):
        assert hole_leak_probability(0.0, 1.0, 11, 21) == 0.0

    def test_closed_vs_product_reference(self):
        closed = hole_leak_probability(5.0, 1.0, 11, 21)
        product = hole_leak_probability(5.0, 1.0, 11, 21, form="product")
        assert closed == pytest.approx(product, rel=1e-10)

    def test_reference_register_negligible(self, reference_params):
        p_h = hole_leak_probability(
            reference_params.j_over_u, reference_params.delta_over_u, 501, 551
        )
        assert p_h < 1e-10
        assert p_h == pytest.approx(3.072e-26, rel=1e-3)

    def test_zero_trap_rejected(self):
        with pytest.raises(ParameterError):
            hole_leak_probability(1.0, 0.0, 11, 21)

    def test_underflow_clamps(self):
        # deep barrier: log-probability far below the float range
        assert hole_leak_probability(1e-3, 1.0, 11, 1001) == 0.0

    @given(
        n_half=st.integers(min_value=1, max_value=49),
        extra=st.integers(min_value=1, max_value=50),
        ratio=st.floats(min_value=0.05, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_equals_product(self, n_half, extra, ratio):
        n = 2 * n_half + 1
        big_n = n + 2 * extra
        log_c = hole_leak_log(ratio, 1.0, n, big_n, form="closed")
        log_p = hole_leak_log(ratio, 1.0, n, big_n, form="product")
        # relative agreement of the probabilities themselves
        assert abs(math.expm1(log_c - log_p)) < 1e-8


class TestConfigParsing:
    def test_roundtrip_with_comments(self):
        text = """
        # reference setup
        atoms = 551
        register_sites = 501   # odd
        trap_frequency_hz = 8.0
        light_shift_doubled = true
        """
        cfg = parse_config_text(text)
        assert cfg.atoms == 551
        assert cfg.register_sites == 501
        assert cfg.light_shift_doubled is True

    def test_unknown_key_named(self):
        with pytest.raises(ParameterError, match="lattice_depth"):
            parse_config_text("lattice_depth = 22")

    def test_bad_line_reports_number(self):
        with pytest.raises(ParameterError, match="line 2"):
            parse_config_text("atoms = 551\nnonsense\n")

    @pytest.mark.parametrize("key", ["wavelength_m", "trap_frequency_hz", "detuning_gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_rejected_with_key(self, key, value):
        with pytest.raises(ParameterError, match=f"{key} must be finite"):
            parse_config_text(f"{key} = {value}")

    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            PhysicalConfig(register_sites=500)  # even
        with pytest.raises(ParameterError):
            PhysicalConfig(atoms=400, register_sites=501)  # n > N
        with pytest.raises(ParameterError):
            PhysicalConfig(franck_condon=0.0)
