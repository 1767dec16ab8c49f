"""Forward-model tests against independent quadrature, FD, and hand-evaluated oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import j0

from oximap import autodiff as ad
from oximap.physics import (
    AcquisitionProtocol,
    ForwardModelConfig,
    PhysioConstants,
    _kernel_table,
    _model,
    blood_signal,
    blood_volume_weight,
    characteristic_time,
    delta_omega,
    dephasing_integral_t,
    mean_square_inhomogeneity,
    normalize_signal,
    normalized_model_signal,
    normalized_model_signal_t,
    one_minus_j0,
    r2_prime,
    static_dephasing_integral,
    steady_state_magnetization,
    total_signal,
)


def quad_oracle(a):
    """Adaptive-quadrature reference for the dephasing integral at a = dw * tau."""

    def integrand(u):
        return (2.0 + u) * np.sqrt(1.0 - u) / (3.0 * u * u) * (1.0 - j0(1.5 * a * u))

    val, err = integrate.quad(integrand, 1e-12, 1.0, limit=400, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-9 * max(val, 1.0)
    return val


class TestProtocolAndConstants:
    def test_default_protocol(self, proto):
        assert proto.n_t == 11
        assert proto.tau[proto.se_index] == 0.0
        assert proto.tau_array[0] == -0.016 and proto.tau_array[-1] == 0.064

    def test_spin_echo_is_the_zero_tau(self):
        assert AcquisitionProtocol(tau=(-0.016, 0.0, 0.076)).se_index == 1
        assert AcquisitionProtocol(tau=(0.0, 0.01)).se_index == 0

    def test_protocol_validation(self):
        for tau in ((-0.01, 0.01), (0.0, 0.01, 0.0), ()):
            with pytest.raises(ValueError, match="exactly one tau"):
                AcquisitionProtocol(tau=tau)
        with pytest.raises(ValueError, match="ti must be smaller"):
            AcquisitionProtocol(ti=4.0)

    def test_model_config_validation(self):
        with pytest.raises(ValueError, match="variant"):
            ForwardModelConfig(variant="fast")
        with pytest.raises(ValueError, match="compartments"):
            ForwardModelConfig(compartments=3)

    def test_diffusion_time(self, constants):
        assert_allclose(constants.diffusion_time, 3.38e-3, rtol=1e-12)


class TestScalarQuantities:
    def test_delta_omega_reference(self, constants):
        # hand evaluation: 2.675e8 * (4/3) * pi * 2.64e-7 * 0.34 * 0.4 * 3.0
        assert_allclose(delta_omega(0.4, constants, 3.0), 120.6906, rtol=1e-5)

    def test_delta_omega_linearity(self, constants):
        base = delta_omega(0.2, constants, 3.0)
        assert_allclose(delta_omega(0.4, constants, 3.0), 2 * base, rtol=1e-12)
        assert_allclose(delta_omega(0.2, constants, 7.0), base * 7 / 3, rtol=1e-12)
        assert delta_omega(0.0, constants, 3.0) == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            delta_omega(-0.1, constants, 3.0)

    def test_characteristic_time(self, constants):
        dw = delta_omega(0.4, constants, 3.0)
        assert_allclose(characteristic_time(dw), 12.428e-3, rtol=1e-3)
        assert characteristic_time(0.0) == np.inf

    def test_mean_square_inhomogeneity(self, constants):
        # hand evaluation: (4/45) * 0.34 * 0.66 * (2.64e-7 * 3)^2
        assert_allclose(mean_square_inhomogeneity(constants, 3.0), 1.25116e-14, rtol=1e-4)

    def test_steady_state_magnetization(self, proto, constants):
        m = steady_state_magnetization(proto.tr, proto.ti, constants.t1_blood)
        assert_allclose(m, 0.219856, rtol=1e-4)

    def test_blood_volume_weight(self, proto, constants):
        assert_allclose(blood_volume_weight(0.025, proto, constants), 4.2597e-3, rtol=1e-4)

    def test_r2_prime(self, constants):
        assert_allclose(r2_prime((0.4, 0.025), constants, 3.0), 3.01727, rtol=1e-5)
        assert r2_prime((0.4, 0.0), constants, 3.0) == 0.0


class TestDephasingIntegral:
    def test_zero_at_tau_zero(self):
        assert static_dephasing_integral(120.0, 0.0) == 0.0

    def test_even_in_tau(self):
        taus = np.array([-0.016, -0.004, 0.004, 0.016, 0.064])
        vals = static_dephasing_integral(121.0, taus)
        assert_allclose(vals, static_dephasing_integral(121.0, -taus), rtol=1e-14)

    def test_against_adaptive_quadrature(self, constants):
        dw = delta_omega(0.4, constants, 3.0)
        for tau in (0.004, 0.008, 0.016, 0.032, 0.064, 0.128):
            got = static_dephasing_integral(dw, tau)
            assert_allclose(got, quad_oracle(dw * tau), rtol=2e-5)

    def test_reference_point_tight(self, constants):
        dw = delta_omega(0.4, constants, 3.0)
        got = static_dephasing_integral(dw, 0.064)
        assert_allclose(got, quad_oracle(dw * 0.064), rtol=2e-6)

    def test_self_convergence(self, constants):
        taus = np.array([0.008, 0.016, 0.032, 0.064])
        for oef in (0.2, 0.4, 0.6, 0.8):
            dw = delta_omega(oef, constants, 3.0)
            i64 = static_dephasing_integral(dw, taus, 64)
            i256 = static_dephasing_integral(dw, taus, 256)
            assert np.max(np.abs(i64 - i256) / i256) < 1e-5

    def test_small_argument_limit(self):
        # integral of 0.1875 (2+u) sqrt(1-u) a^2 du = 0.3 a^2 as a -> 0
        a = 1e-4
        got = static_dephasing_integral(a, 1.0)
        assert_allclose(got, 0.3 * a * a, rtol=1e-6)

    def test_odd_intervals_rejected(self):
        with pytest.raises(ValueError, match="even"):
            static_dephasing_integral(120.0, 0.01, n_intervals=7)

    def test_one_minus_j0_series_continuity(self):
        xs = np.array([0.00999, 0.01, 0.01001])
        vals = one_minus_j0(xs)
        assert_allclose(vals, [1.0 - j0(x) for x in xs], rtol=1e-10, atol=1e-18)

    @given(st.floats(1.0, 300.0), st.floats(1e-4, 0.1))
    def test_positive_and_even(self, dw, tau):
        v = static_dephasing_integral(dw, tau)
        assert v > 0
        assert_allclose(v, static_dephasing_integral(dw, -tau), rtol=1e-14)


class TestTabulatedKernel:
    def test_against_adaptive_quadrature(self):
        # a beyond 32 makes the table grow once; the oracle itself loses
        # accuracy near a = 0.01, where 1 - J0 cancels at its lower limit
        a = np.linspace(0.05, 39.95, 120)
        ref = np.array([quad_oracle(x) for x in a])
        assert np.max(np.abs(dephasing_integral_t(a, slope=False)[0] - ref)) <= 1e-7

    def test_slope_against_difference_of_quadrature(self):
        a = np.linspace(0.01, 30.0, 90)
        h = 1e-4
        fd = (
            static_dephasing_integral(a + h, 1.0, 1024) - static_dephasing_integral(a - h, 1.0, 1024)
        ) / (2 * h)
        assert_allclose(dephasing_integral_t(a, slope=True)[1], fd, rtol=0, atol=1e-6)

    @given(st.floats(-60.0, 60.0))
    def test_even_and_zero_at_zero(self, a):
        value = lambda x: dephasing_integral_t(np.array(x), slope=False)[0]
        assert value(a) == value(-a)
        assert value(0.0) == 0.0

    def test_out_of_range_rejected_and_nan_kept(self):
        for bad in (300.0, np.inf):
            with pytest.raises(ValueError, match="beyond the dephasing table"):
                dephasing_integral_t(np.array([1.0, bad]), slope=False)
        got = dephasing_integral_t(np.array([np.nan, 1.0]), slope=False)[0]
        assert np.isnan(got[0]) and got[1] == dephasing_integral_t(np.array(1.0), slope=False)[0]

    def test_values_do_not_depend_on_table_growth(self):
        a = np.linspace(0.0, 31.99, 2001)
        grown = np.append(a, 50.0)  # 50 needs the table for a <= 64
        _kernel_table.cache_clear()
        first = dephasing_integral_t(a, slope=True)
        after = [x[:-1] for x in dephasing_integral_t(grown, slope=True)]
        _kernel_table.cache_clear()
        grown_first = [x[:-1] for x in dephasing_integral_t(grown, slope=True)]
        small_after = dephasing_integral_t(a, slope=True)
        for other in (after, grown_first, small_after):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(first, other))

    def test_one_read_gives_both_two_pass_results(self, rng):
        # I and dI/da from one table read equal the value and slope
        # formulas, each evaluated on a read of its own
        a = rng.uniform(-31.9, 31.9, (2000, 11))
        a[0, :4] = [0.0, 1.0, -2.5, 31.0]  # nodes and zero
        coef = _kernel_table(32)

        def read(a):
            x = np.abs(a) * 32
            k = x.astype(np.intp)
            return x - k, [np.take(row, k) for row in coef]

        t, (c0, c1, c2, c3) = read(a)
        value = c0 + t * (c1 + t * (c2 + t * c3))
        t, (_, c1, c2, c3) = read(a)
        slope = (c1 + t * (2.0 * c2 + 3.0 * t * c3)) * 32 * np.sign(a)
        i, di = dephasing_integral_t(a, slope=True)
        assert np.array_equal(i, value) and np.array_equal(di, slope)
        i_only, none = dephasing_integral_t(a, slope=False)
        assert np.array_equal(i_only, value) and none is None


class TestBloodCompartment:
    def test_reference_value_at_spin_echo(self, proto, constants):
        sb = blood_signal(proto, constants)
        # hand evaluation of the motional-narrowing expression at tau = 0
        assert_allclose(sb[proto.se_index], 0.0955056, rtol=1e-4)

    def test_positive_and_bounded(self, proto, constants):
        sb = blood_signal(proto, constants)
        assert np.all(sb > 0)
        assert np.all(sb < 1)

    def test_oef_independent_by_construction(self, proto, constants):
        # the signature admits no oef; the value is protocol-and-constants only
        assert blood_signal(proto, constants).shape == (proto.n_t,)

    def test_negative_sqrt_argument_rejected(self, constants):
        proto = AcquisitionProtocol(tau=(-0.016, 0.0, 0.076))
        with pytest.raises(ValueError, match=r"te-tau negative at tau index 2"):
            blood_signal(proto, constants)


# the tissue compartment alone, under each tissue model
FULL_1C = ForwardModelConfig(variant="full", compartments=1)
ASYM_1C = ForwardModelConfig(variant="asymptotic", compartments=1)


class TestTissueAndTotal:
    def test_zero_dbv_is_flat(self, proto, constants):
        s = total_signal((0.4, 0.0), proto, constants, FULL_1C)
        assert_allclose(s, np.exp(-constants.r2_tissue * proto.te), rtol=1e-14)

    def test_zero_oef_is_flat(self, proto, constants):
        s = total_signal((0.0, 0.05), proto, constants, FULL_1C)
        assert_allclose(s, np.exp(-constants.r2_tissue * proto.te), rtol=1e-14)

    def test_spin_echo_value(self, proto, constants):
        s = total_signal((0.4, 0.025), proto, constants, FULL_1C)
        assert_allclose(s[proto.se_index], np.exp(-constants.r2_tissue * proto.te), rtol=1e-14)

    def test_decreasing_in_dbv(self, proto, constants):
        lo = total_signal((0.4, 0.02), proto, constants, FULL_1C)
        hi = total_signal((0.4, 0.05), proto, constants, FULL_1C)
        off_se = np.arange(proto.n_t) != proto.se_index
        assert np.all(hi[off_se] < lo[off_se])

    def test_asymptotic_branches_by_hand(self, proto, constants):
        oef, dbv = 0.4, 0.03
        dw = delta_omega(oef, constants, 3.0)
        s = total_signal((oef, dbv), proto, constants, ASYM_1C)
        base = np.exp(-constants.r2_tissue * proto.te)
        a_short = dw * 0.008  # below the transition
        assert_allclose(s[3], base * np.exp(-0.3 * dbv * a_short**2), rtol=1e-12)
        a_long = dw * 0.064  # beyond the transition
        assert_allclose(s[-1], base * np.exp(dbv * (1.0 - a_long)), rtol=1e-12)

    def test_boundary_takes_long_branch(self, proto, constants):
        dw = delta_omega(0.4, constants, 3.0)
        tc = 1.5 / dw
        p = AcquisitionProtocol(tau=(0.0, tc))
        s = total_signal((0.4, 0.03), p, constants, ASYM_1C)
        base = np.exp(-constants.r2_tissue * p.te)
        assert_allclose(s[1], base * np.exp(0.03 * (1.0 - 1.5)), rtol=1e-12)

    @given(st.floats(0.05, 0.85))
    def test_boundary_takes_long_branch_for_any_oef(self, constants, oef):
        # tau exactly at characteristic_time(delta_omega(oef)) is linear, in
        # the plain-array model and in the training entry alike
        dbv = 0.03
        dw = delta_omega(oef, constants, 3.0)
        tc = float(characteristic_time(dw))
        p = AcquisitionProtocol(tau=(0.0, tc))
        linear = dbv * (1.0 - dw * tc)
        s = total_signal((oef, dbv), p, constants, ASYM_1C)
        assert_allclose(np.log(s[1] / s[0]), linear, rtol=1e-9)
        out, _ = normalized_model_signal_t(np.array([oef]), np.array([dbv]), p, constants, ASYM_1C)
        assert_allclose(out[0, 1], linear, rtol=1e-9)

    def test_models_agree_near_spin_echo(self, proto, constants):
        taus = np.array([-0.002, -0.001, 0.0, 0.001, 0.002])
        p = AcquisitionProtocol(tau=tuple(taus))
        for oef in (0.2, 0.4, 0.6):
            for dbv in (0.01, 0.03, 0.05):
                full = np.log(total_signal((oef, dbv), p, constants, FULL_1C))
                asym = np.log(total_signal((oef, dbv), p, constants, ASYM_1C))
                assert np.max(np.abs(full - asym)) < 1e-3

    def test_long_tau_slope_matches_linear_rate(self, proto, constants):
        # d log S / d tau at tau = 64 ms vs -dbv * dw, within 3 percent
        h = 1e-5
        for oef, dbv in ((0.4, 0.03), (0.5, 0.05), (0.6, 0.02)):
            dw = delta_omega(oef, constants, 3.0)
            assert dw * 0.064 > 4.0
            f = lambda t: -dbv * static_dephasing_integral(dw, t)
            slope = (f(0.064 + h) - f(0.064 - h)) / (2 * h)
            assert abs(slope - (-dbv * dw)) / (dbv * dw) < 0.03

    def test_total_one_compartment_is_tissue(self, proto, constants):
        dw = delta_omega(0.4, constants, 3.0)
        base = np.exp(-constants.r2_tissue * proto.te)
        tissue = base * np.exp(-0.025 * dephasing_integral_t(dw * proto.tau_array, slope=False)[0])
        assert_allclose(total_signal((0.4, 0.025), proto, constants, FULL_1C), tissue, rtol=1e-14)

    def test_total_two_compartment_is_convex_mix(self, proto, constants):
        cfg = ForwardModelConfig(variant="full", compartments=2)
        tot = total_signal((0.4, 0.025), proto, constants, cfg)
        tis = total_signal((0.4, 0.025), proto, constants, FULL_1C)
        blo = blood_signal(proto, constants)
        lo = np.minimum(tis, blo)
        hi = np.maximum(tis, blo)
        assert np.all(tot >= lo - 1e-15) and np.all(tot <= hi + 1e-15)
        zp = blood_volume_weight(0.025, proto, constants)
        assert_allclose(tot, zp * blo + (1 - zp) * tis, rtol=1e-14)

    def test_broadcasting_over_leading_axes(self, proto, constants):
        oef = np.full((4, 5), 0.4)
        dbv = np.full((4, 5), 0.025)
        cfg = ForwardModelConfig()
        out = total_signal((oef, dbv), proto, constants, cfg)
        assert out.shape == (4, 5, proto.n_t)
        single = total_signal((0.4, 0.025), proto, constants, cfg)
        assert_allclose(out[2, 3], single, rtol=1e-14)


class TestNormalization:
    def test_zero_at_spin_echo_and_scale_invariance(self, proto, constants):
        s = total_signal((0.4, 0.025), proto, constants, FULL_1C)
        n1 = normalize_signal(s, proto)
        n2 = normalize_signal(100.0 * s, proto)
        assert n1[proto.se_index] == 0.0
        assert_allclose(n1, n2, rtol=0, atol=1e-12)

    def test_non_positive_rejected_with_index(self, proto):
        s = np.ones(proto.n_t)
        s[5] = -0.5
        with pytest.raises(ValueError, match="tau index 5"):
            normalize_signal(s, proto)

    def test_length_mismatch_rejected(self, proto):
        with pytest.raises(ValueError, match="samples"):
            normalize_signal(np.ones(7), proto)

    def test_one_compartment_full_closed_form(self, proto, constants):
        cfg = ForwardModelConfig(variant="full", compartments=1)
        got = normalized_model_signal(0.4, 0.025, proto, constants, cfg)
        dw = delta_omega(0.4, constants, 3.0)
        expected = -0.025 * dephasing_integral_t(dw * proto.tau_array, slope=False)[0]
        assert_allclose(got, expected, rtol=1e-14)

    def test_matches_log_ratio_route(self, proto, constants):
        for variant in ("full", "asymptotic"):
            for comp in (1, 2):
                cfg = ForwardModelConfig(variant=variant, compartments=comp)
                direct = normalized_model_signal(0.35, 0.04, proto, constants, cfg)
                via_total = normalize_signal(
                    total_signal((0.35, 0.04), proto, constants, cfg), proto
                )
                assert_allclose(direct, via_total, rtol=0, atol=1e-12)


# the signal model composed of elementary tape ops: the oracle for the
# closed-form body and its partials -----------------------------------------


def _dephasing_integral_oracle_t(dw_t, proto):
    taus = proto.tau_array
    a = dw_t.data[..., None] * taus
    value, slope = dephasing_integral_t(a, slope=True)
    slope = slope * taus
    return ad.custom(value, (dw_t,), lambda g: ((g * slope).sum(axis=-1),))


def _expand(t):
    return ad.reshape(t, t.data.shape + (1,))


def _tissue_log_t(oef_t, dbv_t, proto, c, cfg):
    slope = float(delta_omega(1.0, c, proto.b0))
    dw_t = ad.custom(delta_omega(oef_t.data, c, proto.b0), (oef_t,), lambda g: (g * slope,))
    dbv_e = _expand(dbv_t)
    if cfg.variant == "full":
        return -(dbv_e * _dephasing_integral_oracle_t(dw_t, proto))
    abs_tau = np.abs(proto.tau_array)
    a_t = _expand(dw_t) * abs_tau
    short = -0.3 * dbv_e * (a_t * a_t)
    long = dbv_e * (1.0 - a_t)
    return ad.where(abs_tau < characteristic_time(dw_t.data[..., None]), short, long)


def _total_signal_t(oef_t, dbv_t, proto, c, cfg):
    tissue = ad.exp(_tissue_log_t(oef_t, dbv_t, proto, c, cfg)) * float(np.exp(-c.r2_tissue * proto.te))
    if cfg.compartments == 1:
        return tissue
    zp = blood_volume_weight(_expand(dbv_t), proto, c)
    return zp * blood_signal(proto, c) + (1.0 - zp) * tissue


def _normalized_oracle_t(oef_t, dbv_t, proto, c, cfg):
    if cfg.compartments == 1:
        return _tissue_log_t(oef_t, dbv_t, proto, c, cfg)
    log_total = ad.log(_total_signal_t(oef_t, dbv_t, proto, c, cfg))
    se = proto.se_index
    return log_total - ad.getitem(log_total, (..., slice(se, se + 1)))


VARIANTS = [ForwardModelConfig(variant=v, compartments=n) for v in ("full", "asymptotic") for n in (1, 2)]


class TestDifferentiableTwins:
    @pytest.mark.parametrize("cfg", VARIANTS, ids=lambda f: f"{f.variant}-{f.compartments}")
    def test_plain_entry_points_equal_the_tape_oracle(self, proto, constants, cfg):
        oef = np.array([0.0, 0.05, 0.2, 0.4, 0.6, 0.9])
        dbv = np.array([0.03, 0.01, 0.025, 0.05, 0.0, 0.1])
        oracle = _normalized_oracle_t(ad.Tensor(oef), ad.Tensor(dbv), proto, constants, cfg).data
        assert np.array_equal(normalized_model_signal(oef, dbv, proto, constants, cfg), oracle)
        total = _total_signal_t(ad.Tensor(oef), ad.Tensor(dbv), proto, constants, cfg).data
        assert np.array_equal(total_signal((oef, dbv), proto, constants, cfg), total)
        one = _total_signal_t(ad.Tensor(0.4), ad.Tensor(0.03), proto, constants, cfg).data
        assert np.array_equal(total_signal((0.4, 0.03), proto, constants, cfg), one)

    @pytest.mark.parametrize("cfg", VARIANTS, ids=lambda f: f"{f.variant}-{f.compartments}")
    def test_one_node_vjp_matches_the_tape_oracle(self, proto, constants, rng, cfg):
        # the partials, contracted with a cotangent as the likelihood's node
        # does, against the gradient of the composed tape oracle
        oef = rng.uniform(0.0, 0.95, 400)
        dbv = rng.uniform(0.001, 0.2, 400)
        oef[0] = 0.0
        g = rng.normal(size=(400, proto.n_t))
        s, (d_oef, d_dbv) = normalized_model_signal_t(oef.copy(), dbv.copy(), proto, constants, cfg)
        to, td = ad.Tensor(oef.copy()), ad.Tensor(dbv.copy())
        ref = _normalized_oracle_t(to, td, proto, constants, cfg)
        ad.backward(ad.tsum(ref * g))
        assert np.array_equal(s, ref.data)
        assert_allclose((g * d_oef).sum(-1), to.grad, rtol=1e-10, atol=0)
        assert_allclose((g * d_dbv).sum(-1), td.grad, rtol=1e-10, atol=0)

    def test_tape_output_is_one_node_on_oef_and_dbv(self, proto, constants):
        # one partial per model parent of the likelihood's node, oef and dbv,
        # each the signal's shape and in its own buffer: the likelihood
        # overwrites the signal in place
        for cfg in VARIANTS:
            oef, dbv = np.array([0.3, 0.5]), np.array([0.02, 0.04])
            s, parts = normalized_model_signal_t(oef, dbv, proto, constants, cfg)
            assert len(parts) == 2
            for a in (s, *parts):
                assert a.shape == (2, proto.n_t) and a.flags.owndata

    @pytest.mark.parametrize("cfg", VARIANTS, ids=lambda f: f"{f.variant}-{f.compartments}")
    def test_nan_oef_stays_in_its_row(self, proto, constants, cfg):
        # a diverged fine-tune must reach the non-finite-loss check
        oef = np.array([0.3, 0.45, 0.6])
        dbv = np.array([0.02, 0.03, 0.05])
        bad = oef.copy()
        bad[1] = np.nan
        keep = [0, 2]
        for normalized in (True, False):
            clean = _model(oef, dbv, proto, constants, cfg, normalized, grad=True)
            s, parts = _model(bad, dbv, proto, constants, cfg, normalized, grad=True)
            for got, ref in zip([s, *parts], [clean[0], *clean[1]]):
                assert np.all(np.isnan(got[1]))
                assert got[keep].tobytes() == ref[keep].tobytes()
        plain = normalized_model_signal(bad, dbv, proto, constants, cfg)
        assert np.all(np.isnan(plain[1]))
        assert plain[keep].tobytes() == normalized_model_signal(oef, dbv, proto, constants, cfg)[keep].tobytes()

    def test_tape_forward_matches_numpy(self, proto, constants):
        # the plain-array entry point and the training entry share one body:
        # analysis reports exactly the numbers training optimizes
        oef = np.array([0.2, 0.4, 0.6])
        dbv = np.array([0.01, 0.025, 0.05])
        for cfg in VARIANTS:
            out, _ = normalized_model_signal_t(oef.copy(), dbv.copy(), proto, constants, cfg)
            assert np.array_equal(out, normalized_model_signal(oef, dbv, proto, constants, cfg))

    def test_negative_oef_rejected_by_both_entry_points(self, proto, constants):
        cfg = ForwardModelConfig()
        with pytest.raises(ValueError, match="non-negative"):
            normalized_model_signal(np.array([-0.1]), np.array([0.02]), proto, constants, cfg)
        with pytest.raises(ValueError, match="non-negative"):
            normalized_model_signal_t(np.array([-0.1]), np.array([0.02]), proto, constants, cfg)

    def test_dephasing_integral_gradient(self, proto, rng):
        # dI/da read from the table, against a central difference of I in dw
        dw = np.array([60.0, 121.0, 180.0])
        taus = proto.tau_array
        r = rng.normal(size=(3, proto.n_t))
        _, slope = dephasing_integral_t(dw[:, None] * taus, slope=True)
        grad = (r * slope * taus).sum(axis=-1)
        h = 1e-6
        for i in range(3):
            up, dn = dw.copy(), dw.copy()
            up[i] += h
            dn[i] -= h
            fu = float((dephasing_integral_t(up[:, None] * taus, slope=False)[0] * r).sum())
            fd = float((dephasing_integral_t(dn[:, None] * taus, slope=False)[0] * r).sum())
            assert_allclose(grad[i], (fu - fd) / (2 * h), rtol=1e-6)

    @pytest.mark.parametrize("variant", ["full", "asymptotic"])
    @pytest.mark.parametrize("comp", [1, 2])
    def test_signal_gradient_by_finite_differences(self, proto, constants, rng, variant, comp):
        cfg = ForwardModelConfig(variant=variant, compartments=comp)
        oef = np.array([0.3, 0.55])
        dbv = np.array([0.02, 0.045])
        r = rng.normal(size=(2, proto.n_t))

        def value(o_arr, d_arr):
            return float((normalized_model_signal_t(o_arr, d_arr, proto, constants, cfg)[0] * r).sum())

        _, (d_oef, d_dbv) = normalized_model_signal_t(oef.copy(), dbv.copy(), proto, constants, cfg)
        grad_o, grad_d = (r * d_oef).sum(-1), (r * d_dbv).sum(-1)
        h = 1e-7
        for i in range(2):
            up, dn = oef.copy(), oef.copy()
            up[i] += h
            dn[i] -= h
            fd_o = (value(up, dbv) - value(dn, dbv)) / (2 * h)
            assert_allclose(grad_o[i], fd_o, rtol=3e-5, atol=1e-10)
            up, dn = dbv.copy(), dbv.copy()
            up[i] += h
            dn[i] -= h
            fd_d = (value(oef, up) - value(oef, dn)) / (2 * h)
            assert_allclose(grad_d[i], fd_d, rtol=3e-5, atol=1e-10)
