import numpy as np
import pytest
from hypothesis import given, strategies as st

from wedgeq import (
    EPS_RHO,
    QueueInputs,
    RouteMoments,
    StabilityError,
    ValidationError,
    wq_kingman,
    wq_pk,
)
from wedgeq.queueing import is_stable, require_stable, stability_margin


def _inputs(lam, mean, c2, capacity=1.0, c2_a=1.0):
    return QueueInputs(
        lam=lam,
        capacity=capacity,
        service=RouteMoments(mean=mean, m2=mean * mean * (1.0 + c2)),
        c2_a=c2_a,
    )


class TestExactDelay:
    def test_mm1_closed_form(self):
        # Exponential service: the mean delay collapses to lam*m^2/(1-lam*m).
        for lam, mean in [(0.5, 1.0), (0.3, 2.0), (0.8, 1.1)]:
            expected = lam * mean * mean / (1.0 - lam * mean)
            got = wq_pk(_inputs(lam, mean, 1.0)).wq
            assert got == pytest.approx(expected, rel=1e-12)

    def test_md1_is_half_mm1(self):
        mm1 = wq_pk(_inputs(0.6, 1.0, 1.0)).wq
        md1 = wq_pk(_inputs(0.6, 1.0, 0.0)).wq
        assert md1 == pytest.approx(mm1 / 2.0, rel=1e-12)

    def test_reference_values(self, manual):
        # lam=0.5, C=1: manual route (m=1, q=1.1) waits exactly 0.55.
        got = wq_pk(QueueInputs(lam=0.5, capacity=1.0, service=manual.moments))
        assert got.wq == pytest.approx(0.55, rel=1e-14)
        assert got.rho == pytest.approx(0.5, rel=1e-14)
        assert got.total_sojourn == pytest.approx(1.55, rel=1e-14)
        ai = RouteMoments(mean=0.85, m2=1.625625)
        got_ai = wq_pk(QueueInputs(lam=0.5, capacity=1.0, service=ai))
        assert got_ai.wq == pytest.approx(0.706793478261, abs=1e-10)

    def test_capacity_scaling(self):
        # Serving T at capacity C is the same queue as T/C at capacity 1.
        fast = wq_pk(_inputs(0.4, 1.5, 0.8, capacity=2.0))
        unit = wq_pk(_inputs(0.4, 0.75, 0.8, capacity=1.0))
        assert fast.wq == pytest.approx(unit.wq, rel=1e-12)
        assert fast.rho == pytest.approx(unit.rho, rel=1e-12)

    @pytest.mark.parametrize("capacity", [1e-300, 1e-150, 1e-10, 0.3, 1.0, 7.0, 1e100])
    def test_wait_at_capacity_c_is_the_unit_wait_of_lam_over_c_over_c(self, capacity):
        # Time scales by 1/C: wq(C, lam) = wq(1, lam / C) / C, down to a
        # capacity whose 2 C (C - lam m) underflows to 0.
        lam = 0.1 * capacity
        got = wq_pk(_inputs(lam, 0.85, 1.25, capacity=capacity))
        unit = wq_pk(_inputs(lam / capacity, 0.85, 1.25))
        assert got.wq == pytest.approx(unit.wq / capacity, rel=1e-12)
        assert got.total_sojourn == pytest.approx(unit.total_sojourn / capacity, rel=1e-12)
        assert got.rho == pytest.approx(unit.rho, rel=1e-12)

    def test_overflowing_wait_names_capacity(self):
        with pytest.raises(ValidationError, match="capacity_C") as err:
            wq_pk(_inputs(1e-301, 1.0, 1e10, capacity=1e-300))
        assert err.value.field == "capacity_C"

    @given(
        lam=st.floats(0.05, 0.9),
        mean=st.floats(0.1, 1.0),
        c2=st.floats(0.0, 4.0),
    )
    def test_nonnegative_and_increasing_in_load(self, lam, mean, c2):
        base = wq_pk(_inputs(lam, mean, c2)).wq
        assert base >= 0.0
        if lam * 1.05 * mean < 1.0 - 1e-6:
            assert wq_pk(_inputs(lam * 1.05, mean, c2)).wq >= base


class TestKingman:
    def test_poisson_reduces_to_exact(self):
        inputs = _inputs(0.5, 0.85, 1.25, c2_a=1.0)
        assert wq_kingman(inputs).wq == wq_pk(inputs).wq  # bit-for-bit

    def test_deterministic_queue_waits_zero(self):
        inputs = _inputs(0.7, 1.0, 0.0, c2_a=0.0)
        assert wq_kingman(inputs).wq == 0.0

    def test_matches_heavy_traffic_form(self):
        # Independent algebraic form: rho/(1-rho) * (c2_a+c2_s)/2 * m/C.
        lam, mean, c2, c2_a, capacity = 0.5, 1.2, 0.9, 0.4, 1.0
        rho = lam * mean / capacity
        expected = rho / (1.0 - rho) * (c2_a + c2) / 2.0 * (mean / capacity)
        got = wq_kingman(_inputs(lam, mean, c2, capacity=capacity, c2_a=c2_a)).wq
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c2_a", [1e308, 1.7976931348623157e308])
    def test_overflowing_wait_names_c2_a(self, c2_a):
        # rho = 0.935, where the exact wait is 13.7552884615: the Kingman
        # wait, about 13.755 c2_a / 2.25, overflows.
        inputs = _inputs(1.1, 0.85, 1.25, c2_a=c2_a)
        assert wq_pk(inputs).wq == pytest.approx(13.7552884615, rel=1e-10)
        with pytest.raises(ValidationError, match="c2_a") as err:
            wq_kingman(inputs)
        assert err.value.field == "c2_a"

    @pytest.mark.parametrize("c2_a", [1e300, 2e307])
    def test_large_finite_wait_is_kept(self, c2_a):
        # At 2e307 the product 13.755 (c2_a + c2_s) overflows but the wait,
        # about 1.22e308, does not.
        inputs = _inputs(1.1, 0.85, 1.25, c2_a=c2_a)
        assert wq_kingman(inputs).wq == pytest.approx(13.7552884615 * (c2_a / 2.25), rel=1e-10)

    def test_huge_service_cv_at_poisson_arrivals_keeps_the_exact_wait(self):
        # wq_pk is 5e199 and the factor is 1: only the product
        # wq_pk * (c2_a + c2_s) overflows.
        inputs = _inputs(0.5, 1.0, 1e200, c2_a=1.0)
        assert wq_pk(inputs).wq == pytest.approx(5e199, rel=1e-12)
        assert wq_kingman(inputs).wq == wq_pk(inputs).wq  # bit-for-bit

    def test_huge_service_cv_keeps_a_finite_wait(self):
        inputs = _inputs(0.5, 1.0, 1e200, c2_a=0.5)
        assert wq_kingman(inputs).wq == pytest.approx(5e199, rel=1e-12)


class TestStability:
    def test_overload_raises_with_rho(self):
        with pytest.raises(StabilityError) as err:
            wq_pk(_inputs(1.2, 1.0, 0.5))
        assert err.value.rho == pytest.approx(1.2)
        assert err.value.exit_code == 3

    def test_boundary_margin(self):
        with pytest.raises(StabilityError):
            wq_pk(_inputs(1.0, 1.0, 0.5))
        wq_pk(_inputs(1.0 - 1e-6, 1.0, 0.5))  # inside the margin: fine

    def test_one_load_rule(self):
        edge = 1.0 - EPS_RHO
        assert is_stable(0.999 * edge, 1.0, 1.0)
        assert not is_stable(edge, 1.0, 1.0)
        assert not is_stable(0.5 * edge, 1.0, 0.5)
        assert require_stable(0.5, 1.0, 2.0) == 0.25
        with pytest.raises(StabilityError, match="ai route") as err:
            require_stable(2.0, 1.0, 1.0, "ai route")
        assert err.value.rho == 2.0

    def test_is_stable_is_a_positive_margin(self):
        # At the doubles next to 1 - EPS_RHO, at +-inf and at NaN, as
        # scalars and as one array, is_stable reads the margin's sign.
        edge = 1.0 - EPS_RHO
        loads = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0),
                 -np.inf, np.inf, np.nan]
        want = [True, False, False, True, False, False]
        for rho, stable in zip(loads, want):
            assert (stability_margin(rho) > 0.0) == stable, rho
            assert is_stable(rho, 1.0, 1.0) == stable, rho
        loads = np.array(loads)
        assert is_stable(loads, 1.0, 1.0).tolist() == want
        assert (stability_margin(loads) > 0.0).tolist() == want
        assert stability_margin(edge) == 0.0
        assert stability_margin(np.nextafter(edge, 2.0)) < 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.0, capacity=1.0, service=RouteMoments(1.0, 2.0))
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.5, capacity=0.0, service=RouteMoments(1.0, 2.0))
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.5, capacity=1.0, service=RouteMoments(1.0, 2.0), c2_a=-1.0)
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.5, capacity=1.0, service=RouteMoments(0.0, 0.0))
