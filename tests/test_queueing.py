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
from wedgeq.queueing import is_stable, require_stable


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

    def test_flagged_approximate(self):
        inputs = _inputs(0.5, 0.85, 1.25, c2_a=0.7)
        assert wq_kingman(inputs).approximate is True
        assert wq_pk(inputs).approximate is False


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

    def test_validation(self):
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.0, capacity=1.0, service=RouteMoments(1.0, 2.0))
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.5, capacity=0.0, service=RouteMoments(1.0, 2.0))
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.5, capacity=1.0, service=RouteMoments(1.0, 2.0), c2_a=-1.0)
        with pytest.raises(ValidationError):
            QueueInputs(lam=0.5, capacity=1.0, service=RouteMoments(0.0, 0.0))
