"""A QAT endpoint: parallel computation engines + instance rings.

The endpoint's hardware scheduler load-balances requests from all
assigned instances' rings across all available computation engines
(paper Figure 2). Concurrent requests from a *single* instance run in
parallel as long as engines are free — the parallelism QTLS unlocks
(paper section 2.3 "Parallelism").

A request moves through the endpoint as a pipeline of kernel callbacks,
not as a simulation process: a zero-delay start event (the engine picks
the request up), the service timeout (inbound DMA plus calculation,
engine held) and the response-pipeline timeout (firmware plus outbound
DMA, engine free).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .firmware import FirmwareCounters
from .instance import CryptoInstance
from .request import QatResponse
from .rings import DEFAULT_RING_CAPACITY, RingPair
from .service_times import (PCIE_LATENCY, qat_pipeline_latency,
                            qat_service_time)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["QatEndpoint"]


class QatEndpoint:
    """One QAT silicon endpoint with ``n_engines`` computation engines."""

    def __init__(self, sim: "Simulator", endpoint_id: int,
                 n_engines: int = 10,
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 pcie_latency: float = PCIE_LATENCY) -> None:
        if n_engines < 1:
            raise ValueError("need at least one engine")
        self.sim = sim
        self.endpoint_id = endpoint_id
        self.n_engines = n_engines
        self.ring_capacity = ring_capacity
        self.pcie_latency = pcie_latency
        self._busy = 0  # engines serving a request
        self.instances: List[CryptoInstance] = []
        #: Every instance's rings in round-robin order.
        self._rings: List[RingPair] = []
        self.fw_counters = FirmwareCounters()
        self._rr_cursor = 0  # round-robin over instance rings
        #: Installed by :meth:`QatDevice.install_fault_plan`.
        self.fault_plan = None
        self.responses_lost = 0

    # -- provisioning ---------------------------------------------------

    def create_instance(self) -> CryptoInstance:
        """Allocate a crypto instance (a logical unit assignable to one
        process/thread — paper section 2.3)."""
        inst_id = len(self.instances)
        rings = {
            cat: RingPair(self.sim, f"ep{self.endpoint_id}-i{inst_id}-{cat}",
                          self.ring_capacity)
            for cat in ("asym", "cipher", "prf")
        }
        inst = CryptoInstance(self, inst_id, rings)
        self.instances.append(inst)
        self._rings.extend(rings.values())
        return inst

    # -- submission path ----------------------------------------------------

    def notify_submission(self) -> None:
        """Called by an instance after a successful ring write; starts
        the hardware pull if engines are idle."""
        self._dispatch()

    def _dispatch(self) -> None:
        """Hand pending ring entries to free engines (round-robin over
        rings for fairness, like the hardware load balancer)."""
        while self._busy < self.n_engines:
            req_ring = self._next_nonempty_ring()
            if req_ring is None:
                return
            request = req_ring.take_request()
            assert request is not None
            request.dequeued_at = self.sim.now
            self._busy += 1
            self._sample_engines()
            start = self.sim.event()
            start.callbacks.append(self._start_service)
            start.succeed((request, req_ring))

    def _sample_engines(self) -> None:
        """Report engine occupancy to the request tracer, if any."""
        obs = getattr(self.sim, "obs", None)
        if obs is not None and obs.enabled:
            obs.util_sample(f"qat{self.endpoint_id}.engines", self.sim.now,
                            self._busy, capacity=self.n_engines)

    def _next_nonempty_ring(self) -> Optional[RingPair]:
        rings = self._rings
        n = len(rings)
        for i in range(n):
            ring = rings[(self._rr_cursor + i) % n]
            if ring.pending_requests:
                self._rr_cursor = (self._rr_cursor + i + 1) % n
                return ring
        return None

    def _start_service(self, start) -> None:
        """An engine starts on a request: inbound DMA + calculation,
        engine occupied."""
        request, _ring = start.value
        service = qat_service_time(request.op)
        plan = self.fault_plan
        if plan is not None:
            service *= plan.latency_multiplier(self.endpoint_id,
                                               request.op, self.sim.now)
        done = self.sim.timeout(self.pcie_latency + service,
                                value=start.value)
        done.callbacks.append(self._finish_service)

    def _finish_service(self, done) -> None:
        """Service ends: compute the result and free the engine; the
        response continues down the pipeline (firmware + outbound DMA)
        without holding engine capacity."""
        request, ring = done.value
        request.serviced_at = self.sim.now
        response = QatResponse(request)
        try:
            response.result = request.compute()
        except Exception as exc:  # functional failure -> errored response
            response.error = exc
        plan = self.fault_plan
        if plan is not None:
            hw_error = plan.corrupt(self.endpoint_id, request.op,
                                    self.sim.now)
            if hw_error is not None:
                response.result = None
                response.error = hw_error
        self.fw_counters.record(request.op, ok=response.ok)
        self._busy -= 1
        self._sample_engines()
        self._dispatch()  # pull more work if rings are backed up
        landed = self.sim.timeout(self.pcie_latency
                                  + qat_pipeline_latency(request.op),
                                  value=(response, ring))
        landed.callbacks.append(self._land_response)

    def _land_response(self, landed) -> None:
        """The response reaches its ring, unless the fault plan loses
        it."""
        response, ring = landed.value
        plan = self.fault_plan
        if plan is not None and plan.response_lost(
                self.endpoint_id, response.request.op, self.sim.now):
            self.responses_lost += 1
            ring.drop_response(response)
            return
        ring.land_response(response)

    def reset(self) -> int:
        """Device-level recovery: wipe every instance's rings. Ops that
        were queued (or landed but unretrieved) are silently dropped —
        their owners must recover through deadline/failover paths."""
        dropped = sum(inst.reset() for inst in self.instances)
        if self.fault_plan is not None:
            self.fault_plan.on_reset(self.endpoint_id, dropped,
                                     self.sim.now)
        return dropped

    # -- introspection ---------------------------------------------------

    @property
    def busy_engines(self) -> int:
        return self._busy

    def total_in_flight(self) -> int:
        return sum(r.in_flight for inst in self.instances
                   for r in inst.rings.values())
