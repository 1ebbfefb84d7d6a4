"""Discrete-event simulation core: simulator, commands, resources, traces.

:mod:`repro.engine.protocol` additionally holds the engine-agnostic
SpTRSV execution protocol (lifecycle tables, token layout, timing rules,
delivery/fail-stop decision trees) that both DES engines interpret.
"""

from repro.engine.chrometrace import trace_to_chrome, write_chrome_trace
from repro.engine.des import Process, Simulator
from repro.engine.events import (
    Acquire,
    Release,
    ScheduledEvent,
    Signal,
    Timeout,
    Wait,
)
from repro.engine.protocol import (
    ALL_TRACE_KINDS,
    COMPONENT_LIFECYCLE,
    TRANSFER_LIFECYCLE,
    DesignHooks,
    StateRule,
    TokenLayout,
    delivery_action,
    design_hooks,
)
from repro.engine.resources import Resource, ResourceBank
from repro.engine.sequence import MonotonicSequence
from repro.engine.trace import Trace, TraceRecord

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Acquire",
    "Release",
    "Wait",
    "Signal",
    "ScheduledEvent",
    "Resource",
    "ResourceBank",
    "MonotonicSequence",
    "Trace",
    "TraceRecord",
    "trace_to_chrome",
    "write_chrome_trace",
    "StateRule",
    "TokenLayout",
    "DesignHooks",
    "COMPONENT_LIFECYCLE",
    "TRANSFER_LIFECYCLE",
    "ALL_TRACE_KINDS",
    "delivery_action",
    "design_hooks",
]
