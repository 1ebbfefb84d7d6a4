"""Discrete-event simulation core: simulator, commands, resources, traces.

:class:`Simulator` plays generator processes and is the reference DES
engine's clock.  :mod:`repro.engine.protocol` holds the SpTRSV execution
protocol both DES engines share: state constants, token layout, timing
rules and the delivery/fail-stop decisions.
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
    TokenLayout,
    delivery_action,
)
from repro.engine.resources import Resource
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
    "Trace",
    "TraceRecord",
    "trace_to_chrome",
    "write_chrome_trace",
    "TokenLayout",
    "ALL_TRACE_KINDS",
    "delivery_action",
]
