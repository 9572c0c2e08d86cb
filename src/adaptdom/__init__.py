"""Adaptive management domains with a deterministic scenario simulator.

Managed objects live in a registry and are grouped into domains by
reference; each domain may load separate adaptation logic (a five-stage
pipeline with a reactive, proactive, or retroactive firing strategy).
Sensors emit events routed to every containing domain; actuators carry
decisions out as graph reconfigurations or mobile agents. A configuration
manager applies transactional graph edits under blocking with
disjointness-based concurrency, and a discrete-event harness drives the
whole thing reproducibly.
"""

from .adaptation import (
    AdaptationEngine,
    AdaptationLogic,
    AuditFinding,
    Decision,
    Policy,
    PolicySource,
    Proactive,
    Reactive,
    Retroactive,
    Scenario,
    forecast_exhaustion,
    plan_placement_moves,
)
from .confgraph import (
    AddComponent,
    AddConnection,
    Component,
    ComponentState,
    ConfigGraph,
    ConfigManager,
    Connection,
    MoveComponent,
    ReconfigTxn,
    RemoveComponent,
    RemoveConnection,
    ReplaceComponent,
    validate,
)
from .errors import AdaptdomError
from .paths import PathName
from .persistence import load_config, save_config
from .registry import EnumerateMode, Kind, ObjectId, Registry
from .report import RunReport, verify_report
from .sensing import (
    ActuationHub,
    AdaptationEvent,
    AgentLaunchAction,
    AgentReport,
    GraphEditAction,
    MobileAgent,
)
from .simharness import Simulator
from .system import Host, System

__version__ = "0.1.0"

__all__ = [
    "ActuationHub",
    "AdaptationEngine",
    "AdaptationEvent",
    "AdaptationLogic",
    "AdaptdomError",
    "AddComponent",
    "AddConnection",
    "AgentLaunchAction",
    "AgentReport",
    "AuditFinding",
    "Component",
    "ComponentState",
    "ConfigGraph",
    "ConfigManager",
    "Connection",
    "Decision",
    "EnumerateMode",
    "GraphEditAction",
    "Host",
    "Kind",
    "MobileAgent",
    "MoveComponent",
    "ObjectId",
    "PathName",
    "Policy",
    "PolicySource",
    "Proactive",
    "Reactive",
    "ReconfigTxn",
    "Registry",
    "RemoveComponent",
    "RemoveConnection",
    "ReplaceComponent",
    "Retroactive",
    "RunReport",
    "Scenario",
    "Simulator",
    "System",
    "forecast_exhaustion",
    "load_config",
    "plan_placement_moves",
    "save_config",
    "validate",
    "verify_report",
]
