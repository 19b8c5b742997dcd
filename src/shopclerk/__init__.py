"""Tool-using customer-service agent with a simulated shop and eval harness."""

__version__ = "0.1.0"

from .config import AgentConfig
from .episode import AgentSession, EpisodeResult, run_episode
from .memory import LongTermStore, Message, Role, WorkingMemory
from .placeholders import PlaceholderTable, abstract_text, deabstract_text
from .tasks import Task, load_suite, load_task
from .toolkit import ToolCall, ToolDescriptor, ToolRegistry, ToolResult

__all__ = [
    "AgentConfig",
    "AgentSession",
    "EpisodeResult",
    "LongTermStore",
    "Message",
    "PlaceholderTable",
    "Role",
    "Task",
    "ToolCall",
    "ToolDescriptor",
    "ToolRegistry",
    "ToolResult",
    "WorkingMemory",
    "abstract_text",
    "deabstract_text",
    "load_suite",
    "load_task",
    "run_episode",
    "__version__",
]
