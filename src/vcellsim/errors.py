"""Exception types shared across the simulator."""


class ConfigError(Exception):
    """Bad, missing, or unknown configuration; maps to CLI exit code 2."""


class TraceError(Exception):
    """Malformed or inconsistent mobility trace file."""


class EngineError(Exception):
    """Event-engine contract violation (past-dated event, aborted run)."""


class RegistryError(Exception):
    """Node registry lifecycle violation (duplicate name, dead node)."""


class LedgerError(Exception):
    """Resource-grid conflict: an RB outside the grid or allocated twice."""


class ChannelError(Exception):
    """Radio computation queried outside its contract."""


class MacError(Exception):
    """Buffer or grant bookkeeping violation."""


class AssociationError(Exception):
    """Cell association could not be performed."""
