"""Network substrate: nodes, switched fabric, packetization, congestion."""

from .congestion import DcqcnState, Switch, SwitchPort
from .fabric import Fabric, Node, build_cluster
from .packet import Reassembler, segment

__all__ = [
    "DcqcnState",
    "Fabric",
    "Node",
    "Reassembler",
    "Switch",
    "SwitchPort",
    "build_cluster",
    "segment",
]
