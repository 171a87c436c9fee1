"""Simulated FPGA hardware substrate (PS, PCAP, slots, links)."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "bitstream": ("Bitstream", "BitstreamLibrary", "SlotKind"),
    "board": ("FPGABoard", "connect_boards"),
    "cpu": ("Core", "ProcessingSystem"),
    "interconnect": ("AuroraLink",),
    "pcap": ("PCAP", "PRVerificationError"),
    "resvec": ("ResourceVector",),
    "slots": (
        "BoardConfig", "Slot", "SlotOccupancy", "SlotState", "build_slots",
        "fabric_capacity",
    ),
})

__all__ = [
    "AuroraLink",
    "Bitstream",
    "BitstreamLibrary",
    "BoardConfig",
    "Core",
    "FPGABoard",
    "PCAP",
    "PRVerificationError",
    "ProcessingSystem",
    "ResourceVector",
    "Slot",
    "SlotKind",
    "SlotOccupancy",
    "SlotState",
    "build_slots",
    "connect_boards",
    "fabric_capacity",
]
