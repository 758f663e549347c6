"""Radio medium: path loss and the sniffer's link budget."""

from repro.radio.medium import Link, PathLossModel, Position, RadioMedium, \
    lab_medium

__all__ = [
    "Link", "PathLossModel", "Position", "RadioMedium", "lab_medium",
]
