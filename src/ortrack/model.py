"""Ground-truth world model: tagged items and their real locations.

This layer is the oracle side of the simulation. The protocol layer never
reads it directly; it only ever sees sensor reads. Keeping the two apart is
the whole point: retained-item incidents happen precisely because believed
counts and real contents diverge.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import StrEnum
from operator import itemgetter

EQUIPMENT_ROOM = "EquipmentRoom"
SPD = "SPD"

#: Sites that exist in every scenario and are not operating rooms.
FIXED_SITES = (EQUIPMENT_ROOM, SPD)


class ItemKind(StrEnum):
    SPONGE = "Sponge"
    NEEDLE = "Needle"
    BLADE = "Blade"
    GUIDEWIRE = "Guidewire"
    INSTRUMENT = "Instrument"
    CONSUMABLE = "Consumable"


class SubLocation(StrEnum):
    """Position inside an operating room; NONE everywhere else."""

    NONE = "None"
    TOOL_TRAY = "ToolTray"
    TRASH_BIN = "TrashBin"
    PATIENT_CAVITY = "PatientCavity"
    STAFF_CARRIED = "StaffCarried"
    ROOM_SPACE = "RoomSpace"


class Location(tuple):
    """A site (room) plus, inside an operating room, a sub-position; a tuple, so
    it hashes and compares in C."""

    __slots__ = ()

    def __new__(cls, site: str, sub: SubLocation = SubLocation.NONE) -> "Location":
        if sub is not SubLocation.NONE and site in FIXED_SITES:
            raise ValueError(f"sub-location {sub} not allowed at {site}")
        return tuple.__new__(cls, (site, sub))

    site, sub = property(itemgetter(0)), property(itemgetter(1))

    def to_json(self) -> dict:
        return {"site": self[0], "sub": self[1]}


@dataclass
class WorldState:
    """Mutable ground truth owned by the simulation kernel.

    ``placements`` maps every registered tag to exactly one location,
    so location exclusivity and conservation hold by construction.

    ``at`` indexes each location's tags in creation order, ``rank`` giving each
    tag's creation index: tags keep that order even after an item leaves and comes
    back, and sensing draws its random numbers in that order. A location's list,
    once made, is kept and changed in place, and ``tags_at`` hands it out as it is,
    for callers to read and never change. Moves are not checked here:
    ``kernel.destination`` has proven each one before the kernel makes it.
    """

    placements: dict[str, Location] = field(default_factory=dict)
    at: dict[Location, list[str]] = field(default_factory=dict)
    rank: dict[str, int] = field(default_factory=dict, repr=False)

    def apply_ground_truth(self, tag_id: str, dst: Location) -> None:
        """Move a tagged item to ``dst``; the index and the placement, nothing else."""
        rank, old = self.rank.__getitem__, self.at[self.placements[tag_id]]
        del old[bisect_left(old, rank(tag_id), key=rank)]
        insort(self.at.setdefault(dst, []), tag_id, key=rank)
        self.placements[tag_id] = dst

    def tags_at(self, location: Location) -> list[str]:
        """Tags at exactly ``location`` in creation order: the index's own list, read-only."""
        return self.at.get(location) or []
