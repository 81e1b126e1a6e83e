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

    ``at`` indexes each location's items as sorted ``(creation index, tag)``
    pairs: tags stay in creation order even after an item leaves and comes
    back, and sensing draws its random numbers in that order. A location's
    list, once made, is kept and changed in place; ``entry_of`` holds each tag's
    pair, which no move changes. Moves are not checked here:
    ``kernel.destination`` has proven each one before the kernel makes it.
    """

    placements: dict[str, Location] = field(default_factory=dict)
    at: dict[Location, list[tuple[int, str]]] = field(default_factory=dict)
    entry_of: dict[str, tuple[int, str]] = field(default_factory=dict, repr=False)

    def apply_ground_truth(self, tag_id: str, dst: Location) -> None:
        """Move a tagged item to ``dst``; the index and the placement, nothing else."""
        entry, old = self.entry_of[tag_id], self.at[self.placements[tag_id]]
        del old[bisect_left(old, entry)]
        insort(self.at.setdefault(dst, []), entry)
        self.placements[tag_id] = dst

    def tags_at(self, location: Location) -> list[str]:
        """Tags of all items at exactly ``location``, in creation order (one lookup)."""
        return [tag for _, tag in self.at.get(location, ())]
