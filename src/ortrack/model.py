"""Ground-truth world model: tagged items and their real locations.

This layer is the oracle side of the simulation. The protocol layer never
reads it directly; it only ever sees sensor reads. Keeping the two apart is
the whole point: retained-item incidents happen precisely because believed
counts and real contents diverge.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum

EQUIPMENT_ROOM = "EquipmentRoom"
SPD = "SPD"

#: Sites that exist in every scenario and are not operating rooms.
FIXED_SITES = (EQUIPMENT_ROOM, SPD)


class ItemKind(Enum):
    SPONGE = "Sponge"
    NEEDLE = "Needle"
    BLADE = "Blade"
    GUIDEWIRE = "Guidewire"
    INSTRUMENT = "Instrument"
    CONSUMABLE = "Consumable"


class SubLocation(Enum):
    """Position inside an operating room; NONE everywhere else."""

    NONE = "None"
    TOOL_TRAY = "ToolTray"
    TRASH_BIN = "TrashBin"
    PATIENT_CAVITY = "PatientCavity"
    STAFF_CARRIED = "StaffCarried"
    ROOM_SPACE = "RoomSpace"
    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ runs in Python


class MoveCause(Enum):
    STAFF_MOVE = "StaffMove"
    DISCARD = "Discard"
    PLACE_IN_CAVITY = "PlaceInCavity"
    REMOVE_FROM_CAVITY = "RemoveFromCavity"
    ROOM_TRANSIT = "RoomTransit"


class DuplicateTagError(Exception):
    """A tag or item id was registered twice."""


class InconsistentMoveError(Exception):
    """A ground-truth event disagrees with an item's current placement."""


@dataclass(frozen=True)
class Location:
    """A site (room) plus, inside an operating room, a sub-position."""

    site: str
    sub: SubLocation = SubLocation.NONE

    def __post_init__(self) -> None:
        if self.sub is not SubLocation.NONE and self.site in FIXED_SITES:
            raise ValueError(f"sub-location {self.sub.value} not allowed at {self.site}")

    def to_json(self) -> dict:
        return {"site": self.site, "sub": self.sub.value}


@dataclass(frozen=True)
class EquipmentItem:
    item_id: str
    tag_id: str
    kind: ItemKind
    sterile: bool = True


@dataclass(frozen=True)
class GroundTruthEvent:
    """One real movement of one item. ``src`` must match the current placement."""

    time_s: int
    item_id: str
    src: Location
    dst: Location
    cause: MoveCause

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("ground-truth event must change location")


@dataclass
class WorldState:
    """Mutable ground truth owned by the simulation kernel.

    ``placements`` maps every registered item to exactly one location,
    so location exclusivity and conservation hold by construction.

    ``at`` indexes each location's items as sorted ``(creation index, tag)``
    pairs: tags stay in creation order even after an item leaves and comes
    back, and sensing draws its random numbers in that order.
    """

    clock_s: int = 0
    items: dict[str, EquipmentItem] = field(default_factory=dict)
    item_by_tag: dict[str, str] = field(default_factory=dict)
    placements: dict[str, Location] = field(default_factory=dict)
    at: dict[Location, list[tuple[int, str]]] = field(default_factory=dict, init=False)
    _entry: dict[str, tuple[int, str]] = field(default_factory=dict, init=False, repr=False)

    def create_item(self, kind: ItemKind, tag_id: str, item_id: str | None = None,
                    sterile: bool = True) -> EquipmentItem:
        """Register a new item; it starts in the equipment room."""
        if tag_id in self.item_by_tag:
            raise DuplicateTagError(f"tag already registered: {tag_id}")
        if item_id is None:
            item_id = f"item-{len(self.items) + 1}"
        if item_id in self.items:
            raise DuplicateTagError(f"item id already registered: {item_id}")
        item = EquipmentItem(item_id=item_id, tag_id=tag_id, kind=kind, sterile=sterile)
        entry = self._entry[item_id] = (len(self.items), tag_id)
        self.at.setdefault(Location(EQUIPMENT_ROOM), []).append(entry)
        self.items[item_id] = item
        self.item_by_tag[tag_id] = item_id
        self.placements[item_id] = Location(EQUIPMENT_ROOM)
        return item

    def apply_ground_truth(self, event: GroundTruthEvent) -> None:
        """Move an item, validating against current placement."""
        current = self.placements.get(event.item_id)
        if current is None:
            raise InconsistentMoveError(f"unknown item: {event.item_id}")
        if current != event.src:
            raise InconsistentMoveError(
                f"{event.item_id} is at {current}, event claims {event.src}")
        if event.time_s < self.clock_s:
            raise InconsistentMoveError(
                f"event at t={event.time_s} is before clock t={self.clock_s}")
        entry, old = self._entry[event.item_id], self.at[current]
        del old[bisect_left(old, entry)]
        insort(self.at.setdefault(event.dst, []), entry)
        self.placements[event.item_id] = event.dst
        self.clock_s = event.time_s

    def tags_at(self, location: Location) -> list[str]:
        """Tags of all items at exactly ``location``, in creation order (one lookup)."""
        return [tag for _, tag in self.at.get(location, ())]
