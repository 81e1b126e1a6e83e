"""Deterministic tracking simulator for surgical equipment safety.

The package has four layers:

* ``model`` holds the ground-truth world: tagged equipment items and where
  they really are at every simulated second.
* ``sensing``, ``protocol``, ``kernel`` and ``reconcile`` form the system
  under test: probabilistic RFID readers feeding communicating state
  machines (room sensors, the tool cart, the handheld detector, the central
  service) whose job is to keep a monitoring checklist sound and to block
  case completion while anything may still be inside the patient.
* ``trace`` is the record a run leaves: its NDJSON file form, its one
  reader, and ``locate``, the central service's location belief.
* ``decision`` is a standalone concept-selection toolkit (morphological
  matrix, QFD weighting, Pugh screening/scoring, risk matrix) used to rank
  candidate system designs.

Everything is reproducible: a scenario plus a seed fully determines the
trace, byte for byte.
"""

__version__ = "0.1.0"
