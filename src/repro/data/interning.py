"""Global interning of tagging actions to dense integer ids.

Every similarity computation in P3Q is a set intersection over tagging
actions, i.e. ``(item, tag)`` pairs.  Hashing a tuple costs a tuple-hash per
probe and every profile comparison used to rebuild tuple sets from scratch.
Interning maps each distinct action to a *small dense int* exactly once, so

* a profile stores its actions as one ``frozenset[int]`` of action ids (one
  dict hit per action when it is built) and derives the tuple view from it;
* similarity scores become C-level intersections of int sets
  (:mod:`repro.similarity.metrics`);
* the offline k-NN index buckets users by action id instead of tuple
  (:mod:`repro.similarity.knn`).

The interner is a process-wide singleton: ids are only comparable when they
come from the same table, and P3Q's whole point is comparing profiles across
users.  Ids are stable for the lifetime of the process; the table grows with
the number of *distinct* actions in all datasets touched, which is bounded by
the item x tag universe of the traces.  See ``docs/ARCHITECTURE.md`` for how
interning threads through the gossip and query layers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: A tagging action, duplicated from ``models`` to avoid a circular import.
_Action = Tuple[int, int]


class ActionInterner:
    """A bijective ``(item, tag) <-> dense int`` table."""

    __slots__ = ("_ids", "_actions")

    def __init__(self) -> None:
        self._ids: Dict[_Action, int] = {}
        self._actions: List[_Action] = []

    def intern(self, item: int, tag: int) -> int:
        """The id of action ``(item, tag)``, allocating it on first sight."""
        action = (item, tag)
        action_id = self._ids.get(action)
        if action_id is None:
            action_id = len(self._actions)
            self._ids[action] = action_id
            self._actions.append(action)
        return action_id

    def action_of(self, action_id: int) -> _Action:
        """The ``(item, tag)`` pair an id stands for."""
        return self._actions[action_id]

    def id_of(self, item: int, tag: int) -> int | None:
        """The id of an action if it was ever interned, else ``None``."""
        return self._ids.get((item, tag))

    def __len__(self) -> int:
        return len(self._actions)


#: The process-wide interner.  All :class:`repro.data.models.UserProfile`
#: instances share it; never swap it out while profiles are alive, their
#: cached ids would dangle.
GLOBAL_INTERNER = ActionInterner()

intern_action = GLOBAL_INTERNER.intern
action_of = GLOBAL_INTERNER.action_of
id_of = GLOBAL_INTERNER.id_of
