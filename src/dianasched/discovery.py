"""Registry of alive meta-scheduler peers.

Peers announce themselves on startup and on clean shutdown; sudden
crashes are caught by periodic echo sweeps that drop any peer which
stops replying.  The registry is liveness-only; queue and cost metadata
travel over the scheduler's own peer polls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class PeerEntry:
    registered_time: float
    last_echo_ok_time: float
    missed_echoes: int = 0


class PeerRegistry:
    """Single logical discovery service.

    `retries` is the number of consecutive missed echoes tolerated before
    removal (1 = removed on the first miss).
    """

    def __init__(self, retries: int = 1):
        if retries < 1:
            raise ValueError("retries must be >= 1")
        self.retries = retries
        self._entries: Dict[str, PeerEntry] = {}

    def register(self, site_id: str, now: float) -> None:
        """Add or revive a peer; re-registering refreshes the timestamp."""
        entry = self._entries.get(site_id)
        if entry is None:
            self._entries[site_id] = PeerEntry(now, now)
        else:
            entry.registered_time = now
            entry.last_echo_ok_time = now
            entry.missed_echoes = 0

    def deregister(self, site_id: str) -> None:
        """Clean shutdown; unknown peers are a no-op."""
        self._entries.pop(site_id, None)

    def is_alive(self, site_id: str) -> bool:
        return site_id in self._entries

    def list_peers(self, requester: Optional[str] = None) -> List[str]:
        """All alive peers except the requester, sorted for determinism."""
        return sorted(s for s in self._entries if s != requester)

    def echo_sweep(self, now: float,
                   responder: Callable[[str], bool]) -> List[str]:
        """Echo every alive peer; remove the ones that fail to reply.

        `responder(site_id)` tells whether the peer answers within the echo
        timeout.  Returns the removed site ids (sorted).
        """
        removed = []
        for site_id in sorted(self._entries):
            entry = self._entries[site_id]
            if responder(site_id):
                entry.last_echo_ok_time = now
                entry.missed_echoes = 0
            else:
                entry.missed_echoes += 1
                if entry.missed_echoes >= self.retries:
                    del self._entries[site_id]
                    removed.append(site_id)
        return removed
