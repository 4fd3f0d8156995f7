"""Registry of alive meta-scheduler peers.

Peers announce themselves on startup and on clean shutdown; sudden
crashes are caught by periodic echo sweeps that drop any peer which
stops replying.  The registry is liveness-only; queue and cost metadata
travel over the scheduler's own peer polls.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class PeerRegistry:
    """Single logical discovery service.

    `retries` is the number of consecutive missed echoes tolerated before
    removal (1 = removed on the first miss).
    """

    def __init__(self, retries: int = 1):
        self.retries = retries
        self._missed: Dict[str, int] = {}  # alive peer -> missed echoes

    def register(self, site_id: str) -> None:
        """Add or revive a peer; re-registering clears its missed echoes."""
        self._missed[site_id] = 0

    def deregister(self, site_id: str) -> None:
        """Clean shutdown; unknown peers are a no-op."""
        self._missed.pop(site_id, None)

    def is_alive(self, site_id: str) -> bool:
        return site_id in self._missed

    def list_peers(self, requester: Optional[str] = None) -> List[str]:
        """All alive peers except the requester, sorted for determinism."""
        return sorted(s for s in self._missed if s != requester)

    def echo_sweep(self, responder: Callable[[str], bool]) -> List[str]:
        """Echo every alive peer; remove the ones that fail to reply.

        `responder(site_id)` tells whether the peer answers within the echo
        timeout.  Returns the removed site ids (sorted).
        """
        removed = []
        for site_id in sorted(self._missed):
            if responder(site_id):
                self._missed[site_id] = 0
            else:
                self._missed[site_id] += 1
                if self._missed[site_id] >= self.retries:
                    del self._missed[site_id]
                    removed.append(site_id)
        return removed
