"""A deliberately broken SW-LRC variant: the mc suite's canary.

``swlrc-broken`` drops the last write notice of every release.  The
protocol still clears its dirty set and bumps versions, so the PR 2
invariant sanitizer's release-boundary checks (dirty-survives-release,
notice monotonicity) all pass -- the bug is only visible as a memory
consistency violation: a successor acquiring the same lock keeps a
stale copy it should have invalidated and reads old data.  Exactly the
class of bug schedule enumeration exists to catch, and one the sampled
chaos runs can miss when the default schedule happens to refetch.

Registered on import of :mod:`repro.mc` only, so the production
protocol list (``repro-dsm`` CLI choices, experiment matrices) never
offers it.
"""

from __future__ import annotations

from repro.core.protocol import register
from repro.core.swlrc import SWLRCProtocol


@register
class BrokenSWLRCProtocol(SWLRCProtocol):
    """SW-LRC that 'forgets' one write notice per release."""

    name = "swlrc-broken"

    def _release_flush(self, node):
        runs = yield from super()._release_flush(node)
        if not runs:
            return runs
        # The bug under test: the last dirty block's notice never
        # reaches the successor's acquire.
        last = runs[-1]
        kept = [last._replace(count=last.count - 1)] if last.count > 1 else []
        return runs[:-1] + kept
