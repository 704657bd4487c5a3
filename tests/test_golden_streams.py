"""The audit's streams, pinned: records, truth and headline unchanged.

Bit-exact optimizations of the world build and the BQT sessions must
leave every output byte where it was. These digests were recorded
before the batched session priming, the cached-CDF categorical draws
and the GC-quiet scope landed; see :mod:`harness.golden`.
"""

from __future__ import annotations

import pytest

from harness.golden import golden_worlds, mismatch

pytestmark = pytest.mark.equivalence


@pytest.mark.parametrize("name", sorted(golden_worlds()["worlds"]))
def test_audit_streams_match_pinned_digests(name):
    message = mismatch(name)
    assert message is None, message
