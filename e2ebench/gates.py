"""Correctness gates: output digests and served-answer comparison.

Import after :func:`common.import_repro`.  A gate that fails counts as a
failed operation in the run's ``failed`` / ``error_rate``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.errors import ReproError
from repro.serve import ModelQueryEngine, load_model

from common import sha256


def topic_ids(engine: ModelQueryEngine) -> List[str]:
    """Every topic notation of the served tree, depth first."""
    ids, stack = [], ["o"]
    while stack:
        notation = stack.pop()
        ids.append(notation)
        children = engine.children(notation)["children"]
        stack.extend(reversed([child["topic"] for child in children]))
    return ids


def model_digest(path: Path) -> Tuple[int, str]:
    """``(num_topics, digest)`` of an artifact, loaded through
    ``load_model`` (which verifies its checksums).

    The digest covers the manifest minus its creation time (so it
    includes ``payload_crc32`` over the tree, phrases and role tables)
    and the full answer for every topic; two exports of the same corpus
    and seed must agree on it.  Raises ``ReproError`` on a corrupt file
    and ``OSError`` on a missing one.
    """
    engine = ModelQueryEngine(load_model(str(path)), cache_size=0)
    try:
        manifest = {key: value
                    for key, value in engine.model.manifest.items()
                    if key != "created_unix"}
        unlimited = 10 ** 9
        topics = {notation: engine.topic(notation, unlimited, unlimited,
                                         unlimited)
                  for notation in topic_ids(engine)}
        digest = sha256(json.dumps([manifest, topics],
                                   sort_keys=True).encode("utf-8"))
        return len(topics), digest
    finally:
        engine.close()


def check_model(path: Path, expected_topics: int) -> Tuple[bool, str]:
    """Load gate for an exported artifact: ``(ok, digest or reason)``."""
    try:
        num_topics, digest = model_digest(path)
    except (ReproError, OSError) as exc:
        return False, f"load_model failed: {exc}"
    if num_topics != expected_topics:
        return False, (f"{num_topics} topics, expected {expected_topics}")
    return True, digest


def expected_answer(engine: ModelQueryEngine, call: Tuple[str, Dict]) -> Any:
    """The in-process engine's answer to ``call``, JSON-normalized."""
    method, kwargs = call
    return json.loads(json.dumps(getattr(engine, method)(**kwargs)))


def same_answer(body: bytes, expected: Any) -> bool:
    """True when a served JSON body equals the engine's answer."""
    try:
        return json.loads(body) == expected
    except ValueError:
        return False
