"""Dataset persistence.

Datasets (synthetic or externally converted traces) are stored as JSON with
one record per user:

.. code-block:: json

    {
      "format": "repro-tagging-trace",
      "version": 1,
      "users": {"0": [[item, tag], ...], "1": [...]}
    }

JSON keeps the trace human-inspectable and diff-able; for the scales this
repository targets (10^4 users, 10^7 actions at most) it is also fast enough.

Next to the portable JSON format this module hosts the **synthetic dataset
disk cache** used by the setup pipeline: :func:`load_or_generate_synthetic`
keys a binary trace file on the SHA-256 of the
:class:`~repro.data.synthetic.SyntheticConfig` *and* the generator
fingerprint, so a benchmark or CI job pays the O(N) generation cost once
per spec and every later run reads the identical trace back as four flat
arrays.  The cached file preserves the exact insertion order of every
action list, and profiles are rebuilt one user at a time through
:meth:`~repro.data.models.UserProfile.from_distinct_actions` -- a cache hit
is bit-identical to regeneration, down to the order of every index tuple.
Neither a hit nor a miss holds the corpus as per-user action lists.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import tempfile
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .models import Dataset, TaggingAction, UserProfile
from .synthetic import (
    GENERATOR_FINGERPRINT,
    SyntheticConfig,
    SyntheticTraceGenerator,
)

FORMAT_NAME = "repro-tagging-trace"
FORMAT_VERSION = 1

#: Binary cache format written by :func:`_write_cache_file`.
CACHE_FORMAT = "repro-trace-cache"
CACHE_VERSION = 1


class DatasetFormatError(ValueError):
    """Raised when a trace file does not match the expected format."""


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """Serialize a dataset to ``path`` (``.json`` or ``.json.gz``)."""
    path = Path(path)
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "users": {
            str(profile.user_id): sorted(list(action) for action in profile.actions)
            for profile in dataset.profiles()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with _open(path, "w") as handle:
        json.dump(payload, handle)


def load_dataset(path: Union[str, Path]) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    path = Path(path)
    with _open(path, "r") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise DatasetFormatError(f"{path} is not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported trace version {payload.get('version')!r} in {path}"
        )
    users = payload.get("users")
    if not isinstance(users, dict):
        raise DatasetFormatError(f"malformed 'users' section in {path}")
    profiles: Dict[int, UserProfile] = {}
    for key, raw_actions in users.items():
        try:
            user_id = int(key)
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"non-integer user id {key!r} in {path}") from exc
        if not isinstance(raw_actions, list):
            raise DatasetFormatError(f"malformed action list for user {key} in {path}")
        actions: List[TaggingAction] = []
        for entry in raw_actions:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise DatasetFormatError(f"malformed action {entry!r} for user {key} in {path}")
            actions.append((int(entry[0]), int(entry[1])))
        profiles[user_id] = UserProfile(user_id, actions)
    return Dataset(profiles)


# ----------------------------------------------------- synthetic dataset cache


def synthetic_cache_key(config: SyntheticConfig) -> str:
    """Stable content key of the trace a config generates.

    SHA-256 over every config field plus the generator fingerprint: any
    change to either produces a different key, so stale cache files are
    simply never *looked up* (and can be garbage-collected by age).
    """
    payload = {
        "fingerprint": GENERATOR_FINGERPRINT,
        "config": dataclasses.asdict(config),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()


def synthetic_cache_path(config: SyntheticConfig, cache_dir: Union[str, Path]) -> Path:
    """Where the cached trace of ``config`` lives under ``cache_dir``."""
    return Path(cache_dir) / f"{synthetic_cache_key(config)}.trace"


def _write_cache_file(
    path: Union[str, Path], key: str, uids: array, counts: array, items: array, tags: array
) -> None:
    """Publish the four ``int32`` arrays of a trace cache atomically.

    Layout: one JSON header line, then the arrays little-endian (user ids,
    per-user action counts, items, tags).
    """
    path = Path(path)
    header = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "key": key,
        "num_users": len(uids),
        "num_actions": len(items),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # Writer-private temp name: two jobs missing the cache for the same key
    # concurrently must not share a temp inode, or one's rename could
    # publish the other's half-written file.
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for blob in (uids, counts, items, tags):
                blob.tofile(handle)
        os.replace(tmp_name, path)  # atomic publish
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_trace_cache(path: Union[str, Path], expected_key: Optional[str] = None) -> Dataset:
    """Load a binary trace written by :func:`_write_cache_file`.

    Each user's actions are sliced from the item and tag columns as that
    profile is built, so the corpus is never held as one list of tuples.
    Every value read from an array is a fresh ``int``; mapping each through
    one shared object per distinct value (as the generator's pools do)
    keeps ~2 KB/node of duplicates and their fragmentation out of the
    profiles at N=10 000.
    """
    uids, counts, items, tags = _read_cache_arrays(Path(path), expected_key)
    shared = {value: value for value in set(items).union(tags)}.__getitem__
    profiles: Dict[int, UserProfile] = {}
    start = 0
    for uid, count in zip(uids, counts):
        end = start + count
        profiles[uid] = UserProfile.from_distinct_actions(
            uid, zip(map(shared, items[start:end]), map(shared, tags[start:end]))
        )
        start = end
    return Dataset(profiles)


def _read_cache_arrays(
    path: Path, expected_key: Optional[str] = None
) -> Tuple[array, array, array, array]:
    """The four validated arrays of a binary trace cache (uids, counts, items, tags).

    Every count is non-negative, the counts sum to the payload and no user
    id repeats, so slicing the payload by the counts cannot hand one user
    another's actions: a file that fails any of these is rejected, never
    served.
    """
    with open(path, "rb") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: unreadable cache header") from exc
        if (
            not isinstance(header, dict)
            or header.get("format") != CACHE_FORMAT
            or header.get("version") != CACHE_VERSION
        ):
            raise DatasetFormatError(f"{path} is not a {CACHE_FORMAT} v{CACHE_VERSION} file")
        if expected_key is not None and header.get("key") != expected_key:
            raise DatasetFormatError(f"{path}: cache key mismatch")
        num_users = header.get("num_users")
        num_actions = header.get("num_actions")
        if not all(type(size) is int and size >= 0 for size in (num_users, num_actions)):
            raise DatasetFormatError(f"{path}: cache header sizes must be non-negative ints")
        uids = array("i")
        counts = array("i")
        items = array("i")
        tags = array("i")
        uids.frombytes(handle.read(4 * num_users))
        counts.frombytes(handle.read(4 * num_users))
        items.frombytes(handle.read(4 * num_actions))
        tags.frombytes(handle.read(4 * num_actions))
    if (
        len(uids) != num_users
        or len(counts) != num_users
        or len(items) != num_actions
        or len(tags) != num_actions
    ):
        raise DatasetFormatError(f"{path}: truncated cache file")
    if sum(counts) != num_actions or min(counts, default=0) < 0:
        raise DatasetFormatError(f"{path}: action counts disagree with payload")
    if len(set(uids)) != num_users:
        raise DatasetFormatError(f"{path}: repeated user id")
    return uids, counts, items, tags


def load_or_generate_synthetic(
    config: SyntheticConfig,
    cache_dir: Optional[Union[str, Path]] = None,
    refresh: bool = False,
) -> Tuple[Dataset, str]:
    """The dataset of ``config``, served from the disk cache when possible.

    Returns ``(dataset, status)`` with status ``"off"`` (no cache dir),
    ``"hit"`` (loaded from disk) or ``"miss"`` (generated, then written back
    for the next run).  A corrupt or mismatched cache file falls back to
    generation -- the cache can accelerate setup, never change it.
    """
    if cache_dir is None:
        return SyntheticTraceGenerator(config).generate(), "off"
    key = synthetic_cache_key(config)
    path = Path(cache_dir) / f"{key}.trace"
    if not refresh and path.exists():
        try:
            return load_trace_cache(path, expected_key=key), "hit"
        except (OSError, DatasetFormatError, ValueError):
            pass  # fall through to regeneration
    # One streaming pass builds the profiles AND appends each generation-order
    # action list to the cache columns: replaying the stored lists through
    # the same constructor is what makes a hit bit-identical to this miss.
    uids, counts, items, tags = array("i"), array("i"), array("i"), array("i")
    profiles: Dict[int, UserProfile] = {}
    for user_id, actions in SyntheticTraceGenerator(config).iter_user_actions():
        uids.append(user_id)
        counts.append(len(actions))
        for item, tag in actions:
            items.append(item)
            tags.append(tag)
        profiles[user_id] = UserProfile.from_distinct_actions(user_id, actions)
    dataset = Dataset(profiles)
    try:
        _write_cache_file(path, key, uids, counts, items, tags)
    except OSError:
        pass  # read-only cache dir: generation still succeeded
    return dataset, "miss"
