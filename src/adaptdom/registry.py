"""Managed-object registry and the domain hierarchy.

Domains hold named references to their members; one object may belong to
any number of domains and therefore carries one path name per distinct
root traversal. Membership among Domain-kind objects is kept acyclic so
path enumeration always terminates.

Every object keeps its parent links, (domain, local name) pairs, which
are the reverse of the domains' member maps. Questions about one object,
its paths, the domains containing it and its relative path under a given
domain, are answered by climbing those links, so they cost the object's
ancestry and not the size of any domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AlreadyInitialized,
    CycleDetected,
    DuplicateLocalName,
    Forbidden,
    NotADomain,
    NotFound,
    UnknownId,
    UnknownLocalName,
)
from .paths import PathName, check_token, render_relative


class Kind(Enum):
    DOMAIN = "domain"
    PLAIN = "plain"
    SENSOR = "sensor"
    ACTUATOR = "actuator"
    AGENT = "agent"


@dataclass(frozen=True, order=True)
class ObjectId:
    """Opaque identifier of a managed object; never reused."""

    seq: int
    kind: Kind = field(compare=False)

    def __str__(self) -> str:
        return f"#{self.seq}"


@dataclass
class DomainRecord:
    """Per-domain state: the local-name → member binding map."""

    members: dict[str, ObjectId] = field(default_factory=dict)


class EnumerateMode(Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"


class Registry:
    """The single in-process registry of managed objects and domains."""

    def __init__(self):
        self._next_seq = 1
        self._objects: dict[ObjectId, DomainRecord | None] = {}
        self._parents: dict[ObjectId, set[tuple[ObjectId, str]]] = {}
        self._containing: dict[ObjectId, tuple[ObjectId, ...]] = {}
        self._root: ObjectId | None = None

    # --- object lifecycle ---

    def create_root(self) -> ObjectId:
        if self._root is not None:
            raise AlreadyInitialized("root domain already created")
        self._root = self.register(Kind.DOMAIN)
        return self._root

    def register(self, kind: Kind) -> ObjectId:
        """Register a new managed object; it starts with no memberships."""
        oid = ObjectId(self._next_seq, kind)
        self._next_seq += 1
        self._objects[oid] = DomainRecord() if kind is Kind.DOMAIN else None
        self._parents[oid] = set()
        return oid

    @property
    def root(self) -> ObjectId:
        if self._root is None:
            raise UnknownId("registry has no root domain yet")
        return self._root

    def known(self, oid: ObjectId) -> bool:
        return oid in self._objects

    def all_objects(self) -> list[ObjectId]:
        return sorted(self._objects)

    def _require(self, oid: ObjectId) -> None:
        if oid not in self._objects:
            raise UnknownId(f"unknown object {oid}")

    def _domain_record(self, oid: ObjectId) -> DomainRecord:
        self._require(oid)
        rec = self._objects[oid]
        if rec is None:
            raise NotADomain(f"{oid} is not a domain")
        return rec

    # --- membership ---

    def include(self, domain: ObjectId, member: ObjectId, local_name: str) -> None:
        """Bind `member` under `local_name`; `paths_of` gives the paths
        that result."""
        rec = self._domain_record(domain)
        self._require(member)
        check_token(local_name)
        if local_name in rec.members:
            raise DuplicateLocalName(
                f"{local_name!r} already bound in {domain}"
            )
        if member.kind is Kind.DOMAIN and self._would_cycle(domain, member):
            raise CycleDetected(
                f"including {member} into {domain} would close a domain cycle"
            )
        rec.members[local_name] = member
        self._parents[member].add((domain, local_name))
        self._containing.clear()

    def exclude(self, domain: ObjectId, local_name: str) -> None:
        rec = self._domain_record(domain)
        if local_name not in rec.members:
            raise UnknownLocalName(f"{local_name!r} not bound in {domain}")
        member = rec.members[local_name]
        if member == self._root:
            raise Forbidden("the root domain cannot be excluded")
        del rec.members[local_name]
        self._parents[member].discard((domain, local_name))
        self._containing.clear()

    def _would_cycle(self, domain: ObjectId, new_member: ObjectId) -> bool:
        # Cycle iff `domain` is reachable from `new_member` via domain members.
        stack = [new_member]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur == domain:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            rec = self._objects.get(cur)
            if rec is not None:
                stack.extend(
                    m for m in rec.members.values() if m.kind is Kind.DOMAIN
                )
        return False

    # --- resolution and enumeration ---

    def resolve(self, path: PathName | str) -> ObjectId:
        if isinstance(path, str):
            path = PathName.parse(path)
        current = self.root
        for index, segment in enumerate(path.segments):
            rec = self._objects.get(current)
            if rec is None:
                raise NotADomain(
                    f"segment {index} of {path}: {current} is not a domain",
                    index=index,
                )
            if segment not in rec.members:
                raise NotFound(
                    f"segment {index} ({segment!r}) of {path} not found",
                    index=index,
                )
            current = rec.members[segment]
        return current

    def paths_of(self, oid: ObjectId) -> set[PathName]:
        self._require(oid)
        if oid == self._root:
            return {PathName.root()}
        out: set[PathName] = set()
        # Climb towards the root collecting name chains; domain
        # membership is acyclic so this terminates.
        stack: list[tuple[ObjectId, tuple[str, ...]]] = [(oid, ())]
        while stack:
            cur, suffix = stack.pop()
            if cur == self._root:
                out.add(PathName(suffix))
                continue
            for parent, name in self._parents[cur]:
                stack.append((parent, (name,) + suffix))
        return out

    def enumerate(
        self, domain: ObjectId, mode: EnumerateMode = EnumerateMode.DIRECT
    ) -> list[tuple[str, ObjectId]]:
        """List members as (relative path, id), sorted by rendered path.

        Indirect mode walks through Domain-kind members transitively; an
        object reachable by several relative paths appears once per path.
        """
        rec = self._domain_record(domain)
        out: list[tuple[str, ObjectId]] = []
        if mode is EnumerateMode.DIRECT:
            for name, member in rec.members.items():
                out.append((name, member))
        else:
            stack: list[tuple[tuple[str, ...], ObjectId]] = [
                ((name,), member) for name, member in rec.members.items()
            ]
            while stack:
                segs, member = stack.pop()
                out.append((render_relative(segs), member))
                sub = self._objects.get(member)
                if member.kind is Kind.DOMAIN and sub is not None:
                    for name, child in sub.members.items():
                        stack.append((segs + (name,), child))
        out.sort(key=lambda item: item[0])
        return out

    # --- reverse lookups and audits ---

    def domains_containing(self, oid: ObjectId) -> tuple[ObjectId, ...]:
        """Sorted domains holding `oid` directly or indirectly; kept until a membership changes."""
        cached = self._containing.get(oid)
        if cached is not None:
            return cached
        self._require(oid)
        seen: set[ObjectId] = set()
        stack = [parent for parent, _ in self._parents[oid]]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(parent for parent, _ in self._parents[cur])
        self._containing[oid] = found = tuple(sorted(seen))
        return found

    def orphans(self) -> list[ObjectId]:
        """Registered objects with no root-anchored path (audit target)."""
        if self._root is None:
            return sorted(self._objects)
        return sorted(
            oid for oid in self._objects if not self.paths_of(oid)
        )

    def member_names(self, domain: ObjectId) -> dict[str, ObjectId]:
        """Copy of a domain's local-name bindings."""
        return dict(self._domain_record(domain).members)

    def member_path(self, domain: ObjectId, oid: ObjectId) -> str | None:
        """The smallest rendered relative path of `oid` under `domain`,
        which is its first entry in `enumerate(domain, INDIRECT)`; None
        when `oid` is not a direct or indirect member."""
        self._domain_record(domain)
        found: list[str] = []
        # Climb from `oid` towards the root. Domain membership is acyclic,
        # so no path from `domain` down to `oid` passes `domain` twice.
        stack = [(parent, (name,)) for parent, name in self._parents.get(oid, ())]
        while stack:
            cur, segs = stack.pop()
            if cur == domain:
                found.append(render_relative(segs))
                continue
            stack.extend((parent, (name,) + segs) for parent, name in self._parents[cur])
        return min(found) if found else None
