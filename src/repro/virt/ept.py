"""Extended page tables: guest-physical to host-physical translation.

Each virtualization level adds one level of address indirection: an L2
guest-physical address translates through L1's EPT into an L1 guest-
physical address, which translates through L0's EPT into a host-physical
address.  L0 collapses the two levels when building vmcs02 (paper §2.1),
and :meth:`EptTable.compose` is exactly that collapse.

MMIO regions are mapped as *misconfigured* entries so that any access
exits with EPT_MISCONFIG — that is how virtio device kicks trap (the
paper's profiling: "EPT_MISCONFIG traps, which largely correspond to
accesses to the network device", §6.3.1).
"""

import bisect
from dataclasses import dataclass

from repro.errors import EptFault


@dataclass(frozen=True)
class MmioRegion:
    """A guest-physical range wired to a device (misconfig-on-access)."""

    base: int
    size: int
    device: object

    def contains(self, gpa):
        return self.base <= gpa < self.base + self.size


class EptMisconfig(EptFault):
    """Access hit an MMIO (misconfigured) region — exits, not a fault."""

    def __init__(self, gpa, region):
        self.region = region
        super().__init__(gpa, f"EPT misconfig at GPA {gpa:#x}")


class EptTable:
    """Sorted, non-overlapping interval map from GPA ranges to HPA bases."""

    def __init__(self, name="ept"):
        self.name = name
        self._bases = []     # sorted GPA bases
        self._ranges = []    # parallel: (gpa_base, size, hpa_base)
        self._mmio = []      # MmioRegion list (also non-overlapping)
        self.generation = 0  # bumped by invalidate(); ablation/test hook
        # Bumped by every map_range/map_mmio: translate() answers are
        # stable while it holds (the vmcs02 journal refresh keys on it).
        self.layout = 0

    # -- construction -------------------------------------------------------

    def map_range(self, gpa, size, hpa):
        """Map [gpa, gpa+size) to [hpa, hpa+size)."""
        if size <= 0:
            raise EptFault(gpa, "mapping size must be positive")
        self._check_overlap(gpa, size)
        idx = bisect.bisect_left(self._bases, gpa)
        self._bases.insert(idx, gpa)
        self._ranges.insert(idx, (gpa, size, hpa))
        self.layout += 1

    def map_mmio(self, gpa, size, device):
        """Wire [gpa, gpa+size) to a device via EPT misconfig."""
        if size <= 0:
            raise EptFault(gpa, "MMIO size must be positive")
        self._check_overlap(gpa, size)
        region = MmioRegion(gpa, size, device)
        self._mmio.append(region)
        self.layout += 1
        return region

    def _check_overlap(self, gpa, size):
        end = gpa + size
        for base, rsize, _ in self._ranges:
            if gpa < base + rsize and base < end:
                raise EptFault(gpa, "overlapping EPT mapping")
        for region in self._mmio:
            if gpa < region.base + region.size and region.base < end:
                raise EptFault(gpa, "overlapping MMIO region")

    # -- translation ----------------------------------------------------------

    def translate(self, gpa):
        """GPA -> HPA; raises :class:`EptMisconfig` on MMIO and
        :class:`EptFault` on unmapped addresses."""
        for region in self._mmio:
            if region.contains(gpa):
                raise EptMisconfig(gpa, region)
        idx = bisect.bisect_right(self._bases, gpa) - 1
        if idx >= 0:
            base, size, hpa = self._ranges[idx]
            if base <= gpa < base + size:
                return hpa + (gpa - base)
        raise EptFault(gpa)

    def lookup_mmio(self, gpa):
        """The MMIO region covering ``gpa``, or None."""
        for region in self._mmio:
            if region.contains(gpa):
                return region
        return None

    def inverse(self, hpa):
        """HPA -> GPA (used when L0 reflects state back into vmcs12)."""
        for base, size, mapped_hpa in self._ranges:
            if mapped_hpa <= hpa < mapped_hpa + size:
                return base + (hpa - mapped_hpa)
        raise EptFault(hpa, f"no mapping covers HPA {hpa:#x}")

    def compose(self, outer):
        """Collapse ``self`` (inner, e.g. L1's EPT for L2) with ``outer``
        (e.g. L0's EPT for L1) into a direct table — what L0 builds into
        vmcs02's EPT pointer.  Inner MMIO regions survive unchanged (they
        must keep trapping); inner RAM ranges are re-based through the
        outer table, splitting exactly where they straddle outer mappings
        whose host-physical ranges are not contiguous.

        The walk is over intervals, so the cost is O(ranges), not
        O(pages).  An inner range not fully covered by outer RAM raises
        what ``outer.translate`` raises at its first uncovered address:
        :class:`EptMisconfig` on outer MMIO, else :class:`EptFault`."""
        composed = EptTable(name=f"{self.name}*{outer.name}")
        for region in self._mmio:
            composed.map_mmio(region.base, region.size, region.device)
        outer_bases, outer_ranges = outer._bases, outer._ranges
        last = len(outer_ranges) - 1
        # Inner ranges are sorted and disjoint and the pieces of one are
        # emitted in address order, so appending keeps the table sorted
        # and needs no overlap check.
        for base, size, mid in self._ranges:
            cursor, end = mid, mid + size
            while cursor < end:
                idx = bisect.bisect_right(outer_bases, cursor) - 1
                if idx < 0 or cursor >= (outer_ranges[idx][0]
                                         + outer_ranges[idx][1]):
                    region = outer.lookup_mmio(cursor)
                    if region is not None:
                        raise EptMisconfig(cursor, region)
                    raise EptFault(cursor)
                obase, osize, ohpa = outer_ranges[idx]
                hpa = ohpa + (cursor - obase)
                stop = obase + osize
                # Merge the following outer ranges while they continue
                # the run in both guest- and host-physical space.
                while stop < end and idx < last:
                    nbase, nsize, nhpa = outer_ranges[idx + 1]
                    if nbase != stop or nhpa != hpa + (stop - cursor):
                        break
                    idx += 1
                    stop = nbase + nsize
                stop = min(stop, end)
                gpa = base + (cursor - mid)
                composed._bases.append(gpa)
                composed._ranges.append((gpa, stop - cursor, hpa))
                cursor = stop
        return composed

    def invalidate(self):
        """INVEPT: bump the generation (models TLB shootdown points)."""
        self.generation += 1

    @property
    def mapped_bytes(self):
        return sum(size for _, size, _ in self._ranges)

    def __repr__(self):
        return (
            f"EptTable({self.name!r}, {len(self._ranges)} ranges, "
            f"{len(self._mmio)} mmio)"
        )
