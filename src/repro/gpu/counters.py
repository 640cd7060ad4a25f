"""Performance counters for the virtual GPU.

Every kernel launch and every bus transfer appends a record; the counters
aggregate them into the quantities the timing model and the benchmarks
consume.  The counters are the ground truth behind every modeled
millisecond reported in EXPERIMENTS.md — nothing is reported that was not
counted here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class KernelLaunchRecord:
    """One fragment-program execution over a render target."""

    kernel: str
    width: int
    height: int
    cycles_per_fragment: float
    static_fetches: int       # per fragment
    dynamic_fetches: int      # per fragment
    modeled_time_s: float
    compute_time_s: float
    memory_time_s: float

    @property
    def fragments(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class TransferRecord:
    """One host<->device transfer."""

    direction: str            # "upload" | "download"
    nbytes: int
    modeled_time_s: float


@dataclass
class GpuCounters:
    """Aggregated activity of a :class:`~repro.gpu.device.VirtualGPU`."""

    launches: list[KernelLaunchRecord] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    #: Launch and transfer records together, in submission order.
    records: list[KernelLaunchRecord | TransferRecord] = field(
        default_factory=list)
    #: Render-to-texture passes that executed inside a composite (fused)
    #: kernel instead of as their own launch (stream-graph fusion).
    passes_fused: int = 0
    #: Full-extent intermediate arrays never materialized: the
    #: interpreter's per-launch scratch on the fused device path plus
    #: one per intermediate texture elided by stream-graph fusion.
    temporaries_elided: int = 0

    # ------------------------------------------------------------ recording
    def record_launch(self, record: KernelLaunchRecord) -> None:
        self.launches.append(record)
        self.records.append(record)

    def record_transfer(self, record: TransferRecord) -> None:
        self.transfers.append(record)
        self.records.append(record)

    def record_fusion(self, *, passes_fused: int = 0,
                      temporaries_elided: int = 0) -> None:
        """Account work the fused paths avoided doing."""
        self.passes_fused += passes_fused
        self.temporaries_elided += temporaries_elided

    def reset(self) -> None:
        """Clear all recorded activity."""
        self.launches.clear()
        self.transfers.clear()
        self.records.clear()
        self.passes_fused = 0
        self.temporaries_elided = 0

    # ----------------------------------------------------------- aggregates
    @property
    def kernel_launch_count(self) -> int:
        return len(self.launches)

    @property
    def fragments_shaded(self) -> int:
        return sum(r.fragments for r in self.launches)

    @property
    def texture_fetches(self) -> int:
        return sum(r.fragments * (r.static_fetches + r.dynamic_fetches)
                   for r in self.launches)

    @property
    def bytes_uploaded(self) -> int:
        return sum(t.nbytes for t in self.transfers if t.direction == "upload")

    @property
    def bytes_downloaded(self) -> int:
        return sum(t.nbytes for t in self.transfers
                   if t.direction == "download")

    @property
    def kernel_time_s(self) -> float:
        """Modeled time spent in fragment programs."""
        return sum(r.modeled_time_s for r in self.launches)

    @property
    def transfer_time_s(self) -> float:
        """Modeled time spent on the bus."""
        return sum(t.modeled_time_s for t in self.transfers)

    @property
    def upload_time_s(self) -> float:
        """Modeled time spent on host->device transfers (stream upload)."""
        return sum(t.modeled_time_s for t in self.transfers
                   if t.direction == "upload")

    @property
    def download_time_s(self) -> float:
        """Modeled time spent on device->host transfers (stream
        download)."""
        return sum(t.modeled_time_s for t in self.transfers
                   if t.direction == "download")

    @property
    def total_time_s(self) -> float:
        """Modeled end-to-end device time (kernels + transfers)."""
        return self.kernel_time_s + self.transfer_time_s

    def time_by_kernel(self) -> dict[str, float]:
        """Modeled seconds grouped by kernel name — the profile a
        ``cProfile``-style analysis of the algorithm would show."""
        out: dict[str, float] = {}
        for r in self.launches:
            out[r.kernel] = out.get(r.kernel, 0.0) + r.modeled_time_s
        return out

    def summary(self) -> dict[str, float]:
        """Flat dict of the headline aggregates (stable keys for tests)."""
        return {
            "kernel_launches": float(self.kernel_launch_count),
            "fragments_shaded": float(self.fragments_shaded),
            "texture_fetches": float(self.texture_fetches),
            "bytes_uploaded": float(self.bytes_uploaded),
            "bytes_downloaded": float(self.bytes_downloaded),
            "kernel_time_s": self.kernel_time_s,
            "transfer_time_s": self.transfer_time_s,
            "upload_time_s": self.upload_time_s,
            "download_time_s": self.download_time_s,
            "total_time_s": self.total_time_s,
            "passes_fused": float(self.passes_fused),
            "temporaries_elided": float(self.temporaries_elided),
        }
