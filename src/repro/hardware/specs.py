"""Hardware specifications of the paper's testbed (Table IV)."""

from __future__ import annotations

from dataclasses import dataclass

#: GPU scheduling quantum assumed by the paper (§III-C mentions ~2 ms time
#: slices on a time-multiplexed GPU).
GPU_TIME_SLICE_S = 0.002


@dataclass(frozen=True)
class HardwareSpec:
    """One row of Table IV."""

    name: str
    system: str
    cpu: str
    cpu_cores: int
    cpu_ghz: float
    memory: str
    disk: str
    gpu: str


EDGE_SERVER_SPEC = HardwareSpec(
    name="edge-server",
    system="Supermicro SYS-7049GP-TRT",
    cpu="2x Intel Xeon Gold 6230R, 26C52T",
    cpu_cores=52,
    cpu_ghz=2.10,
    memory="4x 64GB DDR4 3200MHz",
    disk="2x 1T SSD + 2x 8T HDD",
    gpu="NVIDIA Tesla T4 16GB",
)

DEVICE_SPEC = HardwareSpec(
    name="user-end-device",
    system="Raspberry Pi 4 Model B",
    cpu="ARM Cortex A72",
    cpu_cores=4,
    cpu_ghz=1.50,
    memory="4GB LPDDR4 1600MHz",
    disk="16GB microSD card",
    gpu="N/A",
)
