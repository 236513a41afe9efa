"""The benchmark's workloads: seeded scene configs plus the matcher to track with.

Each workload fixes the scene's make-up (frame size, object count, frames,
corruption rates, matcher); `--seed` only moves the random draws, so every
seed gives a scene of the same size and kind.  The scene's and the
pipeline's downsample are always equal, and `max_peaks` is set above the
objects plus false positives a frame can hold, so decoding never truncates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DOWNSAMPLE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    frames: int
    objects: int
    matcher: str = "greedy"
    max_peaks: int = 100
    corruption: dict[str, float] = field(default_factory=dict)

    def config_text(self, seed: int) -> str:
        """The INI config every command of this workload reads."""
        lines = [
            "[pipeline]",
            f"downsample = {DOWNSAMPLE}",
            f"max_peaks = {self.max_peaks}",
            "",
            "[scene]",
            f"width = {self.size}",
            f"height = {self.size}",
            f"frames = {self.frames}",
            f"min_objects = {self.objects}",
            f"max_objects = {self.objects}",
            "min_size = 16",
            "max_size = 48",
            "min_speed = 0.5",
            "max_speed = 2.5",
            f"downsample = {DOWNSAMPLE}",
            f"seed = {seed}",
        ]
        if self.corruption:
            lines += ["", "[corruption]"]
            lines += [f"{key} = {value}" for key, value in self.corruption.items()]
            lines.append(f"seed = {seed + 7919}")
        return "\n".join(lines) + "\n"


# Why each exists is in BENCHMARK.json.  The crowds are short (30 and 24
# frames) so that a round takes 5-9 s and a run holds several rounds; the
# machine's speed drifts too much for medians of two or three rounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clean-long",
            size=1024,
            frames=150,
            objects=20,
        ),
        Workload(
            name="crowd-greedy",
            size=1024,
            frames=30,
            objects=100,
            max_peaks=300,
            corruption={"fn_rate": 0.1, "fp_rate": 2.0, "jitter_sigma": 2.0},
        ),
        Workload(
            name="crowd-hungarian",
            size=1024,
            frames=24,
            objects=160,
            matcher="hungarian",
            max_peaks=300,
            corruption={"fn_rate": 0.0, "fp_rate": 2.0, "jitter_sigma": 2.0},
        ),
    )
}

# A scene small enough to run the whole harness in a few seconds.
TINY = Workload(
    name="tiny",
    size=256,
    frames=12,
    objects=6,
    max_peaks=50,
    corruption={"fn_rate": 0.1, "fp_rate": 1.0, "jitter_sigma": 1.0},
)
