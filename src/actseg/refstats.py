"""Bundled reference statistics for the 25-class assembly label space.

Per-class example counts and mean segment lengths (seconds) summarize the
recorded assembly footage the engine was built around; class 24 is the
"No Action" background. Only means are published for segment lengths, so
standard deviations are synthesized as mean/3, which keeps
mean - kappa*std positive across the whole kappa sweep range.
"""

import math

from .cleaning import ClassStats
from .timeline import FPS

# (class_id, name, examples, mean length in seconds)
REFERENCE_CLASSES = (
    (0, "Unbox Component", 82, 8.63),
    (1, "Pick Up Washer and/or Screw", 610, 2.07),
    (2, "Pick Up Spanner", 50, 1.44),
    (3, "Pick Up Screwdriver", 101, 1.02),
    (4, "Pick Up Marker Pen", 149, 1.12),
    (5, "Pick Up Torque Wrench", 85, 1.14),
    (6, "Put Down Spanner", 49, 0.96),
    (7, "Put Down Screwdriver", 102, 1.13),
    (8, "Put Down Marker Pen", 140, 1.27),
    (9, "Put Down Torque Wrench", 81, 1.07),
    (10, "Place Washer and Screw on Screwdriver", 428, 1.86),
    (11, "Place Washer and Screw on Product", 159, 1.78),
    (12, "Place Component on Product", 123, 3.43),
    (13, "Place Washer on Bolt", 74, 2.76),
    (14, "Place Metal Bar on Product", 38, 3.59),
    (15, "Tighten Screw with Hand", 163, 3.80),
    (16, "Tighten Screw with Screwdriver", 359, 5.32),
    (17, "Tighten Screw with Torque Wrench", 168, 3.39),
    (18, "Tighten Nut with Hand", 77, 8.43),
    (19, "Tighten Nut with Spanner", 220, 1.99),
    (20, "Tighten Nut with Torque Wrench", 95, 7.74),
    (21, "Mark Bolt with Marker Pen", 134, 4.46),
    (22, "Mark Screw with Marker Pen", 105, 12.89),
    (23, "Remove Washer and Nut from Product", 76, 7.95),
    (24, "No Action", 1220, 3.75),
)


def reference_class_stats(fps: float = FPS):
    """Reference ClassStats in frames at the given capture rate."""
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    stats = {}
    for cid, name, count, mean_sec in REFERENCE_CLASSES:
        mean_frames = mean_sec * fps
        # * (1 / 3), not / 3: the two differ in the last bit for 12 classes
        stats[cid] = ClassStats(cid, count, mean_frames, mean_frames * (1 / 3), name)
    return stats
