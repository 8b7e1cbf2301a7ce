"""Real-time action segmentation engine.

Sliding-window inference with pluggable per-frame classifiers, surround and
center clip sampling, temporally aware label cleaning, hand-guided
high-resolution feature enhancement, hand-localization loss, and segmental
evaluation metrics.
"""

from .align import (AlignmentResult, CropGeometry, alignment, enhance, fallback_geometry,
                    footprint, load_geometry, place_hand_features)
from .classify import (LogitsBackend, NoiseModel, load_logits, make_synthetic_backend,
                       one_hot_logits, synth_timeline)
from .cleaning import (ClassStats, CleanerConfig, StreamCleaner, clean_timeline,
                       compute_class_stats, read_class_stats, threshold, write_class_stats)
from .grid import (FeatureMap, MixerWeights, concat_channels, mix_1x1, residual_norm,
                   resize_nearest, zero_pad_place)
from .hands import (HandLossConfig, HandObservation, HandTarget, decode, f1_at_threshold,
                    hand_loss, hand_loss_grad)
from .metrics import (EvalConfig, edit_score, evaluate, f1_at_iou, frame_accuracy,
                      per_class_f1, segment_level_f1)
from .pipeline import PipelineConfig, StreamSession, run_offline, stream_all
from .refstats import reference_class_stats
from .sampling import (ClipSpec, center_sample_start, clip_span_seconds, inference_clip,
                       middle_clip, prediction_lag, surround_sample_start, training_clip)
from .timeline import (BACKGROUND_ID, NUM_CLASSES, Segment, read_segments_csv,
                       read_timeline_csv, segments_from_timeline, timeline_from_segments,
                       write_segments_csv, write_timeline_csv)

__version__ = "0.1.0"
