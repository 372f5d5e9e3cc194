"""Deterministic core of a LiDAR + camera 3D panoptic segmentation pipeline."""

__version__ = "0.1.0"
