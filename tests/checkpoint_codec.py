"""The samples field of a checkpoint file, for tests that write or edit
checkpoint files by hand: u is stored as base64 of its little-endian
float64 bytes."""
import base64

import numpy as np


def encode_samples(u) -> str:
    return base64.b64encode(np.asarray(u, dtype="<f8").tobytes()).decode("ascii")


def decode_samples(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8").copy()
