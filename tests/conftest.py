import contextlib
import ctypes
import errno

import numpy as np
import pytest

from anchorloc import data, files, model, simworld
from anchorloc.geometry import AnchorMap, Pose, yaw_quat


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def openblas_threads():
    """(get, put) of the thread count of numpy's bundled OpenBLAS, through the
    symbols ``model.one_blas_thread`` calls; skips the test where numpy links
    another BLAS."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy does not bundle OpenBLAS")
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def prediction_grads(d_heads):
    """The anchor model's per-head gradient table as gradients w.r.t. the
    BatchPrediction fields (logits, offsets, z_hat, orient_raw)."""
    absolute = d_heads["absolute"]
    return (d_heads["logits"], d_heads["offsets"].reshape(*d_heads["logits"].shape, 2),
            absolute[:, model.ABS_Z], absolute[:, model.ABS_ORIENT])


def make_pose(x, y, z=0.0, yaw=0.0):
    return Pose(position=np.array([x, y, z], dtype=float), orientation=yaw_quat(yaw))


def nearest_anchor(position: np.ndarray, anchor_map: AnchorMap) -> int:
    """Index of the anchor closest in (x, y); ties break to the lowest index.
    One sample at a time, the oracle for SampleBatch.build's row blocks."""
    pos = np.asarray(position, dtype=np.float64).reshape(-1)
    d2 = ((anchor_map.anchors - pos[:2]) ** 2).sum(axis=1)
    return int(np.argmin(d2))


class HalfWriter:
    """A file whose write stores half the bytes, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@contextlib.contextmanager
def half_writes():
    """Within the block, every file ``files.write_atomically`` opens is a HalfWriter.
    ``open`` is a builtin, not a name of ``files``, hence ``raising=False``; the
    tests around the block expect the OSError, so a stale target fails them."""
    real_open = open
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)),
                   raising=False)
        yield


def nearest_label(position, anchor_map: AnchorMap) -> int:
    """The nearest-anchor label SampleBatch.build gives a sample at ``position``."""
    pose = Pose(position=position, orientation=[1.0, 0.0, 0.0, 0.0])
    return int(data.SampleBatch.build(["p"], [pose], np.zeros((1, 1)), anchor_map).nearest[0])


@pytest.fixture(scope="session")
def tiny_world():
    """A small, fast world for plumbing tests: short loop, two landmarks."""
    route = np.array([[0.0, 0.0], [6.0, 0.0], [6.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    # near-panoramic FOV keeps every sample lit, which plumbing tests rely on
    return simworld.WorldSpec(
        route=route,
        landmarks=(("a", (6.0, 0.0)), ("b", (0.0, 1.0))),
        obstacles=(((3.0, 0.4), (3.0, 0.7)),),
        fov_half_angle=175.0,
        noise_sigma=0.0,
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_samples(tiny_world):
    return simworld.generate(tiny_world, 120, 40)
