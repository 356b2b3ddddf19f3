import numpy as np
import pytest

from roadeye.detect import DETECTION
from roadeye.geometry import CLASSES, RigidTransform
from roadeye.scene import AGENT, AgentRow, checked_agents


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR of a Gaussian matrix, det +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_rigid(rng: np.random.Generator, t_scale: float = 100.0) -> RigidTransform:
    return RigidTransform.from_rotation_translation(
        random_rotation(rng), rng.uniform(-t_scale, t_scale, 3)
    )


def detections(rows) -> np.ndarray:
    """DETECTION rows from ((x, y, z, w, l, h, theta), cls, score, id) tuples."""
    return np.array(list(rows), dtype=DETECTION)


def agent(agent_id, cls, center, dims, heading, speed) -> AgentRow:
    """One agent as an `AGENT` row, checked by the ground-truth reader's
    rule: ValueError where the reader would refuse the record."""
    row = (agent_id, CLASSES.index(cls), *center, *dims, heading, speed)
    return checked_agents(np.array([row], AGENT))[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
