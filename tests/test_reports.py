import numpy as np

from gridlink.dynamics import Trajectory
from gridlink.reports import header_lines, trajectory_table


def _per_value_table(traj, meta, footer):
    # the renderer trajectory_table replaced: one numpy scalar -> float -> repr per value
    n = traj.delta.shape[1]
    lines = header_lines(meta)
    lines.append(",".join(["time"] + [f"delta_{i + 1}" for i in range(n)] + [f"omega_{i + 1}" for i in range(n)]))
    for k in range(traj.times.size):
        values = [repr(float(traj.times[k]))]
        values += [repr(float(v)) for v in traj.delta[k]]
        values += [repr(float(v)) for v in traj.omega[k]]
        lines.append(",".join(values))
    lines += header_lines(footer)
    return "\n".join(lines) + "\n"


def test_trajectory_table_matches_per_value_renderer():
    # delta and omega are views of one stacked array, as simulate returns them
    states = np.array(
        [
            [-0.0, 5e-324, 1e-300, 376.99111843077515, 377.0, 376.9911184307752],
            [0.1, -1e-300, 1.0 / 3.0, 376.99111843077515 + 1e-9, -0.0, 1e300],
            [3.141592653589793, 2.0**-1074, -123456.789, 376.9911184307751, 5e-324, 0.0],
        ]
    )
    traj = Trajectory(times=np.arange(3) * 1e-3, delta=states[:, :3], omega=states[:, 3:], dt=1e-3)
    meta, footer = {"tool": "gridlink", "links": 2}, {"fitted_decay_rate": "-0.5", "alpha_max": "-0.4"}
    text = trajectory_table(traj, meta, footer)
    assert text == _per_value_table(traj, meta, footer)
    assert "\n0.0,-0.0,5e-324,1e-300,376.99111843077515," in text
