"""Walk one UE past an O-RU and watch the channel statistics evolve.

Demonstrates the temporal channel model on its own: AR(1) shadow fading with a
speed-dependent correlation coefficient, distance path loss, the one-ring
spatial covariance tracking the angle of arrival, and the classical Jakes
coefficient that motivates redrawing small-scale fading every step.

Run:  python demos/channel_evolution.py            (writes channel_trace.csv)
"""

import numpy as np

from cfmimo.channel import (
    ShadowFading,
    jakes_autocorrelation,
    one_ring_covariance,
    path_loss_db,
    shadow_correlation,
)

SPEED_KMH = 30.0
SAMPLE_TIME_S = 0.5
STEPS = 120
CARRIER_HZ = 3.5e9
ANTENNAS = 4


def main():
    speed = SPEED_KMH / 3.6
    rho_shadow = shadow_correlation(0.05, speed, SAMPLE_TIME_S)
    rho_jakes = jakes_autocorrelation(CARRIER_HZ, speed, SAMPLE_TIME_S)
    print(f"UE speed {SPEED_KMH:g} km/h, sample time {SAMPLE_TIME_S:g} s")
    print(f"  shadow-fading AR(1) coefficient: {rho_shadow:.4f}")
    print(f"  Jakes small-scale coefficient:   {rho_jakes:+.4f}  (|rho| ~ 0: redraw each step)")

    # O-RU at the origin, UE crossing 60 m north of it along the x-axis.
    rng = np.random.default_rng(1)
    shadow = ShadowFading.initial(1, 1, 4.0, 0.05, rng)
    rows = []
    for t in range(STEPS):
        x = -450.0 + speed * SAMPLE_TIME_S * t
        distance = float(np.hypot(x, 60.0))
        aoa = float(np.arctan2(x, 60.0))
        beta = float(path_loss_db(distance, shadow.values_db[0, 0]))
        cov = one_ring_covariance(10 ** (beta / 10.0), aoa, np.deg2rad(10.0), ANTENNAS, 0.5)
        # off-diagonal coherence shows how the covariance turns with the UE
        coherence = abs(cov[0, 1]) / cov[0, 0].real
        rows.append((t * SAMPLE_TIME_S, distance, aoa, shadow.values_db[0, 0], beta, coherence))
        shadow = shadow.evolve(np.array([speed]), SAMPLE_TIME_S, rng)

    with open("channel_trace.csv", "w", encoding="utf-8") as fh:
        fh.write("time_s,distance_m,aoa_rad,shadow_db,beta_db,antenna_coherence\n")
        for row in rows:
            fh.write(",".join(f"{v:.6g}" for v in row) + "\n")
    print(f"wrote channel_trace.csv ({len(rows)} samples)")

    closest = min(rows, key=lambda r: r[1])
    print(f"  closest approach at t={closest[0]:g} s: d={closest[1]:.1f} m, beta={closest[4]:.1f} dB")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        data = np.array(rows)
        fig, axes = plt.subplots(3, 1, figsize=(8, 8), sharex=True)
        axes[0].plot(data[:, 0], data[:, 4])
        axes[0].set_ylabel("large-scale gain [dB]")
        axes[1].plot(data[:, 0], data[:, 3])
        axes[1].set_ylabel("shadow fading [dB]")
        axes[2].plot(data[:, 0], data[:, 2])
        axes[2].set_ylabel("AoA [rad]")
        axes[2].set_xlabel("time [s]")
        fig.tight_layout()
        fig.savefig("channel_trace.png", dpi=120)
        print("wrote channel_trace.png")
    except ImportError:
        print("matplotlib not available, skipping the plot")


if __name__ == "__main__":
    main()
