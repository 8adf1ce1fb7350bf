"""Fixed reference work, timed beside every CLI child to gauge the host's speed.

    python3 perfbench/reference.py <scratch directory>

A shared host runs the same program at speeds that drift by a large factor
within a minute, and that drift reaches every process. So the benchmark
spawns this program after every timed child and scales each child's time
by the nominal time of this program over its times nearby (``host_speed``
in ``run.py``). It never imports ``diskbundle``: a change to the package
leaves its time alone.

Its mix follows the CLI's: interpreter start and ``import numpy``, a JSON
file read, a Python loop of complex polynomial evaluation with a small
dense solve and SVD per point, one FFT and a CSV file written.
"""

import json
import sys
from pathlib import Path

import numpy as np

#: points of the evaluation loop; with start-up the program takes about 0.33 s
POINTS = 3000


def main(directory: Path) -> None:
    source = directory / "reference_input.json"
    if not source.exists():
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((6, 4, 2)).tolist()
        source.write_text(json.dumps({"coeffs": coeffs}))
    coeffs = [[complex(*pair) for pair in entry] for entry in json.loads(source.read_text())["coeffs"]]
    rows = []
    for k in range(POINTS):
        z = 0.9 * np.exp(2j * np.pi * k / POINTS)
        values = []
        for entry in coeffs:
            acc = 0j
            for c in reversed(entry):
                acc = acc * z + c
            values.append(acc)
        frame = np.array(values).reshape(3, 2)
        gram = frame.conj().T @ frame
        proj = frame @ np.linalg.solve(gram, frame.conj().T)
        smallest = np.linalg.svd(frame, compute_uv=False)[-1]
        rows.append((k, float(np.real(np.trace(proj))), float(smallest)))
    spectrum = np.fft.fft(np.array([r[2] for r in rows]))
    with open(directory / "reference_output.csv", "w") as handle:
        handle.write("k,trace,smallest\n")
        for row in rows:
            handle.write(f"{row[0]},{row[1]!r},{row[2]!r}\n")
        handle.write(f"# {float(abs(spectrum[0]))!r}\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
