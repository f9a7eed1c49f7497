"""Wolf's divergence-tracking estimate against the analytic exponent.

For the fully chaotic logistic map (r=4) the largest Lyapunov exponent
is ln 2 exactly: the map is conjugate to the tent map, which stretches
every interval by 2. The Wolf estimator sees only the orbit.
"""

import math

from chaoskit.generators import GeneratorSpec, generate
from chaoskit.lyapunov import largest_lyapunov_wolf
from chaoskit.series import EmbeddingParams, delay_embed

series = generate(
    GeneratorSpec(kind="logistic", n_samples=20000, transient_skip=100, parameters={"r": 4.0})
)

# The map is one-dimensional, so m=1 embedding is already the full state.
vectors = delay_embed(series, EmbeddingParams(1, 1))
wolf = largest_lyapunov_wolf(vectors)

print(f"analytic        : ln 2 = {math.log(2.0):.6f} nats/step")
print(f"wolf estimate   : {wolf.exponent:.6f} nats/step  ({len(vectors)} orbit points)")
print(
    f"  bookkeeping   : {wolf.n_renormalizations} renormalisations, "
    f"{wolf.n_replacements} replacements, low_confidence={wolf.low_confidence}"
)
print(f"relative error  : {abs(wolf.exponent - math.log(2.0)) / math.log(2.0):.2%}")
