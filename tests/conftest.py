import hypothesis
import numpy as np

# Underflow is routine in the eigen solver's power iteration: over its up to
# d steps, non-dominant components can decay into denormals. Everything else
# should surface.
np.seterr(all="warn", under="ignore")

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.register_profile("fast", max_examples=10, deadline=None)
hypothesis.settings.load_profile("ci")
