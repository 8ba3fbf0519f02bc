"""Walk through the reverse-mode engine: build a graph, run backward,
verify against central finite differences, then run the full six-loss
verification harness."""
import numpy as np

from sirmetric import autodiff as ad
from sirmetric.autodiff import Tensor
from sirmetric.gradcheck import gradcheck_all

# A tensor wraps a float64 array; requires_grad marks it as a leaf whose
# gradient we want after backward.
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
w = Tensor(np.array([[0.5, -1.0], [-0.25, 0.75]]), requires_grad=True)
b = Tensor(np.array([0.1, -0.2]), requires_grad=True)

# Each op records one graph node: a dense layer relu(x @ w + b), the squash
# nonlinearity, which maps a row v to v * sqrt(s) / (1 + s) with s = |v|^2
# and so keeps every row strictly inside the unit ball, and a mean.
h = ad.dense(x, w, b, "relu")
s = ad.squash(h)
print("squashed rows:\n", s.data, "\nrow norms:", np.linalg.norm(s.data, axis=1))
y = ad.tensor_mean(s)
print("forward value:", y.item())

y.backward()
print("dL/dx:\n", x.grad)
print("dL/dw:\n", w.grad)
print("dL/db:", b.grad)

# grad_check compares the analytic gradient of any scalar-valued function
# against central differences with step 1e-5, here with respect to x.
report = ad.grad_check(lambda t: ad.tensor_mean(ad.squash(ad.dense(t, w, b, "relu"))),
                       Tensor(x.data))
print(f"grad_check: max_rel_error={report.max_rel_error:.3e} "
      f"passed={report.passed} over {report.num_coordinates} coordinates")

# gradcheck_all runs the same comparison through every loss in the
# training objective, sampling leaves away from hinge and relu kinks so
# the finite differences are trustworthy.
print("\nfull verification harness:")
for name, report in gradcheck_all(seed=0).items():
    print(f"  {name:24s} max_rel_error={report.max_rel_error:.3e} "
          f"passed={report.passed}")
