"""K-fold selection of the penalty level: the out-of-fold error curve,
the selected estimator, and how close it lands to the oracle."""

import numpy as np

from tracereg import (
    MatrixCompletion,
    cv_select,
    generate_dataset,
    generate_ground_truth,
    lambda_grid,
    lambda_max,
    make_folds,
    solve_path,
    stream,
)

d, r, n, sigma = 20, 2, 1200, 1.0
spec = MatrixCompletion(d, d, plain_entries=True)
b_star = generate_ground_truth(d, d, r, stream(0))
ds = generate_dataset(spec, b_star, n, sigma, seed=1)
rel = lambda b: np.sum((b - b_star) ** 2) / np.sum(b_star**2)

plan = make_folds(n, 5, stream(2))
print("fold sizes:", plan.sizes().tolist())

top = lambda_max(ds)  # the zero-solution threshold
grid = lambda_grid(top, 0.01 * top)
result = cv_select(ds, plan, grid)  # the K fold fits walk the grid in lockstep

# the walk stops once the error has risen at two consecutive rungs, so
# the table ends two rungs after the minimum, not at the grid's floor;
# those last two rows may be loose fits, solved only to confirm the rise

print("\n lambda      out-of-fold error")
for lam, err in zip(result.lambda_grid, result.e_hat):
    marker = "  <-- selected" if lam == result.lambda_cv else ""
    print(f"  {lam:9.5f}  {err:10.4f}{marker}")

print(f"\ncv estimator error          : {rel(result.b_cv):.4f}")
# the same warm-started walk over the grid on the full sample; solve_path
# yields one row of estimates per rung as it solves it
oracle_err = min(rel(est.b_hat) for (est,) in solve_path([ds], grid))
print(f"oracle error over same grid : {oracle_err:.4f}")
print(f"noise floor sigma^2         : {sigma**2:.1f} (out-of-fold error approaches it from above)")
